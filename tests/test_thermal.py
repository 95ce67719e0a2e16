"""Noise-model checks: the closed-form critical temperature must agree with
an independently coded root-find of the purifiability boundary."""

import math

import pytest

from graphpurify.errors import ParameterError
from graphpurify.thermal import (
    P_STAR,
    ThermalModel,
    critical_temperature,
    purifiable_at,
)
from oracles import temperature_for_p


def _flip_prob(B: float, T: float) -> float:
    # written from scratch on purpose: p = 1/(1 + e^{B/T}),
    # in a form that stays finite for tiny T
    x = B / T
    if x > 0:
        return math.exp(-x) / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + math.exp(x))


def _bisect_critical(B: float) -> float:
    """T where (1 - p(T))^2 = 1/2, by plain bisection."""

    def f(T: float) -> float:
        return (1.0 - _flip_prob(B, T)) ** 2 - 0.5

    lo, hi = 1e-6, 100.0 * B
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalTemperature:
    def test_matches_independent_root_find(self):
        for B in (0.5, 1.0, 2.0, 7.3):
            assert critical_temperature(B) == pytest.approx(_bisect_critical(B), abs=1e-9)

    def test_reference_value(self):
        assert critical_temperature(1.0) == pytest.approx(1.134593, abs=1e-6)

    def test_scales_linearly_in_field(self):
        assert critical_temperature(2.0) == pytest.approx(2 * critical_temperature(1.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_field(self, bad):
        with pytest.raises(ParameterError):
            critical_temperature(bad)


class TestErrorProb:
    def test_formula(self):
        m = ThermalModel(B=1.0, T=0.7)
        assert m.error_prob() == pytest.approx(_flip_prob(1.0, 0.7), rel=1e-12)

    def test_zero_temperature_is_noiseless(self):
        assert ThermalModel(B=1.0, T=0.0).error_prob() == 0.0

    def test_monotone_in_temperature(self):
        ps = [ThermalModel(B=1.0, T=t).error_prob() for t in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert ps == sorted(ps)
        assert all(0.0 <= p < 0.5 for p in ps)

    def test_large_ratio_does_not_overflow(self):
        assert ThermalModel(B=1000.0, T=0.001).error_prob() == 0.0


class TestPurifiability:
    def test_boundary_is_strict(self):
        assert not purifiable_at(P_STAR)
        assert purifiable_at(P_STAR - 1e-12)
        assert not purifiable_at(P_STAR + 1e-12)

    def test_p_star_value(self):
        assert P_STAR == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-15)


class TestTemperatureForP:
    def test_round_trip(self):
        for p in (0.01, 0.1, 0.25, 0.4, 0.49):
            T = temperature_for_p(2.0, p)
            assert ThermalModel(B=2.0, T=T).error_prob() == pytest.approx(p, rel=1e-12)

    def test_critical_consistency(self):
        # p* should map back to exactly the critical temperature
        assert temperature_for_p(1.0, P_STAR) == pytest.approx(critical_temperature(1.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.6, -0.1])
    def test_rejects_out_of_range_p(self, bad):
        with pytest.raises(ParameterError):
            temperature_for_p(1.0, bad)
