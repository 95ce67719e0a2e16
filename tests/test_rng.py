"""Stream-derivation checks: reproducibility and key separation."""

import subprocess
import sys

import pytest

from graphpurify.rng import derive_rng, derive_seed


class TestDeriveRng:
    def test_same_key_same_stream(self):
        a = derive_rng(123, "drpp", 7)
        b = derive_rng(123, "drpp", 7)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_seed_different_stream(self):
        a = derive_rng(123, "drpp", 7)
        b = derive_rng(124, "drpp", 7)
        assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]

    def test_different_key_parts_different_stream(self):
        a = derive_rng(0, "scan", 0)
        b = derive_rng(0, "scan", 1)
        c = derive_rng(0, "drpp", 0)
        xs = [a.random() for _ in range(8)]
        ys = [b.random() for _ in range(8)]
        zs = [c.random() for _ in range(8)]
        assert xs != ys and xs != zs and ys != zs

    def test_key_order_matters(self):
        a = derive_rng(5, 1, 2)
        b = derive_rng(5, 2, 1)
        assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]

    def test_negative_int_key_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(0, -1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(-1, "drpp", 0)
        with pytest.raises(ValueError):
            derive_seed(-5, "scan", 0)

    def test_seeds_beyond_128_bits(self):
        a = derive_rng(2**200, "drpp", 0)
        b = derive_rng(2**200 + 1, "drpp", 0)
        assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]
        assert 0 <= derive_seed(2**300, "scan", 1) < 2**64

    def test_key_parts_do_not_run_together(self):
        # an int and its decimal string, and split vs joined strings, are
        # different keys
        pairs = [((1,), ("1",)), (("ab", "c"), ("a", "bc")), ((12,), (1, 2))]
        for k1, k2 in pairs:
            assert derive_rng(0, *k1).random() != derive_rng(0, *k2).random()

    def test_no_numpy_random_import(self):
        code = (
            "import sys; from graphpurify.rng import derive_rng, derive_seed; "
            "derive_rng(derive_seed(1, 'scan', 0), 'drpp', 0).random(); "
            "print('numpy.random' in sys.modules, '_hashlib' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.split() == ["False", "False"], proc.stderr


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(9, "scan", 3) == derive_seed(9, "scan", 3)

    def test_64_bit_range(self):
        for i in range(50):
            s = derive_seed(42, "probe", i)
            assert 0 <= s < 2**64

    def test_distinct_across_indices(self):
        seeds = {derive_seed(0, "scan", i) for i in range(200)}
        assert len(seeds) == 200

    def test_seed_vs_rng_independent_use(self):
        # deriving a sub-seed then an rng from it is still reproducible
        sub = derive_seed(7, "outer")
        a = derive_rng(sub, "inner")
        b = derive_rng(derive_seed(7, "outer"), "inner")
        assert a.random() == b.random()
