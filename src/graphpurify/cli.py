"""Command-line front end for reproduction runs.

Every command shares one result envelope: {command, config, results,
version}.  Human-readable tables go to stdout by default; --json switches to
a canonical machine format (sorted keys, compact separators) that is
byte-identical for a fixed seed regardless of worker count.

Exit codes: 0 success (negative scientific results included), 1 oracle-sweep
mismatch, 2 usage error, 3 capacity error, 4 internal invariant violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache

from . import __version__, optimality, verification
from .errors import CapacityError, InvariantError, ParameterError
from .graphs import Graph, family_parts, grid_sides, load_graph
from .protocol import plan_extraction, rate_report, run_drpp, threshold_scan
from .thermal import P_STAR, ThermalModel, critical_temperature, purifiable_at

SEED_ENV_VAR = "GRAPHPURIFY_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Scientific configuration echoed into every result envelope.

    Deliberately excludes plumbing that must not affect results (worker
    count), so equal-seed runs emit byte-identical JSON.
    """

    command: str
    graph: str | None = None
    B: float | None = None
    T: float | None = None
    p: float | None = None
    shots: int | None = None
    seed: int | None = None
    pair_target_fidelity: float | None = None
    tol: float | None = None
    max_n: int | None = None
    out: str | None = None
    json_output: bool = False


def _load(source: str) -> tuple[Graph, str | None]:
    """Graph plus the argument itself when it is a family string; None for an
    edge-list file, which wins when a file of that name exists."""
    family = None if os.path.exists(source) else source
    return load_graph(source), family


def n_geo_formula(family: str | None) -> int | None:
    """Analytic round count for known families; None for an edge-list file
    (no family) or when no formula applies.

    path -> 3; cluster:d -> 3*d*d (grid:...xN counts its nontrivial axes the
    same way); star/ghz:N -> N-1.  ``simulate``, ``rates`` and ``plan``
    report it as ``n_geo_formula`` beside the planner's ``n_geo_plan``.
    """
    if family is None:
        return None
    name, arg = family_parts(family)
    try:
        if name == "path":
            return 3
        if name in ("star", "ghz"):
            size = int(arg)
            return size - 1 if size >= 2 else None
        if name == "cluster":
            d = int(arg)
        elif name == "grid":
            d = sum(1 for s in grid_sides(arg) if s >= 2)
        else:
            return None
    except ValueError:
        return None
    return 3 * d * d if d >= 1 else None


def _resolve_seed(args) -> int:
    """--seed, else $GRAPHPURIFY_SEED, else 0; negative seeds are rejected."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return 0
        try:
            seed, source = int(raw), SEED_ENV_VAR
        except ValueError:
            raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ParameterError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _resolve_noise(args) -> tuple[float, float | None, float | None]:
    """Enforce: exactly one of (T with B) or (p). Returns (p, B, T)."""
    has_p = args.p is not None
    has_t = args.T is not None
    has_b = args.B is not None
    if has_p and (has_t or has_b):
        raise ParameterError("give either --p or --T with --B, not both")
    if has_p:
        if not 0.0 <= args.p <= 0.5:
            raise ParameterError("--p must lie in [0, 1/2]")
        return args.p, None, None
    if not (has_t and has_b):
        raise ParameterError("give either --p or --T with --B")
    model = ThermalModel(B=args.B, T=args.T)
    return model.error_prob(), args.B, args.T


def _emit(cfg: RunConfig, results) -> None:
    envelope = {
        "command": cfg.command,
        "config": asdict(cfg),
        "results": results,
        "version": __version__,
    }
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if cfg.json_output:
        sys.stdout.write(text)


def _say(cfg: RunConfig, lines: list[str]) -> None:
    if not cfg.json_output:
        sys.stdout.write("\n".join(lines) + "\n")


def _fmt(x, digits: int = 6) -> str:
    return "-" if x is None else f"{x:.{digits}f}"


# ---------------------------------------------------------------------------
# command handlers


def cmd_threshold(args) -> int:
    t_crit = critical_temperature(args.B)
    rows = []
    for factor in (0.99, 1.01):
        model = ThermalModel(B=args.B, T=factor * t_crit)
        rows.append(
            {
                "T": model.T,
                "p": model.error_prob(),
                "purifiable": purifiable_at(model.error_prob()),
            }
        )
    cfg = RunConfig(command="threshold", B=args.B, json_output=args.json, out=args.out)
    results = {"B": args.B, "t_crit": t_crit, "p_star": P_STAR, "table": rows}
    _emit(cfg, results)
    lines = [
        f"critical temperature at B={args.B:g}: T_crit = {t_crit:.6f}",
        f"pair threshold p* = {P_STAR:.6f}",
    ]
    for row in rows:
        verdict = "yes" if row["purifiable"] else "no"
        lines.append(
            f"  T = {row['T']:.6f}  p = {row['p']:.6f}  purifiable: {verdict}"
        )
    _say(cfg, lines)
    return 0


def cmd_simulate(args) -> int:
    g, family = _load(args.graph)
    p, b_val, t_val = _resolve_noise(args)
    seed = _resolve_seed(args)
    res = run_drpp(
        g,
        p,
        args.shots,
        pair_target_fidelity=args.target,
        seed=seed,
        workers=args.workers,
    )
    cfg = RunConfig(
        command="simulate",
        graph=args.graph,
        B=b_val,
        T=t_val,
        p=p,
        shots=args.shots,
        seed=seed,
        pair_target_fidelity=args.target,
        out=args.out,
        json_output=args.json,
    )
    _emit(cfg, {**asdict(res), "n_geo_formula": n_geo_formula(family)})
    if res.converged:
        lo, hi = res.ci95
        lines = [
            f"graph {args.graph} (n={g.n}), p = {p:.6f}, {args.shots} shots",
            f"fidelity = {res.fidelity:.6f}  (95% CI [{lo:.6f}, {hi:.6f}])",
            f"pair recurrence: {res.rounds} rounds to reach {res.achieved_pair_fidelity:.6f}",
            f"rounds planned = {res.n_geo_plan}, copies consumed per output = {res.copies_consumed:.3f}",
        ]
    else:
        lines = [
            f"graph {args.graph} (n={g.n}), p = {p:.6f}",
            f"pair recurrence cannot reach target {res.pair_target_fidelity:g}: "
            f"stalled at {res.achieved_pair_fidelity:.6f} after {res.rounds} rounds",
            "state not purifiable at this noise level",
        ]
    _say(cfg, lines)
    return 0


def _parse_grid(raw: str, what: str) -> list[float]:
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"could not parse {what} grid {raw!r}") from None
    if not vals:
        raise ParameterError(f"{what} grid is empty")
    return vals


def cmd_scan(args) -> int:
    g, _ = _load(args.graph)
    if (args.p_grid is None) == (args.t_grid is None):
        raise ParameterError("give exactly one of --p-grid or --T-grid")
    temps = None
    if args.p_grid is not None:
        if args.B is not None:
            raise ParameterError("--B applies to --T-grid only, not to --p-grid")
        grid = _parse_grid(args.p_grid, "p")
        b_val = None
    else:
        if args.B is None:
            raise ParameterError("--T-grid needs --B")
        b_val = args.B
        # one row per requested temperature, repeats included, in p order
        by_p = sorted((ThermalModel(B=args.B, T=t).error_prob(), t)
                      for t in _parse_grid(args.t_grid, "T"))
        grid = [p for p, _ in by_p]
        temps = [t for _, t in by_p]
    seed = _resolve_seed(args)
    rows = threshold_scan(
        g,
        grid,
        args.shots,
        seed=seed,
        pair_target_fidelity=args.target,
        workers=args.workers,
        temperatures=temps,
    )
    cfg = RunConfig(
        command="scan",
        graph=args.graph,
        B=b_val,
        shots=args.shots,
        seed=seed,
        pair_target_fidelity=args.target,
        out=args.out,
        json_output=args.json,
    )
    _emit(cfg, [asdict(r) for r in rows])
    lines = [f"scan over {len(rows)} points on {args.graph} ({args.shots} shots each)"]
    header = "  p         T         purifiable  converged  fidelity"
    lines.append(header)
    for r in rows:
        lines.append(
            f"  {r.p:<9.6f} {_fmt(r.temperature):<9s} "
            f"{str(r.purifiable):<11s} {str(r.converged):<10s} {_fmt(r.fidelity)}"
        )
    _say(cfg, lines)
    return 0


def cmd_rates(args) -> int:
    if (args.graph is None) == (args.family is None):
        raise ParameterError("give exactly one of --graph or --family")
    source = args.graph if args.graph is not None else args.family
    g, family = _load(source)
    if args.family is not None and family is None:
        raise ParameterError(f"--family expects a family string, got {source!r}")
    p, b_val, t_val = _resolve_noise(args)
    report = rate_report(g, p)
    formula = n_geo_formula(family)
    cfg = RunConfig(
        command="rates",
        graph=source,
        B=b_val,
        T=t_val,
        p=p,
        out=args.out,
        json_output=args.json,
    )
    _emit(cfg, {**asdict(report), "n_geo_formula": formula})
    lines = [
        f"graph {source}, p = {p:.6f}",
        f"pair rate r2 = {report.r2:.6f}",
        f"state rate bounds: {report.r_psi_lower:.6f} <= R <= {report.r_psi_upper:.6f}",
        f"rounds: planned = {report.n_geo_plan}"
        + (f", formula = {formula}" if formula is not None else ""),
    ]
    _say(cfg, lines)
    return 0


def cmd_plan(args) -> int:
    g, family = _load(args.graph)
    plan = plan_extraction(g)
    formula = n_geo_formula(family)
    cfg = RunConfig(command="plan", graph=args.graph, out=args.out, json_output=args.json)
    results = {
        "n_geo_plan": plan.n_geo,
        "n_geo_formula": formula,
        "rounds": [
            [
                {"edge": list(pe.edge), "z_measure_set": list(pe.z_measure_set)}
                for pe in rnd
            ]
            for rnd in plan.rounds
        ],
    }
    _emit(cfg, results)
    lines = [f"extraction plan for {args.graph}: {plan.n_geo} rounds"]
    for i, rnd in enumerate(plan.rounds):
        edges = ", ".join(f"{pe.edge}" for pe in rnd)
        lines.append(f"  round {i}: {edges}")
    if formula is not None:
        lines.append(f"family formula: {formula} rounds")
    _say(cfg, lines)
    return 0


def cmd_verify_oracle(args) -> int:
    def progress(msg: str) -> None:
        print(msg, file=sys.stderr)

    report = verification.run_oracle_sweep(max_n=args.max_n, progress=progress)
    # wall time varies run to run, so it stays out of the byte-stable output
    progress(f"sweep took {report.elapsed_seconds:.1f}s")
    cfg = RunConfig(
        command="verify-oracle", max_n=args.max_n, out=args.out, json_output=args.json
    )
    results = {
        "graphs": report.graphs,
        "checks": report.checks,
        "mismatches": report.mismatches,
        "ok": report.ok,
        "failures": list(report.failures[:10]),
    }
    _emit(cfg, results)
    lines = [
        f"swept {report.graphs} graphs, {report.checks} checks",
        "all pattern states match the dense oracle"
        if report.ok
        else f"MISMATCHES: {report.mismatches}",
    ]
    for f in report.failures[:10]:
        lines.append(f"  {f}")
    _say(cfg, lines)
    return 0 if report.ok else 1


def cmd_check_optimality(args) -> int:
    g, _ = _load(args.graph)
    verdicts = optimality.proof_applies(g, p=args.p, tol=args.tol)
    cfg = RunConfig(
        command="check-optimality",
        graph=args.graph,
        p=args.p,
        tol=args.tol,
        out=args.out,
        json_output=args.json,
    )
    edges = [
        {"edge": [u, v], "reconstructable": ok} for (u, v), ok in sorted(verdicts.items())
    ]
    graph_ok = all(v for v in verdicts.values())
    results = {"p": args.p, "tol": args.tol, "edges": edges, "graph_ok": graph_ok}
    _emit(cfg, results)
    lines = [f"two-party reconstruction check for {args.graph} at p = {args.p:g}"]
    for row in edges:
        u, v = row["edge"]
        verdict = "ok" if row["reconstructable"] else "not found"
        lines.append(f"  edge ({u}, {v}): {verdict}")
    lines.append(
        "threshold argument applies to every edge"
        if graph_ok
        else "threshold argument does NOT cover this graph"
    )
    _say(cfg, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, noise=False, mc=False) -> None:
    sub.add_argument("--json", action="store_true", help="canonical JSON on stdout")
    sub.add_argument("--out", help="also write the JSON envelope to this file")
    if noise:
        sub.add_argument("--p", type=float, help="flip probability in [0, 1/2]")
        sub.add_argument("--T", type=float, help="bath temperature (needs --B)")
        sub.add_argument("--B", type=float, help="stabilizer field strength")
    if mc:
        sub.add_argument("--shots", type=int, default=10000)
        sub.add_argument("--seed", type=int, default=None,
                         help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
        sub.add_argument("--workers", type=int, default=1)
        sub.add_argument("--target", type=float, default=0.999,
                         help="pair fidelity the recurrence must reach")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="graphpurify",
        description="Thermal graph-state purification: thresholds, rates, simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("threshold", help="critical temperature and pair threshold")
    s.add_argument("--B", type=float, default=1.0)
    _add_common(s)
    s.set_defaults(handler=cmd_threshold)

    s = subs.add_parser("simulate", help="Monte Carlo protocol run")
    s.add_argument("--graph", required=True, help="family string or edge-list file")
    _add_common(s, noise=True, mc=True)
    s.set_defaults(handler=cmd_simulate)

    s = subs.add_parser("scan", help="purifiability scan over a noise grid")
    s.add_argument("--graph", required=True)
    s.add_argument("--p-grid", help="comma-separated flip probabilities")
    s.add_argument("--T-grid", dest="t_grid", help="comma-separated temperatures (needs --B)")
    s.add_argument("--B", type=float, help="field strength for --T-grid")
    _add_common(s, mc=True)
    s.set_defaults(handler=cmd_scan)

    s = subs.add_parser("rates", help="pair rate and state-rate bounds")
    s.add_argument("--graph", help="family string or edge-list file")
    s.add_argument("--family", help="family string (also used for the round formula)")
    _add_common(s, noise=True)
    s.set_defaults(handler=cmd_rates)

    s = subs.add_parser("plan", help="extraction rounds for a graph")
    s.add_argument("--graph", required=True)
    _add_common(s)
    s.set_defaults(handler=cmd_plan)

    s = subs.add_parser("verify-oracle", help="exhaustive pattern-vs-dense sweep")
    s.add_argument("--max-n", type=int, default=5)
    _add_common(s)
    s.set_defaults(handler=cmd_verify_oracle)

    s = subs.add_parser("check-optimality", help="two-party reconstruction verdicts")
    s.add_argument("--graph", required=True)
    s.add_argument("--p", type=float, default=0.1)
    s.add_argument("--tol", type=float, default=1e-9)
    _add_common(s)
    s.set_defaults(handler=cmd_check_optimality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        graph = getattr(args, "graph", None)
        where = f"{graph}: " if graph else ""
        print(f"capacity error: {where}{exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error, invariant violated: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
