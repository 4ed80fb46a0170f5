"""Command line front end.

Subcommands::

    price       price a payoff on a lattice market (or price bounds)
    dynamics    price at an interior node reached by observed moves
    complete    classify the market's martingale measure set
    bounds      price range over product martingale measures (one vertex
                of the step polytope per step), not the wider no-arbitrage
                interval
    np          cutoff / priors / Bayes risk decomposition of a call
    converge    lattice-to-limit price table (CSV), optional threshold gate
    lan-report  finite-N law diagnostics per lattice size (CSV)

Exit codes: 0 success, 1 incomplete (``complete`` only), 2 no-arbitrage
violation, 3 malformed specs or invalid parameters, 4 convergence threshold
violated, 5 self-check failed (``price``: direct and test-power prices
differ by more than 1e-12 relative; ``np``: Bayes-risk identity).  All
floats are printed with 12 significant digits, ``.`` decimal separator and
``\n`` line endings, so outputs are byte-stable.  The environment variable
``LECAM_MAX_PATHS`` overrides the enumeration caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .errors import LecamError, InvalidParams, NoArbitrageViolation, SelfCheckFailed
from .lattice import (
    LatticeMarket,
    PathState,
    market_from_json,
    solve_martingale_measures,
)
from .pricing import (
    dynamic_price,
    np_decomposition,
    payoff_from_json,
    price_bounds,
    price_direct,
    price_via_tests,
)
from .lan import convergence_study, lan_diagnostics, study_from_json, third_lemma_check

EXIT_OK = 0
EXIT_INCOMPLETE = 1
EXIT_NO_ARBITRAGE = 2
EXIT_SPEC = 3
EXIT_THRESHOLD = 4
EXIT_SELF_CHECK = 5

#: Relative tolerance of the direct vs test-power price check in ``price``.
ROUTE_RTOL = 1e-12

CONVERGE_HEADER = "N,p_N,p_BS,abs_gap,noether_max,var_gap"
LAN_HEADER = ("N,t,noether_max,riemann_gap,p0_mean_gap,p0_var_gap,p0_cdf_sup,"
              "q_z_mean_gap,q_logs_mean_gap,q_logs_var_gap,alpha")


def fmt(x: float) -> str:
    """Deterministic 12-significant-digit rendering."""
    return format(float(x), ".12g")


def _round12(obj):
    """Round floats for JSON output to the same 12 significant digits."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(lines: Sequence[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidParams(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"{path} is not valid JSON: {exc}") from exc


def _resolve_measure(market: LatticeMarket, selector: str | None):
    """Turn ``--measure`` into a measure argument of the pricing routes.

    ``designated`` picks the unique measure (complete markets) or the
    barycenter of the solution polytope; a comma-separated vector applies to
    every step; ``@file.json`` loads per-step vectors.  Without a selector
    the market must be complete.
    """
    solutions = solve_martingale_measures(market)
    if selector is None:
        if not solutions.complete:
            raise InvalidParams(
                "market is incomplete: pass --measure (e.g. 'designated' or a "
                "per-step vector) or use --bounds"
            )
        return solutions.designated()
    if selector == "designated":
        return solutions.designated()
    if selector.startswith("@"):
        doc = _load_json(selector[1:])
        try:
            return [np.array([float(x) for x in row]) for row in doc]
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"{selector[1:]} must hold one list of numbers "
                                f"per step: {exc}") from exc
    try:
        vec = [float(tok) for tok in selector.split(",")]
    except ValueError as exc:
        raise InvalidParams(f"cannot parse measure selector {selector!r}") from exc
    return np.array(vec)


def _parse_state(market: LatticeMarket, raw: str) -> PathState:
    """Moves as comma-separated tokens: ``u``/``d`` for two-point steps,
    otherwise integer move indices."""
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    steps = market.returns  # support sizes read once per kind
    sizes, kinds = [len(step) for step in steps.kinds], steps.index[:len(tokens)].tolist()
    moves = []
    for j, tok in enumerate(tokens):
        if tok in ("u", "d"):
            if j >= market.steps or sizes[kinds[j]] != 2:
                raise InvalidParams(f"token {tok!r} needs a two-point step {j}")
            moves.append(0 if tok == "u" else 1)
        else:
            try:
                moves.append(int(tok))
            except ValueError as exc:
                raise InvalidParams(f"cannot parse move token {tok!r}") from exc
    return PathState(t=len(moves), moves=tuple(moves))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_price(args) -> int:
    if args.bounds:
        return _cmd_bounds(args)
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    measures = _resolve_measure(market, args.measure)
    direct = price_direct(market, measures, payoff)
    report = price_via_tests(market, measures, payoff)
    diff = abs(direct - report.price)
    if args.format == "json":
        doc = _round12({
            "price_direct": direct,
            "price_via_tests": report.price,
            "diff": diff,
            "report": report.to_json(),
        })
        _emit([json.dumps(doc)], args.out)
    else:
        lines = [
            f"price_direct = {fmt(direct)}",
            f"price_via_tests = {fmt(report.price)}",
            f"diff = {fmt(diff)}",
            f"discount = {fmt(report.discount)}",
        ]
        for term in report.terms:
            lines.append(
                f"term {term.label}: power_alt = {fmt(term.power_alt)}, "
                f"power_base = {fmt(term.power_base)}"
            )
        _emit(lines, args.out)
    if not diff <= ROUTE_RTOL * max(1.0, abs(direct)):
        raise SelfCheckFailed(
            f"price_direct and price_via_tests differ by {fmt(diff)}"
        )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    lower, upper = price_bounds(market, payoff)
    if args.format == "json":
        _emit([json.dumps(_round12({"lower": lower, "upper": upper}))], args.out)
    else:
        _emit([f"lower = {fmt(lower)}", f"upper = {fmt(upper)}"], args.out)
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    measures = _resolve_measure(market, args.measure)
    state = _parse_state(market, args.state)
    price = dynamic_price(market, measures, payoff, state)
    if args.format == "json":
        doc = _round12({"t": state.t, "moves": list(state.moves), "price": price})
        _emit([json.dumps(doc)], args.out)
    else:
        moves = ",".join(str(i) for i in state.moves)
        _emit([f"t = {state.t}", f"moves = {moves}", f"price = {fmt(price)}"], args.out)
    return EXIT_OK


def _cmd_complete(args) -> int:
    market = market_from_json(_load_json(args.market))
    solutions = solve_martingale_measures(market)
    lines = [f"complete: {'true' if solutions.complete else 'false'}"]
    two_point = all(len(step.vertices[0]) == 2 for step in solutions.per_step.kinds)
    if solutions.complete and two_point:
        taus = {fmt(step.vertices[0][0]) for step in solutions.per_step.kinds}
        if len(taus) == 1:
            lines.append(f"tau = {next(iter(taus))}")
    for j, step in enumerate(solutions.per_step):
        vertices = " | ".join(
            ",".join(fmt(x) for x in v) for v in step.vertices
        )
        lines.append(f"step {j + 1}: {step.kind} {vertices}")
    if args.format == "json":
        doc = _round12({
            "complete": solutions.complete,
            "steps": [
                {"kind": step.kind, "vertices": [list(v) for v in step.vertices]}
                for step in solutions.per_step
            ],
        })
        _emit([json.dumps(doc)], args.out)
    else:
        _emit(lines, args.out)
    return EXIT_OK if solutions.complete else EXIT_INCOMPLETE


def _cmd_np(args) -> int:
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    measures = _resolve_measure(market, args.measure)
    dec = np_decomposition(market, measures, payoff)
    if args.format == "json":
        doc = _round12({
            "cutoff": dec.cutoff,
            "lambda0": dec.priors.lambda0,
            "lambda1": dec.priors.lambda1,
            "bayes_risk": dec.risk,
            "price": dec.price,
        })
        _emit([json.dumps(doc)], args.out)
    else:
        _emit([
            f"cutoff = {fmt(dec.cutoff)}",
            f"lambda0 = {fmt(dec.priors.lambda0)}",
            f"lambda1 = {fmt(dec.priors.lambda1)}",
            f"bayes_risk = {fmt(dec.risk)}",
            f"price = {fmt(dec.price)}",
        ], args.out)
    return EXIT_OK


def _cmd_converge(args) -> int:
    study = study_from_json(_load_json(args.study))
    threshold = args.threshold if args.threshold is not None else study.threshold
    if threshold is not None and not math.isfinite(threshold):
        raise InvalidParams(f"threshold must be finite, got {threshold!r}")
    rows = convergence_study(study.path, study.family(), study.payoff,
                             study.bs, study.Ns)
    if args.format == "json":
        doc = _round12([
            {
                "N": r.N, "p_N": r.p_n, "p_BS": r.p_limit, "abs_gap": r.abs_gap,
                "noether_max": r.noether_max, "var_gap": r.var_gap,
            }
            for r in rows
        ])
        _emit([json.dumps(doc)], args.out)
    else:
        lines = [CONVERGE_HEADER]
        for r in rows:
            lines.append(",".join([
                str(r.N), fmt(r.p_n), fmt(r.p_limit), fmt(r.abs_gap),
                fmt(r.noether_max), fmt(r.var_gap),
            ]))
        _emit(lines, args.out)
    if threshold is not None and not rows[-1].abs_gap <= threshold:
        sys.stderr.write(
            f"threshold violated: |p_N - p_BS| = {fmt(rows[-1].abs_gap)} "
            f"> {fmt(threshold)} at N = {rows[-1].N}\n"
        )
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_lan_report(args) -> int:
    study = study_from_json(_load_json(args.study))
    family = study.family()
    t = args.t
    records = []
    for N in study.Ns:
        schedule = family(int(N))
        diag = lan_diagnostics(study.path, schedule, t)
        third = third_lemma_check(study.path, schedule, t)
        records.append((diag, third))
    if args.format == "json":
        doc = _round12([
            {
                "N": d.N, "t": d.t, "noether_max": d.noether_max,
                "riemann_gap": d.riemann_gap, "p0_mean_gap": d.mean_gap,
                "p0_var_gap": d.var_gap, "p0_cdf_sup": d.cdf_sup_distance,
                "q_z_mean_gap": q.z_mean_gap, "q_logs_mean_gap": q.logs_mean_gap,
                "q_logs_var_gap": q.logs_var_gap, "alpha": q.alpha,
            }
            for d, q in records
        ])
        _emit([json.dumps(doc)], args.out)
    else:
        lines = [LAN_HEADER]
        for d, q in records:
            lines.append(",".join([
                str(d.N), fmt(d.t), fmt(d.noether_max), fmt(d.riemann_gap),
                fmt(d.mean_gap), fmt(d.var_gap), fmt(d.cdf_sup_distance),
                fmt(q.z_mean_gap), fmt(q.logs_mean_gap), fmt(q.logs_var_gap),
                fmt(q.alpha),
            ]))
        _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and reused."""
    parser = argparse.ArgumentParser(
        prog="lecam",
        description="Test-based pricing on lattice markets and their limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, market=True, payoff=True, measure=False, fmts=("text", "json")):
        if market:
            p.add_argument("--market", required=True, help="market spec JSON path")
        if payoff:
            p.add_argument("--payoff", required=True, help="payoff spec JSON path")
        if measure:
            p.add_argument("--measure", default=None,
                           help="'designated', comma vector, or @file.json")
        p.add_argument("--format", choices=fmts, default=fmts[0])
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("price", help="price a payoff")
    add_common(p, measure=True)
    p.add_argument("--bounds", action="store_true",
                   help="report the price range instead of a single price")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("bounds", help="price range over product martingale measures")
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("dynamics", help="price at an observed node")
    add_common(p, measure=True)
    p.add_argument("--state", required=True,
                   help="comma-separated moves, e.g. 'u,d' or '0,1'")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("complete", help="classify the martingale measure set")
    add_common(p, payoff=False)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("np", help="testing-problem decomposition of a call")
    add_common(p, measure=True)
    p.set_defaults(func=_cmd_np)

    p = sub.add_parser("converge", help="lattice-to-limit price table")
    p.add_argument("--study", required=True, help="study spec JSON path")
    p.add_argument("--threshold", type=float, default=None,
                   help="fail (exit 4) if the final abs gap exceeds this")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("lan-report", help="finite-N law diagnostics")
    p.add_argument("--study", required=True, help="study spec JSON path")
    p.add_argument("--t", type=float, default=None,
                   help="grid time for the diagnostics (default: horizon)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lan_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoArbitrageViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_ARBITRAGE
    except SelfCheckFailed as exc:
        sys.stderr.write(f"error: self-check failed: {exc}\n")
        return EXIT_SELF_CHECK
    except LecamError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SPEC
    except MemoryError:
        sys.stderr.write(
            "error: out of memory; lower LECAM_MAX_PATHS or the problem size\n"
        )
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
