"""Command line front end.

Subcommands::

    price       price a payoff directly and from test powers
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
differ by more than 1e-12 relative; ``np``: Bayes-risk identity).  Each
command builds one record and prints it in its ``--format``: JSON, or
``name = value`` lines named as the JSON fields (CSV rows for ``converge``
and ``lan-report``; ``price`` and ``complete`` write their own lines).  All
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
    price_routes,
)
from .lan import (convergence_study, discrete_market, lan_diagnostics, study_from_json,
                  third_lemma_check)

EXIT_OK = 0
EXIT_INCOMPLETE = 1
EXIT_NO_ARBITRAGE = 2
EXIT_SPEC = 3
EXIT_THRESHOLD = 4
EXIT_SELF_CHECK = 5

#: Relative tolerance of the direct vs test-power price check in ``price``.
ROUTE_RTOL = 1e-12

#: CSV headers; their fields are the JSON keys of each row.
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


def _value(x) -> str:
    """A field in text or CSV: ints as they are, lists comma-joined, floats
    by :func:`fmt`."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, list):
        return ",".join(_value(v) for v in x)
    return fmt(x)


def _emit(args, record, text: Sequence[str] | None = None) -> None:
    """Print a command's one ``record`` in ``args.format`` to ``args.out``.

    JSON is the record rounded by :func:`_round12`.  Otherwise ``text``
    lines when the command passes its own; else a list of rows prints as
    CSV, header first (rows are dicts keyed by the header's fields), and a
    dict as one ``name = value`` line per field.
    """
    if args.format == "json":
        lines = [json.dumps(_round12(record))]
    elif text is not None:
        lines = text
    elif isinstance(record, list):
        lines = [",".join(record[0])] + [",".join(map(_value, row.values()))
                                         for row in record]
    else:
        lines = [f"{name} = {_value(x)}" for name, x in record.items()]
    out = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(out)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(out)


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
                "per-step vector) or run 'lecam bounds'"
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
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    measures = _resolve_measure(market, args.measure)
    direct, report = price_routes(market, measures, payoff)
    diff = abs(direct - report.price)
    text = [f"{name} = {fmt(x)}" for name, x in (
        ("price_direct", direct), ("price_via_tests", report.price),
        ("diff", diff), ("discount", report.discount))]
    text += [f"term {term.label}: power_alt = {fmt(term.power_alt)}, "
             f"power_base = {fmt(term.power_base)}" for term in report.terms]
    _emit(args, {"price_direct": direct, "price_via_tests": report.price,
                 "diff": diff, "report": report.to_json()}, text)
    if not diff <= ROUTE_RTOL * max(1.0, abs(direct)):
        raise SelfCheckFailed(
            f"price_direct and price_via_tests differ by {fmt(diff)}"
        )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    lower, upper = price_bounds(market, payoff)
    _emit(args, {"lower": lower, "upper": upper})
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    measures = _resolve_measure(market, args.measure)
    state = _parse_state(market, args.state)
    price = dynamic_price(market, measures, payoff, state)
    _emit(args, {"t": state.t, "moves": list(state.moves), "price": price})
    return EXIT_OK


def _cmd_complete(args) -> int:
    market = market_from_json(_load_json(args.market))
    solutions = solve_martingale_measures(market)
    text = [f"complete: {'true' if solutions.complete else 'false'}"]
    two_point = all(len(step.vertices[0]) == 2 for step in solutions.per_step.kinds)
    if solutions.complete and two_point:
        taus = {fmt(step.vertices[0][0]) for step in solutions.per_step.kinds}
        if len(taus) == 1:
            text.append(f"tau = {next(iter(taus))}")
    for j, step in enumerate(solutions.per_step):
        vertices = " | ".join(",".join(fmt(x) for x in v) for v in step.vertices)
        text.append(f"step {j + 1}: {step.kind} {vertices}")
    _emit(args, {
        "complete": solutions.complete,
        "steps": [{"kind": step.kind, "vertices": [list(v) for v in step.vertices]}
                  for step in solutions.per_step],
    }, text)
    return EXIT_OK if solutions.complete else EXIT_INCOMPLETE


def _cmd_np(args) -> int:
    market = market_from_json(_load_json(args.market))
    payoff = payoff_from_json(_load_json(args.payoff))
    measures = _resolve_measure(market, args.measure)
    dec = np_decomposition(market, measures, payoff)
    _emit(args, {"cutoff": dec.cutoff, "lambda0": dec.priors.lambda0,
                 "lambda1": dec.priors.lambda1, "bayes_risk": dec.risk,
                 "price": dec.price})
    return EXIT_OK


def _cmd_converge(args) -> int:
    study = study_from_json(_load_json(args.study))
    threshold = args.threshold if args.threshold is not None else study.threshold
    if threshold is not None and not math.isfinite(threshold):
        raise InvalidParams(f"threshold must be finite, got {threshold!r}")
    rows = convergence_study(study.path, study.family(), study.payoff,
                             study.bs, study.Ns)
    _emit(args, [dict(zip(CONVERGE_HEADER.split(","), (
        r.N, r.p_n, r.p_limit, r.abs_gap, r.noether_max, r.var_gap))) for r in rows])
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
    rows = []
    for N in study.Ns:
        schedule = family(int(N))
        market = discrete_market(study.path, schedule)
        d = lan_diagnostics(study.path, schedule, args.t, market)
        q = third_lemma_check(study.path, schedule, args.t, market)
        rows.append(dict(zip(LAN_HEADER.split(","), (
            d.N, d.t, d.noether_max, d.riemann_gap, d.mean_gap, d.var_gap,
            d.cdf_sup_distance, q.z_mean_gap, q.logs_mean_gap, q.logs_var_gap,
            q.alpha))))
    _emit(args, rows)
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
