"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round has the same job
shapes (command, market or study kind, lattice size, payoff kind, strike
placement) and fresh parameters drawn from the workload seed and the round
index, so no two jobs share a spec while every round costs about the same.
A job is one ``lecam`` command line plus the spec files it reads and the
facts its oracle needs.  Only the standard library is used here, so the
workload process can import this module without touching ``lecam``'s
dependencies.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("limit", "tests", "bounds")

#: Relative distance below which a generated strike or barrier counts as
#: sitting on a lattice node; off-node values are redrawn until they clear it.
OFF_NODE_MIN_REL = 1e-6


@dataclass
class Job:
    """One ``lecam`` invocation: ``argv`` names files from ``files``, the
    serialized ``docs``; ``check`` holds what the oracle needs beyond them."""

    name: str
    command: str
    argv: list[str]
    files: dict[str, str]
    docs: dict[str, dict]
    check: dict
    exit_ok: int = 0


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _job(name: str, command: str, docs: dict[str, dict], flags: list[str],
         check: dict, exit_ok: int = 0) -> Job:
    """Assemble a job whose spec files are ``<name>-<role>.json``."""
    files = {}
    argv = [command]
    for role, doc in docs.items():
        fname = f"{name}-{role}.json"
        files[fname] = _dump(doc)
        argv += [f"--{role}", fname]
    return Job(name, command, argv + flags + ["--format", "json"], files, docs,
               check, exit_ok)


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"lecam-bench/{workload}/{seed}/{tag}")


def _u(rng: random.Random, lo: float, hi: float, digits: int = 6) -> float:
    return round(rng.uniform(lo, hi), digits)


# ---------------------------------------------------------------------------
# limit: converge and lan-report on seeded studies
# ---------------------------------------------------------------------------

#: (tangent, schedule, top N); each shape yields a converge and a lan-report
#: job, both on ``Ns = [top // 4, top]``.
LIMIT_SHAPES = (
    [("crr", "const", n) for n in (16, 32, 64, 256, 1024, 8192)]
    + [("crr", "pieces", n) for n in (64, 256, 2048)]
    + [("trinomial", "const", n) for n in (16, 32, 64, 256, 2048)]
    + [("trinomial", "pieces", n) for n in (16, 32, 64)]
)
#: Extra jobs of two shapes, so that the median and the 90th percentile of
#: a round's latencies fall inside groups of equally costly jobs instead of
#: between two jobs of very different cost: (shape, command, count).
LIMIT_EXTRA = [(("crr", "const", 256), "converge", 8),
               (("crr", "pieces", 2048), "lan-report", 2)]

TERMINAL_KINDS = ("call", "put", "digital", "straddle")


def _study(rng: random.Random, tangent: str, schedule: str, top: int,
           kind: str) -> dict:
    if tangent == "crr":
        tdoc = {"type": "crr", "a": _u(rng, 0.6, 1.6), "b": _u(rng, 0.6, 1.6)}
    else:
        pa = _u(rng, 0.2, 0.35, 4)
        pc = _u(rng, 0.2, 0.35, 4)
        tdoc = {"type": "symmetric_trinomial",
                "probs": [pa, round(1.0 - pa - pc, 4), pc]}
    horizon = _u(rng, 0.5, 1.5, 3)
    s0 = _u(rng, 80.0, 120.0, 3)
    if schedule == "const":
        sigma = {"const": _u(rng, 0.12, 0.35, 4)}
        rate = {"const": _u(rng, 0.0, 0.04, 4)}
    else:
        half = horizon / 2.0
        sigma = {"pieces": [[half, _u(rng, 0.12, 0.35, 4)],
                            [horizon, _u(rng, 0.12, 0.35, 4)]]}
        rate = {"pieces": [[half, _u(rng, 0.0, 0.04, 4)],
                           [horizon, _u(rng, 0.0, 0.04, 4)]]}
    strike = round(s0 * math.exp(rng.uniform(-0.15, 0.15)), 6)
    return {
        "tangent": tdoc,
        "bs": {"s0": s0, "T": horizon, "sigma": sigma, "rate": rate},
        "payoff": {"type": kind, "K": strike},
        "Ns": [top // 4, top],
    }


def _limit_round(seed: int, r) -> list[Job]:
    rng = _rng("limit", seed, r)
    plan = [(shape, command, command == "lan-report" and i % 2 == 1)
            for i, shape in enumerate(LIMIT_SHAPES)
            for command in ("converge", "lan-report")]
    plan += [(shape, command, False) for shape, command, count in LIMIT_EXTRA
             for _ in range(count)]
    jobs = []
    for (tangent, schedule, top), command, t_half in plan:
        kind = TERMINAL_KINDS[len(jobs) % len(TERMINAL_KINDS)]
        study = _study(rng, tangent, schedule, top, kind)
        flags = ["--t", repr(study["bs"]["T"] / 2.0)] if t_half else []
        jobs.append(_job(f"r{r}-j{len(jobs):02d}", command, {"study": study}, flags,
                         {"kind": command, "t_half": t_half}))
    return jobs


# ---------------------------------------------------------------------------
# tests: price / np / dynamics on complete CRR markets
# ---------------------------------------------------------------------------

# Sizes and counts are set so that the median and the 90th percentile of a
# round's latencies fall inside groups of equally costly jobs (N = 11 and
# N = 15 prices) instead of between two jobs of very different cost.
# Strikes sit either just beside a terminal node (``NEAR_NODE_REL`` away) or
# half-way between two; none sits on a node, so no job hits the strike-tie
# defect, which ``tie_probe_jobs`` measures on its own.

#: price jobs with terminal payoffs: (N, payoff kind, strike next to a node)
TESTS_PRICE = (
    [(n, kind, near) for n in range(10, 16)
     for kind, near in (("call", True), ("put", False), ("digital", True),
                        ("digital", False), ("straddle", True))]
    + [(16, "call", False), (17, "put", True)]
)
#: barrier_up_out price jobs: (N, strike next to a node)
TESTS_BARRIER = [(n, n % 2 == 0) for n in range(10, 16)]
#: np jobs (calls): (N, strike next to a node)
TESTS_NP = [(n, n % 2 == 1) for n in range(10, 17)]
#: dynamics jobs: (N, payoff kind, strike next to a node)
TESTS_DYNAMICS = [(n, kind, near) for n in range(10, 18)
                  for kind, near in (("digital", True), ("call", False), ("put", True))]

#: Relative distance of a strike placed next to a terminal node; the next
#: node is at least 3% away on every generated CRR market.
NEAR_NODE_REL = 1e-5


def _crr_market(rng: random.Random, n: int) -> dict:
    r = _u(rng, 0.0, 0.01)
    return {
        "N": n, "T": 1.0, "s0": _u(rng, 50.0, 150.0, 3),
        "bond": {"const": r},
        "returns": {"type": "crr", "u": _u(rng, 1.02, 1.08),
                    "d": _u(rng, 0.93, 0.99), "p": _u(rng, 0.3, 0.7)},
    }


def crr_node(market: dict, k: float, n: int | None = None) -> float:
    """Price after ``k`` up moves out of ``n`` (default: all ``N``) steps."""
    n = market["N"] if n is None else n
    ret = market["returns"]
    return market["s0"] * ret["u"] ** k * ret["d"] ** (n - k)


def _crr_strike(rng: random.Random, market: dict, near: bool,
                lo: int = 0, hi: int | None = None) -> dict:
    """A strike between the terminal nodes ``k`` and ``k + 1`` up moves, for
    a ``k`` near the middle of ``[lo, hi)``: just above node ``k``, just
    below node ``k + 1``, or (``near`` false) at their geometric midpoint.
    The oracle reads ``1{S_T > K}`` as ``1{k_T > k}``."""
    hi = market["N"] if hi is None else hi
    mid = (lo + hi) // 2
    k = min(max(mid + rng.randint(-2, 2), lo), hi - 1)
    if not near:
        value = crr_node(market, k + 0.5)
    elif rng.random() < 0.5:
        value = crr_node(market, k) * math.exp(NEAR_NODE_REL)
    else:
        value = crr_node(market, k + 1) * math.exp(-NEAR_NODE_REL)
    return {"K": value, "k": k}


def _barrier_level(rng: random.Random, market: dict) -> float:
    """A barrier above ``s0`` that no node price of any date touches."""
    n = market["N"]
    logs = [math.log(crr_node(market, k, t)) for t in range(n + 1)
            for k in range(t + 1)]
    while True:
        level = market["s0"] * math.exp(rng.uniform(0.05, 0.25))
        gap = min(abs(math.log(level) - x) for x in logs)
        if gap > OFF_NODE_MIN_REL:
            return level


def _tests_round(seed: int, r) -> list[Job]:
    rng = _rng("tests", seed, r)
    jobs = []

    def add(command, market, payoff, flags, check):
        name = f"r{r}-j{len(jobs):02d}"
        check = dict(check, kind=command)
        jobs.append(_job(name, command, {"market": market, "payoff": payoff},
                         flags, check))

    measure = ["--measure", "designated"]
    for n, kind, near in TESTS_PRICE:
        market = _crr_market(rng, n)
        strike = _crr_strike(rng, market, near)
        add("price", market, {"type": kind, "K": strike["K"]}, measure,
            {"payoff": kind, "strike": strike})
    for n, near in TESTS_BARRIER:
        market = _crr_market(rng, n)
        strike = _crr_strike(rng, market, near)
        level = _barrier_level(rng, market)
        add("price", market,
            {"type": "barrier_up_out", "K": strike["K"], "B": level}, measure,
            {"payoff": "barrier_up_out", "strike": strike, "B": level})
    for n, near in TESTS_NP:
        market = _crr_market(rng, n)
        strike = _crr_strike(rng, market, near)
        add("np", market, {"type": "call", "K": strike["K"]}, measure,
            {"payoff": "call", "strike": strike})
    for n, kind, near in TESTS_DYNAMICS:
        market = _crr_market(rng, n)
        t = rng.randint(1, n - 2)
        moves = [rng.choice("ud") for _ in range(t)]
        ups = moves.count("u")
        strike = _crr_strike(rng, market, near, lo=ups, hi=ups + n - t)
        add("dynamics", market, {"type": kind, "K": strike["K"]},
            ["--state", ",".join(moves)],
            {"payoff": kind, "strike": strike, "moves": moves})
    return jobs


# ---------------------------------------------------------------------------
# bounds: bounds / complete / dynamics on incomplete table markets
# ---------------------------------------------------------------------------

#: (support size, vertices per step, N).  Three-point steps have two
#: vertices (2^N combinations); four-point steps have four (two values on
#: each side of one) or three (one value on one side).  Each shape yields a
#: ``bounds``, two ``complete`` and two ``dynamics`` jobs.
BOUNDS_SHAPES = (
    [(3, 2, n) for n in range(6, 13)]
    + [(4, 4, n) for n in (4, 5, 6)]
    + [(4, 3, 7)]
)
#: Extra ``bounds`` jobs, so that the 90th percentile of a round's latencies
#: falls inside a group of equally costly jobs.
BOUNDS_EXTRA = [(3, 2, 10)] * 3


def _distinct(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` distinct draws from ``[lo, hi]``, largest first."""
    out: set[float] = set()
    while len(out) < count:
        out.add(_u(rng, lo, hi))
    return sorted(out, reverse=True)


def _table_market(rng: random.Random, k: int, vertices: int, n: int) -> dict:
    above = {(3, 2): rng.choice((1, 2)), (4, 4): 2, (4, 3): rng.choice((1, 3))}[
        (k, vertices)]
    values = _distinct(rng, 1.005, 1.08, above) + _distinct(rng, 0.92, 0.995, k - above)
    weights = [rng.uniform(1.0, 3.0) for _ in range(k)]
    total = sum(weights)
    return {
        "N": n, "T": 1.0, "s0": _u(rng, 50.0, 150.0, 3),
        "bond": {"const": _u(rng, 0.0, 0.01)},
        "returns": {"type": "table", "values": values,
                    "probs": [w / total for w in weights]},
    }


def _off_node_strike(rng: random.Random, market: dict) -> float:
    """A strike near the forward that no terminal node price touches."""
    values = market["returns"]["values"]
    n = market["N"]
    base = math.log(market["s0"]) + n * math.log1p(market["bond"]["const"])
    logs = [base + sum(math.log(values[i]) for i in combo)
            for combo in itertools.combinations_with_replacement(range(len(values)), n)]
    while True:
        strike = round(math.exp(base + rng.uniform(-0.1, 0.1)), 6)
        if min(abs(math.log(strike) - x) for x in logs) > OFF_NODE_MIN_REL:
            return strike


def _bounds_round(seed: int, r) -> list[Job]:
    rng = _rng("bounds", seed, r)
    jobs = []

    def add(command, docs, flags, check, exit_ok=0):
        name = f"r{r}-j{len(jobs):02d}"
        jobs.append(_job(name, command, docs, flags,
                         dict(check, kind=command), exit_ok))

    def bounds_job(i, k, vertices, n):
        market = _table_market(rng, k, vertices, n)
        kind = TERMINAL_KINDS[i % len(TERMINAL_KINDS)]
        payoff = {"type": kind, "K": _off_node_strike(rng, market)}
        add("bounds", {"market": market, "payoff": payoff}, [], {})

    for i, (k, vertices, n) in enumerate(BOUNDS_SHAPES):
        bounds_job(i, k, vertices, n)
        for _ in range(2):
            add("complete", {"market": _table_market(rng, k, vertices, n)}, [], {},
                exit_ok=1)
        for j in range(2):
            market = _table_market(rng, k, vertices, n)
            kind = TERMINAL_KINDS[(i + j + 1) % len(TERMINAL_KINDS)]
            payoff = {"type": kind, "K": _off_node_strike(rng, market)}
            t = rng.randint(1, n - 1)
            moves = [rng.randrange(k) for _ in range(t)]
            add("dynamics", {"market": market, "payoff": payoff},
                ["--measure", "designated",
                 "--state", ",".join(str(m) for m in moves)],
                {"moves": moves})
    for i, (k, vertices, n) in enumerate(BOUNDS_EXTRA):
        bounds_job(i + 1, k, vertices, n)
    return jobs


_ROUNDS = {"limit": _limit_round, "tests": _tests_round, "bounds": _bounds_round}


def round_jobs(workload: str, seed: int, r: int) -> list[Job]:
    """The jobs of round ``r``; the same arguments give the same jobs."""
    return _ROUNDS[workload](seed, r)


def warmup_job(workload: str, seed: int) -> Job:
    """An untimed first job, on a spec of its own, that absorbs lazy
    initialization (numpy, scipy, argparse) before timing starts."""
    return _ROUNDS[workload](seed, "warmup")[0]


def tie_probe_jobs() -> list[Job]:
    """At-the-money digitals whose strike is the middle terminal node in
    exact arithmetic (``d = 1/u``, ``K = s0``): ``price`` on even ``N`` up to
    12 and ``u`` from 1.01 to 1.49.  The two pricing routes must agree on
    each; they disagree where their rounded node prices fall on different
    sides of the strike.  These jobs are the same for every seed and are not
    part of any workload."""
    jobs = []
    for n in range(2, 13, 2):
        for i in range(49):
            u = round(1.01 + 0.01 * i, 2)
            market = {"N": n, "T": 1.0, "s0": 100.0, "bond": {"const": 0.0},
                      "returns": {"type": "crr", "u": u, "d": 1.0 / u, "p": 0.5}}
            jobs.append(_job(f"tie-j{len(jobs):03d}", "price",
                             {"market": market, "payoff": {"type": "digital", "K": 100.0}},
                             ["--measure", "designated"], {"kind": "price"}))
    return jobs
