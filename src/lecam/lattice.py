"""Finite one-asset lattice markets and their martingale structure.

A market has ``N`` independent steps.  Step ``j`` multiplies the discounted
asset price by one of finitely many strictly positive values (with given
real-world probabilities) and the bond grows by a deterministic simple rate.
Discounted prices normalized by their start value are exactly the density
process of a measure change, which is what ties these markets to the finite
experiments of :mod:`lecam.experiments`:

* ``induced_experiment`` returns the path-space experiment whose base is a
  chosen martingale measure ``Q``, with ``Q1 = (X_T/X_0) . Q`` and the
  real-world measure ``P``; it enumerates every path and serves as the
  small-``N`` oracle;
* ``terminal_experiment`` is its restriction to ``sigma(X_T)``, built on the
  grouped terminal law, which loses nothing for tests of ``S_T``;
* ``verify_representation`` checks by backward induction that the density
  process of ``Q1`` is the normalized price process;
* ``complementary_market`` / ``verify_mm_criterion`` /
  ``image_experiment_check`` exercise the conditional structure.

Martingale measures are solved per step by vertex enumeration of the
polytope ``{q >= 0, sum q = 1, sum q*u = 1}``; with at most two active
constraints every vertex has support of size one or two, so enumeration is
exact and needs no LP solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from . import limits
from .errors import (
    InvalidParams,
    InvalidState,
    NoArbitrageViolation,
    SizeLimit,
)
from .experiments import FiniteExperiment

ATOL = 1e-12

StepMeasures = Sequence[Sequence[float]]


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeMarket:
    """One risky asset over ``steps`` independent multiplicative steps.

    Parameters
    ----------
    steps:
        Number of trading periods ``N >= 1``.
    horizon:
        Calendar length ``T > 0`` of the whole grid.
    s0:
        Initial asset price (strictly positive).
    returns:
        Per step, a tuple of ``(value, prob)`` pairs: ``value`` is the gross
        *discounted* return (already divided by the step's bond factor) and
        ``prob`` its real-world probability.  Values must be strictly
        positive and distinct within a step; probabilities strictly positive
        and summing to one.
    bond_rates:
        Per-step simple rates ``>= 0``; the bond factor of step ``j`` is
        ``1 + bond_rates[j]``.
    """

    steps: int
    horizon: float
    s0: float
    returns: tuple[tuple[tuple[float, float], ...], ...]
    bond_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise InvalidParams(f"steps must be >= 1, got {self.steps}")
        if not self.horizon > 0.0:
            raise InvalidParams(f"horizon must be positive, got {self.horizon!r}")
        if not self.s0 > 0.0:
            raise InvalidParams(f"s0 must be positive, got {self.s0!r}")
        returns = tuple(tuple((float(v), float(p)) for v, p in step) for step in self.returns)
        object.__setattr__(self, "returns", returns)
        rates = tuple(float(r) for r in self.bond_rates)
        object.__setattr__(self, "bond_rates", rates)
        if len(returns) != self.steps or len(rates) != self.steps:
            raise InvalidParams("returns and bond_rates must have one entry per step")
        for j, step in enumerate(returns):
            if not step:
                raise InvalidParams(f"step {j} has no return values")
            vals = [v for v, _ in step]
            probs = [p for _, p in step]
            if any(v <= 0.0 for v in vals):
                raise InvalidParams(f"step {j} has a nonpositive return value")
            if len(set(vals)) != len(vals):
                raise InvalidParams(f"step {j} repeats a return value")
            if any(p <= 0.0 for p in probs):
                raise InvalidParams(f"step {j} has a nonpositive probability")
            if abs(sum(probs) - 1.0) > ATOL:
                raise InvalidParams(f"step {j} probabilities sum to {sum(probs)!r}")
        for j, r in enumerate(rates):
            if r < 0.0:
                raise InvalidParams(f"step {j} bond rate is negative")

    # -- accessors ---------------------------------------------------------
    def step_values(self, j: int) -> np.ndarray:
        return np.array([v for v, _ in self.returns[j]])

    def step_probs(self, j: int) -> np.ndarray:
        return np.array([p for _, p in self.returns[j]])

    def support_sizes(self) -> tuple[int, ...]:
        return tuple(len(step) for step in self.returns)

    def bond_factor(self, t: int) -> float:
        """Gross bond value after ``t`` steps (equals 1 at ``t = 0``)."""
        out = 1.0
        for r in self.bond_rates[:t]:
            out *= 1.0 + r
        return out

    @property
    def discount(self) -> float:
        """One over the terminal bond value."""
        return 1.0 / self.bond_factor(self.steps)

    def real_world_measures(self) -> list[np.ndarray]:
        return [self.step_probs(j) for j in range(self.steps)]


@dataclass(frozen=True)
class PathState:
    """A node of the lattice: ``t`` observed steps and their move indices."""

    t: int
    moves: tuple[int, ...]

    def __post_init__(self) -> None:
        moves = tuple(int(i) for i in self.moves)
        object.__setattr__(self, "moves", moves)
        if self.t < 0 or len(moves) != self.t:
            raise InvalidState(f"state needs exactly t={self.t} observed moves")

    def validate(self, market: LatticeMarket) -> None:
        if self.t > market.steps:
            raise InvalidState(f"state time {self.t} exceeds market steps {market.steps}")
        for j, i in enumerate(self.moves):
            if not 0 <= i < len(market.returns[j]):
                raise InvalidState(f"move index {i} invalid at step {j}")


@dataclass(frozen=True)
class StepSolution:
    """Martingale measures of one step: the vertices of the solution polytope.

    A single vertex means the step is complete (unique measure).  With
    several vertices the set is a segment or higher polytope; vertices may
    sit on the boundary, and the barycenter is a strictly positive interior
    point whenever an equivalent measure exists at all.
    """

    vertices: tuple[tuple[float, ...], ...]

    @property
    def unique(self) -> bool:
        return len(self.vertices) == 1

    @property
    def kind(self) -> str:
        if len(self.vertices) == 1:
            return "unique"
        return "segment" if len(self.vertices) == 2 else "polytope"

    def barycenter(self) -> np.ndarray:
        return np.mean(np.array(self.vertices), axis=0)


@dataclass(frozen=True)
class MartingaleMeasureSet:
    """Per-step martingale measure solutions for a market."""

    per_step: tuple[StepSolution, ...]

    @property
    def complete(self) -> bool:
        return all(s.unique for s in self.per_step)

    def designated(self) -> list[np.ndarray]:
        """A canonical strictly positive element: per-step barycenters."""
        return [s.barycenter() for s in self.per_step]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_crr(u: float, d: float, r: float, p: float, steps: int, s0: float,
              horizon: float = 1.0) -> LatticeMarket:
    """Two-point market with i.i.d. raw returns ``u > d`` and bond factor ``r``.

    Stores the discounted values ``u/r`` (listed first, the "up" move) and
    ``d/r``; the real-world up-probability is ``p``.
    """
    if r < 1.0:
        raise InvalidParams(f"bond factor must be >= 1, got {r!r}")
    return LatticeMarket(
        steps=steps,
        horizon=horizon,
        s0=s0,
        returns=(_crr_step(u, d, p, r),) * steps,
        bond_rates=(r - 1.0,) * steps,
    )


def _crr_step(u: float, d: float, p: float, bond: float) -> tuple:
    """One CRR step: raw returns ``u > d > 0`` discounted by ``bond``, with
    real-world up-probability ``p``."""
    if not (u > d > 0.0):
        raise InvalidParams(f"need u > d > 0, got u={u!r}, d={d!r}")
    if not 0.0 < p < 1.0:
        raise InvalidParams(f"up-probability must lie in (0, 1), got {p!r}")
    return ((u / bond, p), (d / bond, 1.0 - p))


def market_from_json(doc: Mapping) -> LatticeMarket:
    """Build a market from a plain dict.

    Expected shape::

        {"N": 2, "T": 1.0, "s0": 4.0,
         "bond": {"const": 0.0} | {"r_simple_per_step": [...]},
         "returns": {"type": "crr", "u": 2.0, "d": 0.5, "p": 0.5}
                  | {"type": "table", "values": [...], "probs": [...]}}

    ``crr`` values are raw returns, divided by the step bond factor here;
    ``table`` values are already-discounted gross returns.  Table entries
    may be flat (same distribution every step) or nested per step.
    """
    try:
        return _market_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"market spec malformed: {exc}") from exc


def _market_from_json(doc: Mapping) -> LatticeMarket:
    steps = int(doc["N"])
    horizon = float(doc["T"])
    s0 = float(doc["s0"])
    bond = doc["bond"]
    ret = doc["returns"]

    if "const" in bond:
        rates = [float(bond["const"])] * steps
    elif "r_simple_per_step" in bond:
        rates = [float(r) for r in bond["r_simple_per_step"]]
        if len(rates) != steps:
            raise InvalidParams("r_simple_per_step length must equal N")
    else:
        raise InvalidParams("bond spec needs 'const' or 'r_simple_per_step'")

    kind = ret.get("type")
    if kind == "crr":
        u = float(ret["u"])
        d = float(ret["d"])
        p = float(ret.get("p", 0.5))
        steps_returns = tuple(_crr_step(u, d, p, 1.0 + r) for r in rates)
    elif kind == "table":
        values = ret["values"]
        probs = ret["probs"]
        nested = bool(values) and isinstance(values[0], (list, tuple))
        if nested:
            if len(values) != steps or len(probs) != steps:
                raise InvalidParams("per-step tables must have N entries")
            steps_returns = tuple(
                tuple(zip(map(float, vs), map(float, ps)))
                for vs, ps in zip(values, probs)
            )
        else:
            one = tuple(zip(map(float, values), map(float, probs)))
            steps_returns = (one,) * steps
    else:
        raise InvalidParams(f"unknown returns type {kind!r}")

    return LatticeMarket(steps, horizon, s0, steps_returns, tuple(rates))


def market_to_json(m: LatticeMarket) -> dict:
    return {
        "N": m.steps,
        "T": m.horizon,
        "s0": m.s0,
        "bond": {"r_simple_per_step": list(m.bond_rates)},
        "returns": {
            "type": "table",
            "values": [[v for v, _ in step] for step in m.returns],
            "probs": [[p for _, p in step] for step in m.returns],
        },
    }


# ---------------------------------------------------------------------------
# martingale measures
# ---------------------------------------------------------------------------

def _step_vertices(values: np.ndarray) -> list[np.ndarray]:
    """Vertices of ``{q >= 0, sum q = 1, sum q*values = 1}``.

    With two equality constraints each vertex has at most two nonzero
    coordinates: singletons at values equal to one, and pairs straddling one.
    """
    k = len(values)
    vertices: list[np.ndarray] = []
    for i in range(k):
        if values[i] == 1.0:
            v = np.zeros(k)
            v[i] = 1.0
            vertices.append(v)
    above = [i for i in range(k) if values[i] > 1.0]
    below = [i for i in range(k) if values[i] < 1.0]
    for i in above:
        for j in below:
            qi = (1.0 - values[j]) / (values[i] - values[j])
            v = np.zeros(k)
            v[i] = qi
            v[j] = 1.0 - qi
            vertices.append(v)
    return vertices


def solve_martingale_measures(m: LatticeMarket) -> MartingaleMeasureSet:
    """Solve each step's martingale condition exactly.

    Raises :class:`~lecam.errors.NoArbitrageViolation` when some step admits
    no strictly positive solution (all returns on one side of 1, or a
    coordinate forced to zero across the whole polytope).
    """
    per_step = []
    for j in range(m.steps):
        values = m.step_values(j)
        vertices = _step_vertices(values)
        if not vertices:
            raise NoArbitrageViolation(
                f"step {j}: returns {values.tolist()} all on one side of 1"
            )
        covered = np.zeros(len(values), dtype=bool)
        for v in vertices:
            covered |= v > 0.0
        if not covered.all():
            dead = np.flatnonzero(~covered).tolist()
            raise NoArbitrageViolation(
                f"step {j}: no equivalent martingale measure "
                f"(coordinates {dead} forced to zero)"
            )
        per_step.append(StepSolution(tuple(tuple(v) for v in vertices)))
    return MartingaleMeasureSet(tuple(per_step))


def is_complete(m: LatticeMarket) -> bool:
    """True iff the martingale measure is unique (all steps two-point or
    degenerate singletons)."""
    return solve_martingale_measures(m).complete


def as_step_measures(m: LatticeMarket, q) -> list[np.ndarray]:
    """Normalize a measure argument to one probability vector per step.

    Accepts a :class:`MartingaleMeasureSet` (its designated element), a
    single vector (reused for every step) or a per-step sequence of vectors.
    Vectors are validated as probability vectors; martingale or positivity
    requirements are imposed by the callers that need them.
    """
    if isinstance(q, MartingaleMeasureSet):
        vectors = q.designated()
    else:
        seq = list(q)
        if seq and np.isscalar(seq[0]):
            vectors = [np.asarray(seq, dtype=float)] * m.steps
        else:
            vectors = [np.asarray(v, dtype=float) for v in seq]
    if len(vectors) != m.steps:
        raise InvalidParams(f"expected {m.steps} step measures, got {len(vectors)}")
    out = []
    for j, v in enumerate(vectors):
        if v.shape != (len(m.returns[j]),):
            raise InvalidParams(f"step {j} measure has wrong length")
        if np.any(v < 0.0):
            raise InvalidParams(f"step {j} measure has negative mass")
        if abs(float(v.sum()) - 1.0) > ATOL:
            raise InvalidParams(f"step {j} measure sums to {float(v.sum())!r}")
        out.append(v.astype(float))
    return out


def require_martingale(m: LatticeMarket, step_measures: Sequence[np.ndarray],
                       strict: bool = False) -> None:
    """Check the one-step pricing identity ``sum q*u = 1`` per step."""
    for j, v in enumerate(step_measures):
        gap = abs(float(v @ m.step_values(j)) - 1.0)
        if gap > ATOL:
            raise InvalidParams(
                f"step {j} measure is not a martingale measure (gap {gap:.3e})"
            )
        if strict and np.any(v <= 0.0):
            raise InvalidParams(f"step {j} measure is not strictly positive")


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------

def enumerate_paths(m: LatticeMarket, max_paths: int | None = None) -> np.ndarray:
    """All move-index paths as an ``(P, N)`` integer matrix.

    The first step varies slowest, matching ``itertools.product`` order, so
    paths sharing a prefix are contiguous.
    """
    sizes = m.support_sizes()
    cap = limits.max_paths(max_paths)
    total = 1
    for k in sizes:
        total *= k
        if total > cap:
            raise SizeLimit(f"path space exceeds cap {cap}")
    out = np.empty((total, m.steps), dtype=np.int64)
    rep = total
    for j, k in enumerate(sizes):
        rep //= k
        tile = total // (rep * k)
        out[:, j] = np.tile(np.repeat(np.arange(k), rep), tile)
    return out


def path_step_values(m: LatticeMarket, paths: np.ndarray) -> np.ndarray:
    """Per-path matrix of realized discounted returns, shape ``(P, N)``."""
    cols = [m.step_values(j)[paths[:, j]] for j in range(m.steps)]
    return np.column_stack(cols)


def path_products(m: LatticeMarket, paths: np.ndarray) -> np.ndarray:
    """Normalized discounted prices ``X_t / X_0`` per path, shape ``(P, N+1)``.

    Column ``t`` is the product of the first ``t`` realized returns, with
    column 0 identically one.
    """
    vals = path_step_values(m, paths)
    out = np.ones((paths.shape[0], m.steps + 1))
    np.cumprod(vals, axis=1, out=out[:, 1:])
    return out


def path_probabilities(m: LatticeMarket, paths: np.ndarray,
                       step_measures: Sequence[np.ndarray]) -> np.ndarray:
    """Product probabilities of each path under per-step measures."""
    out = np.ones(paths.shape[0])
    for j, q in enumerate(step_measures):
        out *= np.asarray(q)[paths[:, j]]
    return out


def path_prices(m: LatticeMarket, paths: np.ndarray) -> np.ndarray:
    """Undiscounted asset prices along each path, shape ``(P, N+1)``."""
    bonds = np.ones(m.steps + 1)
    for j, r in enumerate(m.bond_rates):
        bonds[j + 1] = bonds[j] * (1.0 + r)
    return m.s0 * path_products(m, paths) * bonds


# ---------------------------------------------------------------------------
# grouped (recombining) laws
# ---------------------------------------------------------------------------

def _compositions(n: int, k: int) -> np.ndarray:
    """All nonnegative integer ``k``-vectors summing to ``n``, shape ``(M, k)``."""
    if k == 1:
        return np.array([[n]], dtype=np.int64)
    if k == 2:
        a = np.arange(n + 1, dtype=np.int64)
        return np.stack([a, n - a], axis=1)
    if k == 3:
        lengths = np.arange(n + 1, 0, -1)
        n1 = np.repeat(np.arange(n + 1, dtype=np.int64), lengths)
        n2 = np.concatenate([np.arange(l, dtype=np.int64) for l in lengths])
        return np.stack([n1, n2, n - n1 - n2], axis=1)
    rows = []
    for head in range(n + 1):
        tail = _compositions(n - head, k - 1)
        rows.append(np.column_stack([np.full(len(tail), head, dtype=np.int64), tail]))
    return np.concatenate(rows, axis=0)


def _multinomial_log_probs(counts: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = int(counts[0].sum())
    logq = np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), -np.inf)
    terms = np.where(counts > 0, counts * logq, 0.0)
    return gammaln(n + 1) - gammaln(counts + 1).sum(axis=1) + terms.sum(axis=1)


def _dp_pair(qs: Sequence[np.ndarray]) -> np.ndarray:
    """Exact law of the first-outcome count for two-point steps."""
    n = len(qs)
    probs = np.zeros(n + 1)
    probs[0] = 1.0
    for j, q in enumerate(qs):
        nxt = np.zeros(n + 1)
        nxt[: j + 2] = probs[: j + 2] * q[1]
        nxt[1: j + 2] += probs[: j + 1] * q[0]
        probs = nxt
    return probs


def _dp_general(qs: Sequence[np.ndarray], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact dict-based count law for arbitrary supports (small step counts)."""
    k = len(qs[0])
    states: dict[tuple[int, ...], float] = {tuple([0] * k): 1.0}
    for q in qs:
        nxt: dict[tuple[int, ...], float] = {}
        for state, p in states.items():
            for i in range(k):
                if q[i] == 0.0:
                    continue
                key = state[:i] + (state[i] + 1,) + state[i + 1:]
                nxt[key] = nxt.get(key, 0.0) + p * q[i]
        states = nxt
        if len(states) > cap:
            raise SizeLimit(f"count states exceed cap {cap}")
    counts = np.array(sorted(states), dtype=np.int64)
    probs = np.array([states[tuple(c)] for c in counts])
    return counts, probs


def count_distribution(qs: Sequence[np.ndarray],
                       max_states: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Joint law of outcome counts over steps sharing one support.

    Parameters
    ----------
    qs:
        One probability vector per step, all of the same length ``k``.

    Returns
    -------
    counts, probs:
        ``counts`` has shape ``(M, k)`` (every composition of ``n`` into
        ``k`` parts); ``probs`` the corresponding probabilities.  Exact
        convolution is used where feasible, the multinomial closed form for
        long runs of identical steps.
    """
    cap = limits.max_states(max_states)
    n = len(qs)
    k = len(qs[0])
    if any(len(q) != k for q in qs):
        raise InvalidParams("all steps in a class must share the support size")
    if k == 1:
        return np.array([[n]], dtype=np.int64), np.ones(1)
    if k == 2:
        probs = _dp_pair(qs)
        a = np.arange(n + 1, dtype=np.int64)
        return np.stack([a, n - a], axis=1), probs
    states = math.comb(n + k - 1, k - 1)
    if states > cap:
        raise SizeLimit(f"count states {states} exceed cap {cap}")
    identical = all(np.array_equal(q, qs[0]) for q in qs[1:])
    if identical and n > 32:
        counts = _compositions(n, k)
        with np.errstate(divide="ignore"):
            probs = np.exp(_multinomial_log_probs(counts, np.asarray(qs[0], dtype=float)))
        return counts, probs
    return _dp_general(qs, cap)


def combine_additive_laws(laws: Sequence[tuple[np.ndarray, np.ndarray]],
                          max_states: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Law of an independent sum from per-class laws ``(values, probs)``.

    States with exactly equal values are merged; merging only collapses
    states, so results are exact either way.
    """
    cap = limits.max_states(max_states)
    vals = np.zeros(1)
    probs = np.ones(1)
    for cvals, cprobs in laws:
        if len(vals) * len(cvals) > cap:
            raise SizeLimit(f"combined states exceed cap {cap}")
        vals = (vals[:, None] + np.asarray(cvals)[None, :]).ravel()
        probs = (probs[:, None] * np.asarray(cprobs)[None, :]).ravel()
        vals, inverse = np.unique(vals, return_inverse=True)
        probs = np.bincount(inverse, weights=probs, minlength=len(vals))
    return vals, probs


def _classes(m: LatticeMarket) -> list[tuple[tuple[float, ...], list[int]]]:
    """Group step indices by identical return-value tuples (order preserved)."""
    grouped: dict[tuple[float, ...], list[int]] = {}
    for j in range(m.steps):
        key = tuple(v for v, _ in m.returns[j])
        grouped.setdefault(key, []).append(j)
    return list(grouped.items())


def terminal_log_law(m: LatticeMarket, step_measures: Sequence[np.ndarray],
                     max_states: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of ``log(X_T / X_0)`` under per-step measures, values
    sorted increasingly.

    Steps with identical return supports are grouped, so the state space
    stays polynomial in ``N``.
    """
    laws = []
    for values, members in _classes(m):
        counts, probs = count_distribution([step_measures[j] for j in members], max_states)
        laws.append((counts @ np.log(values), probs))
    return combine_additive_laws(laws, max_states)


def terminal_law(m: LatticeMarket, step_measures: Sequence[np.ndarray],
                 max_states: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of ``X_T / X_0`` (values sorted by their logarithm)."""
    logs, probs = terminal_log_law(m, step_measures, max_states)
    return np.exp(logs), probs


# ---------------------------------------------------------------------------
# likelihood structure
# ---------------------------------------------------------------------------

def discounted_likelihood_process(m: LatticeMarket, q,
                                  max_paths: int | None = None) -> list[dict[tuple[int, ...], float]]:
    """Node values of ``X_t / X_0`` for every lattice node.

    Returns one dict per time ``t = 0..N`` mapping the move prefix to the
    normalized discounted price, which is simultaneously the density process
    of ``Q1`` relative to the chosen martingale measure.
    """
    step_measures = as_step_measures(m, q)
    require_martingale(m, step_measures)
    out: list[dict[tuple[int, ...], float]] = [{(): 1.0}]
    for t in range(1, m.steps + 1):
        values = m.step_values(t - 1)
        prev = out[-1]
        level = {
            prefix + (i,): x * float(values[i])
            for prefix, x in prev.items()
            for i in range(len(values))
        }
        if len(level) > limits.max_paths(max_paths):
            raise SizeLimit("node enumeration exceeds cap")
        out.append(level)
    return out


def induced_experiment(m: LatticeMarket, q,
                       max_outcomes: int | None = None) -> FiniteExperiment:
    """Path-space experiment ``{Q1, Q, P}`` with base ``Q``.

    Outcomes are move-index tuples; ``Q`` is the product of the chosen
    per-step martingale measures, ``Q1 = (X_T/X_0) . Q`` and ``P`` the
    real-world product measure.
    """
    step_measures = as_step_measures(m, q)
    require_martingale(m, step_measures, strict=True)
    paths = enumerate_paths(m, limits.max_product_outcomes(max_outcomes))
    base = path_probabilities(m, paths, step_measures)
    ratio = path_products(m, paths)[:, -1]
    real = path_probabilities(m, paths, m.real_world_measures())
    outcomes = tuple(tuple(int(i) for i in row) for row in paths)
    return FiniteExperiment(
        outcomes,
        {"Q": base, "Q1": base * ratio, "P": real},
        base="Q",
    )


def terminal_experiment(m: LatticeMarket, q,
                        max_states: int | None = None) -> FiniteExperiment:
    """The induced experiment restricted to ``sigma(X_T)``: ``{Q1, Q}`` on
    the atoms of ``X_T / X_0``.

    Outcomes are the distinct values ``x`` of ``X_T / X_0`` in increasing
    order, ``Q`` is their grouped law and ``Q1 = x . Q``.  The density
    ``dQ1/dQ = X_T / X_0`` is ``sigma(X_T)``-measurable, so this restriction
    keeps the likelihood ratio: every test of ``S_T`` has the same powers
    here as on :func:`induced_experiment`, at a size polynomial in ``N``.
    """
    step_measures = as_step_measures(m, q)
    require_martingale(m, step_measures, strict=True)
    ratio, probs = terminal_law(m, step_measures, max_states)
    # distinct log atoms can round to one ratio; merge them so labels stay unique
    ratio, inverse = np.unique(ratio, return_inverse=True)
    probs = np.bincount(inverse, weights=probs, minlength=len(ratio))
    return FiniteExperiment(
        tuple(ratio.tolist()),
        {"Q": probs, "Q1": probs * ratio},
        base="Q",
    )


def verify_representation(m: LatticeMarket, q, atol: float = ATOL,
                          max_paths: int | None = None) -> bool:
    """Backward-induction check that normalized prices are a density process.

    For per-step measures ``q`` this tests, node by node, whether the
    conditional expectation of ``X_T / X_0`` under the product of the ``q``
    equals ``X_t / X_0``.  True exactly when every step satisfies the
    one-step equation, but established here by full induction rather than by
    the per-step criterion.
    """
    step_measures = as_step_measures(m, q)
    sizes = m.support_sizes()
    cap = limits.max_paths(max_paths)
    total = 1
    for k in sizes:
        total *= k
        if total > cap:
            raise SizeLimit(f"tensor induction exceeds cap {cap}")
    forward = [np.ones(())]
    for j in range(m.steps):
        forward.append(np.multiply.outer(forward[-1], m.step_values(j)))
    value = forward[-1]
    for t in range(m.steps - 1, -1, -1):
        value = value @ step_measures[t]
        if not np.allclose(value, forward[t], rtol=0.0, atol=atol):
            return False
    return True


def node_spot(m: LatticeMarket, state: PathState) -> float:
    """Undiscounted asset price at the node reached by ``state``."""
    spot = m.s0
    for j, i in enumerate(state.moves):
        spot *= m.returns[j][i][0] * (1.0 + m.bond_rates[j])
    return spot


def complementary_market(m: LatticeMarket, q, state: PathState) -> LatticeMarket:
    """The market seen from a node: remaining steps, spot price re-based.

    The new market keeps the remaining return distributions and bond rates;
    its initial price is the observed undiscounted price at the node.  Its
    induced experiment is the complementary experiment of the original one
    at the node's partition, restricted to the observed block.
    """
    state.validate(m)
    t = state.t
    if t >= m.steps:
        raise InvalidState("no steps remain after the observed node")
    as_step_measures(m, q)  # validates shape early
    remaining = m.steps - t
    return LatticeMarket(
        steps=remaining,
        horizon=m.horizon * remaining / m.steps,
        s0=node_spot(m, state),
        returns=m.returns[t:],
        bond_rates=m.bond_rates[t:],
    )


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the conditional-expectation martingale criterion."""

    rows: tuple[tuple[int, tuple[int, ...], float, float], ...]
    condition_holds: bool
    is_martingale_measure: bool

    @property
    def equivalent(self) -> bool:
        return self.condition_holds == self.is_martingale_measure


def _node_blocks(sizes: Sequence[int], t: int) -> int:
    block = 1
    for k in sizes[t:]:
        block *= k
    return block


def verify_mm_criterion(m: LatticeMarket, q, g,
                        atol: float = ATOL,
                        max_paths: int | None = None) -> CriterionReport:
    """Check the two sides of the change-of-measure criterion for ``g``.

    Side one: for every node, the conditional expectation of ``g`` under the
    complementary-experiment measure at that node equals the one under the
    base martingale measure.  Side two: the normalized measure
    ``g/E_Q(g) . Q`` makes normalized prices a martingale (checked node by
    node on the tree).  The two sides are equivalent; the report carries
    both verdicts and the per-node values of side one.
    """
    step_measures = as_step_measures(m, q)
    require_martingale(m, step_measures, strict=True)
    paths = enumerate_paths(m, max_paths)
    total = paths.shape[0]
    if callable(g):
        gvec = np.array([float(g(tuple(int(i) for i in row))) for row in paths])
    else:
        gvec = np.asarray(g, dtype=float)
        if gvec.shape != (total,):
            raise InvalidParams(f"g must have one value per path ({total})")
    if np.any(gvec <= 0.0):
        raise InvalidParams("g must be strictly positive")

    base = path_probabilities(m, paths, step_measures)
    products = path_products(m, paths)
    ratio_T = products[:, -1]
    sizes = m.support_sizes()

    qstar = base * gvec
    qstar = qstar / qstar.sum()

    rows: list[tuple[int, tuple[int, ...], float, float]] = []
    condition = True
    martingale = True
    for t in range(m.steps + 1):
        block = _node_blocks(sizes, t)
        n_nodes = total // block
        comp = base * ratio_T / products[:, t]        # complementary measure at t
        comp_mass = comp.reshape(n_nodes, block).sum(axis=1)
        comp_g = (comp * gvec).reshape(n_nodes, block).sum(axis=1)
        base_mass = base.reshape(n_nodes, block).sum(axis=1)
        base_g = (base * gvec).reshape(n_nodes, block).sum(axis=1)
        lhs = comp_g / comp_mass
        rhs = base_g / base_mass
        star_mass = qstar.reshape(n_nodes, block).sum(axis=1)
        star_x = (qstar * ratio_T).reshape(n_nodes, block).sum(axis=1)
        node_x = products[::block, t]
        if np.any(np.abs(lhs - rhs) > atol):
            condition = False
        if np.any(np.abs(star_x / star_mass - node_x) > atol):
            martingale = False
        for i in range(n_nodes):
            prefix = tuple(int(v) for v in paths[i * block, :t])
            rows.append((t, prefix, float(lhs[i]), float(rhs[i])))
    report = CriterionReport(tuple(rows), condition, martingale)
    if not report.equivalent:
        raise RuntimeError(
            "criterion sides disagree; this indicates a defect in the checker"
        )
    return report


def image_experiment_check(m: LatticeMarket, q,
                           times: Iterable[int] | None = None,
                           atol: float = ATOL,
                           max_paths: int | None = None) -> bool:
    """Push the path experiment through the normalized price trajectory.

    Paths with identical trajectories (restricted to ``times``) are grouped;
    the check asserts that at each requested time the density of the pushed
    ``Q1`` against the pushed ``Q`` on the coarsened field equals the price
    coordinate itself.
    """
    step_measures = as_step_measures(m, q)
    require_martingale(m, step_measures, strict=True)
    if times is None:
        times_list = list(range(m.steps + 1))
    else:
        times_list = sorted(set(int(t) for t in times))
    if not times_list:
        raise InvalidParams("times must be nonempty")
    if times_list[0] < 0 or times_list[-1] > m.steps:
        raise InvalidParams("times must lie on the grid 0..N")

    paths = enumerate_paths(m, max_paths)
    products = path_products(m, paths)
    base = path_probabilities(m, paths, step_measures)
    alt = base * products[:, -1]

    traj = products[:, times_list]
    image, inverse = np.unique(traj, axis=0, return_inverse=True)
    nu = np.bincount(inverse, weights=base, minlength=len(image))
    nu1 = np.bincount(inverse, weights=alt, minlength=len(image))

    for pos in range(len(times_list)):
        prefix = image[:, : pos + 1]
        blocks, binv = np.unique(prefix, axis=0, return_inverse=True)
        mass = np.bincount(binv, weights=nu, minlength=len(blocks))
        mass1 = np.bincount(binv, weights=nu1, minlength=len(blocks))
        coord = blocks[:, pos]
        if np.any(np.abs(mass1 / mass - coord) > atol):
            return False
    return True
