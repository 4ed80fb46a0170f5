"""Finite one-asset lattice markets and their martingale structure.

A market has ``N`` independent steps.  Step ``j`` multiplies the discounted
asset price by one of finitely many strictly positive values (with given
real-world probabilities) and the bond grows by a deterministic simple rate.
Discounted prices normalized by their start value are exactly the density
process of a measure change, which is what ties these markets to the finite
experiments of :mod:`lecam.experiments`:

* ``terminal_log_masses`` gives the test powers of terminal payoffs: the
  masses below, at and above given levels of ``log(X_T/X_0)`` under ``Q``
  and ``Q1 = (X_T/X_0) . Q``, from binomial tails, ties decided in count
  units, without any law of ``X_T``; ``multiset_log_masses`` gives the
  same masses for every assignment of vertex multisets to the return
  classes in one pass, one row each, for ``pricing.price_bounds``;
* ``terminal_log_atoms`` lists the atoms of ``log(X_T/X_0)`` on the counts
  that carry mass, unsorted, each binomial draw on its Hoeffding window,
  for the ``P0`` sup-distance of :mod:`lecam.lan`; prices never window a
  draw, as a far tail term needs its tail-relative accuracy;
* ``backward_induction`` rolls node values back over the recombined
  lattice, whose nodes are integer count vectors per return class; it
  prices barriers and serves ``verify_representation``;
* ``induced_experiment``, ``verify_mm_criterion`` and
  ``image_experiment_check`` enumerate paths: small-``N`` oracles.

Which steps are the same is decided once, by :func:`group_steps`: a market
keeps its returns and bond rates as distinct steps and a per-step index
(:class:`StepKinds`), its return classes (``classes``, steps of equal
values) derive from them, and step measures take the same form.  Every law
depends on a return class only through the multiset of its step measures,
so the engines read groups ``[q, steps]`` per class (built in the one pass
of :func:`as_step_measures` that also checks a measure argument), a
closed-form multinomial each, their sums over the classes enumerated once
by ``combine_additive_laws``; ``multiset_log_masses`` reads the vertices
of each class and counts them per row instead.  Atoms and nodes take their
spots from ``_count_logs`` (per class ``counts @ log(values)``, summed in
class order) and are compared as floats, so a barrier level exactly on a
node is decided by rounding; ``terminal_log_masses`` decides ties in count units of its
closed-form draw, so terminal prices do not depend on that rounding.

Node prices need no market of their own: :func:`pinned_measures` pins each
observed step to its move, the complementary experiment of the node's block.

Martingale measures are solved per distinct step by vertex enumeration of
the polytope ``{q >= 0, sum q = 1, sum q*u = 1}``; every vertex has support
of size one or two, so enumeration is exact and needs no LP solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import limits
# binomial pmf and cdf in numpy: exact terms up to 64 trials, Loader's saddle
# point and an incomplete-beta continued fraction beyond
from ._binom import binom_cdf as _binom_cdf, binom_pmf as _binom_pmf
from .errors import (
    InvalidParams,
    InvalidState,
    NoArbitrageViolation,
    SelfCheckFailed,
    SizeLimit,
)
from .experiments import FiniteExperiment

ATOL = 1e-12


# ---------------------------------------------------------------------------
# steps grouped by kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepKinds(Sequence):
    """One item per step, each distinct item stored once: step ``j`` holds
    ``kinds[index[j]]``, kinds in order of first occurrence, so checks run
    once per kind and still name the first offending step (``first``)."""

    kinds: tuple
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, j):
        if isinstance(j, slice):
            used, index, _ = _by_first_step(self.index[j])
            return StepKinds(tuple(self.kinds[k] for k in used.tolist()), index)
        return self.kinds[self.index[j]]

    def __iter__(self) -> Iterator:
        return map(self.kinds.__getitem__, self.index.tolist())

    @functools.cached_property
    def first(self) -> np.ndarray:
        """The first step of each kind, from a sort of the whole index: the
        checks that run once per kind read it only to name the step in an
        error, so a valid market is checked in work per kind."""
        return _by_first_step(self.index)[2]

    def __eq__(self, other) -> bool:
        """Equal as per-step sequences, compared once per distinct pair."""
        return isinstance(other, StepKinds) and len(self) == len(other) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((self.kinds[i], other.kinds[k]) for i, k in _joint(self, other).kinds))

    def __hash__(self) -> int:
        return hash(tuple(self))


def group_steps(items: Iterable, convert: Callable = lambda item: item) -> StepKinds:
    """The one place where steps are grouped: ``convert(item)`` per step
    (``items`` one per step, or a :class:`StepKinds`), run once per distinct
    object, equal results merged (arrays by shape and bytes)."""
    if isinstance(items, StepKinds):
        objects, index = items.kinds, items.index
    else:
        seen: dict = {}
        index = np.array([seen.setdefault(id(item), (len(seen), item))[0] for item in items],
                         dtype=np.intp)
        objects = [item for _, item in seen.values()]
    seen = {}
    at = [seen.setdefault((item.shape, item.tobytes()) if isinstance(item, np.ndarray)
                          else item, (len(seen), item))[0] for item in map(convert, objects)]
    return StepKinds(tuple([item for _, item in seen.values()]),
                     np.array(at, dtype=np.intp)[index])


def _by_first_step(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``codes`` by first occurrence, each step's position
    among them and the first step of each."""
    values, first, index = np.unique(codes, return_index=True, return_inverse=True)
    order = first.argsort()
    return values[order], order.argsort()[index], first[order]


_as_float = functools.partial(np.asarray, dtype=float)


def _joint(a: StepKinds, b: StepKinds) -> StepKinds:
    """The steps' pairs ``(i, k)`` of kind indices in ``a`` (a market's
    steps) and ``b`` (their measures)."""
    if len(b) != len(a):
        raise InvalidParams(f"expected {len(a)} step measures, got {len(b)}")
    width = len(b.kinds)
    codes, index, _ = _by_first_step(a.index * width + b.index)
    return StepKinds(tuple(divmod(code, width) for code in codes.tolist()), index)


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

    Both are given one item per step or as a :class:`StepKinds`; validation
    groups them once and keeps them as :class:`StepKinds` (of float tuples
    and of floats), so each distinct step is checked once.
    """

    steps: int
    horizon: float
    s0: float
    returns: StepKinds
    bond_rates: StepKinds

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise InvalidParams(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.horizon < math.inf:
            raise InvalidParams(f"horizon must be positive and finite, got {self.horizon!r}")
        if not 0.0 < self.s0 < math.inf:
            raise InvalidParams(f"s0 must be positive and finite, got {self.s0!r}")
        steps = group_steps(self.returns,
                            lambda step: tuple((float(v), float(p)) for v, p in step))
        rates = group_steps(self.bond_rates, float)
        self.__dict__.update(returns=steps, bond_rates=rates)
        if len(steps) != self.steps or len(rates) != self.steps:
            raise InvalidParams("returns and bond_rates must have one entry per step")
        for k, step in enumerate(steps.kinds):
            if not step:
                raise InvalidParams(f"step {steps.first[k]} has no return values")
            vals, probs = zip(*step)
            if not all(0.0 < v < math.inf for v in vals):
                raise InvalidParams(
                    f"step {steps.first[k]} has a nonpositive or non-finite return value")
            if len(set(vals)) != len(vals):
                raise InvalidParams(f"step {steps.first[k]} repeats a return value")
            if not all(0.0 < p <= 1.0 for p in probs):
                raise InvalidParams(f"step {steps.first[k]} has a probability outside (0, 1]")
            if not abs(sum(probs) - 1.0) <= ATOL:
                raise InvalidParams(f"step {steps.first[k]} probabilities sum to {sum(probs)!r}")
        for k, r in enumerate(rates.kinds):
            if not 0.0 <= r < math.inf:
                raise InvalidParams(f"step {rates.first[k]} bond rate is negative or not finite")

    @functools.cached_property
    def classes(self) -> StepKinds:
        """The return classes: the steps grouped by their values alone."""
        return group_steps(self.returns, lambda step: tuple(v for v, _ in step))

    def head(self, n: int) -> LatticeMarket:
        """The first ``n`` steps as a market, sharing their validation (the
        market itself for all its steps)."""
        if not 1 <= n <= self.steps:
            raise InvalidParams(f"a head needs 1 to {self.steps} steps, got {n}")
        if n == self.steps:
            return self
        head = object.__new__(LatticeMarket)
        head.__dict__.update(steps=n, horizon=n * self.horizon / self.steps, s0=self.s0,
                             returns=self.returns[:n], bond_rates=self.bond_rates[:n])
        return head

    # -- accessors ---------------------------------------------------------
    def step_values(self, j: int) -> np.ndarray:
        return np.array([v for v, _ in self.returns[j]])

    def step_probs(self, j: int) -> np.ndarray:
        return np.array([p for _, p in self.returns[j]])

    def support_sizes(self) -> tuple[int, ...]:
        return tuple(len(step) for step in self.returns)

    @functools.cached_property
    def bond_path(self) -> np.ndarray:
        """Gross bond values ``B_0 = 1, ..., B_N`` (read-only), the step
        factors ``1 + r_j`` multiplied left to right."""
        rates = self.bond_rates
        path = np.cumprod(np.r_[1.0, 1.0 + np.array(rates.kinds)[rates.index]])
        path.flags.writeable = False
        return path

    def bond_factor(self, t: int) -> float:
        """Gross bond value after ``t`` steps (equals 1 at ``t = 0``)."""
        return float(self.bond_path[t])

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
        kinds = market.returns
        sizes = np.array([len(step) for step in kinds.kinds])[kinds.index[:self.t]]
        moves = np.array(self.moves)  # an object array for moves beyond int64
        bad = np.flatnonzero((moves < 0) | (moves >= sizes))
        if len(bad):
            raise InvalidState(f"move index {self.moves[bad[0]]} invalid at step {bad[0]}")


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

    per_step: StepKinds

    @property
    def complete(self) -> bool:
        return all(s.unique for s in self.per_step.kinds)

    def designated(self) -> StepKinds:
        """A canonical strictly positive element: per-step barycenters."""
        return group_steps(self.per_step, StepSolution.barycenter)


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
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidParams(f"market spec malformed: {exc}") from exc


def _every_step(item, steps: int) -> StepKinds:
    """``item`` at each of ``steps`` steps, stored once; for ``steps < 1``
    no steps and no kind, so that the market rejects the size first."""
    return StepKinds((item,) * (steps > 0), np.zeros(max(steps, 0), dtype=np.intp))


def _market_from_json(doc: Mapping) -> LatticeMarket:
    steps = int(doc["N"])
    horizon = float(doc["T"])
    s0 = float(doc["s0"])
    bond = doc["bond"]
    ret = doc["returns"]

    if "const" in bond:
        rates = _every_step(float(bond["const"]), steps)
    elif "r_simple_per_step" in bond:
        rates = group_steps([float(r) for r in bond["r_simple_per_step"]])
        if len(rates) != steps:
            raise InvalidParams("r_simple_per_step length must equal N")
    else:
        raise InvalidParams("bond spec needs 'const' or 'r_simple_per_step'")

    kind = ret.get("type")
    if kind == "crr":
        u = float(ret["u"])
        d = float(ret["d"])
        p = float(ret.get("p", 0.5))
        # one step built per distinct rate
        steps_returns = group_steps(rates, lambda r: _crr_step(u, d, p, 1.0 + r))
    elif kind == "table":
        values = ret["values"]
        probs = ret["probs"]
        nested = bool(values) and isinstance(values[0], (list, tuple))
        if nested:
            if len(values) != steps or len(probs) != steps:
                raise InvalidParams("per-step tables must have N entries")
            steps_returns = tuple(
                tuple(zip(map(float, vs), map(float, ps), strict=True))
                for vs, ps in zip(values, probs)
            )
        else:
            one = tuple(zip(map(float, values), map(float, probs), strict=True))
            steps_returns = _every_step(one, steps)
    else:
        raise InvalidParams(f"unknown returns type {kind!r}")

    return LatticeMarket(steps, horizon, s0, steps_returns, rates)


def market_to_json(m: LatticeMarket) -> dict:
    """The plain dict of :func:`market_from_json`: a flat ``table`` and a
    ``const`` rate when every step is the same, else per-step lists."""
    if len(m.returns.kinds) == len(m.bond_rates.kinds) == 1:
        (step,), bond = m.returns.kinds, {"const": m.bond_rates.kinds[0]}
        values, probs = [v for v, _ in step], [p for _, p in step]
    else:
        bond = {"r_simple_per_step": list(m.bond_rates)}
        values = [[v for v, _ in step] for step in m.returns]
        probs = [[p for _, p in step] for step in m.returns]
    return {"N": m.steps, "T": m.horizon, "s0": m.s0, "bond": bond,
            "returns": {"type": "table", "values": values, "probs": probs}}


# ---------------------------------------------------------------------------
# martingale measures
# ---------------------------------------------------------------------------

def _step_vertices(values: np.ndarray) -> list[np.ndarray]:
    """Vertices of ``{q >= 0, sum q = 1, sum q*values = 1}``.

    With two equality constraints each vertex has at most two nonzero
    coordinates: singletons at values equal to one, and pairs straddling one.
    """
    eye = np.eye(len(values))
    vertices = [eye[i] for i in np.flatnonzero(values == 1.0)]
    for i in np.flatnonzero(values > 1.0):
        for j in np.flatnonzero(values < 1.0):
            qi = (1.0 - values[j]) / (values[i] - values[j])
            vertices.append(qi * eye[i] + (1.0 - qi) * eye[j])
    return vertices


def solve_martingale_measures(m: LatticeMarket) -> MartingaleMeasureSet:
    """Solve each step's martingale condition exactly.

    Raises :class:`~lecam.errors.NoArbitrageViolation` when some step admits
    no strictly positive solution (all returns on one side of 1, or a
    coordinate forced to zero across the whole polytope).
    """
    kinds = m.returns
    solutions = []
    for k, step in enumerate(kinds.kinds):
        values = np.array([v for v, _ in step])
        vertices = _step_vertices(values)
        if not vertices:
            raise NoArbitrageViolation(
                f"step {kinds.first[k]}: returns {values.tolist()} all on one side of 1"
            )
        covered = np.any(np.array(vertices) > 0.0, axis=0)
        if not covered.all():
            dead = np.flatnonzero(~covered).tolist()
            raise NoArbitrageViolation(
                f"step {kinds.first[k]}: no equivalent martingale measure "
                f"(coordinates {dead} forced to zero)"
            )
        solutions.append(StepSolution(tuple(tuple(v) for v in vertices)))
    return MartingaleMeasureSet(group_steps(StepKinds(tuple(solutions), kinds.index)))


def is_complete(m: LatticeMarket) -> bool:
    """True iff the martingale measure is unique (all steps two-point or
    degenerate singletons)."""
    return solve_martingale_measures(m).complete


def as_step_measures(m: LatticeMarket, q, strict: bool | None = None
                     ) -> tuple[StepKinds, list[tuple[tuple[float, ...], list[list]]]]:
    """Normalize a measure argument and group it by return class, in one pass.

    ``q`` is a :class:`MartingaleMeasureSet` (its designated element), a
    single vector (every step's), a per-step sequence of vectors or a
    :class:`StepKinds`.  Each distinct (return class, vector) pair is
    checked once, naming its first step: first as a probability vector on
    the class's values, then, unless ``strict`` is ``None``, as a
    martingale measure (``sum q*u = 1``), strictly positive if ``strict``.

    Returns the per-step measures (for :func:`backward_induction`,
    :func:`pinned_measures` and the path oracles) and the return classes of
    ``m`` in order, each with its steps' measures grouped by equal value as
    ``[q, steps]`` (first-seen order), the form of
    :func:`terminal_log_masses`: every law here depends on a class only
    through that multiset.
    """
    if isinstance(q, MartingaleMeasureSet):
        q = q.designated()
    elif not isinstance(q, StepKinds):
        q = list(q)
        if q and np.isscalar(q[0]):
            q = StepKinds((q,), np.zeros(m.steps, dtype=np.intp))
    measures = group_steps(q, lambda v: np.array(v, dtype=float))
    classes = m.classes
    pairs = _joint(classes, measures)
    checked = [(classes.kinds[c], measures.kinds[k]) for c, k in pairs.kinds]
    for i, (values, v) in enumerate(checked):
        if v.shape != (len(values),):
            raise InvalidParams(f"step {pairs.first[i]} measure has wrong length")
        if np.any(v < 0.0):
            raise InvalidParams(f"step {pairs.first[i]} measure has negative mass")
        if not abs(float(v.sum()) - 1.0) <= ATOL:  # NaN fails too
            raise InvalidParams(f"step {pairs.first[i]} measure sums to {float(v.sum())!r}")
    for i, (values, v) in enumerate(checked if strict is not None else ()):
        gap = abs(float(v @ np.array(values)) - 1.0)
        if not gap <= ATOL:
            raise InvalidParams(
                f"step {pairs.first[i]} measure is not a martingale measure (gap {gap:.3e})"
            )
        if strict and not np.all(v > 0.0):
            raise InvalidParams(f"step {pairs.first[i]} measure is not strictly positive")
    groups: list[list] = [[] for _ in classes.kinds]
    for (c, k), size in zip(pairs.kinds, np.bincount(pairs.index).tolist()):
        groups[c].append([measures.kinds[k], size])
    return measures, list(zip(classes.kinds, groups))


def check_strictly_positive(step_measures: StepKinds) -> None:
    """The positivity check of ``as_step_measures(..., strict=True)`` on its
    own, for measures already checked with ``strict=False``: raises
    :class:`~lecam.errors.InvalidParams` naming the first step whose measure
    has a zero."""
    zero = np.array([not np.all(v > 0.0) for v in step_measures.kinds])
    steps = np.flatnonzero(zero[step_measures.index])
    if steps.size:
        raise InvalidParams(f"step {steps[0]} measure is not strictly positive")


def pinned_measures(m: LatticeMarket, step_measures: StepKinds,
                    state: PathState) -> StepKinds:
    """``step_measures`` with each step ``j < t`` set to the unit vector of
    its move in ``state``, one per distinct (step kind, move): the law given
    the observed moves, the complementary experiment of the node's block."""
    state.validate(m)
    kinds, t = m.returns, state.t
    width = max(map(len, kinds.kinds))
    units = len(kinds.kinds) * width  # codes below are pinned (kind, move) pairs
    codes = np.r_[kinds.index[:t] * width + np.array(state.moves, dtype=np.intp),
                  units + step_measures.index[t:]]
    used, index, _ = _by_first_step(codes)
    return StepKinds(tuple(np.eye(len(kinds.kinds[c // width]))[c % width] if c < units
                           else step_measures.kinds[c - units] for c in used.tolist()), index)


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------

def enumerate_paths(m: LatticeMarket) -> np.ndarray:
    """All move-index paths as an ``(P, N)`` integer matrix.

    The first step varies slowest, matching ``itertools.product`` order, so
    paths sharing a prefix are contiguous.  Raises :class:`SizeLimit` beyond
    ``limits.max_paths()`` paths.
    """
    sizes = m.support_sizes()
    cap = limits.max_paths()
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


def path_products(m: LatticeMarket, paths: np.ndarray) -> np.ndarray:
    """Normalized discounted prices ``X_t / X_0`` per path, shape ``(P, N+1)``.

    Column ``t`` is the product of the first ``t`` realized returns, with
    column 0 identically one.
    """
    vals = np.column_stack([m.step_values(j)[paths[:, j]] for j in range(m.steps)])
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
    return m.s0 * path_products(m, paths) * m.bond_path


# ---------------------------------------------------------------------------
# grouped (recombining) laws
# ---------------------------------------------------------------------------

def _window(n, p: float, tail: float):
    """The first count ``lo`` and the number ``width`` of counts of
    ``Bin(n, p)`` that a draw keeps: all of ``[0, n]`` for ``tail = 0``,
    else those within ``s = sqrt(n ln(2/tail) / 2)`` of ``n p``, outside
    which Hoeffding's inequality ``P(|X - n p| >= s) <= 2 exp(-2 s^2 / n)``
    leaves at most ``tail`` of the mass."""
    if not tail:
        return 0, n + 1
    s = np.sqrt(n * (math.log(2.0 / tail) / 2.0))
    lo = np.maximum(np.ceil(n * p - s), 0).astype(np.int64)
    return lo, np.minimum(np.floor(n * p + s), n).astype(np.int64) - lo + 1


def _chain(n: int, q: np.ndarray, outcomes: np.ndarray,
           tail: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first draws of the multinomial chain of ``n`` steps with measure
    ``q``: each outcome of ``outcomes`` in turn draws its count from
    ``Bin(rest, q_i / (q_i + mass of the outcomes after it))``, on its
    :func:`_window` for ``tail``.  Returns the count rows (undrawn outcomes
    at zero), their probabilities and the counts left to the outcomes after
    the last one drawn.  Raises :class:`~lecam.errors.SizeLimit` when the
    rows of a draw, counted before they are built, exceed the state cap."""
    tails = np.cumsum(q[::-1])[::-1]
    counts = np.zeros((1, len(q)), dtype=np.int64)
    probs = np.ones(1)
    rest = np.full(1, n, dtype=np.int64)
    for i in outcomes:
        p = min(q[i] / tails[i], 1.0)
        lo, width = _window(rest, p, tail)
        if (states := int(width.sum())) > (cap := limits.max_states()):
            raise SizeLimit(f"count states {states} exceed cap {cap}")
        row, draw, pmf = _draw_step(rest, p, lo, width)
        counts = counts[row]
        counts[:, i] = draw
        probs = probs[row] * pmf
        rest = rest[row] - draw
    return counts, probs, rest


def _draw_step(n: np.ndarray, p, lo, width: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ragged binomial draw of :func:`_ragged` from ``Bin(n[i], p)``
    (or ``p[i]``): each draw's row, the draw and its probability."""
    row, draw = _ragged(lo, width)
    return row, draw, _binom_pmf(draw, n[row], p[row] if np.ndim(p) else p)


def _ragged(lo, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row ``i`` takes the counts ``lo[i]`` to ``lo[i] + width[i] - 1``:
    each count's row and the count, rows in order and counts ascending."""
    row = np.repeat(np.arange(len(width)), width)
    return row, np.arange(len(row)) - np.repeat(np.cumsum(width) - width - lo, width)


def _identical_law(n: int, q: np.ndarray, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial law of the outcome counts of ``n`` steps with measure
    ``q``, rows in lexicographic order: the chain over every live outcome
    but the last, which takes the remainder; zero-mass outcomes carry no
    count."""
    live = np.flatnonzero(q > 0.0)
    counts, probs, rest = _chain(n, q, live[:-1], tail)
    counts[:, live[-1]] = rest
    return counts, probs


def _composition_rank(counts: np.ndarray) -> np.ndarray:
    """Rank of each row among the compositions of its total ``n`` into ``k``
    parts, an exact key below ``C(n + k - 1, k - 1)``: ``sum_i C(s_i + i,
    i + 1)`` over prefix sums ``s_i``, each table of ``C(s + i, i + 1)``
    the running sum of the one before it."""
    table = np.arange(counts[0].sum() + 1, dtype=np.int64)
    rank = np.zeros(len(counts), dtype=np.int64)
    for ends in np.cumsum(counts[:, :-1], axis=1).T:
        rank += table[ends]
        table = np.cumsum(table)
    return rank


def count_distribution(qs: Sequence[np.ndarray],
                       tail: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Joint law of outcome counts over steps sharing one support: ``qs``
    holds one probability vector of length ``k`` per step.

    Returns ``(counts, probs)``: one reachable count vector per row of
    ``counts`` (every split of ``n`` for ``k = 2``) and its probability, a
    closed-form multinomial per group of equal step measures (binomial pmfs
    of :mod:`lecam._binom`: exact coefficients up to 64 steps, Loader's
    saddle point beyond), the groups convolved.  Raises
    :class:`~lecam.errors.SizeLimit` when the rows of a draw, or the
    pairwise sums that merge two groups, exceed the state cap, counted
    before they are built.  A private ``tail > 0`` keeps each binomial draw
    on its :func:`_window` (the atoms of :func:`terminal_log_atoms`).
    """
    measures = group_steps(qs, _as_float)
    k = len(measures.kinds[0])
    if any(len(q) != k for q in measures.kinds):
        raise InvalidParams("all steps in a class must share the support size")
    return _grouped_count_law(list(zip(measures.kinds, np.bincount(measures.index).tolist())),
                              k, tail)


def _grouped_count_law(groups: Sequence[list], k: int,
                       tail: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`count_distribution` over groups ``[q, steps]`` of equal step
    measures, each a multinomial, the groups convolved; with ``tail > 0``
    each binomial draw keeps only its :func:`_window`.  Raises
    :class:`~lecam.errors.SizeLimit` when the rows, counted before they are
    built, exceed the state cap."""
    if k == 2:  # convolve the pmfs of the first outcome's count, each on its window
        windows = [_window(size, q[0], tail) for q, size in groups]
        states = sum(int(width) - 1 for _, width in windows) + 1
        if states > (cap := limits.max_states()):
            raise SizeLimit(f"count states {states} exceed cap {cap}")
        probs = functools.reduce(np.convolve, (_binom_pmf(np.arange(lo, lo + width), size, q[0])
                                               for (lo, width), (q, size) in zip(windows, groups)))
        lo = sum(lo for lo, _ in windows)
        a = np.arange(lo, lo + len(probs), dtype=np.int64)
        return np.stack([a, sum(size for _, size in groups) - a], axis=1), probs
    laws = (_identical_law(size, q, tail) for q, size in groups)
    counts, probs = next(laws)
    for more, more_probs in laws:  # pairwise sums, equal count vectors merged
        if len(counts) * len(more) > (cap := limits.max_states()):
            raise SizeLimit(f"count states exceed cap {cap}")
        counts = (counts[:, None] + more[None]).reshape(-1, k)
        _, first, inverse = np.unique(_composition_rank(counts),
                                      return_index=True, return_inverse=True)
        counts = counts[first]
        probs = np.bincount(inverse, weights=np.outer(probs, more_probs).ravel())
    return counts, probs


def combine_additive_laws(laws: Sequence[tuple[np.ndarray, np.ndarray]]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of an independent sum from per-class laws ``(values, probs)``:
    one atom per choice of a state in each law, unsorted and unmerged, the
    first law's states varying slowest.

    Raises :class:`~lecam.errors.SizeLimit` when the sums of two or more
    laws exceed the state cap (:func:`lecam.limits.max_states`).
    """
    cap = limits.max_states()
    (vals, probs), *rest = laws
    for cvals, cprobs in rest:
        if len(vals) * len(cvals) > cap:
            raise SizeLimit(f"terminal atoms exceed cap {cap}")
        vals = (vals[:, None] + cvals).ravel()
        probs = (probs[:, None] * cprobs).ravel()
    return vals, probs


def _count_logs(counts: np.ndarray, values: Sequence[float]) -> np.ndarray:
    """``log(X/X_0)`` contributed by one return class at integer count
    vectors (one row each), the one rule for atoms and nodes."""
    return counts @ np.log(values)


#: Tail left out of each binomial draw of :func:`terminal_log_atoms`: a draw
#: keeps the counts of its Hoeffding window (:func:`_window`), at most this
#: share of its row's mass outside.  A constant of the law, not a setting.
LAW_TAIL = 1e-20


def terminal_log_atoms(m: LatticeMarket,
                       step_measures: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of ``log(X_T / X_0)`` under per-step measures on the counts
    that carry mass, as :func:`combine_additive_laws` enumerates them:
    unsorted, and one value may be listed more than once.

    One grouped count law per return class keeps the state space polynomial
    in ``N``; each of its binomial draws (one per live outcome but the last,
    per group of equal step measures) keeps only the counts of its Hoeffding
    window for :data:`LAW_TAIL`, so it drops at most ``LAW_TAIL`` times the
    mass of its rows.  The atoms miss at most ``LAW_TAIL`` times their number
    of draws, at most ``4e-20`` for two classes of trinomial steps, and no
    CDF moves by more.  Raises :class:`~lecam.errors.SizeLimit` when the
    windowed rows of a class, or their combination, exceed the state cap,
    counted before they are built.
    """
    laws = []
    for values, groups in as_step_measures(m, step_measures)[1]:
        counts, probs = _grouped_count_law(groups, len(values), LAW_TAIL)
        laws.append((_count_logs(counts, values), probs))
    return combine_additive_laws(laws)


#: Tie tolerance in count units: a level within this distance of an integer
#: count of the last draw sits at that atom.  Rounding in the log sums is
#: below 1e-13 there, and atoms lie one unit apart.
TIE_TOL = 1e-9


def terminal_log_masses(classes: Sequence[tuple[tuple[float, ...], list[list]]],
                        levels: Sequence[float]) -> np.ndarray:
    """Masses of ``log(X_T / X_0)`` strictly below, exactly at and strictly
    above each of ``levels`` under ``Q`` and ``Q1 = (X_T/X_0) . Q``, shape
    ``(2, 3, len(levels))``, from the step measures grouped per return
    class (``classes``, as :func:`as_step_measures` returns them), without
    building or sorting any law of ``X_T``.

    Each group (a return class times an equal step measure) is a chain of
    binomial draws.  The last draw ``Bin(n, rho)`` of the group whose law
    it shrinks most stays in closed form; the rest is enumerated as
    unsorted atoms by :func:`combine_additive_laws`.  Over an atom with log
    ``base`` that draw adds ``c * delta`` for ``c`` counts of its larger
    value, so each level reads binomial tails at ``t = (level - base) /
    delta``, and a level within :data:`TIE_TOL` of an integer ``t`` sits at
    that atom.  Under ``Q1`` the draw is tilted: with ``lam`` the log of its
    mean return ``mu``, an atom of log ``a`` weighs ``e^(a + n lam)`` and
    draws from ``Bin(n, rho v_hi / mu)``.  A group with one live outcome
    (pinned moves) is a fixed count of its class and counts for no state;
    with no draw left, ties are read in units of the smallest log gap
    between the values of a step.

    Raises :class:`~lecam.errors.SizeLimit` when the rows of an enumerated
    draw, the pairwise sums that merge its groups or the atoms exceed the
    state cap, each counted before it is built; the closed-form draw counts
    for none.  Raises :class:`~lecam.errors.SelfCheckFailed` when the
    ``Q1`` masses fall short of ``E_Q(X_T/X_0)`` (:func:`_checked_q1_mass`).
    """
    last, saving, log_total = None, 1.0, 0.0
    split = []  # per class: its values, fixed count and random groups
    for values, groups in classes:
        # a group with one live outcome (pinned moves) is a fixed count: no state, no law
        random = [group for group in groups if np.count_nonzero(group[0]) > 1]
        fixed = sum(size * (q > 0) for q, size in groups if np.count_nonzero(q) == 1)
        log_total += sum(size * math.log(q @ values) for q, size in groups)
        split.append((values, fixed, random))
        # the closed-form draw: the group whose law it shrinks the most, from
        # C(n + l - 1, l - 1) rows to C(n + l - 2, l - 2) for l live outcomes
        for group in random:
            live = np.count_nonzero(group[0])
            if (group[1] + live - 1) / (live - 1) > saving:
                last, last_values, saving = group, values, (group[1] + live - 1) / (live - 1)

    logs, probs, draws = np.zeros(1), np.ones(1), np.zeros(1, dtype=np.int64)
    if last is None:
        log_lo, delta, drift, p = _no_draw([values for values, _ in classes])
    else:
        q, size = last
        live = np.flatnonzero(q)
        draws[0] = size
        if len(live) > 2:
            counts, probs, draws = _chain(size, q, live[:-2])
            logs = _count_logs(counts, last_values)
        log_lo, delta, drift, p = _last_draw(last_values, q, live[-2:])
    laws = [(logs, probs)]  # the chain first, so each of its draws repeats in ravel order
    for values, fixed, random in split:  # a class with nothing left adds 0.0 to every atom
        rest = [g for g in random if g is not last]
        counts, more = (_grouped_count_law(rest, len(values)) if rest
                        else (np.zeros((1, len(values)), dtype=np.int64), np.ones(1)))
        laws.append((_count_logs(counts + fixed, values), more))
    logs, probs = combine_additive_laws(laws)
    draws = draws.repeat(len(logs) // len(draws))
    base = logs + draws * log_lo
    weights = _weights(probs, logs + draws * drift)
    levels = np.asarray(levels, dtype=float)
    chunks = (slice(s, s + _TAIL_CHUNK) for s in range(0, len(logs), _TAIL_CHUNK))
    return _checked_q1_mass(sum(_draw_tails(levels, base[c], draws[c], weights[:, c], delta, p)
                                for c in chunks), log_total)


#: The largest exponent whose ``exp`` is finite.
_LOG_MAX = math.log(np.finfo(float).max)


def _weights(probs: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """The masses of atoms under ``Q`` and ``Q1``, shape ``(2, atoms)``:
    their ``Q`` probabilities ``probs`` and ``probs * e^exponent``, formed
    in log space only where ``e^exponent`` overflows, so that an atom whose
    ``Q`` probability underflowed to zero weighs zero under ``Q1`` too."""
    over = exponent > _LOG_MAX
    weights = np.array([probs, probs * np.exp(np.where(over, 0.0, exponent))])
    if over.any():
        with np.errstate(divide="ignore"):
            weights[1, over] = np.exp(np.log(probs[over]) + exponent[over])
    return weights


def _checked_q1_mass(masses: np.ndarray, log_total) -> np.ndarray:
    """``masses`` (axes ``..., measure, side, level``) once the ``Q1``
    masses below, at and above each level are found to sum to
    ``e^log_total`` (per leading row).  They fall short where ``Q``
    probabilities underflow to zero on atoms that carry ``Q1`` mass: a
    shortfall beyond 1e-9 relative, far above the rounding of the tails,
    raises :class:`~lecam.errors.SelfCheckFailed`, as does a NaN."""
    got = masses[..., 1, :, :].sum(axis=-2)
    want = np.exp(log_total)[..., None]
    short = ~(got >= want * (1.0 - 1e-9))
    if short.any():
        want = np.broadcast_to(want, got.shape)
        raise SelfCheckFailed(f"Q1 masses sum to {got[short][0]:.12g}, not "
                              f"{want[short][0]:.12g}: Q underflows where Q1 puts its mass")
    return masses


def _last_draw(values: Sequence[float], q: np.ndarray, pair: np.ndarray
               ) -> tuple[float, float, float, np.ndarray]:
    """The closed-form draw ``Bin(n, rho)`` of a group with measure ``q`` on
    ``values`` between the outcomes ``pair``: the log ``log_lo`` of its
    smaller value, the log gap ``delta`` to the larger one, the log of its
    mean return and the probabilities ``p`` of :func:`_draw_tails`."""
    (v_lo, q_lo), (v_hi, q_hi) = sorted((values[i], float(q[i])) for i in pair)
    rho = q_hi / (q_lo + q_hi)
    # log of the draw's mean return, from its mean excess over one
    drift = math.log1p((q_lo * (v_lo - 1.0) + q_hi * (v_hi - 1.0)) / (q_lo + q_hi))
    tilt = min(rho * v_hi * math.exp(-drift), 1.0)
    p = np.array([rho, 1.0 - rho, tilt, 1.0 - tilt]).reshape(2, 2, 1, 1)
    return math.log(v_lo), math.log(v_hi) - math.log(v_lo), drift, p


def _no_draw(classes: Sequence[Sequence[float]]) -> tuple[float, float, float, np.ndarray]:
    """:func:`_last_draw` with no random step: a draw of none, its unit the
    smallest log gap between the values of a step."""
    delta = min((np.diff(np.log(np.sort(values))).min()
                 for values in classes if len(values) > 1), default=1.0)
    return 0.0, delta, 0.0, np.array([0.0, 1.0, 0.0, 1.0]).reshape(2, 2, 1, 1)


def _compositions(n: int, k: int) -> np.ndarray:
    """The ``C(n + k - 1, k - 1)`` ways to spread ``n`` steps over ``k``
    parts, one count vector per row, in the order of
    ``itertools.combinations_with_replacement(range(k), n)``: the first
    part's count descending, then the next part's."""
    counts = np.zeros((1, k), dtype=np.int64)
    rest = np.full(1, n, dtype=np.int64)
    for i in range(k - 1):
        row, left = _ragged(0, rest + 1)  # the counts left after this part, ascending
        counts = counts[row]
        counts[:, i] = rest[row] - left
        rest = left
    counts[:, -1] = rest
    return counts


def multiset_log_masses(classes: Sequence[tuple[tuple[float, ...], Sequence[np.ndarray], int]],
                        levels: Sequence[float]) -> np.ndarray:
    """The masses of :func:`terminal_log_masses` under every product measure
    that gives the ``steps`` steps of each return class ``values`` a
    multiset of its ``vertices`` (measures with at most two live outcomes,
    as :func:`solve_martingale_measures` finds them), shape ``(R, 2, 3,
    len(levels))``: one row per assignment of a multiset to every class,
    ``R = prod C(steps + V - 1, V - 1)`` for ``V`` vertices, the first
    class's multisets varying slowest, each class's in the order of
    ``itertools.combinations_with_replacement`` of its vertices.

    Under an assignment a class's law is a product of independent
    binomials, one per vertex: the vertex's ``rho`` is fixed and only its
    count varies from row to row.  So all rows are priced in one pass.  In
    each row the group (a class times a vertex) with the most steps stays
    in closed form, as :func:`terminal_log_masses` picks it, its ties
    decided in its count units; every other group's draw is enumerated per
    row (:func:`_draw_step`, one ragged step for all rows per group
    enumerated), and :func:`_add_row_tails` adds each atom's masses to its
    row, atoms in chunks of :data:`_ROW_CHUNK` and rows in blocks of about
    as many atoms, in an order that does not depend on the chunks.

    Raises :class:`~lecam.errors.SizeLimit`, before any law is built, when
    the atoms of a row, enumerated beside its closed-form draw, exceed the
    state cap, and :class:`~lecam.errors.SelfCheckFailed` when the ``Q1``
    masses of a row fall short of its total (:func:`_checked_q1_mass`),
    checked per block of rows before the next block is built.
    """
    parts = [_compositions(steps, len(vertices)) for _, vertices, steps in classes]
    picks = np.indices([len(part) for part in parts]).reshape(len(parts), -1)
    counts = np.concatenate([part[pick] for part, pick in zip(parts, picks)], axis=1)
    groups = [(c, values, q, np.flatnonzero(q))
              for c, (values, vertices, _) in enumerate(classes) for q in vertices]
    random = [g for g, (*_, live) in enumerate(groups) if len(live) == 2]
    fixed = [g for g, (*_, live) in enumerate(groups) if len(live) == 1]
    # the draws of the groups with two live outcomes (a draw of none without any)
    log_lo, delta, drift, p = zip(*([_last_draw(*groups[g][1:]) for g in random] or
                                    [_no_draw([values for values, _, _ in classes])]))
    log_lo, delta, drift, p = np.array(log_lo), np.array(delta), np.array(drift), np.concatenate(
        p, axis=2)
    # (without a random group, one column of zeros for the draw of none)
    random_counts = counts[:, random] if random else np.zeros((len(counts), 1), dtype=np.int64)
    # each row's closed-form draw, as terminal_log_masses picks it: its group
    # with the most steps, the first on ties; the other groups are enumerated
    which = np.argmax(random_counts, axis=1)
    closed = np.arange(len(log_lo)) == which[:, None]
    closed_counts = random_counts[closed]
    enumerated = np.where(closed, 0, random_counts)
    order = np.argsort(closed, axis=1, kind="stable")[:, :-1]  # each row's enumerated groups

    atoms = np.prod(enumerated + 1.0, axis=1)
    if atoms.max() > (cap := limits.max_states()):
        raise SizeLimit(f"terminal atoms exceed cap {cap}")

    # each row's log with no count on the larger value of any enumerated draw
    fixed_logs = [math.log(values[live[0]]) for _, values, _, live in groups if len(live) == 1]
    offset = enumerated @ log_lo + counts[:, fixed] @ np.array(fixed_logs)
    levels = np.asarray(levels, dtype=float)
    out = np.zeros((len(counts), 2, 3, len(levels)))
    log_totals = counts @ [math.log(q @ values) for _, values, q, _ in groups]
    sizes = atoms.astype(np.int64)
    blocks = np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _ROW_CHUNK, prepend=-1))
    for start, stop in zip(blocks, np.r_[blocks[1:], len(counts)]):
        rows = np.arange(start, stop)
        logs, probs = offset[rows], np.ones(len(rows))
        for i in range(order.shape[1]):
            g = order[rows, i]
            n = enumerated[rows, g]
            sub, draw, pmf = _draw_step(n, p[0, 0, g, 0], 0, n + 1)
            rows, logs, probs = rows[sub], logs[sub] + draw * delta[g[sub]], probs[sub] * pmf
        kind, n = which[rows], closed_counts[rows]
        base = logs + n * log_lo[kind]
        weights = _weights(probs, logs + n * drift[kind])
        for s in range(0, len(rows), _ROW_CHUNK):
            chunk = slice(s, s + _ROW_CHUNK)
            _add_row_tails(levels, base[chunk], n[chunk], weights[:, chunk], delta, p,
                           kind[chunk], rows[chunk], out)
        _checked_q1_mass(out[start:stop], log_totals[start:stop])
    return out


#: Atoms whose tails are evaluated at once, bounding the temporaries.
_TAIL_CHUNK = 1 << 15
#: The same for :func:`multiset_log_masses`, whose rows are also built in
#: blocks of about as many atoms; smaller, as a block holds its rows' draws
#: besides the tails.
_ROW_CHUNK = 1 << 12


def _draw_tails(levels: np.ndarray, base: np.ndarray, draws: np.ndarray,
                weights: np.ndarray, delta: float, p: np.ndarray) -> np.ndarray:
    """The masses of :func:`terminal_log_masses` over atoms of log ``base``,
    each followed by ``draws`` steps of ``delta`` taken with probability
    ``p[0, 0]`` under ``Q`` and ``p[1, 0]`` under ``Q1`` (``p[:, 1]`` the
    complements); ``weights`` holds the atoms' masses under both."""
    tails, at = _atom_tails(levels, base, draws, delta, p)
    out = np.empty((2, 3, len(levels)))
    out[:, ::2] = (weights[:, None, None] @ tails)[:, :, 0]
    out[:, 1] = (weights[:, None] @ at)[:, 0]
    return out


def _add_row_tails(levels: np.ndarray, base: np.ndarray, draws: np.ndarray,
                   weights: np.ndarray, delta: np.ndarray, p: np.ndarray,
                   kind: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """:func:`_draw_tails` with one of several closed-form draws per atom,
    its ``kind`` (``delta[kind]`` and ``p[:, :, kind]``), and the masses of
    each atom added to its row of ``out``, one atom after the other, so
    that a row cut across chunks sums as if it were not.  ``rows`` is
    nondecreasing, and every row after the first is new to ``out``."""
    tails, at = _atom_tails(levels, base, draws, delta, p, kind)
    # one bin per (row, measure, side, level), each atom's masses in atom
    # order after the first row's sums so far, which it goes on from
    width = 6 * len(levels)
    masses, bins = np.empty(width * (len(rows) + 1)), np.empty(width * (len(rows) + 1), np.intp)
    masses[:width], bins[:width] = out[rows[0]].ravel(), np.arange(width)
    each = masses[width:].reshape((2, 3) + at.shape[1:])
    np.multiply(weights[:, None, :, None], tails, out=each[:, ::2])
    np.multiply(weights[:, :, None], at, out=each[:, 1])
    change = np.r_[False, rows[1:] != rows[:-1]]
    np.add(np.cumsum(change)[:, None] * width, np.arange(width).reshape(6, 1, -1),
           out=bins[width:].reshape((6,) + at.shape[1:]))
    sums = np.bincount(bins, masses)
    change[0] = True
    out[rows[change]] = sums.reshape((-1,) + out.shape[1:])


def _atom_tails(levels: np.ndarray, base: np.ndarray, draws: np.ndarray, delta, p: np.ndarray,
                kind: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per atom of :func:`_draw_tails` the lower tails below and above each
    level, shape ``(2, 2, atoms, levels)``, and the masses at it, shape
    ``(2, atoms, levels)``: both tails are lower tails, the upper one of the
    mirrored draw, and levels clipped half a count outside ``[0, n]`` keep
    their tails and sit at no atom.  The draw is one, or each atom's
    ``kind`` of several (``delta[kind]`` and ``p[:, :, kind]``)."""
    if kind is not None:
        delta = delta[kind][:, None]
    n = draws[:, None]
    t = np.minimum(np.maximum((levels - base[:, None]) / delta, -0.5), n + 0.5)
    r = np.rint(t)
    tie = np.abs(t - r) <= TIE_TOL
    high = np.where(tie, r, np.floor(t))    # last count not above the level
    ends = np.array([high - tie, n - 1.0 - high])
    if kind is None:
        tails, low = _binom_cdf(ends, n, p), p[:, 0]  # 0 at the end -1
    else:  # each atom's p from the few draws' values, so the exact tables stay few
        tails = _binom_cdf(ends, n, p, np.arange(4).reshape(2, 2, 1, 1) * p.shape[2]
                           + kind[:, None])
        low = p[:, 0, kind]
    at = (np.where(tie, _binom_pmf(r, n, low), 0.0) if tie.any()
          else np.zeros((2,) + tie.shape))
    return tails, at


# ---------------------------------------------------------------------------
# backward induction on the recombined lattice
# ---------------------------------------------------------------------------

def backward_induction(m: LatticeMarket, step_measures: Sequence[np.ndarray],
                       terminal: Callable[[np.ndarray], np.ndarray],
                       knocked: Callable[[int, np.ndarray], np.ndarray] | None = None,
                       ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Roll node values back over the recombined lattice.

    A node at date ``t`` is keyed by its integer count vector per return
    class (``m.classes``), so node grids have one axis per class.
    Its ``X_t / X_0`` is ``exp`` of the classes' contributions summed in
    class order, as the atoms of :func:`terminal_log_atoms`.  Node values
    have the grid as their leading axes; they start as ``terminal(x_T)``
    and roll back by ``v_t = sum_i q_t[i] * v_{t+1}[child_i]``.  Where the mask
    ``knocked(t, x_t)`` is true, values are set to zero at date ``t``; the
    mask covers the grid and, optionally, the next axes of the values.

    Yields ``(t, x_t, v_t)`` for ``t = N`` down to ``0``.  Raises
    :class:`~lecam.errors.SizeLimit`, before building anything, when the
    nodes of all dates exceed the state cap (:func:`lecam.limits.max_states`).
    """
    cap = limits.max_states()
    classes = m.classes
    at = classes.index.tolist()
    sizes = [len(values) for values in classes.kinds]
    level = [0] * len(sizes)
    total = 1
    for c in at:
        level[c] += 1
        total += math.prod(math.comb(lv + k - 1, k - 1) for lv, k in zip(level, sizes))
        if total > cap:
            raise SizeLimit(f"lattice nodes exceed cap {cap}")
    logs, children = [], []
    for values, k, members in zip(classes.kinds, sizes, level):
        counts = np.zeros((1, k), dtype=np.int64)
        logs.append([_count_logs(counts, values)])
        children.append([])
        for n in range(1, members + 1):
            # every composition of n is one of n - 1 plus a unit: rank them all
            moved = (counts[None] + np.eye(k, dtype=np.int64)[:, None]).reshape(-1, k)
            child = _composition_rank(moved)
            counts = np.empty((math.comb(n + k - 1, k - 1), k), dtype=np.int64)
            counts[child] = moved
            logs[-1].append(_count_logs(counts, values))
            children[-1].append(child.reshape(k, -1))

    def ratios() -> np.ndarray:
        log_x = np.zeros(())
        for c, n in enumerate(level):
            log_x = np.add.outer(log_x, logs[c][n])
        return np.exp(log_x)

    x = ratios()
    v = terminal(x)
    for t in range(m.steps, -1, -1):
        if t < m.steps:
            c = at[t]
            level[c] -= 1
            v = sum(q * np.take(v, kid, axis=c)
                    for q, kid in zip(step_measures[t], children[c][level[c]]))
            x = ratios()
        if knocked is not None:
            mask = knocked(t, x)
            v = np.where(mask.reshape(mask.shape + (1,) * (v.ndim - mask.ndim)), 0.0, v)
        yield t, x, v


# ---------------------------------------------------------------------------
# likelihood structure
# ---------------------------------------------------------------------------

def discounted_likelihood_process(m: LatticeMarket, q) -> list[dict[tuple[int, ...], float]]:
    """Node values of ``X_t / X_0`` for every lattice node.

    Returns one dict per time ``t = 0..N`` mapping the move prefix to the
    normalized discounted price, which is simultaneously the density process
    of ``Q1`` relative to the chosen martingale measure.
    """
    as_step_measures(m, q, strict=False)
    out: list[dict[tuple[int, ...], float]] = [{(): 1.0}]
    for t in range(1, m.steps + 1):
        values = m.step_values(t - 1)
        prev = out[-1]
        level = {
            prefix + (i,): x * float(values[i])
            for prefix, x in prev.items()
            for i in range(len(values))
        }
        if len(level) > limits.max_paths():
            raise SizeLimit("node enumeration exceeds cap")
        out.append(level)
    return out


def induced_experiment(m: LatticeMarket, q) -> FiniteExperiment:
    """Path-space experiment ``{Q1, Q, P}`` with base ``Q``.

    Outcomes are move-index tuples; ``Q`` is the product of the chosen
    per-step martingale measures, ``Q1 = (X_T/X_0) . Q`` and ``P`` the
    real-world product measure.
    """
    step_measures, _ = as_step_measures(m, q, strict=True)
    paths = enumerate_paths(m)
    base = path_probabilities(m, paths, step_measures)
    ratio = path_products(m, paths)[:, -1]
    real = path_probabilities(m, paths, m.real_world_measures())
    outcomes = tuple(tuple(int(i) for i in row) for row in paths)
    return FiniteExperiment(
        outcomes,
        {"Q": base, "Q1": base * ratio, "P": real},
        base="Q",
    )


def verify_representation(m: LatticeMarket, q, atol: float = ATOL) -> bool:
    """Backward-induction check that normalized prices are a density process.

    For per-step measures ``q`` this tests, node by node, whether the
    conditional expectation of ``X_T / X_0`` under the product of the ``q``
    equals ``X_t / X_0``.  True exactly when every step satisfies the
    one-step equation, but established here by full induction rather than by
    the per-step criterion: ``X_T / X_0`` is rolled back over the recombined
    lattice (:func:`backward_induction`, within the state cap) and compared
    with ``X_t / X_0`` at every node of every date.
    """
    step_measures, _ = as_step_measures(m, q)
    for _, x, value in backward_induction(m, step_measures, lambda x: x):
        if not np.allclose(value, x, rtol=0.0, atol=atol):
            return False
    return True


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the conditional-expectation martingale criterion."""

    rows: tuple[tuple[int, tuple[int, ...], float, float], ...]
    condition_holds: bool
    is_martingale_measure: bool

    @property
    def equivalent(self) -> bool:
        return self.condition_holds == self.is_martingale_measure


def verify_mm_criterion(m: LatticeMarket, q, g,
                        atol: float = ATOL) -> CriterionReport:
    """Check the two sides of the change-of-measure criterion for ``g``.

    Side one: for every node, the conditional expectation of ``g`` under the
    complementary-experiment measure at that node equals the one under the
    base martingale measure.  Side two: the normalized measure
    ``g/E_Q(g) . Q`` makes normalized prices a martingale (checked node by
    node on the tree).  The two sides are equivalent; the report carries
    both verdicts and the per-node values of side one.
    """
    step_measures, _ = as_step_measures(m, q, strict=True)
    paths = enumerate_paths(m)
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
        block = math.prod(sizes[t:])
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
                           atol: float = ATOL) -> bool:
    """Push the path experiment through the normalized price trajectory.

    Paths with identical trajectories (restricted to ``times``) are grouped;
    the check asserts that at each requested time the density of the pushed
    ``Q1`` against the pushed ``Q`` on the coarsened field equals the price
    coordinate itself.
    """
    step_measures, _ = as_step_measures(m, q, strict=True)
    if times is None:
        times_list = list(range(m.steps + 1))
    else:
        times_list = sorted(set(int(t) for t in times))
    if not times_list:
        raise InvalidParams("times must be nonempty")
    if times_list[0] < 0 or times_list[-1] > m.steps:
        raise InvalidParams("times must lie on the grid 0..N")

    paths = enumerate_paths(m)
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
