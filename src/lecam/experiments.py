"""Finite statistical experiments: likelihood ratios, tests, Bayes machinery.

An experiment here is a family of probability vectors over one finite
outcome set with a distinguished dominating ("base") measure.  Working on
explicit atoms keeps every identity — power calculations, Neyman-Pearson
optimality, the factorization of densities over a partition — checkable to
floating-point accuracy instead of Monte Carlo accuracy.

Conventions:

* likelihood ratios use ``0/0 = 0`` on common null sets;
* randomized tests take values in ``[0, 1]`` per outcome;
* Bayes risk of a test ``phi`` for priors ``(l0, l1)`` is
  ``l0 * E_null(phi) + l1 * E_alt(1 - phi)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import AbsoluteContinuityViolation, InvalidParams, SizeLimit
from . import limits

#: Tolerance used for all exact identities on atoms.
ATOL = 1e-12

Outcome = Hashable


def _as_prob_vector(values: Sequence[float], n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise InvalidParams(f"measure {name!r} has shape {arr.shape}, expected ({n},)")
    if np.any(arr < 0.0):
        raise InvalidParams(f"measure {name!r} has negative mass")
    total = float(arr.sum())
    if abs(total - 1.0) > ATOL:
        raise InvalidParams(f"measure {name!r} sums to {total!r}, not 1 within {ATOL}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FiniteExperiment:
    """Probability vectors over a common finite outcome set.

    Parameters
    ----------
    outcomes:
        Hashable, pairwise distinct outcome labels.
    measures:
        Mapping from measure name to a probability vector aligned with
        ``outcomes``.  Each vector must be nonnegative and sum to one
        within ``1e-12``.
    base:
        Name of the dominating measure.  Every other measure must vanish
        wherever the base vanishes (checked exactly on the atoms).
    """

    outcomes: tuple
    measures: Mapping[str, np.ndarray]
    base: str

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise InvalidParams("outcome labels must be pairwise distinct")
        if not outcomes:
            raise InvalidParams("experiment needs at least one outcome")
        raw = dict(self.measures)
        if not raw:
            raise InvalidParams("experiment needs at least one measure")
        n = len(outcomes)
        measures = {str(name): _as_prob_vector(vec, n, name) for name, vec in raw.items()}
        object.__setattr__(self, "measures", MappingProxyType(measures))
        if self.base not in measures:
            raise InvalidParams(f"base measure {self.base!r} is not among {sorted(measures)}")
        dead = measures[self.base] == 0.0
        for name, vec in measures.items():
            if np.any(vec[dead] > 0.0):
                raise AbsoluteContinuityViolation(
                    f"measure {name!r} charges a null set of base {self.base!r}"
                )

    # -- conveniences ----------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.outcomes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.measures)

    def measure(self, name: str) -> np.ndarray:
        try:
            return self.measures[name]
        except KeyError:
            raise InvalidParams(f"unknown measure {name!r}") from None

    def index(self) -> dict:
        """Outcome label -> position."""
        return {w: i for i, w in enumerate(self.outcomes)}


@dataclass(frozen=True)
class Test:
    """A randomized test: outcome -> acceptance probability in ``[0, 1]``."""

    values: Mapping

    def __post_init__(self) -> None:
        vals = dict(self.values)
        for w, v in vals.items():
            v = float(v)
            if not 0.0 <= v <= 1.0:
                raise InvalidParams(f"test value {v!r} at outcome {w!r} outside [0, 1]")
            vals[w] = v
        object.__setattr__(self, "values", MappingProxyType(vals))

    @classmethod
    def from_vector(cls, exp: FiniteExperiment, vec: Sequence[float]) -> "Test":
        vec = list(vec)
        if len(vec) != exp.size:
            raise InvalidParams("test vector length does not match experiment")
        return cls(dict(zip(exp.outcomes, vec)))

    def vector(self, exp: FiniteExperiment) -> np.ndarray:
        try:
            return np.array([self.values[w] for w in exp.outcomes], dtype=float)
        except KeyError as exc:
            raise InvalidParams(f"test is undefined at outcome {exc.args[0]!r}") from None


@dataclass(frozen=True)
class Partition:
    """An ordered partition; each block is a tuple of outcome labels.

    Blocks must be nonempty and pairwise disjoint.  That they cover the
    outcome set of a given experiment is checked where the partition is
    used (``restrict`` / ``complementary``).
    """

    blocks: tuple[tuple, ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen: set = set()
        for b in blocks:
            if not b:
                raise InvalidParams("partition blocks must be nonempty")
            for w in b:
                if w in seen:
                    raise InvalidParams(f"outcome {w!r} appears in two blocks")
                seen.add(w)

    @classmethod
    def by_key(cls, outcomes: Iterable, key) -> "Partition":
        """Group ``outcomes`` by ``key``, preserving first-appearance order."""
        grouped: dict = {}
        for w in outcomes:
            grouped.setdefault(key(w), []).append(w)
        return cls(tuple(tuple(ws) for ws in grouped.values()))


@dataclass(frozen=True)
class BinaryPriors:
    """Prior weights for a binary decision problem; they must sum to one.

    The closed interval ``[0, 1]`` is allowed so that degenerate problems
    (cutoff zero, e.g. a zero-strike call) stay representable.
    """

    lambda0: float
    lambda1: float

    def __post_init__(self) -> None:
        l0, l1 = float(self.lambda0), float(self.lambda1)
        if not (0.0 <= l0 <= 1.0 and 0.0 <= l1 <= 1.0):
            raise InvalidParams("priors must lie in [0, 1]")
        if abs(l0 + l1 - 1.0) > ATOL:
            raise InvalidParams(f"priors sum to {l0 + l1!r}, not 1 within {ATOL}")
        object.__setattr__(self, "lambda0", l0)
        object.__setattr__(self, "lambda1", l1)

    @classmethod
    def from_cutoff(cls, c: float) -> "BinaryPriors":
        """Priors ``(c/(1+c), 1/(1+c))`` whose likelihood cutoff is ``c``."""
        if c < 0.0 or not math.isfinite(c):
            raise InvalidParams(f"cutoff must be finite and nonnegative, got {c!r}")
        return cls(c / (1.0 + c), 1.0 / (1.0 + c))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def likelihood_ratio(exp: FiniteExperiment, num: str, den: str) -> np.ndarray:
    """Pointwise density of ``num`` with respect to ``den``.

    ``0/0`` is defined as ``0``.  Raises
    :class:`~lecam.errors.AbsoluteContinuityViolation` if ``num`` charges an
    atom where ``den`` vanishes.
    """
    p = exp.measure(num)
    q = exp.measure(den)
    bad = (p > 0.0) & (q == 0.0)
    if np.any(bad):
        w = exp.outcomes[int(np.flatnonzero(bad)[0])]
        raise AbsoluteContinuityViolation(
            f"{num!r} charges outcome {w!r} where {den!r} vanishes"
        )
    return np.divide(p, q, out=np.zeros_like(p), where=q > 0.0)


def power(test: Test, exp: FiniteExperiment, name: str) -> float:
    """Expected value of the test under the named measure."""
    return float(test.vector(exp) @ exp.measure(name))


def neyman_pearson(exp: FiniteExperiment, null: str, alt: str, c: float,
                   gamma: float = 0.0) -> Test:
    """Likelihood-ratio test: 1 above ``c``, ``gamma`` exactly at ``c``, else 0.

    Ties are exact float equalities on the atoms of ``d(alt)/d(null)``.
    """
    if c < 0.0:
        raise InvalidParams(f"cutoff must be nonnegative, got {c!r}")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidParams(f"gamma must lie in [0, 1], got {gamma!r}")
    ratio = likelihood_ratio(exp, alt, null)
    vec = np.where(ratio > c, 1.0, np.where(ratio == c, gamma, 0.0))
    return Test.from_vector(exp, vec)


def bayes_risk(exp: FiniteExperiment, null: str, alt: str, test: Test,
               priors: BinaryPriors) -> float:
    """``l0 * E_null(test) + l1 * E_alt(1 - test)``."""
    return float(priors.lambda0 * power(test, exp, null)
                 + priors.lambda1 * (1.0 - power(test, exp, alt)))


def min_bayes_risk(exp: FiniteExperiment, null: str, alt: str,
                   priors: BinaryPriors) -> tuple[float, Test]:
    """Minimal Bayes risk and a test attaining it.

    The minimizer is the likelihood-ratio test at cutoff ``l0/l1``, built
    here by the equivalent mass comparison ``l1 * alt(w) > l0 * null(w)``
    so that atoms outside the null's support (ratio "infinite") are handled
    too.  Ties are resolved towards acceptance (``gamma = 0``), which does
    not change the risk.
    """
    p0 = exp.measure(null)
    p1 = exp.measure(alt)
    vec = np.where(priors.lambda1 * p1 > priors.lambda0 * p0, 1.0, 0.0)
    test = Test.from_vector(exp, vec)
    return bayes_risk(exp, null, alt, test, priors), test


def product(exps: Sequence[FiniteExperiment]) -> FiniteExperiment:
    """Independent product of experiments sharing measure names and base.

    Outcomes are tuples, one coordinate per factor; each named measure is
    the corresponding product measure.
    """
    if not exps:
        raise InvalidParams("product of zero experiments is undefined")
    names = exps[0].names
    base = exps[0].base
    for e in exps[1:]:
        if set(e.names) != set(names):
            raise InvalidParams("factors must share the same measure names")
        if e.base != base:
            raise InvalidParams("factors must share the same base measure")
    cap = limits.max_product_outcomes()
    total = 1
    for e in exps:
        total *= e.size
        if total > cap:
            raise SizeLimit(f"product outcome space exceeds cap {cap}")
    outcomes = tuple(itertools.product(*(e.outcomes for e in exps)))
    measures = {}
    for name in names:
        vec = np.ones(1)
        for e in exps:
            vec = np.multiply.outer(vec, e.measure(name)).ravel()
        measures[name] = vec
    return FiniteExperiment(outcomes, measures, base)


def _check_cover(exp: FiniteExperiment, part: Partition) -> None:
    member = set()
    for b in part.blocks:
        member.update(b)
    universe = set(exp.outcomes)
    if member != universe:
        missing = universe - member
        extra = member - universe
        raise InvalidParams(
            f"partition does not match outcome set (missing={missing!r}, extra={extra!r})"
        )


def restrict(exp: FiniteExperiment, part: Partition) -> FiniteExperiment:
    """Coarsen the experiment to the sigma-field generated by the partition.

    The restricted outcomes are the blocks themselves; each measure maps to
    its block masses.
    """
    _check_cover(exp, part)
    idx = exp.index()
    cols = [np.array([idx[w] for w in b], dtype=int) for b in part.blocks]
    measures = {
        name: np.array([vec[c].sum() for c in cols])
        for name, vec in exp.measures.items()
    }
    return FiniteExperiment(tuple(part.blocks), measures, exp.base)


def complementary(exp: FiniteExperiment, part: Partition) -> FiniteExperiment:
    """The experiment carrying the ratios left over after restriction.

    For each measure ``m`` the new density with respect to the base is the
    original density divided by its conditional expectation given the
    partition.  On blocks where that conditional expectation vanishes the
    quotient is taken to be one: the original density is zero there anyway
    (``0 * anything = 0`` in the factorization), and this choice keeps the
    complementary measure a probability measure.  Pointwise on the support
    of the base,

        density(m) = density_restricted(m) * density_complementary(m),

    and the two factors are uncorrelated under the base measure.
    """
    _check_cover(exp, part)
    idx = exp.index()
    base_vec = exp.measure(exp.base)
    block_of = np.empty(exp.size, dtype=int)
    for bi, b in enumerate(part.blocks):
        for w in b:
            block_of[idx[w]] = bi
    n_blocks = len(part.blocks)
    base_mass = np.bincount(block_of, weights=base_vec, minlength=n_blocks)
    measures = {}
    for name, vec in exp.measures.items():
        ratio = likelihood_ratio(exp, name, exp.base)
        block_num = np.bincount(block_of, weights=base_vec * ratio, minlength=n_blocks)
        cond = np.divide(block_num, base_mass,
                         out=np.zeros(n_blocks), where=base_mass > 0.0)
        cond_at = cond[block_of]
        density = np.divide(ratio, cond_at,
                            out=np.ones_like(ratio), where=cond_at > 0.0)
        measures[name] = base_vec * density
    return FiniteExperiment(exp.outcomes, measures, exp.base)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def experiment_from_json(doc: Mapping) -> FiniteExperiment:
    """Build an experiment from a plain dict.

    Expected shape::

        {"outcomes": [...], "measures": {"Q": [...], ...}, "base": "Q"}

    List-valued outcome labels are converted to tuples so they stay hashable.
    """
    try:
        outcomes = doc["outcomes"]
        measures = doc["measures"]
        base = doc["base"]
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"experiment spec missing field: {exc}") from exc
    labels = tuple(tuple(w) if isinstance(w, list) else w for w in outcomes)
    return FiniteExperiment(labels, dict(measures), str(base))


def experiment_to_json(exp: FiniteExperiment) -> dict:
    return {
        "outcomes": [list(w) if isinstance(w, tuple) else w for w in exp.outcomes],
        "measures": {name: [float(x) for x in vec] for name, vec in exp.measures.items()},
        "base": exp.base,
    }
