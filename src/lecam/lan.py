"""Local perturbation families and lattice-to-lognormal convergence checks.

A tangent direction over a small finite base law ``P0`` is a function ``g``
with ``E(g) = 0``, ``E(g^2) = 1`` and ``g >= -C``; the perturbed laws
``P_theta = (1 + theta*g) . P0`` stay probability measures for
``0 <= theta < 1/C``.  Scaling the perturbation like ``sigma * sqrt(T/N)``
per step and compounding returns ``(1 + sigma*sqrt(T/N)*g) / (1 + rho*T/N)``
produces lattice markets whose log prices obey a local asymptotic normality
expansion.  A schedule's steps come in few kinds, one per distinct
``(step_vol, step_rate)`` pair (``Schedule.kinds``): the discrete market
has one step kind per pair, and the diagnostics take means and variances
(and ``alpha`` and the Riemann sum) as sums of per-kind moments weighted by
step counts, exact because the steps are independent.  A ``lan-report`` row
builds its market once (:func:`discrete_market`) and passes it to both
:func:`lan_diagnostics` and :func:`third_lemma_check`.  Under ``P0``
the diagnostics also take the CDF sup-distance from the finite-``N`` atoms of
``log S_t`` on the counts that carry mass
(:func:`lecam.lattice.terminal_log_atoms` on the discrete model's market,
grouping equal steps, each binomial draw on its Hoeffding window), the one
law of ``log S_t`` built in the package.  The atoms stay unsorted: bucket
bounds on their masses show where the supremum can lie, and only the atoms
there are sorted and see ``Phi``.  The counts left out hold at most
``LAW_TAIL = 1e-20`` of the mass per draw, ``4e-20`` in all for the one- and
two-piece schedules here, and move the distance by no more.  Call prices
come from :func:`lecam.pricing.price_direct`, which builds no law of
``S_T``.  The diagnostics report the distance from the Gaussian limit:

* under the real-world products (LAN): mean/variance of ``log S`` against
  ``(-v/2, v)`` with ``v`` the integrated squared volatility, plus the CDF
  sup-distance;
* under the per-step martingale measures (the third-lemma shift): means and
  variances of the linear statistic and of ``log S`` against the integrated
  rate, ``integral(r - sigma^2/2)`` and ``v``, from moments alone;
* call prices against the closed-form limit price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ._binom import ndtr
from .blackscholes import BSModel, StepFunction, limit_price_terminal, model_from_json
from .errors import (
    InvalidParams,
    InvalidTangent,
    LemmaHypothesisViolated,
    SizeLimit,
    ThetaOutOfRange,
)
from .lattice import LatticeMarket, StepKinds, group_steps, terminal_log_atoms
from .pricing import Payoff, payoff_from_json, price_direct

ATOL = 1e-12


# ---------------------------------------------------------------------------
# tangent directions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentPath:
    """A centered, normalized direction ``g`` over a finite base law.

    ``C`` bounds ``g`` from below on the support (``g >= -C``); the largest
    admissible local parameter is then ``1/C`` (exclusive).
    """

    probs: tuple[float, ...]
    g: tuple[float, ...]
    C: float

    def __post_init__(self) -> None:
        probs = _finite_all("probs", self.probs)
        g = _finite_all("g", self.g)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "C", _finite("C", self.C))
        if len(probs) != len(g) or not probs:
            raise InvalidTangent("probs and g must be nonempty and aligned")
        if any(p < 0.0 for p in probs) or abs(sum(probs) - 1.0) > ATOL:
            raise InvalidTangent("base law must be a probability vector")
        p = np.array(probs)
        garr = np.array(g)
        mean = float(p @ garr)
        second = float(p @ garr**2)
        if abs(mean) > ATOL:
            raise InvalidTangent(f"direction is not centered (mean {mean:.3e})")
        if abs(second - 1.0) > ATOL:
            raise InvalidTangent(f"direction is not normalized (second moment {second!r})")
        if not self.C > 0.0:
            raise InvalidTangent(f"lower bound C must be positive, got {self.C!r}")
        support = p > 0.0
        if np.any(garr[support] < -self.C):
            raise InvalidTangent(f"direction drops below -C = {-self.C!r} on the support")

    @property
    def theta_max(self) -> float:
        """Supremum of admissible local parameters (exclusive)."""
        return 1.0 / self.C

    def essential_infimum(self) -> float:
        p = np.array(self.probs)
        return float(np.min(np.array(self.g)[p > 0.0]))


def _finite(name: str, value: float) -> float:
    """``value`` as a float, or :class:`~lecam.errors.InvalidTangent` naming
    it when it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise InvalidTangent(f"tangent {name} = {value!r} is not finite")
    return value


def _finite_all(name: str, values: Sequence[float]) -> tuple[float, ...]:
    return tuple(_finite(f"{name}[{i}]", v) for i, v in enumerate(values))


def make_tangent(probs: Sequence[float], g: Sequence[float],
                 C: float | None = None) -> TangentPath:
    """Validate a direction; ``C`` defaults to the essential infimum bound."""
    if C is None:
        p = np.array(_finite_all("probs", probs))
        garr = np.array(_finite_all("g", g))
        if p.shape != garr.shape or p.size == 0:
            raise InvalidTangent("probs and g must be nonempty and aligned")
        support = p > 0.0
        low = float(np.min(garr[support])) if support.any() else 0.0
        if low >= 0.0:
            raise InvalidTangent("a centered direction must take negative values")
        C = -low
    return TangentPath(tuple(probs), tuple(g), C)


def crr_tangent(a: float, b: float) -> TangentPath:
    """Two-point direction: up with probability ``b/(a+b)`` and value
    ``sqrt(a/b)``, down with value ``-sqrt(b/a)``."""
    a, b = _finite("a", a), _finite("b", b)
    if not (a > 0.0 and b > 0.0):
        raise InvalidTangent(f"need a, b > 0, got a={a!r}, b={b!r}")
    root = math.sqrt(a * b)
    return make_tangent((b / (a + b), a / (a + b)), (a / root, -b / root))


def symmetric_trinomial_tangent(probs: Sequence[float]) -> TangentPath:
    """Three-point direction with ``g = (x, y, -x)`` solved from the moment
    equations for the given base probabilities."""
    probs = tuple(float(p) for p in probs)
    if len(probs) != 3 or any(p <= 0.0 for p in probs):
        raise InvalidTangent("need three strictly positive probabilities")
    a, b, c = probs
    x = 1.0 / math.sqrt(a + c + (c - a) ** 2 / b)
    y = x * (c - a) / b
    return make_tangent(probs, (x, y, -x))


def path_measure(path: TangentPath, theta: float) -> np.ndarray:
    """The perturbed law ``(1 + theta*g) . P0`` for ``0 <= theta < 1/C``."""
    if not 0.0 <= theta < path.theta_max:
        raise ThetaOutOfRange(
            f"theta={theta!r} outside [0, {path.theta_max!r}) for C={path.C!r}"
        )
    p = np.array(path.probs)
    out = p * (1.0 + theta * np.array(path.g))
    return out


def one_period_mm(path: TangentPath, sigma: float, rho: float) -> np.ndarray:
    """The unique one-period martingale measure ``P_{rho/sigma}``.

    For returns ``(1 + sigma*g) / (1 + rho)`` the measure ``P_theta`` with
    ``theta = rho/sigma`` reprices the asset exactly; this requires
    ``essinf g > -sigma/rho`` and ``rho/sigma < 1/C``.  The identity
    ``E_theta[(1 + sigma*g)/(1 + rho)] = 1`` is re-verified to 1e-12.
    """
    if not sigma > 0.0:
        raise InvalidParams(f"sigma must be positive, got {sigma!r}")
    if rho < 0.0:
        raise InvalidParams(f"rho must be nonnegative, got {rho!r}")
    if rho > 0.0 and path.essential_infimum() <= -sigma / rho:
        raise LemmaHypothesisViolated(
            f"essinf g = {path.essential_infimum()!r} <= -sigma/rho = {-sigma / rho!r}"
        )
    theta = rho / sigma
    if theta >= path.theta_max:
        raise ThetaOutOfRange(
            f"theta = rho/sigma = {theta!r} >= 1/C = {path.theta_max!r}"
        )
    q = path_measure(path, theta)
    g = np.array(path.g)
    lhs = float(q @ ((1.0 + sigma * g) / (1.0 + rho)))
    if abs(lhs - 1.0) > ATOL:
        raise RuntimeError(f"one-period martingale identity failed: {lhs!r}")
    return q


# ---------------------------------------------------------------------------
# discretization schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Per-step volatilities and rates for an ``N``-step grid on ``[0, T]``.

    ``sigmas[j]`` is the un-scaled volatility of step ``j`` (the per-step
    perturbation is ``sigmas[j] * sqrt(T/N)``); ``rhos[j]`` the un-scaled
    simple rate (per-step rate ``rhos[j] * T/N``).  The limit functions are
    kept alongside so diagnostics can compute their integrals.  Validation
    converts ``sigmas`` and ``rhos`` once, keeps them as tuples of floats and
    computes the per-step volatilities and rates as read-only arrays
    (``step_vols``, ``step_rates``) and the step kinds (``kinds``): each
    step's ``(step_vol, step_rate)`` pair, stored once per distinct pair.
    The discrete market has one step kind per pair, and the diagnostics'
    sums run over the kinds, each weighted by its number of steps.
    """

    N: int
    horizon: float
    sigmas: tuple[float, ...]
    rhos: tuple[float, ...]
    limit_sigma: StepFunction
    limit_rate: StepFunction
    step_vols: np.ndarray = field(init=False, repr=False, compare=False)
    step_rates: np.ndarray = field(init=False, repr=False, compare=False)
    kinds: StepKinds = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.N < 1:
            raise InvalidParams(f"N must be >= 1, got {self.N}")
        if not self.horizon > 0.0:
            raise InvalidParams(f"horizon must be positive, got {self.horizon!r}")
        sigmas = np.array(self.sigmas, dtype=float)
        rhos = np.array(self.rhos, dtype=float)
        if sigmas.shape != (self.N,) or rhos.shape != (self.N,):
            raise InvalidParams("need one sigma and one rho per step")
        if not np.all((0.0 < sigmas) & (sigmas < math.inf)):
            raise InvalidParams("volatilities must be strictly positive and finite")
        if not np.all((0.0 <= rhos) & (rhos < math.inf)):
            raise InvalidParams("rates must be nonnegative and finite")
        if abs(self.limit_sigma.horizon - self.horizon) > 1e-12:
            raise InvalidParams("limit sigma horizon does not match the grid")
        if abs(self.limit_rate.horizon - self.horizon) > 1e-12:
            raise InvalidParams("limit rate horizon does not match the grid")
        vols, rates = sigmas * math.sqrt(self.dt), rhos * self.dt
        vols.flags.writeable = rates.flags.writeable = False
        # runs of equal pairs start where either array changes; equal runs merge
        starts = np.flatnonzero(np.concatenate(
            ([True], (vols[1:] != vols[:-1]) | (rates[1:] != rates[:-1]))))
        pairs: dict = {}
        runs = [pairs.setdefault(pair, len(pairs))
                for pair in zip(vols[starts].tolist(), rates[starts].tolist())]
        kinds = StepKinds(tuple(pairs), np.repeat(np.array(runs, dtype=np.intp),
                                                  np.diff(starts, append=self.N)))
        self.__dict__.update(sigmas=tuple(sigmas.tolist()), rhos=tuple(rhos.tolist()),
                             step_vols=vols, step_rates=rates, kinds=kinds)

    @property
    def dt(self) -> float:
        return self.horizon / self.N

    def step_vol(self, j: int) -> float:
        """Per-step volatility ``sigma_j * sqrt(T/N)``."""
        return float(self.step_vols[j])

    def step_rate(self, j: int) -> float:
        """Per-step simple rate ``rho_j * T/N``."""
        return float(self.step_rates[j])

    def sigma_l2_gap(self) -> float:
        """``integral (sigma_N - sigma)^2`` over ``[0, T]`` (step vs limit)."""
        edges = sorted(
            {0.0, self.horizon}
            | {j * self.dt for j in range(1, self.N)}
            | set(self.limit_sigma.ends)
        )
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            mid = 0.5 * (a + b)
            j = min(int(mid / self.dt), self.N - 1)
            diff = self.sigmas[j] - self.limit_sigma.value_at(mid)
            total += diff * diff * (b - a)
        return total

    @classmethod
    def from_limits(cls, limit_sigma: StepFunction, limit_rate: StepFunction,
                    N: int) -> "Schedule":
        """Sample the limit functions at step midpoints.

        Rates are mapped through ``rho = (N/T) * (exp(r*T/N) - 1)`` so the
        bond product matches the continuously compounded bank account at
        every ``N`` exactly (for grid-aligned rate pieces).
        """
        horizon = limit_sigma.horizon
        if abs(limit_rate.horizon - horizon) > 1e-12:
            raise InvalidParams("sigma and rate schedules disagree on the horizon")
        dt = horizon / N
        mids = (np.arange(N) + 0.5) * dt
        sigma_at, rate_at = (np.minimum(np.searchsorted(f.ends, mids), len(f.ends) - 1)
                             for f in (limit_sigma, limit_rate))
        rhos = np.array([(math.exp(r * dt) - 1.0) / dt for r in limit_rate.values])
        # arrays here, converted to tuples once by validation
        return cls(N=N, horizon=horizon, rhos=rhos[rate_at],
                   sigmas=np.array(limit_sigma.values)[sigma_at],
                   limit_sigma=limit_sigma, limit_rate=limit_rate)


@dataclass(frozen=True)
class DiscreteModel:
    """A lattice market built from a tangent direction and a schedule,
    together with its designated per-step martingale measures."""

    market: LatticeMarket
    measures: StepKinds
    thetas: StepKinds


def discrete_market(path: TangentPath, schedule: Schedule, s0: float = 1.0) -> LatticeMarket:
    """The market of :func:`build_discrete_model` without its measures, one
    step kind per step kind of ``schedule``: a ``lan-report`` row builds it
    once and passes it to :func:`lan_diagnostics` and
    :func:`third_lemma_check`.

    Raises :class:`~lecam.errors.ThetaOutOfRange` when ``N`` is too small for
    the given volatility (a return value would hit zero).
    """
    g = np.array(path.g)

    def step_returns(vol_rate: tuple[float, float]) -> tuple:
        vol, rate = vol_rate
        if vol * path.C >= 1.0:
            raise ThetaOutOfRange(
                f"step volatility {vol!r} >= 1/C = {path.theta_max!r}; increase N"
            )
        values = (1.0 + vol * g) / (1.0 + rate)
        return tuple(zip(values.tolist(), path.probs))

    kinds = schedule.kinds
    return LatticeMarket(steps=schedule.N, horizon=schedule.horizon, s0=s0,
                         returns=group_steps(kinds, step_returns),
                         bond_rates=group_steps(kinds, lambda vol_rate: vol_rate[1]))


def build_discrete_model(path: TangentPath, schedule: Schedule,
                         s0: float = 1.0) -> DiscreteModel:
    """Market with step returns ``(1 + sigma_j*sqrt(T/N)*g) / (1 + rho_j*T/N)``
    (:func:`discrete_market`) and its designated measures.

    Raises :class:`~lecam.errors.ThetaOutOfRange` when ``N`` is too small for
    the given volatility (a return value would hit zero).
    """
    market = discrete_market(path, schedule, s0)
    measures = group_steps(schedule.kinds,
                           lambda vol_rate: tuple(one_period_mm(path, *vol_rate).tolist()))
    thetas = group_steps(schedule.kinds, lambda vol_rate: vol_rate[1] / vol_rate[0])
    return DiscreteModel(market=market, measures=measures, thetas=thetas)


# ---------------------------------------------------------------------------
# finite-N laws and moments
# ---------------------------------------------------------------------------

def _grid_steps(schedule: Schedule, t: float | None) -> int:
    if t is None:
        return schedule.N
    steps = t / schedule.dt
    n = round(steps) if math.isfinite(steps) else 0  # NaN and inf are no grid point
    if abs(steps - n) > 1e-9 or not 0 < n <= schedule.N:
        raise InvalidParams(f"time {t!r} is not a positive grid point")
    return int(n)


def _kinds(schedule: Schedule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step volatility ``sigma sqrt(T/N)`` and step rate of each step
    kind of ``schedule``, and its number of steps among the first ``n``."""
    vols, rates = np.array(schedule.kinds.kinds).T
    return vols, rates, np.bincount(schedule.kinds.index[:n], minlength=len(vols))


def _designated(path: TangentPath, schedule: Schedule) -> np.ndarray:
    """The designated one-period measure of each step kind of ``schedule``,
    one row per kind."""
    return np.array([one_period_mm(path, *vol_rate) for vol_rate in schedule.kinds.kinds])


def _moment_sums(probs: np.ndarray, contrib: np.ndarray,
                 counts: np.ndarray) -> tuple[float, float]:
    """Mean and variance of ``sum_j contrib[k_j, x_j]`` with independent
    steps ``x_j ~ probs[k_j]``, ``counts[k]`` steps of kind ``k``: exact as
    per-kind moments weighted by the counts (``probs`` one row per kind, or
    one vector for all)."""
    means = (probs * contrib).sum(axis=1)
    var = (probs * (contrib - means[:, None]) ** 2).sum(axis=1)
    return float(counts @ means), float(counts @ var)


#: Half-width in standard deviations of the window that the sup-distance
#: splits into buckets; ``Phi`` is within 1e-17 of 0 or 1 beyond it.
_TAIL_Z = 8.5
#: Atoms per bucket of that window.
_BUCKET_ATOMS = 16
#: Laws of at most this many atoms are sorted whole: bucketing them costs
#: more than it saves.
_SORT_ATOMS = 4096
#: Added to every bucket's upper bound: it covers the rounding of the bucket
#: index and of the edges (below 1e-14 in ``z``, so 4e-15 in ``Phi``) and of
#: ``Phi`` itself (2e-16 per value).
_BOUND_SLACK = 1e-13


def _cdf_sup_distance(values: np.ndarray, probs: np.ndarray,
                      mean: float, var: float) -> float:
    """Kolmogorov distance ``sup_y |F(y) - Phi((y - mean)/sd)|`` for the
    atoms ``(values, probs)``, unsorted and possibly repeated, within 1e-15
    of the same supremum over the sorted law with a long-double cumulative
    sum.

    ``F`` is a step function and ``Phi`` increasing, so the sup is attained
    at an atom: by the right limit ``F(v)`` above ``Phi(v)``, or by the left
    limit ``F(v-)`` below it.  The window ``mean +- _TAIL_Z sd`` is split
    into equal buckets, about ``_BUCKET_ATOMS`` atoms each, and the atoms
    beyond it fall into two end buckets reaching to ``Phi = 0`` and ``1``.
    One cast to integers finds each atom's bucket and one ``bincount`` the
    bucket masses, so ``F`` is known at every edge.  Over a bucket from
    ``F_start`` to ``F_end`` the gap is at most ``F_end - Phi(left edge)``
    and ``Phi(right edge) - F_start``, and at least ``F_end - Phi(right
    edge)`` and ``Phi(left edge) - F_start``: only the atoms of buckets
    whose upper bound reaches the largest lower bound are sorted and see
    ``Phi``.  Equal
    atoms need no merge: the right limit is read at the last of them and the
    left limit at the first.  Laws of at most ``_SORT_ATOMS`` atoms are
    sorted whole.  Cumulative sums are long doubles.
    """
    sd = math.sqrt(var)
    if len(values) <= _SORT_ATOMS:
        order = np.argsort(values)
        probs = probs[order]
        return _sup_at_atoms((values[order] - mean) / sd, probs,
                             np.cumsum(probs, dtype=np.longdouble))
    buckets = len(values) // _BUCKET_ATOMS
    scale = buckets / (2.0 * _TAIL_Z)
    at = values - mean
    at *= scale / sd
    at += _TAIL_Z * scale + 1.0           # bucket 0 below the window, buckets + 1 above
    np.clip(at, 0.0, buckets + 1.0, out=at)
    at = at.astype(np.intp)
    mass = np.bincount(at, weights=probs, minlength=buckets + 2)
    end = np.cumsum(mass, dtype=np.longdouble).astype(float)
    start = np.r_[0.0, end[:-1]]
    edges = np.r_[0.0, ndtr(np.linspace(-_TAIL_Z, _TAIL_Z, buckets + 1)), 1.0]
    left, right = edges[:-1], edges[1:]
    lower = np.maximum(end - right, left - start).max()
    upper = np.maximum(end - left, right - start) + _BOUND_SLACK
    pick = np.flatnonzero((upper >= lower)[at])
    pick = pick[np.argsort(values[pick])]
    at, probs = at[pick], probs[pick]
    cum = np.cumsum(probs, dtype=np.longdouble)
    first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
    cum += np.repeat(start[at[first]] - (cum[first] - probs[first]),
                     np.diff(first, append=len(at)))
    return _sup_at_atoms((values[pick] - mean) / sd, probs, cum)


def _sup_at_atoms(z: np.ndarray, probs: np.ndarray, cum: np.ndarray) -> float:
    """``max |F - Phi|`` over sorted atoms at ``z`` with ``F = cum`` at each
    atom: ``cum - Phi`` (the right limit) and ``Phi - (cum - probs)`` (the
    left limit)."""
    phi = ndtr(z)
    cum = cum.astype(float)
    return float(max((cum - phi).max(), (phi - (cum - probs)).max()))


@dataclass(frozen=True)
class LanReport:
    """Law of ``log S`` under the real-world products vs its limit;
    ``states`` counts the atoms of its windowed law as they are built
    (:func:`lecam.lattice.terminal_log_atoms`, equal values not merged), the
    count the state cap checks, from which ``cdf_sup_distance`` is taken."""

    N: int
    t: float
    noether_max: float       # max_j sigma_j * sqrt(T/N)
    riemann_gap: float       # |T/N * sum sigma_j^2 - integral sigma^2|
    mean: float
    var: float
    mean_gap: float          # vs -(1/2) integral sigma^2
    var_gap: float           # vs integral sigma^2
    cdf_sup_distance: float
    states: int


def lan_diagnostics(path: TangentPath, schedule: Schedule, t: float | None = None,
                    market: LatticeMarket | None = None) -> LanReport:
    """Compare the law of ``log S_t`` under ``P0``-products with the
    Gaussian local expansion.

    ``market`` is the schedule's :func:`discrete_market` (any ``s0``), built
    here when not given.  Needs no martingale measure.  Raises
    :class:`~lecam.errors.ThetaOutOfRange` on a grid too coarse for the
    volatility, as :func:`build_discrete_model` does.
    """
    n = _grid_steps(schedule, t)
    t_val = n * schedule.dt
    if market is None:
        market = discrete_market(path, schedule)
    head = market.head(n)
    try:
        values, probs = terminal_log_atoms(head, path.probs)
    except SizeLimit as exc:
        raise SizeLimit(f"{exc}: the CDF sup-distance needs the law of log S_t") from exc
    v_limit = schedule.limit_sigma.integral_sq(t_val)
    vols, _, counts = _kinds(schedule, n)
    mean, var = _moment_sums(np.array(path.probs), np.log(1.0 + vols[:, None] * path.g), counts)
    return LanReport(
        N=schedule.N,
        t=t_val,
        noether_max=float(vols[counts > 0].max()),
        riemann_gap=abs(float(counts @ vols ** 2) - v_limit),
        mean=mean,
        var=var,
        mean_gap=abs(mean + 0.5 * v_limit),
        var_gap=abs(var - v_limit),
        # the atoms are log(X_n / X_0) = log(S_n / S_0) - log B_n: shift the mean instead
        cdf_sup_distance=_cdf_sup_distance(values, probs,
                                           -0.5 * v_limit - math.log(head.bond_factor(n)),
                                           v_limit),
        states=len(values),
    )


@dataclass(frozen=True)
class ThirdLemmaReport:
    """Moments under the designated martingale measures vs their limits.

    ``z`` is the linear statistic ``sum sigma_j sqrt(T/N) g(x_j)``; its limit
    mean is the integrated rate.  ``log S`` has limit mean
    ``integral (r - sigma^2/2)``; both share the limit variance
    ``integral sigma^2``.  ``alpha`` is the accumulated squared local
    parameter ``sum theta_j^2``, with ``theta_j = rho_j sqrt(T/N) / sigma_j``
    the parameter of step ``j``'s designated measure (reported, no limit
    asserted).  All are sums of per-step moments: no law is built.
    """

    N: int
    t: float
    z_mean: float
    z_mean_gap: float
    z_var: float
    z_var_gap: float
    logs_mean: float
    logs_mean_gap: float
    logs_var: float
    logs_var_gap: float
    alpha: float


def third_lemma_check(path: TangentPath, schedule: Schedule, t: float | None = None,
                      market: LatticeMarket | None = None) -> ThirdLemmaReport:
    """Measure-changed moments against the shifted Gaussian limit.

    The measures are those of :func:`build_discrete_model`, so every step of
    the grid, not only those up to ``t``, must admit one, and its market
    must be valid: ``market`` is the schedule's :func:`discrete_market`,
    built here when not given.
    """
    n = _grid_steps(schedule, t)
    t_val = n * schedule.dt
    if market is None:
        discrete_market(path, schedule)
    measures = _designated(path, schedule)
    r_limit = schedule.limit_rate.integral(t_val)
    v_limit = schedule.limit_sigma.integral_sq(t_val)
    vols, rates, counts = _kinds(schedule, n)
    moves = vols[:, None] * path.g
    z_mean, z_var = _moment_sums(measures, moves, counts)
    s_mean, s_var = _moment_sums(measures, np.log(1.0 + moves), counts)
    return ThirdLemmaReport(
        N=schedule.N,
        t=t_val,
        z_mean=z_mean,
        z_mean_gap=abs(z_mean - r_limit),
        z_var=z_var,
        z_var_gap=abs(z_var - v_limit),
        logs_mean=s_mean,
        logs_mean_gap=abs(s_mean - (r_limit - 0.5 * v_limit)),
        logs_var=s_var,
        logs_var_gap=abs(s_var - v_limit),
        alpha=float(counts @ (rates / vols) ** 2),
    )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    p_n: float
    p_limit: float
    abs_gap: float
    noether_max: float
    var_gap: float


def schedule_family(bs: BSModel) -> Callable[[int], Schedule]:
    """Schedules sampling the model's volatility and rate at every ``N``."""
    def family(N: int) -> Schedule:
        return Schedule.from_limits(bs.sigma, bs.rate, N)
    return family


def convergence_study(path: TangentPath, family: Callable[[int], Schedule],
                      payoff: Payoff, bs: BSModel,
                      Ns: Sequence[int]) -> list[ConvergenceRow]:
    """Exact lattice prices along ``Ns`` against the closed-form limit.

    Each row carries the price gap plus the step-size statistic and the
    variance gap of ``log S`` under the designated martingale measures, the
    two quantities that control the Gaussian limit.
    """
    if not Ns:
        raise InvalidParams("need at least one lattice size")
    p_limit = limit_price_terminal(bs, payoff)
    rows = []
    for N in Ns:
        schedule = family(int(N))
        market = discrete_market(path, schedule, bs.s0)
        measures = _designated(path, schedule)
        p_n = price_direct(market, group_steps(StepKinds(tuple(measures), schedule.kinds.index)),
                           payoff)
        vols, _, counts = _kinds(schedule, schedule.N)
        _, var = _moment_sums(measures, np.log(1.0 + vols[:, None] * path.g), counts)
        rows.append(ConvergenceRow(
            N=int(N),
            p_n=p_n,
            p_limit=p_limit,
            abs_gap=abs(p_n - p_limit),
            noether_max=float(schedule.step_vols.max()),
            var_gap=abs(var - schedule.limit_sigma.integral_sq(schedule.N * schedule.dt)),
        ))
    return rows


@dataclass(frozen=True)
class StudySpec:
    """A convergence study: tangent direction, limit model, payoff, sizes."""

    path: TangentPath
    bs: BSModel
    payoff: Payoff
    Ns: tuple[int, ...]
    threshold: float | None = None

    def family(self) -> Callable[[int], Schedule]:
        return schedule_family(self.bs)


def tangent_from_json(doc: Mapping) -> TangentPath:
    kind = doc.get("type", "custom")
    if kind == "crr":
        return crr_tangent(float(doc["a"]), float(doc["b"]))
    if kind == "symmetric_trinomial":
        return symmetric_trinomial_tangent([float(p) for p in doc["probs"]])
    if kind == "custom":
        c = doc.get("C")
        return make_tangent(
            [float(p) for p in doc["probs"]],
            [float(x) for x in doc["g"]],
            None if c is None else float(c),
        )
    raise InvalidParams(f"unknown tangent type {kind!r}")


def study_from_json(doc: Mapping) -> StudySpec:
    """Build a study from a plain dict.

    Expected shape::

        {"tangent": {"type": "crr", "a": 1.0, "b": 1.0},
         "bs": {"s0": 100.0, "T": 1.0, "sigma": {"const": 0.2},
                "rate": {"const": 0.0}},
         "payoff": {"type": "call", "K": 100.0},
         "Ns": [16, 64, 256],
         "threshold": 0.02}
    """
    try:
        path = tangent_from_json(doc["tangent"])
        bs = model_from_json(doc["bs"])
        payoff = payoff_from_json(doc["payoff"])
        Ns = tuple(int(n) for n in doc["Ns"])
        threshold = doc.get("threshold")
        threshold = None if threshold is None else float(threshold)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidParams(f"study spec malformed: {exc}") from exc
    if not Ns:
        raise InvalidParams("need at least one lattice size")
    return StudySpec(path=path, bs=bs, payoff=payoff, Ns=Ns, threshold=threshold)
