"""Local perturbation families and lattice-to-lognormal convergence checks.

A tangent direction over a small finite base law ``P0`` is a function ``g``
with ``E(g) = 0``, ``E(g^2) = 1`` and ``g >= -C``; the perturbed laws
``P_theta = (1 + theta*g) . P0`` stay probability measures for
``0 <= theta < 1/C``.  Scaling the perturbation like ``sigma * sqrt(T/N)``
per step and compounding returns ``(1 + sigma*sqrt(T/N)*g) / (1 + rho*T/N)``
produces lattice markets whose log prices obey a local asymptotic normality
expansion.  The diagnostics here take the *exact* finite-``N`` law of
``log S_t`` from :func:`lecam.lattice.terminal_log_law` on the discrete
model's market (grouping equal steps, so state counts grow polynomially),
and means and variances as sums of per-step moments, exact because the steps
are independent.  They report the distance from the Gaussian limit:

* under the real-world products: mean/variance against ``(-v/2, v)`` with
  ``v`` the integrated squared volatility, plus a CDF sup-distance;
* under the per-step martingale measures: means of the linear statistic and
  of ``log S`` against the integrated rate and ``integral(r - sigma^2/2)``
  — the measure-change counterpart of the limit law;
* call prices against the closed-form limit price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from . import limits
from .blackscholes import BSModel, StepFunction, limit_price_terminal, model_from_json
from .errors import (
    InvalidParams,
    InvalidTangent,
    LemmaHypothesisViolated,
    ThetaOutOfRange,
)
from .lattice import LatticeMarket, terminal_log_law
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
        probs = tuple(float(p) for p in self.probs)
        g = tuple(float(x) for x in self.g)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "C", float(self.C))
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


def make_tangent(probs: Sequence[float], g: Sequence[float],
                 C: float | None = None) -> TangentPath:
    """Validate a direction; ``C`` defaults to the essential infimum bound."""
    if C is None:
        p = np.array([float(x) for x in probs])
        garr = np.array([float(x) for x in g])
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
    kept alongside so diagnostics can compute their integrals.  Optional
    bounds are validated when given.
    """

    N: int
    horizon: float
    sigmas: tuple[float, ...]
    rhos: tuple[float, ...]
    limit_sigma: StepFunction
    limit_rate: StepFunction
    sigma_low: float | None = None
    sigma_high: float | None = None
    rate_high: float | None = None

    def __post_init__(self) -> None:
        if self.N < 1:
            raise InvalidParams(f"N must be >= 1, got {self.N}")
        if not self.horizon > 0.0:
            raise InvalidParams(f"horizon must be positive, got {self.horizon!r}")
        sigmas = tuple(float(s) for s in self.sigmas)
        rhos = tuple(float(r) for r in self.rhos)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "rhos", rhos)
        if len(sigmas) != self.N or len(rhos) != self.N:
            raise InvalidParams("need one sigma and one rho per step")
        if any(s <= 0.0 for s in sigmas):
            raise InvalidParams("volatilities must be strictly positive")
        if any(r < 0.0 for r in rhos):
            raise InvalidParams("rates must be nonnegative")
        if self.sigma_low is not None and any(s < self.sigma_low for s in sigmas):
            raise InvalidParams(f"some sigma drops below the bound {self.sigma_low!r}")
        if self.sigma_high is not None and any(s > self.sigma_high for s in sigmas):
            raise InvalidParams(f"some sigma exceeds the bound {self.sigma_high!r}")
        if self.rate_high is not None and any(r > self.rate_high for r in rhos):
            raise InvalidParams(f"some rho exceeds the bound {self.rate_high!r}")
        if abs(self.limit_sigma.horizon - self.horizon) > 1e-12:
            raise InvalidParams("limit sigma horizon does not match the grid")
        if abs(self.limit_rate.horizon - self.horizon) > 1e-12:
            raise InvalidParams("limit rate horizon does not match the grid")

    @property
    def dt(self) -> float:
        return self.horizon / self.N

    def step_vol(self, j: int) -> float:
        """Per-step volatility ``sigma_j * sqrt(T/N)``."""
        return self.sigmas[j] * math.sqrt(self.dt)

    def step_rate(self, j: int) -> float:
        """Per-step simple rate ``rho_j * T/N``."""
        return self.rhos[j] * self.dt

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
                    N: int, **bounds) -> "Schedule":
        """Sample the limit functions at step midpoints.

        Rates are mapped through ``rho = (N/T) * (exp(r*T/N) - 1)`` so the
        bond product matches the continuously compounded bank account at
        every ``N`` exactly (for grid-aligned rate pieces).
        """
        horizon = limit_sigma.horizon
        if abs(limit_rate.horizon - horizon) > 1e-12:
            raise InvalidParams("sigma and rate schedules disagree on the horizon")
        dt = horizon / N
        sigmas = []
        rhos = []
        for j in range(N):
            mid = (j + 0.5) * dt
            sigmas.append(limit_sigma.value_at(mid))
            r = limit_rate.value_at(mid)
            rhos.append((math.exp(r * dt) - 1.0) / dt)
        return cls(N=N, horizon=horizon, sigmas=tuple(sigmas), rhos=tuple(rhos),
                   limit_sigma=limit_sigma, limit_rate=limit_rate, **bounds)


@dataclass(frozen=True)
class DiscreteModel:
    """A lattice market built from a tangent direction and a schedule,
    together with its designated per-step martingale measures."""

    market: LatticeMarket
    measures: tuple[tuple[float, ...], ...]
    thetas: tuple[float, ...]


def _per_step(schedule: Schedule, solve: Callable[[float, float], object]) -> tuple:
    """``solve(step_vol, step_rate)`` for every step, evaluated once per
    distinct ``(sigma, rho)``."""
    solved: dict[tuple[float, float], object] = {}
    out = []
    for j, key in enumerate(zip(schedule.sigmas, schedule.rhos)):
        if key not in solved:
            solved[key] = solve(schedule.step_vol(j), schedule.step_rate(j))
        out.append(solved[key])
    return tuple(out)


def _discrete_market(path: TangentPath, schedule: Schedule, s0: float) -> LatticeMarket:
    """The market of :func:`build_discrete_model`, without its measures."""
    g = np.array(path.g)

    def step_returns(vol: float, rate: float) -> tuple:
        if vol * path.C >= 1.0:
            raise ThetaOutOfRange(
                f"step volatility {vol!r} >= 1/C = {path.theta_max!r}; increase N"
            )
        values = (1.0 + vol * g) / (1.0 + rate)
        return tuple(zip(values.tolist(), path.probs))

    return LatticeMarket(
        steps=schedule.N,
        horizon=schedule.horizon,
        s0=s0,
        returns=_per_step(schedule, step_returns),
        bond_rates=tuple(schedule.step_rate(j) for j in range(schedule.N)),
    )


def build_discrete_model(path: TangentPath, schedule: Schedule,
                         s0: float = 1.0) -> DiscreteModel:
    """Market with step returns ``(1 + sigma_j*sqrt(T/N)*g) / (1 + rho_j*T/N)``.

    Raises :class:`~lecam.errors.ThetaOutOfRange` when ``N`` is too small for
    the given volatility (a return value would hit zero).
    """
    market = _discrete_market(path, schedule, s0)
    measures = _per_step(
        schedule, lambda vol, rate: tuple(one_period_mm(path, vol, rate).tolist())
    )
    thetas = tuple(schedule.step_rate(j) / schedule.step_vol(j) for j in range(schedule.N))
    return DiscreteModel(market=market, measures=measures, thetas=thetas)


# ---------------------------------------------------------------------------
# exact finite-N laws and moments
# ---------------------------------------------------------------------------

def _grid_steps(schedule: Schedule, t: float | None) -> int:
    if t is None:
        return schedule.N
    steps = t / schedule.dt
    n = round(steps)
    if abs(steps - n) > 1e-9 or not 0 < n <= schedule.N:
        raise InvalidParams(f"time {t!r} is not a positive grid point")
    return int(n)


def _log_price_law(market: LatticeMarket, measures: Sequence[Sequence[float]], n: int,
                   max_states: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of ``log(S_n / S_0)`` over the market's first ``n`` steps:
    the grouped law of ``log(X_n / X_0)`` shifted by ``log B_n``."""
    head = replace(market, steps=n, horizon=n * market.horizon / market.steps,
                   returns=market.returns[:n], bond_rates=market.bond_rates[:n])
    values, probs = terminal_log_law(head, [np.array(q) for q in measures[:n]], max_states)
    return values + math.log(head.bond_factor(n)), probs


def _step_moves(path: TangentPath, schedule: Schedule, n: int) -> np.ndarray:
    """Per-step perturbations ``sigma_j sqrt(T/N) g``, shape ``(n, k)``."""
    vols = np.array([schedule.step_vol(j) for j in range(n)])
    return vols[:, None] * np.array(path.g)


def _moment_sums(probs: np.ndarray, contrib: np.ndarray) -> tuple[float, float]:
    """Mean and variance of ``sum_j contrib[j, x_j]`` with independent steps
    ``x_j ~ probs[j]``: exact as sums of per-step moments."""
    means = (probs * contrib).sum(axis=1)
    var = (probs * (contrib - means[:, None]) ** 2).sum()
    return float(means.sum()), float(var)


#: Beyond this many standard deviations ``Phi`` is 0 or 1 to within 1e-17.
_TAIL_Z = 8.5


def _cdf_sup_distance(values: np.ndarray, probs: np.ndarray,
                      mean: float, var: float) -> float:
    """Kolmogorov distance ``sup_y |F(y) - Phi((y - mean)/sd)|``, exact to
    within 1e-17.

    ``values`` must be sorted increasingly, as the grouped laws return them.
    ``F`` is a step function and ``Phi`` increasing, so the sup is attained
    at an atom: by the right limit ``F(v)`` above ``Phi(v)``, or by the left
    limit ``F(v-) = F(v) - P(v)`` below it.  Atoms more than ``_TAIL_Z``
    standard deviations out see ``Phi`` as 0 or 1, so there the sup is ``F``
    just below the window or ``1 - F`` at its top, and ``Phi`` is only
    evaluated inside the window.
    """
    sd = math.sqrt(var)
    lo, hi = np.searchsorted(values, (mean - _TAIL_Z * sd, mean + _TAIL_Z * sd))
    cum = np.cumsum(probs)
    gap = cum[lo:hi] - ndtr((values[lo:hi] - mean) / sd)
    below = cum[lo - 1] if lo > 0 else 0.0
    above = 1.0 - cum[hi - 1] if hi > 0 else 1.0
    return float(max(below, above, gap.max(initial=0.0),
                     (probs[lo:hi] - gap).max(initial=0.0)))


@dataclass(frozen=True)
class LanReport:
    """Exact law of ``log S`` under the real-world products vs its limit."""

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


def lan_diagnostics(path: TangentPath, schedule: Schedule,
                    t: float | None = None,
                    max_states: int | None = None) -> LanReport:
    """Compare the exact law of ``log S_t`` under ``P0``-products with the
    Gaussian local expansion.

    Needs no martingale measure.  Raises
    :class:`~lecam.errors.ThetaOutOfRange` on a grid too coarse for the
    volatility, as :func:`build_discrete_model` does.
    """
    n = _grid_steps(schedule, t)
    t_val = n * schedule.dt
    market = _discrete_market(path, schedule, 1.0)
    values, probs = _log_price_law(market, [path.probs] * n, n, max_states)
    v_limit = schedule.limit_sigma.integral_sq(t_val)
    mean, var = _moment_sums(np.array(path.probs), np.log(1.0 + _step_moves(path, schedule, n)))
    noether = max(schedule.step_vol(j) for j in range(n))
    riemann = abs(sum(schedule.step_vol(j) ** 2 for j in range(n)) - v_limit)
    return LanReport(
        N=schedule.N,
        t=t_val,
        noether_max=noether,
        riemann_gap=riemann,
        mean=mean,
        var=var,
        mean_gap=abs(mean + 0.5 * v_limit),
        var_gap=abs(var - v_limit),
        cdf_sup_distance=_cdf_sup_distance(values, probs, -0.5 * v_limit, v_limit),
        states=len(values),
    )


@dataclass(frozen=True)
class ThirdLemmaReport:
    """Exact laws under the designated martingale measures vs their limits.

    ``z`` is the linear statistic ``sum sigma_j sqrt(T/N) g(x_j)``; its limit
    mean is the integrated rate.  ``log S`` has limit mean
    ``integral (r - sigma^2/2)``; both share the limit variance
    ``integral sigma^2``.  ``alpha`` is the accumulated squared local
    parameter ``sum theta_j^2``, with ``theta_j = rho_j sqrt(T/N) / sigma_j``
    the parameter of step ``j``'s designated measure (reported, no limit
    asserted).
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
    cdf_sup_distance: float
    states: int


def third_lemma_check(path: TangentPath, schedule: Schedule,
                      t: float | None = None,
                      max_states: int | None = None) -> ThirdLemmaReport:
    """Exact measure-changed laws against the shifted Gaussian limit.

    The measures are those of :func:`build_discrete_model`, so every step of
    the grid, not only those up to ``t``, must admit one.
    """
    n = _grid_steps(schedule, t)
    t_val = n * schedule.dt
    model = build_discrete_model(path, schedule)
    values, probs = _log_price_law(model.market, model.measures, n, max_states)
    r_limit = schedule.limit_rate.integral(t_val)
    v_limit = schedule.limit_sigma.integral_sq(t_val)
    measures = np.array(model.measures[:n])
    moves = _step_moves(path, schedule, n)
    z_mean, z_var = _moment_sums(measures, moves)
    s_mean, s_var = _moment_sums(measures, np.log(1.0 + moves))
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
        alpha=sum(theta**2 for theta in model.thetas[:n]),
        cdf_sup_distance=_cdf_sup_distance(
            values, probs, r_limit - 0.5 * v_limit, v_limit
        ),
        states=len(values),
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
                      payoff: Payoff, bs: BSModel, Ns: Sequence[int],
                      max_states: int | None = None) -> list[ConvergenceRow]:
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
        model = build_discrete_model(path, schedule, s0=bs.s0)
        p_n = price_direct(model.market, list(map(np.array, model.measures)), payoff,
                           max_states=max_states)
        _, var = _moment_sums(np.array(model.measures),
                              np.log(1.0 + _step_moves(path, schedule, schedule.N)))
        rows.append(ConvergenceRow(
            N=int(N),
            p_n=p_n,
            p_limit=p_limit,
            abs_gap=abs(p_n - p_limit),
            noether_max=max(schedule.step_vol(j) for j in range(schedule.N)),
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
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"study spec malformed: {exc}") from exc
    threshold = doc.get("threshold")
    return StudySpec(path=path, bs=bs, payoff=payoff, Ns=Ns,
                     threshold=None if threshold is None else float(threshold))
