"""Closed-form limit model: lognormal prices as a Gaussian binary experiment.

In the limit of the lattice approximations, the normalized discounted price
at the horizon is the density of ``Q1`` against ``Q``, and its logarithm is
Gaussian with variance ``v = integral of sigma^2`` and mean ``-v/2`` under
``Q`` (``+v/2`` under ``Q1``).  Every price of a terminal payoff therefore
reduces to normal CDF evaluations; for the call the decomposition into test
powers is the classical closed form.

Volatility and rate enter only through their integrals, so both are modeled
as piecewise-constant step functions on ``[0, T]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._binom import normal_cdf
from .errors import InvalidParams, UnsupportedTest
from .pricing import Payoff, PriceReport, TermPowers


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on ``(0, T]``; ``ends`` are piece ends."""

    ends: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        ends = tuple(float(t) for t in self.ends)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "values", values)
        if not ends or len(ends) != len(values):
            raise InvalidParams("step function needs one value per piece end")
        if not (0.0 < ends[0] and all(a < b for a, b in zip(ends, ends[1:]))
                and ends[-1] < math.inf):
            raise InvalidParams("piece ends must be positive, increasing and finite")

    @classmethod
    def const(cls, value: float, horizon: float) -> "StepFunction":
        return cls((float(horizon),), (float(value),))

    @property
    def horizon(self) -> float:
        return self.ends[-1]

    def value_at(self, t: float) -> float:
        """Value on the piece containing ``t`` (pieces are left-open)."""
        if t < 0.0 or t > self.horizon + 1e-12:
            raise InvalidParams(f"time {t!r} outside [0, {self.horizon}]")
        i = int(np.searchsorted(np.array(self.ends), t, side="left"))
        return self.values[min(i, len(self.values) - 1)]

    def _integrate(self, f, upto: float | None) -> float:
        t = self.horizon if upto is None else float(upto)
        if t < -1e-12 or t > self.horizon + 1e-12:
            raise InvalidParams(f"time {t!r} outside [0, {self.horizon}]")
        total = 0.0
        prev = 0.0
        for end, val in zip(self.ends, self.values):
            if t <= prev:
                break
            seg = min(end, t) - prev
            total += f(val) * seg
            prev = end
        return total

    def integral(self, upto: float | None = None) -> float:
        return self._integrate(lambda v: v, upto)

    def integral_sq(self, upto: float | None = None) -> float:
        return self._integrate(lambda v: v * v, upto)


def _coerce_schedule(spec, horizon: float, name: str) -> StepFunction:
    if isinstance(spec, StepFunction):
        if abs(spec.horizon - horizon) > 1e-12:
            raise InvalidParams(f"{name} horizon {spec.horizon!r} != {horizon!r}")
        return spec
    if np.isscalar(spec):
        return StepFunction.const(float(spec), horizon)
    raise InvalidParams(f"{name} must be a scalar or StepFunction")


@dataclass(frozen=True)
class BSModel:
    """Lognormal limit model with piecewise-constant volatility and rate."""

    s0: float
    horizon: float
    sigma: StepFunction
    rate: StepFunction

    def __post_init__(self) -> None:
        if not 0.0 < self.s0 < math.inf:
            raise InvalidParams(f"s0 must be positive and finite, got {self.s0!r}")
        if not 0.0 < self.horizon < math.inf:
            raise InvalidParams(f"horizon must be positive and finite, got {self.horizon!r}")
        object.__setattr__(self, "sigma", _coerce_schedule(self.sigma, self.horizon, "sigma"))
        object.__setattr__(self, "rate", _coerce_schedule(self.rate, self.horizon, "rate"))
        if not all(0.0 <= v < math.inf for v in self.rate.values):
            raise InvalidParams("rates must be nonnegative and finite")
        if not all(0.0 <= v < math.inf for v in self.sigma.values):
            raise InvalidParams("volatilities must be nonnegative and finite")
        if not self.total_variance() > 0.0:
            raise InvalidParams("integrated squared volatility must be positive")

    def total_variance(self) -> float:
        """``integral of sigma^2`` over the horizon."""
        return self.sigma.integral_sq()

    def total_rate(self) -> float:
        """``integral of r`` over the horizon."""
        return self.rate.integral()

    @property
    def discount(self) -> float:
        return math.exp(-self.total_rate())


@dataclass(frozen=True)
class GaussianBinaryExperiment:
    """Binary experiment whose log likelihood ratio is ``N(-v/2, v)`` under
    the base and ``N(+v/2, v)`` under the alternative."""

    v: float

    def __post_init__(self) -> None:
        if not self.v > 0.0:
            raise InvalidParams(f"variance must be positive, got {self.v!r}")

    def np_powers(self, c: float) -> tuple[float, float]:
        """Powers of the likelihood-ratio test ``1{ratio > c}``.

        Returns ``(E_alt, E_base)``; both are survivals of the Gaussian
        log-ratio law above ``log c``.
        """
        if not c > 0.0:
            raise InvalidParams(f"cutoff must be positive, got {c!r}")
        root = math.sqrt(self.v)
        lc = math.log(c)
        return (
            normal_cdf((-lc + self.v / 2.0) / root),
            normal_cdf((-lc - self.v / 2.0) / root),
        )

    def interval_masses(self, bounds: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Masses of consecutive log-ratio intervals under (alt, base).

        ``bounds`` are interior interval boundaries on the log-ratio axis
        (may include ``-inf``); returns arrays of length ``len(bounds)+1``.
        """
        root = math.sqrt(self.v)
        edges = [-math.inf, *bounds, math.inf]
        alt = []
        base = []
        for a, b in zip(edges, edges[1:]):
            if b < a:
                raise InvalidParams("interval bounds must be nondecreasing")
            alt.append(self._cdf(b, +1) - self._cdf(a, +1))
            base.append(self._cdf(b, -1) - self._cdf(a, -1))
        return np.array(alt), np.array(base)

    def _cdf(self, x: float, sign: int) -> float:
        if x == math.inf:
            return 1.0
        if x == -math.inf:
            return 0.0
        return normal_cdf((x - sign * self.v / 2.0) / math.sqrt(self.v))


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def bs_call_price(model: BSModel, strike: float) -> float:
    """Closed-form call price with the integrated volatility and rate.

    ``price = s0 * F(-x + sqrt(v)) - exp(-R) * K * F(-x)`` where
    ``x = (log(K/s0) - R + v/2) / sqrt(v)``.
    """
    if not strike > 0.0:
        raise InvalidParams(f"strike must be positive, got {strike!r}")
    v = model.total_variance()
    big_r = model.total_rate()
    root = math.sqrt(v)
    x = (math.log(strike / model.s0) - big_r + v / 2.0) / root
    return (model.s0 * normal_cdf(-x + root)
            - math.exp(-big_r) * strike * normal_cdf(-x))


def limit_price_via_np(model: BSModel, strike: float) -> PriceReport:
    """Call price as test powers of the Gaussian binary experiment.

    The cutoff is ``c = (K/s0) * exp(-R)``; the two powers are normal CDF
    values and recombine to the closed form of :func:`bs_call_price`.
    """
    if not strike > 0.0:
        raise InvalidParams(f"strike must be positive, got {strike!r}")
    v = model.total_variance()
    disc = model.discount
    c = strike * disc / model.s0
    exp = GaussianBinaryExperiment(v)
    p_alt, p_base = exp.np_powers(c)
    price = model.s0 * p_alt - disc * strike * p_base
    term = TermPowers("call", 1.0, strike, p_alt, p_base)
    return PriceReport(price=float(price), discount=disc, s0=model.s0, terms=(term,))


def limit_price_terminal(model: BSModel, payoff: Payoff) -> float:
    """Price any piecewise-constant terminal-test payoff in the limit model.

    Each term's test is integrated against the lognormal terminal law by
    mapping its price cuts to log-ratio cuts; point values carry no mass.
    Payoffs with path-dependent tests are rejected.
    """
    v = model.total_variance()
    big_r = model.total_rate()
    disc = math.exp(-big_r)
    forward = model.s0 * math.exp(big_r)
    exp = GaussianBinaryExperiment(v)
    price = 0.0
    for term in payoff.terms:
        if not term.terminal_only:
            raise UnsupportedTest(
                f"term {term.label!r} is path-dependent; the limit model prices "
                "terminal-value tests only"
            )
        bounds = [
            math.log(c / forward) if c > 0.0 else -math.inf
            for c in term.terminal.cuts
        ]
        alt_mass, base_mass = exp.interval_masses(bounds)
        opens = np.array(term.terminal.open_values)
        e_alt = float(opens @ alt_mass)
        e_base = float(opens @ base_mass)
        price += term.coeff * model.s0 * e_alt - disc * term.strike * e_base
    return float(price)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _schedule_from_json(spec: Mapping, name: str) -> StepFunction | float:
    if "const" in spec:
        return float(spec["const"])
    if "pieces" in spec:
        pieces = [(float(t), float(v)) for t, v in spec["pieces"]]
        return StepFunction(tuple(t for t, _ in pieces), tuple(v for _, v in pieces))
    raise InvalidParams(f"{name} spec needs 'const' or 'pieces'")


def model_from_json(doc: Mapping) -> BSModel:
    """Build a model from a plain dict.

    Expected shape::

        {"s0": 100.0, "T": 1.0,
         "sigma": {"const": 0.2} | {"pieces": [[0.5, 0.1], [1.0, 0.3]]},
         "rate": {"const": 0.0} | {"pieces": ...}}
    """
    try:
        s0 = float(doc["s0"])
        horizon = float(doc["T"])
        sigma = _schedule_from_json(doc["sigma"], "sigma")
        rate = _schedule_from_json(doc["rate"], "rate")
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidParams(f"model spec malformed: {exc}") from exc
    return BSModel(s0=s0, horizon=horizon, sigma=sigma, rate=rate)
