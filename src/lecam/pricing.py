"""Payoffs written as tests and their prices on lattice markets.

Every payoff handled here is a finite sum of terms

    (coeff * S_T - strike) * phi(path),

where ``phi`` is a randomized test of the price path with values in
``[0, 1]``: a test of ``S_T`` times the survival indicator
``1{max_t S_t < B}`` of the term's knock-out level ``B`` (infinite for a
term that depends on ``S_T`` alone).  For such payoffs the arbitrage price
splits into test powers:

    price = sum over terms of
            coeff * s0 * E_{Q1}(phi)  -  discount * strike * E_Q(phi),

with ``Q1`` the measure whose density process is the normalized discounted
price.  ``price_via_tests`` computes exactly that decomposition and must
agree with the direct discounted expectation ``price_direct`` to within
1e-12.  Both routes are sums over the same powers, and ``price_routes``
reads both from one pass that computes them once.  For terminal
payoffs (``dQ1/dQ = X_T/X_0`` is ``sigma(X_T)``-measurable) the powers are
closed-form: the masses of ``log(X_T/X_0)`` below, at and above the level
of every cut under ``Q`` and ``Q1``, read from binomial tails by
:func:`lecam.lattice.terminal_log_masses` without building the law of
``X_T``.  Whether a node sits at a cut is decided there, once, in count
units of the closed-form draw, also for the terminal terms of a sum that
has knock-out terms.  Terms with a finite level are rolled back over the
recombined lattice (:func:`lecam.lattice.backward_induction`), each
knocked out at its own level; no production route enumerates paths.
``np_decomposition`` poses a call's testing problem on the two blocks of
its cut, with block masses read from the same closed-form masses, so its
price equals ``price_via_tests``.  ``dynamic_price`` is ``price_direct``
with the observed moves pinned, node ties decided as there.

Tests are structural: terminal tests are piecewise constant in ``S_T`` with
explicit cuts, so that limit models can integrate them in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import limits
from .errors import (
    InvalidParams,
    NotACall,
    PathDependenceUnsupported,
    SelfCheckFailed,
    SizeLimit,
)
from .experiments import BinaryPriors, FiniteExperiment, Test, bayes_risk, neyman_pearson
from .lattice import (
    LatticeMarket,
    PathState,
    as_step_measures,
    _step_vertices,
    backward_induction,
    check_strictly_positive,
    multiset_log_masses,
    pinned_measures,
    solve_martingale_measures,
    terminal_log_masses,
)

# ---------------------------------------------------------------------------
# tests and payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalTest:
    """Piecewise-constant test of the terminal price.

    ``cuts`` are strictly increasing breakpoints; ``open_values[i]`` is the
    value on the open interval between cuts ``i-1`` and ``i`` and
    ``point_values[i]`` the value exactly at cut ``i``.  All values must lie
    in ``[0, 1]``.
    """

    cuts: tuple[float, ...]
    open_values: tuple[float, ...]
    point_values: tuple[float, ...]

    def __post_init__(self) -> None:
        cuts = tuple(float(c) for c in self.cuts)
        opens = tuple(float(v) for v in self.open_values)
        points = tuple(float(v) for v in self.point_values)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "open_values", opens)
        object.__setattr__(self, "point_values", points)
        if len(opens) != len(cuts) + 1 or len(points) != len(cuts):
            raise InvalidParams("terminal test needs len(cuts)+1 interval values")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise InvalidParams("cuts must be strictly increasing")
        for v in opens + points:
            if not 0.0 <= v <= 1.0:
                raise InvalidParams(f"test value {v!r} outside [0, 1]")

    def __call__(self, s: float) -> float:
        return float(self.eval_many(np.asarray(s)))

    def eval_many(self, s: np.ndarray) -> np.ndarray:
        cuts = np.array(self.cuts)
        idx = np.searchsorted(cuts, s, side="left")
        out = np.array(self.open_values)[idx]
        for i, c in enumerate(self.cuts):
            out = np.where(s == c, self.point_values[i], out)
        return out


@dataclass(frozen=True)
class PayoffTerm:
    """One term ``(coeff * S_T - strike) * phi``, with ``phi`` the terminal
    test of ``S_T`` while the price path stays strictly below ``barrier`` at
    every grid time (the start included), and zero once it reaches that
    level.  The default infinite barrier never knocks out: the term is a
    test of ``S_T`` alone.
    """

    coeff: float
    strike: float
    terminal: TerminalTest
    barrier: float = math.inf
    label: str = "term"

    def __post_init__(self) -> None:
        object.__setattr__(self, "barrier", float(self.barrier))
        if not self.barrier > 0.0:
            raise InvalidParams(f"barrier must be positive, got {self.barrier!r}")

    @property
    def terminal_only(self) -> bool:
        return math.isinf(self.barrier)


@dataclass(frozen=True)
class Payoff:
    """A finite sum of test-shaped terms."""

    terms: tuple[PayoffTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidParams("payoff needs at least one term")

    @property
    def terminal_only(self) -> bool:
        return all(t.terminal_only for t in self.terms)


def _indicator_above(threshold: float) -> TerminalTest:
    return TerminalTest((threshold,), (0.0, 1.0), (0.0,))


def _indicator_below(threshold: float) -> TerminalTest:
    return TerminalTest((threshold,), (1.0, 0.0), (0.0,))


def _check_strike(strike: float) -> None:
    if not 0.0 <= strike < math.inf:
        raise InvalidParams(f"strike must be finite and nonnegative, got {strike!r}")


def payoff_european_call(strike: float) -> Payoff:
    """``(S_T - K)+`` as ``(S_T - K) * 1{S_T > K}``."""
    _check_strike(strike)
    term = PayoffTerm(1.0, strike, _indicator_above(strike), label="call")
    return Payoff((term,))


def payoff_european_put(strike: float) -> Payoff:
    """``(K - S_T)+`` as ``(-S_T + K) * 1{S_T < K}``."""
    _check_strike(strike)
    term = PayoffTerm(-1.0, -strike, _indicator_below(strike), label="put")
    return Payoff((term,))


def payoff_straddle(strike: float) -> Payoff:
    """Call plus put at the same strike."""
    return Payoff(payoff_european_call(strike).terms + payoff_european_put(strike).terms)


def payoff_strangle(low: float, high: float) -> Payoff:
    """Put at ``low`` plus call at ``high``; equal strikes give a straddle."""
    if low > high:
        raise InvalidParams(f"need low <= high, got {low!r} > {high!r}")
    return Payoff(payoff_european_put(low).terms + payoff_european_call(high).terms)


def payoff_digital(strike: float) -> Payoff:
    """Pays one unit when ``S_T > K``: coefficient zero, strike minus one."""
    _check_strike(strike)
    term = PayoffTerm(0.0, -1.0, _indicator_above(strike), label="digital")
    return Payoff((term,))


def payoff_barrier_up_out(strike: float, barrier: float) -> Payoff:
    """Call knocked out when the price path ever reaches ``barrier``.

    The monitoring is strict (``max_t S_t < B``) over all grid times, so an
    infinite barrier reduces to the plain call.
    """
    _check_strike(strike)
    term = PayoffTerm(1.0, strike, _indicator_above(strike), barrier,
                      label="barrier_up_out")
    return Payoff((term,))


def payoff_from_json(doc: Mapping) -> Payoff:
    """Build a payoff from a plain dict, e.g. ``{"type": "call", "K": 5.0}``."""
    try:
        return _payoff_from_json(doc)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidParams(f"payoff spec malformed: {exc}") from exc


def _payoff_from_json(doc: Mapping) -> Payoff:
    kind = doc["type"]
    if kind == "call":
        return payoff_european_call(float(doc["K"]))
    if kind == "put":
        return payoff_european_put(float(doc["K"]))
    if kind == "straddle":
        return payoff_straddle(float(doc["K"]))
    if kind == "strangle":
        return payoff_strangle(float(doc["K1"]), float(doc["K2"]))
    if kind == "digital":
        return payoff_digital(float(doc["K"]))
    if kind == "barrier_up_out":
        barrier = doc.get("B", math.inf)
        barrier = math.inf if barrier in (None, "inf") else float(barrier)
        return payoff_barrier_up_out(float(doc["K"]), barrier)
    if kind == "sum":
        terms: tuple[PayoffTerm, ...] = ()
        for sub in doc["terms"]:
            terms = terms + _payoff_from_json(sub).terms
        return Payoff(terms)
    raise InvalidParams(f"unknown payoff type {kind!r}")


def payoff_to_json(payoff: Payoff) -> dict:
    """Serialize back to the constructor vocabulary of ``payoff_from_json``.

    Composite payoffs built from the stock constructors (straddles,
    strangles, sums) come back as a ``sum`` of their call/put/digital legs.
    """
    docs = []
    for t in payoff.terms:
        if t.label == "call":
            docs.append({"type": "call", "K": t.strike})
        elif t.label == "put":
            docs.append({"type": "put", "K": -t.strike})
        elif t.label == "digital":
            docs.append({"type": "digital", "K": t.terminal.cuts[0]})
        elif t.label == "barrier_up_out":
            docs.append({"type": "barrier_up_out", "K": t.strike,
                         "B": "inf" if t.terminal_only else t.barrier})
        else:
            raise InvalidParams(f"cannot serialize payoff term {t.label!r}")
    if len(docs) == 1:
        return docs[0]
    return {"type": "sum", "terms": docs}


# ---------------------------------------------------------------------------
# price reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermPowers:
    label: str
    coeff: float
    strike: float
    power_alt: float    # E_{Q1}(phi)
    power_base: float   # E_Q(phi)


@dataclass(frozen=True)
class PriceReport:
    """Price together with the test powers realizing it.

    Invariant: ``price`` equals
    ``sum(coeff * s0 * power_alt - discount * strike * power_base)``.
    """

    price: float
    discount: float
    s0: float
    terms: tuple[TermPowers, ...]

    def to_json(self) -> dict:
        return {
            "price": self.price,
            "discount": self.discount,
            "s0": self.s0,
            "terms": [
                {
                    "label": t.label,
                    "coeff": t.coeff,
                    "strike": t.strike,
                    "power_alt": t.power_alt,
                    "power_base": t.power_base,
                }
                for t in self.terms
            ],
        }


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def _log_levels(m: LatticeMarket, cuts: Sequence[float]) -> list[float]:
    """The levels of ``log(X_T/X_0)`` at which ``S_T`` equals each of
    ``cuts`` (``-inf`` for a cut at zero)."""
    scale = m.s0 * m.bond_factor(m.steps)
    return [math.log(c / scale) if c > 0.0 else -math.inf for c in cuts]


def _terminal_powers(m: LatticeMarket, terms: Sequence[PayoffTerm],
                     log_masses: Callable[[list[float]], np.ndarray]) -> np.ndarray:
    """``[E_Q(phi), E_Q(x * phi)]`` for each of ``terms``, all terminal, read
    from the masses of ``log x`` below, at and above the levels of the
    term's cuts, ``log_masses(levels)``: shape ``(2, 3, len(levels))`` from
    :func:`lecam.lattice.terminal_log_masses` for one measure, or with a
    leading axis of rows from :func:`lecam.lattice.multiset_log_masses`,
    which the powers keep after the terms' axis.  Ties are decided there,
    in count units.

    An open interval between two cuts takes its mass from the side with the
    smaller tail, so every interval keeps the relative accuracy of a tail.
    """
    # a test without cuts gets one at zero, which every S_T lies above
    cuts = [t.terminal.cuts or (0.0,) for t in terms]
    masses = log_masses(_log_levels(m, [c for term in cuts for c in term]))
    out = []
    start = 0
    for term, term_cuts in zip(terms, cuts):
        below, at, above = (masses[..., side, start:start + len(term_cuts)] for side in range(3))
        start += len(term_cuts)
        opens, points = term.terminal.open_values, term.terminal.point_values or (0.0,)
        power = opens[0] * below[..., 0] + opens[-1] * above[..., -1] + at @ points
        if len(opens) > 2:
            inner = np.where(below[..., 1:] <= above[..., :-1],
                             below[..., 1:] - below[..., :-1] - at[..., :-1],
                             above[..., :-1] - above[..., 1:] - at[..., 1:])
            power += inner @ opens[1:-1]
        out.append(power)
    return np.array(out)


def _knocked_out_values(m: LatticeMarket, terms: Sequence[PayoffTerm],
                        step_measures: Sequence[np.ndarray],
                        coeffs: Sequence[tuple]) -> np.ndarray:
    """``E_Q((a * x + b) * phi)`` for each of ``terms``, all with a finite
    knock-out level, rolled back over the recombined lattice, each term
    knocked out at its own level."""
    bonds = m.bond_path
    levels = np.array([t.barrier for t in terms])

    def values(x: np.ndarray) -> np.ndarray:
        s_T = m.s0 * bonds[-1] * x
        phis = [term.terminal.eval_many(s_T) for term in terms]
        return np.stack([np.multiply.outer(x * phi, a) + np.multiply.outer(phi, b)
                         for phi, (a, b) in zip(phis, coeffs)], axis=x.ndim)

    def knocked(t: int, x: np.ndarray) -> np.ndarray:
        return (m.s0 * bonds[t] * x)[..., None] >= levels

    for _, x, v in backward_induction(m, step_measures, values, knocked):
        pass
    return v[(0,) * x.ndim]


def _expectations(m: LatticeMarket, payoff: Payoff,
                  step_measures: Sequence[np.ndarray], classes: Sequence[tuple],
                  weights: Callable[[PayoffTerm], tuple],
                  ) -> np.ndarray:
    """``E_Q((a * x + b) * phi)`` for every term, with ``(a, b) =
    weights(term)`` (scalars or equal-shaped arrays), ``x = X_T/X_0`` and
    ``phi`` the term's test, under ``step_measures`` and their groups per
    return class (``classes``), both of
    :func:`lecam.lattice.as_step_measures`.

    Terminal terms combine the powers ``E_Q(phi)`` and ``E_Q(x * phi)`` of
    :func:`_terminal_powers`, also inside a sum with knock-out terms, so a
    term's powers do not depend on the terms beside it.  Terms with a
    finite knock-out level are rolled back by backward induction on the
    recombined lattice.  Either way the state cap bounds the states built.
    """
    coeffs = [tuple(map(np.asarray, weights(term))) for term in payoff.terms]
    terminal = [i for i, t in enumerate(payoff.terms) if t.terminal_only]
    knock_out = [i for i, t in enumerate(payoff.terms) if not t.terminal_only]
    out: list = [None] * len(coeffs)
    if terminal:
        powers = _terminal_powers(m, [payoff.terms[i] for i in terminal],
                                  lambda levels: terminal_log_masses(classes, levels))
        for i, (base, alt) in zip(terminal, powers):
            a, b = coeffs[i]
            out[i] = a * alt + b * base
    if knock_out:
        rolled = _knocked_out_values(m, [payoff.terms[i] for i in knock_out], step_measures,
                                     [coeffs[i] for i in knock_out])
        for i, v in zip(knock_out, rolled):
            out[i] = v
    return np.array(out)


def _term_values(m: LatticeMarket, payoff: Payoff,
                 step_measures: Sequence[np.ndarray], classes: Sequence[tuple]) -> np.ndarray:
    """One row per term of ``payoff``: the powers ``E_{Q1}(phi)`` and
    ``E_Q(phi)`` of its test and its expected payoff ``E_Q((coeff * S_T -
    strike) * phi)``, the three columns of one :func:`_expectations` pass.
    Masses and rollbacks work column by column, so each column equals a
    pass of its own bitwise."""
    scale = m.s0 * m.bond_factor(m.steps)
    return _expectations(m, payoff, step_measures, classes,
                         lambda term: ((1.0, 0.0, term.coeff * scale), (0.0, 1.0, -term.strike)))


def _direct_price(m: LatticeMarket, values: np.ndarray) -> float:
    """The discounted sum of the expected payoffs of :func:`_term_values`."""
    return float(m.discount * values[:, 2].sum())


def _powers_report(m: LatticeMarket, payoff: Payoff, values: np.ndarray) -> PriceReport:
    """The price rebuilt from the test powers of :func:`_term_values`."""
    disc = m.discount
    price = 0.0
    terms = []
    for term, (p_alt, p_base) in zip(payoff.terms, values[:, :2].tolist()):
        price += term.coeff * m.s0 * p_alt - disc * term.strike * p_base
        terms.append(TermPowers(term.label, term.coeff, term.strike, p_alt, p_base))
    return PriceReport(price=float(price), discount=disc, s0=m.s0, terms=tuple(terms))


def price_direct(m: LatticeMarket, q, payoff: Payoff) -> float:
    """Exact discounted expectation of the payoff under ``q``, a martingale
    measure with zeros allowed: the discounted sum over terms of
    ``E_Q((coeff * S_T - strike) * phi)``.

    Terminal terms are priced from the closed-form powers of their tests
    (masses of ``log(X_T/X_0)`` between the cuts, ties decided in count
    units), terms with a barrier by backward induction on the recombined
    lattice; both are bounded by the state cap
    (:func:`lecam.limits.max_states`), so large recombining markets stay
    cheap.  Equals the direct price of :func:`price_routes` bitwise.
    """
    return _direct_price(m, _term_values(m, payoff, *as_step_measures(m, q, strict=False)))


def price_via_tests(m: LatticeMarket, q, payoff: Payoff) -> PriceReport:
    """Price through the experiment: powers of each term's test, under a
    strictly positive martingale measure ``q``.

    The powers are ``E_Q(phi)`` and ``E_{Q1}(phi) = E_Q(x * phi)``, with
    ``x = X_T/X_0`` the likelihood ratio ``dQ1/dQ``.  For terminal terms
    they are closed-form: the ``Q``- and ``Q1``-masses of the intervals
    between the test's cuts, from binomial tails of ``log x``
    (:func:`lecam.lattice.terminal_log_masses`), a node at a cut decided in
    count units; for terms with a barrier ``phi`` and ``x * phi`` are
    rolled back over the recombined lattice with the term's knock-out.  The
    state cap bounds the atoms or lattice nodes.  The powers are those
    :func:`price_direct` sums over: the two prices agree to within 1e-12,
    and this report equals the one of :func:`price_routes` bitwise.
    """
    return _powers_report(m, payoff, _term_values(m, payoff, *as_step_measures(m, q, strict=True)))


def price_routes(m: LatticeMarket, q, payoff: Payoff) -> tuple[float, PriceReport]:
    """:func:`price_direct` and :func:`price_via_tests`, bitwise, read from
    one set of test powers: ``q`` is grouped once and the powers come from
    one pass, whose barrier terms take one rollback.

    The errors come as from the two calls in turn: ``q`` is checked as a
    martingale measure on every step, the pass runs (its state caps and
    its ``Q1`` mass check), and only then must ``q`` be strictly positive,
    which only the test powers need.
    """
    step_measures, classes = as_step_measures(m, q, strict=False)
    values = _term_values(m, payoff, step_measures, classes)
    check_strictly_positive(step_measures)
    return _direct_price(m, values), _powers_report(m, payoff, values)


def _call_strike(payoff: Payoff) -> float:
    if len(payoff.terms) != 1:
        raise NotACall("decomposition requires a single-term call payoff")
    term = payoff.terms[0]
    if (not term.terminal_only or term.coeff != 1.0
            or term.terminal != _indicator_above(term.strike)):
        raise NotACall(f"payoff {term.label!r} is not a plain European call")
    if term.strike < 0.0:
        raise NotACall("call strike must be nonnegative")
    return term.strike


@dataclass(frozen=True)
class CallDecomposition:
    """Testing-problem view of a European call.

    ``test`` is the likelihood-ratio test on the two blocks
    ``"x <= cutoff"`` and ``"x > cutoff"`` of ``x = X_T / X_0``, keyed by
    those labels.
    """

    cutoff: float
    test: Test
    priors: BinaryPriors
    risk: float
    price: float


def np_decomposition(m: LatticeMarket, q, payoff: Payoff) -> CallDecomposition:
    """Write a call price as one minus a scaled minimal Bayes risk.

    The call's indicator is the likelihood-ratio test of ``Q`` against
    ``Q1`` at cutoff ``c = K * discount / s0``; with priors
    ``(c/(1+c), 1/(1+c))`` its Bayes risk satisfies

        risk = (s0 - price) / (s0 + K * discount),

    which is re-verified here before returning
    (:class:`~lecam.errors.SelfCheckFailed` otherwise).  The testing problem
    is posed on the two-block experiment ``{x <= c, x > c}`` of
    ``x = X_T / X_0``, with ``Q1 = x . Q``: the call's test is measurable
    on those blocks, and the likelihood-ratio test there (``gamma = 0``)
    returns it.  The block masses under ``Q`` and ``Q1`` come from
    :func:`lecam.lattice.terminal_log_masses` at the strike's level, ties
    decided in count units, so the price equals :func:`price_via_tests`.
    """
    strike = _call_strike(payoff)
    _, classes = as_step_measures(m, q, strict=True)
    masses = terminal_log_masses(classes, _log_levels(m, [strike]))
    below, at, above = masses[:, :, 0].T
    exp = FiniteExperiment(("x <= cutoff", "x > cutoff"),
                           {"Q": [below[0] + at[0], above[0]],
                            "Q1": [below[1] + at[1], above[1]]}, base="Q")
    disc = m.discount
    c = strike * disc / m.s0
    test = neyman_pearson(exp, "Q", "Q1", c, gamma=0.0)
    priors = BinaryPriors.from_cutoff(c)
    vec = test.vector(exp)
    p_alt = float(vec @ exp.measure("Q1"))
    p_base = float(vec @ exp.measure("Q"))
    price = m.s0 * p_alt - disc * strike * p_base
    risk = bayes_risk(exp, "Q", "Q1", test, priors)
    closed = (m.s0 - price) / (m.s0 + strike * disc)
    if not abs(risk - closed) <= 1e-11:  # NaN fails too
        raise SelfCheckFailed(
            f"Bayes-risk identity violated (risk={risk!r}, closed={closed!r})"
        )
    return CallDecomposition(cutoff=c, test=test, priors=priors,
                             risk=risk, price=float(price))


def dynamic_price(m: LatticeMarket, q, payoff: Payoff, state: PathState) -> float:
    """Arbitrage price at the node reached by ``state``: ``B_t`` times the
    :func:`price_direct` route on the full market, with the observed moves
    pinned (:func:`lecam.lattice.pinned_measures`), for every ``t`` from 0
    to ``N``.  Only terminal-value payoffs are supported.
    """
    if not payoff.terminal_only:
        raise PathDependenceUnsupported(
            "dynamic prices are only defined here for terminal-value payoffs"
        )
    step_measures, _ = as_step_measures(m, q, strict=False)
    pinned = pinned_measures(m, step_measures, state)
    values = _term_values(m, payoff, *as_step_measures(m, pinned))
    return m.bond_factor(state.t) * _direct_price(m, values)


def price_bounds(m: LatticeMarket, payoff: Payoff) -> tuple[float, float]:
    """Range of prices over product martingale measures: one measure of the
    closed per-step polytope per step, used at every node of that step.

    The price is multilinear in the per-step measures, so both extremes are
    attained at step-constant vertex choices.  Steps of one return class
    share their polytope and are exchangeable: the law of ``X_T`` depends
    on the class's step measures only through their multiset.  So each
    class ranges over the multisets of its vertices, ``C(n_c + V_c - 1,
    V_c - 1)`` for ``n_c`` steps and ``V_c`` vertices, and every assignment
    of a multiset to each class is one row of a single batched pass
    (:func:`lecam.lattice.multiset_log_masses`): every vertex has at most
    two live outcomes, so under an assignment a class's law is a product of
    binomials that differ from row to row only in their counts.  The min
    and max range over the same prices as an enumeration of every ordered
    vertex tuple.  The assignments are capped
    (:func:`lecam.limits.max_combos`) before any law is built.

    This is not the no-arbitrage (superhedging) interval, which also allows
    node-dependent choices and can be wider: for digitals at ``N = 4`` by up
    to 0.16.  Equal bounds mean the market prices the payoff completely.
    """
    if not payoff.terminal_only:
        raise PathDependenceUnsupported(
            "price bounds are implemented for terminal-value payoffs"
        )
    cap = limits.max_combos()
    solve_martingale_measures(m)  # the arbitrage check, naming the first bad step
    classes = m.classes
    members = np.bincount(classes.index).tolist()
    vertices = [_step_vertices(np.array(values)) for values in classes.kinds]
    combos = 1
    for n, vs in zip(members, vertices):
        combos *= math.comb(n + len(vs) - 1, len(vs) - 1)
        if combos > cap:
            raise SizeLimit(f"vertex multisets exceed cap {cap}")
    scale = m.s0 * m.bond_factor(m.steps)
    a, b = np.array([(term.coeff * scale, -term.strike) for term in payoff.terms]).T
    base, alt = np.moveaxis(_terminal_powers(
        m, payoff.terms, lambda levels: multiset_log_masses(
            list(zip(classes.kinds, vertices, members)), levels)), -1, 0)
    prices = m.discount * (a[:, None] * alt + b[:, None] * base).sum(axis=0)
    return float(prices.min()), float(prices.max())
