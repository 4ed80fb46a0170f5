"""Pricing checks: every price is re-derived by explicit path enumeration.

The central property — prices computed through test powers equal discounted
expectations — is exercised across all payoff constructors, random markets,
and both complete and incomplete solution sets.  The production routes work
on the grouped law of ``X_T`` and, for barriers, on the recombined lattice;
the path-space experiment (``induced_experiment``) and plain-python path
loops are the oracles they are checked against.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from lecam import (
    BinaryPriors,
    InvalidParams,
    LatticeMarket,
    NotACall,
    PathDependenceUnsupported,
    Payoff,
    PayoffTerm,
    PathState,
    SelfCheckFailed,
    SizeLimit,
    bayes_risk,
    build_crr,
    dynamic_price,
    enumerate_paths,
    induced_experiment,
    np_decomposition,
    payoff_barrier_up_out,
    payoff_digital,
    payoff_european_call,
    payoff_european_put,
    payoff_from_json,
    payoff_straddle,
    payoff_strangle,
    payoff_to_json,
    path_probabilities,
    price_bounds,
    price_direct,
    price_via_tests,
    solve_martingale_measures,
)
from lecam import Test as RTest
from lecam import BSModel, convergence_study, crr_tangent, lan, lattice, limits, pricing
from lecam import market_from_json, market_to_json, schedule_family, symmetric_trinomial_tangent
from lecam.lattice import path_prices

import law_oracles
from test_lattice import brute_paths, brute_prob, brute_ratio, random_market

RNG_SEED = 42


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def terminal_payoff_fn(kind, K, K2=None, B=None):
    if kind == "call":
        return lambda s: max(s - K, 0.0)
    if kind == "put":
        return lambda s: max(K - s, 0.0)
    if kind == "digital":
        return lambda s: 1.0 if s > K else 0.0
    if kind == "straddle":
        return lambda s: max(s - K, 0.0) + max(K - s, 0.0)
    if kind == "strangle":
        return lambda s: max(K - s, 0.0) + max(s - K2, 0.0)
    raise ValueError(kind)


def build_payoff(kind, K, K2=None, B=None):
    if kind == "call":
        return payoff_european_call(K)
    if kind == "put":
        return payoff_european_put(K)
    if kind == "digital":
        return payoff_digital(K)
    if kind == "straddle":
        return payoff_straddle(K)
    if kind == "strangle":
        return payoff_strangle(K, K2)
    raise ValueError(kind)


def brute_price(m, qs, payoff_fn, barrier=None):
    """disc * E_Q[H], path by path, in plain python."""
    disc = 1.0
    for r in m.bond_rates:
        disc /= 1.0 + r
    total = 0.0
    for w in brute_paths(m):
        spot = m.s0
        alive = spot < barrier if barrier is not None else True
        for j, i in enumerate(w):
            spot *= m.returns[j][i][0] * (1.0 + m.bond_rates[j])
            if barrier is not None and spot >= barrier:
                alive = False
        h = payoff_fn(spot) if alive else 0.0
        total += brute_prob(m, qs, w) * h
    return disc * total


def brute_term_powers(m, qs, payoff):
    """Per-term ``(E_Q1(phi), E_Q(phi))`` and the discounted price, path by
    path in plain python, each barrier applied by its definition: the term's
    terminal test while every price (the start included) stays below it."""
    powers = [[0.0, 0.0] for _ in payoff.terms]
    value = 0.0
    for w in brute_paths(m):
        prices = [m.s0]
        for j, i in enumerate(w):
            prices.append(prices[-1] * m.returns[j][i][0] * (1.0 + m.bond_rates[j]))
        pw = brute_prob(m, qs, w)
        x = brute_ratio(m, w)
        for acc, term in zip(powers, payoff.terms):
            phi = 0.0 if max(prices) >= term.barrier else term.terminal(prices[-1])
            acc[0] += pw * x * phi
            acc[1] += pw * phi
            value += pw * (term.coeff * prices[-1] - term.strike) * phi
    return powers, value / m.bond_factor(m.steps)


def crr_knock_out_price(u, d, r, n, s0, strike, level):
    """Up-and-out call on a CRR market by a knock-out recursion over the
    number of up moves at each date (the start included)."""
    q = (r - d) / (u - d)
    alive = [1.0 if s0 < level else 0.0]
    for t in range(1, n + 1):
        alive = [((alive[k - 1] * q if k > 0 else 0.0)
                  + (alive[k] * (1.0 - q) if k < t else 0.0))
                 if s0 * u ** k * d ** (t - k) < level else 0.0
                 for k in range(t + 1)]
    return sum(p * max(s0 * u ** k * d ** (n - k) - strike, 0.0)
               for k, p in enumerate(alive)) / r ** n


def random_class_market(rng, max_steps=5):
    """Steps drawn from two or three return classes with 2-4 point
    supports, so that nodes recombine within a class and across classes."""
    classes = []
    for _ in range(int(rng.integers(2, 4))):
        k = int(rng.integers(2, 5))
        vals = [rng.uniform(0.3, 0.9), rng.uniform(1.1, 2.5), *rng.uniform(0.5, 2.0, k - 2)]
        probs = rng.random(k) + 0.1
        classes.append(tuple(zip(map(float, vals), map(float, probs / probs.sum()))))
    n = int(rng.integers(2, max_steps + 1))
    picks = rng.permutation([0, 1, *rng.integers(0, len(classes), n - 2)])
    rates = tuple(float(rng.uniform(0.0, 0.05)) for _ in range(n))
    return LatticeMarket(n, 1.0, float(rng.uniform(1.0, 10.0)),
                         tuple(classes[i] for i in picks), rates)


PAYOFF_KINDS = ("call", "put", "digital", "straddle", "strangle")


def random_payoff(rng, s0):
    kind = PAYOFF_KINDS[int(rng.integers(0, len(PAYOFF_KINDS)))]
    K = float(s0 * rng.uniform(0.4, 1.8))
    K2 = float(K * rng.uniform(1.0, 1.6))
    return kind, K, K2, build_payoff(kind, K, K2), terminal_payoff_fn(kind, K, K2)


# ---------------------------------------------------------------------------
# worked one- and two-period examples
# ---------------------------------------------------------------------------

class TestWorkedExamples:
    def setup_method(self):
        self.m1 = build_crr(2.0, 0.5, 1.0, 0.5, 1, 4.0)
        self.q1 = solve_martingale_measures(self.m1).designated()
        self.m2 = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        self.q2 = solve_martingale_measures(self.m2).designated()

    def test_one_period_call(self):
        p = price_direct(self.m1, self.q1, payoff_european_call(5.0))
        assert abs(p - 1.0) <= 1e-15
        rep = price_via_tests(self.m1, self.q1, payoff_european_call(5.0))
        assert abs(rep.price - 1.0) <= 1e-15
        assert rep.terms[0].power_alt == pytest.approx(2 / 3, abs=1e-15)
        assert rep.terms[0].power_base == pytest.approx(1 / 3, abs=1e-15)

    def test_one_period_digital_and_put(self):
        assert price_direct(self.m1, self.q1, payoff_digital(5.0)) == pytest.approx(
            1 / 3, abs=1e-15
        )
        assert price_direct(self.m1, self.q1, payoff_european_put(5.0)) == pytest.approx(
            2.0, abs=1e-15
        )

    def test_two_period_call_and_dynamics(self):
        call = payoff_european_call(5.0)
        assert price_direct(self.m2, self.q2, call) == pytest.approx(11 / 9, abs=1e-15)
        up = dynamic_price(self.m2, self.q2, call, PathState(1, (0,)))
        down = dynamic_price(self.m2, self.q2, call, PathState(1, (1,)))
        assert up == pytest.approx(11 / 3, abs=1e-14)
        assert down == 0.0

    def test_np_decomposition_fixture(self):
        dec = np_decomposition(self.m1, self.q1, payoff_european_call(5.0))
        assert dec.cutoff == pytest.approx(1.25, abs=1e-15)
        assert dec.priors.lambda0 == pytest.approx(5 / 9, abs=1e-15)
        assert dec.priors.lambda1 == pytest.approx(4 / 9, abs=1e-15)
        assert abs(dec.risk - 1 / 3) <= 1e-12
        assert dec.price == pytest.approx(1.0, abs=1e-15)

    def test_zero_strike_call_prices_the_stock(self):
        p = price_direct(self.m1, self.q1, payoff_european_call(0.0))
        assert p == pytest.approx(4.0, abs=1e-14)
        dec = np_decomposition(self.m1, self.q1, payoff_european_call(0.0))
        assert dec.cutoff == 0.0
        assert dec.priors.lambda0 == 0.0
        assert dec.risk == pytest.approx(0.0, abs=1e-14)
        assert dec.price == pytest.approx(4.0, abs=1e-14)


# ---------------------------------------------------------------------------
# the pricing theorem, randomized
# ---------------------------------------------------------------------------

class TestPricingTheorem:
    def test_powers_route_equals_direct_route(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(120):
            m = random_market(rng, max_steps=4)
            qs = solve_martingale_measures(m).designated()
            kind, K, K2, payoff, fn = random_payoff(rng, m.s0)
            direct = price_direct(m, qs, payoff)
            report = price_via_tests(m, qs, payoff)
            assert abs(direct - report.price) <= 1e-12
            assert abs(direct - brute_price(m, qs, fn)) <= 1e-12

    def test_barrier_payoff_agrees_on_both_routes(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(40):
            m = random_market(rng, max_steps=4)
            qs = solve_martingale_measures(m).designated()
            K = float(m.s0 * rng.uniform(0.5, 1.5))
            B = float(m.s0 * rng.uniform(1.2, 4.0))
            payoff = payoff_barrier_up_out(K, B)
            direct = price_direct(m, qs, payoff)
            report = price_via_tests(m, qs, payoff)
            oracle = brute_price(m, qs, lambda s: max(s - K, 0.0), barrier=B)
            assert abs(direct - report.price) <= 1e-12
            assert abs(direct - oracle) <= 1e-12
        # recombining classes; a call plus two barriers, one knocked out at t = 0
        for _ in range(40):
            m = random_class_market(rng)
            qs = solve_martingale_measures(m).designated()
            low = float(m.s0 * rng.choice([1.0, rng.uniform(0.5, 1.0)]))
            high = float(m.s0 * rng.uniform(1.1, 3.0))
            K1, K2, K3 = (float(m.s0 * k) for k in rng.uniform(0.5, 1.5, 3))
            payoff = Payoff(payoff_european_call(K1).terms
                            + payoff_barrier_up_out(K2, high).terms
                            + payoff_barrier_up_out(K3, low).terms)
            powers, oracle = brute_term_powers(m, qs, payoff)
            report = price_via_tests(m, qs, payoff)
            for term, (alt, base) in zip(report.terms, powers):
                assert abs(term.power_alt - alt) <= 1e-12
                assert abs(term.power_base - base) <= 1e-12
            assert report.terms[2].power_alt == report.terms[2].power_base == 0.0
            assert abs(price_direct(m, qs, payoff) - oracle) <= 1e-12
            assert abs(report.price - oracle) <= 1e-12

    def test_barrier_matches_knock_out_recursion(self):
        for u, d, r, n, s0, K, B in ((1.05, 0.96, 1.001, 30, 100.0, 101.3, 150.0),
                                     (1.01, 0.99, 1.0001, 200, 100.0, 101.3, 117.5)):
            m = build_crr(u, d, r, 0.5, n, s0)
            qs = solve_martingale_measures(m).designated()
            payoff = payoff_barrier_up_out(K, B)
            want = crr_knock_out_price(u, d, r, n, s0, K, B)
            assert abs(price_direct(m, qs, payoff) - want) <= 1e-11 * want
            assert abs(price_via_tests(m, qs, payoff).price - want) <= 1e-11 * want

    def test_infinite_barrier_is_a_plain_call(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 3, 4.0)
        qs = solve_martingale_measures(m).designated()
        a = price_direct(m, qs, payoff_barrier_up_out(5.0, math.inf))
        b = price_direct(m, qs, payoff_european_call(5.0))
        assert abs(a - b) <= 1e-15

    def test_put_call_parity(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(80):
            m = random_market(rng, max_steps=4)
            qs = solve_martingale_measures(m).designated()
            K = float(m.s0 * rng.uniform(0.4, 1.8))
            call = price_direct(m, qs, payoff_european_call(K))
            put = price_direct(m, qs, payoff_european_put(K))
            assert abs((call - put) - (m.s0 - K * m.discount)) <= 1e-12

    def test_straddle_is_call_plus_put(self):
        rng = np.random.default_rng(RNG_SEED)
        m = random_market(rng, max_steps=3)
        qs = solve_martingale_measures(m).designated()
        K = m.s0
        lhs = price_direct(m, qs, payoff_straddle(K))
        rhs = price_direct(m, qs, payoff_european_call(K)) + price_direct(
            m, qs, payoff_european_put(K)
        )
        assert abs(lhs - rhs) <= 1e-12

    def test_report_price_matches_power_combination(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(30):
            m = random_market(rng, max_steps=3)
            qs = solve_martingale_measures(m).designated()
            _, _, _, payoff, _ = random_payoff(rng, m.s0)
            rep = price_via_tests(m, qs, payoff)
            recombined = sum(
                t.coeff * rep.s0 * t.power_alt - rep.discount * t.strike * t.power_base
                for t in rep.terms
            )
            assert abs(rep.price - recombined) <= 1e-12


# ---------------------------------------------------------------------------
# grouped terminal route against the path-space oracle
# ---------------------------------------------------------------------------

def random_crr_off_node(rng, max_steps=12):
    """A CRR market and two strikes at geometric midpoints of neighbouring
    terminal nodes, so no rounding of ``S_T`` can move a node across them."""
    n = int(rng.integers(1, max_steps + 1))
    u = float(rng.uniform(1.02, 1.3))
    d = float(rng.uniform(0.75, 0.98))
    r = float(rng.uniform(1.0, 1.01))
    m = build_crr(u, d, r, float(rng.uniform(0.2, 0.8)), n, float(rng.uniform(50, 150)))
    k = int(rng.integers(0, n))
    K = m.s0 * u ** (k + 0.5) * d ** (n - k - 0.5)
    return m, K, K * u / d


def grouped_route_cases(rng):
    """Random markets (N <= 3, support <= 3) and CRR markets (N <= 12)."""
    # 2.2 = 1.1 * 2.0: two paths end at X_T = 1 by log sums a bit apart
    steps = tuple(((v, 0.5), (1.0 / v, 0.5)) for v in (1.1, 2.0, 2.2))
    yield LatticeMarket(3, 1.0, 1.0, steps, (0.0,) * 3), payoff_european_call(1.5)
    for _ in range(60):
        m = random_market(rng, max_steps=3, max_support=3)
        yield m, random_payoff(rng, m.s0)[3]
    for i in range(40):
        m, K, K2 = random_crr_off_node(rng)
        yield m, build_payoff(PAYOFF_KINDS[i % len(PAYOFF_KINDS)], K, K2)


def path_space_powers(m, qs, payoff):
    """Per-term ``(E_Q1(phi), E_Q(phi))`` on the induced path experiment."""
    exp = induced_experiment(m, qs)
    paths = np.array(exp.outcomes, dtype=np.int64).reshape(exp.size, m.steps)
    prices = path_prices(m, paths)
    return [(float(t.terminal.eval_many(prices[:, -1]) @ exp.measure("Q1")),
             float(t.terminal.eval_many(prices[:, -1]) @ exp.measure("Q")))
            for t in payoff.terms]


class TestGroupedRoute:
    def test_powers_equal_path_space_powers(self):
        rng = np.random.default_rng(RNG_SEED)
        for m, payoff in grouped_route_cases(rng):
            qs = solve_martingale_measures(m).designated()
            report = price_via_tests(m, qs, payoff)
            for term, (alt, base) in zip(report.terms,
                                         path_space_powers(m, qs, payoff)):
                assert abs(term.power_alt - alt) <= 1e-12
                assert abs(term.power_base - base) <= 1e-12

    def test_np_decomposition_matches_path_space_powers(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(30):
            m, K, _ = random_crr_off_node(rng)
            qs = solve_martingale_measures(m).designated()
            call = payoff_european_call(K)
            dec = np_decomposition(m, qs, call)
            ((alt, base),) = path_space_powers(m, qs, call)
            assert abs(dec.price - (m.s0 * alt - m.discount * K * base)) <= 1e-12

    def test_large_crr_prices_agree_with_binomial_sum(self):
        u, d, r, n = 1.01, 0.99, 1.0001, 4096
        m = build_crr(u, d, r, 0.5, n, 100.0)
        qs = solve_martingale_measures(m).designated()
        K = 101.3
        call = payoff_european_call(K)
        report = price_via_tests(m, qs, call)
        direct = price_direct(m, qs, call)
        dec = np_decomposition(m, qs, call)
        assert abs(report.price - direct) <= 1e-12 * direct
        assert abs(dec.price - direct) <= 1e-12 * direct
        q = (r - d) / (u - d)
        k = np.arange(n + 1)
        log_pmf = (math.lgamma(n + 1) - np.array([math.lgamma(i + 1) for i in k])
                   - np.array([math.lgamma(n - i + 1) for i in k])
                   + k * math.log(q) + (n - k) * math.log1p(-q))
        s_T = 100.0 * np.exp(k * math.log(u) + (n - k) * math.log(d))
        oracle = r ** -n * float(np.exp(log_pmf) @ np.maximum(s_T - K, 0.0))
        assert abs(direct - oracle) <= 1e-9 * oracle


class TestBarrierLevel:
    def test_barrier_validated(self):
        with pytest.raises(InvalidParams):
            payoff_barrier_up_out(5.0, 0.0)
        with pytest.raises(InvalidParams):
            PayoffTerm(1.0, 5.0, payoff_european_call(5.0).terms[0].terminal, -1.0)

    def test_one_term_shape(self):
        """A term is a terminal test plus a knock-out level; an infinite
        level (the default) makes it a test of ``S_T`` alone."""
        import dataclasses

        names = [f.name for f in dataclasses.fields(PayoffTerm)]
        assert names == ["coeff", "strike", "terminal", "barrier", "label"]
        call = payoff_european_call(5.0).terms[0]
        assert call.barrier == math.inf and call.terminal_only
        assert payoff_barrier_up_out(5.0, math.inf).terminal_only
        knock = payoff_barrier_up_out(5.0, 20.0).terms[0]
        assert knock.barrier == 20.0 and not knock.terminal_only
        assert knock.terminal == call.terminal
        with pytest.raises(InvalidParams):
            PayoffTerm(1.0, 5.0, call.terminal, math.nan)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

class TestDynamicPrice:
    def oracle(self, m, qs, payoff_fn, state):
        """E_Q[H | node] discounted back only over the remaining steps."""
        num = den = 0.0
        for w in brute_paths(m):
            if tuple(w[: state.t]) != state.moves:
                continue
            spot = m.s0
            for j, i in enumerate(w):
                spot *= m.returns[j][i][0] * (1.0 + m.bond_rates[j])
            pw = brute_prob(m, qs, w)
            num += pw * payoff_fn(spot)
            den += pw
        tail_bond = 1.0
        for r in m.bond_rates[state.t:]:
            tail_bond *= 1.0 + r
        return num / den / tail_bond

    def test_matches_conditional_expectation(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(40):
            m = random_market(rng, max_steps=4)
            if m.steps < 2:
                continue
            qs = solve_martingale_measures(m).designated()
            kind, K, K2, payoff, fn = random_payoff(rng, m.s0)
            t = int(rng.integers(1, m.steps))
            moves = tuple(
                int(rng.integers(0, len(m.returns[j]))) for j in range(t)
            )
            state = PathState(t, moves)
            got = dynamic_price(m, qs, payoff, state)
            assert abs(got - self.oracle(m, qs, fn, state)) <= 1e-12

    def test_terminal_node_is_intrinsic(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        qs = solve_martingale_measures(m).designated()
        call = payoff_european_call(5.0)
        assert dynamic_price(m, qs, call, PathState(2, (0, 0))) == pytest.approx(11.0)
        assert dynamic_price(m, qs, call, PathState(2, (1, 1))) == 0.0

    def test_maturity_tie_window_is_that_of_earlier_nodes(self):
        """With every move observed no draw is left; a strike is at the node
        within ``TIE_TOL`` units of the step's log gap, as before maturity,
        so one 5e-10 below the node (2.5e-9 units of the log gap 0.2) is no
        tie at any date."""
        m = build_crr(1.1, 0.9, 1.0, 0.5, 2, 100.0)
        qs = solve_martingale_measures(m).designated()
        q_up = float(qs[1][0])
        for rel, pays in ((0.0, (0.0, 0.0)), (5e-10, (q_up, 1.0))):
            digital = payoff_digital(121.0 * (1.0 - rel))
            got = [dynamic_price(m, qs, digital, PathState(t, (0,) * t)) for t in (1, 2)]
            assert got == pytest.approx(pays, abs=1e-15), rel

    def test_root_state_recovers_the_price(self):
        rng = np.random.default_rng(RNG_SEED)
        m = random_market(rng, max_steps=3)
        qs = solve_martingale_measures(m).designated()
        call = payoff_european_call(m.s0)
        assert dynamic_price(m, qs, call, PathState(0, ())) == pytest.approx(
            price_direct(m, qs, call), abs=1e-13
        )

    def test_deep_node_matches_exact_binomial_sum(self):
        """CRR N=65536 at t = N/2 with half the observed moves up: the node
        is pinned in count units, not re-based on a float product of t
        returns.  The reference is the binomial sum over the remaining N/2
        steps, evaluated with mpmath at 60 digits from the exact binary
        values the market stores (``u/r``, ``d/r``, the bond factor
        ``1 + (r - 1)``, ``q = (1 - d/r) / (u/r - d/r)``)."""
        m = build_crr(1.0008, 0.9992, 1.0000001, 0.5, 65536, 100.0)
        qs = solve_martingale_measures(m).designated()
        half = 65536 // 2
        state = PathState(half, (0, 1) * (half // 2))
        got = dynamic_price(m, qs, payoff_european_call(100.0), state)
        assert abs(got / 5.3818119438765018 - 1.0) <= 1e-13

    def test_path_dependent_rejected(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        qs = solve_martingale_measures(m).designated()
        with pytest.raises(PathDependenceUnsupported):
            dynamic_price(m, qs, payoff_barrier_up_out(5.0, 10.0), PathState(1, (0,)))

    def test_tower_property(self):
        """Price at t is the q-average of prices at t+1, one bond step back."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            m = random_market(rng, max_steps=3)
            if m.steps < 2:
                continue
            qs = solve_martingale_measures(m).designated()
            _, _, _, payoff, _ = random_payoff(rng, m.s0)
            root = dynamic_price(m, qs, payoff, PathState(0, ()))
            step = (1.0 + m.bond_rates[0])
            avg = sum(
                float(qs[0][i]) * dynamic_price(m, qs, payoff, PathState(1, (i,)))
                for i in range(len(m.returns[0]))
            )
            assert abs(root - avg / step) <= 1e-12


# ---------------------------------------------------------------------------
# Neyman-Pearson decomposition
# ---------------------------------------------------------------------------

class TestNpDecomposition:
    def test_risk_identity_random_markets(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(60):
            m = random_market(rng, max_steps=3)
            qs = solve_martingale_measures(m).designated()
            K = float(m.s0 * rng.uniform(0.3, 2.0))
            dec = np_decomposition(m, qs, payoff_european_call(K))
            closed = (m.s0 - dec.price) / (m.s0 + K * m.discount)
            assert abs(dec.risk - closed) <= 1e-12
            direct = price_direct(m, qs, payoff_european_call(K))
            assert abs(dec.price - direct) <= 1e-12

    def test_risk_is_minimal_exhaustively(self):
        from lecam import induced_experiment

        rng = np.random.default_rng(RNG_SEED)
        checked = 0
        while checked < 25:
            m = random_market(rng, max_steps=2, max_support=3)
            sizes = 1
            for j in range(m.steps):
                sizes *= len(m.returns[j])
            if sizes > 12:
                continue
            qs = solve_martingale_measures(m).designated()
            K = float(m.s0 * rng.uniform(0.3, 2.0))
            dec = np_decomposition(m, qs, payoff_european_call(K))
            exp = induced_experiment(m, qs)
            for bits in itertools.product((0.0, 1.0), repeat=exp.size):
                t = RTest.from_vector(exp, bits)
                assert dec.risk <= bayes_risk(exp, "Q", "Q1", t, dec.priors) + 1e-12
            checked += 1

    def test_price_equals_price_via_tests_bitwise(self):
        """``np`` reads the masses of ``price_via_tests`` at the strike's
        level: two-point, three-point, multi-class and CRR markets."""
        rng = np.random.default_rng(RNG_SEED)
        markets = [random_market(rng, max_steps=5, max_support=3) for _ in range(40)]
        markets += [random_class_market(rng, max_steps=8) for _ in range(40)]
        markets += [random_crr_off_node(rng)[0] for _ in range(20)]
        for m in markets:
            qs = solve_martingale_measures(m).designated()
            for K in (0.0, float(m.s0 * rng.uniform(0.3, 2.0))):
                call = payoff_european_call(K)
                dec = np_decomposition(m, qs, call)
                assert dec.price == price_via_tests(m, qs, call).price
                assert set(dec.test.values) == {"x <= cutoff", "x > cutoff"}
                assert dec.test.values["x <= cutoff"] == 0.0

    def test_two_class_crr_beyond_the_sorted_law(self):
        """Two bond rates give two return classes of 4097 atoms each: their
        sorted law would need 16.8M states, beyond the state cap."""
        n = 8192
        doc = {"N": n, "T": 1.0, "s0": 100.0,
               "bond": {"r_simple_per_step": [1e-6] * (n // 2) + [3e-6] * (n // 2)},
               "returns": {"type": "crr", "u": 1.0025, "d": 0.9975, "p": 0.5}}
        m = market_from_json(doc)
        assert 4097 ** 2 > limits.max_states()
        qs = solve_martingale_measures(m).designated()
        call = payoff_european_call(101.0)
        dec = np_decomposition(m, qs, call)
        assert dec.price == price_via_tests(m, qs, call).price
        assert dec.price == pytest.approx(price_direct(m, qs, call), rel=1e-12)

    def test_non_call_payoffs_rejected(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 1, 4.0)
        qs = solve_martingale_measures(m).designated()
        for payoff in (payoff_european_put(5.0), payoff_digital(5.0),
                       payoff_straddle(5.0)):
            with pytest.raises(NotACall):
                np_decomposition(m, qs, payoff)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

class TestPriceBounds:
    def oracle_bounds(self, m, payoff_fn):
        sols = solve_martingale_measures(m)
        lo, hi = math.inf, -math.inf
        disc = m.discount
        for combo in itertools.product(*[s.vertices for s in sols.per_step]):
            qs = [np.array(v) for v in combo]
            total = 0.0
            for w in brute_paths(m):
                spot = m.s0
                for j, i in enumerate(w):
                    spot *= m.returns[j][i][0] * (1.0 + m.bond_rates[j])
                total += brute_prob(m, qs, w) * payoff_fn(spot)
            p = disc * total
            lo, hi = min(lo, p), max(hi, p)
        return lo, hi

    def test_trinomial_fixture(self):
        tri = LatticeMarket(
            1, 1.0, 1.0, (((1.5, 1 / 3), (1.0, 1 / 3), (0.5, 1 / 3)),), (0.0,)
        )
        lo, hi = price_bounds(tri, payoff_european_call(1.0))
        assert lo == 0.0
        assert hi == pytest.approx(0.25, abs=1e-15)

    def test_matches_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(30):
            m = random_market(rng, max_steps=3)
            kind, K, K2, payoff, fn = random_payoff(rng, m.s0)
            lo, hi = price_bounds(m, payoff)
            olo, ohi = self.oracle_bounds(m, fn)
            assert abs(lo - olo) <= 1e-12
            assert abs(hi - ohi) <= 1e-12
            assert lo <= hi + 1e-15

    def test_complete_market_pins_the_price(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 3, 4.0)
        qs = solve_martingale_measures(m).designated()
        call = payoff_european_call(5.0)
        lo, hi = price_bounds(m, call)
        p = price_direct(m, qs, call)
        assert lo == pytest.approx(p, abs=1e-13)
        assert hi == pytest.approx(p, abs=1e-13)

    def test_designated_price_sits_inside(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            m = random_market(rng, max_steps=3)
            qs = solve_martingale_measures(m).designated()
            _, _, _, payoff, _ = random_payoff(rng, m.s0)
            lo, hi = price_bounds(m, payoff)
            p = price_direct(m, qs, payoff)
            assert lo - 1e-12 <= p <= hi + 1e-12

    def test_path_dependent_rejected(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        with pytest.raises(PathDependenceUnsupported):
            price_bounds(m, payoff_barrier_up_out(5.0, 10.0))


class TestClosedFormPowers:
    """Terminal prices read test powers from binomial tails
    (``lattice.terminal_log_masses``) instead of a sorted law of ``X_T``."""

    @staticmethod
    def large_cases():
        u = math.exp(0.2 / 256)
        crr = build_crr(u, 1 / u, 1 + 0.01 / 65536, 0.5, 65536, 100.0)
        tri_step = ((1.006, 0.25), (1.0, 0.5), (0.994, 0.25))
        tri = LatticeMarket(2048, 1.0, 100.0, (tri_step,) * 2048, (0.0,) * 2048)
        first = ((1.0044 / 1.00001, 0.5), (0.9956 / 1.00001, 0.5))
        second = ((1.0066, 0.5), (0.9934, 0.5))
        two = LatticeMarket(2048, 1.0, 100.0, (first,) * 1024 + (second,) * 1024,
                            (1e-5,) * 1024 + (0.0,) * 1024)
        # prices summed over the sorted grouped law of X_T (a 2.1M-atom law
        # for the trinomial market), the route these replace
        return [
            (crr, payoff_european_call(100.5), 8.198143726409379),
            (crr, payoff_european_put(70.0), 0.2175980558080231),
            (tri, payoff_european_call(100.3), 7.510817772122419),
            (tri, payoff_digital(97.0), 0.5251880121774257),
            (two, payoff_straddle(99.0), 20.05984602297861),
        ]

    def test_large_n_prices_match_sorted_law_sums(self):
        for m, payoff, want in self.large_cases():
            qs = solve_martingale_measures(m).designated()
            assert price_direct(m, qs, payoff) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert price_via_tests(m, qs, payoff).price == pytest.approx(
                want, rel=1e-12, abs=0.0)

    def test_multi_cut_and_constant_tests_match_path_powers(self):
        """Tests with several cuts (off the nodes, so a float comparison in
        the oracle is exact) and tests without any cut."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(30):
            m = random_market(rng, max_steps=5)
            qs = solve_martingale_measures(m).designated()
            nodes = np.unique([m.s0 * m.bond_factor(m.steps) * brute_ratio(m, w)
                               for w in brute_paths(m)])
            mids = (nodes[1:] + nodes[:-1]) / 2 if len(nodes) > 1 else nodes + 1.0
            cuts = np.sort(rng.choice(mids, size=min(3, len(mids)), replace=False))
            opens = rng.random(len(cuts) + 1)
            tests = [pricing.TerminalTest(tuple(cuts), tuple(opens), tuple(rng.random(len(cuts)))),
                     pricing.TerminalTest((), (float(opens[0]),), ())]
            payoff = Payoff(tuple(PayoffTerm(float(rng.uniform(-1, 1)), float(rng.uniform(0, 3)), t)
                                  for t in tests))
            powers, value = brute_term_powers(m, qs, payoff)
            report = price_via_tests(m, qs, payoff)
            for term, (alt, base) in zip(report.terms, powers):
                assert abs(term.power_alt - alt) <= 1e-12
                assert abs(term.power_base - base) <= 1e-12
            assert abs(price_direct(m, qs, payoff) - value) <= 1e-12 * max(1.0, abs(value))

    def test_atm_digitals_match_count_oracle(self):
        """Strikes on the at-the-money node: ``d = 1/u`` and ``K = s0``, so a
        path ends above the strike exactly when it has more than ``N/2`` up
        moves, whatever the rounding of the node price.  The digital's powers
        stay the same inside a sum with a knock-out term, and at maturity the
        node on the strike is the same tie: the digital pays nothing there,
        whichever order its moves came in."""
        markets = 0
        for u in np.round(np.arange(1.01, 1.495, 0.01), 2):
            q = 1.0 / (u + 1.0)  # (1 - d) / (u - d)
            for n in range(2, 13, 2):
                m = build_crr(float(u), 1 / float(u), 1.0, 0.5, n, 100.0)
                qs = solve_martingale_measures(m).designated()
                digital = payoff_digital(100.0)
                want = math.fsum(math.comb(n, k) * q ** k * (1 - q) ** (n - k)
                                 for k in range(n // 2 + 1, n + 1))
                assert abs(price_direct(m, qs, digital) - want) <= 1e-12, (u, n)
                alone = price_via_tests(m, qs, digital)
                assert abs(alone.price - want) <= 1e-12, (u, n)
                both = Payoff(digital.terms + payoff_barrier_up_out(100.0, 100.0 * u ** 3).terms)
                beside = price_via_tests(m, qs, both).terms[0]
                assert (beside.power_alt, beside.power_base) == (
                    alone.terms[0].power_alt, alone.terms[0].power_base), (u, n)
                half = n // 2
                for moves in ((0,) * half + (1,) * half, (1,) * half + (0,) * half,
                              (0, 1) * half, (1, 0) * half):
                    assert dynamic_price(m, qs, digital, PathState(n, moves)) == 0.0, (u, moves)
                markets += 1
        assert markets == 294

    def test_terminal_routes_never_build_the_product_law(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("terminal prices must not build the law of X_T")

        monkeypatch.setattr(lattice, "terminal_log_atoms", forbidden)
        monkeypatch.setattr(lan, "terminal_log_atoms", forbidden)
        crr = build_crr(1.1, 0.9, 1.01, 0.5, 12, 100.0)
        qs = solve_martingale_measures(crr).designated()
        straddle = payoff_straddle(101.0)
        direct = price_direct(crr, qs, straddle)
        assert price_via_tests(crr, qs, straddle).price == pytest.approx(direct, rel=1e-12)
        call = payoff_european_call(101.0)
        assert np_decomposition(crr, qs, call).price == price_via_tests(crr, qs, call).price
        assert dynamic_price(crr, qs, straddle, PathState(1, (0,))) > 0.0
        tri = table_market([(1.3, 1.02, 0.8)] * 8, (0.0,) * 8)
        lower, upper = price_bounds(tri, payoff_european_call(2.1))
        assert lower < upper
        bs = BSModel(100.0, 1.0, 0.2, 0.01)
        for path in (crr_tangent(1.0, 2.0), symmetric_trinomial_tangent([0.25, 0.5, 0.25])):
            rows = convergence_study(path, schedule_family(bs), straddle, bs, [16, 64])
            assert rows[-1].abs_gap < rows[0].abs_gap


def table_market(tables, rates, s0=2.0):
    """Market whose step ``j`` has the values ``tables[j]`` (uniform
    real-world probabilities) and simple bond rate ``rates[j]``."""
    returns = tuple(tuple((v, 1.0 / len(vals)) for v in vals) for vals in tables)
    return LatticeMarket(len(tables), 1.0, s0, returns, tuple(rates))


def alternating(a, b, n):
    return [a if j % 2 == 0 else b for j in range(n)]


def priced_rows(monkeypatch):
    """The passes of ``price_bounds``: one entry per ``_terminal_powers``
    call, made on entry (so a cap that fires first leaves none), then set
    to the number of rows it priced, one per vertex multiset assignment."""
    calls = []
    inner = pricing._terminal_powers

    def counted(*args, **kwargs):
        calls.append(None)
        powers = inner(*args, **kwargs)
        calls[-1] = powers.shape[1]
        return powers

    monkeypatch.setattr(pricing, "_terminal_powers", counted)
    return calls


def multiset_count(m):
    """Product over return classes of ``C(n_c + V_c - 1, V_c - 1)``."""
    sols = solve_martingale_measures(m)
    classes = {}
    for j in range(m.steps):
        key = tuple(v for v, _ in m.returns[j])
        classes.setdefault(key, []).append(len(sols.per_step[j].vertices))
    return math.prod(math.comb(len(vs) + vs[0] - 1, vs[0] - 1)
                     for vs in classes.values())


TRI_A = (1.05, 1.0, 0.95)            # two vertices, one a point mass
TRI_B = (1.08, 0.97, 0.93)           # two vertices of support two
QUAD_3 = (1.1, 1.0, 0.95, 0.9)       # three vertices
QUAD_4 = (1.1, 1.04, 0.96, 0.9)      # four vertices
RATES6 = (0.0, 0.01, 0.003, 0.02, 0.0, 0.005)


class TestPriceBoundsMultisets:
    """Steps of one return class are exchangeable, so ``price_bounds``
    prices one measure per vertex multiset per class; these checks compare
    it with the ordered enumeration of one vertex per step and with closed
    forms far beyond its reach."""

    MARKETS = (
        ([TRI_A] * 6, (0.0,) * 6),
        ([TRI_B] * 5, (0.004,) * 5),
        ([QUAD_3] * 5, (0.0,) * 5),
        ([QUAD_4] * 5, (0.002,) * 5),
        (alternating(TRI_B, QUAD_4, 6), (0.0,) * 6),
        (alternating(QUAD_3, TRI_A, 6), RATES6),
        (alternating(TRI_B, QUAD_4, 6), RATES6),
    )

    @staticmethod
    def ordered_bounds(m, strike):
        """Min and max over every ordered tuple of one vertex per step, each
        priced on the enumerated paths, for call, put, digital, straddle."""
        paths = enumerate_paths(m)
        s_T = path_prices(m, paths)[:, -1]
        call = np.maximum(s_T - strike, 0.0)
        put = np.maximum(strike - s_T, 0.0)
        values = np.stack([call, put, (s_T > strike).astype(float), call + put], axis=1)
        prices = np.array([
            m.discount * (path_probabilities(m, paths, [np.array(v) for v in combo])
                          @ values)
            for combo in itertools.product(*[s.vertices for s in
                                             solve_martingale_measures(m).per_step])
        ])
        return prices.min(axis=0), prices.max(axis=0)

    def test_multisets_match_ordered_enumeration(self, monkeypatch):
        payoffs = (payoff_european_call, payoff_european_put, payoff_digital,
                   payoff_straddle)
        for tables, rates in self.MARKETS:
            m = table_market(tables, rates)
            strike = m.s0 * m.bond_factor(m.steps) * 1.0137
            lows, highs = self.ordered_bounds(m, strike)
            rows = priced_rows(monkeypatch)
            for make, lo_want, hi_want in zip(payoffs, lows, highs):
                lo, hi = price_bounds(m, make(strike))
                assert abs(lo - lo_want) <= 1e-12
                assert abs(hi - hi_want) <= 1e-12
            assert rows == [multiset_count(m)] * len(payoffs)
            monkeypatch.undo()

    @staticmethod
    def three_classes():
        """Three interleaved classes, one of them holding two step kinds
        (equal values, different real-world probabilities)."""
        tri = tuple(zip(TRI_B, (0.2, 0.5, 0.3)))
        tri_other = tuple(zip(TRI_B, (0.6, 0.1, 0.3)))
        quad = tuple((v, 0.25) for v in QUAD_4)
        pair = ((1.05, 0.4), (0.97, 0.6))
        cycle = (tri, quad, tri_other, pair, tri, quad, pair)
        return LatticeMarket(7, 1.0, 2.0, cycle, RATES6 + (0.004,))

    def test_step_kinds_within_classes_match_ordered_enumeration(self, monkeypatch):
        """Classes, not step kinds, are what the multisets range over."""
        m = self.three_classes()
        assert len(m.returns.kinds) == 4 and len(m.classes.kinds) == 3
        strike = m.s0 * m.bond_factor(m.steps) * 0.9871
        lows, highs = self.ordered_bounds(m, strike)
        rows = priced_rows(monkeypatch)
        for make, lo_want, hi_want in zip((payoff_european_call, payoff_european_put,
                                           payoff_digital, payoff_straddle), lows, highs):
            lo, hi = price_bounds(m, make(strike))
            assert abs(lo - lo_want) <= 1e-12
            assert abs(hi - hi_want) <= 1e-12
        assert rows == [multiset_count(m)] * 4

    def test_batch_matches_one_law_per_assignment(self):
        """The batched pass against :func:`law_oracles.product_range`, one
        law per assignment, on three strikes (the forward among them, a
        node where a step has the value one) and four payoffs."""
        payoffs = (payoff_european_call, payoff_european_put, payoff_digital,
                   payoff_straddle)
        markets = [table_market(tables, rates) for tables, rates in self.MARKETS]
        markets.append(self.three_classes())
        rng = np.random.default_rng(RNG_SEED)
        markets += [random_market(rng, max_steps=5) for _ in range(30)]
        for m in markets:
            forward = m.s0 * m.bond_factor(m.steps)
            for strike, make in itertools.product(
                    (forward * 0.9871, forward, forward * 1.0137), payoffs):
                got = price_bounds(m, make(strike))
                want = law_oracles.product_range(m, make(strike))
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (m, strike, make)

    def test_rows_cut_across_chunks_sum_as_in_one_chunk(self, monkeypatch):
        """Chunks of a few atoms cut rows and split the blocks of rows.  With
        the binomial tails evaluated one element at a time (``_binom``
        picks its evaluation path by the size of a call, which moves the
        last bits), every bound equals the one-chunk run bitwise; with the
        library's own tails, to within rounding."""
        cases = [(table_market([QUAD_4] * 5, (0.002,) * 5), payoff_straddle),
                 (table_market(alternating(TRI_B, QUAD_4, 6), RATES6), payoff_european_call),
                 (table_market([TRI_B] * 9, (0.004,) * 9), payoff_digital),
                 (self.three_classes(), payoff_european_put)]

        def bounds():
            return np.array([price_bounds(m, make(m.s0 * m.bond_factor(m.steps)))
                             for m, make in cases])

        def one_at_a_time(f):
            def each(k, n, p, at=None):
                both = np.broadcast(k, n, p if at is None else np.ravel(p)[at])
                return np.array([f(*args) for args in both]).reshape(both.shape)
            return each

        one_chunk = lattice._ROW_CHUNK
        for elementwise in (False, True):
            if elementwise:
                monkeypatch.setattr(lattice, "_binom_cdf", one_at_a_time(lattice._binom_cdf))
                monkeypatch.setattr(lattice, "_binom_pmf", one_at_a_time(lattice._binom_pmf))
            monkeypatch.setattr(lattice, "_ROW_CHUNK", one_chunk)
            whole = bounds()
            for chunk in (1, 3, 7):
                monkeypatch.setattr(lattice, "_ROW_CHUNK", chunk)
                cut = bounds()
                if elementwise:
                    assert cut.tolist() == whole.tolist()
                else:
                    assert cut == pytest.approx(whole, rel=1e-14, abs=0.0)

    def test_batch_memory_is_bounded_by_the_chunk(self):
        """2925 multisets and 222,329 atoms at N = 24: the rows are built in
        blocks of about a chunk of atoms, so the peak (3.2 MB) stays far
        below what holding every atom at once takes (110 MB), and below the
        18 MB of blocks eight times as large."""
        m = table_market([(0.8, 0.95, 1.05, 1.3)] * 24, (0.0,) * 24, s0=1.0)
        assert multiset_count(m) == 2925
        tracemalloc.start()
        try:
            price_bounds(m, payoff_european_call(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_large_n_against_binomial_convolution(self, monkeypatch):
        """Three values, none equal to one: both vertices have support two,
        so k steps on the first vertex and n - k on the second give X_T by
        the up counts of two independent binomials.  2^40 ordered choices,
        41 multisets."""
        up, mid, low, n, r = 1.1, 0.95, 0.9, 40, 0.001
        m = table_market([(up, mid, low)] * n, (r,) * n, s0=1.0)
        forward = (1.0 + r) ** n
        strike = forward * 1.0137
        a = (1.0 - mid) / (up - mid)
        b = (1.0 - low) / (up - low)

        def pmf(k, p):
            return np.array([math.comb(k, i) * p ** i * (1.0 - p) ** (k - i)
                             for i in range(k + 1)])

        spots = {}
        for k in range(n + 1):
            i = np.arange(k + 1)[:, None]
            j = np.arange(n - k + 1)[None, :]
            spots[k] = (forward * np.exp((i + j) * math.log(up) + (k - i) * math.log(mid)
                                         + (n - k - j) * math.log(low)),
                        np.outer(pmf(k, a), pmf(n - k, b)))
        gap = min(np.abs(np.log(s / strike)).min() for s, _ in spots.values())
        assert gap > 1e-6   # no terminal node near the strike
        for make, fn in ((payoff_european_call, lambda s: np.maximum(s - strike, 0.0)),
                         (payoff_european_put, lambda s: np.maximum(strike - s, 0.0)),
                         (payoff_straddle, lambda s: np.abs(s - strike))):
            prices = [float((w * fn(s)).sum()) / forward for s, w in spots.values()]
            rows = priced_rows(monkeypatch)
            lo, hi = price_bounds(m, make(strike))
            assert rows == [n + 1]
            monkeypatch.undo()
            assert lo == pytest.approx(min(prices), rel=1e-11)
            assert hi == pytest.approx(max(prices), rel=1e-11)

    def test_law_builds_count_multisets(self, monkeypatch):
        cases = (
            (table_market([TRI_A] * 12, (0.0,) * 12), 13),
            (table_market([QUAD_4] * 6, (0.0,) * 6), math.comb(9, 3)),
            (table_market(alternating(TRI_B, QUAD_4, 7), (0.0,) * 7),
             math.comb(5, 1) * math.comb(6, 3)),
            (table_market(alternating(QUAD_3, TRI_A, 6), RATES6),
             math.comb(5, 2) * math.comb(4, 1)),
        )
        for m, want in cases:
            assert multiset_count(m) == want
            rows = priced_rows(monkeypatch)
            price_bounds(m, payoff_european_call(m.s0))
            assert rows == [want]
            monkeypatch.undo()

    def test_cap_counts_multisets_before_any_law(self, monkeypatch):
        calls = priced_rows(monkeypatch)
        big = table_market([QUAD_4] * 80, (0.0,) * 80)
        assert math.comb(83, 3) == 91881 > limits.DEFAULT_MAX_COMBOS
        with pytest.raises(SizeLimit, match="vertex multisets exceed cap 65536"):
            price_bounds(big, payoff_european_call(2.0))
        # 84 assignments; the class's C(9, 3) = 84 count states fit the same cap
        m = table_market([QUAD_4] * 6, (0.0,) * 6)
        monkeypatch.setenv("LECAM_MAX_PATHS", "83")
        with pytest.raises(SizeLimit, match="vertex multisets exceed cap 83"):
            price_bounds(m, payoff_european_call(2.0))
        assert calls == []
        monkeypatch.setenv("LECAM_MAX_PATHS", "84")
        price_bounds(m, payoff_european_call(2.0))
        assert calls == [84]

    def test_stops_at_the_first_short_block(self, monkeypatch):
        """A row whose ``Q1`` masses fall short fails before the next block
        of rows is built: with one row per block, no row after it is priced."""
        m = table_market([TRI_B] * 5, (0.004,) * 5)
        short, priced = 2, []
        inner = lattice._add_row_tails

        def shortened(*args):
            inner(*args)
            rows, out = args[-2:]
            priced.extend(rows.tolist())
            out[rows[rows == short], 1] = 0.0

        monkeypatch.setattr(lattice, "_add_row_tails", shortened)
        monkeypatch.setattr(lattice, "_ROW_CHUNK", 1)
        with pytest.raises(SelfCheckFailed, match="Q1 masses sum to 0, not"):
            price_bounds(m, payoff_european_call(2.0))
        assert max(priced) == short < multiset_count(m) - 1


class TestPriceCommandOnePass:
    """``lecam price`` reads both of its prices from one set of test powers."""

    @staticmethod
    def payoffs(m):
        """Per payoff its spec and how often a price job builds terminal
        masses and rolls back the lattice for it."""
        strike = 0.97 * m.s0 * m.bond_factor(m.steps)
        call = {"type": "call", "K": strike}
        barrier = {"type": "barrier_up_out", "K": strike, "B": 1.12 * m.s0}
        return [(call, 1, 0), (barrier, 0, 1), ({"type": "sum", "terms": [call, barrier]}, 1, 1)]

    def test_one_pass_prints_the_public_prices_bitwise(self, tmp_path, monkeypatch, capsys):
        import lecam.cli

        names = ("as_step_measures", "terminal_log_masses", "backward_induction")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, inner=getattr(pricing, name), name=name, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(pricing, name, counted)
        records = []  # the unrounded values each job prints
        emit = lecam.cli._emit

        def recorded(args, record, text=None):
            records.append(record)
            emit(args, record, text)

        monkeypatch.setattr(lecam.cli, "_emit", recorded)
        market_path, payoff_path = tmp_path / "m.json", tmp_path / "p.json"
        for tables, rates in TestPriceBoundsMultisets.MARKETS:
            doc = market_to_json(table_market(tables, rates))
            market_path.write_text(json.dumps(doc))
            m = market_from_json(doc)
            q = solve_martingale_measures(m)
            for spec, masses, rollbacks in self.payoffs(m):
                payoff_path.write_text(json.dumps(spec))
                calls.update(dict.fromkeys(names, 0))
                rc = lecam.cli.main(["price", "--market", str(market_path), "--payoff",
                                     str(payoff_path), "--measure", "designated"])
                assert rc == 0, capsys.readouterr().err
                assert calls == {"as_step_measures": 1, "terminal_log_masses": masses,
                                 "backward_induction": rollbacks}
                payoff = payoff_from_json(spec)
                report = price_via_tests(m, q, payoff)
                printed = records.pop()
                assert [x.hex() for x in (printed["price_direct"], printed["price_via_tests"])] \
                    == [price_direct(m, q, payoff).hex(), report.price.hex()]
                assert [(t["power_alt"].hex(), t["power_base"].hex())
                        for t in printed["report"]["terms"]] \
                    == [(t.power_alt.hex(), t.power_base.hex()) for t in report.terms]


# ---------------------------------------------------------------------------
# payoff plumbing
# ---------------------------------------------------------------------------

class TestPayoffs:
    def test_indicators_are_strict_at_the_strike(self):
        K = 5.0
        call = payoff_european_call(K).terms[0]
        put = payoff_european_put(K).terms[0]
        assert call.terminal(K) == 0.0
        assert call.terminal(K + 1e-9) == 1.0
        assert put.terminal(K) == 0.0
        assert put.terminal(K - 1e-9) == 1.0

    def test_strangle_orders_strikes(self):
        with pytest.raises(InvalidParams):
            payoff_strangle(6.0, 5.0)

    def test_negative_strike_rejected(self):
        with pytest.raises(InvalidParams):
            payoff_european_call(-1.0)

    def test_non_finite_strikes_rejected(self):
        for strike in (math.nan, math.inf, -math.inf):
            for make in (payoff_european_call, payoff_european_put, payoff_digital,
                         lambda k: payoff_barrier_up_out(k, 20.0)):
                with pytest.raises(InvalidParams, match="finite and nonnegative"):
                    make(strike)
            with pytest.raises(InvalidParams):
                payoff_strangle(strike, 6.0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(RNG_SEED)
        m = random_market(rng, max_steps=3)
        qs = solve_martingale_measures(m).designated()
        for doc in (
            {"type": "call", "K": 5.0},
            {"type": "put", "K": 5.0},
            {"type": "digital", "K": 5.0},
            {"type": "straddle", "K": 5.0},
            {"type": "strangle", "K1": 4.0, "K2": 6.0},
            {"type": "barrier_up_out", "K": 5.0, "B": 20.0},
            {"type": "sum", "terms": [{"type": "call", "K": 4.0},
                                      {"type": "put", "K": 6.0}]},
        ):
            payoff = payoff_from_json(doc)
            back = payoff_from_json(payoff_to_json(payoff))
            assert abs(
                price_direct(m, qs, payoff) - price_direct(m, qs, back)
            ) <= 1e-15

    def test_malformed_payoff_raises(self):
        with pytest.raises(InvalidParams):
            payoff_from_json({"type": "call"})
        with pytest.raises(InvalidParams):
            payoff_from_json({"K": 5.0})
        with pytest.raises(InvalidParams):
            payoff_from_json({"type": "nope", "K": 5.0})
