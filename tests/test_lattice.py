"""Lattice-market checks against brute-force path enumeration.

Every law, price and density computed by the module is re-derived here by
explicit loops over all move tuples, so the vectorized/recombining code
paths are certified by the slowest possible oracle.
"""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import binom

from lecam import (
    InvalidParams,
    InvalidState,
    LatticeMarket,
    NoArbitrageViolation,
    Partition,
    PathState,
    SelfCheckFailed,
    SizeLimit,
    build_crr,
    complementary,
    discounted_likelihood_process,
    enumerate_paths,
    image_experiment_check,
    induced_experiment,
    is_complete,
    likelihood_ratio,
    market_from_json,
    market_to_json,
    path_prices,
    path_probabilities,
    payoff_barrier_up_out,
    payoff_european_call,
    price_direct,
    solve_martingale_measures,
    verify_mm_criterion,
    verify_representation,
)
from lecam import limits
from lecam.lattice import (
    _composition_rank,
    _compositions,
    _step_vertices,
    as_step_measures,
    backward_induction,
    count_distribution,
    multiset_log_masses,
    path_products,
    pinned_measures,
    terminal_log_atoms,
    terminal_log_masses,
)

import law_oracles
from law_oracles import terminal_log_law

RNG_SEED = 42


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_paths(m):
    return list(itertools.product(*[range(len(m.returns[j])) for j in range(m.steps)]))


def brute_prob(m, qs, path):
    p = 1.0
    for j, i in enumerate(path):
        p *= float(qs[j][i])
    return p


def brute_ratio(m, path, t=None):
    """X_t / X_0 along the path (product of discounted returns)."""
    t = m.steps if t is None else t
    x = 1.0
    for j in range(t):
        x *= m.returns[j][path[j]][0]
    return x


def brute_expect_terminal(m, qs, f):
    return sum(brute_prob(m, qs, w) * f(brute_ratio(m, w)) for w in brute_paths(m))


def dp_pair(qs):
    """Law of the first-outcome count over two-point steps, one step at a time."""
    n = len(qs)
    probs = np.zeros(n + 1)
    probs[0] = 1.0
    for j, q in enumerate(qs):
        nxt = np.zeros(n + 1)
        nxt[: j + 2] = probs[: j + 2] * q[1]
        nxt[1: j + 2] += probs[: j + 1] * q[0]
        probs = nxt
    return probs


def dp_general(qs):
    """Law of the outcome counts, one step at a time over a dict of count
    vectors; outcomes without mass are never taken.  Rows sorted."""
    k = len(qs[0])
    states = {(0,) * k: 1.0}
    for q in qs:
        nxt = {}
        for state, p in states.items():
            for i in range(k):
                if q[i] == 0.0:
                    continue
                key = state[:i] + (state[i] + 1,) + state[i + 1:]
                nxt[key] = nxt.get(key, 0.0) + p * q[i]
        states = nxt
    counts = np.array(sorted(states), dtype=np.int64)
    return counts, np.array([states[tuple(c)] for c in counts])


def _over_common_denominator(q):
    """Integers ``a`` and ``den`` with ``q == a / den`` exactly (floats are
    dyadic, so the largest denominator is a common one)."""
    fracs = [Fraction(float(x)) for x in q]
    den = max(f.denominator for f in fracs)
    return [f.numerator * (den // f.denominator) for f in fracs], den


def exact_binomial(n, p):
    """``P(Bin(n, p) = i)`` for ``i = 0..n``, exact for the float ``p`` and
    rounded once: ``C(n, i) a^i b^(n-i) / den^n`` in integers, each term from
    the one before it."""
    (a, b), den = _over_common_denominator([p, 1.0 - Fraction(float(p))])
    total = den ** n
    term = b ** n
    out = [term / total]
    for i in range(n):
        term = term * a * (n - i) // ((i + 1) * b)
        out.append(term / total)
    return np.array(out)


def exact_count_law(n, q):
    """Exact law of the outcome counts of ``n`` steps with measure ``q``
    (taken as exact rationals), each probability rounded once:
    ``{counts: prob}`` over every composition of ``n``."""
    nums, den = _over_common_denominator(q)
    k = len(q)
    total = den ** n
    fact = [math.factorial(i) for i in range(n + 1)]
    powers = [[a ** c for c in range(n + 1)] for a in nums]
    out = {}
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1,) + bars + (n + k - 1,)
        counts = tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))
        num = fact[n]
        for c in counts:
            num //= fact[c]
        for pw, c in zip(powers, counts):
            num *= pw[c]
        out[counts] = num / total
    return out


def law_l1(counts, probs, exact):
    """L1 distance between a count law and an exact ``{counts: prob}`` law."""
    got = {tuple(int(x) for x in c): float(p) for c, p in zip(counts, probs)}
    assert len(got) == len(counts)
    return sum(abs(got.get(c, 0.0) - exact.get(c, 0.0)) for c in set(got) | set(exact))


def random_market(rng, max_steps=4, max_support=3, allow_flat=True):
    """Arbitrage-free market: every step has values on both sides of 1."""
    steps = int(rng.integers(1, max_steps + 1))
    returns = []
    rates = []
    for _ in range(steps):
        k = int(rng.integers(2, max_support + 1))
        vals = [float(rng.uniform(0.3, 0.9)), float(rng.uniform(1.1, 2.5))]
        if k == 3:
            mid = float(rng.uniform(0.95, 1.05))
            vals.append(mid)
        probs = rng.random(k) + 0.1
        probs /= probs.sum()
        returns.append(tuple(zip(vals, probs)))
        rates.append(float(rng.uniform(0.0, 0.1)) if allow_flat else 0.0)
    s0 = float(rng.uniform(1.0, 10.0))
    return LatticeMarket(steps, 1.0, s0, tuple(returns), tuple(rates))


# ---------------------------------------------------------------------------
# construction and solving
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_crr_shape(self):
        m = build_crr(u=2.0, d=0.5, r=1.0, p=0.5, steps=2, s0=4.0)
        assert m.steps == 2
        assert m.s0 == 4.0
        np.testing.assert_allclose(m.step_values(0), [2.0, 0.5])
        np.testing.assert_allclose(m.step_probs(0), [0.5, 0.5])
        assert m.bond_factor(2) == 1.0
        assert m.discount == 1.0

    def test_crr_discounts_by_bond(self):
        m = build_crr(u=2.0, d=0.5, r=1.25, p=0.5, steps=1, s0=4.0)
        np.testing.assert_allclose(m.step_values(0), [1.6, 0.4])
        assert m.bond_factor(1) == pytest.approx(1.25)

    def test_bond_path_is_the_left_to_right_product(self):
        rng = np.random.default_rng(RNG_SEED)
        step = ((1.5, 0.5), (0.5, 0.5))
        for n in (1, 7, 300):
            rates = tuple(float(r) for r in rng.uniform(0.0, 0.05, n))
            m = LatticeMarket(n, 1.0, 4.0, (step,) * n, rates)
            for t in range(n + 1):
                want = 1.0
                for r in rates[:t]:
                    want *= 1.0 + r
                assert m.bond_factor(t) == want
            assert m.discount == 1.0 / want
            assert not m.bond_path.flags.writeable

    def test_rejects_nonpositive_values(self):
        with pytest.raises(InvalidParams):
            LatticeMarket(1, 1.0, 4.0, (((0.0, 0.5), (2.0, 0.5)),), (0.0,))

    def test_rejects_non_finite_inputs(self):
        good = ((1.5, 0.5), (0.5, 0.5))
        nan, inf = math.nan, math.inf
        for s0, horizon, step, rate in (
            (nan, 1.0, good, 0.0), (inf, 1.0, good, 0.0),
            (4.0, nan, good, 0.0), (4.0, inf, good, 0.0),
            (4.0, 1.0, ((nan, 0.5), (0.5, 0.5)), 0.0),
            (4.0, 1.0, ((inf, 0.5), (0.5, 0.5)), 0.0),
            (4.0, 1.0, ((1.5, nan), (0.5, 0.5)), 0.0),
            (4.0, 1.0, ((1.5, inf), (0.5, 0.5)), 0.0),
            (4.0, 1.0, good, nan), (4.0, 1.0, good, inf),
        ):
            with pytest.raises(InvalidParams):
                LatticeMarket(1, horizon, s0, (step,), (rate,))

    def test_rejects_duplicate_values(self):
        with pytest.raises(InvalidParams):
            LatticeMarket(1, 1.0, 4.0, (((1.5, 0.5), (1.5, 0.5)),), (0.0,))

    def test_rejects_bad_probs(self):
        with pytest.raises(InvalidParams):
            LatticeMarket(1, 1.0, 4.0, (((1.5, 0.7), (0.5, 0.7)),), (0.0,))
        with pytest.raises(InvalidParams):
            LatticeMarket(1, 1.0, 4.0, (((1.5, 0.0), (0.5, 1.0)),), (0.0,))

    def test_path_state_validation(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        PathState(1, (0,)).validate(m)
        with pytest.raises(InvalidState):
            PathState(3, (0, 0, 0)).validate(m)
        with pytest.raises(InvalidState):
            PathState(1, (5,)).validate(m)
        with pytest.raises(InvalidState):
            PathState(2, (0,))


class TestSolver:
    def test_crr_tau_kappa(self):
        """u=2, d=0.5, r=1: tau = (1-d/r)/(u/r-d/r) = 1/3, kappa = tau*u/r."""
        m = build_crr(u=2.0, d=0.5, r=1.0, p=0.5, steps=1, s0=4.0)
        sols = solve_martingale_measures(m)
        assert sols.complete
        q = sols.designated()[0]
        assert abs(q[0] - 1.0 / 3.0) <= 1e-15
        assert abs(q[1] - 2.0 / 3.0) <= 1e-15
        kappa = q[0] * m.step_values(0)[0]
        assert abs(kappa - 2.0 / 3.0) <= 1e-15

    def test_binomial_complete_trinomial_not(self):
        bi = build_crr(2.0, 0.5, 1.0, 0.5, 3, 4.0)
        assert is_complete(bi)
        tri = LatticeMarket(
            1, 1.0, 1.0, (((1.5, 1 / 3), (1.0, 1 / 3), (0.5, 1 / 3)),), (0.0,)
        )
        assert not is_complete(tri)
        sols = solve_martingale_measures(tri)
        assert sols.per_step[0].kind == "segment"
        verts = {tuple(np.round(v, 12)) for v in sols.per_step[0].vertices}
        assert verts == {(0.0, 1.0, 0.0), (0.5, 0.0, 0.5)}

    def test_one_sided_returns_raise(self):
        up_only = LatticeMarket(1, 1.0, 4.0, (((2.0, 0.5), (1.5, 0.5)),), (0.0,))
        with pytest.raises(NoArbitrageViolation):
            solve_martingale_measures(up_only)
        down_only = LatticeMarket(1, 1.0, 4.0, (((0.8, 0.5), (0.5, 0.5)),), (0.0,))
        with pytest.raises(NoArbitrageViolation):
            solve_martingale_measures(down_only)

    def test_uncovered_coordinate_raises(self):
        # value 2.0 cannot carry mass in any martingale measure
        m = LatticeMarket(1, 1.0, 4.0, (((1.0, 0.5), (2.0, 0.5)),), (0.0,))
        with pytest.raises(NoArbitrageViolation):
            solve_martingale_measures(m)

    def test_solutions_satisfy_identity(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            m = random_market(rng)
            sols = solve_martingale_measures(m)
            for j, step in enumerate(sols.per_step):
                vals = m.step_values(j)
                for v in step.vertices:
                    v = np.asarray(v)
                    assert abs(float(v @ vals) - 1.0) <= 1e-12
                    assert abs(float(v.sum()) - 1.0) <= 1e-12
                bc = step.barycenter()
                assert np.all(bc > 0.0)
                assert abs(float(bc @ vals) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# enumeration, laws, prices
# ---------------------------------------------------------------------------

class TestEnumeration:
    def test_path_order_and_probabilities(self):
        m = build_crr(2.0, 0.5, 1.0, 0.4, 2, 4.0)
        paths = enumerate_paths(m)
        assert [tuple(p) for p in paths] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        probs = path_probabilities(m, paths, m.real_world_measures())
        np.testing.assert_allclose(probs, [0.16, 0.24, 0.24, 0.36], atol=1e-15)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_prices_undiscount_by_bond(self):
        m = build_crr(u=2.0, d=0.5, r=1.25, p=0.5, steps=2, s0=4.0)
        paths = enumerate_paths(m)
        prices = path_prices(m, paths)
        # up-up: 4 * 2 * 2 = 16 regardless of the bond normalization
        assert prices[0, -1] == pytest.approx(16.0, rel=1e-14)
        assert prices[0, 0] == pytest.approx(4.0)

    def test_size_limit(self, monkeypatch):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 10, 4.0)
        monkeypatch.setenv("LECAM_MAX_PATHS", "100")
        with pytest.raises(SizeLimit, match="exceeds cap 100"):
            enumerate_paths(m)

    def test_terminal_law_matches_brute_force(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(40):
            m = random_market(rng, max_steps=5)
            qs = solve_martingale_measures(m).designated()
            logs, probs = terminal_log_law(m, qs)
            vals = np.exp(logs)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            for f in (lambda x: x, lambda x: x * x,
                      lambda x: max(x - 1.0, 0.0), lambda x: 1.0 if x > 1.0 else 0.0):
                law_side = float(probs @ np.array([f(v) for v in vals]))
                brute_side = brute_expect_terminal(m, qs, f)
                assert abs(law_side - brute_side) <= 1e-12

    def test_terminal_law_martingale_mean(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            m = random_market(rng, max_steps=6)
            qs = solve_martingale_measures(m).designated()
            logs, probs = terminal_log_law(m, qs)
            assert abs(float(probs @ np.exp(logs)) - 1.0) <= 1e-12

    def test_sorted_law_merges_equal_atoms_across_classes(self):
        """``log 4 == 2 log 2`` exactly, so the classes ``(2, 0.5)`` and
        ``(4, 0.25)`` reach one atom by several count vectors: the one sort
        merges the exactly equal sums into strictly increasing values."""
        assert math.log(4.0) == 2.0 * math.log(2.0)
        two, four = ((2.0, 0.5), (0.5, 0.5)), ((4.0, 0.5), (0.25, 0.5))
        m = LatticeMarket(6, 1.0, 1.0, (two, four) * 3, (0.0,) * 6)
        qs = solve_martingale_measures(m).designated()
        logs, probs = terminal_log_law(m, qs)
        assert np.all(np.diff(logs) > 0.0)
        assert len(logs) < 4 * 4  # count vectors of the two classes combined
        law = {}  # paths grouped by the exact exponent e of X_T = 2^e
        for w in brute_paths(m):
            e = sum((1 - 2 * i) * (1 + j % 2) for j, i in enumerate(w))
            law[e] = law.get(e, 0.0) + brute_prob(m, qs, w)
        exponents = np.rint(logs / math.log(2.0)).astype(int)
        np.testing.assert_allclose(logs, exponents * math.log(2.0), rtol=0.0, atol=1e-14)
        merged = {e: probs[exponents == e].sum() for e in law}
        for e, p in law.items():
            assert abs(merged[e] - p) <= 1e-12, e

    def test_grouped_law_handles_repeated_steps(self):
        """33 identical three-point steps exercise the multinomial branch."""
        step = ((1.2, 0.3), (1.0, 0.4), (0.8, 0.3))
        m = LatticeMarket(33, 1.0, 1.0, (step,) * 33, (0.0,) * 33)
        q = np.array([0.25, 0.5, 0.25])
        law_logs, probs = terminal_log_law(m, [q] * 33)
        assert probs.sum() == pytest.approx(1.0, abs=1e-11)
        # mean/variance of the additive log statistic against closed forms
        logs = np.log(np.array([1.2, 1.0, 0.8]))
        mean = 33 * float(q @ logs)
        var = 33 * (float(q @ logs**2) - float(q @ logs) ** 2)
        got_mean = float(probs @ law_logs)
        got_var = float(probs @ law_logs ** 2) - got_mean**2
        assert abs(got_mean - mean) <= 1e-9
        assert abs(got_var - var) <= 1e-9

    def test_multinomial_branch_with_zero_mass_outcome(self):
        """40 identical steps whose measure leaves one value unused build
        their law without a numeric warning (tier-1 turns RuntimeWarning
        into an error), give the unused value no count and match a
        binomial sum."""
        step = ((1.05, 1 / 3), (1.0, 1 / 3), (0.95, 1 / 3))
        n = 40
        m = LatticeMarket(n, 1.0, 1.0, (step,) * n, (0.0,) * n)
        q = np.array([0.5, 0.0, 0.5])
        counts, probs = count_distribution([q] * n)
        assert np.all(probs[counts[:, 1] > 0] == 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        want = sum(math.comb(n, k) * 0.5 ** n * max(1.05 ** k * 0.95 ** (n - k) - 1.0, 0.0)
                   for k in range(n + 1))
        got = price_direct(m, [q] * n, payoff_european_call(1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_count_distribution_matches_dp_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        q = rng.random(3) + 0.2
        q /= q.sum()
        # identical-step chain of binomials vs the step-by-step convolution
        n = 34
        counts_a, probs_a = count_distribution([q] * n)
        order = np.lexsort(counts_a.T)
        counts_b, probs_b = dp_general([q] * n)
        order_b = np.lexsort(counts_b.T)
        np.testing.assert_array_equal(counts_a[order], counts_b[order_b])
        np.testing.assert_allclose(probs_a[order], probs_b[order_b],
                                   rtol=0.0, atol=1e-13)


class TestCountLaws:
    """``count_distribution`` against exact laws: integer arithmetic on the
    measures' exact rational values, rounded once."""

    def test_two_point_laws_match_exact_binomials(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 2, 7, 64, 513, 2048):
            for p in (rng.uniform(0.05, 0.95), (1.0 - 0.99) / (1.01 - 0.99)):
                q = np.array([p, 1.0 - p])
                counts, probs = count_distribution([q] * n)
                np.testing.assert_array_equal(counts[:, 0], np.arange(n + 1))
                np.testing.assert_array_equal(counts.sum(axis=1), n)
                assert np.abs(probs - exact_binomial(n, p)).sum() <= 1e-13

    @pytest.mark.parametrize("q, sizes", [
        ((0.25, 0.5, 0.25), (1, 2, 17, 64)),
        ((0.3, 0.0, 0.7), (5, 64)),
        ((0.1, 0.2, 0.3, 0.4), (1, 3, 24, 64)),
        ((0.0, 0.45, 0.0, 0.55), (9, 40)),
        ((0.2, 0.0, 0.35, 0.45), (40,)),
    ])
    def test_identical_step_laws_match_exact(self, q, sizes):
        q = np.array(q)
        for n in sizes:
            counts, probs = count_distribution([q] * n)
            assert law_l1(counts, probs, exact_count_law(n, q)) <= 1e-13
            # zero-mass outcomes carry no count
            assert not counts[:, q == 0.0].any()

    @pytest.mark.parametrize("members", [
        # price_bounds multisets: vertices of support one or two
        [((0.0, 1.0, 0.0), 5), ((0.5, 0.0, 0.5), 7)],
        [((0.6, 0.0, 0.4), 3), ((0.0, 0.3, 0.7), 4), ((0.0, 1.0, 0.0), 2)],
        [((0.2, 0.0, 0.8, 0.0), 4), ((0.0, 0.4, 0.0, 0.6), 3),
         ((0.7, 0.0, 0.0, 0.3), 2)],
        # full supports and a two-point class
        [((0.2, 0.3, 0.5), 6), ((0.4, 0.4, 0.2), 5)],
        [((0.3, 0.7), 9), ((0.55, 0.45), 4), ((1.0, 0.0), 3)],
    ])
    def test_mixed_classes_match_dp_oracles(self, members):
        qs = [np.array(q) for q, count in members for _ in range(count)]
        rng = np.random.default_rng(RNG_SEED)
        qs = [qs[i] for i in rng.permutation(len(qs))]
        counts, probs = count_distribution(qs)
        if len(qs[0]) == 2:
            np.testing.assert_allclose(probs, dp_pair(qs), rtol=1e-13, atol=1e-300)
            return
        want_counts, want = dp_general(qs)
        order = np.lexsort(counts.T[::-1])
        np.testing.assert_array_equal(counts[order], want_counts)
        np.testing.assert_allclose(probs[order], want, rtol=1e-13, atol=0.0)

    def test_random_mixed_classes_match_dp_oracle(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(20):
            k = int(rng.integers(3, 5))
            distinct = rng.random((int(rng.integers(2, 4)), k))
            distinct[rng.random(distinct.shape) < 0.3] = 0.0
            distinct[:, 0] += 0.1
            distinct /= distinct.sum(axis=1, keepdims=True)
            qs = [distinct[i] for i in rng.integers(0, len(distinct), int(rng.integers(2, 12)))]
            counts, probs = count_distribution(qs)
            want_counts, want = dp_general(qs)
            order = np.lexsort(counts.T[::-1])
            np.testing.assert_array_equal(counts[order], want_counts)
            np.testing.assert_allclose(probs[order], want, rtol=1e-13, atol=0.0)

    def test_total_mass(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 1000, 65536):
            p = rng.uniform(0.2, 0.8)
            _, probs = count_distribution([np.array([p, 1.0 - p])] * n)
            assert abs(probs.sum() - 1.0) <= 1e-14
        halves = [np.array([0.3, 0.7]), np.array([0.45, 0.55])]
        _, probs = count_distribution([halves[j % 2] for j in range(4096)])
        assert abs(probs.sum() - 1.0) <= 1e-14
        _, probs = count_distribution([np.array([0.25, 0.5, 0.25])] * 1024)
        assert abs(probs.sum() - 1.0) <= 1e-14

    def test_cap_checked_before_building(self, monkeypatch):
        # C(102, 2) = 5151 count states
        identical = [np.array([0.2, 0.3, 0.5])] * 100
        monkeypatch.setenv("LECAM_MAX_PATHS", "5150")
        with pytest.raises(SizeLimit, match="count states 5151 exceed cap 5150"):
            count_distribution(identical)
        monkeypatch.setenv("LECAM_MAX_PATHS", "5151")
        assert len(count_distribution(identical)[0]) == 5151
        # C(62, 2) = 1891 states, merged from 496 x 496 = 246016 pairwise sums
        mixed = [np.array([0.2, 0.3, 0.5])] * 30 + [np.array([0.4, 0.4, 0.2])] * 30
        monkeypatch.setenv("LECAM_MAX_PATHS", "246015")
        with pytest.raises(SizeLimit, match="count states exceed cap 246015"):
            count_distribution(mixed)
        monkeypatch.setenv("LECAM_MAX_PATHS", "246016")
        assert len(count_distribution(mixed)[0]) == 1891


# ---------------------------------------------------------------------------
# densities, representation, experiments
# ---------------------------------------------------------------------------

class TestLikelihoodStructure:
    def test_two_period_terminal_ratios(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        q = solve_martingale_measures(m).designated()
        levels = discounted_likelihood_process(m, q)
        assert levels[0] == {(): 1.0}
        assert levels[1][(0,)] == pytest.approx(2.0)
        assert levels[1][(1,)] == pytest.approx(0.5)
        terminal = {k: v for k, v in levels[2].items()}
        assert terminal[(0, 0)] == pytest.approx(4.0)
        assert terminal[(0, 1)] == pytest.approx(1.0)
        assert terminal[(1, 0)] == pytest.approx(1.0)
        assert terminal[(1, 1)] == pytest.approx(0.25)

    def test_induced_experiment_measures(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 1, 4.0)
        q = solve_martingale_measures(m).designated()
        exp = induced_experiment(m, q)
        assert exp.base == "Q"
        np.testing.assert_allclose(exp.measure("Q"), [1 / 3, 2 / 3], atol=1e-15)
        np.testing.assert_allclose(exp.measure("Q1"), [2 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(exp.measure("P"), [0.5, 0.5], atol=1e-15)

    def test_density_process_is_conditional_expectation(self):
        """X_t/X_0 at a node = E_Q[X_T/X_0 | node], by brute force."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            m = random_market(rng, max_steps=4)
            qs = solve_martingale_measures(m).designated()
            levels = discounted_likelihood_process(m, qs)
            paths = brute_paths(m)
            for t in range(m.steps + 1):
                for prefix, x in levels[t].items():
                    num = den = 0.0
                    for w in paths:
                        if w[:t] != prefix:
                            continue
                        pw = brute_prob(m, qs, w)
                        num += pw * brute_ratio(m, w)
                        den += pw
                    assert abs(num / den - x) <= 1e-12

    def test_oversized_date_is_never_built(self, monkeypatch):
        """Forty values per step: the third date would hold 64000 prefixes,
        at least a 64-byte key tuple each, 4 MB in all; the cap of 1600
        stops it before any is built."""
        values = np.linspace(0.5, 1.5, 40)
        step = tuple((float(v), 1 / 40) for v in values)
        m = LatticeMarket(3, 1.0, 1.0, (step,) * 3, (0.0,) * 3)
        qs = solve_martingale_measures(m).designated()
        monkeypatch.setenv("LECAM_MAX_PATHS", "1600")
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match="node enumeration exceeds cap"):
                discounted_likelihood_process(m, qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64000 * 64
        monkeypatch.setenv("LECAM_MAX_PATHS", "64000")
        assert len(discounted_likelihood_process(m, qs)[-1]) == 64000

    def test_representation_accepts_and_rejects(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            m = random_market(rng)
            qs = solve_martingale_measures(m).designated()
            assert verify_representation(m, qs)
            # tilt one step inside the simplex, away from the martingale set
            bad = [v.copy() for v in qs]
            j = int(rng.integers(0, m.steps))
            w = rng.random(len(bad[j])) + 0.1
            w /= w.sum()
            cand = 0.5 * bad[j] + 0.5 * w
            if abs(float(cand @ m.step_values(j)) - 1.0) < 1e-6:
                continue
            bad[j] = cand
            assert not verify_representation(m, bad)

    def test_representation_hand_worked_tree(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        assert verify_representation(m, [np.array([1 / 3, 2 / 3])] * 2)
        assert not verify_representation(m, [np.array([0.5, 0.5])] * 2)

    def test_representation_beyond_path_space_sizes(self):
        three = ((1.04, 0.3), (1.0, 0.4), (0.97, 0.3))
        two = ((1.03, 0.5), (0.98, 0.5))
        markets = [build_crr(1.05, 0.96, 1.001, 0.5, 40, 100.0),
                   LatticeMarket(24, 1.0, 100.0, (three, two) * 12, (0.001,) * 24)]
        for m in markets:
            assert math.prod(m.support_sizes()) > limits.DEFAULT_MAX_PATHS
            qs = solve_martingale_measures(m).designated()
            assert verify_representation(m, qs)
            bad = [v.copy() for v in qs]
            bad[17][:2] += (0.05, -0.05)
            assert not verify_representation(m, bad)
            # a second tilt that restores E(X_T) leaves only inner nodes wrong
            up, down = m.step_values(18)[:2]
            mean_17 = float(bad[17] @ m.step_values(17))
            bad[18][:2] += np.array([1.0, -1.0]) * (1.0 / mean_17 - 1.0) / (up - down)
            root = math.prod(float(v @ m.step_values(j)) for j, v in enumerate(bad))
            assert abs(root - 1.0) <= 1e-14
            assert not verify_representation(m, bad)


def multi_class_market():
    """Two-point classes 1.1 and 2.2 and a three-point class, interleaved."""
    a = ((1.1, 0.5), (1 / 1.1, 0.5))
    b = ((1.3, 0.3), (0.9, 0.4), (0.7, 0.3))
    c = ((2.2, 0.5), (1 / 2.2, 0.5))
    steps = (a, b, a, c, b, a, b, c)
    return LatticeMarket(len(steps), 1.0, 100.0, steps, (0.01,) * len(steps))


def atm_grid_markets():
    """The 294 CRR markets ``u = 1.01..1.49``, ``d = 1/u``, even ``N <= 12``."""
    markets = [build_crr(u, 1.0 / u, 1.0, 0.5, n, 100.0)
               for u in np.round(np.arange(1.01, 1.495, 0.01), 2)
               for n in range(2, 13, 2)]
    assert len(markets) == 294
    return markets


def distinct(values):
    """Sorted values with those within 1e-9 relative of the one before dropped."""
    values = np.sort(np.ravel(values))
    return values[np.r_[True, np.diff(values) > 1e-9 * values[1:]]]


class TestBackwardInduction:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_level_grids_lead_the_next_level(self, k):
        """The nodes of a class at level ``n`` in rank order are its
        compositions reversed, and those one level down are their leading
        ``C(n + k - 2, k - 1)`` rows less one count of the last value."""
        for n in range(13):
            grid = _compositions(n, k)[:, ::-1]
            np.testing.assert_array_equal(_composition_rank(grid), np.arange(len(grid)))
            if n:
                below = grid[:math.comb(n + k - 2, k - 1)] - np.eye(k, dtype=np.int64)[-1]
                np.testing.assert_array_equal(below, _compositions(n - 1, k)[:, ::-1])

    def test_every_date_holds_the_path_products(self):
        for m in atm_grid_markets() + [multi_class_market()]:
            qs = solve_martingale_measures(m).designated()
            products = path_products(m, enumerate_paths(m))
            dates = []
            for t, x, _ in backward_induction(m, qs, lambda x: x):
                dates.append(t)
                want = distinct(products[:, t])
                got = distinct(x)
                assert len(got) == len(want)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert dates == list(range(m.steps, -1, -1))

    def test_terminal_nodes_are_the_grouped_atoms(self):
        for m in atm_grid_markets() + [multi_class_market()]:
            qs = solve_martingale_measures(m).designated()
            t, x, _ = next(backward_induction(m, qs, lambda x: x))
            assert t == m.steps
            np.testing.assert_array_equal(np.unique(x),
                                          np.unique(np.exp(terminal_log_law(m, qs)[0])))

    def test_unrecombined_lattice_hits_the_state_cap(self):
        steps = tuple(((1.0 + 0.01 * j, 0.5), (1.0 / (1.0 + 0.01 * j), 0.5))
                      for j in range(1, 41))
        m = LatticeMarket(40, 1.0, 100.0, steps, (0.0,) * 40)
        qs = solve_martingale_measures(m).designated()
        with pytest.raises(SizeLimit, match="lattice nodes exceed cap"):
            next(backward_induction(m, qs, lambda x: x))
        with pytest.raises(SizeLimit, match="lattice nodes exceed cap"):
            verify_representation(m, qs)
        with pytest.raises(SizeLimit, match="lattice nodes exceed cap"):
            price_direct(m, qs, payoff_barrier_up_out(100.0, 150.0))


class TestComplementaryMarket:
    def test_matches_complementary_experiment(self):
        """Pinned step measures == complementary experiment at the node.

        The complementary measure of the full path experiment, conditioned
        on the block of the first t moves, must coincide with the path law
        of the step measures with those moves pinned: ``Q`` on the block and
        ``Q1 = (x_T / x_t) . Q``, with no mass off the block.
        """
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            m = random_market(rng, max_steps=3)
            if m.steps < 2:
                continue
            qs, _ = as_step_measures(m, solve_martingale_measures(m).designated())
            exp = induced_experiment(m, qs)
            t = int(rng.integers(1, m.steps))
            part = Partition.by_key(exp.outcomes, lambda w: w[:t])
            comp = complementary(exp, part)
            paths = enumerate_paths(m)
            x = path_products(m, paths)
            for prefix in sorted({w[:t] for w in exp.outcomes}):
                pinned = pinned_measures(m, qs, PathState(t, prefix))
                law = path_probabilities(m, paths, pinned)
                on = (paths[:, :t] == prefix).all(axis=1)
                assert not law[~on].any()
                for name, expected in (("Q", law), ("Q1", law * x[:, -1] / x[:, t])):
                    block = comp.measure(name)[on]
                    np.testing.assert_allclose(
                        block / block.sum(), expected[on], rtol=0.0, atol=1e-12
                    )


class TestCriterion:
    def crr_segment_market(self):
        rng = np.random.default_rng(RNG_SEED)
        return random_market(rng, max_steps=3, max_support=3), rng

    def test_product_tilt_is_martingale(self):
        """g built from per-step martingale tilts satisfies the criterion."""
        rng = np.random.default_rng(RNG_SEED)
        hits = 0
        while hits < 25:
            m = random_market(rng, max_steps=3)
            sols = solve_martingale_measures(m)
            qs = sols.designated()
            other = []
            for j, step in enumerate(sols.per_step):
                if step.unique:
                    other.append(qs[j])
                else:
                    w = rng.random(len(step.vertices)) + 0.2
                    w /= w.sum()
                    other.append(np.array(step.vertices).T @ w)
            paths = enumerate_paths(m)
            g = np.ones(paths.shape[0])
            for col, (qa, qb) in enumerate(zip(other, qs)):
                g *= (qa / qb)[paths[:, col]]
            report = verify_mm_criterion(m, qs, g)
            assert report.condition_holds
            assert report.is_martingale_measure
            assert report.equivalent
            hits += 1

    def test_generic_g_fails_both_sides(self):
        rng = np.random.default_rng(RNG_SEED)
        fails = 0
        for _ in range(25):
            m = random_market(rng, max_steps=3)
            qs = solve_martingale_measures(m).designated()
            paths = enumerate_paths(m)
            g = rng.random(paths.shape[0]) + 0.2
            report = verify_mm_criterion(m, qs, g)
            assert report.equivalent
            if not report.condition_holds:
                fails += 1
        assert fails > 0

    def test_constant_g_trivially_passes(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        qs = solve_martingale_measures(m).designated()
        report = verify_mm_criterion(m, qs, lambda w: 3.0)
        assert report.condition_holds and report.is_martingale_measure

    def test_rejects_nonpositive_g(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 1, 4.0)
        qs = solve_martingale_measures(m).designated()
        with pytest.raises(InvalidParams):
            verify_mm_criterion(m, qs, np.array([1.0, 0.0]))

    def test_report_rows_cover_all_nodes(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        qs = solve_martingale_measures(m).designated()
        report = verify_mm_criterion(m, qs, lambda w: 1.0 + 0.1 * sum(w))
        # 1 root + 2 nodes at t=1 + 4 at t=2
        assert len(report.rows) == 7


class TestImageExperiment:
    def test_recombining_and_generic_markets(self):
        rng = np.random.default_rng(RNG_SEED)
        m = build_crr(2.0, 0.5, 1.0, 0.5, 4, 4.0)
        qs = solve_martingale_measures(m).designated()
        assert image_experiment_check(m, qs)
        for _ in range(20):
            rm = random_market(rng, max_steps=4)
            rqs = solve_martingale_measures(rm).designated()
            assert image_experiment_check(rm, rqs)

    def test_subset_of_times(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 3, 4.0)
        qs = solve_martingale_measures(m).designated()
        assert image_experiment_check(m, qs, times=[1, 3])
        with pytest.raises(InvalidParams):
            image_experiment_check(m, qs, times=[5])


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(RNG_SEED)
        m = random_market(rng)
        doc = market_to_json(m)
        back = market_from_json(doc)
        assert back.steps == m.steps
        assert back.s0 == pytest.approx(m.s0)
        for j in range(m.steps):
            np.testing.assert_allclose(back.step_values(j), m.step_values(j))
            np.testing.assert_allclose(back.step_probs(j), m.step_probs(j))
            assert back.bond_rates[j] == pytest.approx(m.bond_rates[j])

    def test_round_trip_is_exact_and_compact_for_one_kind(self):
        one = build_crr(1.2, 0.9, 1.01, 0.5, 6, 100.0)
        up, down = ((1.2, 0.5), (0.9, 0.5)), ((1.1, 0.25), (0.95, 0.75))
        rates = LatticeMarket(4, 2.0, 3.0, (up,) * 4, (0.0, 0.01, 0.0, 0.01))
        steps = LatticeMarket(4, 2.0, 3.0, (up, down, up, down), (0.01,) * 4)
        for m in (one, rates, steps):
            assert market_from_json(market_to_json(m)) == m
        doc = market_to_json(one)
        assert doc["bond"] == {"const": one.bond_rates[0]}
        assert doc["returns"]["values"] == [v for v, _ in one.returns[0]]
        for m in (rates, steps):
            doc = market_to_json(m)
            assert doc["bond"] == {"r_simple_per_step": list(m.bond_rates)}
            assert doc["returns"]["values"] == [[v for v, _ in step] for step in m.returns]
        big = build_crr(1.0002, 0.9998, 1.0, 0.5, 10**6, 100.0)
        assert len(json.dumps(market_to_json(big))) < 1024

    def test_crr_returns_are_divided_by_bond(self):
        doc = {
            "N": 1, "T": 1.0, "s0": 4.0,
            "bond": {"const": 0.25},
            "returns": {"type": "crr", "u": 2.0, "d": 0.5, "p": 0.5},
        }
        m = market_from_json(doc)
        np.testing.assert_allclose(m.step_values(0), [1.6, 0.4])

    def test_table_values_are_taken_as_is(self):
        doc = {
            "N": 2, "T": 1.0, "s0": 1.0,
            "bond": {"const": 0.0},
            "returns": {"type": "table", "values": [1.5, 0.5],
                        "probs": [0.5, 0.5]},
        }
        m = market_from_json(doc)
        np.testing.assert_allclose(m.step_values(1), [1.5, 0.5])

    def test_malformed_specs_raise(self):
        with pytest.raises(InvalidParams):
            market_from_json({"N": 1})
        with pytest.raises(InvalidParams):
            market_from_json({"N": 1, "T": 1.0, "s0": 1.0,
                              "bond": {"const": 0.0},
                              "returns": {"type": "nope"}})
        with pytest.raises(InvalidParams):
            market_from_json({"N": 2, "T": 1.0, "s0": 1.0,
                              "bond": {"r_simple_per_step": [0.0]},
                              "returns": {"type": "crr", "u": 2.0, "d": 0.5}})


class TestMeasureCoercion:
    def test_single_vector_broadcasts(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 3, 4.0)
        qs, _ = as_step_measures(m, [1 / 3, 2 / 3])
        assert len(qs) == 3
        for v in qs:
            np.testing.assert_allclose(v, [1 / 3, 2 / 3])

    def test_rejects_wrong_shapes(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        with pytest.raises(InvalidParams):
            as_step_measures(m, [np.array([0.5, 0.5])])
        with pytest.raises(InvalidParams):
            as_step_measures(m, [0.4, 0.4])


class TestDistinctStepChecks:
    """Per-step checks run once per distinct step or measure and still name
    the first offending step."""

    GOOD = ((2.0, 0.5), (0.5, 0.5))
    TRI = ((1.5, 0.25), (1.0, 0.5), (0.5, 0.25))

    def test_market_names_first_bad_step(self):
        twice = ((1.5, 0.5), (1.5, 0.5))
        bad_sum = ((2.0, 0.5), (0.5, 0.6))
        steps = (self.GOOD, self.GOOD, bad_sum, self.GOOD, twice, bad_sum)
        with pytest.raises(InvalidParams, match="^step 2 probabilities sum"):
            LatticeMarket(6, 1.0, 1.0, steps, (0.0,) * 6)
        steps = (self.GOOD, self.GOOD, self.GOOD, twice, bad_sum, twice)
        with pytest.raises(InvalidParams, match="^step 3 repeats a return value"):
            LatticeMarket(6, 1.0, 1.0, steps, (0.0,) * 6)
        with pytest.raises(InvalidParams, match="^step 4 bond rate is negative"):
            LatticeMarket(5, 1.0, 1.0, (self.GOOD,) * 5, (0.0, 0.1, 0.0, 0.1, -0.1))

    def test_equal_steps_share_one_normalized_step(self):
        steps = tuple(((2, 1 / 2), (1 / 2, 1 / 2)) for _ in range(4))
        m = LatticeMarket(4, 1.0, 1.0, steps, (0,) * 4)
        assert all(step is m.returns[0] for step in m.returns)
        assert m.returns[0] == ((2.0, 0.5), (0.5, 0.5))
        assert all(type(r) is float for r in m.bond_rates)

    def test_crr_json_builds_one_step_per_rate(self):
        m = market_from_json({"N": 4, "T": 1.0, "s0": 1.0,
                              "bond": {"r_simple_per_step": [0.0, 0.25, 0.0, 0.25]},
                              "returns": {"type": "crr", "u": 2.0, "d": 0.5}})
        assert m.returns[0] is m.returns[2] and m.returns[1] is m.returns[3]
        np.testing.assert_allclose(m.step_values(1), [1.6, 0.4])

    def test_solver_names_first_bad_step_and_shares_solutions(self):
        one_sided = ((2.0, 0.5), (1.5, 0.5))
        steps = (self.GOOD, self.TRI, self.GOOD, one_sided, self.TRI, one_sided)
        with pytest.raises(NoArbitrageViolation, match="^step 3:"):
            solve_martingale_measures(LatticeMarket(6, 1.0, 1.0, steps, (0.0,) * 6))
        # equal steps share one solution; equal values give equal solutions
        other = ((2.0, 0.25), (0.5, 0.75))
        sols = solve_martingale_measures(
            LatticeMarket(3, 1.0, 1.0, (self.GOOD, other, self.GOOD), (0.0,) * 3))
        assert sols.per_step[0] is sols.per_step[2]
        assert sols.per_step[1] == sols.per_step[0]
        centers = sols.designated()
        np.testing.assert_allclose(centers[1], [1 / 3, 2 / 3])

    def test_measures_name_first_bad_step(self):
        m = LatticeMarket(4, 1.0, 1.0, (self.GOOD, self.TRI, self.GOOD, self.TRI),
                          (0.0,) * 4)
        good2, good3 = np.array([1 / 3, 2 / 3]), np.array([0.25, 0.5, 0.25])
        # the same vector passes at a three-point step, fails at a two-point one
        with pytest.raises(InvalidParams, match="^step 2 measure has wrong length"):
            as_step_measures(m, [good2, good3, good3, good3])
        negative = np.array([1.5, -0.5])
        with pytest.raises(InvalidParams, match="^step 2 measure has negative mass"):
            as_step_measures(m, [good2, good3, negative, good3])
        off = np.array([0.5, 0.5])
        with pytest.raises(InvalidParams, match="^step 2 measure is not a martingale"):
            as_step_measures(m, [good2, good3, off, good3], strict=False)
        # the same vector is a martingale measure at one step, not the next
        wide = LatticeMarket(2, 1.0, 1.0, (self.GOOD, ((3.0, 0.5), (0.5, 0.5))),
                             (0.0,) * 2)
        with pytest.raises(InvalidParams, match="^step 1 measure is not a martingale"):
            as_step_measures(wide, [good2, good2], strict=False)
        edge = np.array([0.0, 1.0, 0.0])
        as_step_measures(m, [good2, edge, good2, edge], strict=False)
        with pytest.raises(InvalidParams, match="^step 1 measure is not strictly"):
            as_step_measures(m, [good2, edge, good2, edge], strict=True)


# ---------------------------------------------------------------------------
# masses of log(X_T / X_0) around levels
# ---------------------------------------------------------------------------

def masses_oracle(logs, probs, ratios, levels, tol=1e-12):
    """``[Q, Q1] x [below, at, above]`` masses of atoms ``logs`` with
    ``Q``-masses ``probs`` and ``Q1``-masses ``probs * ratios``; an atom
    within ``tol`` of a level sits at it (log sums of one node in another
    order differ by far less, distinct nodes by far more)."""
    out = np.zeros((2, 3, len(levels)))
    for i, level in enumerate(levels):
        sides = [logs < level - tol, np.abs(logs - level) <= tol, logs > level + tol]
        for s, w in enumerate((probs, probs * ratios)):
            out[s, :, i] = [w[side].sum() for side in sides]
    return out


def probe_levels(logs):
    """Every distinct atom, the midpoints between neighbours, levels beyond
    both ends and the infinite levels."""
    atoms = np.unique(logs)
    mids = (atoms[1:] + atoms[:-1]) / 2
    return np.concatenate([atoms, mids, [atoms[0] - 1.0, atoms[-1] + 1.0, -np.inf, np.inf]])


MASS_TABLES = {
    2: (1.12, 0.9),
    3: (1.3, 1.02, 0.8),
    4: (1.25, 1.1, 0.92, 0.7),
}


def vertex_measures(values, n, rng):
    """One vertex of the step polytope per step, as ``price_bounds`` picks
    them: support at most two, the other coordinates exactly zero."""
    m = LatticeMarket(1, 1.0, 1.0, (tuple((v, 1 / len(values)) for v in values),), (0.0,))
    vertices = [np.array(v) for v in solve_martingale_measures(m).per_step[0].vertices]
    return [vertices[int(rng.integers(len(vertices)))] for _ in range(n)]


def vertex_classes(m):
    """The return classes of ``m`` as :func:`multiset_log_masses` reads
    them: values, the vertices of their polytope and their step count."""
    return [(values, _step_vertices(np.array(values)), n)
            for values, n in zip(m.classes.kinds, np.bincount(m.classes.index).tolist())]


#: A table whose ``Q1`` lives where ``Q`` probabilities all but underflow.
WIDE = (3.0, 1.0, 0.2)


def wide_masses_oracle(n, q, ties):
    """The masses of :func:`terminal_log_masses` for ``n`` steps of
    :data:`WIDE` under ``q``, at the levels of the atoms ``ties`` (counts of
    the first and last value), by enumerating every count pair in log
    space: the two binomial pmfs of scipy in logs, each weight summed by
    ``logsumexp``, so that neither ``Q`` nor ``Q1`` underflows."""
    logv = np.log(WIDE)
    levels = [a * logv[0] + c * logv[2] for a, c in ties]
    parts = [[[[] for _ in ties] for _ in range(3)] for _ in range(2)]
    for a in range(n + 1):
        first = binom.pmf(a, n, q[0])
        if first == 0.0:
            continue
        c = np.arange(n - a + 1)
        then = binom.pmf(c, n - a, q[2] / (q[1] + q[2]))
        c, log_q = c[then > 0.0], math.log(first) + np.log(then[then > 0.0])
        x = a * logv[0] + c * logv[2]
        for i, (level, tie) in enumerate(zip(levels, ties)):
            at = (a == tie[0]) & (c == tie[1])
            for s, side in enumerate((~at & (x < level), at, ~at & (x > level))):
                for w, log_w in enumerate((log_q, log_q + x)):
                    if side.any():
                        parts[w][s][i].append(logsumexp(log_w[side]))
    return np.array([[[math.exp(logsumexp(p)) if p else 0.0 for p in side] for side in w]
                     for w in parts])


class TestMultisetLogMasses:
    """Every row of the batched pass against one ``terminal_log_masses``
    call per assignment, in the same order, levels on the atoms and
    between them."""

    def markets(self, rng):
        for k, values in MASS_TABLES.items():
            for n in (1, 4, 7 if k < 4 else 5):
                step = tuple((v, 1 / k) for v in values)
                yield LatticeMarket(n, 1.0, 1.0, (step,) * n, (0.0,) * n)
        flat = tuple((v, 1 / 3) for v in (1.05, 1.0, 0.95))  # a vertex at the value one
        yield LatticeMarket(5, 1.0, 1.0, (flat,) * 5, (0.0,) * 5)
        still = ((1.0, 1.0),)  # a one-point step: no draw at all, or beside others
        yield LatticeMarket(3, 1.0, 1.0, (still,) * 3, (0.0,) * 3)
        yield LatticeMarket(4, 1.0, 1.0, (still, flat) * 2, (0.0,) * 4)
        for _ in range(6):
            yield random_market(rng, max_steps=5)

    def test_rows_match_one_law_per_assignment(self):
        rng = np.random.default_rng(RNG_SEED)
        for m in self.markets(rng):
            paths = brute_paths(m)
            logs = np.array([sum(math.log(m.returns[j][i][0]) for j, i in enumerate(p))
                             for p in paths])
            levels = probe_levels(np.unique(logs))
            got = multiset_log_masses(vertex_classes(m), levels)
            want = [terminal_log_masses(groups, levels)
                    for groups in law_oracles.multiset_assignments(m)]
            assert got.shape == (len(want), 2, 3, len(levels))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_class_states_capped_per_row(self, monkeypatch):
        """Twelve steps on two vertices of three values: 13 rows.  A row
        builds the ``n + 1`` counts of the vertex beside its closed-form
        draw, 7 at the split (6, 6), not the ``C(14, 2) = 91`` count states
        of the class: the batched pass counts them as its atoms, one law per
        row as the rows of its draw."""
        step = tuple((v, 1 / 3) for v in (1.08, 0.97, 0.93))
        m = LatticeMarket(12, 1.0, 1.0, (step,) * 12, (0.0,) * 12)
        monkeypatch.setenv("LECAM_MAX_PATHS", "6")
        for masses, built in ((lambda: multiset_log_masses(vertex_classes(m), [0.0]),
                               "terminal atoms"),
                              (lambda: [terminal_log_masses(groups, [0.0])
                                        for groups in law_oracles.multiset_assignments(m)],
                               "count states 7")):
            with pytest.raises(SizeLimit, match=f"{built} exceed cap 6"):
                masses()
        monkeypatch.setenv("LECAM_MAX_PATHS", "7")
        assert multiset_log_masses(vertex_classes(m), [0.0]).shape == (13, 2, 3, 1)
        for groups in law_oracles.multiset_assignments(m):
            terminal_log_masses(groups, [0.0])

    def test_atoms_capped_per_row(self, monkeypatch):
        """Two such classes of six steps: 49 rows, 28 count states per class,
        and up to 64 atoms beside a row's closed-form draw."""
        one = tuple((v, 1 / 3) for v in (1.08, 0.97, 0.93))
        two = tuple((v, 1 / 3) for v in (1.05, 0.98, 0.9))
        m = LatticeMarket(12, 1.0, 1.0, (one, two) * 6, (0.0,) * 12)
        monkeypatch.setenv("LECAM_MAX_PATHS", "63")
        for masses in (lambda: multiset_log_masses(vertex_classes(m), [0.0]),
                       lambda: [terminal_log_masses(groups, [0.0])
                                for groups in law_oracles.multiset_assignments(m)]):
            with pytest.raises(SizeLimit, match="terminal atoms exceed cap 63"):
                masses()
        monkeypatch.setenv("LECAM_MAX_PATHS", "64")
        assert multiset_log_masses(vertex_classes(m), [0.0]).shape == (49, 2, 3, 1)


class TestTerminalLogMasses:
    """``terminal_log_masses`` against path enumeration and the sorted law:
    under ``Q`` and ``Q1``, levels on atoms and between them."""

    def markets(self, rng):
        for k, values in MASS_TABLES.items():
            for n in (1, 3, 8 if k < 4 else 6):
                step = tuple((v, 1 / k) for v in values)
                yield LatticeMarket(n, 1.0, 1.0, (step,) * n, (0.0,) * n)
        for _ in range(6):  # several classes, mixed supports
            yield random_market(rng, max_steps=6)

    def measure_sets(self, m, rng):
        yield solve_martingale_measures(m).designated()
        by_class = {}
        for j in range(m.steps):
            by_class.setdefault(tuple(v for v, _ in m.returns[j]), []).append(j)
        picks = [None] * m.steps
        for values, members in by_class.items():
            for j, q in zip(members, vertex_measures(values, len(members), rng)):
                picks[j] = q
        yield picks

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(RNG_SEED)
        for m in self.markets(rng):
            for qs in self.measure_sets(m, rng):
                paths = brute_paths(m)
                probs = np.array([brute_prob(m, qs, p) for p in paths])
                ratios = np.array([brute_ratio(m, p) for p in paths])
                logs = np.array([sum(math.log(m.returns[j][i][0]) for j, i in enumerate(p))
                                 for p in paths])
                levels = probe_levels(logs[probs > 0.0])
                got = terminal_log_masses(as_step_measures(m, qs)[1], levels)
                want = masses_oracle(logs, probs, ratios, levels)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_point_mass_steps_sit_at_one_atom(self):
        """Every step a point mass: no draw is left in closed form and the
        single atom is still found, below it nothing, above it nothing."""
        values = (1.05, 1.0, 0.95)
        step = tuple((v, 1 / 3) for v in values)
        m = LatticeMarket(4, 1.0, 1.0, (step,) * 4, (0.0,) * 4)
        _, groups = as_step_measures(m, [np.array([0.0, 1.0, 0.0])] * 4)
        got = terminal_log_masses(groups, [-0.1, 0.0, 0.1])
        want = [[[0, 0, 1], [0, 1, 0], [1, 0, 0]]] * 2  # below, at, above
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [64, 300])
    def test_matches_sorted_law_sums(self, n):
        two = ((1.02, 0.5), (0.98, 0.5))
        wide = ((1.05, 0.5), (0.96, 0.5))
        three = ((1.03, 0.3), (1.0, 0.4), (0.97, 0.3))
        halves = LatticeMarket(n, 1.0, 1.0, (two,) * (n // 2) + (wide,) * (n - n // 2),
                               (0.0,) * n)
        tri = LatticeMarket(n // 2, 1.0, 1.0, (three,) * (n // 2), (0.0,) * (n // 2))
        mixed = LatticeMarket(n // 3, 1.0, 1.0, ((three, two) * n)[:n // 3], (0.0,) * (n // 3))
        for m in (halves, tri, mixed):
            qs = solve_martingale_measures(m).designated()
            logs, probs = terminal_log_law(m, qs)
            levels = probe_levels(logs)[:: max(1, len(logs) // 40)]
            got = terminal_log_masses(as_step_measures(m, qs)[1], levels)
            want = masses_oracle(logs, probs, np.exp(logs), levels)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_measures_as_lists_and_support_sizes_checked(self):
        m = random_market(np.random.default_rng(RNG_SEED), max_steps=5)
        qs = solve_martingale_measures(m).designated()
        levels = [-0.1, 0.0, 0.1]
        np.testing.assert_array_equal(
            terminal_log_masses(as_step_measures(m, [q.tolist() for q in qs])[1], levels),
            terminal_log_masses(as_step_measures(m, qs)[1], levels))
        step = ((1.1, 0.5), (0.9, 0.5))
        m = LatticeMarket(2, 1.0, 1.0, (step, step), (0.0, 0.0))
        with pytest.raises(InvalidParams, match="^step 1 measure has wrong length"):
            as_step_measures(m, [np.array([0.5, 0.5]), np.array([0.5, 0.5, 0.0])])

    @staticmethod
    def wide_table(n):
        """``n`` steps of 3.0/1.0/0.2 under the designated measure.  From
        647 steps on, ``X_T / X_0`` overflows at the top atoms, whose ``Q``
        probabilities underflow to zero; by 3000 steps ``Q`` probabilities
        also underflow on atoms that carry ``Q1`` mass."""
        step = tuple((v, 1 / 3) for v in WIDE)
        m = LatticeMarket(n, 1.0, 1.0, (step,) * n, (0.0,) * n)
        return as_step_measures(m, solve_martingale_measures(m).designated())

    @pytest.mark.parametrize("n", [700, 2000])
    def test_wide_table_matches_log_space_enumeration(self, n):
        """Levels at ``X_T = 1`` and on the atom of ``n // 3`` threes and
        ``n // 4`` fifths, which ties."""
        qs, groups = self.wide_table(n)
        ties = [(0, 0), (n // 3, n // 4)]
        levels = [a * math.log(WIDE[0]) + c * math.log(WIDE[2]) for a, c in ties]
        want = wide_masses_oracle(n, qs[0], ties)
        np.testing.assert_allclose(terminal_log_masses(groups, levels), want, rtol=1e-12, atol=0)

    def test_q1_mass_lost_to_underflow_fails_the_self_check(self):
        """At 3000 steps ``Q`` probabilities underflow to zero on atoms that
        carry about a quarter of the ``Q1`` mass."""
        with pytest.raises(SelfCheckFailed, match="Q1 masses sum to 0.7244"):
            terminal_log_masses(self.wide_table(3000)[1], [0.0])

    def test_cap_checks_class_states_and_atoms(self, monkeypatch):
        # eight three-point steps: the 9 counts of the first draw are built,
        # the closed-form draw is not (C(10, 2) = 45 count states in all)
        step = tuple((v, 1 / 3) for v in MASS_TABLES[3])
        m = LatticeMarket(8, 1.0, 1.0, (step,) * 8, (0.0,) * 8)
        qs = solve_martingale_measures(m).designated()
        monkeypatch.setenv("LECAM_MAX_PATHS", "8")
        with pytest.raises(SizeLimit, match="count states 9 exceed cap 8"):
            terminal_log_masses(as_step_measures(m, qs)[1], [0.0])
        monkeypatch.setenv("LECAM_MAX_PATHS", "9")
        terminal_log_masses(as_step_measures(m, qs)[1], [0.0])
        # two classes of 9 states each: 9 atoms enumerated, the other class in closed form
        one, two = ((1.1, 0.5), (0.9, 0.5)), ((1.2, 0.5), (0.85, 0.5))
        m = LatticeMarket(16, 1.0, 1.0, (one,) * 8 + (two,) * 8, (0.0,) * 16)
        qs = solve_martingale_measures(m).designated()
        monkeypatch.setenv("LECAM_MAX_PATHS", "9")
        terminal_log_masses(as_step_measures(m, qs)[1], [0.0])
        three = ((1.3, 0.5), (0.75, 0.5))
        m = LatticeMarket(24, 1.0, 1.0, tuple(m.returns) + (three,) * 8, (0.0,) * 24)
        qs = solve_martingale_measures(m).designated()
        with pytest.raises(SizeLimit, match="terminal atoms exceed cap 9"):
            terminal_log_masses(as_step_measures(m, qs)[1], [0.0])


# ---------------------------------------------------------------------------
# memory per counted state
# ---------------------------------------------------------------------------

#: Peak traced bytes an engine may take per state that the state cap counts,
#: on top of :data:`FIXED_BYTES`: at the default cap of 10^7 no engine then
#: needs more than about 2.5 GB, so oversized problems fail through the cap
#: and not by swapping.
BYTES_PER_STATE = 256
FIXED_BYTES = 32 << 20


def flat_table(values, n):
    step = tuple((v, 1 / len(values)) for v in values)
    return LatticeMarket(n, 1.0, 1.0, (step,) * n, (0.0,) * n)


def enumerated_chain():
    """Four-point steps: the chain enumerates ``C(n + 2, 2)`` rows beside
    the closed-form draw."""
    m = flat_table((1.3, 1.05, 0.95, 0.8), 700)
    _, groups = as_step_measures(m, solve_martingale_measures(m).designated())
    return lambda: terminal_log_masses(groups, [0.0]), math.comb(702, 2), "count states"


def windowed_atoms():
    """Trinomial steps: the windowed rows of the chain's last draw."""
    m = flat_table((1.01, 1.0, 0.99), 4096)
    qs = [np.array([0.25, 0.5, 0.25])] * m.steps
    return lambda: terminal_log_atoms(m, qs), len(terminal_log_atoms(m, qs)[0]), "count states"


def batched_rows():
    """Two classes of two vertices each: 625 rows, the largest of which
    enumerates three draws beside its closed-form one."""
    one, two = (tuple((v, 1 / 3) for v in values) for values in ((1.3, 1.1, 0.8),
                                                                 (1.2, 0.9, 0.85)))
    m = LatticeMarket(48, 1.0, 1.0, (one, two) * 24, (0.0,) * 48)
    atoms = 0
    for groups in law_oracles.multiset_assignments(m):
        counts = sorted(size + 1 for _, per_class in groups for q, size in per_class
                        if np.count_nonzero(q) == 2)
        atoms = max(atoms, math.prod(counts[:-1]))
    return (lambda: multiset_log_masses(vertex_classes(m), [0.0]), atoms,
            "terminal atoms")


def rolled_back_nodes():
    """Trinomial steps: ``C(n + 3, 3)`` nodes over all dates."""
    m = flat_table((1.01, 1.0, 0.99), 140)
    qs = solve_martingale_measures(m).designated()
    return (lambda: list(backward_induction(m, qs, lambda x: x))[-1],
            math.comb(143, 3), "lattice nodes")


@pytest.mark.parametrize("case", [enumerated_chain, windowed_atoms, batched_rows,
                                  rolled_back_nodes])
def test_peak_bytes_per_counted_state(case, monkeypatch):
    """The states of each engine are the smallest cap that lets it run;
    its traced peak stays within :data:`BYTES_PER_STATE` of them plus
    :data:`FIXED_BYTES`."""
    run, states, named = case()
    monkeypatch.setenv("LECAM_MAX_PATHS", str(states - 1))
    with pytest.raises(SizeLimit, match=named):
        run()
    monkeypatch.setenv("LECAM_MAX_PATHS", str(states))
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BYTES_PER_STATE * states + FIXED_BYTES


def barrier_price():
    """A barrier CRR at N = 2000: 2001 nodes at the last date."""
    m = build_crr(1.003, 1 / 1.003, 1.0, 0.5, 2000, 100.0)
    qs = solve_martingale_measures(m).designated()
    return lambda: price_direct(m, qs, payoff_barrier_up_out(100.0, 130.0)), 2001


def trinomial_representation():
    """Trinomial steps at N = 140: ``C(142, 2)`` nodes at the last date."""
    m = flat_table((1.01, 1.0, 0.99), 140)
    qs = solve_martingale_measures(m).designated()
    return lambda: verify_representation(m, qs), math.comb(142, 2)


@pytest.mark.parametrize("case", [barrier_price, trinomial_representation])
def test_rollback_holds_one_date(case):
    """The rollback holds the nodes of the date it is on and the one after,
    not those of every date: its traced peak stays within
    :data:`BYTES_PER_STATE` per node of the widest date plus 4 MB."""
    run, widest = case()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BYTES_PER_STATE * widest + (4 << 20)
