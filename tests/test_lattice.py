"""Lattice-market checks against brute-force path enumeration.

Every law, price and density computed by the module is re-derived here by
explicit loops over all move tuples, so the vectorized/recombining code
paths are certified by the slowest possible oracle.
"""

import itertools
import math

import numpy as np
import pytest

from lecam import (
    InvalidParams,
    InvalidState,
    LatticeMarket,
    NoArbitrageViolation,
    Partition,
    PathState,
    SizeLimit,
    build_crr,
    complementary,
    complementary_market,
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
    solve_martingale_measures,
    terminal_law,
    verify_mm_criterion,
    verify_representation,
)
from lecam.lattice import (
    as_step_measures,
    count_distribution,
    path_products,
)

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

    def test_rejects_nonpositive_values(self):
        with pytest.raises(InvalidParams):
            LatticeMarket(1, 1.0, 4.0, (((0.0, 0.5), (2.0, 0.5)),), (0.0,))

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

    def test_size_limit(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 10, 4.0)
        with pytest.raises(SizeLimit):
            enumerate_paths(m, max_paths=100)

    def test_terminal_law_matches_brute_force(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(40):
            m = random_market(rng, max_steps=5)
            qs = solve_martingale_measures(m).designated()
            vals, probs = terminal_law(m, qs)
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
            vals, probs = terminal_law(m, qs)
            assert abs(float(probs @ vals) - 1.0) <= 1e-12

    def test_grouped_law_handles_repeated_steps(self):
        """33 identical three-point steps exercise the multinomial branch."""
        step = ((1.2, 0.3), (1.0, 0.4), (0.8, 0.3))
        m = LatticeMarket(33, 1.0, 1.0, (step,) * 33, (0.0,) * 33)
        q = np.array([0.25, 0.5, 0.25])
        vals, probs = terminal_law(m, [q] * 33)
        assert probs.sum() == pytest.approx(1.0, abs=1e-11)
        # mean/variance of the additive log statistic against closed forms
        logs = np.log(np.array([1.2, 1.0, 0.8]))
        mean = 33 * float(q @ logs)
        var = 33 * (float(q @ logs**2) - float(q @ logs) ** 2)
        got_mean = float(probs @ np.log(vals))
        got_var = float(probs @ np.log(vals) ** 2) - got_mean**2
        assert abs(got_mean - mean) <= 1e-9
        assert abs(got_var - var) <= 1e-9

    def test_count_distribution_branches_agree(self):
        rng = np.random.default_rng(RNG_SEED)
        q = rng.random(3) + 0.2
        q /= q.sum()
        # identical-step shortcut (n > 32) vs the generic convolution
        n = 34
        counts_a, probs_a = count_distribution([q] * n)
        order = np.lexsort(counts_a.T)
        from lecam.lattice import _dp_general

        counts_b, probs_b = _dp_general([q] * n, cap=10_000_000)
        order_b = np.lexsort(counts_b.T)
        np.testing.assert_array_equal(counts_a[order], counts_b[order_b])
        np.testing.assert_allclose(probs_a[order], probs_b[order_b],
                                   rtol=0.0, atol=1e-13)


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


class TestComplementaryMarket:
    def test_spot_and_shape_after_up(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        q = solve_martingale_measures(m).designated()
        sub = complementary_market(m, q, PathState(1, (0,)))
        assert sub.steps == 1
        assert sub.s0 == pytest.approx(8.0)
        np.testing.assert_allclose(sub.step_values(0), [2.0, 0.5])

    def test_terminal_state_rejected(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        q = solve_martingale_measures(m).designated()
        with pytest.raises(InvalidState):
            complementary_market(m, q, PathState(2, (0, 0)))

    def test_matches_complementary_experiment(self):
        """Sub-market experiment == complementary experiment at the node.

        The complementary measure of the full path experiment, conditioned
        on the sigma-field of the first t moves, must coincide with the
        experiment induced by the market restarted at the node.
        """
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            m = random_market(rng, max_steps=3)
            if m.steps < 2:
                continue
            qs = solve_martingale_measures(m).designated()
            exp = induced_experiment(m, qs)
            t = int(rng.integers(1, m.steps))
            part = Partition.by_key(exp.outcomes, lambda w: w[:t])
            comp = complementary(exp, part)
            for prefix in sorted({w[:t] for w in exp.outcomes}):
                state = PathState(t, prefix)
                sub = complementary_market(m, qs, state)
                sub_qs = qs[t:]
                sub_exp = induced_experiment(sub, sub_qs)
                idx = exp.index()
                sel = [idx[prefix + tail] for tail in sub_exp.outcomes]
                for name in ("Q", "Q1"):
                    block = comp.measure(name)[sel]
                    cond = block / block.sum()
                    np.testing.assert_allclose(
                        cond, sub_exp.measure(name), rtol=0.0, atol=1e-12
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
        qs = as_step_measures(m, [1 / 3, 2 / 3])
        assert len(qs) == 3
        for v in qs:
            np.testing.assert_allclose(v, [1 / 3, 2 / 3])

    def test_rejects_wrong_shapes(self):
        m = build_crr(2.0, 0.5, 1.0, 0.5, 2, 4.0)
        with pytest.raises(InvalidParams):
            as_step_measures(m, [np.array([0.5, 0.5])])
        with pytest.raises(InvalidParams):
            as_step_measures(m, [0.4, 0.4])
