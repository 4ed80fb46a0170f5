"""Atom-level checks for the finite-experiment machinery.

Oracles here are deliberately dumb: explicit python sums over outcomes,
exhaustive enumeration of deterministic tests, and hand arithmetic on
two-point spaces.
"""

import itertools
import math

import numpy as np
import pytest

from lecam import (
    AbsoluteContinuityViolation,
    BinaryPriors,
    FiniteExperiment,
    InvalidParams,
    Partition,
    SizeLimit,
    bayes_risk,
    complementary,
    experiment_from_json,
    experiment_to_json,
    likelihood_ratio,
    min_bayes_risk,
    neyman_pearson,
    power,
    product,
    restrict,
)
from lecam import Test as RTest  # randomized test; aliased so pytest skips it

RNG_SEED = 42


def expect_oracle(exp, name, values):
    """Plain python expectation: sum of mass * value over atoms."""
    vec = exp.measure(name)
    return sum(float(vec[i]) * float(values[i]) for i in range(exp.size))


def random_experiment(rng, n=None, names=("Q", "Q1"), zeros=False):
    """Random experiment over n outcomes; optionally punch zeros into
    non-base measures (keeping absolute continuity)."""
    n = n or int(rng.integers(2, 7))
    measures = {}
    base_name = names[0]
    base = rng.random(n) + 0.05
    base /= base.sum()
    measures[base_name] = base
    for name in names[1:]:
        vec = rng.random(n) + (0.0 if zeros else 0.05)
        if zeros and n > 2:
            vec[rng.integers(0, n)] = 0.0
        vec /= vec.sum()
        measures[name] = vec
    return FiniteExperiment(tuple(range(n)), measures, base_name)


class TestConstruction:
    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(InvalidParams):
            FiniteExperiment(("a", "a"), {"Q": [0.5, 0.5]}, "Q")

    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidParams):
            FiniteExperiment(("a", "b"), {"Q": [0.6, 0.6]}, "Q")
        with pytest.raises(InvalidParams):
            FiniteExperiment(("a", "b"), {"Q": [-0.1, 1.1]}, "Q")

    def test_rejects_unknown_base(self):
        with pytest.raises(InvalidParams):
            FiniteExperiment(("a", "b"), {"Q": [0.5, 0.5]}, "P")

    def test_rejects_continuity_violation(self):
        with pytest.raises(AbsoluteContinuityViolation):
            FiniteExperiment(
                ("a", "b"), {"Q": [1.0, 0.0], "Q1": [0.5, 0.5]}, "Q"
            )

    def test_measures_are_read_only(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED))
        with pytest.raises(ValueError):
            exp.measure("Q")[0] = 0.3


class TestLikelihoodRatio:
    def test_identity_case(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED))
        np.testing.assert_allclose(likelihood_ratio(exp, "Q", "Q"), 1.0)

    def test_two_point_hand_values(self):
        exp = FiniteExperiment(
            ("u", "d"), {"Q": [1 / 3, 2 / 3], "Q1": [2 / 3, 1 / 3]}, "Q"
        )
        np.testing.assert_allclose(likelihood_ratio(exp, "Q1", "Q"), [2.0, 0.5])

    def test_zero_over_positive(self):
        exp = FiniteExperiment(
            ("u", "d"), {"Q": [0.5, 0.5], "Q1": [1.0, 0.0]}, "Q"
        )
        np.testing.assert_allclose(likelihood_ratio(exp, "Q1", "Q"), [2.0, 0.0])

    def test_expectation_under_den_is_one(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            exp = random_experiment(rng, zeros=True)
            ratio = likelihood_ratio(exp, "Q1", "Q")
            assert abs(expect_oracle(exp, "Q", ratio) - 1.0) <= 1e-12

    def test_violation_raises(self):
        exp = FiniteExperiment(
            ("u", "d"), {"Q": [0.5, 0.5], "Q1": [1.0, 0.0]}, "Q"
        )
        with pytest.raises(AbsoluteContinuityViolation):
            likelihood_ratio(exp, "Q", "Q1")


class TestPower:
    def test_constant_tests(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED))
        ones = RTest({w: 1.0 for w in exp.outcomes})
        zeros = RTest({w: 0.0 for w in exp.outcomes})
        assert power(ones, exp, "Q1") == pytest.approx(1.0, abs=1e-15)
        assert power(zeros, exp, "Q1") == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            exp = random_experiment(rng)
            vec = rng.random(exp.size)
            t = RTest.from_vector(exp, vec)
            for name in exp.names:
                assert abs(power(t, exp, name) - expect_oracle(exp, name, vec)) <= 1e-12

    def test_two_point_value(self):
        exp = FiniteExperiment(("u", "d"), {"Q": [1 / 3, 2 / 3]}, "Q")
        t = RTest({"u": 1.0, "d": 0.0})
        assert power(t, exp, "Q") == pytest.approx(1 / 3, abs=1e-15)


class TestNeymanPearson:
    def setup_method(self):
        self.exp = FiniteExperiment(
            ("u", "d"), {"Q": [2 / 3, 1 / 3], "Q1": [1 / 3, 2 / 3]}, "Q"
        )

    def test_threshold_above_and_below(self):
        # ratios are (0.5, 2)
        t = neyman_pearson(self.exp, "Q", "Q1", 1.25, gamma=0.0)
        assert t.values["u"] == 0.0 and t.values["d"] == 1.0

    def test_tie_randomization(self):
        t = neyman_pearson(self.exp, "Q", "Q1", 2.0, gamma=0.5)
        assert t.values["u"] == 0.0 and t.values["d"] == 0.5

    def test_zero_cutoff_selects_support(self):
        exp = FiniteExperiment(
            ("a", "b", "c"), {"Q": [0.4, 0.4, 0.2], "Q1": [0.5, 0.5, 0.0]}, "Q"
        )
        t = neyman_pearson(exp, "Q", "Q1", 0.0, gamma=0.0)
        assert [t.values[w] for w in exp.outcomes] == [1.0, 1.0, 0.0]

    def test_power_monotone_in_cutoff(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(30):
            exp = random_experiment(rng)
            cuts = np.sort(rng.random(8) * 3.0)
            powers = [
                power(neyman_pearson(exp, "Q", "Q1", float(c)), exp, "Q1")
                for c in cuts
            ]
            assert all(a >= b - 1e-12 for a, b in zip(powers, powers[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParams):
            neyman_pearson(self.exp, "Q", "Q1", -1.0)
        with pytest.raises(InvalidParams):
            neyman_pearson(self.exp, "Q", "Q1", 1.0, gamma=1.5)


def deterministic_tests(exp):
    for bits in itertools.product((0.0, 1.0), repeat=exp.size):
        yield RTest.from_vector(exp, bits)


class TestBayes:
    def test_constant_test_risks(self):
        exp = FiniteExperiment(
            ("u", "d"), {"Q": [2 / 3, 1 / 3], "Q1": [1 / 3, 2 / 3]}, "Q"
        )
        priors = BinaryPriors(0.3, 0.7)
        always0 = RTest({"u": 0.0, "d": 0.0})
        always1 = RTest({"u": 1.0, "d": 1.0})
        assert bayes_risk(exp, "Q", "Q1", always0, priors) == pytest.approx(0.7)
        assert bayes_risk(exp, "Q", "Q1", always1, priors) == pytest.approx(0.3)

    def test_crr_example_risk(self):
        """One-period worked example: NP test at c=1.25, priors (5/9, 4/9)."""
        exp = FiniteExperiment(
            ("u", "d"), {"Q": [2 / 3, 1 / 3], "Q1": [1 / 3, 2 / 3]}, "Q"
        )
        priors = BinaryPriors(5 / 9, 4 / 9)
        t = neyman_pearson(exp, "Q", "Q1", 1.25)
        assert abs(bayes_risk(exp, "Q", "Q1", t, priors) - 1 / 3) <= 1e-15
        risk, best = min_bayes_risk(exp, "Q", "Q1", priors)
        assert abs(risk - 1 / 3) <= 1e-15
        assert best.values["u"] == 0.0 and best.values["d"] == 1.0

    def test_indistinguishable_hypotheses(self):
        exp = FiniteExperiment(
            ("u", "d"), {"Q": [0.5, 0.5], "Q1": [0.5, 0.5]}, "Q"
        )
        for l0 in (0.2, 0.5, 0.8):
            risk, _ = min_bayes_risk(exp, "Q", "Q1", BinaryPriors(l0, 1.0 - l0))
            assert risk == pytest.approx(min(l0, 1.0 - l0), abs=1e-15)

    def test_disjoint_supports(self):
        exp = FiniteExperiment(
            ("u", "d", "z"),
            {"Q": [0.5, 0.0, 0.5], "Q1": [0.0, 1.0, 0.0], "P": [0.3, 0.3, 0.4]},
            "P",
        )
        risk, _ = min_bayes_risk(exp, "Q", "Q1", BinaryPriors(0.5, 0.5))
        assert risk == 0.0

    def test_degenerate_priors(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED))
        risk0, t0 = min_bayes_risk(exp, "Q", "Q1", BinaryPriors(0.0, 1.0))
        risk1, t1 = min_bayes_risk(exp, "Q", "Q1", BinaryPriors(1.0, 0.0))
        assert risk0 == 0.0 and risk1 == 0.0
        assert bayes_risk(exp, "Q", "Q1", t0, BinaryPriors(0.0, 1.0)) == 0.0
        assert bayes_risk(exp, "Q", "Q1", t1, BinaryPriors(1.0, 0.0)) == 0.0

    def test_optimal_among_deterministic_tests(self):
        """Exhaustive NP-lemma check on spaces small enough to enumerate."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(40):
            exp = random_experiment(rng, n=int(rng.integers(2, 7)), zeros=True)
            l0 = float(rng.uniform(0.05, 0.95))
            priors = BinaryPriors(l0, 1.0 - l0)
            risk, _ = min_bayes_risk(exp, "Q", "Q1", priors)
            floor = min(
                bayes_risk(exp, "Q", "Q1", t, priors) for t in deterministic_tests(exp)
            )
            assert risk <= floor + 1e-12
            # linearity: no deterministic test can beat the NP vertex either
            assert risk >= floor - 1e-12

    def test_optimal_among_random_randomized_tests(self):
        rng = np.random.default_rng(RNG_SEED)
        exp = random_experiment(rng, n=6)
        priors = BinaryPriors(0.4, 0.6)
        risk, _ = min_bayes_risk(exp, "Q", "Q1", priors)
        for _ in range(1000):
            t = RTest.from_vector(exp, rng.random(exp.size))
            assert bayes_risk(exp, "Q", "Q1", t, priors) >= risk - 1e-12

    def test_priors_validation(self):
        with pytest.raises(InvalidParams):
            BinaryPriors(0.5, 0.6)
        with pytest.raises(InvalidParams):
            BinaryPriors(-0.1, 1.1)
        p = BinaryPriors.from_cutoff(1.25)
        assert p.lambda0 == pytest.approx(5 / 9, abs=1e-15)
        assert p.lambda1 == pytest.approx(4 / 9, abs=1e-15)
        with pytest.raises(InvalidParams):
            BinaryPriors.from_cutoff(-0.5)


class TestProduct:
    def test_single_factor_unchanged(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED))
        prod = product([exp])
        assert prod.size == exp.size
        for name in exp.names:
            np.testing.assert_allclose(prod.measure(name), exp.measure(name))

    def test_two_bernoulli_factors(self):
        b = FiniteExperiment((1, 0), {"Q": [1 / 3, 2 / 3]}, "Q")
        prod = product([b, b])
        masses = dict(zip(prod.outcomes, prod.measure("Q")))
        assert masses[(1, 1)] == pytest.approx(1 / 9, abs=1e-15)
        assert masses[(1, 0)] == pytest.approx(2 / 9, abs=1e-15)
        assert masses[(0, 1)] == pytest.approx(2 / 9, abs=1e-15)
        assert masses[(0, 0)] == pytest.approx(4 / 9, abs=1e-15)

    def test_ratios_multiply_across_factors(self):
        rng = np.random.default_rng(RNG_SEED)
        factors = [random_experiment(rng, n=2) for _ in range(3)]
        prod = product(factors)
        ratio = likelihood_ratio(prod, "Q1", "Q")
        per_factor = [likelihood_ratio(e, "Q1", "Q") for e in factors]
        for i, outcome in enumerate(prod.outcomes):
            expected = 1.0
            for j, e in enumerate(factors):
                expected *= per_factor[j][e.index()[outcome[j]]]
            assert abs(ratio[i] - expected) <= 1e-12

    def test_size_limit(self, monkeypatch):
        b = FiniteExperiment((1, 0), {"Q": [0.5, 0.5]}, "Q")
        monkeypatch.setenv("LECAM_MAX_PATHS", "255")
        with pytest.raises(SizeLimit, match="exceeds cap 255"):
            product([b] * 8)
        monkeypatch.setenv("LECAM_MAX_PATHS", "256")
        assert product([b] * 8).size == 256

    def test_mismatched_names_rejected(self):
        a = FiniteExperiment((1, 0), {"Q": [0.5, 0.5]}, "Q")
        b = FiniteExperiment((1, 0), {"P": [0.5, 0.5]}, "P")
        with pytest.raises(InvalidParams):
            product([a, b])


class TestRestrictAndComplementary:
    def test_trivial_partition(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED))
        part = Partition((tuple(exp.outcomes),))
        r = restrict(exp, part)
        assert r.size == 1
        for name in exp.names:
            np.testing.assert_allclose(r.measure(name), [1.0])
        comp = complementary(exp, part)
        for name in exp.names:
            np.testing.assert_allclose(comp.measure(name), exp.measure(name),
                                       rtol=0.0, atol=1e-12)

    def test_discrete_partition(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED), zeros=True)
        part = Partition(tuple((w,) for w in exp.outcomes))
        r = restrict(exp, part)
        for name in exp.names:
            np.testing.assert_allclose(r.measure(name), exp.measure(name))
        comp = complementary(exp, part)
        # full information: nothing left over, all complementary ratios are 1
        base = exp.measure(exp.base)
        for name in exp.names:
            np.testing.assert_allclose(comp.measure(name), base, rtol=0.0,
                                       atol=1e-12)

    def test_restricted_ratio_is_conditional_expectation(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(30):
            exp = random_experiment(rng, n=6, zeros=True)
            part = Partition.by_key(exp.outcomes, lambda w: w % 3)
            r = restrict(exp, part)
            ratio = likelihood_ratio(exp, "Q1", "Q")
            base = exp.measure(exp.base)
            idx = exp.index()
            for bi, block in enumerate(part.blocks):
                mass = sum(base[idx[w]] for w in block)
                if mass == 0.0:
                    continue
                cond = sum(base[idx[w]] * ratio[idx[w]] for w in block) / mass
                r_ratio = likelihood_ratio(r, "Q1", "Q")[bi]
                assert abs(r_ratio - cond) <= 1e-12

    def test_factorization_identity(self):
        """density = restricted density x complementary density, atom by atom."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            exp = random_experiment(rng, n=n, names=("Q", "Q1", "P"), zeros=True)
            k = int(rng.integers(1, n))
            part = Partition.by_key(exp.outcomes, lambda w: w % (k + 1))
            r = restrict(exp, part)
            comp = complementary(exp, part)
            block_ix = {w: i for i, b in enumerate(part.blocks) for w in b}
            base = exp.measure(exp.base)
            for name in exp.names:
                full = likelihood_ratio(exp, name, exp.base)
                coarse = likelihood_ratio(r, name, exp.base)
                fine = likelihood_ratio(comp, name, exp.base)
                for i, w in enumerate(exp.outcomes):
                    if base[i] == 0.0:
                        continue
                    assert abs(full[i] - coarse[block_ix[w]] * fine[i]) <= 1e-12

    def test_zero_covariance(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            exp = random_experiment(rng, n=int(rng.integers(3, 9)),
                                    names=("Q", "Q1"), zeros=True)
            part = Partition.by_key(exp.outcomes, lambda w: w % 2)
            r = restrict(exp, part)
            comp = complementary(exp, part)
            base = exp.measure(exp.base)
            block_ix = {w: i for i, b in enumerate(part.blocks) for w in b}
            coarse = likelihood_ratio(r, "Q1", exp.base)
            coarse_at = np.array([coarse[block_ix[w]] for w in exp.outcomes])
            fine = likelihood_ratio(comp, "Q1", exp.base)
            cov = (base * coarse_at * fine).sum() - (base * coarse_at).sum() * (base * fine).sum()
            assert abs(cov) <= 1e-12

    def test_partition_must_cover(self):
        exp = random_experiment(np.random.default_rng(RNG_SEED), n=4)
        with pytest.raises(InvalidParams):
            restrict(exp, Partition(((0, 1),)))

    def test_partition_validation(self):
        with pytest.raises(InvalidParams):
            Partition(((0, 1), (1, 2)))
        with pytest.raises(InvalidParams):
            Partition(((0,), ()))


class TestJson:
    def test_round_trip(self):
        exp = FiniteExperiment(
            ("u", "d"), {"Q": [1 / 3, 2 / 3], "Q1": [2 / 3, 1 / 3]}, "Q"
        )
        doc = experiment_to_json(exp)
        back = experiment_from_json(doc)
        assert back.outcomes == exp.outcomes
        assert back.base == exp.base
        for name in exp.names:
            np.testing.assert_allclose(back.measure(name), exp.measure(name))

    def test_list_outcomes_become_tuples(self):
        doc = {"outcomes": [[0, 1], [1, 0]], "measures": {"Q": [0.5, 0.5]},
               "base": "Q"}
        exp = experiment_from_json(doc)
        assert exp.outcomes == ((0, 1), (1, 0))

    def test_missing_field(self):
        with pytest.raises(InvalidParams):
            experiment_from_json({"outcomes": [0, 1]})
