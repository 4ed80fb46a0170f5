"""Local-expansion diagnostics, checked against path-by-path enumeration.

The module under test computes exact laws of additive statistics through a
convolution DP; the oracle here walks every path of a small lattice with
``itertools.product`` and accumulates the statistic literally.  On lattices
too large to enumerate, the sup-CDF law, whose binomial draws keep only
their Hoeffding windows, is checked against the law with every count.  The
sup-CDF distance, taken from unsorted atoms in bucket bounds, is checked
against the sorted route with a long-double running sum.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import bdtr, bdtrc

from lecam import (
    BSModel,
    LatticeMarket,
    InvalidParams,
    InvalidTangent,
    LemmaHypothesisViolated,
    PathState,
    Schedule,
    SizeLimit,
    StepFunction,
    ThetaOutOfRange,
    build_discrete_model,
    convergence_study,
    crr_tangent,
    lan_diagnostics,
    limit_price_terminal,
    dynamic_price,
    make_tangent,
    np_decomposition,
    one_period_mm,
    path_measure,
    payoff_european_call,
    price_direct,
    price_via_tests,
    schedule_family,
    solve_martingale_measures,
    study_from_json,
    symmetric_trinomial_tangent,
    tangent_from_json,
    third_lemma_check,
    verify_representation,
)
from lecam import lan
from lecam._binom import ndtr
from lecam.lan import _BUCKET_ATOMS, _SORT_ATOMS, _TAIL_Z, _cdf_sup_distance
from lecam.lattice import (
    LAW_TAIL,
    _binom_pmf,
    _chain,
    _composition_rank,
    _count_logs,
    _grouped_count_law,
    _window,
    as_step_measures,
    combine_additive_laws,
    count_distribution,
    terminal_log_atoms,
)

from law_oracles import sorted_sup_distance, terminal_log_law

RNG_SEED = 42


def brute_law(path, n, measure_of, stat):
    """Law of ``sum_j stat(j)[x_j]`` by enumerating every path: one
    ``(value, probability)`` per path, sorted by value."""
    k = len(path.probs)
    g = np.array(path.g)
    per_step_p = [measure_of(j) for j in range(n)]
    per_step_s = [stat(j, g) for j in range(n)]
    vals, probs = [], []
    for combo in itertools.product(range(k), repeat=n):
        p = 1.0
        s = 0.0
        for j, o in enumerate(combo):
            p *= per_step_p[j][o]
            s += per_step_s[j][o]
        vals.append(s)
        probs.append(p)
    order = np.argsort(vals, kind="stable")
    return np.array(vals)[order], np.array(probs)[order]


def brute_moments(path, schedule, n, measure_of, stat):
    """Mean/variance of ``sum_j stat(j)[x_j]`` by enumerating every path."""
    vals, probs = brute_law(path, n, measure_of, stat)
    mean = float(probs @ vals)
    return mean, float(probs @ (vals - mean) ** 2)


def brute_states(vals):
    """Distinct atoms of an enumerated law (path sums that differ only by
    rounding count once)."""
    return len(np.unique(np.round(vals, 12)))


def hoeffding_halfwidth(n):
    """``s = sqrt(n ln(2/tau) / 2)``: the counts of a draw of ``n`` farther
    than ``s`` from their mean hold at most ``tau = LAW_TAIL`` of its mass."""
    return math.sqrt(n * math.log(2.0 / LAW_TAIL) / 2.0)


def flat_schedule(n, sigma=0.2, rate=0.0, horizon=1.0):
    return Schedule.from_limits(
        StepFunction((horizon,), (sigma,)),
        StepFunction((horizon,), (rate,)),
        n,
    )


def varying_schedule(n=4):
    """Two volatility regimes and a flat rate, aligned with an N=4 grid."""
    return Schedule.from_limits(
        StepFunction((0.5, 1.0), (0.3, 0.15)),
        StepFunction((1.0,), (0.05,)),
        n,
    )


def rate_switch_schedule(n=8):
    """Volatility and a positive rate both switch at T/4, on an N=8 grid:
    the first half (t = T/2) holds two step classes."""
    return Schedule.from_limits(
        StepFunction((0.25, 1.0), (0.3, 0.15)),
        StepFunction((0.25, 1.0), (0.02, 0.08)),
        n,
    )


#: (schedule, t, steps up to t): the whole grid, and a truncated law whose
#: bond shift is not one.
ENUMERATION_CASES = [(varying_schedule, None, 4), (rate_switch_schedule, 0.5, 4)]


def log_s_stat(schedule):
    return lambda j, g: np.log(1.0 + schedule.step_vol(j) * g)


class TestTangentPaths:
    def test_crr_moments(self):
        path = crr_tangent(1.0, 1.0)
        assert path.probs == (0.5, 0.5)
        assert path.g == (1.0, -1.0)
        assert path.C == 1.0
        path = crr_tangent(2.0, 1.0)
        p = np.array(path.probs)
        g = np.array(path.g)
        assert float(p @ g) == pytest.approx(0.0, abs=1e-14)
        assert float(p @ g**2) == pytest.approx(1.0, abs=1e-14)
        assert path.probs[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_symmetric_trinomial_moments(self):
        for probs in [(0.25, 0.5, 0.25), (0.3, 0.3, 0.4), (0.1, 0.8, 0.1)]:
            path = symmetric_trinomial_tangent(probs)
            p = np.array(path.probs)
            g = np.array(path.g)
            assert float(p @ g) == pytest.approx(0.0, abs=1e-13)
            assert float(p @ g**2) == pytest.approx(1.0, abs=1e-13)
            assert g[0] == pytest.approx(-g[2], abs=1e-14)
        sym = symmetric_trinomial_tangent((0.25, 0.5, 0.25))
        assert sym.g[1] == pytest.approx(0.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidTangent):
            make_tangent((0.5, 0.5), (1.0, 0.0))        # not centered
        with pytest.raises(InvalidTangent):
            make_tangent((0.5, 0.5), (0.5, -0.5))       # not normalized
        with pytest.raises(InvalidTangent):
            make_tangent((0.5, 0.5), (1.0, -1.0), C=0.5)  # g below -C
        with pytest.raises(InvalidTangent):
            make_tangent((0.5, 0.5), (1.0, -1.0), C=-1.0)
        with pytest.raises(InvalidTangent):
            make_tangent((0.7, 0.3), (1.0,))
        with pytest.raises(InvalidTangent):
            make_tangent((0.5, 0.6), (1.0, -1.0))
        with pytest.raises(InvalidTangent):
            crr_tangent(0.0, 1.0)
        with pytest.raises(InvalidTangent):
            symmetric_trinomial_tangent((0.5, 0.5))
        with pytest.raises(InvalidTangent):
            symmetric_trinomial_tangent((0.5, 0.5, 0.0))

    def test_theta_range(self):
        path = crr_tangent(1.0, 1.0)
        assert path.theta_max == 1.0
        assert path.essential_infimum() == -1.0
        q = path_measure(path, 0.25)
        assert q.tolist() == [0.625, 0.375]
        assert path_measure(path, 0.0).tolist() == [0.5, 0.5]
        with pytest.raises(ThetaOutOfRange):
            path_measure(path, 1.0)
        with pytest.raises(ThetaOutOfRange):
            path_measure(path, -0.1)

    def test_explicit_c_shrinks_theta_range(self):
        path = make_tangent((0.5, 0.5), (1.0, -1.0), C=4.0)
        assert path.theta_max == 0.25
        with pytest.raises(ThetaOutOfRange):
            path_measure(path, 0.3)


class TestOnePeriodMartingale:
    def test_fixture(self):
        q = one_period_mm(crr_tangent(1.0, 1.0), sigma=0.2, rho=0.05)
        assert q.tolist() == [0.625, 0.375]

    def test_reprices_the_asset(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            probs = rng.uniform(0.1, 1.0, size=3)
            probs /= probs.sum()
            path = symmetric_trinomial_tangent(tuple(probs))
            sigma = float(rng.uniform(0.05, 0.5))
            rho = float(rng.uniform(0.0, sigma * 0.5))
            q = one_period_mm(path, sigma, rho)
            g = np.array(path.g)
            assert q.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(q >= 0.0)
            grossed = (1.0 + sigma * g) / (1.0 + rho)
            assert float(q @ grossed) == pytest.approx(1.0, abs=1e-12)

    def test_hypothesis_violations(self):
        path = crr_tangent(1.0, 1.0)   # essinf g = -1
        with pytest.raises(LemmaHypothesisViolated):
            one_period_mm(path, sigma=0.1, rho=0.2)
        wide = make_tangent((0.5, 0.5), (1.0, -1.0), C=4.0)
        with pytest.raises(ThetaOutOfRange):
            one_period_mm(wide, sigma=1.0, rho=0.3)
        with pytest.raises(InvalidParams):
            one_period_mm(path, sigma=0.0, rho=0.0)
        with pytest.raises(InvalidParams):
            one_period_mm(path, sigma=0.2, rho=-0.01)


class TestSchedule:
    def test_step_quantities(self):
        sched = flat_schedule(4, sigma=0.2, rate=0.0)
        assert sched.dt == 0.25
        assert sched.step_vol(0) == pytest.approx(0.1, abs=1e-15)
        assert sched.step_rate(0) == 0.0

    def test_per_step_arrays(self):
        sched = two_piece_schedule(8)
        np.testing.assert_array_equal(
            sched.step_vols, [s * math.sqrt(sched.dt) for s in sched.sigmas])
        np.testing.assert_array_equal(sched.step_rates, [r * sched.dt for r in sched.rhos])
        assert sched.step_vol(5) == sched.step_vols[5] and type(sched.step_vol(5)) is float
        with pytest.raises(ValueError):
            sched.step_vols[0] = 1.0

    def test_rate_mapping_matches_bank_account(self):
        for n in (1, 3, 8):
            sched = flat_schedule(n, sigma=0.2, rate=0.07, horizon=2.0)
            growth = 1.0
            for j in range(n):
                growth *= 1.0 + sched.step_rate(j)
            assert growth == pytest.approx(math.exp(0.07 * 2.0), abs=1e-12)

    def test_midpoint_sampling_of_pieces(self):
        sched = varying_schedule(4)
        assert sched.sigmas == (0.3, 0.3, 0.15, 0.15)
        assert sched.sigma_l2_gap() == pytest.approx(0.0, abs=1e-15)
        # off-grid piece boundary leaves a genuine sampling error
        off = Schedule.from_limits(
            StepFunction((0.4, 1.0), (0.3, 0.15)),
            StepFunction((1.0,), (0.0,)),
            2,
        )
        assert off.sigmas == (0.3, 0.15)
        # the first step misrepresents sigma on (0.4, 0.5]
        assert off.sigma_l2_gap() == pytest.approx(0.1 * 0.15**2, abs=1e-15)

    def test_validation(self):
        lim_s = StepFunction((1.0,), (0.2,))
        lim_r = StepFunction((1.0,), (0.0,))
        with pytest.raises(InvalidParams):
            Schedule(N=0, horizon=1.0, sigmas=(), rhos=(),
                     limit_sigma=lim_s, limit_rate=lim_r)
        with pytest.raises(InvalidParams):
            Schedule(N=2, horizon=1.0, sigmas=(0.2,), rhos=(0.0, 0.0),
                     limit_sigma=lim_s, limit_rate=lim_r)
        with pytest.raises(InvalidParams):
            Schedule(N=1, horizon=1.0, sigmas=(0.0,), rhos=(0.0,),
                     limit_sigma=lim_s, limit_rate=lim_r)
        with pytest.raises(InvalidParams):
            Schedule(N=1, horizon=1.0, sigmas=(0.2,), rhos=(-0.1,),
                     limit_sigma=lim_s, limit_rate=lim_r)
        with pytest.raises(InvalidParams):
            Schedule(N=1, horizon=2.0, sigmas=(0.2,), rhos=(0.0,),
                     limit_sigma=lim_s, limit_rate=lim_r)


class TestDiscreteModel:
    def test_returns_and_measures(self):
        path = crr_tangent(1.0, 1.0)
        sched = flat_schedule(4, sigma=0.2, rate=0.05)
        model = build_discrete_model(path, sched, s0=100.0)
        assert model.market.steps == 4
        assert model.market.s0 == 100.0
        vol, rate = sched.step_vol(0), sched.step_rate(0)
        values = [v for v, _ in model.market.returns[0]]
        assert values[0] == pytest.approx((1.0 + vol) / (1.0 + rate), abs=1e-15)
        assert values[1] == pytest.approx((1.0 - vol) / (1.0 + rate), abs=1e-15)
        for j, q in enumerate(model.measures):
            qa = np.array(q)
            vals = np.array([v for v, _ in model.market.returns[j]])
            assert float(qa @ vals) == pytest.approx(1.0, abs=1e-12)
            assert model.thetas[j] == pytest.approx(rate / vol, abs=1e-15)

    def test_terminal_law_is_martingale(self):
        path = symmetric_trinomial_tangent((0.3, 0.3, 0.4))
        sched = varying_schedule(4)
        model = build_discrete_model(path, sched, s0=50.0)
        logs, probs = terminal_log_law(model.market, list(map(np.array, model.measures)))
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)
        # discounted-price ratios average to one under the designated measures
        assert float(probs @ np.exp(logs)) == pytest.approx(1.0, abs=1e-12)

    def test_too_coarse_grid_rejected(self):
        path = crr_tangent(1.0, 1.0)
        sched = flat_schedule(1, sigma=1.5)   # step vol 1.5 >= 1/C
        with pytest.raises(ThetaOutOfRange):
            build_discrete_model(path, sched)
        with pytest.raises(ThetaOutOfRange):
            lan_diagnostics(path, sched)
        with pytest.raises(ThetaOutOfRange):
            third_lemma_check(path, sched)


class TestLanDiagnostics:
    def test_moments_match_enumeration(self):
        path = symmetric_trinomial_tangent((0.3, 0.3, 0.4))
        base = np.array(path.probs)
        for make_schedule, t, n in ENUMERATION_CASES:
            sched = make_schedule()
            report = lan_diagnostics(path, sched, t)
            values, probs = brute_law(path, n, lambda j: base, log_s_stat(sched))
            mean, var = brute_moments(path, sched, n, lambda j: base, log_s_stat(sched))
            assert report.mean == pytest.approx(mean, abs=1e-12)
            assert report.var == pytest.approx(var, abs=1e-12)
            v = sched.limit_sigma.integral_sq(report.t)
            assert report.mean_gap == pytest.approx(abs(mean + 0.5 * v), abs=1e-12)
            assert report.var_gap == pytest.approx(abs(var - v), abs=1e-12)
            assert report.cdf_sup_distance == pytest.approx(
                sorted_sup_distance(values, probs, -0.5 * v, v), abs=1e-12
            )
            # atoms of the windowed law: at n <= 23 steps each window holds every count
            assert hoeffding_halfwidth(n) >= n
            assert report.states == brute_states(values)
            assert report.noether_max == pytest.approx(0.3 * math.sqrt(sched.dt), abs=1e-15)
            assert report.riemann_gap == pytest.approx(0.0, abs=1e-13)

    def test_needs_no_martingale_measure(self):
        # a step rate above the volatility leaves no martingale measure
        path = crr_tangent(1.0, 1.0)
        sched = flat_schedule(4, sigma=0.2, rate=3.0)
        with pytest.raises(LemmaHypothesisViolated):
            third_lemma_check(path, sched)
        report = lan_diagnostics(path, sched)
        base = np.array(path.probs)
        mean, var = brute_moments(path, sched, 4, lambda j: base, log_s_stat(sched))
        assert report.mean == pytest.approx(mean, abs=1e-12)
        assert report.var == pytest.approx(var, abs=1e-12)
        assert report.states == 5

    def test_intermediate_time(self):
        path = crr_tangent(1.0, 1.0)
        sched = flat_schedule(8, sigma=0.25, rate=0.0)
        report = lan_diagnostics(path, sched, t=0.5)
        assert report.t == 0.5
        base = np.array(path.probs)

        def stat(j, g):
            return np.log(1.0 + sched.step_vol(j) * g)

        mean, var = brute_moments(path, sched, 4, lambda j: base, stat)
        assert report.mean == pytest.approx(mean, abs=1e-13)
        assert report.var == pytest.approx(var, abs=1e-13)
        with pytest.raises(InvalidParams):
            lan_diagnostics(path, sched, t=0.3)
        with pytest.raises(InvalidParams):
            lan_diagnostics(path, sched, t=0.0)
        with pytest.raises(InvalidParams):
            lan_diagnostics(path, sched, t=1.5)

    def test_normal_approximation_tightens(self):
        path = crr_tangent(1.0, 1.0)
        coarse = lan_diagnostics(path, flat_schedule(4))
        fine = lan_diagnostics(path, flat_schedule(256))
        assert fine.cdf_sup_distance < coarse.cdf_sup_distance
        assert fine.noether_max < coarse.noether_max
        # binary lattice collapses to N+1 distinct sums, of which the windowed
        # law keeps the up-counts within s = 77.35 of 128
        s = hoeffding_halfwidth(256)
        assert fine.states == math.floor(128 + s) - math.ceil(128 - s) + 1 == 155


def shuffled(rng, values, probs):
    order = rng.permutation(len(values))
    return values[order], probs[order]


def law_moments(values, probs):
    mean = float(probs @ values)
    return mean, float(probs @ (values - mean) ** 2)


def lattice_atoms(rng, n):
    """About ``n`` unsorted atoms of a sum of two independent binomial
    lattices with incommensurate steps, the shape of the laws of
    ``lan-report``, as :func:`combine_additive_laws` lists them."""
    k = max(1, math.isqrt(n) - 1)
    laws = []
    for step in (1.0, math.sqrt(2.0)):
        counts = np.arange(k + 1)
        laws.append((step * counts, _binom_pmf(counts, k, float(rng.uniform(0.3, 0.7)))))
    return combine_additive_laws(laws)


class TestCdfSupDistance:
    """The sup-distance from unsorted atoms, in bucket bounds, against the
    sorted oracle :func:`sorted_sup_distance`, to within 1e-15."""

    def brute(self, values, probs, mean, var, ys):
        """max over ``ys`` of |F(y) - Phi|, F summed atom by atom."""
        sd = math.sqrt(var)
        return max(
            abs(sum(p for v, p in zip(values, probs) if v <= y)
                - 0.5 * math.erfc(-(y - mean) / (sd * math.sqrt(2.0))))
            for y in ys
        )

    def check(self, rng, values, probs, mean, var):
        values, probs = shuffled(rng, np.asarray(values, dtype=float),
                                 np.asarray(probs, dtype=float))
        got = _cdf_sup_distance(values, probs, mean, var)
        assert abs(got - sorted_sup_distance(values, probs, mean, var)) <= 1e-15
        return got

    def test_exact_at_the_atoms(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            # ties possible; two atoms far out in the tails where Phi is 0 or 1
            values = np.append(np.round(rng.normal(0.0, 1.0, k), 1), rng.choice([-40.0, 40.0], 2))
            probs = rng.random(k + 2) + 0.05
            probs /= probs.sum()
            mean, var = float(rng.normal(0.0, 0.3)), float(rng.uniform(0.3, 2.0))
            got = self.check(rng, values, probs, mean, var)
            eps = 1e-10
            ys = [v + s for v in values for s in (0.0, -eps)]
            ys += list(np.linspace(-8.0, 8.0, 2001))
            assert abs(got - self.brute(values, probs, mean, var, ys)) <= 1e-9
            # a grid that misses the atoms can only read lower
            grid = np.linspace(mean - 8.0, mean + 8.0, 1000)
            assert self.brute(values, probs, mean, var, grid) <= got + 1e-15

    @pytest.mark.parametrize("n", [5, 100, _SORT_ATOMS, _SORT_ATOMS + 1, 20_000, 300_000])
    def test_lattice_laws_of_every_size(self, n):
        rng = np.random.default_rng(n)
        values, probs = lattice_atoms(rng, n)
        mean, var = law_moments(values, probs)
        for shift in (0.0, 0.3):  # centred, and off-centre by 0.3 sd
            self.check(rng, values, probs, mean + shift * math.sqrt(var), var)

    @pytest.mark.parametrize("steps", [3, 120])
    def test_equal_atoms_across_classes(self, steps):
        """``log 4 == 2 log 2``, so the classes ``(2, 0.5)`` and ``(4, 0.25)``
        list one value as several atoms, by count vectors whose sums are
        exactly equal: 16 atoms for 3 steps each (sorted whole), 93 * 77 on
        the windows of 120 (in buckets)."""
        two, four = ((2.0, 0.5), (0.5, 0.5)), ((4.0, 0.5), (0.25, 0.5))
        m = LatticeMarket(2 * steps, 1.0, 1.0, (two, four) * steps, (0.0,) * (2 * steps))
        values, probs = terminal_log_atoms(m, solve_martingale_measures(m).designated())
        assert len(values) == {3: 16, 120: 93 * 77}[steps] > len(np.unique(values))
        assert (len(values) > _SORT_ATOMS) == (steps == 120)
        mean, var = law_moments(values, probs)
        self.check(np.random.default_rng(steps), values, probs, mean, var)

    def test_atoms_on_bucket_edges(self):
        """With mean 0 and variance 1 every atom sits on a bucket edge of
        the window, as close as floats allow, one for every edge in turn."""
        rng = np.random.default_rng(RNG_SEED)
        buckets = 600
        edges = np.linspace(-_TAIL_Z, _TAIL_Z, buckets + 1)
        values = np.resize(edges, buckets * _BUCKET_ATOMS)
        probs = np.exp(-0.5 * values ** 2) * rng.uniform(0.5, 1.5, len(values))
        probs /= probs.sum()
        self.check(rng, values, probs, 0.0, 1.0)
        self.check(rng, values, probs, *law_moments(values, probs))

    @pytest.mark.parametrize("n", [50, 6000])
    def test_atoms_beyond_the_window(self, n):
        """Atoms beyond ``_TAIL_Z`` standard deviations on both sides, with
        little mass there and with so much that the tails hold the sup."""
        rng = np.random.default_rng(n)
        far = rng.uniform(_TAIL_Z, 40.0, n // 5) * rng.choice([-1.0, 1.0], n // 5)
        values = np.concatenate((rng.normal(0.0, 1.0, n - n // 5), far))
        for far_mass in (1e-6, 0.3):
            probs = np.where(np.abs(values) > _TAIL_Z, far_mass, 1.0) * rng.uniform(0.5, 1.5, n)
            probs /= probs.sum()
            self.check(rng, values, probs, 0.0, 1.0)

    def test_one_atom(self):
        rng = np.random.default_rng(RNG_SEED)
        for value in (0.3, -2.0, 20.0):
            got = self.check(rng, [value], [1.0], 0.0, 1.0)
            assert got == pytest.approx(max(ndtr(np.array([value]))[0],
                                            1.0 - ndtr(np.array([value]))[0]), abs=1e-16)

    def test_all_mass_in_one_bucket(self):
        """Every atom in one bucket, which is then sorted whole: spread
        below a bucket's width, and all on one value; and the same atoms
        against a narrow Gaussian centred on them."""
        rng = np.random.default_rng(RNG_SEED)
        n = 2 * _SORT_ATOMS
        assert 1e-4 < 2.0 * _TAIL_Z / (n // _BUCKET_ATOMS)
        probs = rng.random(n)
        probs /= probs.sum()
        for values in (0.2 + 1e-4 * rng.random(n), np.full(n, 0.2)):
            self.check(rng, values, probs, 0.0, 1.0)
            self.check(rng, values, probs, 0.2, 1e-6)


class TestThirdLemma:
    def test_moments_match_enumeration(self):
        path = symmetric_trinomial_tangent((0.3, 0.3, 0.4))
        for make_schedule, t, n in ENUMERATION_CASES:
            sched = make_schedule()
            report = third_lemma_check(path, sched, t)

            def measure_of(j):
                return one_period_mm(path, sched.step_vol(j), sched.step_rate(j))

            def z_stat(j, g):
                return sched.step_vol(j) * g

            z_mean, z_var = brute_moments(path, sched, n, measure_of, z_stat)
            s_mean, s_var = brute_moments(path, sched, n, measure_of, log_s_stat(sched))
            assert report.z_mean == pytest.approx(z_mean, abs=1e-12)
            assert report.z_var == pytest.approx(z_var, abs=1e-12)
            assert report.logs_mean == pytest.approx(s_mean, abs=1e-12)
            assert report.logs_var == pytest.approx(s_var, abs=1e-12)
            r = sched.limit_rate.integral(report.t)
            v = sched.limit_sigma.integral_sq(report.t)
            assert report.z_mean_gap == pytest.approx(abs(z_mean - r), abs=1e-12)
            assert report.logs_mean_gap == pytest.approx(
                abs(s_mean - (r - 0.5 * v)), abs=1e-12
            )
            assert report.logs_var_gap == pytest.approx(abs(s_var - v), abs=1e-12)
            alpha = sched.dt * sum(
                (sched.rhos[j] / sched.sigmas[j]) ** 2 for j in range(n)
            )
            assert report.alpha == pytest.approx(alpha, abs=1e-15)

    def test_drift_appears_under_measure_change(self):
        # with a positive rate the z statistic drifts to integral(r)
        path = crr_tangent(1.0, 1.0)
        report = third_lemma_check(path, flat_schedule(512, sigma=0.2, rate=0.05))
        assert report.z_mean == pytest.approx(0.05, abs=1e-3)
        assert report.z_mean_gap < 1e-3
        base_report = lan_diagnostics(path, flat_schedule(512, sigma=0.2, rate=0.05))
        assert base_report.mean == pytest.approx(-0.02, abs=1e-3)


def two_piece_schedule(n):
    """Volatility 0.2 / 0.3 and rate 0.01 / 0.03 on [0, 0.5] and (0.5, 1]."""
    return Schedule.from_limits(
        StepFunction((0.5, 1.0), (0.2, 0.3)),
        StepFunction((0.5, 1.0), (0.01, 0.03)),
        n,
    )


def full_log_law(market, measures, n):
    """The law of ``log(S_n / S_0)`` with every count: per return class the
    full count law of :func:`count_distribution`, the classes combined,
    sorted and exactly equal atoms merged, shifted by ``log B_n``."""
    head = market.head(n)
    laws = []
    for values, groups in as_step_measures(head, measures[:n])[1]:
        counts, probs = count_distribution([q for q, size in groups for _ in range(size)])
        laws.append((_count_logs(counts, values), probs))
    logs, probs = combine_additive_laws(laws)
    order = np.argsort(logs)
    logs, probs = logs[order], probs[order]
    first = np.flatnonzero(np.r_[True, logs[1:] != logs[:-1]])
    return logs[first] + math.log(head.bond_factor(n)), np.add.reduceat(probs, first)


def seed_chain(n, q, outcomes):
    """The multinomial chain as it was before draws had windows: every
    count of every draw."""
    tails = np.cumsum(q[::-1])[::-1]
    counts = np.zeros((1, len(q)), dtype=np.int64)
    probs = np.ones(1)
    rest = np.full(1, n, dtype=np.int64)
    for i in outcomes:
        width = rest + 1
        row = np.repeat(np.arange(len(rest)), width)
        draw = np.arange(len(row)) - np.repeat(np.cumsum(width) - width, width)
        counts = counts[row]
        counts[:, i] = draw
        probs = probs[row] * _binom_pmf(draw, rest[row], min(q[i] / tails[i], 1.0))
        rest = rest[row] - draw
    return counts, probs, rest


TRINOMIAL = (0.25, 0.5, 0.25)

#: (tangent, schedule, t): sizes where the full law still fits the state cap
WINDOWED_CASES = [
    (lambda: crr_tangent(1.0, 1.0), lambda: two_piece_schedule(512), None),
    (lambda: crr_tangent(1.0, 1.0), lambda: two_piece_schedule(2048), None),
    (lambda: symmetric_trinomial_tangent(TRINOMIAL),
     lambda: flat_schedule(2048, sigma=0.2, rate=0.03), 0.5),
]


class TestWindowedLaw:
    """The sup-CDF law keeps each binomial draw on its Hoeffding window; the
    oracle is the law with every count."""

    @pytest.mark.parametrize("make_path, make_schedule, t", WINDOWED_CASES)
    def test_distances_match_the_full_law(self, make_path, make_schedule, t):
        path, sched = make_path(), make_schedule()
        diag = lan_diagnostics(path, sched, t)
        n = round(diag.t / sched.dt)
        v = sched.limit_sigma.integral_sq(diag.t)
        r = sched.limit_rate.integral(diag.t)
        model = build_discrete_model(path, sched)
        values, probs = full_log_law(model.market, [path.probs] * sched.N, n)
        oracle = sorted_sup_distance(values, probs, -0.5 * v, v)
        assert abs(diag.cdf_sup_distance - oracle) <= 1e-15
        assert diag.states < len(values)
        # the same window under the tilted designated measures
        head = model.market.head(n)
        logs, masses = terminal_log_atoms(head, model.measures[:n])
        values, probs = full_log_law(model.market, model.measures, n)
        windowed = _cdf_sup_distance(logs + math.log(head.bond_factor(n)), masses,
                                     r - 0.5 * v, v)
        assert abs(windowed - sorted_sup_distance(values, probs, r - 0.5 * v, v)) <= 1e-15
        assert len(logs) < len(values)

    def test_each_window_leaves_at_most_the_tail(self):
        n = np.arange(0, 5000)
        for p in (1e-3, 0.05, 0.25, 0.5, 2.0 / 3.0, 0.97, 1.0):
            lo, width = _window(n, p, LAW_TAIL)
            hi = lo + width - 1
            assert np.all((0 <= lo) & (lo <= hi) & (hi <= n))
            below = np.where(lo > 0, bdtr(np.maximum(lo - 1, 0), n, p), 0.0)
            assert np.all(below + bdtrc(hi, n, p) <= LAW_TAIL)
        s = hoeffding_halfwidth(2048)
        lo, width = _window(2048, 0.5, LAW_TAIL)
        assert (lo, lo + width - 1) == (math.ceil(1024 - s), math.floor(1024 + s))

    @pytest.mark.parametrize("groups, k", [
        ([[np.array([0.5, 0.5]), 2048]], 2),
        ([[np.array([0.3, 0.7]), 1024], [np.array([0.45, 0.55]), 1024]], 2),
        ([[np.array(TRINOMIAL), 1024]], 3),
        ([[np.array([0.05, 0.15, 0.8]), 50], [np.array([0.1, 0.3, 0.6]), 50]], 3),
    ])
    def test_mass_left_out_within_the_bound(self, groups, k):
        full_counts, full_probs = _grouped_count_law(groups, k)
        counts, probs = _grouped_count_law(groups, k, LAW_TAIL)
        kept = np.isin(_composition_rank(full_counts), _composition_rank(counts))
        assert kept.sum() == len(counts) < len(full_counts)
        draws = sum(np.count_nonzero(q) - 1 for q, _ in groups)
        assert 0.0 < full_probs[~kept].sum() <= LAW_TAIL * draws
        if len(groups) == 1:  # one draw chain: the kept rows carry their full masses
            assert probs.tobytes() == full_probs[kept].tobytes()

    def test_full_chain_is_bitwise_the_seed_chain(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            q = rng.random(k)
            q /= q.sum()
            for n in (0, 1, 7, 40) + ((400,) if k <= 3 else ()):
                for outcomes in (np.arange(k - 1), np.arange(k - 2)):
                    got, want = _chain(n, q, outcomes), seed_chain(n, q, outcomes)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_phi_at_most_once_per_four_atoms(self, monkeypatch):
        """The two-piece trinomial study at N = 64 lists 561^2 = 314,721
        atoms; the sup-distance evaluates ``Phi`` at the bucket edges and at
        the atoms of the buckets where the sup can lie, at most one point
        per four atoms."""
        evaluated = []

        def counted(z):
            evaluated.append(len(z))
            return ndtr(z)

        monkeypatch.setattr(lan, "ndtr", counted)
        report = lan_diagnostics(symmetric_trinomial_tangent(TRINOMIAL), two_piece_schedule(64))
        assert report.states == 561 ** 2
        assert 0 < sum(evaluated) <= report.states // 4

    def test_size_guard_trinomial_4096(self):
        """The baseline trinomial study (0.25 / 0.5 / 0.25, sigma 0.2) at
        N = 4096 holds 331,591 windowed atoms, against 8,394,753 with every
        count."""
        path = symmetric_trinomial_tangent(TRINOMIAL)
        assert lan_diagnostics(path, flat_schedule(4096)).states <= 400_000

    def test_size_guard_two_piece_crr_8192(self):
        """The two-piece CRR study at N = 8192 holds 383,161 windowed atoms,
        against 16,785,409 (over the state cap) with every count."""
        report = lan_diagnostics(crr_tangent(1.0, 1.0), two_piece_schedule(8192))
        assert report.states <= 500_000


class TestConvergenceStudy:
    def test_rows_are_internally_consistent(self):
        path = crr_tangent(1.0, 1.0)
        bs = BSModel(100.0, 1.0, 0.2, 0.0)
        payoff = payoff_european_call(100.0)
        rows = convergence_study(path, schedule_family(bs), payoff, bs, [4, 16, 64])
        p_limit = limit_price_terminal(bs, payoff)
        assert [r.N for r in rows] == [4, 16, 64]
        for row in rows:
            assert row.p_limit == p_limit
            assert row.abs_gap == pytest.approx(abs(row.p_n - p_limit), abs=1e-15)
            assert row.noether_max == pytest.approx(0.2 / math.sqrt(row.N), abs=1e-15)
        assert rows[-1].abs_gap < rows[0].abs_gap
        assert rows[-1].abs_gap < 0.05

    def test_var_gap_matches_enumeration(self):
        path = symmetric_trinomial_tangent((0.3, 0.3, 0.4))
        sched = varying_schedule(4)
        bs = BSModel(100.0, 1.0, sched.limit_sigma, sched.limit_rate)
        (row,) = convergence_study(path, lambda N: sched, payoff_european_call(100.0),
                                   bs, [4])

        def measure_of(j):
            return one_period_mm(path, sched.step_vol(j), sched.step_rate(j))

        _, var = brute_moments(path, sched, 4, measure_of, log_s_stat(sched))
        v = sched.limit_sigma.integral_sq()
        assert row.var_gap == pytest.approx(abs(var - v), abs=1e-12)
        assert row.var_gap == pytest.approx(third_lemma_check(path, sched).logs_var_gap,
                                            abs=1e-15)

    def test_empty_sizes_rejected(self):
        path = crr_tangent(1.0, 1.0)
        bs = BSModel(100.0, 1.0, 0.2, 0.0)
        with pytest.raises(InvalidParams):
            convergence_study(path, schedule_family(bs),
                              payoff_european_call(100.0), bs, [])


class TestEnvCap:
    def test_env_var_caps_every_builder(self, monkeypatch):
        """Builders without a cap parameter stop at ``LECAM_MAX_PATHS``: the
        eight three-point steps enumerate at least the 8 or 9 counts of one
        draw beside the closed-form one."""
        step = tuple((v, 1 / 3) for v in (1.1, 1.0, 0.9))
        m = LatticeMarket(8, 1.0, 100.0, (step,) * 8, (0.0,) * 8)
        qs = solve_martingale_measures(m).designated()
        call = payoff_european_call(100.0)
        path = crr_tangent(1.0, 1.0)
        tri = symmetric_trinomial_tangent((0.25, 0.5, 0.25))
        bs = BSModel(100.0, 1.0, 0.2, 0.0)
        builders = [
            lambda: price_direct(m, qs, call),
            lambda: price_via_tests(m, qs, call),
            lambda: np_decomposition(m, qs, call),
            lambda: dynamic_price(m, qs, call, PathState(1, (0,))),
            lambda: verify_representation(m, qs),
            lambda: lan_diagnostics(path, flat_schedule(16)),
            lambda: convergence_study(tri, schedule_family(bs), call, bs, [16]),
        ]
        for build in builders:
            build()
        monkeypatch.setenv("LECAM_MAX_PATHS", "4")
        for build in builders:
            with pytest.raises(SizeLimit):
                build()


class TestJson:
    def test_tangent_kinds(self):
        assert tangent_from_json({"type": "crr", "a": 1.0, "b": 1.0}).probs == (0.5, 0.5)
        tri = tangent_from_json({"type": "symmetric_trinomial",
                                 "probs": [0.25, 0.5, 0.25]})
        assert len(tri.probs) == 3
        custom = tangent_from_json({"probs": [0.5, 0.5], "g": [1.0, -1.0]})
        assert custom.C == 1.0
        wide = tangent_from_json({"probs": [0.5, 0.5], "g": [1.0, -1.0], "C": 2.5})
        assert wide.C == 2.5
        with pytest.raises(InvalidParams):
            tangent_from_json({"type": "mystery"})

    def test_study_round_trip(self):
        doc = {
            "tangent": {"type": "crr", "a": 1.0, "b": 1.0},
            "bs": {"s0": 100.0, "T": 1.0,
                   "sigma": {"const": 0.2}, "rate": {"const": 0.0}},
            "payoff": {"type": "call", "K": 100.0},
            "Ns": [4, 16],
            "threshold": 0.02,
        }
        spec = study_from_json(doc)
        assert spec.Ns == (4, 16)
        assert spec.threshold == 0.02
        rows = convergence_study(spec.path, spec.family(), spec.payoff,
                                 spec.bs, spec.Ns)
        assert len(rows) == 2
        no_thresh = dict(doc)
        del no_thresh["threshold"]
        assert study_from_json(no_thresh).threshold is None
        with pytest.raises(InvalidParams):
            study_from_json({"tangent": {"type": "crr", "a": 1.0, "b": 1.0}})
