"""Local-expansion diagnostics, checked against path-by-path enumeration.

The module under test computes exact laws of additive statistics through a
convolution DP; the oracle here walks every path of a small lattice with
``itertools.product`` and accumulates the statistic literally.
"""

import itertools
import math

import numpy as np
import pytest

from lecam import (
    BSModel,
    InvalidParams,
    InvalidTangent,
    LemmaHypothesisViolated,
    Schedule,
    StepFunction,
    ThetaOutOfRange,
    build_discrete_model,
    convergence_study,
    crr_tangent,
    lan_diagnostics,
    limit_price_terminal,
    make_tangent,
    one_period_mm,
    path_measure,
    payoff_european_call,
    schedule_family,
    study_from_json,
    symmetric_trinomial_tangent,
    tangent_from_json,
    terminal_law,
    third_lemma_check,
)
from lecam.lan import _cdf_sup_distance

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
            Schedule(N=1, horizon=1.0, sigmas=(0.2,), rhos=(0.0,),
                     limit_sigma=lim_s, limit_rate=lim_r, sigma_high=0.1)
        with pytest.raises(InvalidParams):
            Schedule(N=1, horizon=2.0, sigmas=(0.2,), rhos=(0.0,),
                     limit_sigma=lim_s, limit_rate=lim_r)

    def test_bounds_accepted_when_satisfied(self):
        sched = Schedule.from_limits(
            StepFunction((1.0,), (0.2,)), StepFunction((1.0,), (0.05,)),
            4, sigma_low=0.1, sigma_high=0.3, rate_high=0.1,
        )
        assert sched.sigma_low == 0.1


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
        vals, probs = terminal_law(model.market, list(map(np.array, model.measures)))
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)
        # discounted-price ratios average to one under the designated measures
        assert float(probs @ vals) == pytest.approx(1.0, abs=1e-12)

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
                _cdf_sup_distance(values, probs, -0.5 * v, v), abs=1e-12
            )
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
        # binary lattice collapses to N+1 distinct sums
        assert fine.states == 257


class TestCdfSupDistance:
    def brute(self, values, probs, mean, var, ys):
        """max over ``ys`` of |F(y) - Phi|, F summed atom by atom."""
        sd = math.sqrt(var)
        return max(
            abs(sum(p for v, p in zip(values, probs) if v <= y)
                - 0.5 * math.erfc(-(y - mean) / (sd * math.sqrt(2.0))))
            for y in ys
        )

    def test_exact_at_the_atoms(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            # ties possible; two atoms far out in the tails where Phi is 0 or 1
            values = np.sort(np.append(np.round(rng.normal(0.0, 1.0, k), 1),
                                       rng.choice([-40.0, 40.0], 2)))
            probs = rng.random(k + 2) + 0.05
            probs /= probs.sum()
            mean, var = float(rng.normal(0.0, 0.3)), float(rng.uniform(0.3, 2.0))
            got = _cdf_sup_distance(values, probs, mean, var)
            eps = 1e-10
            ys = [v + s for v in values for s in (0.0, -eps)]
            ys += list(np.linspace(-8.0, 8.0, 2001))
            assert abs(got - self.brute(values, probs, mean, var, ys)) <= 1e-9
            # a grid that misses the atoms can only read lower
            grid = np.linspace(mean - 8.0, mean + 8.0, 1000)
            assert self.brute(values, probs, mean, var, grid) <= got + 1e-15


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
            values, probs = brute_law(path, n, measure_of, log_s_stat(sched))
            assert report.cdf_sup_distance == pytest.approx(
                _cdf_sup_distance(values, probs, r - 0.5 * v, v), abs=1e-12
            )
            assert report.states == brute_states(values)
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
