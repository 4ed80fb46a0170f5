"""Limit-model checks certified by high-order quadrature.

The closed forms (normal CDF, lognormal call price) are compared against
2001-node Gauss-Legendre integrals of the defining densities, so the only
trusted primitive is polynomial integration.  The normal CDF's far lower
tail, below what an absolute error shows, is checked against
``scipy.special.ndtr`` (a test-only dependency).
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from lecam import (
    BSModel,
    GaussianBinaryExperiment,
    InvalidParams,
    StepFunction,
    UnsupportedTest,
    bs_call_price,
    limit_price_terminal,
    limit_price_via_np,
    model_from_json,
    normal_cdf,
    payoff_barrier_up_out,
    payoff_digital,
    payoff_european_call,
    payoff_european_put,
    payoff_straddle,
    payoff_strangle,
)

RNG_SEED = 42

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(2001)


def gauss_legendre(f, a, b):
    """2001-node Gauss-Legendre integral of ``f`` over ``[a, b]``."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(_WEIGHTS @ f(mid + half * _NODES))


def phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def cdf_oracle(x):
    """Normal CDF by quadrature from 0 (where it is exactly 1/2)."""
    return 0.5 + gauss_legendre(phi, 0.0, x)


def call_price_oracle(s0, strike, v, big_r):
    """Discounted lognormal expectation of ``(S_T - K)+`` by quadrature.

    ``S_T = s0 * exp(R - v/2 + sqrt(v) z)`` with standard normal ``z``;
    the kink sits exactly at the lower integration limit, so the
    integrand is smooth on the interval and the rule converges spectrally.
    """
    root = math.sqrt(v)
    zstar = (math.log(strike / s0) - big_r + v / 2.0) / root

    def integrand(z):
        return (s0 * np.exp(big_r - v / 2.0 + root * z) - strike) * phi(z)

    upper = max(zstar, root) + 40.0
    return math.exp(-big_r) * gauss_legendre(integrand, zstar, upper)


def random_model(rng):
    s0 = float(rng.uniform(20.0, 200.0))
    sigma = float(rng.uniform(0.1, 0.5))
    rate = float(rng.uniform(0.0, 0.1))
    horizon = float(rng.uniform(0.5, 2.0))
    return BSModel(s0=s0, horizon=horizon, sigma=sigma, rate=rate)


class TestNormalCdf:
    def test_symmetry_and_anchors(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(50.0) == 1.0
        assert normal_cdf(-50.0) == 0.0
        for x in (0.3, 1.0, 2.5):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_against_quadrature(self):
        rng = np.random.default_rng(RNG_SEED)
        for x in rng.uniform(-6.0, 6.0, size=50):
            assert abs(normal_cdf(float(x)) - cdf_oracle(float(x))) <= 1e-12

    def test_relative_error_in_the_lower_tail(self):
        """No cancellation below the center: 7.6e-24 at -10, not 0."""
        xs = np.linspace(-37.0, 8.0, 4501)
        want = ndtr(xs)
        got = np.array([normal_cdf(x) for x in xs.tolist()])
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert normal_cdf(-10.0) == pytest.approx(7.619853024160526e-24, rel=1e-13)


class TestStepFunction:
    def test_value_at_is_left_open(self):
        f = StepFunction((0.5, 1.0), (0.1, 0.3))
        assert f.value_at(0.25) == 0.1
        assert f.value_at(0.5) == 0.1
        assert f.value_at(0.50000001) == 0.3
        assert f.value_at(1.0) == 0.3

    def test_integrals_piecewise(self):
        f = StepFunction((0.5, 1.0), (0.1, 0.3))
        assert f.integral() == pytest.approx(0.5 * 0.1 + 0.5 * 0.3, abs=1e-15)
        assert f.integral_sq() == pytest.approx(0.5 * 0.01 + 0.5 * 0.09, abs=1e-15)
        assert f.integral(upto=0.75) == pytest.approx(0.05 + 0.25 * 0.3, abs=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            StepFunction((1.0, 0.5), (0.1, 0.2))
        with pytest.raises(InvalidParams):
            StepFunction((0.0,), (0.1,))
        with pytest.raises(InvalidParams):
            StepFunction((1.0,), (0.1, 0.2))
        f = StepFunction((1.0,), (0.2,))
        with pytest.raises(InvalidParams):
            f.value_at(2.0)


class TestModel:
    def test_scalar_coercion_and_totals(self):
        m = BSModel(s0=100.0, horizon=2.0, sigma=0.2, rate=0.05)
        assert m.total_variance() == pytest.approx(0.08, abs=1e-15)
        assert m.total_rate() == pytest.approx(0.1, abs=1e-15)
        assert m.discount == pytest.approx(math.exp(-0.1), abs=1e-15)

    def test_piecewise_totals(self):
        sig = StepFunction((0.5, 1.0), (0.1, 0.3))
        m = BSModel(s0=100.0, horizon=1.0, sigma=sig, rate=0.0)
        assert m.total_variance() == pytest.approx(0.5 * 0.01 + 0.5 * 0.09, abs=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            BSModel(s0=-1.0, horizon=1.0, sigma=0.2, rate=0.0)
        with pytest.raises(InvalidParams):
            BSModel(s0=100.0, horizon=1.0, sigma=0.0, rate=0.0)
        with pytest.raises(InvalidParams):
            BSModel(s0=100.0, horizon=1.0, sigma=0.2, rate=-0.01)
        with pytest.raises(InvalidParams):
            BSModel(s0=100.0, horizon=2.0,
                    sigma=StepFunction((1.0,), (0.2,)), rate=0.0)


class TestCallPrice:
    def test_reference_values(self):
        flat = BSModel(s0=100.0, horizon=1.0, sigma=0.2, rate=0.0)
        assert bs_call_price(flat, 100.0) == pytest.approx(7.9656, abs=5e-5)
        with_rate = BSModel(s0=100.0, horizon=1.0, sigma=0.2, rate=0.05)
        assert bs_call_price(with_rate, 100.0) == pytest.approx(10.4506, abs=5e-5)

    def test_against_quadrature(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            m = random_model(rng)
            strike = float(m.s0 * rng.uniform(0.7, 1.4))
            got = bs_call_price(m, strike)
            want = call_price_oracle(m.s0, strike, m.total_variance(), m.total_rate())
            assert abs(got - want) <= 1e-9

    def test_limit_price_via_np_equals_closed_form(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            m = random_model(rng)
            strike = float(m.s0 * rng.uniform(0.5, 2.0))
            rep = limit_price_via_np(m, strike)
            assert abs(rep.price - bs_call_price(m, strike)) <= 1e-10
            assert rep.price == pytest.approx(
                m.s0 * rep.terms[0].power_alt
                - rep.discount * strike * rep.terms[0].power_base,
                abs=1e-15,
            )

    def test_piecewise_schedules_only_enter_through_integrals(self):
        sig = StepFunction((0.25, 1.0), (0.4, 0.1))
        rat = StepFunction((0.5, 1.0), (0.08, 0.02))
        m = BSModel(100.0, 1.0, sig, rat)
        m_flat = BSModel(100.0, 1.0, math.sqrt(m.total_variance()), m.total_rate())
        assert bs_call_price(m, 90.0) == pytest.approx(
            bs_call_price(m_flat, 90.0), abs=1e-12
        )

    def test_invalid_strike(self):
        m = BSModel(100.0, 1.0, 0.2, 0.0)
        with pytest.raises(InvalidParams):
            bs_call_price(m, 0.0)


class TestGaussianExperiment:
    def test_power_monotone_in_cutoff(self):
        exp = GaussianBinaryExperiment(0.04)
        cuts = np.exp(np.linspace(-2.0, 2.0, 25))
        alts = [exp.np_powers(float(c))[0] for c in cuts]
        bases = [exp.np_powers(float(c))[1] for c in cuts]
        assert all(a >= b for a, b in zip(alts, alts[1:]))
        assert all(a >= b for a, b in zip(bases, bases[1:]))

    def test_interval_masses_partition_unity(self):
        exp = GaussianBinaryExperiment(0.09)
        alt, base = exp.interval_masses([-0.5, 0.0, 0.7])
        assert alt.sum() == pytest.approx(1.0, abs=1e-14)
        assert base.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(alt >= 0.0) and np.all(base >= 0.0)

    def test_masses_match_quadrature(self):
        v = 0.04
        exp = GaussianBinaryExperiment(v)
        alt, base = exp.interval_masses([-0.1, 0.2])
        root = math.sqrt(v)

        def alt_density(x):
            return phi((x - v / 2.0) / root) / root

        got = gauss_legendre(alt_density, -0.1, 0.2)
        assert abs(alt[1] - got) <= 1e-12

    def test_validation(self):
        with pytest.raises(InvalidParams):
            GaussianBinaryExperiment(0.0)
        exp = GaussianBinaryExperiment(0.04)
        with pytest.raises(InvalidParams):
            exp.np_powers(0.0)
        with pytest.raises(InvalidParams):
            exp.interval_masses([0.5, -0.5])


class TestTerminalPricer:
    def test_call_agrees_with_closed_form(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            m = random_model(rng)
            strike = float(m.s0 * rng.uniform(0.6, 1.6))
            a = limit_price_terminal(m, payoff_european_call(strike))
            b = bs_call_price(m, strike)
            assert abs(a - b) <= 1e-12

    def test_put_call_parity(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            m = random_model(rng)
            strike = float(m.s0 * rng.uniform(0.6, 1.6))
            call = limit_price_terminal(m, payoff_european_call(strike))
            put = limit_price_terminal(m, payoff_european_put(strike))
            assert abs((call - put) - (m.s0 - strike * m.discount)) <= 1e-12

    def test_digital_closed_form(self):
        m = BSModel(100.0, 1.0, 0.2, 0.05)
        strike = 110.0
        v = m.total_variance()
        d2 = (math.log(m.s0 / strike) + m.total_rate() - v / 2.0) / math.sqrt(v)
        want = m.discount * normal_cdf(d2)
        got = limit_price_terminal(m, payoff_digital(strike))
        assert abs(got - want) <= 1e-14

    def test_straddle_and_strangle_combine_legs(self):
        m = BSModel(80.0, 1.5, 0.3, 0.02)
        call = limit_price_terminal(m, payoff_european_call(80.0))
        put = limit_price_terminal(m, payoff_european_put(80.0))
        assert limit_price_terminal(m, payoff_straddle(80.0)) == pytest.approx(
            call + put, abs=1e-12
        )
        lo_put = limit_price_terminal(m, payoff_european_put(70.0))
        hi_call = limit_price_terminal(m, payoff_european_call(90.0))
        assert limit_price_terminal(m, payoff_strangle(70.0, 90.0)) == pytest.approx(
            lo_put + hi_call, abs=1e-12
        )

    def test_zero_strike_call_is_the_stock(self):
        m = BSModel(100.0, 1.0, 0.2, 0.05)
        assert limit_price_terminal(m, payoff_european_call(0.0)) == pytest.approx(
            100.0, abs=1e-12
        )

    def test_path_dependent_rejected(self):
        m = BSModel(100.0, 1.0, 0.2, 0.0)
        with pytest.raises(UnsupportedTest):
            limit_price_terminal(m, payoff_barrier_up_out(100.0, 120.0))


class TestJson:
    def test_const_and_pieces(self):
        m = model_from_json({
            "s0": 100.0, "T": 1.0,
            "sigma": {"const": 0.2}, "rate": {"const": 0.0},
        })
        assert m.total_variance() == pytest.approx(0.04, abs=1e-15)
        m2 = model_from_json({
            "s0": 100.0, "T": 1.0,
            "sigma": {"pieces": [[0.5, 0.1], [1.0, 0.3]]},
            "rate": {"const": 0.05},
        })
        assert m2.total_variance() == pytest.approx(0.05, abs=1e-15)
        assert m2.total_rate() == pytest.approx(0.05, abs=1e-15)

    def test_malformed(self):
        with pytest.raises(InvalidParams):
            model_from_json({"s0": 100.0})
        with pytest.raises(InvalidParams):
            model_from_json({"s0": 100.0, "T": 1.0, "sigma": {}, "rate": {}})
