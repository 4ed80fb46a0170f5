"""The binomial pmf and cdf and the normal cdf of ``lecam._binom``.

For ``n <= 64`` they are checked against exact rational sums; for larger
``n`` against ``scipy.special`` (a test-only dependency: Boost's binomial
behind ``scipy.stats.binom``, and Cephes's ``ndtr``).  Where scipy itself
is off by more than the tolerance, a 40-digit decimal evaluation decides.
Counts lie within 8 standard deviations of the mean; ``p`` runs over
``1e-9 .. 0.5`` and the mirrored ``1 - p``.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr
from scipy.special._ufuncs import _binom_cdf as scipy_cdf, _binom_pmf as scipy_pmf

from lecam._binom import SMALL_N, binom_cdf, binom_pmf, ndtr

PS = [1e-9, 1e-6, 1e-3, 0.1, 0.37, 0.5]
PS += [1.0 - p for p in PS[:-1]]
RTOL = 1e-12


def counts(n, p, most=201):
    """At most ``most`` counts spread over those within 8 sd of the mean."""
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo, hi = max(math.ceil(mean - 8.0 * sd), 0), min(math.floor(mean + 8.0 * sd), n)
    return np.unique(np.linspace(lo, hi, min(hi - lo + 1, most)).round()).astype(np.int64)


def exact_row(n, p):
    """``P(X = k)`` for ``k = 0..n`` as fractions, ``p`` exactly as given."""
    p = Fraction(p)
    return [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]


def relative_errors(got, want):
    return np.abs(np.asarray(got, dtype=float) - want) / want


# ---------------------------------------------------------------------------
# 40-digit decimal values
# ---------------------------------------------------------------------------

PI = Decimal("3.14159265358979323846264338327950288419716939937510")
#: ``B_2j / (2j (2j - 1))`` for Stirling's series of ``log m!``.
STIRLING = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680),
            Fraction(1, 1188), Fraction(-691, 360360)]


def log_factorial(m):
    if m < 1000:
        return Decimal(math.factorial(m)).ln()
    m = Decimal(m)
    series = sum(Decimal(c.numerator) / c.denominator / m ** (2 * j + 1)
                 for j, c in enumerate(STIRLING))
    return (m + Decimal("0.5")) * m.ln() - m + (2 * PI).ln() / 2 + series


def decimal_pmf(k, n, p):
    p = Decimal(p)
    return (log_factorial(n) - log_factorial(k) - log_factorial(n - k)
            + k * p.ln() + (n - k) * (1 - p).ln()).exp()


def decimal_cdf(k, n, p):
    """``P(X <= k)`` for ``k`` at most the mean: the terms from ``k`` down,
    each from the one above by its ratio, until they fall below 1e-30 of
    the sum."""
    term = total = decimal_pmf(k, n, p)
    ratio = (1 - Decimal(p)) / Decimal(p)
    for j in range(k, 0, -1):
        term *= ratio * j / (n - j + 1)
        total += term
        if term < total * Decimal("1e-30"):
            break
    return total


def check_against_scipy(ours, theirs, k, n, p, exact):
    """Ours within ``RTOL`` of scipy, or, where scipy is off by more, of the
    decimal value."""
    err = relative_errors(ours, theirs)
    for i in np.flatnonzero(~(err <= RTOL)):
        with localcontext() as ctx:
            ctx.prec = 40
            want = exact(int(k[i]), n, p)
            assert abs(Decimal(float(ours[i])) - want) <= want * Decimal(RTOL), (k[i], n, p)


# ---------------------------------------------------------------------------
# the binomial pmf and cdf
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, SMALL_N + 1))
def test_small_n_against_exact_sums(n):
    """Every count within 8 sd, in a call of more than ``SMALL_N`` elements
    (numpy) and one count per call (Python floats)."""
    for p in PS:
        k = counts(n, p)
        row = exact_row(n, p)
        cumulative = list(itertools.accumulate(row))
        pmf = np.array([float(row[j]) for j in k])
        lower = np.array([float(cumulative[j]) for j in k])
        wide = np.resize(k, SMALL_N + len(k))
        for ours_pmf, ours_cdf in ((binom_pmf(wide, n, p)[:len(k)], binom_cdf(wide, n, p)[:len(k)]),
                                   ([binom_pmf(j, n, p) for j in k],
                                    [binom_cdf(j, n, p) for j in k])):
            assert relative_errors(ours_pmf, pmf).max() <= RTOL, p
            assert relative_errors(ours_cdf, lower).max() <= RTOL, p


@pytest.mark.parametrize("n", [100, 2048, 8192, 65536, 10 ** 6])
@pytest.mark.parametrize("p", PS)
def test_large_n_against_scipy(n, p):
    """The pmf, and the lower tail wherever it is the smaller tail (the upper
    one is the lower tail of the mirrored ``p``), in one call and, for every
    tenth count, one count per call (Python floats)."""
    for k, pmf, cdf in ((counts(n, p), binom_pmf, binom_cdf),
                        (counts(n, p)[::10], np.vectorize(binom_pmf), np.vectorize(binom_cdf))):
        check_against_scipy(pmf(k, n, p), scipy_pmf(k, n, p), k, n, p, decimal_pmf)
        theirs = scipy_cdf(k, n, p)
        smaller = theirs <= 0.5
        check_against_scipy(cdf(k, n, p)[smaller], theirs[smaller], k[smaller], n, p,
                            decimal_cdf)


@pytest.mark.parametrize("n", [65536, 10 ** 6])
def test_large_n_pmf_far_from_the_mean(n):
    """Up to 8 sd out, where the closed form of ``bd0`` alone would lose up
    to 9e-13 to rounding: within 3e-13 of the 40-digit decimal pmf."""
    for p in (0.1, 0.37, 0.5):
        sd = math.sqrt(n * p * (1.0 - p))
        k = np.unique(np.round(n * p + np.linspace(-8.0, 8.0, 17) * sd)).astype(np.int64)
        with localcontext() as ctx:
            ctx.prec = 40
            for j, ours in zip(k.tolist(), binom_pmf(k, n, p).tolist()):
                want = decimal_pmf(j, n, p)
                assert abs(Decimal(ours) - want) <= want * Decimal("3e-13"), (j, n, p)


@pytest.mark.parametrize("n", [5, 64, 65, 100, 2048])
def test_counts_outside_the_support(n):
    """``k = -1`` and ``k = n + 1`` (which the half-to-even rounding of tied
    levels produces) carry no mass; the cdf is 0 below the support and 1
    from ``n`` on."""
    k = np.array([-1.0, n + 1.0, float(n // 2), float(n)])
    for p in (0.5, np.array([[0.4], [0.6]])):
        pmf, cdf = binom_pmf(k, n, p), binom_cdf(k, n, p)
        assert np.all(pmf[..., :2] == 0.0) and np.all(pmf[..., 2] > 0.0)
        assert np.all(cdf[..., 0] == 0.0) and np.all(cdf[..., [1, 3]] == 1.0)
    assert binom_pmf(np.arange(-1, n + 2), n, 0.4).sum() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("n", [16, 100, 2048])
def test_certain_draws(n):
    """``p = 1`` (a chain draw's ``min(q / tail, 1)``) and ``p = 0``."""
    k = np.arange(-1, n + 2)
    for p, at in ((1.0, n), (0.0, 0)):
        pmf, cdf = binom_pmf(k, n, p), binom_cdf(k, n, p)
        assert np.array_equal(pmf, (k == at).astype(float))
        assert np.array_equal(cdf, (k >= at).astype(float))


def test_tail_of_a_near_certain_draw():
    """``P(X <= 15)`` for ``Bin(16, 1 - 1e-9)`` is about ``1.6e-8``: computed
    as a sum, not as one minus something near one."""
    p = 1.0 - 1e-9
    for n in (16, 100):
        got = binom_cdf(n - 1, n, p)
        assert 0.0 <= got <= 1.0
        assert abs(got - scipy_cdf(n - 1, n, p)) <= RTOL * scipy_cdf(n - 1, n, p)
        assert np.allclose(binom_cdf(np.full(70, n - 1), n, p), got, rtol=RTOL, atol=0)


def test_broadcast_shapes_and_scalars():
    k = np.array([[0.0, 3.0], [5.0, 9.0]])
    n = np.array([[10], [12]])
    p = np.array([0.2, 0.7]).reshape(2, 1, 1)
    assert binom_pmf(k, n, p).shape == binom_cdf(k, n, p).shape == (2, 2, 2)
    assert np.allclose(binom_cdf(k, n, p), scipy_cdf(k, n, p), rtol=RTOL, atol=0)
    assert np.ndim(binom_pmf(3, 10, 0.5)) == 0
    assert binom_pmf(3, 10, 0.5) == pytest.approx(120 / 1024, rel=1e-15)


@pytest.mark.parametrize("size", [6, 400])
def test_cdf_picks_p_by_position(size):
    """``at`` picks each element's value of ``p`` from a few: the cdf with
    those values broadcast, on the Python-float path of a small call and on
    the exact and incomplete-beta paths of a large one (whose exact tables
    depend on how many values there are)."""
    rng = np.random.default_rng(size)
    values = np.array([[0.2, 0.8], [0.35, 0.5]])
    at = rng.integers(0, 4, size=(size, 1))
    n = rng.integers(0, 120, size=(size, 1))
    k = rng.integers(-1, 121, size=(size, 3))
    got = binom_cdf(k, n, values, at)
    assert got.shape == (size, 3)
    np.testing.assert_allclose(got, binom_cdf(k, n, values.ravel()[at]), rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# the normal cdf
# ---------------------------------------------------------------------------

def test_ndtr_against_scipy():
    z = np.linspace(-8.5, 8.5, 400_001)
    assert np.abs(ndtr(z) - scipy_ndtr(z)).max() <= 2e-16
    rng = np.random.default_rng(7)
    few = rng.uniform(-8.5, 8.5, size=(500, SMALL_N))
    assert max(np.abs(ndtr(row) - scipy_ndtr(row)).max() for row in few) <= 2e-16
    shuffled = rng.permutation(z)
    assert np.array_equal(ndtr(shuffled), ndtr(np.sort(shuffled))[np.argsort(np.argsort(shuffled))])
