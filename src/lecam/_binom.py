"""Binomial pmf and lower-tail cdf, and the standard normal cdf, in numpy.

``binom_pmf(k, n, p)`` and ``binom_cdf(k, n, p)`` (``P(X <= k)``, ``k``
floored) broadcast their arguments like ufuncs; ``p`` holds a scalar or a
few values per call (``binom_cdf`` also takes them as a flat list, each
element picking its value by position).  Counts outside ``[0, n]`` give
``0`` (the cdf ``0`` or ``1``) without evaluating anything.  Three regimes:

* ``n <= SMALL_N``: ``C(n, k) p^k q^(n-k)`` with exact binomial
  coefficients; the cdf sums these terms over the tail on the far side of
  the mean, or reads one table of cumulative rows per ``(n, p)`` where
  that is less work.
* larger ``n``: Loader's saddle-point pmf (Loader 2000, "Fast and accurate
  computation of binomial probabilities") with ``stirlerr`` read from a
  table over the integers.  ``bd0`` is in closed form, which loses about
  ``eps |x - m|`` to rounding, so its series takes over where ``|x - m|``
  exceeds ``_BD0_CLOSED``.
* the cdf for larger ``n``: the tail on the far side of the mean, as the
  incomplete beta ``a y pmf / f`` with Didonato and Morris's continued
  fraction ``f`` (the form of Boost's ``ibeta_fraction2``), whose
  coefficients carry the distance from the mean ``(n - k) p - (k + 1) q``
  directly, so nothing cancels when ``p`` is near 0 or 1.  Each element
  stops on its own.

Calls of at most ``SMALL_N`` elements, and the last few elements of a
continued fraction, run on Python floats, as numpy's cost per operation
would dominate there.

``ndtr(z)`` is the standard normal cdf from the rational approximations
of erf and erfc of Cephes (after Cody 1969), each region of ``z`` a slice
of the sorted argument; ``normal_cdf(z)`` is the same on one Python float.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Largest ``n`` with exact binomial coefficients, and the largest call
#: (in elements) that runs on Python floats.
SMALL_N = 64

_ROWS = [[float(math.comb(n, k)) for k in range(n + 1)] for n in range(SMALL_N + 1)]
_COMB = np.array([row + [0.0] * (SMALL_N - n) for n, row in enumerate(_ROWS)])
#: ``max(n - k, 0)`` at ``[n, k]``: the power of ``q`` in ``_COMB``'s terms.
_REST = np.maximum(np.subtract.outer(np.arange(SMALL_N + 1), np.arange(SMALL_N + 1)), 0)


def _by(mask: np.ndarray, on_true, on_false, *args: np.ndarray) -> np.ndarray:
    """``on_true`` of the elements of ``args`` where ``mask``, ``on_false``
    of the others, without indexing when one side is empty."""
    if mask.all():
        return on_true(*args)
    if not mask.any():
        return on_false(*args)
    out = np.empty(len(mask))
    out[mask] = on_true(*(a[mask] for a in args))
    mask = ~mask
    out[mask] = on_false(*(a[mask] for a in args))
    return out


def _flat(a, shape: tuple, dtype) -> np.ndarray:
    """``a`` broadcast to ``shape`` as a flat ``dtype`` array."""
    out = np.empty(shape, dtype)
    out[...] = a
    return out.ravel()


# ---------------------------------------------------------------------------
# exact terms, n <= SMALL_N
# ---------------------------------------------------------------------------

def _pmf_exact(k: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    return _COMB[n, k] * p ** k * (1.0 - p) ** (n - k)


def _cdf_exact(values: np.ndarray, k: np.ndarray, n: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``P(X <= k)`` for ``0 <= k < n <= SMALL_N`` and ``p = values[at]``
    from the exact terms, each element's tail on the far side of the mean
    (the lower one where ``(n - k) p >= (k + 1) q``) summed directly.  Where
    the elements hold more terms than one table of rows over every ``n`` up
    to the largest and every ``p``, the rows are summed once instead."""
    p = values[at]
    lower = (n - k) * p >= (k + 1) * (1.0 - p)
    count = np.where(lower, k + 1, n - k)
    size = int(n.max()) + 1
    if count.sum() > len(values) * size * size:
        powers = np.arange(size)
        terms = (_COMB[:size, :size] * (values[:, None] ** powers)[:, None, :]
                 * ((1.0 - values)[:, None] ** powers)[:, _REST[:size, :size]])
        below = np.cumsum(terms, axis=2).take((at * size + n) * size + k)
        above = np.cumsum(terms[:, :, ::-1], axis=2)[:, :, ::-1]  # P(X >= k)
        tail = np.where(lower, below, above.take((at * size + n) * size + k + 1))
    else:
        starts = np.cumsum(count) - count
        row = np.repeat(np.arange(len(k)), count)
        j = np.arange(len(row)) - np.repeat(starts - np.where(lower, 0, k + 1), count)
        n, p = n[row], p[row]
        tail = np.add.reduceat(_pmf_exact(j, n, p), starts)
    return np.where(lower, tail, 1.0 - tail)


# ---------------------------------------------------------------------------
# Loader's saddle point, n > SMALL_N
# ---------------------------------------------------------------------------

#: ``stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n)`` for ``n = 0..15``,
#: rounded from 50-digit values.
_STIRLERR_SMALL = [
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
]


def _stirlerr_series(x: np.ndarray) -> np.ndarray:
    """The asymptotic series of ``stirlerr`` to ``x^-9``: within 1e-16 for
    ``x > 15``."""
    w = 1.0 / (x * x)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) / x


#: ``stirlerr`` at the integers below its length.
_STIRLERR = np.concatenate([_STIRLERR_SMALL, _stirlerr_series(np.arange(16.0, 1 << 14))])


def _stirlerr(i: np.ndarray) -> np.ndarray:
    """``stirlerr`` at nonnegative integers."""
    top = len(_STIRLERR) - 1
    if i.max() <= top:
        return _STIRLERR[i]
    return np.where(i > top, _stirlerr_series(np.maximum(i, top).astype(float)),
                    _STIRLERR[np.minimum(i, top)])


#: ``|x - m|`` up to which :func:`_bd0` keeps its closed form, whose
#: rounding error there stays below ``256 eps``.
_BD0_CLOSED = 256.0


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x log(x/m) + m - x`` as ``x log1p(d/m) - d``, ``d = x - m``, or by
    :func:`_bd0_series` where ``_BD0_CLOSED < |d| < 0.1 (x + m)``."""
    d = x - m
    out = x * np.log1p(d / m) - d
    if np.abs(d).max() > _BD0_CLOSED:
        series = (np.abs(d) > _BD0_CLOSED) & (np.abs(d) < 0.1 * (x + m))
        if series.any():
            out[series] = _bd0_series(x[series], d[series], (x + m)[series])
    return out


def _bd0_series(x: np.ndarray, d: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``bd0`` as ``d v + 2 x (atanh(v) - v)``, ``v = d / total``, the series
    of ``atanh`` cut where its terms fall below 1e-17."""
    v = d / total
    w = v * v
    terms = math.ceil(-17.0 / math.log10(w.max()))
    s = np.full_like(w, 1.0 / (2 * terms + 1))
    for j in range(terms - 1, 0, -1):  # s = sum_j w^j / (2j + 3)
        s *= w
        s += 1.0 / (2 * j + 1)
    return d * v + 2.0 * x * v * w * s


def _pmf_ends(k: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The pmf at ``k = 0`` or ``k = n``: ``q^n`` or ``p^n``."""
    with np.errstate(divide="ignore"):  # p = 1 or 0: log(0), no mass
        return np.exp(n * np.where(k == 0, np.log1p(-p), np.log(p)))


def _pmf_inner(k: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Loader's pmf at ``0 < k < n``."""
    kf, nf = k.astype(float), n.astype(float)
    nk = nf - kf
    with np.errstate(divide="ignore"):  # p = 0 or 1: bd0(x, 0) = inf, no mass
        lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
              - _bd0(kf, nf * p) - _bd0(nk, nf * (1.0 - p)))
    return np.exp(lc) * np.sqrt(nf / (2.0 * math.pi * kf * nk))


def _pmf_loader(k: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    return _by((k == 0) | (k == n), _pmf_ends, _pmf_inner, k, n, p)


def _pmf1(k: float, n: int, p: float) -> float:
    """The pmf on Python numbers: :func:`_pmf_exact` or Loader's."""
    if not 0.0 <= k <= n:
        return 0.0
    k = int(k)
    if n <= SMALL_N:
        return _ROWS[n][k] * p ** k * (1.0 - p) ** (n - k)
    if p == 0.0 or p == 1.0:
        return float(k == (0 if p == 0.0 else n))
    if k == 0 or k == n:
        return math.exp(n * (math.log1p(-p) if k == 0 else math.log(p)))
    lc = (_stirlerr1(n) - _stirlerr1(k) - _stirlerr1(n - k)
          - _bd01(k, n * p) - _bd01(n - k, n * (1.0 - p)))
    return math.exp(lc) * math.sqrt(n / (2.0 * math.pi * k * (n - k)))


def _stirlerr1(i: int) -> float:
    return float(_STIRLERR[i]) if i < len(_STIRLERR) else _stirlerr_series(float(i))


def _bd01(x: float, m: float) -> float:
    d = x - m
    if _BD0_CLOSED < abs(d) < 0.1 * (x + m):
        return float(_bd0_series(np.array([x]), np.array([d]), np.array([x + m]))[0])
    return x * math.log1p(d / m) - d


# ---------------------------------------------------------------------------
# the incomplete beta, n > SMALL_N
# ---------------------------------------------------------------------------

def _fraction_terms(m: int, a, b, x, gap):
    """The ``m``-th partial numerator and denominator of Didonato and
    Morris's fraction for ``I_x(a, b)``; ``gap = a (1 - x) - b x + 1``.
    The numerator is zero at ``m = b``."""
    den = a + (2 * m - 1)
    bm = (b - m) * m
    return ((a + (m - 1)) * (a + b + (m - 1)) * bm * x * x / (den * den),
            m + bm * x / den + (a + m) * (gap + m * (2.0 - x)) / (den + 2.0))


#: The modified Lentz method stops once a factor is this close to one.
_LENTZ_TOL = 1e-15

#: Elements of :func:`_fraction` still open that run on Python floats.
_FEW = 16


def _fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Didonato and Morris's continued fraction ``f`` with ``I_x(a, b) =
    x^a (1 - x)^b / (B(a, b) f)`` by the modified Lentz method.  Elements
    leave as they converge; the last ``_FEW`` finish on Python floats."""
    f = a * gap / (a + 1.0)
    c, d = f.copy(), np.zeros_like(f)
    out = np.empty_like(f)
    at = np.arange(len(f))
    m = 1
    while len(at) > _FEW:
        an, bn = _fraction_terms(m, a, b, x, gap)
        d = 1.0 / (bn + an * d)
        c = bn + an / c
        delta = c * d
        f *= delta
        done = np.abs(delta - 1.0) <= _LENTZ_TOL
        if done.any():
            out[at[done]] = f[done]
            keep = ~done
            a, b, x, gap, f, c, d, at = (v[keep] for v in (a, b, x, gap, f, c, d, at))
        m += 1
    for *args, j in zip(a.tolist(), b.tolist(), x.tolist(), gap.tolist(),
                        f.tolist(), c.tolist(), d.tolist(), at.tolist()):
        out[j] = _fraction1(m, *args)
    return out


def _fraction1(m: int, a: float, b: float, x: float, gap: float,
               f: float, c: float, d: float) -> float:
    """:func:`_fraction` for one element from its ``m``-th term on."""
    while True:
        an, bn = _fraction_terms(m, a, b, x, gap)
        d = 1.0 / (bn + an * d)
        c = bn + an / c
        f *= c * d
        if abs(c * d - 1.0) <= _LENTZ_TOL:
            return f
        m += 1


def _cdf_beta(k: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``P(X <= k)`` for ``0 <= k < n``: the lower tail ``I_q(n - k, k + 1)``
    where ``gap = (n - k) p - (k + 1) q >= 0``, else one minus the upper
    tail ``I_p(k + 1, n - k)``.  Either is ``a y pmf(j) / f`` with ``a`` its
    first parameter, ``y`` one minus its ``x``, ``j`` its end count and
    ``f`` the fraction with gap ``|gap| + 1``."""
    q = 1.0 - p
    gap = (n - k) * p - (k + 1) * q
    lower = gap >= 0.0
    a = np.where(lower, n - k, k + 1).astype(float)
    x, y = np.where(lower, q, p), np.where(lower, p, q)
    front = a * y * binom_pmf(np.where(lower, k, k + 1), n, p)
    tail = front / _fraction(a, n + 1.0 - a, x, np.abs(gap) + 1.0)
    return np.where(lower, tail, 1.0 - tail)


def _cdf1(k: float, n: int, p: float) -> float:
    """The cdf on Python numbers: the far tail of :func:`_cdf_exact` or of
    :func:`_cdf_beta`."""
    k = math.floor(k)
    if k < 0 or k >= n:
        return float(k >= n)
    q = 1.0 - p
    gap = (n - k) * p - (k + 1) * q
    if n <= SMALL_N:
        row = _ROWS[n]
        tail = sum([row[j] * p ** j * q ** (n - j)
                    for j in (range(k + 1) if gap >= 0.0 else range(k + 1, n + 1))])
    else:
        a, x, y, j = (n - k, q, p, k) if gap >= 0.0 else (k + 1, p, q, k + 1)
        f = a * (abs(gap) + 1.0) / (a + 1.0)
        tail = a * y * _pmf1(j, n, p) / _fraction1(1, a, n + 1.0 - a, x, abs(gap) + 1.0,
                                                   f, f, 0.0)
    return tail if gap >= 0.0 else 1.0 - tail


# ---------------------------------------------------------------------------
# the binomial pmf and cdf
# ---------------------------------------------------------------------------

def binom_pmf(k, n, p):
    """``P(X = k)`` for ``X ~ Bin(n, p)``, broadcast over the arguments."""
    both = np.broadcast(k, n, p)
    if both.size <= SMALL_N:
        return np.array([_pmf1(float(kk), int(nn), float(pp))
                         for kk, nn, pp in both]).reshape(both.shape)[()]
    k, n, p = (_flat(a, both.shape, dtype) for a, dtype in ((k, np.intp), (n, np.intp), (p, float)))
    out = _by((k >= 0) & (k <= n),
              lambda k, n, p: _by(n <= SMALL_N, _pmf_exact, _pmf_loader, k, n, p),
              lambda k, n, p: np.zeros(len(k)), k, n, p)
    return out.reshape(both.shape)[()]


def binom_cdf(k, n, p, at=None):
    """``P(X <= k)`` for ``X ~ Bin(n, p)`` (``k`` floored), broadcast over
    ``k``, ``n`` and ``at``: each element takes the value at ``at`` of ``p``
    flattened, by default ``p``'s own elements in place."""
    values = np.asarray(p, dtype=float)  # each element of p is a row of the exact tables
    if at is None:
        at = np.arange(values.size).reshape(values.shape)
    values = values.ravel()
    both = np.broadcast(k, n, at)
    if both.size <= SMALL_N:
        listed = values.tolist()
        return np.array([_cdf1(float(kk), int(nn), listed[aa])
                         for kk, nn, aa in both]).reshape(both.shape)[()]
    k, n, at = (_flat(a, both.shape, np.intp) for a in (np.floor(k), n, at))
    out = _by((k >= 0) & (k < n),
              lambda k, n, at: _by(n <= SMALL_N, functools.partial(_cdf_exact, values),
                                   lambda k, n, at: _cdf_beta(k, n, values[at]), k, n, at),
              lambda k, n, at: (k >= n).astype(float), k, n, at)
    return out.reshape(both.shape)[()]


# ---------------------------------------------------------------------------
# the normal cdf
# ---------------------------------------------------------------------------

# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(coeffs: tuple, x: np.ndarray) -> np.ndarray:
    out = coeffs[0] * x + coeffs[1] if coeffs[0] != 1.0 else x + coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


_P_HALF = tuple(0.5 * c for c in _P)


def _half_erfc(x: np.ndarray) -> np.ndarray:
    """``erfc(x) / 2`` for ``1 <= x < 8``."""
    return np.exp(x * -x) * _horner(_P_HALF, x) / _horner(_Q, x)


def _half_erf(x):
    """``erf(x) / 2`` for ``|x| <= 1``."""
    w = x * x
    return 0.5 * (x * _horner(_T, w) / _horner(_U, w))


def normal_cdf(z: float) -> float:
    """``Phi(z)`` on a Python float, the package's one scalar ``Phi``: as
    :func:`ndtr`, with the C library's ``erfc`` in the tails, so the lower
    tail keeps its relative accuracy."""
    x = z * math.sqrt(0.5)
    if x < -1.0:
        return 0.5 * math.erfc(-x)
    if x > 1.0:
        return 1.0 - 0.5 * math.erfc(x)
    return 0.5 + _half_erf(x)


def ndtr(z) -> np.ndarray:
    """``Phi(z)`` on a 1-d array, within 2e-16 of the exact value: ``1/2 +
    erf(z / sqrt 2) / 2`` for ``|z| < sqrt 2``, else from ``erfc(|z| /
    sqrt 2)``, for ``|z| < 11``.  Sorted input is split into these regions
    by one ``searchsorted``, other input is sorted first; at most
    ``SMALL_N`` elements run on Python floats."""
    z = np.asarray(z, dtype=float)
    if len(z) <= SMALL_N:
        return np.array([normal_cdf(v) for v in z.tolist()])
    order = None
    if np.any(z[1:] < z[:-1]):
        order = np.argsort(z)
        z = z[order]
    x = z * math.sqrt(0.5)
    lo, hi = np.searchsorted(x, (-1.0, 1.0))
    out = np.empty_like(x)
    outer = _half_erfc(np.concatenate((-x[:lo], x[hi:])))
    out[:lo] = outer[:lo]
    out[lo:hi] = 0.5 + _half_erf(x[lo:hi])
    out[hi:] = 1.0 - outer[lo:]
    if order is not None:
        out[order] = out.copy()
    return out
