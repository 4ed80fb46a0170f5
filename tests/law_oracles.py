"""Sorted laws of ``log(X_T / X_0)``, the tests' oracles for the unsorted
atoms of :func:`lecam.lattice.terminal_log_atoms` and for the bucket-bound
sup-CDF distance of :mod:`lecam.lan`."""

import math

import numpy as np

from lecam._binom import ndtr
from lecam.lan import _TAIL_Z
from lecam.lattice import terminal_log_atoms


def terminal_log_law(m, step_measures):
    """The law of ``log(X_T / X_0)`` under per-step measures on the counts
    that carry mass, values strictly increasing: the atoms of
    :func:`lecam.lattice.terminal_log_atoms` sorted once and exactly equal
    neighbours merged."""
    logs, probs = terminal_log_atoms(m, step_measures)
    order = np.argsort(logs)
    logs, probs = logs[order], probs[order]
    first = np.flatnonzero(np.r_[True, logs[1:] != logs[:-1]])
    return logs[first], np.add.reduceat(probs, first)


def sorted_sup_distance(values, probs, mean, var):
    """Kolmogorov distance ``sup_y |F(y) - Phi((y - mean)/sd)|`` the sorted
    way, the oracle of :func:`lecam.lan._cdf_sup_distance`: the atoms sorted
    and exactly equal ones merged, ``F`` a long-double running sum (64-bit
    mantissa: over 3e5 atoms its rounding stays orders of magnitude below
    the 1e-15 of the comparisons, where a float64 sum drifts by 1.5e-14),
    the right limit ``F(v) - Phi(v)`` and the left limit ``Phi(v) - F(v-)``
    at every atom within ``_TAIL_Z`` standard deviations, and beyond them
    ``Phi`` taken as 0 or 1."""
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    first = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    values, probs = values[first], np.add.reduceat(probs, first)
    sd = math.sqrt(var)
    lo, hi = np.searchsorted(values, (mean - _TAIL_Z * sd, mean + _TAIL_Z * sd))
    cum = np.cumsum(probs, dtype=np.longdouble)
    gap = cum[lo:hi] - ndtr((values[lo:hi] - mean) / sd)
    below = cum[lo - 1] if lo > 0 else 0.0
    above = 1.0 - cum[hi - 1] if hi > 0 else 1.0
    return float(max(below, above, gap.max(initial=0.0),
                     (probs[lo:hi] - gap).max(initial=0.0)))
