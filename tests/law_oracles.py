"""Sorted laws of ``log(X_T / X_0)``, the tests' oracles for the unsorted
atoms of :func:`lecam.lattice.terminal_log_atoms` and for the bucket-bound
sup-CDF distance of :mod:`lecam.lan`, and the range of prices over product
martingale measures one law per assignment, the oracle of the batched
:func:`lecam.pricing.price_bounds`."""

import itertools
import math

import numpy as np

from lecam._binom import ndtr
from lecam.lan import _TAIL_Z
from lecam.lattice import (
    _step_vertices,
    solve_martingale_measures,
    terminal_log_atoms,
    terminal_log_masses,
)
from lecam.pricing import _terminal_powers


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


def multiset_assignments(m):
    """Every assignment of a vertex multiset to each return class of ``m``,
    in the order of the rows of :func:`lecam.lattice.multiset_log_masses`:
    the classes with their groups ``[vertex, steps]`` as
    ``as_step_measures`` returns them, each class's multisets in the order
    of ``itertools.combinations_with_replacement`` and the first class's
    varying slowest."""
    solve_martingale_measures(m)
    classes = m.classes
    members = np.bincount(classes.index).tolist()
    vertices = [_step_vertices(np.array(values)) for values in classes.kinds]
    per_class = [[[[vs[i], len(list(run))] for i, run in itertools.groupby(picks)]
                  for picks in itertools.combinations_with_replacement(range(len(vs)), n)]
                 for n, vs in zip(members, vertices)]
    for assignment in itertools.product(*per_class):
        yield list(zip(classes.kinds, assignment))


def product_range(m, payoff):
    """Min and max price of a terminal ``payoff`` over product martingale
    measures, one :func:`lecam.lattice.terminal_log_masses` call per
    assignment of :func:`multiset_assignments`."""
    scale = m.s0 * m.bond_factor(m.steps)
    a, b = np.array([(term.coeff * scale, -term.strike) for term in payoff.terms]).T
    prices = []
    for groups in multiset_assignments(m):
        base, alt = _terminal_powers(
            m, payoff.terms, lambda levels: terminal_log_masses(groups, levels)).T
        prices.append(m.discount * (a * alt + b * base).sum())
    return float(min(prices)), float(max(prices))
