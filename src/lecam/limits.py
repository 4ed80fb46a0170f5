"""Enumeration caps.

All exhaustive enumerations in the package (path spaces, product outcome
spaces, grouped convolution states, recombined-lattice nodes, the vertex
multisets of ``price_bounds``) are guarded by a cap and raise
:class:`~lecam.errors.SizeLimit` beyond it.  The environment variable
``LECAM_MAX_PATHS`` overrides every cap at once.  Every function that
builds states reads its cap from here and takes none as an argument.
"""

from __future__ import annotations

import os

from .errors import InvalidParams

#: Full path enumeration (roughly 2^22 binary steps, 3^14 ternary steps);
#: only path-space checks and oracles enumerate paths.
DEFAULT_MAX_PATHS = 5_000_000

#: Outcome count of product experiments.
DEFAULT_MAX_OUTCOMES = 1 << 24

#: The states an engine builds, each count checked where it is built and
#: before: the rows of every enumerated binomial draw of a count law (a
#: draw kept in closed form builds none), the pairwise sums that merge
#: groups of a count law, the terminal atoms that
#: ``lattice.combine_additive_laws`` enumerates and those of each row of
#: ``lattice.multiset_log_masses``, and the nodes of all dates of the
#: recombined lattice in backward induction.  Every engine stays within
#: about 256 B per counted state plus a fixed 32 MB of traced memory, so a
#: run at this cap peaks near 2.5 GB at worst.
DEFAULT_MAX_STATES = 10_000_000

#: Product martingale measures priced by ``price_bounds``: vertex multisets
#: per return class, multiplied over the classes.
DEFAULT_MAX_COMBOS = 1 << 16

ENV_VAR = "LECAM_MAX_PATHS"


def _override(default: int) -> int:
    """The value of ``LECAM_MAX_PATHS`` if it is set, else ``default``."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidParams(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise InvalidParams(f"{ENV_VAR} must be positive, got {value}")
    return value


def max_paths() -> int:
    return _override(DEFAULT_MAX_PATHS)


def max_product_outcomes() -> int:
    return _override(DEFAULT_MAX_OUTCOMES)


def max_states() -> int:
    return _override(DEFAULT_MAX_STATES)


def max_combos() -> int:
    return _override(DEFAULT_MAX_COMBOS)
