"""Exception types shared across the package.

Every error raised on purpose derives from :class:`LecamError`, so callers
(and the command line front end) can distinguish a modelling problem from a
plain bug.
"""

from __future__ import annotations


class LecamError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(LecamError):
    """A constructor or operation received arguments outside its contract."""


class AbsoluteContinuityViolation(LecamError):
    """A likelihood ratio was requested where the numerator measure puts
    mass on a null set of the denominator."""


class SizeLimit(LecamError):
    """An enumeration (paths, product outcomes, grouped states) would exceed
    the configured cap."""


class NoArbitrageViolation(LecamError):
    """No strictly positive one-step martingale measure exists."""


class InvalidState(LecamError):
    """A path state does not belong to the market it was used with."""


class NotACall(LecamError):
    """An operation that only makes sense for a plain European call received
    a different payoff."""


class PathDependenceUnsupported(LecamError):
    """A payoff with a path-dependent test was passed to an operation that
    requires terminal-value payoffs."""


class SelfCheckFailed(LecamError):
    """Two routes that must agree by theory (direct vs test-power prices,
    the Bayes-risk identity, the ``Q1`` masses and ``E_Q(X_T/X_0)``)
    disagreed beyond tolerance."""


class UnsupportedTest(LecamError):
    """A payoff test falls outside the class handled by the limit-model
    evaluator (piecewise constant in the terminal value)."""


class InvalidTangent(LecamError):
    """A candidate tangent direction fails centering, normalization or the
    lower-bound requirement."""


class ThetaOutOfRange(LecamError):
    """A local parameter would push a perturbed measure outside the family
    (density touching zero or going negative)."""


class LemmaHypothesisViolated(LecamError):
    """The one-period martingale construction was attempted outside its
    hypothesis (essential infimum of the direction too small)."""
