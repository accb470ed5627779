"""Exception types shared across the package."""


class WblError(Exception):
    """Base class for all package errors."""


class TangencyNotFound(WblError):
    """The two circles of a moon domain are not internally tangent within tolerance."""


class NoValidC(WblError):
    """No positive quadratic-gap constant survives sampling of the probe circle."""


class UnsupportedMeasure(WblError):
    """The weight's Riesz measure is not atomic, so mass queries are unavailable."""


class UnsupportedGrowth(WblError):
    """Tail bounds only hold for integrands growing at most like exp(|y|)."""


class ToleranceNotMet(WblError):
    """Quadrature stopped above the requested tolerance; best value attached.

    Attributes:
        value: best integral estimate.
        err: its error estimate.
    """

    def __init__(self, message, value, err):
        super().__init__(message)
        self.value = value
        self.err = err


class NonIntegrableSingularity(WblError):
    """A marked singular point has a given order >= 1.995 (not integrable)."""


class DegenerateWeight(WblError):
    """Some monomial has infinite weighted norm (a singularity of mass >= 2)."""


class IllConditioned(WblError):
    """A factorization broke down; rescaling the basis usually helps.

    Recoverable conditioning trouble is reported through result flags instead;
    this exception is raised only when the computation cannot proceed.
    """


class CutIntersectsDomain(WblError):
    """The proposed square-root branch cut ray meets the domain."""


class InvalidParameters(WblError):
    """Stage parameters violate the required ordering or range."""


class OutOfRange(WblError):
    """A scalar argument is outside its admissible open interval."""


class BoundViolated(WblError):
    """A proven inequality failed at a sample; indicates a numerical bug."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class MassTooLarge(WblError):
    """Total singularity mass is >= 2, so the potential is not integrable."""


class Underflow(WblError):
    """A reported positive floor underflowed to 0.0 while its log stays finite."""


class NoValidY(WblError):
    """The gap inequality has no verified threshold below the search cap."""


class UnboundedWeight(WblError):
    """No upper bound for the weight on the domain is available."""


class UnsupportedDomain(WblError):
    """The requested operation is not defined for this domain variant."""
