"""Exception types shared across the package."""


class XilabError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveConstantTerm(XilabError):
    """log of a series whose constant term is not strictly positive."""


class NonConvergence(XilabError):
    """A kernel sum, quadrature or root iteration hit its cap before reaching
    its tolerance."""


class NonPositiveG(XilabError):
    """Double-scaling produced a non-positive coupling constant g."""


class InsufficientZerosFound(XilabError):
    """Zero scan exhausted its window before finding the requested count."""


class TailNotNegligible(XilabError):
    """Integrand tail at the domain cutoff exceeds the negligibility bound."""


class UnknownReference(XilabError):
    """No reference-zero table with the requested id."""


class TooFewRealRoots(XilabError):
    """A report row has fewer real roots than its calibration reports zeros."""


class DegenerateFit(XilabError):
    """Linear calibration needs two distinct anchor roots."""


class ComplexAnchor(XilabError):
    """A root selected as a calibration anchor is not real."""
