"""Exception types shared across the package."""


class WeierpError(Exception):
    """Base class for all weierp errors."""


class DegenerateLattice(WeierpError):
    """Generators are (numerically) linearly dependent over the reals."""


class PoleError(WeierpError):
    """Evaluation point is within pole tolerance of a lattice point."""


class HalfPeriodSingularity(WeierpError):
    """A formula that divides by wp' was hit at (or too close to) a zero of wp'."""


class DegenerateAddition(WeierpError):
    """Addition law denominator wp(z) - wp(w) vanishes: z = w or z - w is a period."""


class DomainError(WeierpError):
    """Argument outside the open interval of an interval bijection."""


class RootFindingFailure(WeierpError):
    """Polynomial root solver did not produce a usable full root set."""


class FitFailure(WeierpError):
    """Multiplier maps could not be built, or did not validate on held-out samples.

    Carries the residual that triggered the failure: the held-out validation
    residual, the containment defect when alpha does not map the lattice
    into itself, or inf when the norm of alpha is above the bound.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SingularSample(WeierpError):
    """Sampling for the multiplier maps' validation kept hitting poles."""
