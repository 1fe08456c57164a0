"""Exception hierarchy shared by all galekit modules, and the size bound
on exhaustive GF(p) enumerations that :class:`TooLarge` enforces."""

# Largest p**dim (projective scans) or p**k (code words) an exhaustive
# enumeration over GF(p) may visit; checked before any array is allocated.
ENUMERATION_LIMIT = 10**7


class GaleKitError(Exception):
    """Base class for every error raised by galekit."""


class DimensionMismatch(GaleKitError):
    """Operands have incompatible shapes, or a non-square matrix was given
    where a square one is required."""


class FormatError(GaleKitError):
    """A scalar, matrix, or configuration file could not be parsed."""


class ZeroPoint(GaleKitError):
    def __init__(self, index: int):
        super().__init__(f"point {index} is the zero vector")
        self.index = index


class DuplicatePoint(GaleKitError):
    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} are proportional")
        self.i, self.j = i, j


class WrongDegree(GaleKitError):
    """The operation needs a specific point count (usually 2r+2)."""


class Degenerate(GaleKitError):
    """The configuration does not span its ambient space."""


class GaleDegenerate(GaleKitError):
    """A kernel row vanished: some hyperplane contains all but one point,
    so the transform is not basepoint-free."""

    def __init__(self, index: int):
        super().__init__(
            f"kernel row {index} is zero (a hyperplane contains the other points)"
        )
        self.index = index


class GaleNonReduced(GaleKitError):
    """Two kernel rows are proportional: some hyperplane contains all but
    two points, so the transform is not very ample."""

    def __init__(self, i: int, j: int):
        super().__init__(
            f"kernel rows {i} and {j} are proportional "
            "(a hyperplane contains the other points)"
        )
        self.i, self.j = i, j


class NotTwoBases(GaleKitError):
    """The requested split and its complement are not both bases."""


class FirstBlockNotBasis(GaleKitError):
    """Completion requires the first r+1 points to be independent."""


class IsotropicObstruction(GaleKitError):
    """Orthogonal-basis extension ran out of non-isotropic candidates."""


class NotLGP(GaleKitError):
    """The points are not in linearly general position."""


class VerificationFailed(GaleKitError):
    """An identity guaranteed by theory failed to verify; internal error."""


class DegreeOutOfRange(GaleKitError):
    """Series degree outside the range where both embeddings are nondegenerate."""


class TooManyPoints(GaleKitError):
    """More evaluation points than the projective line over GF(p) has."""


class ZeroMultiplier(GaleKitError):
    """A GRS code was given a zero column multiplier."""


class ShapeMismatch(GaleKitError):
    """Codes live over different fields or have different lengths."""


class TooLarge(GaleKitError):
    """An exhaustive scan or search was refused because its size exceeds
    a fixed bound (subset scans, GF(p) enumerations, form searches)."""


class RankTwoDrop(GaleKitError):
    """An adjoint matrix dropped rank by two or more at a point, so the
    determinantal locus is not a reduced set of simple points."""

    def __init__(self, point):
        super().__init__(f"rank drops by >= 2 at {point}")
        self.point = point


class NotBijective(GaleKitError):
    """Kernel-line matching between the two determinantal loci failed."""


class LocusIncomplete(GaleKitError):
    """Some rank-drop points of the tensor are not rational over GF(p)."""


class RetryBudgetExceeded(GaleKitError):
    """A randomized search exhausted its retry budget."""
