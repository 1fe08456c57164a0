"""Rational normal curves: parametrized embeddings, curve fitting through
r+3 points, exact membership tests, and degree duality on the line.

Points of P^1 ("parameters") are ordinary point configurations with r = 1;
the pair (1 : t) is the affine parameter t and (0 : 1) is the point at
infinity.  The degree-e moment map sends (a : b) to
(a^e, a^(e-1) b, ..., b^e).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    NotLGP,
    TooManyPoints,
    VerificationFailed,
    WrongDegree,
)
from .exactla import ExactMatrix, Field
from .gale import gale_transform
from .pointconfig import Equivalence, PointConfiguration, is_equivalent_labeled


def parameter_list(field: Field, values: Sequence) -> PointConfiguration:
    """Build a parameter list from affine values; None marks infinity."""
    pairs = []
    for v in values:
        if v is None:
            pairs.append((field.zero, field.one))
        else:
            pairs.append((field.one, field.coerce(v)))
    return PointConfiguration.new(field, 1, pairs)


def moment_vector(field: Field, pair: Sequence, e: int) -> tuple:
    a, b = (field.coerce(x) for x in pair)
    out = []
    for i in range(e + 1):
        v = field.one
        for _ in range(e - i):
            v = field.mul(v, a)
        for _ in range(i):
            v = field.mul(v, b)
        out.append(v)
    return tuple(out)


def rnc_embed(params: PointConfiguration, e: int) -> PointConfiguration:
    """Embed P^1 parameters in P^e by the degree-e moment map."""
    if params.r != 1:
        raise DimensionMismatch("parameters live in P^1")
    if e < 1:
        raise ValueError("embedding degree must be >= 1")
    return params.veronese(e)


@dataclass(frozen=True)
class RncParametrization:
    """A rational normal curve t -> matrix . moment_vector(t) in P^r."""

    matrix: ExactMatrix
    matrix_inverse: ExactMatrix

    @staticmethod
    def of(matrix: ExactMatrix) -> "RncParametrization":
        inv = matrix.inverse()
        if inv is None:
            raise VerificationFailed("curve matrix must be invertible")
        return RncParametrization(matrix, inv)

    @property
    def degree(self) -> int:
        return self.matrix.rows - 1

    @property
    def field(self) -> Field:
        return self.matrix.field

    def point_at(self, pair: Sequence) -> tuple:
        col = ExactMatrix(self.field, tuple((x,) for x in moment_vector(self.field, pair, self.degree)))
        return (self.matrix @ col).column(0)

    def contains(self, point: Sequence) -> bool:
        """Exact membership via the catalecticant minors of the pullback."""
        f = self.field
        p = tuple(f.coerce(x) for x in point)
        if len(p) != self.degree + 1:
            raise DimensionMismatch("point has the wrong ambient dimension")
        if all(x == f.zero for x in p):
            raise ValueError("membership of the zero vector is undefined")
        col = ExactMatrix(f, tuple((x,) for x in p))
        v = (self.matrix_inverse @ col).column(0)
        r = self.degree
        # v is a moment vector iff [[v0..v_{r-1}], [v1..v_r]] has rank <= 1
        for i in range(r):
            for j in range(i + 1, r):
                if f.mul(v[i], v[j + 1]) != f.mul(v[i + 1], v[j]):
                    return False
        return True


def fit_rational_normal_curve(
    cfg: PointConfiguration, fit_points: Optional[Sequence[int]] = None
) -> RncParametrization:
    """The unique rational normal curve through r+3 points in LGP.

    The Gale transform of the configuration lands in P^1 and provides the
    curve parameters; the matrix matching the moment vectors of those
    parameters to the given points is then solved for linearly from r+2
    of the points (``fit_points``, default the first r+2) and verified
    exactly on the remaining one.
    """
    r, gamma = cfg.r, cfg.gamma
    f = cfg.field
    if gamma != r + 3:
        raise WrongDegree(f"need exactly r+3 = {r + 3} points, got {gamma}")
    if not cfg.is_linearly_general_position():
        raise NotLGP("the points are not in linearly general position")
    params = gale_transform(cfg).transform  # gamma parameters on P^1
    if fit_points is None:
        fit_points = tuple(range(r + 2))
    fit_points = tuple(fit_points)
    if len(fit_points) != r + 2 or len(set(fit_points)) != r + 2:
        raise DimensionMismatch("fitting uses r+2 distinct point labels")
    moments = [moment_vector(f, params.point(i), r) for i in range(gamma)]

    # unknowns: the (r+1)^2 entries of the matrix, then one scale per fit point
    n_m = (r + 1) * (r + 1)
    n_unknowns = n_m + len(fit_points)
    rows = []
    for t, i in enumerate(fit_points):
        q, p = moments[i], cfg.point(i)
        for j in range(r + 1):
            row = [f.zero] * n_unknowns
            for k in range(r + 1):
                row[j * (r + 1) + k] = q[k]
            row[n_m + t] = f.neg(p[j])
            rows.append(tuple(row))
    kernel = ExactMatrix(f, tuple(rows)).kernel_basis()
    if kernel.cols != 1:
        raise VerificationFailed(
            f"curve system has solution dimension {kernel.cols}, expected 1"
        )
    sol = kernel.column(0)
    m = ExactMatrix(
        f, tuple(tuple(sol[j * (r + 1) + k] for k in range(r + 1)) for j in range(r + 1))
    )
    curve = RncParametrization.of(m)
    for i in range(gamma):
        if not curve.contains(cfg.point(i)):
            raise VerificationFailed(f"fitted curve misses point {i}")
    return curve


@dataclass(frozen=True)
class GoppaReport:
    n: int
    h: int
    dual_degree: int
    equivalence: Equivalence
    gale_side: PointConfiguration
    reembed_side: PointConfiguration


def goppa_dual_check(params: PointConfiguration, h: int) -> GoppaReport:
    """Duality of degree-h and degree-(n-h-2) embeddings of the same divisor.

    The Gale transform of the parameters embedded by degree h must be the
    same parameters embedded by degree n-h-2, as labeled configurations.
    Raises when the equivalence fails; that would contradict the duality
    theorem, so it signals an internal error.
    """
    if params.r != 1:
        raise DimensionMismatch("parameters live in P^1")
    n = params.gamma
    if not 1 <= h <= n - 3:
        raise DegreeOutOfRange(f"need 1 <= h <= n-3, got h={h}, n={n}")
    dual_degree = n - h - 2
    gale_side = gale_transform(rnc_embed(params, h)).transform
    reembed_side = rnc_embed(params, dual_degree)
    eq = is_equivalent_labeled(gale_side, reembed_side)
    report = GoppaReport(n, h, dual_degree, eq, gale_side, reembed_side)
    if eq is not Equivalence.EQUIVALENT:
        raise VerificationFailed(
            f"degree-{h} Gale side is not the degree-{dual_degree} re-embedding"
        )
    return report


def sample_parameters(field: Field, count: int, avoid: Sequence = ()) -> PointConfiguration:
    """Deterministic distinct affine parameters 0, 1, 2, ... skipping `avoid`."""
    seen = {tuple(field.coerce(x) for x in pair) for pair in avoid}
    limit = field.p if field.kind == "prime" else None
    values = []
    t = 0
    while len(values) < count:
        if limit is not None and t >= limit:
            raise TooManyPoints(f"GF({limit}) has too few affine parameters")
        pair = (field.one, field.coerce(t))
        if pair not in seen:
            values.append(t)
            seen.add(pair)
        t += 1
    return parameter_list(field, values)
