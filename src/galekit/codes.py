"""Linear codes over prime fields and generalized Reed-Solomon duality.

Code duality here is literally the Gale transform: the dual generator is
a kernel basis of the generator matrix.  GRS codes evaluate the degree
< k polynomials at distinct points of P^1(F_p), columns scaled by nonzero
multipliers; their duals are GRS again on the same points, and the dual
multipliers come out of a single linear system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import moment_vector
from .detnl import projective_blocks
from .errors import (
    ENUMERATION_LIMIT,
    DimensionMismatch,
    ShapeMismatch,
    TooLarge,
    TooManyPoints,
    VerificationFailed,
    ZeroMultiplier,
)
from .exactla import ExactMatrix, PrimeField
from .pointconfig import PointConfiguration


@dataclass(frozen=True)
class LinearCode:
    generator: ExactMatrix  # k x n of rank k

    @staticmethod
    def new(generator: ExactMatrix) -> "LinearCode":
        field = generator.field
        if field.kind != "prime":
            raise DimensionMismatch("codes are supported over prime fields only")
        k, n = generator.shape
        if not 1 <= k < n:
            raise DimensionMismatch(f"need 1 <= k < n, got k={k}, n={n}")
        if generator.rank() != k:
            raise DimensionMismatch("generator must have full row rank")
        return LinearCode(generator)

    @property
    def field(self) -> PrimeField:
        return self.generator.field

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows


@dataclass(frozen=True)
class GrsSpec:
    """Evaluation points of P^1(F_p), nonzero column multipliers, dimension."""

    points: PointConfiguration  # n distinct points, r = 1
    multipliers: tuple
    k: int

    @staticmethod
    def new(points: PointConfiguration, multipliers: Sequence, k: int) -> "GrsSpec":
        field = points.field
        if field.kind != "prime":
            raise DimensionMismatch("GRS codes need a prime field")
        if points.r != 1:
            raise DimensionMismatch("evaluation points live in P^1")
        n = points.gamma
        if n > field.p + 1:
            raise TooManyPoints(f"P^1(F_{field.p}) has only {field.p + 1} points")
        ms = tuple(field.coerce(m) for m in multipliers)
        if len(ms) != n:
            raise DimensionMismatch("need one multiplier per point")
        if any(m == field.zero for m in ms):
            raise ZeroMultiplier("multipliers must be nonzero")
        if not 1 <= k < n:
            raise DimensionMismatch(f"need 1 <= k < n, got k={k}, n={n}")
        return GrsSpec(points, ms, k)

    @property
    def field(self) -> PrimeField:
        return self.points.field

    @property
    def n(self) -> int:
        return self.points.gamma


def grs_code(spec: GrsSpec) -> LinearCode:
    """Generator row i evaluates the i-th degree-(k-1) monomial, scaled."""
    f = spec.field
    columns = []
    for j in range(spec.n):
        mono = moment_vector(f, spec.points.point(j), spec.k - 1)
        columns.append(tuple(f.mul(spec.multipliers[j], x) for x in mono))
    generator = ExactMatrix(f, tuple(columns)).transpose()
    code = LinearCode.new(generator)  # full rank by Vandermonde on distinct points
    return code


def dual_code(code: LinearCode) -> LinearCode:
    """The dual as the kernel of the generator: the Gale step for codes."""
    kernel = code.generator.kernel_basis()
    dual = LinearCode.new(kernel.transpose())
    if not (code.generator @ kernel).is_zero():
        raise VerificationFailed("dual generator fails orthogonality")
    return dual


def same_code(a: LinearCode, b: LinearCode) -> bool:
    """Row-space equality through the canonical reduced echelon form."""
    if a.field != b.field or a.n != b.n:
        raise ShapeMismatch("codes live over different fields or lengths")
    if a.k != b.k:
        return False
    ra, rb = a.generator.rref(), b.generator.rref()
    return ra.reduced.entries[: ra.rank] == rb.reduced.entries[: rb.rank]


def grs_dual_multipliers(spec: GrsSpec) -> tuple:
    """Column multipliers making the dual of a GRS code GRS of dimension n-k.

    Orthogonality of the two evaluation codes reduces to: the pointwise
    products m_j * m'_j lie in the kernel of the degree-(n-2) evaluation,
    which is one-dimensional with nowhere-zero entries for distinct points.
    """
    f = spec.field
    n = spec.n
    moments = tuple(moment_vector(f, spec.points.point(j), n - 2) for j in range(n))
    kernel = ExactMatrix(f, moments).transpose().kernel_basis()
    if kernel.cols != 1:
        raise VerificationFailed("degree n-2 evaluation kernel is not a line")
    products = kernel.column(0)
    if any(x == f.zero for x in products):
        raise VerificationFailed("kernel vector of a distinct-point system vanished")
    duals = tuple(f.div(x, m) for x, m in zip(products, spec.multipliers))
    check = same_code(
        dual_code(grs_code(spec)),
        grs_code(GrsSpec.new(spec.points, duals, n - spec.k)),
    )
    if not check:
        raise VerificationFailed("dual multipliers do not reproduce the dual code")
    return duals


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight by exhaustive message enumeration.

    A codeword's weight does not change when its message is scaled by a
    nonzero constant, so one message per point of P^(k-1)(F_p) suffices:
    (p^k - 1)/(p - 1) words instead of p^k - 1.  The refusal still counts
    all p^k messages.  Vectorized over blocks in exact int64 arithmetic.
    """
    p, k, n = code.field.p, code.k, code.n
    total = p**k
    if total > ENUMERATION_LIMIT:
        raise TooLarge(f"p^k = {total} exceeds {ENUMERATION_LIMIT}")
    gen = np.array([[int(x) for x in row] for row in code.generator.entries], dtype=np.int64)
    best = n
    for msgs in projective_blocks(p, k - 1):
        # p**k <= ENUMERATION_LIMIT, so each sum of k products of residues
        # is below k p^2 <= 10^14 < 2^63
        words = msgs @ gen % p
        weights = np.count_nonzero(words, axis=1)
        best = min(best, int(weights.min()))
        if best == 1:
            break
    return best


def code_points(code: LinearCode) -> PointConfiguration:
    """The generator columns as a configuration in P^(k-1).

    Requires all columns nonzero and pairwise non-proportional (true for
    any projectively reduced code, in particular for GRS generators).
    """
    return PointConfiguration.new(
        code.field, code.k - 1, [code.generator.column(j) for j in range(code.n)]
    )
