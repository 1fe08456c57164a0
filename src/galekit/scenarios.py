"""End-to-end demonstration pipelines behind the CLI demo subcommands.

The centerpiece is the seven-points experiment: seven general points of
P^3 over GF(p) lie on a net of three quadrics whose base locus is eight
points, and projecting the seven from the eighth reproduces their Gale
transform.  The eighth point is found by brute-force enumeration of
P^3(F_p), streamed in blocks of points with integer numpy arithmetic
(exact mod p); each block is filtered by the first quadric, and only its
zeros meet the other two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .detnl import projective_blocks
from .errors import RetryBudgetExceeded, VerificationFailed
from .exactla import GF, QQ, ExactMatrix, PrimeField, normalize_row
from .gale import gale_transform
from .generators import random_lgp_configuration
from .pointconfig import Equivalence, PointConfiguration, is_equivalent_labeled
from .selfassoc import (
    Completion,
    CompletionStatus,
    SelfAssociation,
    complete_to_self_associated,
    is_arithmetically_gorenstein,
    self_association_witness,
)


def quadrics_through(cfg: PointConfiguration) -> ExactMatrix:
    """Coefficient vectors (columns) of the quadrics vanishing on the points,
    in the graded-lexicographic monomial order."""
    return cfg.veronese(2).coords.kernel_basis()


def quadric_net_base_locus(
    field: PrimeField, dim: int, quadrics: ExactMatrix
) -> list[tuple]:
    """Common zeros in P^dim(F_p) of the quadrics given by coefficient columns,
    in enumeration order.

    The points are streamed in blocks; per block the first quadric is
    evaluated everywhere and each further one only on the zeros of those
    before it, about 1/p of the rows per quadric.  Refused with
    :class:`~galekit.errors.TooLarge` before any allocation when p**dim
    exceeds the enumeration limit.
    """
    p = field.p
    monomials = list(combinations_with_replacement(range(dim + 1), 2))
    coeffs = np.array(
        [[int(x) for x in quadrics.column(c)] for c in range(quadrics.cols)],
        dtype=np.int64,
    )
    locus = []
    for reps in projective_blocks(p, dim):
        # monomial-major, so every product and every quadric runs over contiguous rows
        columns = reps.T
        values = np.empty((len(monomials), reps.shape[0]), dtype=np.int64)
        for m, (i, j) in enumerate(monomials):
            values[m] = columns[i] * columns[j] % p
        for quadric in coeffs:
            # p**dim <= ENUMERATION_LIMIT, so each sum of C(dim+2, 2) products
            # of residues is below C(dim+2, 2) p^2 <= 3 * 10^14 < 2^63
            zeros = quadric @ values % p == 0
            reps, values = reps[zeros], values[:, zeros]
        locus.extend(tuple(int(x) for x in row) for row in reps)
    return locus


def project_from_point(cfg: PointConfiguration, center: Sequence) -> PointConfiguration:
    """Linear projection of the points away from `center` into P^(r-1)."""
    f = cfg.field
    q = tuple(f.coerce(x) for x in center)
    j = next(i for i, x in enumerate(q) if x != f.zero)
    rows = []
    for row in cfg.coords.entries:
        shifted = tuple(
            f.sub(f.mul(x, q[j]), f.mul(q[k], row[j])) for k, x in enumerate(row)
        )
        rows.append(shifted[:j] + shifted[j + 1 :])
    return PointConfiguration.new(f, cfg.r - 1, rows)


@dataclass(frozen=True)
class EighthPointAnalysis:
    status: str  # complete | degenerate | irrational
    locus: tuple
    eighth: Optional[tuple] = None


def eighth_point_analysis(cfg: PointConfiguration) -> EighthPointAnalysis:
    """Inspect the base locus of the quadrics through seven points of P^3.

    `complete`: exactly eight rational points, the seven plus one more.
    `degenerate`: more than eight (the net cuts out a curve, as happens
    when the seven lie on a twisted cubic).  `irrational`: fewer than
    eight rational points.
    """
    if cfg.r != 3 or cfg.gamma != 7:
        raise VerificationFailed("the eighth-point experiment needs 7 points in P^3")
    net = quadrics_through(cfg)
    if net.cols != 3:
        return EighthPointAnalysis("degenerate", ())
    locus = quadric_net_base_locus(cfg.field, 3, net)
    normalized = {normalize_row(cfg.field, row) for row in cfg.coords.entries}
    if len(locus) > 8:
        return EighthPointAnalysis("degenerate", tuple(locus))
    extras = [pt for pt in locus if pt not in normalized]
    if len(locus) == 8 and len(extras) == 1:
        return EighthPointAnalysis("complete", tuple(locus), extras[0])
    return EighthPointAnalysis("irrational", tuple(locus))


@dataclass(frozen=True)
class SevenP3Report:
    p: int
    seed: int
    attempts: int
    status: str  # verified | degenerate
    points: PointConfiguration
    eighth: Optional[tuple]
    locus_size: int
    equivalence: Optional[Equivalence]


def demo_seven_p3(p: int, seed: int, retries: int = 32) -> SevenP3Report:
    """Sample seven general points of P^3(F_p), find the eighth base-locus
    point, and check that projecting from it gives the Gale transform."""
    field = GF(p)
    rng = random.Random(f"galekit-seven-p3-{p}-{seed}")
    last: Optional[EighthPointAnalysis] = None
    for attempt in range(1, retries + 1):
        cfg = random_lgp_configuration(rng, field, 3, 7)
        analysis = eighth_point_analysis(cfg)
        last = analysis
        if analysis.status == "irrational":
            continue
        if analysis.status == "degenerate":
            return SevenP3Report(
                p, seed, attempt, "degenerate", cfg, None, len(analysis.locus), None
            )
        projected = project_from_point(cfg, analysis.eighth)
        eq = is_equivalent_labeled(projected, gale_transform(cfg).transform)
        if eq is not Equivalence.EQUIVALENT:
            raise VerificationFailed(
                "projection from the eighth point is not the Gale transform"
            )
        return SevenP3Report(
            p, seed, attempt, "verified", cfg, analysis.eighth, len(analysis.locus), eq
        )
    raise RetryBudgetExceeded(
        f"no complete rational base locus in {retries} samples (last: {last.status})"
    )


def complete_intersection_222(p: int, seed: int, retries: int = 32) -> PointConfiguration:
    """Eight points of P^3(F_p) cut out by three quadrics, by extending a
    random seven-point sample with its eighth base-locus point."""
    field = GF(p)
    rng = random.Random(f"galekit-ci222-{p}-{seed}")
    for _ in range(retries):
        cfg = random_lgp_configuration(rng, field, 3, 7)
        analysis = eighth_point_analysis(cfg)
        if analysis.status != "complete":
            continue
        rows = list(cfg.coords.entries) + [analysis.eighth]
        return PointConfiguration.new(field, 3, rows)
    raise RetryBudgetExceeded(f"no (2,2,2) complete intersection in {retries} samples")


@dataclass(frozen=True)
class PascalReport:
    seed: int
    points: PointConfiguration
    association: SelfAssociation
    quadric_defect: int
    arithmetically_gorenstein: str


def demo_pascal(seed: int) -> PascalReport:
    """A random sextuple on a random conic is self-associated with defect 1."""
    from .generators import random_conic_sextuple

    rng = random.Random(f"galekit-pascal-{seed}")
    cfg = random_conic_sextuple(rng, QQ)
    result = self_association_witness(cfg)
    return PascalReport(
        seed,
        cfg,
        result,
        cfg.quadric_defect(),
        is_arithmetically_gorenstein(cfg).value,
    )


@dataclass(frozen=True)
class ElevenP6Report:
    seed: int
    completions: tuple[Completion, ...]
    plane: ExactMatrix  # canonical row space of the three added points
    plane_is_unique: bool


def added_span_canonical(completion: Completion) -> ExactMatrix:
    added = completion.configuration.coords.submatrix(completion.added)
    return added.rref().reduced


def demo_eleven_p6(seed: int, pool_seeds: int = 5) -> ElevenP6Report:
    """Complete 11 general points of P^6 to 14 arithmetically Gorenstein ones.

    The completion is rerun with several random candidate pools; the plane
    spanned by the three added points must come out the same every time.
    """
    rng = random.Random(f"galekit-eleven-{seed}")
    cfg = random_lgp_configuration(rng, QQ, 6, 11)
    completions = []
    planes = []
    for pool in range(pool_seeds):
        completion = complete_to_self_associated(cfg, seed=seed * 1000 + pool)
        if completion.status is not CompletionStatus.COMPLETED:
            raise VerificationFailed("11 general points in P^6 must complete")
        completions.append(completion)
        planes.append(added_span_canonical(completion))
    unique = all(pl == planes[0] for pl in planes)
    return ElevenP6Report(seed, tuple(completions), planes[0], unique)
