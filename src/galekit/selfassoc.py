"""Self-association certificates and orthogonal-basis structure.

A configuration of 2r+2 points with coordinate matrix G is self-associated
exactly when some nonsingular diagonal D satisfies G^T D G = 0.  The
diagonals solving the linear identity form the kernel of the quadric
evaluation map, and the nonsingular ones (all entries nonzero) are found
by a deterministic generic-combination search.  Every certificate returned
by this module is re-verified by direct matrix multiplication.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

from .errors import (
    Degenerate,
    FirstBlockNotBasis,
    IsotropicObstruction,
    NotTwoBases,
    TooLarge,
    VerificationFailed,
    WrongDegree,
)
from .exactla import ExactMatrix, Field, rows_proportional
from .pointconfig import PointConfiguration, validate_subset

EXHAUSTIVE_SCAN_LIMIT = 10**6


@dataclass(frozen=True)
class DiagonalWitness:
    """Nonsingular diagonal D certifying G^T D G = 0."""

    field: Field
    entries: tuple

    def verify(self, cfg: PointConfiguration) -> bool:
        """Re-check the certificate by direct multiplication."""
        f = self.field
        if len(self.entries) != cfg.gamma or f != cfg.field:
            return False
        if any(e == f.zero for e in self.entries):
            return False
        g = cfg.coords
        scaled = ExactMatrix(
            f, tuple(tuple(f.mul(d, x) for x in row) for d, row in zip(self.entries, g.entries))
        )
        return (g.transpose() @ scaled).is_zero()


@dataclass(frozen=True)
class DiagonalBilinearForm:
    """Bilinear form with diagonal matrix in a designated basis."""

    field: Field
    diagonal: tuple

    def pairing(self, u: Sequence, v: Sequence):
        f = self.field
        acc = f.zero
        for d, a, b in zip(self.diagonal, u, v):
            acc = f.add(acc, f.mul(d, f.mul(a, b)))
        return acc


class Status(enum.Enum):
    WITNESS = "witness"
    NOT_SELF_ASSOCIATED = "not_self_associated"
    INDETERMINATE = "indeterminate"


class Trilean(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SelfAssociation:
    status: Status
    witness: Optional[DiagonalWitness] = None


# ---------------------------------------------------------------------------
# generic nonvanishing combinations


def _combination_search(field: Field, phi: ExactMatrix):
    """Find coefficients alpha with every entry of phi @ alpha nonzero.

    phi rows are the values of required-nonzero functionals on a basis of
    a solution space; alpha selects the combination.  Returns
    ("ok", alpha, values), ("impossible", row) when some functional
    vanishes on the whole space, or ("indeterminate",) when a finite-field
    search is exhausted or too large.
    """
    f = field
    t_rows, m = phi.rows, phi.cols
    if m == 0:
        return ("impossible", 0)
    for t in range(t_rows):
        if all(x == f.zero for x in phi.entries[t]):
            return ("impossible", t)

    # Greedy pass: fold in one basis column at a time with the smallest
    # coefficient that cancels nothing that is already (or newly) covered.
    cols = [phi.column(j) for j in range(m)]
    alpha = [f.zero] * m
    alpha[0] = f.one
    values = list(cols[0])
    for j in range(1, m):
        col = cols[j]
        bad = set()
        for vi, ci in zip(values, col):
            if ci != f.zero and vi != f.zero:
                bad.add(f.neg(f.div(vi, ci)))
        c = _smallest_coefficient(f, bad)
        if c is None:
            return _exhaustive_combination(f, phi)
        alpha[j] = c
        values = [f.add(v, f.mul(c, x)) for v, x in zip(values, col)]
    if any(v == f.zero for v in values):
        # cannot happen over an infinite field; fall back over GF(p)
        if f.kind == "rational":
            raise VerificationFailed("greedy combination failed over the rationals")
        return _exhaustive_combination(f, phi)
    return ("ok", tuple(alpha), tuple(values))


def _smallest_coefficient(field: Field, bad: set):
    if field.kind == "rational":
        c = field.one
        while c in bad:
            c += 1
        return c
    for c in range(1, field.p):
        if c not in bad:
            return c
    return None


def _exhaustive_combination(field: Field, phi: ExactMatrix):
    p, m = field.p, phi.cols
    if p**m > EXHAUSTIVE_SCAN_LIMIT:
        return ("indeterminate",)
    cols = [phi.column(j) for j in range(m)]
    for alpha in product(range(p), repeat=m):
        if all(a == 0 for a in alpha):
            continue
        values = [field.zero] * phi.rows
        for a, col in zip(alpha, cols):
            if a:
                values = [field.add(v, field.mul(a, x)) for v, x in zip(values, col)]
        if all(v != field.zero for v in values):
            return ("ok", alpha, tuple(values))
    return ("impossible", -1)


def _orthogonalizing_diagonal(field: Field, vectors: Sequence[tuple]):
    """Search for a diagonal form, nonsingular, under which the given
    vectors are mutually orthogonal and none is isotropic.

    The pairwise orthogonality conditions are linear in the diagonal; the
    required-nonzero functionals (each diagonal entry, each vector norm)
    are searched over their kernel.  Returns the outcome of
    :func:`_combination_search`, whose first n values are the diagonal.
    """
    f = field
    n = len(vectors[0])
    conditions = [
        tuple(f.mul(u[k], v[k]) for k in range(n)) for u, v in combinations(vectors, 2)
    ]
    if conditions:
        kernel = ExactMatrix(f, tuple(conditions)).kernel_basis()
    else:
        kernel = ExactMatrix.identity(f, n)
    if kernel.cols == 0:
        return ("impossible", 0)
    functionals = list(ExactMatrix.identity(f, n).entries)
    functionals.extend(tuple(f.mul(x, x) for x in v) for v in vectors)
    return _combination_search(f, ExactMatrix(f, tuple(functionals)) @ kernel)


# ---------------------------------------------------------------------------
# self-association


def self_association_witness(cfg: PointConfiguration) -> SelfAssociation:
    """Search for a nonsingular diagonal D with G^T D G = 0.

    The admissible diagonals are the kernel of the transposed quadric
    evaluation; the configuration is self-associated iff that kernel
    contains a vector with no zero coordinate.  Over the rationals the
    search is complete; over GF(p) a kernel too large to scan yields
    INDETERMINATE rather than a guess.
    """
    f = cfg.field
    if cfg.gamma != 2 * (cfg.r + 1):
        raise WrongDegree(f"self-association needs 2r+2 = {2 * cfg.r + 2} points")
    if not cfg.is_nondegenerate():
        raise Degenerate("configuration must span its ambient space")
    kernel = cfg.veronese(2).coords.transpose().kernel_basis()
    if kernel.cols == 0:
        return SelfAssociation(Status.NOT_SELF_ASSOCIATED)
    outcome = _combination_search(f, kernel)
    if outcome[0] == "impossible":
        return SelfAssociation(Status.NOT_SELF_ASSOCIATED)
    if outcome[0] == "indeterminate":
        return SelfAssociation(Status.INDETERMINATE)
    witness = DiagonalWitness(f, outcome[2])
    if not witness.verify(cfg):
        raise VerificationFailed("solver produced an invalid witness")
    return SelfAssociation(Status.WITNESS, witness)


def is_arithmetically_gorenstein(cfg: PointConfiguration) -> Trilean:
    """Self-associated with quadric defect exactly one."""
    result = self_association_witness(cfg)
    if result.status is Status.INDETERMINATE:
        return Trilean.INDETERMINATE
    if result.status is Status.NOT_SELF_ASSOCIATED:
        return Trilean.FALSE
    return Trilean.TRUE if cfg.quadric_defect() == 1 else Trilean.FALSE


# ---------------------------------------------------------------------------
# orthogonal bases


def orthogonalizing_form(
    cfg: PointConfiguration, split: Sequence[int]
) -> Optional[DiagonalBilinearForm]:
    """Diagonal form making the split and its complement orthogonal bases.

    Coordinates are changed so the split points become the standard basis;
    the form is then diagonal there, and the mutual orthogonality of the
    complement rows gives C(r+1, 2) homogeneous linear conditions on the
    diagonal.  A solution is returned only if it is nonsingular and none
    of the complement points is isotropic; otherwise None.
    """
    f = cfg.field
    rp1 = cfg.r + 1
    if cfg.gamma != 2 * rp1:
        raise WrongDegree(f"need 2r+2 = {2 * rp1} points")
    s = validate_subset(split, cfg.gamma)
    if len(s) != rp1:
        raise NotTwoBases(f"split must have r+1 = {rp1} labels")
    complement, inv, vs = _split_coordinates(cfg, s)
    if inv is None or cfg.coords.submatrix(complement).rank() < rp1:
        raise NotTwoBases("split and complement must both be bases")
    outcome = _orthogonalizing_diagonal(f, vs)
    if outcome[0] == "impossible":
        return None
    if outcome[0] == "indeterminate":
        raise TooLarge("nonsingular-form search space too large to scan over this field")
    return DiagonalBilinearForm(f, tuple(outcome[2][:rp1]))


def _split_coordinates(cfg: PointConfiguration, split: tuple[int, ...]):
    """Complement labels, inverse of the split basis, and the complement
    rows in split-basis coordinates (inverse and rows are None when the
    split is not a basis)."""
    complement = tuple(sorted(set(range(cfg.gamma)) - set(split)))
    inv = cfg.coords.submatrix(split).inverse()
    if inv is None:
        return complement, None, None
    return complement, inv, (cfg.coords.submatrix(complement) @ inv).entries


def witness_from_form(
    cfg: PointConfiguration, split: Sequence[int], form: DiagonalBilinearForm
) -> DiagonalWitness:
    """Rebuild the diagonal certificate from an orthogonalizing form.

    With the split points as standard basis, the diagonal entries are
    -1/B(e_i, e_i) on the split labels and 1/B(v_j, v_j) on the others.
    """
    f = cfg.field
    s = validate_subset(split, cfg.gamma)
    complement, inv, vs = _split_coordinates(cfg, s)
    if inv is None:
        raise NotTwoBases("split is not a basis")
    entries = [f.zero] * cfg.gamma
    for k, label in enumerate(s):
        entries[label] = f.neg(f.inv(form.diagonal[k]))
    for j, label in enumerate(complement):
        norm = form.pairing(vs[j], vs[j])
        entries[label] = f.inv(norm)
    witness = DiagonalWitness(f, tuple(entries))
    # the certificate is stated in split-basis coordinates; transport back
    transformed = PointConfiguration(cfg.coords @ inv)
    if not witness.verify(transformed):
        raise VerificationFailed("form does not reconstruct a witness")
    if not witness.verify(cfg):
        raise VerificationFailed("witness failed in the original coordinates")
    return witness


# ---------------------------------------------------------------------------
# completion


class CompletionStatus(enum.Enum):
    COMPLETED = "completed"
    NOT_COMPLETABLE = "not_completable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Completion:
    status: CompletionStatus
    configuration: Optional[PointConfiguration] = None
    form: Optional[DiagonalBilinearForm] = None
    added: tuple[int, ...] = ()


def complete_to_self_associated(cfg: PointConfiguration, seed: int = 0) -> Completion:
    """Extend gamma > r+1 points to a self-associated set of 2r+2 when possible.

    The first r+1 points must be a basis; they are moved to the standard
    basis, so a compatible bilinear form is diagonal.  The remaining d
    points impose C(d, 2) mutual-orthogonality conditions on the diagonal;
    when a nonsingular solution with non-isotropic points exists, the
    second orthogonal basis is filled up by the Gram-Schmidt process
    against standard basis vectors and then seeded random candidates.

    The returned configuration is in the new coordinates (its first r+1
    points are the standard basis) and always carries a verified witness.
    """
    f = cfg.field
    rp1 = cfg.r + 1
    gamma = cfg.gamma
    # gamma > 2r+2 always comes out NOT_COMPLETABLE: more than r+1 mutually
    # orthogonal non-isotropic vectors cannot exist
    if gamma <= rp1:
        raise WrongDegree(f"need gamma > r+1, got gamma={gamma}, r={cfg.r}")
    block = cfg.coords.submatrix(range(rp1))
    inv = block.inverse()
    if inv is None:
        raise FirstBlockNotBasis("the first r+1 points must be independent")
    work = PointConfiguration(cfg.coords @ inv)
    sigma = [work.point(i) for i in range(rp1, gamma)]
    outcome = _orthogonalizing_diagonal(f, sigma)
    if outcome[0] == "impossible":
        return Completion(CompletionStatus.NOT_COMPLETABLE)
    if outcome[0] == "indeterminate":
        return Completion(CompletionStatus.INDETERMINATE)
    if gamma > 2 * rp1:
        raise VerificationFailed("found orthogonal vectors beyond the space dimension")
    form = DiagonalBilinearForm(f, tuple(outcome[2][:rp1]))

    added = _gram_schmidt_fill(work, sigma, form, seed)
    rows = list(work.coords.entries) + added
    completed = PointConfiguration.new(f, cfg.r, rows)
    check = self_association_witness(completed)
    if check.status is not Status.WITNESS:
        raise VerificationFailed("completed configuration is not self-associated")
    return Completion(
        CompletionStatus.COMPLETED,
        completed,
        form,
        tuple(range(gamma, 2 * rp1)),
    )


GRAM_SCHMIDT_RETRIES = 64


def _gram_schmidt_fill(
    work: PointConfiguration,
    sigma: list,
    form: DiagonalBilinearForm,
    seed: int,
) -> list:
    """Extend sigma to a full orthogonal basis, skipping isotropic picks."""
    f = work.field
    rp1 = work.r + 1
    rng = random.Random(f"galekit-completion-{seed}")
    chosen = list(sigma)
    existing = list(work.coords.entries)
    added: list[tuple] = []

    def candidates():
        for i in range(rp1):
            yield ExactMatrix.identity(f, rp1).entries[i]
        while True:
            if f.kind == "prime":
                yield tuple(f.coerce(rng.randrange(f.p)) for _ in range(rp1))
            else:
                yield tuple(f.coerce(rng.randint(-9, 9)) for _ in range(rp1))

    while len(chosen) < rp1:
        attempts = 0
        pool = candidates()
        while True:
            if attempts >= GRAM_SCHMIDT_RETRIES:
                raise IsotropicObstruction(
                    f"no non-isotropic extension found after {attempts} candidates"
                )
            cand = next(pool)
            attempts += 1
            w = list(cand)
            for u in chosen:
                nu = form.pairing(u, u)
                coeff = f.div(form.pairing(w, u), nu)
                w = [f.sub(x, f.mul(coeff, y)) for x, y in zip(w, u)]
            if all(x == f.zero for x in w):
                continue
            if form.pairing(w, w) == f.zero:
                continue
            if any(rows_proportional(f, w, row) for row in existing + added):
                continue
            chosen.append(tuple(w))
            added.append(tuple(w))
            break
    return added


# ---------------------------------------------------------------------------
# direct sums


@dataclass(frozen=True)
class DirectSumReport:
    left: SelfAssociation
    right: SelfAssociation
    total: SelfAssociation
    left_defect: int
    right_defect: int
    total_defect: int


def direct_sum_self_association_check(
    a: PointConfiguration, b: PointConfiguration
) -> DirectSumReport:
    """Self-association of a direct sum against that of its summands.

    The sum is self-associated iff both summands are, and quadric defects
    add.  Both facts are asserted whenever every status is determinate.
    """
    for cfg in (a, b):
        if cfg.gamma != 2 * (cfg.r + 1):
            raise WrongDegree("each summand needs 2r+2 points")
    total_cfg = a.direct_sum(b)
    ra, rb = self_association_witness(a), self_association_witness(b)
    rt = self_association_witness(total_cfg)
    report = DirectSumReport(
        ra,
        rb,
        rt,
        a.quadric_defect(),
        b.quadric_defect(),
        total_cfg.quadric_defect(),
    )
    statuses = (ra.status, rb.status, rt.status)
    if Status.INDETERMINATE not in statuses:
        both = ra.status is Status.WITNESS and rb.status is Status.WITNESS
        if both != (rt.status is Status.WITNESS):
            raise VerificationFailed("direct-sum self-association mismatch")
    if report.total_defect != report.left_defect + report.right_defect:
        raise VerificationFailed("quadric defects of a direct sum must add")
    return report
