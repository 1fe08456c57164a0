"""Labeled point configurations in projective space.

A configuration is a list of gamma distinct points of P^r over an exact
field, stored as the rows of a gamma x (r+1) coordinate matrix.  Points
are labeled by their row index.  Only reduced configurations are allowed:
no zero rows and no two proportional rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    FormatError,
    TooLarge,
    WrongDegree,
    ZeroPoint,
)
from .exactla import (
    ExactMatrix,
    Field,
    describe_field,
    first_proportional_pair,
    normalize_row,
    parse_field,
    row_is_zero,
)

SUBSET_SCAN_LIMIT = 20


def validate_subset(indices: Iterable[int], gamma: int) -> tuple[int, ...]:
    """Normalize a point-index subset: sorted, distinct, in range."""
    s = tuple(sorted(indices))
    for i in s:
        if not 0 <= i < gamma:
            raise IndexError(f"point index {i} out of range [0, {gamma})")
    if len(set(s)) != len(s):
        raise ValueError(f"subset has repeated indices: {s}")
    return s


class Equivalence(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class PointConfiguration:
    coords: ExactMatrix

    @staticmethod
    def new(field: Field, r: int, rows: Iterable[Iterable]) -> "PointConfiguration":
        if r < 1:
            raise DimensionMismatch("ambient projective dimension must be >= 1")
        m = ExactMatrix.from_rows(field, rows)
        if m.rows < 1:
            raise DimensionMismatch("a configuration needs at least one point")
        if m.cols != r + 1:
            raise DimensionMismatch(f"rows must have {r + 1} entries, got {m.cols}")
        for i, row in enumerate(m.entries):
            if row_is_zero(field, row):
                raise ZeroPoint(i)
        pair = first_proportional_pair(field, m.entries)
        if pair is not None:
            raise DuplicatePoint(*pair)
        return PointConfiguration(m)

    # -- basic accessors ----------------------------------------------------

    @property
    def field(self) -> Field:
        return self.coords.field

    @property
    def r(self) -> int:
        return self.coords.cols - 1

    @property
    def gamma(self) -> int:
        return self.coords.rows

    def point(self, i: int) -> tuple:
        return self.coords.entries[i]

    def permuted(self, order: Sequence[int]) -> "PointConfiguration":
        """Configuration whose row i is the old row order[i]."""
        if sorted(order) != list(range(self.gamma)):
            raise ValueError("order must be a permutation of the labels")
        return PointConfiguration(self.coords.submatrix(order))

    def rescaled(self, scalars: Sequence) -> "PointConfiguration":
        """Multiply each row by a nonzero scalar; same labeled points."""
        f = self.field
        cs = [f.coerce(c) for c in scalars]
        if len(cs) != self.gamma:
            raise DimensionMismatch("need one scalar per point")
        if any(c == f.zero for c in cs):
            raise ValueError("row scalars must be nonzero")
        rows = tuple(
            tuple(f.mul(c, x) for x in row) for c, row in zip(cs, self.coords.entries)
        )
        return PointConfiguration(ExactMatrix(f, rows))

    def transformed(self, m: ExactMatrix) -> "PointConfiguration":
        """Apply the projective transformation x -> x.m to every point."""
        if m.rows != self.r + 1 or m.cols != self.r + 1:
            raise DimensionMismatch("transformation must be (r+1) x (r+1)")
        if m.det() == self.field.zero:
            raise ValueError("transformation must be invertible")
        return PointConfiguration(self.coords @ m)

    def is_nondegenerate(self) -> bool:
        return self.coords.rank() == self.r + 1

    # -- rank and position predicates ----------------------------------------

    def span_rank(self, subset: Iterable[int]) -> int:
        """Rank of the selected coordinate rows (0 for the empty subset)."""
        s = validate_subset(subset, self.gamma)
        if not s:
            return 0
        return self.coords.submatrix(s).rank()

    def is_linearly_general_position(self) -> bool:
        """Every subset of min(gamma, r+1) points is linearly independent."""
        k = min(self.gamma, self.r + 1)
        return all(
            self.coords.submatrix(s).rank() == k
            for s in combinations(range(self.gamma), k)
        )

    # -- Veronese and conditions ----------------------------------------------

    def veronese(self, d: int) -> "PointConfiguration":
        """Re-embed by all degree-d monomials, graded-lexicographic order."""
        if d < 1:
            raise ValueError("Veronese degree must be >= 1")
        f = self.field
        monomials = list(combinations_with_replacement(range(self.r + 1), d))
        rows = []
        for row in self.coords.entries:
            out = []
            for mono in monomials:
                v = f.one
                for k in mono:
                    v = f.mul(v, row[k])
                out.append(v)
            rows.append(tuple(out))
        # distinct input points stay distinct under any Veronese map
        return PointConfiguration.new(f, len(monomials) - 1, rows)

    def conditions_imposed(self, d: int) -> int:
        """Number of conditions the points impose on degree-d forms."""
        if d < 1:
            raise ValueError("degree must be >= 1")
        return self.veronese(d).coords.rank()

    def quadric_defect(self) -> int:
        return self.gamma - self.conditions_imposed(2)

    def forms_vanishing(self, subset: Iterable[int], d: int) -> int:
        """Dimension of the space of degree-d forms vanishing on the subset."""
        if d < 0:
            raise ValueError("degree must be >= 0")
        s = validate_subset(subset, self.gamma)
        if d == 0:
            return 1 if not s else 0
        total = math.comb(self.r + d, d)
        if not s:
            return total
        return total - self.veronese(d).coords.submatrix(s).rank()

    # -- GIT stability -----------------------------------------------------------

    def is_semistable(self) -> bool:
        return self._stability(strict=False)

    def is_stable(self) -> bool:
        return self._stability(strict=True)

    def _stability(self, strict: bool) -> bool:
        """Subset span bounds of geometric invariant theory.

        Every proper nonempty subset of m points must span a subspace of
        projective dimension >= m(r+1)/gamma - 1 (strictly more for
        stability).  Comparisons are exact: rank * gamma vs m * (r+1).

        Only subsets consisting of all configuration points inside some
        flat spanned by points can be binding, so the scan runs over flats
        instead of the full power set; a rank-k flat matters only when it
        holds at least threshold(k) points, which rules out whole sizes
        (k = r+1 always, and k = 1 by row distinctness) before any scan.
        A flat is given by its annihilator, the kernel basis of the
        spanning subset's rows, which one elimination yields; a point lies
        on the flat exactly when its row of ``coords @ normals`` is zero.
        """
        gamma, rp1 = self.gamma, self.r + 1
        if gamma > SUBSET_SCAN_LIMIT:
            raise TooLarge(f"gamma = {gamma} exceeds {SUBSET_SCAN_LIMIT}")
        f = self.field

        def ok(rank: int, m: int) -> bool:
            lhs, rhs = rank * gamma, m * rp1
            return lhs > rhs if strict else lhs >= rhs

        # singletons, and proper subsets whose span contains every point
        if gamma > 1 and not ok(1, 1):
            return False
        if not ok(self.coords.rank(), gamma - 1):
            return False
        for size in range(2, min(gamma - 1, rp1) + 1):
            # smallest member count a rank-`size` flat needs to violate;
            # once the global check passed, a violating flat is proper
            threshold = next(
                (m for m in range(size, gamma + 1) if not ok(size, m)), gamma + 1
            )
            if threshold > gamma - 1:
                continue
            for combo in combinations(range(gamma), size):
                normals = self.coords.submatrix(combo).kernel_basis()
                if normals.cols > rp1 - size:
                    continue  # this flat is spanned by a smaller subset
                incidences = (self.coords @ normals).entries
                members = sum(1 for row in incidences if row_is_zero(f, row))
                if members >= threshold:
                    return False
        return True

    def partition_into_two_bases(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Split 2r+2 points into two spanning (r+1)-subsets.

        Returns the lexicographically first split, or None when no split
        exists (equivalently, when the configuration is not semistable).
        """
        rp1 = self.r + 1
        if self.gamma != 2 * rp1:
            raise WrongDegree(f"need {2 * rp1} points, got {self.gamma}")
        if self.gamma > SUBSET_SCAN_LIMIT:
            raise TooLarge(f"gamma = {self.gamma} exceeds {SUBSET_SCAN_LIMIT}")
        everything = set(range(self.gamma))
        for combo in combinations(range(self.gamma), rp1):
            if self.coords.submatrix(combo).rank() < rp1:
                continue
            complement = tuple(sorted(everything - set(combo)))
            if self.coords.submatrix(complement).rank() == rp1:
                return combo, complement
        return None

    # -- canonical form under the projective group -------------------------------

    def frame_transformation(self, subset: Sequence[int]) -> Optional[ExactMatrix]:
        """Matrix sending the r+2 selected points to the standard frame.

        Returns m with point[subset[i]] . m proportional to e_i for i <= r
        and point[subset[r+1]] . m proportional to (1, ..., 1); None when
        the subset is not a frame.  With B the basis rows and c = last . B^-1
        the coordinates of the last point, m = B^-1 . diag(1/c), which is
        (diag(c) . B)^-1.
        """
        f = self.field
        s = validate_subset(subset, self.gamma)
        if len(s) != self.r + 2:
            raise DimensionMismatch("a frame has r+2 points")
        inv = self.coords.submatrix(s[: self.r + 1]).inverse()
        if inv is None:
            return None
        last = ExactMatrix(f, (self.point(s[self.r + 1]),))
        c = (last @ inv).entries[0]
        if any(x == f.zero for x in c):
            return None
        d = [f.inv(x) for x in c]
        return ExactMatrix(
            f, tuple(tuple(f.mul(x, di) for x, di in zip(row, d)) for row in inv.entries)
        )

    def normalized_rows(self) -> "PointConfiguration":
        """Scale every row so its first nonzero entry is one."""
        f = self.field
        rows = tuple(normalize_row(f, row) for row in self.coords.entries)
        return PointConfiguration(ExactMatrix(f, rows))

    def canonical_form(self) -> Optional["PointConfiguration"]:
        """Normal form under projective transformations and row scaling.

        The lexicographically first frame among the points is sent to the
        standard frame and rows are scaled to leading coefficient one.
        Returns None when no r+2 points form a frame.
        """
        if self.gamma < self.r + 2:
            return None
        for subset in combinations(range(self.gamma), self.r + 2):
            m = self.frame_transformation(subset)
            if m is not None:
                # m is an inverse by construction: no invertibility check
                return PointConfiguration(self.coords @ m).normalized_rows()
        return None

    # -- direct sums ----------------------------------------------------------------

    def direct_sum(self, other: "PointConfiguration") -> "PointConfiguration":
        """Union of the two configurations placed in disjoint linear spans."""
        if self.field != other.field:
            raise DimensionMismatch("direct sum needs a common field")
        f = self.field
        z = f.zero
        left_pad = (z,) * (other.r + 1)
        right_pad = (z,) * (self.r + 1)
        rows = [row + left_pad for row in self.coords.entries]
        rows += [right_pad + row for row in other.coords.entries]
        return PointConfiguration.new(f, self.r + other.r + 1, rows)


def is_equivalent_labeled(a: PointConfiguration, b: PointConfiguration) -> Equivalence:
    """Decide labeled projective equivalence by comparing canonical forms.

    Being a frame is invariant under projective transformations and row
    scaling, so equivalent configurations have the same first frame, and
    the map sending it to the standard frame is unique up to a scalar:
    their canonical forms are equal.  Conversely, equal canonical forms
    compose to an equivalence.  A configuration with a frame is therefore
    never equivalent to one without.  The question is left open
    (INDETERMINATE) only when neither configuration has a frame, for
    example with fewer than r+2 points or points spanning a proper subspace.
    """
    if a.gamma != b.gamma or a.r != b.r or a.field != b.field:
        return Equivalence.NOT_EQUIVALENT
    na, nb = a.canonical_form(), b.canonical_form()
    if na is None and nb is None:
        return Equivalence.INDETERMINATE
    if na is not None and nb is not None and na.coords == nb.coords:
        return Equivalence.EQUIVALENT
    return Equivalence.NOT_EQUIVALENT


# -- configuration file format ---------------------------------------------------


def read_configuration(text: str) -> PointConfiguration:
    """Parse the configuration file format.

    ::

        field rational      # or: field prime 101
        dim 2
        points 6
        1 0 0
        ...

    Lines starting with ``#`` are comments; inline comments are allowed.
    """
    words_per_line = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            words_per_line.append(line.split())
    if len(words_per_line) < 3:
        raise FormatError("configuration file needs field, dim, and points lines")
    head = words_per_line[:3]
    if head[0][0] != "field":
        raise FormatError("first directive must be: field")
    field = parse_field(head[0][1:])
    if head[1][0] != "dim" or len(head[1]) != 2:
        raise FormatError("second directive must be: dim R")
    if head[2][0] != "points" or len(head[2]) != 2:
        raise FormatError("third directive must be: points N")
    try:
        r = int(head[1][1])
        gamma = int(head[2][1])
    except ValueError as e:
        raise FormatError("dim and points take integers") from e
    rows = words_per_line[3:]
    if len(rows) != gamma:
        raise FormatError(f"expected {gamma} coordinate rows, found {len(rows)}")
    return PointConfiguration.new(field, r, rows)


def write_configuration(cfg: PointConfiguration, header: Optional[str] = None) -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(f"field {describe_field(cfg.field)}")
    lines.append(f"dim {cfg.r}")
    lines.append(f"points {cfg.gamma}")
    lines.append(cfg.coords.to_text())
    return "\n".join(lines) + "\n"
