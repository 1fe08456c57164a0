"""Exact dense linear algebra over the rationals and over prime fields.

Scalars are plain Python values: `Fraction` over the rationals, and an
integer residue in ``[0, p)`` over GF(p).  A field object supplies the
scalar arithmetic, so every routine below works uniformly over both fields
and returns bit-identical results for identical inputs.  Rank, determinant,
RREF, kernel and inverse all come from one forward elimination,
:func:`_echelon`, which does its row operations with the scalars' own
operators; rank and determinant use the forward pass alone, and RREF adds
one back-substitution sweep.  :func:`subset_ranks` gives the rank of every
row subset from one depth-first walk with the same row operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, FormatError


# ---------------------------------------------------------------------------
# fields


class Rationals:
    """The field of rational numbers; elements are `fractions.Fraction`.

    Fractions are kept in lowest terms with positive denominator by the
    Fraction class itself.
    """

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as e:
                raise FormatError(f"bad rational scalar {x!r}") from e
        raise FormatError(f"cannot coerce {x!r} into the rationals")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return a / b

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class PrimeField:
    """GF(p) for a prime modulus p < 2**31; elements are residues in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise ValueError(f"modulus must be an integer in [2, 2^31): {p!r}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            try:
                return int(x) % self.p
            except ValueError as e:
                raise FormatError(f"bad GF({self.p}) scalar {x!r}") from e
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"{x} has no image in GF({self.p})")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise FormatError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements."""
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field


Field = Rationals | PrimeField


def parse_field(words: Sequence[str]) -> Field:
    """Parse a field line: ``rational`` or ``prime P``."""
    if not words:
        raise FormatError("empty field description")
    if words[0] == "rational":
        return QQ
    if words[0] == "prime":
        if len(words) != 2:
            raise FormatError("expected: prime P")
        try:
            return GF(int(words[1]))
        except ValueError as e:
            raise FormatError(str(e)) from e
    raise FormatError(f"unknown field kind {words[0]!r}")


def describe_field(field: Field) -> str:
    return "rational" if field.kind == "rational" else f"prime {field.p}"


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class RrefResult:
    reduced: "ExactMatrix"
    pivot_columns: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix over an exact field, stored row-major."""

    field: Field
    entries: tuple[tuple[object, ...], ...]

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable]) -> "ExactMatrix":
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        widths = {len(row) for row in coerced}
        if len(widths) > 1:
            raise DimensionMismatch("rows have different lengths")
        return ExactMatrix(field, coerced)

    @staticmethod
    def identity(field: Field, n: int) -> "ExactMatrix":
        one, zero = field.one, field.zero
        return ExactMatrix(
            field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field, tuple(zip(*self.entries)) if self.entries else ())

    def submatrix(self, row_ids: Sequence[int], col_ids: Optional[Sequence[int]] = None) -> "ExactMatrix":
        if col_ids is None:
            return ExactMatrix(self.field, tuple(self.entries[i] for i in row_ids))
        return ExactMatrix(
            self.field, tuple(tuple(self.entries[i][j] for j in col_ids) for i in row_ids)
        )

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_field(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        return ExactMatrix(self.field, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def _check_field(self, other: "ExactMatrix") -> None:
        if self.field != other.field:
            raise DimensionMismatch(f"mixed fields {self.field} and {other.field}")

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        cols = other.transpose().entries
        out = tuple(
            tuple(
                _dot(f, row, col)
                for col in cols
            )
            for row in self.entries
        )
        return ExactMatrix(f, out)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch("addition needs equal shapes")
        f = self.field
        return ExactMatrix(
            f,
            tuple(
                tuple(f.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(self.field.coerce(-1))

    def scale(self, c) -> "ExactMatrix":
        f = self.field
        c = f.coerce(c)
        return ExactMatrix(f, tuple(tuple(f.mul(c, x) for x in row) for row in self.entries))

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    # -- elimination ------------------------------------------------------

    def rref(self) -> RrefResult:
        """Reduced row-echelon form with pivot columns and rank.

        The forward pass of :func:`_echelon`, then one sweep that clears
        each pivot column above its pivot, last pivot first.  The result is
        the unique RREF, so it doubles as a canonical form for the row space.
        """
        f = self.field
        m, pivots, _ = _echelon(f, self.entries)
        p = f.p if f.kind == "prime" else 0
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            _clear_column(m[:k], c, m[k][c:], p)
        reduced = ExactMatrix(f, tuple(tuple(row) for row in m))
        return RrefResult(reduced, tuple(pivots), len(pivots))

    def rank(self) -> int:
        return len(_echelon(self.field, self.entries)[1])

    def kernel_basis(self) -> "ExactMatrix":
        """Basis of the right null space, as matrix columns.

        Free variables are assigned unit values in ascending column order
        (the RREF convention), so the basis is canonical for the matrix.
        """
        f = self.field
        res = self.rref()
        pivots = res.pivot_columns
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        red = res.reduced.entries
        columns = []
        for fc in free:
            v = [f.zero] * self.cols
            v[fc] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(red[i][fc])
            columns.append(v)
        if not columns:
            return ExactMatrix(f, tuple(() for _ in range(self.cols)))
        return ExactMatrix(f, tuple(zip(*columns)))

    def inverse(self) -> Optional["ExactMatrix"]:
        """Inverse of a square matrix; None when singular."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = self.hstack(ExactMatrix.identity(self.field, n))
        res = aug.rref()
        # the augmented rows are always independent; invertibility means
        # every pivot lands in the left block
        if res.pivot_columns != tuple(range(n)):
            return None
        return ExactMatrix(self.field, tuple(row[n:] for row in res.reduced.entries))

    def det(self):
        """Exact determinant: the signed product of the pivots of the
        forward elimination when every column has a pivot, else zero.
        The 0 x 0 matrix has determinant one."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        _, pivots, det = _echelon(self.field, self.entries)
        return det if len(pivots) == self.rows else self.field.zero

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        f = self.field
        return "\n".join(" ".join(f.format(x) for x in row) for row in self.entries)

    def __str__(self) -> str:
        return self.to_text()


def _clear_column(rows: list[list], c: int, tail: list, p: int) -> None:
    """Subtract from each row its entry in column c times the unit pivot row.

    ``tail`` is the pivot row from column c on; the pivot row is zero
    before c, so each row is rewritten from column c on only.
    """
    if p:
        for row in rows:
            x = row[c]
            if x:
                row[c:] = [(a - x * b) % p for a, b in zip(row[c:], tail)]
    else:
        for row in rows:
            x = row[c]
            if x:
                row[c:] = [a - x * b for a, b in zip(row[c:], tail)]


def _echelon(field: Field, entries: Sequence[Sequence]) -> tuple[list[list], list[int], object]:
    """Forward elimination to row-echelon form with unit pivots.

    Returns the rows, the pivot columns, and the signed product of the
    pivots (the determinant of a square input of full rank).  This is the
    one elimination loop of galekit: every rank, determinant, RREF,
    kernel and inverse comes from it.  Row operations use the
    scalars' own operators, ``x - c*y`` on Fractions and ``(x - c*y) % p``
    on residues.
    """
    p = field.p if field.kind == "prime" else 0  # 0: rational arithmetic
    m = [list(row) for row in entries]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    det = field.one
    for c in range(n_cols):
        r = len(pivots)
        for i in range(r, n_rows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            det = -det
        row = m[r]
        lead = row[c]
        inv = field.inv(lead)
        if p:
            det = det * lead % p
            row[c:] = tail = [x * inv % p for x in row[c:]]
        else:
            det *= lead
            row[c:] = tail = [x * inv for x in row[c:]]
        _clear_column(m[r + 1 :], c, tail, p)
        pivots.append(c)
        if r + 1 == n_rows:
            break
    return m, pivots, det


def subset_ranks(field: Field, entries: Sequence[Sequence]) -> bytes:
    """Rank of every subset of the rows, indexed by bitmask (bit i: row i).

    A depth-first walk: each subset extends its parent (itself without its
    highest row), whose later rows are kept reduced against its echelon
    basis.  A nonzero reduced row joins the basis as a unit pivot row and
    is cleared from the rows after it, so a subset costs at most one
    elimination step; a full-width basis fills its subtree unreduced.
    """
    p = field.p if field.kind == "prime" else 0
    n = len(entries)
    width = len(entries[0]) if entries else 0
    ranks = bytearray(1 << n)

    def extend(mask: int, rank: int, rows: list[list], start: int) -> None:
        # rows[i] is row start + i reduced against the basis of `mask`
        if rank == width:
            step = 1 << start
            ranks[mask + step :: step] = bytes((rank,)) * ((1 << (n - start)) - 1)
            return
        for i, row in enumerate(rows):
            child, rest = mask | 1 << (start + i), rows[i + 1 :]
            c = next((c for c, x in enumerate(row) if x), None)
            if c is not None:
                inv = field.inv(row[c])
                tail = [x * inv % p for x in row[c:]] if p else [x * inv for x in row[c:]]
                rest = [list(r) for r in rest]
                _clear_column(rest, c, tail, p)
            ranks[child] = child_rank = rank + (c is not None)
            extend(child, child_rank, rest, start + i + 1)

    extend(0, 0, [list(row) for row in entries], 0)
    return bytes(ranks)


def _dot(field: Field, u: Sequence, v: Sequence):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def matrix_from_text(field: Field, text: str) -> ExactMatrix:
    """Parse a matrix from whitespace-separated rows, one row per line."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise FormatError("no matrix rows found")
    return ExactMatrix.from_rows(field, rows)


def row_is_zero(field: Field, row: Sequence) -> bool:
    return all(x == field.zero for x in row)


def normalize_row(field: Field, row: Sequence) -> tuple:
    """Scale a nonzero row so its first nonzero entry is one.

    This is the canonical representative of the projective point the row
    spans: two nonzero rows are proportional exactly when their
    normalizations are equal.
    """
    lead = next((x for x in row if x != field.zero), None)
    if lead is None:
        raise ValueError("the zero row has no normalization")
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in row)


def rows_proportional(field: Field, u: Sequence, v: Sequence) -> bool:
    """True when u and v are nonzero scalar multiples of one another."""
    if row_is_zero(field, u) or row_is_zero(field, v):
        return False
    return normalize_row(field, u) == normalize_row(field, v)


def first_proportional_pair(field: Field, rows: Sequence[Sequence]) -> Optional[tuple[int, int]]:
    """The lexicographically first pair i < j of proportional rows, or None.

    Each nonzero row is normalized once and the rows are grouped by their
    normalization; zero rows are proportional to nothing, as in
    :func:`rows_proportional`.
    """
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        if not row_is_zero(field, row):
            groups.setdefault(normalize_row(field, row), []).append(i)
    pairs = [(g[0], g[1]) for g in groups.values() if len(g) > 1]
    return min(pairs, default=None)
