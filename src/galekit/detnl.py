"""Trilinear forms, their adjoint matrices of linear forms, and the
determinantal point loci where those adjoints drop rank.

A tensor phi in F (x) V (x) W with dim F = r+s, dim V = r+1, dim W = s+1
has two adjoint evaluations: at a point of P(V) it gives an (s+1) x (r+s)
scalar matrix, at a point of P(W) an (r+1) x (r+s) one.  Over GF(p) the
rank-drop loci are found by exhaustive projective enumeration and matched
to each other through their kernel lines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Literal, Optional

import numpy as np

from .errors import (
    ENUMERATION_LIMIT,
    DimensionMismatch,
    GaleKitError,
    LocusIncomplete,
    NotBijective,
    RankTwoDrop,
    RetryBudgetExceeded,
    TooLarge,
    VerificationFailed,
)
from .exactla import ExactMatrix, PrimeField, normalize_row
from .gale import gale_transform
from .pointconfig import Equivalence, PointConfiguration, is_equivalent_labeled

Side = Literal["V", "W"]


@dataclass(frozen=True)
class TrilinearForm:
    field: PrimeField
    entries: tuple  # [f][r+1][s+1] residues

    @staticmethod
    def new(field: PrimeField, entries: Iterable) -> "TrilinearForm":
        if field.kind != "prime":
            raise DimensionMismatch("trilinear forms are supported over prime fields")
        tensor = tuple(
            tuple(tuple(field.coerce(x) for x in row) for row in slab) for slab in entries
        )
        f = len(tensor)
        if f == 0 or not tensor[0] or not tensor[0][0]:
            raise DimensionMismatch("empty tensor")
        rp1 = len(tensor[0])
        sp1 = len(tensor[0][0])
        for slab in tensor:
            if len(slab) != rp1 or any(len(row) != sp1 for row in slab):
                raise DimensionMismatch("ragged tensor")
        r, s = rp1 - 1, sp1 - 1
        if r < 1 or s < 1 or f != r + s:
            raise DimensionMismatch(
                f"need dims (r+s, r+1, s+1) with r, s >= 1; got ({f}, {rp1}, {sp1})"
            )
        return TrilinearForm(field, tensor)

    @property
    def r(self) -> int:
        return len(self.entries[0]) - 1

    @property
    def s(self) -> int:
        return len(self.entries[0][0]) - 1

    @property
    def f(self) -> int:
        return len(self.entries)

    def transposed(self) -> "TrilinearForm":
        """Swap the V and W factors."""
        swapped = tuple(
            tuple(tuple(slab[k][j] for k in range(self.r + 1)) for j in range(self.s + 1))
            for slab in self.entries
        )
        return TrilinearForm(self.field, swapped)

    def to_text(self) -> str:
        blocks = []
        for slab in self.entries:
            blocks.append("\n".join(" ".join(str(x) for x in row) for row in slab))
        return "\n\n".join(blocks)


def adjoint_eval(phi: TrilinearForm, side: Side, point) -> ExactMatrix:
    """Contract the tensor against a point of P(V) or P(W).

    Side V: point of length r+1, result (s+1) x f.
    Side W: point of length s+1, result (r+1) x f.
    The result is linear in the point.
    """
    fld = phi.field
    pt = tuple(fld.coerce(x) for x in point)
    if all(x == fld.zero for x in pt):
        raise ValueError("adjoint evaluation at the zero vector")
    if side == "V":
        if len(pt) != phi.r + 1:
            raise DimensionMismatch(f"side V point needs {phi.r + 1} coordinates")
        rows = tuple(
            tuple(
                sum(phi.entries[m][k][j] * pt[k] for k in range(phi.r + 1)) % fld.p
                for m in range(phi.f)
            )
            for j in range(phi.s + 1)
        )
    elif side == "W":
        if len(pt) != phi.s + 1:
            raise DimensionMismatch(f"side W point needs {phi.s + 1} coordinates")
        rows = tuple(
            tuple(
                sum(phi.entries[m][k][j] * pt[j] for j in range(phi.s + 1)) % fld.p
                for m in range(phi.f)
            )
            for k in range(phi.r + 1)
        )
    else:
        raise ValueError(f"side must be 'V' or 'W', got {side!r}")
    return ExactMatrix(fld, rows)


def projective_representatives(p: int, dim: int):
    """All points of P^dim(F_p), one representative each, ascending lex order.

    Representatives have first nonzero coordinate equal to one.
    """
    for lead in range(dim, -1, -1):
        zeros = (0,) * lead
        for tail in product(range(p), repeat=dim - lead):
            yield zeros + (1,) + tail


def projective_representatives_array(p: int, dim: int) -> np.ndarray:
    """The same representatives in the same order, as int64 rows.

    Refused with :class:`TooLarge` before anything is allocated when
    p**dim exceeds ``ENUMERATION_LIMIT``.
    """
    if p**dim > ENUMERATION_LIMIT:
        raise TooLarge(f"p^dim = {p}^{dim} exceeds {ENUMERATION_LIMIT}")
    blocks = []
    for lead in range(dim, -1, -1):
        tail = dim - lead
        count = p**tail
        block = np.zeros((count, dim + 1), dtype=np.int64)
        block[:, lead] = 1
        if tail:
            idx = np.arange(count, dtype=np.int64)
            for t in range(tail):
                block[:, lead + 1 + t] = (idx // p ** (tail - 1 - t)) % p
        blocks.append(block)
    return np.concatenate(blocks)


def _adjoint_coefficients(phi: TrilinearForm, side: Side) -> np.ndarray:
    """Row (row_index * f + m) holds the linear form of that matrix entry."""
    if side == "V":
        out = [
            [phi.entries[m][k][j] for k in range(phi.r + 1)]
            for j in range(phi.s + 1)
            for m in range(phi.f)
        ]
    else:
        out = [
            [phi.entries[m][k][j] for j in range(phi.s + 1)]
            for k in range(phi.r + 1)
            for m in range(phi.f)
        ]
    return np.array(out, dtype=np.int64)


def _candidate_mask(entries: np.ndarray, full: int, f: int, p: int) -> np.ndarray:
    """Points where one fixed maximal minor vanishes: a superset of every
    rank-drop point, cheap to evaluate in bulk.  Only wired for 3-row
    adjoints; other shapes scan everything.

    Entries are residues in [0, p) and every product is reduced at once,
    so no int64 intermediate reaches p^2 < 2^62 for any p < 2^31.
    """
    if full != 3:
        return np.ones(entries.shape[0], dtype=bool)
    a = [[entries[:, row * f + m] for m in range(3)] for row in range(3)]

    def minor(i: int, j: int) -> np.ndarray:
        return (a[1][i] * a[2][j] % p - a[1][j] * a[2][i] % p) % p

    det = a[0][0] * minor(1, 2) % p - a[0][1] * minor(0, 2) % p + a[0][2] * minor(0, 1) % p
    return det % p == 0


def determinantal_locus(phi: TrilinearForm, side: Side) -> PointConfiguration:
    """All points where the adjoint drops rank by exactly one.

    Scans every point of the relevant projective space over GF(p); a drop
    by two or more anywhere rejects the tensor, since then the opposite
    locus is not a finite reduced set of points.  The scan is bulk
    prefiltered by a single maximal minor where possible; the per-point
    classification is always an exact rank computation.
    """
    dim = phi.r if side == "V" else phi.s
    p = phi.field.p
    full = (phi.s if side == "V" else phi.r) + 1
    reps = projective_representatives_array(p, dim)
    coeffs = _adjoint_coefficients(phi, side)
    # p**dim <= ENUMERATION_LIMIT, so each sum of dim+1 products of residues
    # is below (dim+1) p^2 <= 2 * 10^14 < 2^63
    entries = reps @ coeffs.T % p
    mask = _candidate_mask(entries, full, phi.f, p)
    hits = []
    for i in np.flatnonzero(mask):
        row = entries[i].tolist()
        matrix = tuple(tuple(row[k : k + phi.f]) for k in range(0, full * phi.f, phi.f))
        rank = ExactMatrix(phi.field, matrix).rank()
        if rank == full:
            continue
        rep = tuple(int(x) for x in reps[i])
        if rank < full - 1:
            raise RankTwoDrop(rep)
        hits.append(rep)
    if not hits:
        raise LocusIncomplete(f"side {side} has no rational rank-drop points")
    return PointConfiguration.new(phi.field, dim, sorted(hits))


def _kernel_line(m: ExactMatrix):
    """The unique projective left-kernel vector of m, or None."""
    k = m.transpose().kernel_basis()
    if k.cols != 1:
        return None
    return k.column(0)


def match_pairs(
    phi: TrilinearForm, gv: PointConfiguration, gw: PointConfiguration
) -> tuple[int, ...]:
    """Bijection sending each side-V locus point to its side-W partner.

    The partner of x spans the left kernel of the adjoint evaluated at x;
    the symmetric relation (x spans the left kernel at the partner) is
    verified as well.
    """
    fld = phi.field
    if gv.gamma != gw.gamma:
        raise NotBijective("loci have different cardinalities")
    lookup = {normalize_row(fld, gw.point(i)): i for i in range(gw.gamma)}
    matches = []
    for i in range(gv.gamma):
        x = gv.point(i)
        u = _kernel_line(adjoint_eval(phi, "V", x))
        if u is None:
            raise NotBijective(f"kernel line at side-V point {i} is not unique")
        j = lookup.get(normalize_row(fld, u))
        if j is None:
            raise NotBijective(f"no side-W partner for side-V point {i}")
        back = _kernel_line(adjoint_eval(phi, "W", gw.point(j)))
        if back is None or normalize_row(fld, back) != normalize_row(fld, x):
            raise NotBijective(f"matching is not symmetric at pair ({i}, {j})")
        matches.append(j)
    if len(set(matches)) != gv.gamma:
        raise NotBijective("kernel-line matching is not injective")
    return tuple(matches)


@dataclass(frozen=True)
class VeroneseGaleReport:
    r: int
    s: int
    p: int
    expected_degree: int
    locus_v_size: int
    locus_w_size: int
    equivalence: Optional[Equivalence]
    skipped: bool = False
    note: str = ""


def verify_veronese_gale(phi: TrilinearForm) -> VeroneseGaleReport:
    """Check that the Veronese of one locus is the Gale transform of the other.

    The side-W locus is ordered by the kernel-line matching, re-embedded by
    the degree r-1 Veronese, and its Gale transform compared (as labeled
    configurations) with the degree s-1 Veronese of the side-V locus.
    """
    r, s, p = phi.r, phi.s, phi.field.p
    expected = math.comb(r + s, s)
    if r < 2 or s < 2:
        return VeroneseGaleReport(
            r, s, p, expected, 0, 0, None, skipped=True,
            note="degree-0 Veronese or transform into P^0; nothing to check",
        )
    gv = determinantal_locus(phi, "V")
    gw = determinantal_locus(phi, "W")
    if gv.gamma != expected or gw.gamma != expected:
        raise LocusIncomplete(
            f"loci have sizes {gv.gamma}/{gw.gamma}, expected {expected}: "
            "some rank-drop points are irrational"
        )
    matching = match_pairs(phi, gv, gw)
    ordered_w = gw.permuted(matching)
    left = gale_transform(ordered_w.veronese(r - 1)).transform
    right = gv.veronese(s - 1)
    eq = is_equivalent_labeled(left, right)
    if eq is not Equivalence.EQUIVALENT:
        raise VerificationFailed("Veronese Gale duality failed on a verified locus")
    return VeroneseGaleReport(r, s, p, expected, gv.gamma, gw.gamma, eq)


def random_rational_locus_tensor(
    p: int, r: int, s: int, seed: int = 0, retries: int = 50
) -> tuple[TrilinearForm, int]:
    """Random tensor whose two determinantal loci are fully rational.

    A blind random tensor almost never has all C(r+s, s) rank-drop points
    rational over GF(p), so the sampler prescribes a random rational
    side-V locus together with the side-W partners forced by the duality
    (the Gale transform of its Veronese re-embedding), solves the linear
    conditions those incidences impose on the tensor, and draws a random
    solution; the exhaustive scan then verifies the loci.  The incidence
    prescription needs min(r, s) = 2; other shapes fall back to blind
    sampling.  Returns the tensor and the number of attempts used.  A scan
    refused with :class:`TooLarge` is raised at once: every draw would be
    refused alike.  So is :class:`DimensionMismatch` for r or s below 1,
    before any draw.
    """
    from .exactla import GF

    if r < 1 or s < 1:
        raise DimensionMismatch(f"need r, s >= 1, got r={r}, s={s}")
    fld = GF(p)
    gamma = math.comb(r + s, s)
    rng = random.Random(f"galekit-detnl-{p}-{r}-{s}-{seed}")
    for attempt in range(1, retries + 1):
        try:
            if r == 2:
                phi = _tensor_through_pairs(fld, r, s, rng)
            elif s == 2:
                phi = _tensor_through_pairs(fld, s, r, rng).transposed()
            else:
                phi = _blind_random_tensor(fld, r, s, rng)
            gv = determinantal_locus(phi, "V")
            gw = determinantal_locus(phi, "W")
            if gv.gamma != gamma or gw.gamma != gamma:
                continue
            match_pairs(phi, gv, gw)
        except TooLarge:
            raise
        except GaleKitError:
            continue
        return phi, attempt
    raise RetryBudgetExceeded(f"no rational-locus tensor found in {retries} attempts")


def _tensor_through_pairs(fld, r: int, s: int, rng: random.Random) -> TrilinearForm:
    """Solve for a tensor whose side-V locus contains gamma chosen points.

    The side-W partners are not free: the locus pair must be Gale dual
    after Veronese re-embedding, which for r = 2 pins the side-W points to
    the transform of the plain point set (up to coordinates).
    """
    p = fld.p
    gamma = math.comb(r + s, s)
    f = r + s
    vs = _distinct_projective_points(rng, fld, r, gamma)
    cfg_v = PointConfiguration.new(fld, r, vs)
    embedded = cfg_v.veronese(s - 1) if s > 1 else cfg_v
    ws_cfg = gale_transform(embedded).transform
    rows = []
    for idx in range(gamma):
        v, w = vs[idx], ws_cfg.point(idx)
        for m in range(f):
            row = [0] * (f * (r + 1) * (s + 1))
            for k in range(r + 1):
                for j in range(s + 1):
                    row[m * (r + 1) * (s + 1) + k * (s + 1) + j] = int(v[k]) * int(w[j]) % p
            rows.append(tuple(row))
    kernel = ExactMatrix(fld, tuple(rows)).kernel_basis()
    if kernel.cols == 0:
        raise LocusIncomplete("incidence conditions admit no tensor")
    vec = [0] * kernel.rows
    while all(x == 0 for x in vec):
        for j in range(kernel.cols):
            c = rng.randrange(p)
            if c:
                col = kernel.column(j)
                vec = [(x + c * y) % p for x, y in zip(vec, col)]
    return TrilinearForm.new(fld, _vector_to_tensor(vec, f, r, s))


def _blind_random_tensor(fld, r: int, s: int, rng: random.Random) -> TrilinearForm:
    f = r + s
    return TrilinearForm.new(
        fld,
        [
            [[rng.randrange(fld.p) for _ in range(s + 1)] for _ in range(r + 1)]
            for _ in range(f)
        ],
    )


def _vector_to_tensor(vec, f: int, r: int, s: int):
    return tuple(
        tuple(
            tuple(vec[m * (r + 1) * (s + 1) + k * (s + 1) + j] for j in range(s + 1))
            for k in range(r + 1)
        )
        for m in range(f)
    )


def _distinct_projective_points(rng: random.Random, fld: PrimeField, dim: int, count: int):
    seen = set()
    out = []
    while len(out) < count:
        vec = tuple(rng.randrange(fld.p) for _ in range(dim + 1))
        if all(x == 0 for x in vec):
            continue
        rep = normalize_row(fld, vec)
        if rep not in seen:
            seen.add(rep)
            out.append(rep)
    return out
