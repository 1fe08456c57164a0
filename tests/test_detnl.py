import random

import numpy as np
import pytest
from conftest import projective_representatives, rng_for

from galekit import detnl
from galekit.cli import main
from galekit.detnl import (
    TrilinearForm,
    _candidate_mask,
    adjoint_eval,
    determinantal_locus,
    match_pairs,
    projective_blocks,
    random_rational_locus_tensor,
    verify_veronese_gale,
)
from galekit.errors import DimensionMismatch, LocusIncomplete, RankTwoDrop, TooLarge
from galekit.exactla import GF, ExactMatrix
from galekit.pointconfig import Equivalence


def random_tensor(rng, field, r, s):
    f = r + s
    entries = [
        [[rng.randrange(field.p) for _ in range(s + 1)] for _ in range(r + 1)]
        for _ in range(f)
    ]
    return TrilinearForm.new(field, entries)


def naive_adjoint(phi, side, point):
    """Independent triple-loop contraction."""
    p = phi.field.p
    if side == "V":
        return [
            [sum(phi.entries[m][k][j] * point[k] for k in range(phi.r + 1)) % p for m in range(phi.f)]
            for j in range(phi.s + 1)
        ]
    return [
        [sum(phi.entries[m][k][j] * point[j] for j in range(phi.s + 1)) % p for m in range(phi.f)]
        for k in range(phi.r + 1)
    ]


# -- adjoints ------------------------------------------------------------------


def test_tensor_validation():
    with pytest.raises(DimensionMismatch):
        TrilinearForm.new(GF(7), [[[1, 0], [0, 1]]])  # f = 1 != r + s = 2


def test_adjoint_elementary_tensor():
    f = GF(7)
    entries = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    entries[1][0][1] = 3  # e_1 (x) v_0 (x) w_1
    phi = TrilinearForm.new(f, entries)
    m = adjoint_eval(phi, "V", (1, 0))
    nonzero = [(j, c) for j in range(2) for c in range(2) if m.entries[j][c] != 0]
    assert nonzero == [(1, 1)]
    assert m.entries[1][1] == 3


def test_adjoint_linearity():
    rng = rng_for("adjoint-linear")
    f = GF(7)
    phi = random_tensor(rng, f, 2, 2)
    p1 = (1, 2, 3)
    p2 = (4, 0, 6)
    total = tuple(f.add(a, b) for a, b in zip(p1, p2))
    left = adjoint_eval(phi, "V", total)
    right = adjoint_eval(phi, "V", p1) + adjoint_eval(phi, "V", p2)
    assert left == right


def test_adjoint_matches_naive_oracle():
    rng = rng_for("adjoint-oracle")
    f = GF(7)
    for _ in range(5):
        phi = random_tensor(rng, f, 2, 1)
        for side, dim in (("V", 2), ("W", 1)):
            pt = tuple(rng.randrange(7) for _ in range(dim + 1))
            if all(x == 0 for x in pt):
                pt = (1,) + pt[1:]
            assert [list(r) for r in adjoint_eval(phi, side, pt).entries] == naive_adjoint(
                phi, side, pt
            )


# -- loci ---------------------------------------------------------------------------


def test_projective_representatives_order_and_count():
    reps = list(projective_representatives(3, 2))
    assert len(reps) == 13  # 9 + 3 + 1
    assert reps[0] == (0, 0, 1)
    assert reps == sorted(reps)
    assert all(next(x for x in rep if x) == 1 for rep in reps)


@pytest.mark.parametrize("p, dim", [(2, 0), (2, 4), (3, 2), (5, 2), (7, 1), (3, 3)])
def test_projective_blocks_concatenate_to_representatives(monkeypatch, p, dim):
    # blocks of five rows end inside the runs of one leading coordinate
    monkeypatch.setattr(detnl, "_BLOCK_ROWS", 5)
    blocks = list(projective_blocks(p, dim))
    assert all(b.dtype == np.int64 and 1 <= b.shape[0] <= 5 for b in blocks)
    rows = [tuple(int(x) for x in row) for b in blocks for row in b]
    assert rows == list(projective_representatives(p, dim))


def test_projective_blocks_refused_by_the_call():
    with pytest.raises(TooLarge):
        projective_blocks(101, 4)  # 101^4 > 10^7, refused before any next()


def locus_outcome(phi, side):
    try:
        return determinantal_locus(phi, side).coords.entries
    except (RankTwoDrop, LocusIncomplete) as exc:
        return type(exc).__name__, exc.args


def test_locus_same_in_small_blocks(monkeypatch):
    rng = rng_for("locus-blocks")
    tensors = [random_rational_locus_tensor(7, 2, 2, seed=3)[0],
               random_rational_locus_tensor(5, 2, 3, seed=1)[0]]
    tensors += [random_tensor(rng, GF(7), r, s) for r, s in ((1, 1), (1, 2), (2, 2), (2, 2))]
    # the adjoint vanishes at (1, 0, 0) of P(V): a drop by two there
    flat = random_tensor(rng, GF(7), 2, 2)
    tensors.append(TrilinearForm.new(GF(7), [[[0] * 3] + list(slab[1:]) for slab in flat.entries]))
    cases = [(phi, side) for phi in tensors for side in ("V", "W")]
    whole = [locus_outcome(phi, side) for phi, side in cases]
    monkeypatch.setattr(detnl, "_BLOCK_ROWS", 5)
    assert [locus_outcome(phi, side) for phi, side in cases] == whole


def test_locus_r1_s1_at_most_two_points():
    rng = rng_for("locus-11")
    sizes = []
    for _ in range(8):
        phi = random_tensor(rng, GF(7), 1, 1)
        try:
            for side in ("V", "W"):
                sizes.append(determinantal_locus(phi, side).gamma)
        except (RankTwoDrop, LocusIncomplete):
            continue
    assert sizes and all(size <= 2 for size in sizes)


def test_locus_2_2_has_six_points():
    phi, _ = random_rational_locus_tensor(11, 2, 2, seed=1)
    gv = determinantal_locus(phi, "V")
    gw = determinantal_locus(phi, "W")
    assert gv.gamma == 6 and gw.gamma == 6


def test_rank_two_drop_detected():
    # prescribe two independent kernel vectors at one point of P(V)
    f = GF(11)
    rng = random.Random("galekit-tests-2drop")
    v = (1, 0, 0)
    rows = []
    for w in ((1, 0, 0), (0, 1, 0)):
        for m in range(4):
            row = [0] * (4 * 3 * 3)
            for k in range(3):
                for j in range(3):
                    row[m * 9 + k * 3 + j] = v[k] * w[j] % 11
            rows.append(tuple(row))
    kernel = ExactMatrix(f, tuple(rows)).kernel_basis()
    vec = [0] * 36
    for c in range(kernel.cols):
        coeff = rng.randrange(11)
        col = kernel.column(c)
        vec = [(x + coeff * y) % 11 for x, y in zip(vec, col)]
    phi = TrilinearForm.new(
        f,
        [[[vec[m * 9 + k * 3 + j] for j in range(3)] for k in range(3)] for m in range(4)],
    )
    with pytest.raises(RankTwoDrop):
        determinantal_locus(phi, "V")


# -- matching --------------------------------------------------------------------------


def test_match_pairs_1_1():
    rng = rng_for("match-11")
    for _ in range(40):
        phi = random_tensor(rng, GF(7), 1, 1)
        try:
            gv = determinantal_locus(phi, "V")
            gw = determinantal_locus(phi, "W")
        except (RankTwoDrop, LocusIncomplete):
            continue
        if gv.gamma != 2 or gw.gamma != 2:
            continue
        match = match_pairs(phi, gv, gw)
        assert sorted(match) == [0, 1]
        return
    raise AssertionError("no two-point tensor found over GF(7)")


def test_match_pairs_2_2():
    phi, _ = random_rational_locus_tensor(11, 2, 2, seed=2)
    gv = determinantal_locus(phi, "V")
    gw = determinantal_locus(phi, "W")
    match = match_pairs(phi, gv, gw)
    assert sorted(match) == list(range(6))


def test_match_pairs_unshuffles_relabeling():
    rng = rng_for("shuffle")
    phi, _ = random_rational_locus_tensor(11, 2, 2, seed=3)
    gv = determinantal_locus(phi, "V")
    gw = determinantal_locus(phi, "W")
    base = match_pairs(phi, gv, gw)
    order = list(range(6))
    rng.shuffle(order)
    shuffled = gw.permuted(order)
    new_match = match_pairs(phi, gv, shuffled)
    for i in range(6):
        assert order[new_match[i]] == base[i]


def test_match_symmetry_under_transpose():
    phi, _ = random_rational_locus_tensor(11, 2, 2, seed=4)
    gv = determinantal_locus(phi, "V")
    gw = determinantal_locus(phi, "W")
    forward = match_pairs(phi, gv, gw)
    backward = match_pairs(phi.transposed(), gw, gv)
    for i, j in enumerate(forward):
        assert backward[j] == i


# -- the duality ------------------------------------------------------------------------


def test_verify_veronese_gale_2_2():
    phi, _ = random_rational_locus_tensor(11, 2, 2, seed=5)
    report = verify_veronese_gale(phi)
    assert report.equivalence is Equivalence.EQUIVALENT
    assert report.locus_v_size == report.expected_degree == 6


def test_verify_veronese_gale_skips_trivial():
    rng = rng_for("skip-11")
    phi = random_tensor(rng, GF(7), 1, 1)
    report = verify_veronese_gale(phi)
    assert report.skipped


def test_verify_veronese_gale_2_3():
    phi, _ = random_rational_locus_tensor(31, 2, 3, seed=1)
    report = verify_veronese_gale(phi)
    assert report.equivalence is Equivalence.EQUIVALENT
    assert report.expected_degree == 10


# -- int64 safety of the bulk prefilter -----------------------------------------


@pytest.mark.parametrize("p", [4_999_999, 2**31 - 1])
def test_candidate_mask_exact_for_large_primes(p):
    # residues near p make an unreduced 3x3 minor exceed 2^63 once p is
    # above about 1.4e6; planted singular minors must all be flagged
    rng = rng_for(f"mask-{p}")
    f = 3
    rows = []
    for t in range(400):
        row = [rng.randrange(p) for _ in range(3 * f)]
        if t % 4 == 0:
            c, d = rng.randrange(p), rng.randrange(p)
            row[2 * f : 3 * f] = [(c * x + d * y) % p for x, y in zip(row[:f], row[f : 2 * f])]
        rows.append(row)
    mask = _candidate_mask(np.array(rows, dtype=np.int64), 3, f, p)

    def det3(a):
        return (
            a[0] * (a[4] * a[8] - a[5] * a[7])
            - a[1] * (a[3] * a[8] - a[5] * a[6])
            + a[2] * (a[3] * a[7] - a[4] * a[6])
        )

    expected = [det3(row) % p == 0 for row in rows]
    assert sum(expected) >= 100
    assert mask.tolist() == expected


def test_sampler_lets_size_refusal_propagate(capsys):
    # p^2 = 3163^2 > ENUMERATION_LIMIT: every draw would be refused, so the
    # first refusal is raised instead of spending the retries on it
    with pytest.raises(TooLarge):
        random_rational_locus_tensor(3163, 2, 2, retries=3)
    assert main(["detnl", "verify", "--r", "2", "--s", "2", "--p", "3163", "--retries", "3"]) == 2
    err = capsys.readouterr().err
    assert "TooLarge" in err and "RetryBudgetExceeded" not in err
