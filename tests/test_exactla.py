import math
from fractions import Fraction
from itertools import permutations

import pytest
from conftest import rand_matrix, rng_for, solve

from galekit.errors import DimensionMismatch, FormatError
from galekit.exactla import GF, QQ, ExactMatrix, matrix_from_text, rows_proportional
from galekit.exactla import first_proportional_pair, normalize_row, row_is_zero


# -- independent oracles ------------------------------------------------------


def naive_rank(field, entries):
    """Plain forward elimination, no normalization: an independent rank check."""
    m = [list(row) for row in entries]
    rank = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][c] != field.zero), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, n_rows):
            if m[i][c] != field.zero:
                f = field.div(m[i][c], m[rank][c])
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def cofactor_det(entries):
    """Leibniz-style determinant by permutation expansion; fine for n <= 6."""
    n = len(entries)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= entries[i][perm[i]]
        total += term
    return total


def bareiss_det(entries):
    """Fraction-free determinant (Bareiss, Math. Comp. 1968) of a rational
    matrix: rows are cleared to integers and every division is exact.

    The library computed rational determinants this way before all of its
    determinants came from the one forward elimination; kept as an oracle.
    """
    n = len(entries)
    m: list[list[int]] = []
    scale = Fraction(1)
    for row in entries:
        mult = math.lcm(*(x.denominator for x in row))
        scale *= mult
        m.append([int(x * mult) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1]) / scale


# -- fields -------------------------------------------------------------------


def test_prime_field_validation():
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(91)  # 7 * 13
    with pytest.raises(ValueError):
        GF(2**31 + 11)
    assert GF(2).p == 2
    assert GF(101) is GF(101)


def test_scalar_coercion_and_format():
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert QQ.format(Fraction(-5, 3)) == "-5/3"
    assert QQ.format(Fraction(7)) == "7"
    f = GF(7)
    assert f.coerce(-1) == 6
    assert f.coerce("10") == 3
    assert f.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 1 mod 7
    with pytest.raises(FormatError):
        QQ.coerce("one")


def test_mixed_field_rejected():
    a = ExactMatrix.from_rows(QQ, [[1]])
    b = ExactMatrix.from_rows(GF(5), [[1]])
    with pytest.raises(DimensionMismatch):
        a @ b


# -- rref ----------------------------------------------------------------------


def test_rref_identity():
    m = ExactMatrix.identity(QQ, 2)
    res = m.rref()
    assert res.reduced == m
    assert res.pivot_columns == (0, 1)
    assert res.rank == 2


def test_rref_proportional_rows():
    m = ExactMatrix.from_rows(QQ, [[1, 1], [2, 2]])
    res = m.rref()
    assert res.rank == 1
    assert res.pivot_columns == (0,)


def test_rref_rank_matches_naive_oracle():
    rng = rng_for("rref-oracle")
    f = GF(101)
    for _ in range(25):
        m = rand_matrix(rng, f, 5, 7)
        assert m.rref().rank == naive_rank(f, m.entries)


def test_rref_idempotent():
    rng = rng_for("rref-idem")
    for field in (QQ, GF(13)):
        for _ in range(10):
            m = rand_matrix(rng, field, 4, 6)
            red = m.rref().reduced
            assert red.rref().reduced == red


# -- kernel ---------------------------------------------------------------------


def test_kernel_single_relation():
    k = ExactMatrix.from_rows(QQ, [[1, 1]]).kernel_basis()
    assert k.shape == (2, 1)
    assert rows_proportional(QQ, k.column(0), (Fraction(1), Fraction(-1)))


def test_kernel_full_rank_square():
    m = ExactMatrix.from_rows(QQ, [[2, 1], [1, 1]])
    assert m.kernel_basis().shape == (2, 0)


def test_kernel_canonical_basis():
    m = ExactMatrix.from_rows(QQ, [[1, 0, 1, 1], [0, 1, 1, 2]])
    k = m.kernel_basis()
    assert (m @ k).is_zero()
    # RREF free-variable convention pins the basis exactly
    assert k.column(0) == tuple(map(Fraction, (-1, -1, 1, 0)))
    assert k.column(1) == tuple(map(Fraction, (-1, -2, 0, 1)))


def test_kernel_rank_nullity():
    rng = rng_for("kernel")
    for field in (QQ, GF(11)):
        for _ in range(20):
            m = rand_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 6))
            k = m.kernel_basis()
            assert m.rref().rank + k.cols == m.cols
            if k.cols:
                assert (m @ k).is_zero()


# -- solve ----------------------------------------------------------------------


def test_solve_identity():
    b = ExactMatrix.from_rows(QQ, [[3], [4]])
    assert solve(ExactMatrix.identity(QQ, 2), b) == b


def test_solve_inconsistent():
    a = ExactMatrix.from_rows(QQ, [[1], [1]])
    b = ExactMatrix.from_rows(QQ, [[0], [1]])
    assert solve(a, b) is None


def test_solve_random_consistent():
    rng = rng_for("solve")
    f = GF(7)
    for _ in range(20):
        a = rand_matrix(rng, f, 4, 5)
        x0 = rand_matrix(rng, f, 5, 1)
        b = a @ x0
        x = solve(a, b)
        assert x is not None
        assert (a @ x - b).is_zero()


def test_solve_shape_check():
    a = ExactMatrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        solve(a, ExactMatrix.from_rows(QQ, [[1], [2]]))


# -- determinant ------------------------------------------------------------------


def test_det_identity_and_swap():
    assert ExactMatrix.identity(QQ, 3).det() == 1
    assert ExactMatrix.from_rows(QQ, [[0, 1], [1, 0]]).det() == -1


def test_det_nonsquare_rejected():
    with pytest.raises(DimensionMismatch):
        ExactMatrix.from_rows(QQ, [[1, 2]]).det()


def test_det_matches_cofactor_oracle():
    rng = rng_for("det-oracle")
    for _ in range(10):
        m = rand_matrix(rng, QQ, 6, 6)
        assert m.det() == cofactor_det(m.entries)


def test_det_matches_bareiss_oracle():
    rng = rng_for("det-bareiss")
    for n in range(1, 12):
        for _ in range(4):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(n)]
            if rng.random() < 0.3:
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[n // 2])]
            det = ExactMatrix.from_rows(QQ, rows).det()
            assert det == bareiss_det(rows) and type(det) is Fraction


def test_det_rational_entries():
    m = ExactMatrix.from_rows(QQ, [["1/2", "1/3"], ["1/4", "1/5"]])
    assert m.det() == Fraction(1, 2) * Fraction(1, 5) - Fraction(1, 3) * Fraction(1, 4)


def test_det_multiplicative():
    rng = rng_for("det-mult")
    for field in (QQ, GF(13)):
        for _ in range(10):
            a = rand_matrix(rng, field, 4, 4)
            b = rand_matrix(rng, field, 4, 4)
            assert (a @ b).det() == field.mul(a.det(), b.det())


def test_det_mod_p_singular():
    m = ExactMatrix.from_rows(GF(5), [[1, 2], [3, 6]])
    assert m.det() == 0


# -- inverse -----------------------------------------------------------------------


def test_inverse_roundtrip():
    rng = rng_for("inverse")
    for field in (QQ, GF(11)):
        while True:
            m = rand_matrix(rng, field, 4, 4)
            if m.det() != field.zero:
                break
        inv = m.inverse()
        assert m @ inv == ExactMatrix.identity(field, 4)
        assert inv @ m == ExactMatrix.identity(field, 4)


def test_inverse_singular_is_none():
    m = ExactMatrix.from_rows(QQ, [[1, 0, 0], [1, 1, 0], [1, 2, 0]])
    assert m.inverse() is None
    assert ExactMatrix.from_rows(GF(7), [[1, 1], [2, 2]]).inverse() is None


# -- determinism and text format ----------------------------------------------------


def test_operations_deterministic():
    rng = rng_for("determinism")
    m = rand_matrix(rng, QQ, 5, 7)
    assert m.rref() == m.rref()
    assert m.kernel_basis() == m.kernel_basis()


def test_matrix_text_roundtrip():
    m = ExactMatrix.from_rows(QQ, [["1/2", 3], [-4, "5/6"]])
    again = matrix_from_text(QQ, m.to_text())
    assert again == m


def dot(field, u, v):
    """Inner product of two coordinate tuples."""
    if len(u) != len(v):
        raise DimensionMismatch("dot product of unequal lengths")
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def test_dot_and_proportionality():
    assert dot(QQ, (1, 2), (3, 4)) == 11
    assert rows_proportional(GF(7), (1, 2, 3), (2, 4, 6))
    assert not rows_proportional(GF(7), (1, 2, 3), (2, 4, 5))
    assert not rows_proportional(QQ, (0, 0), (1, 1))


# -- projective normalization ----------------------------------------------------


def cross_multiplication_proportional(field, u, v):
    """The pairwise rule rows_proportional used before it normalized rows:
    kept as an independent oracle."""
    if row_is_zero(field, u) or row_is_zero(field, v):
        return False
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if field.mul(u[i], v[j]) != field.mul(u[j], v[i]):
                return False
    return True


def random_row(rng, field, n):
    """Small entries, two in seven of them zero, so that zero rows and
    leading zeros are common."""
    return tuple(field.coerce(rng.choice((0, 0, 1, -1, 2, -3, 5))) for _ in range(n))


def random_row_pair(rng, field, n):
    """Independent rows, proportional rows, or proportional rows with one
    entry changed."""
    u = random_row(rng, field, n)
    kind = rng.randrange(3)
    if kind == 0:
        return u, random_row(rng, field, n)
    c = field.coerce(rng.choice((1, -1, 2, Fraction(-3, 7), 11)))
    v = [field.mul(c, x) for x in u]
    if kind == 2:
        v[rng.randrange(n)] = field.coerce(rng.choice((0, 1, 4)))
    return u, tuple(v)


def test_normalize_row_scales_leading_entry_to_one():
    assert normalize_row(QQ, (0, Fraction(2), Fraction(-4))) == (0, 1, -2)
    assert normalize_row(GF(7), (0, 3, 1)) == (0, 1, 5)
    with pytest.raises(ValueError):
        normalize_row(GF(7), (0, 0))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_rows_proportional_matches_cross_multiplication(field):
    rng = rng_for(f"proportional-{field}")
    seen = set()
    for _ in range(3000):
        u, v = random_row_pair(rng, field, rng.randint(1, 4))
        expected = cross_multiplication_proportional(field, u, v)
        assert rows_proportional(field, u, v) == expected, (u, v)
        seen.add((expected, row_is_zero(field, u) or row_is_zero(field, v), u[0] == field.zero))
    # both verdicts, zero rows, and leading zeros were all exercised
    assert {(True, False, True), (True, False, False), (False, True, True)} <= seen
    assert {(False, False, True), (False, False, False)} <= seen


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_first_proportional_pair_matches_pairwise_scan(field):
    rng = rng_for(f"first-pair-{field}")
    found = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(0, 7)):
            if rows and rng.random() < 0.4:
                c = field.coerce(rng.choice((1, -2, 3)))
                rows.append(tuple(field.mul(c, x) for x in rng.choice(rows)))
            else:
                rows.append(random_row(rng, field, n))
        expected = next(
            ((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
             if cross_multiplication_proportional(field, rows[i], rows[j])),
            None,
        )
        assert first_proportional_pair(field, rows) == expected, rows
        found += expected is not None
    assert 0 < found < 400
