import numpy as np
import pytest
from conftest import rng_for
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galekit.codes import (
    GrsSpec,
    LinearCode,
    code_points,
    dual_code,
    grs_code,
    grs_dual_multipliers,
    min_distance,
    same_code,
)
from galekit.curves import parameter_list, rnc_embed
from galekit.errors import DimensionMismatch, ShapeMismatch, TooLarge
from galekit.exactla import GF, ExactMatrix, rows_proportional
from galekit.gale import gale_transform
from galekit.generators import random_matrix
from galekit.pointconfig import Equivalence, is_equivalent_labeled


def classical_dual_products(spec: GrsSpec) -> tuple:
    """Closed-form kernel vector for affine points: 1 / prod of differences."""
    f = spec.field
    ts = []
    for j in range(spec.n):
        a, b = spec.points.point(j)
        if a == f.zero:
            raise ValueError("closed form needs affine evaluation points")
        ts.append(f.div(b, a))
    out = []
    for j, tj in enumerate(ts):
        prod = f.one
        for l, tl in enumerate(ts):
            if l != j:
                prod = f.mul(prod, f.sub(tj, tl))
        out.append(f.inv(prod))
    return tuple(out)


def min_distance_all_messages(code: LinearCode) -> int:
    """Minimum weight over all p^k - 1 nonzero messages, each decoded from
    its index: the oracle for the projective enumeration of min_distance."""
    p, k, n = code.field.p, code.k, code.n
    total = p**k
    gen = np.array([[int(x) for x in row] for row in code.generator.entries], dtype=np.int64)
    best = n
    block = 1 << 15
    for start in range(1, total, block):
        stop = min(start + block, total)
        idx = np.arange(start, stop, dtype=np.int64)
        msgs = np.empty((stop - start, k), dtype=np.int64)
        for c in range(k):
            msgs[:, c] = (idx // p**c) % p
        words = msgs @ gen % p
        weights = np.count_nonzero(words, axis=1)
        best = min(best, int(weights.min()))
        if best == 1:
            break
    return best


def affine_spec(p, n, k, multipliers=None):
    points = parameter_list(GF(p), list(range(n)))
    return GrsSpec.new(points, multipliers or [1] * n, k)


def test_grs_dimension_one_is_multiplier_row():
    spec = affine_spec(7, 5, 1, multipliers=[1, 2, 3, 4, 5])
    code = grs_code(spec)
    assert code.generator.entries == ((1, 2, 3, 4, 5),)


def test_grs_vandermonde_generator():
    code = grs_code(affine_spec(7, 6, 2))
    assert code.generator.entries == (
        (1, 1, 1, 1, 1, 1),
        (0, 1, 2, 3, 4, 5),
    )


def test_grs_rank_always_k():
    rng = rng_for("grs-rank")
    for _ in range(10):
        n = rng.randint(3, 12)
        k = rng.randint(1, n - 1)
        mult = [rng.randrange(1, 13) for _ in range(n)]
        points = parameter_list(GF(13), list(range(n)))
        code = grs_code(GrsSpec.new(points, mult, k))
        assert code.generator.rank() == k


def test_grs_infinity_point_highest_coefficient():
    points = parameter_list(GF(7), [0, 1, 2, None])
    code = grs_code(GrsSpec.new(points, [1] * 4, 2))
    assert code.generator.column(3) == (0, 1)


def test_full_projective_line_is_allowed():
    # distinct points cap n at p + 1, which is still a valid length
    points = parameter_list(GF(3), [0, 1, 2, None])
    code = grs_code(GrsSpec.new(points, [1] * 4, 2))
    assert (code.k, code.n) == (2, 4)


def test_dual_of_repetition_code():
    code = LinearCode.new(ExactMatrix.from_rows(GF(3), [[1, 1, 1, 1]]))
    dual = dual_code(code)
    assert dual.k == 3
    assert (code.generator @ dual.generator.transpose()).is_zero()


def test_dual_involution_subspace_equal():
    rng = rng_for("dual-dual")
    for _ in range(10):
        gen = random_matrix(rng, GF(7), 3, 6)
        if gen.rank() != 3:
            continue
        code = LinearCode.new(gen)
        assert same_code(dual_code(dual_code(code)), code)
        assert dual_code(code).k + code.k == code.n


def test_dual_grs_dimension():
    dual = dual_code(grs_code(affine_spec(7, 6, 2)))
    assert (dual.k, dual.n) == (4, 6)


def test_same_code_permuted_rows():
    gen = ExactMatrix.from_rows(GF(5), [[1, 0, 2, 3], [0, 1, 1, 4]])
    swapped = ExactMatrix.from_rows(GF(5), [[0, 1, 1, 4], [1, 0, 2, 3]])
    assert same_code(LinearCode.new(gen), LinearCode.new(swapped))


def test_same_code_dimension_mismatch_is_false():
    code = grs_code(affine_spec(7, 6, 2))
    assert not same_code(code, dual_code(code))


def test_same_code_shape_mismatch():
    a = grs_code(affine_spec(7, 6, 2))
    b = grs_code(affine_spec(7, 5, 2))
    with pytest.raises(ShapeMismatch):
        same_code(a, b)


def test_same_code_two_bases_of_one_subspace():
    rng = rng_for("two-bases-code")
    gen = random_matrix(rng, GF(11), 2, 5)
    while gen.rank() != 2:
        gen = random_matrix(rng, GF(11), 2, 5)
    mixed = ExactMatrix.from_rows(
        GF(11),
        [
            [GF(11).add(a, b) for a, b in zip(gen.entries[0], gen.entries[1])],
            [GF(11).sub(a, b) for a, b in zip(gen.entries[0], gen.entries[1])],
        ],
    )
    assert same_code(LinearCode.new(gen), LinearCode.new(mixed))


def test_dual_multipliers_basic():
    spec = affine_spec(7, 6, 2)
    duals = grs_dual_multipliers(spec)
    redual = grs_code(GrsSpec.new(spec.points, duals, 4))
    assert same_code(dual_code(grs_code(spec)), redual)


def test_dual_multipliers_symmetric_points():
    points = parameter_list(GF(13), [1, -1, 2, -2])
    spec = GrsSpec.new(points, [1] * 4, 2)
    duals = grs_dual_multipliers(spec)
    assert len(duals) == 4


def test_dual_multipliers_k_n_minus_one():
    spec = affine_spec(11, 5, 4)
    duals = grs_dual_multipliers(spec)
    dual = dual_code(grs_code(spec))
    assert dual.k == 1
    assert rows_proportional(GF(11), dual.generator.entries[0], duals)


def test_dual_multipliers_match_closed_form():
    spec = affine_spec(13, 7, 3, multipliers=[1, 2, 1, 5, 1, 1, 3])
    duals = grs_dual_multipliers(spec)
    f = GF(13)
    products = tuple(f.mul(d, m) for d, m in zip(duals, spec.multipliers))
    assert rows_proportional(f, products, classical_dual_products(spec))


def test_min_distance_repetition():
    code = LinearCode.new(ExactMatrix.from_rows(GF(3), [[1, 1, 1, 1, 1]]))
    assert min_distance(code) == 5


def test_min_distance_grs_is_mds():
    code = grs_code(affine_spec(7, 6, 2))
    assert min_distance(code) == 5
    dual = dual_code(code)
    assert min_distance(dual) == 3


def test_min_distance_too_large():
    code = grs_code(affine_spec(101, 12, 7))
    with pytest.raises(TooLarge):
        min_distance(code)


@st.composite
def full_rank_codes(draw, field):
    """Generators of rank k whose columns are fresh, zero, unit vectors, or
    nonzero multiples of earlier columns, so non-MDS codes and codes of
    distance one are common."""
    p = field.p
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 9))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "unit", "repeat")))
        if kind == "zero":
            column = [0] * k
        elif kind == "unit":
            i = draw(st.integers(0, k - 1))
            column = [int(j == i) for j in range(k)]
        elif kind == "repeat" and columns:
            scale = draw(st.integers(1, p - 1))
            column = [x * scale % p for x in draw(st.sampled_from(columns))]
        else:
            column = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
        columns.append(column)
    generator = ExactMatrix.from_rows(field, [list(row) for row in zip(*columns)])
    assume(generator.rank() == k)
    return LinearCode.new(generator)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_min_distance_matches_all_messages(p, data):
    code = data.draw(full_rank_codes(GF(p)))
    assert min_distance(code) == min_distance_all_messages(code)


def test_min_distance_one_matches_all_messages():
    # the message e_0 has weight one; the search stops there
    code = LinearCode.new(ExactMatrix.from_rows(GF(5), [[1, 0, 0, 0], [0, 1, 2, 3]]))
    assert min_distance(code) == min_distance_all_messages(code) == 1


def test_dual_columns_are_gale_transform():
    # all-ones GRS: generator columns = moment vectors of the points, so
    # the dual columns must be the Gale transform of the moment embedding
    points = parameter_list(GF(13), [0, 1, 2, 3, 5, 8, 11])
    spec = GrsSpec.new(points, [1] * 7, 3)
    dual = dual_code(grs_code(spec))
    left = code_points(dual)
    right = gale_transform(rnc_embed(points, 2)).transform
    assert is_equivalent_labeled(left, right) is Equivalence.EQUIVALENT


def test_linear_code_validation():
    with pytest.raises(DimensionMismatch):
        LinearCode.new(ExactMatrix.from_rows(GF(5), [[1, 2], [2, 4]]))
