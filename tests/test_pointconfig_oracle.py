"""Property tests of stability, frames and labeled equivalence against
definitions checked directly.

Stability is compared with the GIT subset bounds over every proper subset's
``span_rank``; a subset is a frame exactly when each r+1 of its r+2 points
are independent; the canonical form must not see projective maps or row
rescalings; and a configuration written to the file format reads back with
the same coordinates.  Configurations are drawn with many points on one
flat, so unstable and degenerate inputs are common.
"""

from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from galekit.errors import DuplicatePoint, ZeroPoint  # noqa: E402
from galekit.exactla import GF, QQ, ExactMatrix, normalize_row, row_is_zero  # noqa: E402
from galekit.pointconfig import (  # noqa: E402
    Equivalence,
    PointConfiguration,
    is_equivalent_labeled,
    read_configuration,
    write_configuration,
)

FIELDS = [QQ, GF(2), GF(7), GF(101)]
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def scalars(field):
    if field.kind == "rational":
        return st.integers(-4, 4).map(field.coerce)
    return st.integers(0, field.p - 1)


def nonzero_scalars(field):
    return scalars(field).filter(lambda x: x != field.zero)


def combine(field, coeffs, rows):
    out = [field.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


@st.composite
def configurations(draw, field, min_points=1):
    """Up to 8 distinct points of P^r, r = 1..3: fresh points, points on a
    random flat of dimension below r, and combinations of earlier points."""
    r = draw(st.integers(1, 3))
    vector = st.lists(scalars(field), min_size=r + 1, max_size=r + 1)
    flat = draw(st.lists(vector, min_size=1, max_size=r))
    rows, seen = [], set()
    target = draw(st.integers(min_points, 8))
    for _ in range(2 * target):
        if len(rows) == target:
            break
        kind = draw(st.sampled_from(("fresh", "flat", "flat", "combination")))
        if kind == "fresh" or (kind == "combination" and len(rows) < 2):
            row = draw(vector)
        else:
            base = flat if kind == "flat" else rows
            coeffs = draw(st.lists(scalars(field), min_size=len(base), max_size=len(base)))
            row = combine(field, coeffs, base)
        if row_is_zero(field, row) or normalize_row(field, row) in seen:
            continue
        seen.add(normalize_row(field, row))
        rows.append(row)
    assume(len(rows) >= min_points)
    return PointConfiguration.new(field, r, rows)


@st.composite
def invertible_matrices(draw, field, n):
    """A permutation of unit-lower times invertible upper-triangular."""
    entry = scalars(field)
    lower = [[field.one if i == j else draw(entry) if j < i else field.zero
              for j in range(n)] for i in range(n)]
    upper = [[draw(nonzero_scalars(field)) if i == j else draw(entry) if j > i else field.zero
              for j in range(n)] for i in range(n)]
    order = draw(st.permutations(range(n)))
    m = ExactMatrix(field, tuple(map(tuple, lower))) @ ExactMatrix(field, tuple(map(tuple, upper)))
    return m.submatrix(order)


def git_bounds_hold(cfg, strict):
    gamma, rp1 = cfg.gamma, cfg.r + 1
    for m in range(1, gamma):
        for subset in combinations(range(gamma), m):
            lhs, rhs = cfg.span_rank(subset) * gamma, m * rp1
            if not (lhs > rhs if strict else lhs >= rhs):
                return False
    return True


def is_frame(cfg, subset):
    return all(cfg.span_rank(basis) == cfg.r + 1 for basis in combinations(subset, cfg.r + 1))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_stability_matches_subset_bounds(field, data):
    cfg = data.draw(configurations(field, min_points=1))
    assert cfg.is_semistable() == git_bounds_hold(cfg, strict=False)
    assert cfg.is_stable() == git_bounds_hold(cfg, strict=True)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_frame_transformation_exactly_on_frames(field, data):
    cfg = data.draw(configurations(field, min_points=3))
    assume(cfg.gamma >= cfg.r + 2)
    subset = tuple(sorted(data.draw(
        st.lists(st.integers(0, cfg.gamma - 1), min_size=cfg.r + 2, max_size=cfg.r + 2,
                 unique=True))))
    m = cfg.frame_transformation(subset)
    assert (m is not None) == is_frame(cfg, subset)
    if m is None:
        return
    z = field.zero
    images = (cfg.coords.submatrix(subset) @ m).entries
    for i, image in enumerate(images[:-1]):
        assert image[i] != z and all(x == z for j, x in enumerate(image) if j != i)
    assert images[-1][0] != z and len(set(images[-1])) == 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_canonical_form_and_equivalence_are_projective_invariants(field, data):
    cfg = data.draw(configurations(field))
    t = data.draw(invertible_matrices(field, cfg.r + 1))
    scalars_ = data.draw(st.lists(nonzero_scalars(field), min_size=cfg.gamma, max_size=cfg.gamma))
    moved = cfg.transformed(t).rescaled(scalars_)
    canon, moved_canon = cfg.canonical_form(), moved.canonical_form()
    if canon is None:
        assert moved_canon is None
        assert is_equivalent_labeled(cfg, moved) is Equivalence.INDETERMINATE
    else:
        assert moved_canon.coords == canon.coords
        assert is_equivalent_labeled(cfg, moved) is Equivalence.EQUIVALENT
        assert is_equivalent_labeled(moved, cfg) is Equivalence.EQUIVALENT


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), GF(2**31 - 1)], ids=str)
@SETTINGS
@given(data=st.data())
def test_file_format_round_trip(field, data):
    if field.kind == "rational":
        entry = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
    else:
        entry = st.integers(0, field.p - 1)
    r = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(entry, min_size=r + 1, max_size=r + 1),
                              min_size=1, max_size=6))
    header = "\n".join(data.draw(st.lists(st.text(max_size=12), max_size=4)))
    try:
        cfg = PointConfiguration.new(field, r, rows)
    except (ZeroPoint, DuplicatePoint):
        assume(False)
    again = read_configuration(write_configuration(cfg, header=header))
    assert again.field == field
    assert again.coords == cfg.coords


def test_frame_without_common_frame_subset_is_not_equivalent():
    """a has the frame {0, 1, 3, 4}; its permuted copy b has frames too, but
    none on the same labels, and being a frame is a projective invariant."""
    a = PointConfiguration.new(QQ, 2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]])
    b = a.permuted([2, 0, 1, 3, 4])
    assert a.canonical_form() is not None and b.canonical_form() is not None
    assert is_equivalent_labeled(a, b) is Equivalence.NOT_EQUIVALENT
    assert is_equivalent_labeled(b, a) is Equivalence.NOT_EQUIVALENT


def test_frame_versus_no_frame_is_not_equivalent():
    """Four of c's five points are collinear, so c has no frame while a has."""
    a = PointConfiguration.new(QQ, 2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]])
    c = PointConfiguration.new(QQ, 2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 0]])
    assert c.canonical_form() is None
    assert is_equivalent_labeled(a, c) is Equivalence.NOT_EQUIVALENT
    assert is_equivalent_labeled(c, a) is Equivalence.NOT_EQUIVALENT
    assert is_equivalent_labeled(c, c) is Equivalence.INDETERMINATE
