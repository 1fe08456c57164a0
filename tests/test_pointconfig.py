from fractions import Fraction
from itertools import combinations

import pytest
from conftest import rng_for

from galekit.errors import (
    TooLarge as ConfigurationTooLarge,
    DimensionMismatch,
    DuplicatePoint,
    WrongDegree,
    ZeroPoint,
)
from galekit.exactla import GF, QQ
from galekit.generators import (
    collinear_plus_free,
    grid_complete_intersection,
    random_configuration,
    random_conic_sextuple,
    random_generic_sextuple,
    random_invertible_matrix,
    random_scalar,
)
from galekit.pointconfig import (
    Equivalence,
    PointConfiguration,
    is_equivalent_labeled,
    read_configuration,
    write_configuration,
)


def simplex(field, r):
    rows = [[1 if j == i else 0 for j in range(r + 1)] for i in range(r + 1)]
    return PointConfiguration.new(field, r, rows)


def frame_config(field, r):
    rows = [[1 if j == i else 0 for j in range(r + 1)] for i in range(r + 1)]
    rows.append([1] * (r + 1))
    return PointConfiguration.new(field, r, rows)


# -- construction ---------------------------------------------------------------


def test_new_configuration_simplex():
    cfg = PointConfiguration.new(QQ, 1, [[1, 0], [0, 1]])
    assert cfg.gamma == 2 and cfg.r == 1


def test_new_configuration_rejects_proportional():
    with pytest.raises(DuplicatePoint) as e:
        PointConfiguration.new(QQ, 1, [[1, 2], [2, 4]])
    assert (e.value.i, e.value.j) == (0, 1)


def test_new_configuration_reports_first_proportional_pair():
    # rows a, b, 2b, 3a: a scan that stops at its first collision would
    # report (1, 2); the lexicographically first pair is (0, 3)
    with pytest.raises(DuplicatePoint) as e:
        PointConfiguration.new(QQ, 1, [[1, 2], [1, 5], [2, 10], [3, 6]])
    assert (e.value.i, e.value.j) == (0, 3)


def test_new_configuration_rejects_zero():
    with pytest.raises(ZeroPoint):
        PointConfiguration.new(QQ, 2, [[0, 0, 0]])


def test_new_configuration_rejects_bad_width():
    with pytest.raises(DimensionMismatch):
        PointConfiguration.new(QQ, 2, [[1, 0]])


# -- span rank -------------------------------------------------------------------


def test_span_rank_empty():
    assert simplex(QQ, 2).span_rank(()) == 0


def test_span_rank_simplex():
    assert simplex(QQ, 2).span_rank((0, 1, 2)) == 3


def test_span_rank_collinear():
    cfg = PointConfiguration.new(QQ, 2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert cfg.span_rank((0, 1, 2)) == 2


def test_span_rank_monotone_and_bounded():
    rng = rng_for("span-monotone")
    cfg = random_configuration(rng, GF(11), 3, 7)
    for s in combinations(range(7), 3):
        for t in combinations(range(7), 5):
            if set(s) <= set(t):
                assert cfg.span_rank(s) <= cfg.span_rank(t)
    for s in combinations(range(7), 5):
        assert cfg.span_rank(s) <= min(5, 4)


# -- linearly general position -----------------------------------------------------


def test_lgp_frame():
    assert frame_config(QQ, 3).is_linearly_general_position()


def test_lgp_fails_with_collinear_triple():
    cfg = PointConfiguration.new(QQ, 2, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert not cfg.is_linearly_general_position()


def test_lgp_conic_points_all_triples():
    cfg = PointConfiguration.new(QQ, 2, [[1, t, t * t] for t in (0, 1, 2, 3, 5, 8)])
    assert cfg.is_linearly_general_position()
    # oracle: Vandermonde-style determinant over every triple
    for s in combinations(range(6), 3):
        assert cfg.coords.submatrix(s).det() != 0


# -- Veronese --------------------------------------------------------------------


def test_veronese_degree_one_is_identity():
    rng = rng_for("veronese-id")
    cfg = random_configuration(rng, QQ, 2, 5)
    assert cfg.veronese(1).coords == cfg.coords


def test_veronese_moment_curve():
    cfg = PointConfiguration.new(QQ, 1, [[1, 5]])
    v = cfg.veronese(2)
    assert v.point(0) == (Fraction(1), Fraction(5), Fraction(25))


def test_veronese_conic_rank_five():
    cfg = PointConfiguration.new(QQ, 2, [[1, t, t * t] for t in range(6)])
    v = cfg.veronese(2)
    assert v.gamma == 6 and v.r == 5
    assert v.coords.rank() == 5


# -- conditions imposed -------------------------------------------------------------


def test_conditions_independent_points_degree_one():
    assert simplex(QQ, 3).conditions_imposed(1) == 4


def test_conditions_conic_sextuple():
    cfg = PointConfiguration.new(QQ, 2, [[1, t, t * t] for t in range(6)])
    assert cfg.conditions_imposed(2) == 5
    assert cfg.quadric_defect() == 1


def test_conditions_generic_sextuple():
    cfg = random_generic_sextuple(rng_for("generic6"), QQ)
    assert cfg.conditions_imposed(2) == 6
    assert cfg.quadric_defect() == 0


def test_conditions_monotone_and_saturating():
    rng = rng_for("conditions")
    cfg = random_configuration(rng, GF(13), 2, 6)
    values = [cfg.conditions_imposed(d) for d in range(1, 7)]
    assert values == sorted(values)
    assert values[-1] == cfg.gamma  # d = gamma - 1 always saturates
    assert cfg.conditions_imposed(cfg.gamma - 1) == cfg.gamma


# -- forms vanishing ------------------------------------------------------------------


def test_forms_vanishing_degree_zero():
    cfg = simplex(QQ, 2)
    assert cfg.forms_vanishing((), 0) == 1
    assert cfg.forms_vanishing((0,), 0) == 0


def test_forms_vanishing_chasles_grid():
    grid = grid_complete_intersection(QQ)
    full = grid.forms_vanishing(range(9), 3)
    assert full == 2  # the pencil spanned by the two defining cubics
    for drop in range(9):
        sub = tuple(i for i in range(9) if i != drop)
        assert grid.forms_vanishing(sub, 3) == full


def test_cayley_bacharach_identity_on_grid():
    # complete intersection of two cubics: top socle degree 3; degrees
    # 1 <= d <= 3 keep the complementary evaluation surjective
    grid = grid_complete_intersection(QQ)
    a = 3
    for size in range(10):
        for subset in combinations(range(9), size):
            complement = tuple(i for i in range(9) if i not in subset)
            for d in range(1, a + 1):
                conditions = (
                    grid.veronese(d).coords.submatrix(subset).rank() if subset else 0
                )
                failure = len(subset) - conditions
                assert failure == grid.forms_vanishing(complement, a - d)


# -- stability ----------------------------------------------------------------------


def test_four_distinct_points_on_line_stable():
    cfg = PointConfiguration.new(QQ, 1, [[1, 0], [0, 1], [1, 1], [1, 2]])
    assert cfg.is_stable()
    assert cfg.is_semistable()


def test_single_point_is_stable():
    # one point has no proper nonempty subset, so every subset bound holds
    cfg = PointConfiguration.new(QQ, 1, [[0, 1]])
    assert cfg.is_semistable()
    assert cfg.is_stable()


def test_semistable_not_stable_four_collinear():
    cfg = collinear_plus_free(QQ, 4, [[0, 0, 1], [1, 1, 1]])
    # m = 4 collinear points: span dim 1 == 4*3/6 - 1 exactly
    assert cfg.is_semistable()
    assert not cfg.is_stable()


def test_not_semistable_five_collinear():
    cfg = collinear_plus_free(QQ, 5, [[0, 0, 1]])
    assert not cfg.is_semistable()


def test_stability_rejects_large_scan():
    rng = rng_for("too-large")
    cfg = random_configuration(rng, GF(101), 2, 21)
    with pytest.raises(ConfigurationTooLarge):
        cfg.is_semistable()


def test_degenerate_config_not_semistable():
    # all points on a line inside P^2: spans fail globally
    cfg = PointConfiguration.new(QQ, 2, [[1, t, 0] for t in range(4)])
    assert not cfg.is_semistable()


# -- two bases -------------------------------------------------------------------------


def test_partition_four_points_line():
    cfg = PointConfiguration.new(QQ, 1, [[1, 0], [0, 1], [1, 1], [1, 2]])
    assert cfg.partition_into_two_bases() == ((0, 1), (2, 3))


def test_partition_absent_five_collinear():
    cfg = collinear_plus_free(QQ, 5, [[0, 0, 1]])
    assert cfg.partition_into_two_bases() is None


def test_partition_natural_split():
    rng = rng_for("nat-split")
    t = random_invertible_matrix(rng, QQ, 3)
    rows = [list(r) for r in simplex(QQ, 2).coords.entries]
    rows += [list(r) for r in simplex(QQ, 2).transformed(t).coords.entries]
    cfg = PointConfiguration.new(QQ, 2, rows)
    assert cfg.partition_into_two_bases() == ((0, 1, 2), (3, 4, 5))


def test_partition_wrong_degree():
    with pytest.raises(WrongDegree):
        simplex(QQ, 2).partition_into_two_bases()


def test_partition_iff_semistable_random_and_crafted():
    rng = rng_for("edmonds")
    cases = []
    for _ in range(40):
        r = rng.choice((1, 2, 3))
        cases.append(random_configuration(rng, GF(11), r, 2 * r + 2, nondegenerate=False))
    cases.append(collinear_plus_free(QQ, 4, [[0, 0, 1], [1, 1, 1]]))
    cases.append(collinear_plus_free(QQ, 5, [[0, 0, 1]]))
    for cfg in cases:
        has_split = cfg.partition_into_two_bases() is not None
        assert has_split == cfg.is_semistable()


# -- canonical form / equivalence ------------------------------------------------------


def test_canonical_form_fixes_standard_frame():
    cfg = frame_config(QQ, 2)
    assert cfg.canonical_form().coords == cfg.coords


def test_canonical_form_idempotent():
    rng = rng_for("canon-idem")
    for field in (QQ, GF(101)):
        cfg = random_configuration(rng, field, 2, 6)
        canon = cfg.canonical_form()
        assert canon is not None
        assert canon.canonical_form().coords == canon.coords


def test_equivalence_under_group_action():
    rng = rng_for("orbit")
    for field in (QQ, GF(101)):
        cfg = random_configuration(rng, field, 3, 7)
        t = random_invertible_matrix(rng, field, 4)
        scalars = []
        while len(scalars) < 7:
            c = random_scalar(rng, field)
            if c != field.zero:
                scalars.append(c)
        other = cfg.transformed(t).rescaled(scalars)
        assert is_equivalent_labeled(cfg, other) is Equivalence.EQUIVALENT
        assert cfg.canonical_form().coords == other.canonical_form().coords


def test_equivalence_distinguishes_conic_from_generic():
    rng = rng_for("conic-vs-generic")
    conic = random_conic_sextuple(rng, QQ)
    generic = random_generic_sextuple(rng, QQ)
    assert is_equivalent_labeled(conic, generic) is Equivalence.NOT_EQUIVALENT


def test_equivalence_detects_relabeling():
    # five points on a line carry a cross-ratio, so this relabeling
    # cannot be undone by a projective transformation
    cfg = PointConfiguration.new(QQ, 1, [[1, t] for t in range(5)])
    swapped = cfg.permuted([1, 0, 2, 3, 4])
    assert is_equivalent_labeled(cfg, swapped) is Equivalence.NOT_EQUIVALENT


# -- direct sum ---------------------------------------------------------------------------


def test_direct_sum_simplices():
    total = simplex(QQ, 1).direct_sum(simplex(QQ, 1))
    assert total.coords == simplex(QQ, 3).coords


def test_direct_sum_dimensions():
    a = PointConfiguration.new(QQ, 1, [[1, 0], [0, 1], [1, 1]])
    b = simplex(QQ, 2)
    assert a.direct_sum(b).r == 4
    assert a.direct_sum(b).gamma == 6


def test_direct_sum_conic_sextuples():
    rng = rng_for("sum-conics")
    a = random_conic_sextuple(rng, QQ)
    b = random_conic_sextuple(rng, QQ)
    total = a.direct_sum(b)
    assert total.gamma == 12 and total.r == 5


# -- file format ---------------------------------------------------------------------------


def test_configuration_file_roundtrip():
    cfg = PointConfiguration.new(QQ, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, "1/3", -1]])
    text = write_configuration(cfg, header="demo")
    again = read_configuration(text)
    assert again.coords == cfg.coords


def test_configuration_file_prime_field():
    text = """
    # a comment
    field prime 101
    dim 2
    points 3
    1 0 0
    0 1 0   # inline comment
    0 0 1
    """
    cfg = read_configuration(text)
    assert cfg.field == GF(101)
    assert cfg.gamma == 3
