from itertools import combinations

import pytest
from conftest import rng_for

from galekit.errors import Degenerate, GaleDegenerate, GaleNonReduced, TooLarge, WrongDegree
from galekit.exactla import GF, QQ, rows_proportional
from galekit.gale import (
    duality_defects,
    gale_is_basepoint_free,
    gale_is_very_ample,
    gale_transform,
)
from galekit.generators import (
    collinear_plus_free,
    random_configuration,
    random_gale_friendly_configuration,
    random_invertible_matrix,
    random_scalar,
)
from galekit.pointconfig import Equivalence, PointConfiguration, is_equivalent_labeled


def test_transform_four_points_on_line():
    cfg = PointConfiguration.new(QQ, 1, [[1, 0], [0, 1], [1, 1], [1, 2]])
    res = gale_transform(cfg)
    assert res.transform.r == 1
    assert (cfg.coords.transpose() @ res.transform.coords).is_zero()
    expected = PointConfiguration.new(QQ, 1, [[1, 1], [1, 2], [1, 0], [0, 1]])
    assert is_equivalent_labeled(res.transform, expected) is Equivalence.EQUIVALENT


def test_transform_needs_enough_points():
    frame = PointConfiguration.new(QQ, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    with pytest.raises(WrongDegree):
        gale_transform(frame)  # gamma = r+2 would land in P^0


def test_transform_needs_spanning_source():
    cfg = PointConfiguration.new(QQ, 2, [[1, t, 0] for t in range(5)])
    with pytest.raises(Degenerate):
        gale_transform(cfg)


def test_transform_gale_degenerate_five_collinear():
    cfg = collinear_plus_free(QQ, 5, [[0, 0, 1]])
    with pytest.raises(GaleDegenerate) as e:
        gale_transform(cfg)
    assert e.value.index == 5  # the point off the hyperplane through the other five


def test_transform_gale_nonreduced_four_collinear():
    cfg = collinear_plus_free(QQ, 4, [[0, 0, 1], [1, 1, 1]])
    with pytest.raises(GaleNonReduced) as e:
        gale_transform(cfg)
    assert (e.value.i, e.value.j) == (4, 5)


def test_transform_gale_nonreduced_reports_first_pair():
    # the line y = 0 holds every point but 0 and 3, the line x = 0 every
    # point but 1 and 2, so kernel rows 0, 3 and rows 1, 2 are proportional;
    # a scan that stops at its first collision would report (1, 2)
    cfg = PointConfiguration.new(QQ, 2, [[0, 3, 1], [2, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(GaleNonReduced) as e:
        gale_transform(cfg)
    assert (e.value.i, e.value.j) == (0, 3)


def test_basepoint_free_and_very_ample():
    rng = rng_for("bpf")
    lgp = random_gale_friendly_configuration(rng, QQ, 2, 6)
    assert gale_is_basepoint_free(lgp)
    assert gale_is_very_ample(lgp)
    five_collinear = collinear_plus_free(QQ, 5, [[0, 0, 1]])
    assert not gale_is_basepoint_free(five_collinear)
    four_collinear = collinear_plus_free(QQ, 4, [[0, 0, 1], [1, 1, 1]])
    assert gale_is_basepoint_free(four_collinear)
    assert not gale_is_very_ample(four_collinear)


def test_duality_defects_trivial_subsets():
    rng = rng_for("defects-trivial")
    cfg = random_gale_friendly_configuration(rng, GF(101), 2, 6)
    assert duality_defects(cfg, range(6)) == (0, 0)
    assert duality_defects(cfg, (0, 1, 2)) == (0, 0)


def test_duality_defects_four_collinear():
    cfg = collinear_plus_free(QQ, 4, [[0, 0, 1], [1, 1, 1]])
    assert duality_defects(cfg, (0, 1, 2, 3)) == (1, 1)


def test_duality_defects_equal_on_all_subsets():
    rng = rng_for("defects-all")
    for field, gamma, r in ((QQ, 7, 2), (GF(101), 8, 3), (GF(13), 6, 1)):
        cfg = random_gale_friendly_configuration(rng, field, r, gamma)
        for size in range(gamma + 1):
            for s in combinations(range(gamma), size):
                span_failure, condition_failure = duality_defects(cfg, s)
                assert span_failure == condition_failure


def test_duality_defects_degenerate_configuration():
    cfg = PointConfiguration.new(QQ, 2, [[1, t, 0] for t in range(5)])
    with pytest.raises(Degenerate):
        duality_defects(cfg, (0, 1))


def test_duality_defects_refuses_large_configuration():
    cfg = random_configuration(rng_for("defects-too-large"), GF(101), 2, 21)
    with pytest.raises(TooLarge):
        duality_defects(cfg, (0, 1))
    # refused before either rank table or the kernel is built
    assert not {"rank_table", "gale_kernel"} & set(vars(cfg))


def test_duality_defects_checks_indices_before_size():
    cfg = random_configuration(rng_for("defects-too-large"), GF(101), 2, 21)
    with pytest.raises(IndexError):
        duality_defects(cfg, (0, 21))


def test_involution():
    rng = rng_for("involution")
    for field, r, gamma in ((QQ, 2, 7), (GF(101), 3, 8), (QQ, 1, 5)):
        cfg = random_gale_friendly_configuration(rng, field, r, gamma)
        back = gale_transform(gale_transform(cfg).transform).transform
        assert is_equivalent_labeled(back, cfg) is Equivalence.EQUIVALENT


def test_permutation_equivariance():
    rng = rng_for("equivariance")
    cfg = random_gale_friendly_configuration(rng, GF(101), 2, 7)
    order = list(range(7))
    rng.shuffle(order)
    left = gale_transform(cfg.permuted(order)).transform
    right = gale_transform(cfg).transform.permuted(order)
    assert is_equivalent_labeled(left, right) is Equivalence.EQUIVALENT


def test_row_scaling_invariance():
    rng = rng_for("row-scaling")
    cfg = random_gale_friendly_configuration(rng, QQ, 2, 6)
    scalars = []
    while len(scalars) < 6:
        c = random_scalar(rng, QQ)
        if c != 0:
            scalars.append(c)
    left = gale_transform(cfg.rescaled(scalars)).transform
    right = gale_transform(cfg).transform
    assert is_equivalent_labeled(left, right) is Equivalence.EQUIVALENT


def test_transform_coordinates_dont_matter():
    rng = rng_for("coords-free")
    cfg = random_gale_friendly_configuration(rng, GF(13), 2, 6)
    t = random_invertible_matrix(rng, GF(13), 3)
    left = gale_transform(cfg.transformed(t)).transform
    right = gale_transform(cfg).transform
    assert is_equivalent_labeled(left, right) is Equivalence.EQUIVALENT


def test_rank_identity_form():
    # rank(G rows s) + rank(G' rows complement) == |complement| + (r+1) - 2 * failure
    rng = rng_for("rank-form")
    cfg = random_gale_friendly_configuration(rng, GF(11), 2, 7)
    transform = gale_transform(cfg).transform
    for size in range(8):
        for s in combinations(range(7), size):
            comp = tuple(i for i in range(7) if i not in s)
            failure, _ = duality_defects(cfg, s)
            lhs = cfg.span_rank(s) + transform.span_rank(comp)
            assert lhs == len(comp) + 3 - 2 * failure


def test_kernel_rows_nonproportional_in_valid_transform():
    rng = rng_for("valid-rows")
    cfg = random_gale_friendly_configuration(rng, QQ, 2, 7)
    k = gale_transform(cfg).transform.coords
    for i in range(7):
        for j in range(i + 1, 7):
            assert not rows_proportional(QQ, k.entries[i], k.entries[j])
