from itertools import combinations_with_replacement

import pytest
from conftest import projective_representatives, rng_for

from galekit import detnl
from galekit.errors import TooLarge
from galekit.exactla import GF
from galekit.exactla import ExactMatrix
from galekit.gale import gale_transform
from galekit.generators import random_points_on_curve
from galekit.pointconfig import Equivalence, PointConfiguration, is_equivalent_labeled
from galekit.scenarios import (
    complete_intersection_222,
    demo_eleven_p6,
    demo_seven_p3,
    eighth_point_analysis,
    project_from_point,
    quadric_net_base_locus,
    quadrics_through,
)
from galekit.selfassoc import Status, self_association_witness


def test_base_locus_matches_naive_enumeration():
    field = GF(5)
    rng = rng_for("locus-oracle")
    cfg = PointConfiguration.new(
        field, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 2, 2]]
    )
    net = quadrics_through(cfg)
    fast = set(quadric_net_base_locus(field, 3, net))
    monomials = list(combinations_with_replacement(range(4), 2))
    slow = set()
    for rep in projective_representatives(5, 3):
        values = [rep[i] * rep[j] % 5 for i, j in monomials]
        if all(
            sum(v * int(c) for v, c in zip(values, net.column(q))) % 5 == 0
            for q in range(net.cols)
        ):
            slow.add(rep)
    assert fast == slow


def test_base_locus_same_in_small_blocks(monkeypatch):
    # blocks of five rows end inside the runs of one leading coordinate
    field = GF(7)
    rng = rng_for("locus-blocks")
    nets = [
        quadrics_through(PointConfiguration.new(field, 3, [[rng.randrange(7) for _ in range(4)]
                                                            for _ in range(7)]))
        for _ in range(3)
    ]
    nets.append(ExactMatrix.identity(field, 10).submatrix([0, 4]).transpose())  # x0^2, x1^2
    whole = [quadric_net_base_locus(field, 3, net) for net in nets]
    monkeypatch.setattr(detnl, "_BLOCK_ROWS", 5)
    test_base_locus_matches_naive_enumeration()
    assert [quadric_net_base_locus(field, 3, net) for net in nets] == whole
    assert all(locus == sorted(locus) for locus in whole)


def test_projection_drops_dimension():
    field = GF(101)
    cfg = PointConfiguration.new(
        field, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1], [1, 2, 3, 4]]
    )
    projected = project_from_point(cfg, (0, 0, 0, 1))
    assert projected.r == 2 and projected.gamma == 5
    # projecting from e3 forgets the last coordinate up to scale
    for i in range(5):
        original = cfg.point(i)
        assert projected.point(i) == tuple(
            field.mul(x, field.one) for x in original[:3]
        )


def test_seven_p3_verified():
    report = demo_seven_p3(101, seed=11)
    assert report.status == "verified"
    assert report.locus_size == 8
    assert report.equivalence is Equivalence.EQUIVALENT


def test_seven_p3_degenerate_branch_on_twisted_cubic():
    rng = rng_for("degenerate-branch")
    cfg = random_points_on_curve(rng, GF(101), 3, 7)
    analysis = eighth_point_analysis(cfg)
    assert analysis.status == "degenerate"
    assert len(analysis.locus) == 102  # the whole twisted cubic is rational


def test_complete_intersection_222_is_self_associated():
    cfg = complete_intersection_222(101, seed=9)
    assert cfg.gamma == 8 and cfg.r == 3
    assert quadrics_through(cfg).cols == 3
    assert self_association_witness(cfg).status is Status.WITNESS
    eq = is_equivalent_labeled(cfg, gale_transform(cfg).transform)
    assert eq is Equivalence.EQUIVALENT


def test_eleven_p6_plane_unique():
    report = demo_eleven_p6(seed=5, pool_seeds=3)
    assert report.plane_is_unique
    assert report.plane.rows == 3 and report.plane.cols == 7


def test_base_locus_scan_refused_over_the_enumeration_limit(monkeypatch):
    # with the limit just below 101^3 the P^3(F_101) scan must be refused
    # up front, the way a large p is refused at the real limit
    monkeypatch.setattr(detnl, "ENUMERATION_LIMIT", 101**3 - 1)
    field = GF(101)
    with pytest.raises(TooLarge):
        quadric_net_base_locus(field, 3, ExactMatrix.identity(field, 10))
