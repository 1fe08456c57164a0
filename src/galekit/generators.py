"""Seeded random generators for the configurations the tests, demos, and
CLI scenarios run on.  Every generator takes an explicit `random.Random`
so runs are reproducible."""

from __future__ import annotations

import random
from typing import Sequence

from .curves import parameter_list, rnc_embed
from .errors import DuplicatePoint, GaleKitError, RetryBudgetExceeded, TooManyPoints, ZeroPoint
from .exactla import ExactMatrix, Field
from .gale import gale_transform
from .pointconfig import PointConfiguration

DEFAULT_TRIES = 1000


def random_scalar(rng: random.Random, field: Field, lo: int = -9, hi: int = 9):
    if field.kind == "prime":
        return rng.randrange(field.p)
    return field.coerce(rng.randint(lo, hi))


def random_matrix(rng: random.Random, field: Field, rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        field, [[random_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible_matrix(rng: random.Random, field: Field, n: int) -> ExactMatrix:
    for _ in range(DEFAULT_TRIES):
        m = random_matrix(rng, field, n, n)
        if m.det() != field.zero:
            return m
    raise RetryBudgetExceeded("no invertible matrix found")


def random_configuration(
    rng: random.Random,
    field: Field,
    r: int,
    gamma: int,
    nondegenerate: bool = True,
) -> PointConfiguration:
    for _ in range(DEFAULT_TRIES):
        rows = [[random_scalar(rng, field) for _ in range(r + 1)] for _ in range(gamma)]
        try:
            cfg = PointConfiguration.new(field, r, rows)
        except (ZeroPoint, DuplicatePoint):
            continue
        if nondegenerate and not cfg.is_nondegenerate():
            continue
        return cfg
    raise RetryBudgetExceeded("no valid configuration found")


def random_lgp_configuration(
    rng: random.Random, field: Field, r: int, gamma: int
) -> PointConfiguration:
    for _ in range(DEFAULT_TRIES):
        cfg = random_configuration(rng, field, r, gamma)
        if cfg.is_linearly_general_position():
            return cfg
    raise RetryBudgetExceeded("no LGP configuration found")


def random_gale_friendly_configuration(
    rng: random.Random, field: Field, r: int, gamma: int
) -> PointConfiguration:
    """A nondegenerate configuration whose Gale transform is defined."""
    for _ in range(DEFAULT_TRIES):
        cfg = random_configuration(rng, field, r, gamma)
        try:
            gale_transform(cfg)
        except GaleKitError:
            continue
        return cfg
    raise RetryBudgetExceeded("no transformable configuration found")


def random_parameters(
    rng: random.Random,
    field: Field,
    count: int,
    allow_infinity: bool = False,
    spread: int = 30,
) -> PointConfiguration:
    """Distinct points of P^1, as affine values plus an optional infinity.

    Raises :class:`TooManyPoints` before any draw when fewer than `count`
    values exist: the p residues over GF(p), the integers in [-spread,
    spread] over QQ, plus infinity when it was chosen.
    """
    values: list = []
    seen = set()
    want_infinity = allow_infinity and rng.random() < 0.3
    if want_infinity:
        values.append(None)
    available = len(values) + (field.p if field.kind == "prime" else 2 * spread + 1)
    if count > available:
        raise TooManyPoints(f"{count} distinct parameters requested, {available} available")
    while len(values) < count:
        if field.kind == "prime":
            t = rng.randrange(field.p)
        else:
            t = rng.randint(-spread, spread)
        t = field.coerce(t)
        if t not in seen:
            seen.add(t)
            values.append(t)
    return parameter_list(field, values)


def random_points_on_curve(
    rng: random.Random, field: Field, degree: int, count: int
) -> PointConfiguration:
    """Random distinct points on a random rational normal curve of the degree."""
    params = random_parameters(rng, field, count)
    curve = rnc_embed(params, degree)
    t = random_invertible_matrix(rng, field, degree + 1)
    return curve.transformed(t)


def random_conic_sextuple(rng: random.Random, field: Field) -> PointConfiguration:
    """Six distinct points on a random smooth conic in P^2."""
    return random_points_on_curve(rng, field, 2, 6)


def random_generic_sextuple(rng: random.Random, field: Field) -> PointConfiguration:
    """Six points in P^2 in LGP imposing independent conditions on quadrics."""
    for _ in range(DEFAULT_TRIES):
        cfg = random_configuration(rng, field, 2, 6)
        if cfg.is_linearly_general_position() and cfg.quadric_defect() == 0:
            return cfg
    raise RetryBudgetExceeded("no generic sextuple found")


def pascal_sextuple(field: Field) -> PointConfiguration:
    """The conic sextuple (1, t, t^2) for t = 0..4 plus (0, 0, 1)."""
    rows = [[1, t, t * t] for t in range(5)] + [[0, 0, 1]]
    return PointConfiguration.new(field, 2, rows)


def two_orthogonal_bases_sextuple(field: Field) -> PointConfiguration:
    """The standard basis of P^2 plus an orthogonal triple for the identity form."""
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 2], [2, 1, -2], [2, -2, 1]]
    return PointConfiguration.new(field, 2, rows)


def grid_complete_intersection(field: Field, size: int = 3) -> PointConfiguration:
    """The size x size affine grid in P^2: a complete intersection of two
    degree-`size` curves (products of lines)."""
    rows = [[1, x, y] for x in range(size) for y in range(size)]
    return PointConfiguration.new(field, 2, rows)


def collinear_plus_free(
    field: Field, on_line: int, off_line: Sequence[Sequence[int]]
) -> PointConfiguration:
    """`on_line` points on the line z = 0 plus explicit extra points."""
    rows = [[1, t, 0] for t in range(on_line)]
    rows.extend(off_line)
    return PointConfiguration.new(field, 2, rows)
