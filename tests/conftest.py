import random
from itertools import product

from galekit.errors import DimensionMismatch
from galekit.exactla import ExactMatrix


def rand_matrix(rng: random.Random, field, rows: int, cols: int, lo=-9, hi=9) -> ExactMatrix:
    if field.kind == "prime":
        return ExactMatrix.from_rows(
            field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
        )
    return ExactMatrix.from_rows(
        field, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def solve(a: ExactMatrix, b: ExactMatrix):
    """Solve a @ x = b; None when inconsistent.

    Returns the particular solution with every free variable zero, read off
    the RREF of the augmented matrix: a test oracle built on ``rref``.
    """
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side has wrong row count")
    f = a.field
    res = a.hstack(b).rref()
    n = a.cols
    if any(c >= n for c in res.pivot_columns):
        return None
    red = res.reduced.entries
    x = [[f.zero] * b.cols for _ in range(n)]
    for i, pc in enumerate(res.pivot_columns):
        for j in range(b.cols):
            x[pc][j] = red[i][n + j]
    return ExactMatrix(f, tuple(tuple(row) for row in x))


def rng_for(name: str) -> random.Random:
    return random.Random(f"galekit-tests-{name}")


def projective_representatives(p: int, dim: int):
    """All points of P^dim(F_p), one representative each, ascending lex order.

    Representatives have first nonzero coordinate equal to one.  The
    pure-Python order oracle for ``galekit.detnl.projective_blocks``.
    """
    for lead in range(dim, -1, -1):
        zeros = (0,) * lead
        for tail in product(range(p), repeat=dim - lead):
            yield zeros + (1,) + tail
