"""Differential tests of the exact elimination against sympy's DomainMatrix.

sympy is an independent implementation of exact dense linear algebra over
QQ and GF(p); it is used here as an oracle only.  Inputs are drawn with
zero rows, repeated rows and combinations of earlier rows, so rank-deficient
shapes are common, and every output must match the oracle exactly: the
same values, as ``Fraction`` over QQ and as residues in [0, p) over GF(p).
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from conftest import solve  # noqa: E402

from galekit.exactla import GF, QQ, ExactMatrix  # noqa: E402

FIELDS = [QQ, GF(2), GF(101), GF(2**31 - 1)]
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def scalars(field):
    if field.kind == "rational":
        fresh = st.fractions(min_value=-12, max_value=12, max_denominator=9)
    else:
        fresh = st.integers(0, field.p - 1)
    return st.one_of(st.just(0), st.just(1), fresh)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """Fresh rows, zero rows, copies and combinations of earlier rows."""
    n = draw(st.integers(0, 8)) if rows is None else rows
    m = draw(st.integers(0, 9)) if cols is None else cols
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "combination")))
        if kind == "zero":
            out.append([0] * m)
        elif kind == "fresh" or not out:
            out.append([draw(scalars(field)) for _ in range(m)])
        elif kind == "repeat":
            out.append(list(draw(st.sampled_from(out))))
        else:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            ca, cb = draw(scalars(field)), draw(scalars(field))
            out.append([field.add(field.mul(field.coerce(ca), field.coerce(x)),
                                  field.mul(field.coerce(cb), field.coerce(y)))
                        for x, y in zip(a, b)])
    return ExactMatrix.from_rows(field, out)


def domain_of(field):
    return sympy.QQ if field.kind == "rational" else sympy.GF(field.p)


def to_domain(m: ExactMatrix) -> DomainMatrix:
    K = domain_of(m.field)
    if m.field.kind == "rational":
        rows = [[K(x.numerator, x.denominator) for x in row] for row in m.entries]
    else:
        rows = [[K(x) for x in row] for row in m.entries]
    return DomainMatrix(rows, m.shape, K)


def lift(field, x):
    if field.kind == "rational":
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % field.p


def lift_rows(field, dm: DomainMatrix) -> tuple:
    return tuple(tuple(lift(field, x) for x in row) for row in dm.to_list())


def assert_canonical(field, values):
    """Scalars of the field's own type: Fraction, or int residues in [0, p)."""
    if field.kind == "rational":
        assert all(type(x) is Fraction for x in values)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in values)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_rref_rank_kernel_match_sympy(field, data):
    m = data.draw(matrices(field))
    dm = to_domain(m)
    reduced, pivots = dm.rref()
    res = m.rref()
    assert res.reduced.entries == lift_rows(field, reduced)
    assert_canonical(field, [x for row in res.reduced.entries for x in row])
    assert res.pivot_columns == tuple(pivots)
    assert m.rank() == res.rank == dm.rank()
    # sympy's basis vector for the j-th free column is nonzero there and zero
    # at the other free columns, but its scale is not fixed: pin that entry to 1
    free = [c for c in range(m.cols) if c not in pivots]
    basis = lift_rows(field, dm.nullspace())
    expected = tuple(tuple(field.div(x, v[c]) for x in v) for v, c in zip(basis, free))
    k = m.kernel_basis()
    columns = tuple(k.column(j) for j in range(k.cols))
    assert columns == expected
    assert_canonical(field, [x for col in columns for x in col])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_det_and_inverse_match_sympy(field, data):
    n = data.draw(st.integers(0, 8))
    m = data.draw(matrices(field, rows=n, cols=n))
    dm = to_domain(m)
    det = m.det()
    assert det == lift(field, dm.det())
    assert_canonical(field, [det])
    inverse = m.inverse()
    if n and dm.rank() < n:
        assert inverse is None
    else:
        expected = lift_rows(field, dm.inv()) if n else ()
        assert inverse.entries == expected
        assert_canonical(field, [x for row in inverse.entries for x in row])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_solve_matches_sympy(field, data):
    """The particular solution with every free variable zero, read off the
    oracle's RREF of the augmented matrix; None when inconsistent."""
    n = data.draw(st.integers(1, 8))
    a = data.draw(matrices(field, rows=n))
    b = data.draw(matrices(field, rows=n, cols=data.draw(st.integers(1, 3))))
    reduced, pivots = to_domain(a.hstack(b)).rref()
    x = solve(a, b)
    if any(c >= a.cols for c in pivots):
        assert x is None
        return
    red = lift_rows(field, reduced)
    expected = [[field.zero] * b.cols for _ in range(a.cols)]
    for i, c in enumerate(pivots):
        expected[c] = list(red[i][a.cols:])
    assert x.entries == tuple(tuple(row) for row in expected)
    assert_canonical(field, [v for row in x.entries for v in row])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_det_of_empty_matrix_is_one(field):
    det = ExactMatrix(field, ()).det()
    assert det == 1
    assert_canonical(field, [det])
