"""Property tests of the subset-rank tables and the Gale transform.

``duality_defects`` reads both sides of the rank duality from the
configuration's rank tables; it is compared here on every subset with the
per-subset computation it replaced, which takes its own kernel of G^T and
one elimination per side.  ``subset_ranks`` is compared with
``ExactMatrix.rank`` on every subset of arbitrary row lists.  Configurations
are drawn with many points on one hyperplane, so kernel rows that vanish or
are proportional (a degenerate transform) are common.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from galekit.errors import (  # noqa: E402
    Degenerate,
    DuplicatePoint,
    GaleDegenerate,
    GaleNonReduced,
    ZeroPoint,
)
from galekit.exactla import (  # noqa: E402
    GF,
    QQ,
    ExactMatrix,
    normalize_row,
    row_is_zero,
    subset_ranks,
)
from galekit.gale import duality_defects, gale_transform  # noqa: E402
from galekit.pointconfig import (  # noqa: E402
    Equivalence,
    PointConfiguration,
    is_equivalent_labeled,
    validate_subset,
)

FIELDS = [QQ, GF(2), GF(7), GF(101)]
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def scalars(field, bound=4):
    if field.kind == "rational":
        return st.integers(-bound, bound).map(field.coerce)
    return st.integers(0, field.p - 1)


def combine(field, coeffs, rows):
    out = [field.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


@st.composite
def row_lists(draw, field):
    """Up to 8 rows of width 0..5: fresh, zero, repeated and proportional."""
    width = draw(st.integers(0, 5))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "multiple")))
        if kind == "zero":
            rows.append([field.zero] * width)
        elif kind == "fresh" or not rows:
            rows.append(draw(st.lists(scalars(field), min_size=width, max_size=width)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            c = draw(scalars(field))
            rows.append([field.mul(c, x) for x in draw(st.sampled_from(rows))])
    return rows


@st.composite
def crowded_configurations(draw, field):
    """Up to 9 distinct points of P^r, r = 1..4: fresh points, and points on
    one random hyperplane, which crowd the transform's rows."""
    r = draw(st.integers(1, 4))
    vector = st.lists(scalars(field), min_size=r + 1, max_size=r + 1)
    hyperplane = draw(st.lists(vector, min_size=r, max_size=r))
    rows, seen = [], set()
    for fresh in draw(st.lists(st.booleans(), min_size=r + 1, max_size=9)):
        if fresh:
            row = draw(vector)
        else:
            coeffs = draw(st.lists(scalars(field), min_size=r, max_size=r))
            row = combine(field, coeffs, hyperplane)
        if not row_is_zero(field, row) and normalize_row(field, row) not in seen:
            seen.add(normalize_row(field, row))
            rows.append(row)
    assume(rows)
    return PointConfiguration.new(field, r, rows)


def oracle_defects(cfg):
    """Both duality defects of every subset, as duality_defects computed
    them before its rank tables: one kernel of G^T, then one elimination
    for the subset's points and one for the kernel rows of its complement."""
    k = cfg.coords.transpose().kernel_basis()
    if k.cols > cfg.gamma - cfg.r - 1:
        raise Degenerate(f"points span only a subspace of P^{cfg.r}")
    out = {}
    for size in range(cfg.gamma + 1):
        for subset in combinations(range(cfg.gamma), size):
            s = validate_subset(subset, cfg.gamma)
            span_failure = (cfg.r + 1) - cfg.span_rank(s)
            complement = tuple(sorted(set(range(cfg.gamma)) - set(s)))
            cond_rank = k.submatrix(complement).rank() if complement else 0
            out[s] = (span_failure, len(complement) - cond_rank)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_subset_ranks_match_rank(field, data):
    rows = data.draw(row_lists(field))
    table = subset_ranks(field, rows)
    assert len(table) == 1 << len(rows)
    for mask in range(len(table)):
        chosen = tuple(tuple(row) for i, row in enumerate(rows) if mask >> i & 1)
        assert table[mask] == ExactMatrix(field, chosen).rank()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_subset_ranks_of_no_rows(field):
    assert subset_ranks(field, []) == bytearray(1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_duality_defects_match_per_subset_oracle(field, data):
    cfg = data.draw(crowded_configurations(field))
    try:
        expected = oracle_defects(cfg)
    except Degenerate:
        with pytest.raises(Degenerate):
            duality_defects(cfg, ())
        return
    for subset, defects in expected.items():
        assert duality_defects(cfg, subset) == defects


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
@SETTINGS
@given(data=st.data())
def test_transform_twice_is_equivalent(field, data):
    r = data.draw(st.integers(1, 3))
    gamma = data.draw(st.integers(r + 3, 8))
    vector = st.lists(scalars(field, bound=20), min_size=r + 1, max_size=r + 1)
    rows = data.draw(st.lists(vector, min_size=gamma, max_size=gamma))
    try:
        cfg = PointConfiguration.new(field, r, rows)
        back = gale_transform(gale_transform(cfg).transform).transform
    except (ZeroPoint, DuplicatePoint, Degenerate, GaleDegenerate, GaleNonReduced):
        assume(False)
    assert is_equivalent_labeled(back, cfg) is Equivalence.EQUIVALENT
