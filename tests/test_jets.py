"""Jet-evaluation matrices on the Hirzebruch geometry of a fiber product.

The section space is H^0 of the rank-4 splitting [2m-n, m, n, 2n-m].
Jets are taken in an affine chart off the directrix and in the w-chart
on it; a generic fiber coordinate is an indeterminate, so ranks are exact.
"""

from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from chowkit import bundles, linalg
from chowkit.bundles import (JetPoint, SplittingType, in_locus_B, jet_rank,
                             splitting_sym3)
from chowkit.ring import G, ParamPoly

F = Fraction


def test_splitting_type_normalizes():
    s = SplittingType(2, 4)
    assert (s.m, s.n) == (2, 4)
    assert s.genus == 4
    with pytest.raises(ValueError):
        SplittingType(4, 2)
    assert SplittingType.for_genus(4) == [
        SplittingType(0, 6), SplittingType(1, 5),
        SplittingType(2, 4), SplittingType(3, 3)]


def test_splitting_sym3():
    assert splitting_sym3(2, 4) == [0, 2, 4, 6]
    assert splitting_sym3(3, 3) == [3, 3, 3, 3]
    assert splitting_sym3(1, 5) == [-3, 1, 5, 9]


def test_in_locus_B():
    assert in_locus_B(2, 4)       # 2m - n = 0, borderline
    assert in_locus_B(3, 3)
    assert not in_locus_B(1, 5)
    assert not in_locus_B(0, 6)


def test_jet_point_validation():
    JetPoint(F(0), 3, y=F(0))
    JetPoint(F(1), 3)
    JetPoint(F(0), 2, on_directrix=True)
    with pytest.raises(ValueError):
        JetPoint(F(0), 0)
    with pytest.raises(ValueError):
        JetPoint(F(0), 1, y=F(2), on_directrix=True)


def test_jet_matrix_shape_and_first_row():
    pts = (JetPoint(F(0), 3, y=F(0)), JetPoint(F(1), 3, y=F(1)))
    # columns: h^0 of [0, 2, 4, 6] -> 1 + 3 + 5 + 7 = 16
    assert jet_rank(2, 4, pts)[0] == (6, 16)
    # the oracle's value row at x=0, y=0: only the constant coefficient
    # of each block contributes, with y-powers 3, 2, 1, 0 -> only block d
    m = _reference_jet_matrix(2, 4, pts)
    assert m[0][:9] == [0] * 9
    assert m[0][9] == 1


def test_jet_matrix_same_fiber_guard():
    pts = (JetPoint(F(0), 3, y=F(0)), JetPoint(F(0), 3, y=F(1)))
    with pytest.raises(ValueError):
        jet_rank(2, 4, pts)
    jet_rank(2, 4, pts, same_fiber=True)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (3, 4), (2, 3), (4, 4)])
def test_three_plus_three_off_directrix_is_full(m, n):
    assert in_locus_B(m, n)
    (rows, _), rank = jet_rank(m, n)
    assert rows == 6
    assert rank == 6


@pytest.mark.parametrize("m,n,expect", [(2, 4, 5), (3, 3, 6), (3, 4, 6),
                                        (2, 3, 6), (4, 5, 6), (3, 6, 5)])
def test_three_plus_three_on_directrix(m, n, expect):
    pts = (JetPoint(F(0), 3, on_directrix=True),
           JetPoint(F(1), 3, on_directrix=True))
    (rows, _), rank = jet_rank(m, n, pts)
    assert rows == 6
    # rank drops to 5 exactly on the boundary 2m - n = 0
    assert rank == expect
    assert (rank == 5) == (2 * m - n == 0)


def test_values_only_spec_is_rank_two():
    pts = (JetPoint(F(0), 1, y=F(0)), JetPoint(F(1), 1))
    for m, n in [(2, 4), (1, 2), (3, 3)]:
        (rows, _), rank = jet_rank(m, n, pts)
        assert (rows, rank) == (2, 2)


def test_jet_rank_default_points():
    shape, rank = jet_rank(3, 3)
    assert shape == (6, 16)
    assert rank == 6


def test_rank_eliminates_capped_widths_only(monkeypatch):
    # x = 0 and x = 1 are two distinct x, so jet_rank keeps the first
    # min(width, 2) columns of each block: widths 1, 2, 2 and 2 of the
    # 1, 1601, 3201 and 4801 at (1600, 3200), 7 of the 9604 columns
    widths = []
    eliminate = linalg._eliminate

    def spy(rows, usable):
        widths.append(len(rows[0]))
        return eliminate(rows, usable)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    assert jet_rank(1600, 3200) == ((6, 9604), 6)
    assert len(widths) == 1 and widths[0] <= 7


def test_jet_rank_products_bounded_by_capped_widths(monkeypatch):
    # the build of the 6 x 7 narrow matrix (capped widths 1, 2, 2 and 2)
    # and its elimination make a few dozen products, not one per
    # polynomial entry (16 083) of the full 6 x 9604 matrix
    calls = []
    mul = ParamPoly.__mul__

    def spy(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ParamPoly, "__mul__", spy)
    monkeypatch.setattr(ParamPoly, "__rmul__", spy)
    assert jet_rank(1600, 3200) == ((6, 9604), 6)
    assert len(calls) <= 100


def _reference_jet_matrix(m, n, points):
    """The full jet matrix, every entry multiplied on its own.

    It shares no code with jet_rank's row builder, so it is the oracle
    for jet_rank's shape, its rank and the matrix it eliminates.
    """
    blocks = [max(0, d + 1) for d in splitting_sym3(m, n)]
    rows, free = [], 0
    for pt in points:
        y = pt.y
        if not pt.on_directrix and y is None:
            y = G ** (7 ** free)
            free += 1
        for k in range(pt.jets):
            row = []
            for bi, ncols in enumerate(blocks):
                if pt.on_directrix:
                    val = F(1) if bi == k else F(0)
                elif k > 3 - bi:
                    val = F(0)
                else:
                    val = comb(3 - bi, k) * y ** (3 - bi - k)
                row.extend(val * pt.x ** t for t in range(ncols))
            rows.append(row)
    return rows


_POINTS = st.lists(st.builds(
    JetPoint, st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2)]),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([None, F(0), F(3)])), min_size=1, max_size=3) | \
    st.just((JetPoint(F(0), 2, on_directrix=True), JetPoint(F(-1), 3)))


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0,
       max_value=9), _POINTS)
def test_jet_matrix_matches_entrywise_build(a, b, points):
    # a generic rank rarely notices a wrong entry, so the matrix jet_rank
    # eliminates is checked entrywise: the reference's rows of jet order
    # < 4 and, in each block, one leading column per distinct x
    m, n = min(a, b), max(a, b)
    full = _reference_jet_matrix(m, n, points)
    narrow = []

    def spy(rows):
        narrow.append(rows)
        return linalg.rank_fraction(rows)

    with mock.patch.object(bundles, "rank_fraction", spy):
        jet_rank(m, n, points, same_fiber=True)
    k = len({p.x for p in points})
    widths = [max(0, d + 1) for d in splitting_sym3(m, n)]
    cols = [sum(widths[:bi]) + t for bi, w in enumerate(widths)
            for t in range(min(w, k))]
    orders = [j for p in points for j in range(p.jets)]
    want = [[row[c] for c in cols] for row, j in zip(full, orders) if j < 4]
    assert narrow == [want]
    assert [[type(e) for e in row] for row in narrow[0]] == \
        [[type(e) for e in row] for row in want]


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0,
       max_value=12), _POINTS)
def test_jet_rank_matches_full_matrix(a, b, points):
    # jets up to 6 reach past the row cap of 4 per point
    m, n = min(a, b), max(a, b)
    full = _reference_jet_matrix(m, n, points)
    assert jet_rank(m, n, points, same_fiber=True) == \
        ((len(full), len(full[0])), linalg._eliminate(full, bool)[0])


_ENTRIES = st.sampled_from([0, 1, -1, 2, F(1, 2), F(-3, 2), ParamPoly(),
                            G, G + 1, G * G - 2])


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                 min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=ncols - 1),
                 max_size=6).flatmap(
            lambda extra: st.permutations(list(range(ncols)) + extra)))))
def test_rank_unchanged_by_repeated_or_permuted_columns(case):
    # every column kept at least once, some repeated, in any order:
    # rank_fraction reads the rank of the matrix as given
    rows, order = case
    shuffled = [[row[c] for c in order] for row in rows]
    want = linalg._eliminate(rows, bool)[0]
    assert linalg.rank_fraction(rows) == want
    assert linalg.rank_fraction(shuffled) == want
