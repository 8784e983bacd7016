"""Boundary enumeration: descriptor validation, the canonical form,
golden lists at small genus, quotient groups, and the brute-force
cross-check."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

import chowkit.strata
from chowkit.strata import (FACTOR_FAMILIES, FactorSpace, StratumDescriptor,
                            branch_count, classify_factor, codim1_count,
                            enumerate_codim1, format_stratum,
                            oracle_enumerate, quotient_group)


def H(degrees, genera, profiles):
    return FactorSpace(degrees=tuple(degrees), genera=tuple(genera),
                       profiles=tuple(tuple(p) for p in profiles))


class TestFactorSpace:
    def test_connected_triple(self):
        f = H([3], [2], [(2, 1)])
        assert f.connected
        assert f.node_profile == (2, 1)
        assert f.arithmetic_genus == 2
        assert f.display == "H(3;2;(2,1))"

    def test_split(self):
        f = H([2, 1], [3, 0], [(2,), (1,)])
        assert not f.connected
        assert f.node_profile == (2, 1)
        assert f.arithmetic_genus == 2
        assert f.display == "H(2,1;3,0;(2),(1))"

    def test_validation(self):
        with pytest.raises(ValueError):
            H([4], [1], [(3,)])          # degree not 3 or 2+1
        with pytest.raises(ValueError):
            H([3], [1], [(2, 2)])        # profile not a partition of 3
        with pytest.raises(ValueError):
            H([2, 1], [0, 1], [(2,), (1,)])  # degree-1 leg must have genus 0
        with pytest.raises(ValueError):
            H([3], [1, 0], [(3,)])       # misaligned lengths

    def test_branch_needs(self):
        # 2g - 2 + 2k - sum(mu_i - 1) per component
        f = H([3], [0], [(3,)])
        assert f.branch_needs == (2,)
        assert f.branch_total == 2
        g = H([2, 1], [1, 0], [(2,), (1,)])
        assert g.branch_needs == (3, 0)
        assert g.branch_total == 3


def old_factor_rules(degrees, genera, profiles):
    """(branch needs, node profile) under the per-component rules the
    shape table replaced, or None where they refuse the side.

    The first rule is the one the rules left implicit: the fields, and
    each profile, are tuples, so that a side hashes.
    """
    if not (type(degrees) is type(genera) is type(profiles) is tuple
            and all(type(prof) is tuple for prof in profiles)):
        return None
    if degrees not in ((3,), (2, 1)):
        return None
    if not len(degrees) == len(genera) == len(profiles):
        return None
    needs = []
    for k, gi, prof in zip(degrees, genera, profiles):
        if gi < 0:
            return None
        if tuple(sorted(prof, reverse=True)) != prof or sum(prof) != k \
                or any(p < 1 for p in prof):
            return None
        if k == 1 and gi != 0:
            return None
        needs.append(2 * gi - 2 + k + len(prof))
    merged = [p for prof in profiles for p in prof]
    return tuple(needs), tuple(sorted(merged, reverse=True))


_SMALL = st.integers(min_value=-1, max_value=3)


def _tuple_or_list(elements):
    return (st.lists(elements, max_size=3).map(tuple)
            | st.lists(elements, max_size=3))


_PROFILE = st.sampled_from([(3,), (2, 1), (1, 1, 1), (2,), (1, 1), (1,),
                            (1, 2), (0, 3), (), [2, 1], [1]]) \
    | _tuple_or_list(_SMALL)


class TestShapeTable:
    """FactorSpace checks a side by one lookup of its shape; it must accept
    exactly the sides the per-component rules accept, and derive the same
    data from them."""

    @settings(max_examples=1500)
    @given(st.sampled_from([(3,), (2, 1), (1, 2), (2,), (1,), (), [3],
                            [2, 1]]) | _tuple_or_list(_SMALL),
           _tuple_or_list(_SMALL), _tuple_or_list(_PROFILE))
    @example((3,), (0,), ((3,),))
    @example((3,), (2,), ((2, 1),))
    @example((3,), (1,), ((1, 1, 1),))
    @example((2, 1), (1, 0), ((2,), (1,)))
    @example((2, 1), (0, 0), ((1, 1), (1,)))
    @example((2, 1), [1, 0], ((2,), (1,)))
    @example((3,), (2,), ([2, 1],))
    @example((2, 1), (1, 1), ((2,), (1,)))
    def test_accepts_what_the_old_rules_accept(self, degrees, genera,
                                               profiles):
        want = old_factor_rules(degrees, genera, profiles)
        try:
            f = FactorSpace(degrees, genera, profiles)
        except ValueError:   # a TypeError fails the test
            assert want is None
            return
        assert want == (f.branch_needs, f.node_profile)

    def test_five_shapes_back_the_families(self):
        assert len(chowkit.strata.FACTOR_SHAPES) == 5
        assert FACTOR_FAMILIES == {
            (True, (3,)): ("connected, triple point", 0),
            (True, (2, 1)): ("connected, simple node point", 0),
            (True, (1, 1, 1)): ("connected, unramified point", 0),
            (False, (2,)): ("split, ramified double cover", 1),
            (False, (1, 1)): ("split, unramified double cover", 0),
        }


class TestRiemannHurwitz:
    def test_branch_count(self):
        assert branch_count(0) == 4
        assert branch_count(4) == 12


class TestDescriptor:
    def good(self):
        return StratumDescriptor(
            genus_total=4, j=7, node_profile=(2, 1),
            side1=H([3], [2], [(2, 1)]),
            side2=H([3], [1], [(2, 1)]),
            quotient_group="trivial")

    def test_roundtrip_display(self):
        s = self.good()
        assert format_stratum(s) == \
            "D7 (2,1): H(3;2;(2,1)) x H(3;1;(2,1)) [trivial]"

    def test_side_profile_must_match(self):
        with pytest.raises(ValueError):
            StratumDescriptor(
                genus_total=4, j=7, node_profile=(3,),
                side1=H([3], [2], [(2, 1)]),
                side2=H([3], [1], [(2, 1)]),
                quotient_group="trivial")

    def test_j_range(self):
        with pytest.raises(ValueError):
            StratumDescriptor(
                genus_total=4, j=11, node_profile=(2, 1),
                side1=H([3], [4], [(2, 1)]),
                side2=H([3], [0], [(2, 1)]),
                quotient_group="trivial")

    def test_genus_consistency(self):
        with pytest.raises(ValueError):
            StratumDescriptor(
                genus_total=9, j=7, node_profile=(2, 1),
                side1=H([3], [2], [(2, 1)]),
                side2=H([3], [1], [(2, 1)]),
                quotient_group="trivial")

    def test_riemann_hurwitz_sum(self):
        # the profiles match the node, but side 1 needs 9 branch points
        # and the split gives it 7
        with pytest.raises(ValueError, match=r"Riemann-Hurwitz mismatch: "
                           r"side needs \(9,\), carries 7"):
            StratumDescriptor(
                genus_total=4, j=7, node_profile=(2, 1),
                side1=H([3], [3], [(2, 1)]),
                side2=H([3], [1], [(2, 1)]),
                quotient_group="trivial")

    def test_unknown_quotient(self):
        with pytest.raises(ValueError):
            StratumDescriptor(
                genus_total=4, j=7, node_profile=(2, 1),
                side1=H([3], [2], [(2, 1)]),
                side2=H([3], [1], [(2, 1)]),
                quotient_group="Z5")


class TestQuotientGroups:
    def test_triple_point(self):
        s = H([3], [1], [(3,)])
        assert quotient_group((3,), s, H([3], [2], [(3,)])) == "trivial"
        assert quotient_group((3,), s, s) == "Z2"

    def test_simple_node(self):
        conn = H([3], [2], [(2, 1)])
        split = H([2, 1], [2, 0], [(2,), (1,)])
        assert quotient_group((2, 1), conn, conn) == "Z2"
        assert quotient_group((2, 1), conn, split) == "trivial"

    def test_unramified(self):
        conn = H([3], [1], [(1, 1, 1)])
        mixed = H([2, 1], [1, 0], [(1, 1), (1,)])
        assert quotient_group((1, 1, 1), conn, conn) == "S3xZ2"
        assert quotient_group((1, 1, 1), conn,
                              H([3], [2], [(1, 1, 1)])) == "S3"
        assert quotient_group((1, 1, 1), conn, mixed) == "Z2"
        assert quotient_group((1, 1, 1), mixed, mixed) == "Z2"
        assert quotient_group((1, 1, 1), mixed,
                              H([2, 1], [2, 0], [(1, 1), (1,)])) == "trivial"


GOLDEN_G0 = [
    "D2 (3): H(3;0;(3)) x H(3;0;(3)) [Z2]",
    "D2 (1,1,1): H(2,1;0,0;(1,1),(1)) x H(2,1;0,0;(1,1),(1)) [Z2]",
]

GOLDEN_G4_D7 = [
    "D7 (2,1): H(3;2;(2,1)) x H(3;1;(2,1)) [trivial]",
    "D7 (2,1): H(3;2;(2,1)) x H(2,1;2,0;(2),(1)) [trivial]",
    "D7 (2,1): H(2,1;3,0;(2),(1)) x H(3;1;(2,1)) [trivial]",
]


class TestEnumeration:
    def test_genus_zero(self):
        assert [format_stratum(s) for s in enumerate_codim1(0)] == GOLDEN_G0

    def test_genus_four_count_and_histogram(self):
        found = enumerate_codim1(4)
        assert len(found) == 18
        by_j = {}
        for s in found:
            by_j[s.j] = by_j.get(s.j, 0) + 1
        assert by_j == {6: 4, 7: 3, 8: 5, 9: 3, 10: 3}

    def test_genus_four_d7_block(self):
        found = [format_stratum(s) for s in enumerate_codim1(4) if s.j == 7]
        assert found == GOLDEN_G4_D7

    def test_genus_one(self):
        found = enumerate_codim1(1)
        assert len(found) == 5
        symmetric = [s for s in found if s.j == 3
                     and s.node_profile == (2, 1)
                     and s.side1.connected and s.side2.connected]
        assert len(symmetric) == 1
        assert symmetric[0].quotient_group == "Z2"
        assert symmetric[0].side1.genera == (0,)

    def test_counts_small_genus(self):
        assert [len(enumerate_codim1(g)) for g in range(6)] == \
            [2, 5, 10, 13, 18, 21]

    def test_equal_side_quotients_at_g4(self):
        found = enumerate_codim1(4)
        groups = sorted(s.quotient_group for s in found
                        if s.j == 6 and s.node_profile == (1, 1, 1))
        assert groups == ["S3xZ2", "Z2", "Z2"]

    def test_sorted_and_canonical(self):
        # enumerate_codim1 sorts nothing: the family rules must yield the
        # sort_key order themselves
        for g in range(300):
            found = enumerate_codim1(g)
            keys = [s.sort_key() for s in found]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            # side1 is never the lexicographically larger side when the
            # split is symmetric
            b = branch_count(g)
            for s in found:
                if s.j == b - s.j:
                    assert s.side1.sort_key() <= s.side2.sort_key()

    @pytest.mark.parametrize("g", [0, 1, 9, 2000])
    def test_mirror_split_builds_sides_once(self, g, monkeypatch):
        # one side object per distinct side value of each split, the
        # mirror split included: at g = 2000, 10002 FactorSpace
        # constructions for 8002 strata
        built = []
        init = FactorSpace.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(FactorSpace, "__post_init__", counting)
        found = enumerate_codim1(g)
        distinct = {(s.j, side) for s in found
                    for side in (s.side1, s.side2)}
        assert len(built) == len(distinct)
        if g == 2000:
            assert (len(found), len(built)) == (8002, 10002)

    def test_family_counts_closed_form(self):
        """The number of strata in each (node profile, side 1 connected,
        side 2 connected) family, derived by hand from the family rules.

        Side 1 carries j of the b = 2g + 4 branch points and side 2 the
        other b - j, with g + 2 <= j <= 2g + 2.  A degree-k component over
        a node point of contribution c has 2g' - 2 = -2k + j + c, so a
        side exists only when j + c is even: j is even for (3) and
        (1,1,1) and odd for (2,1), and as b is even both sides agree.
        g' >= 0 and stability (at least two branch points) bound each side
        from below: a connected side needs j >= 2, 3, 4 for (3), (2,1),
        (1,1,1); a split side needs j >= 3 for (2),(1) (odd, g' >= 0,
        stable) and j >= 2 for (1,1),(1).  Two split sides over (2,1)
        give a disconnected curve.  At the mirror split j = b - j = g + 2
        only s1 <= s2 is kept, and a connected side sorts first, so
        (F, T) is dropped there.  Counting the allowed j in each family,
        with h = g // 2 and c = g - h:

        - (3), T, T: even j in [g + 2, 2g + 2]: c for odd g, h + 1 even.
        - (2,1): odd j in [g + 2, 2g + 1] (side 2 needs 3): c for odd g,
          h for even g; (F, T) loses the mirror split j = g + 2 when g is
          odd, so it is h for every g.
        - (1,1,1), T, T: even j in [g + 2, 2g] (side 2 needs 4): h.
        - (1,1,1), T, F: even j in [max(g + 2, 4), 2g + 2] (side 1
          needs 4): c for odd g, h + 1 for even g >= 2, 0 at g = 0.
        - (1,1,1), F, F: even j in [g + 2, 2g + 2]: c for odd g, h + 1
          for even g.
        - (1,1,1), F, T: even j in [g + 2, 2g] less the mirror split
          when g is even: h for odd g, h - 1 for even g >= 2, 0 at g = 0.

        The total is 4g + 2 - (g mod 2).
        """
        for g in (*range(401), 997, 1999, 2000, 10**4):
            h, c = g // 2, g - g // 2
            if g % 2:
                want = {((3,), True, True): c,
                        ((2, 1), True, True): c, ((2, 1), True, False): c,
                        ((2, 1), False, True): h,
                        ((1, 1, 1), True, True): h,
                        ((1, 1, 1), False, True): h,
                        ((1, 1, 1), True, False): c,
                        ((1, 1, 1), False, False): c}
            else:
                want = {((3,), True, True): h + 1,
                        ((2, 1), True, True): h, ((2, 1), True, False): h,
                        ((2, 1), False, True): h,
                        ((1, 1, 1), True, True): h,
                        ((1, 1, 1), True, False): h + 1 if g else 0,
                        ((1, 1, 1), False, True): h - 1 if g else 0,
                        ((1, 1, 1), False, False): h + 1}
            want = {key: n for key, n in want.items() if n}
            got = {}
            found = enumerate_codim1(g)
            for s in found:
                key = (s.node_profile, s.side1.connected, s.side2.connected)
                got[key] = got.get(key, 0) + 1
            assert got == want, g
            assert len(found) == codim1_count(g) == 4 * g + 2 - g % 2, g

    def test_double_split_simple_node_excluded(self):
        # a (2,1) node with both sides split disconnects the cover
        for g in range(6):
            for s in enumerate_codim1(g):
                if s.node_profile == (2, 1):
                    assert s.side1.connected or s.side2.connected

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            enumerate_codim1(-1)
        with pytest.raises(ValueError):
            codim1_count(-1)


class TestOracle:
    @pytest.mark.parametrize("g", range(0, 31))
    def test_agrees(self, g):
        assert oracle_enumerate(g) == enumerate_codim1(g)

    @pytest.mark.parametrize("g", [60, 120, 240])
    def test_agrees_past_cli_cap(self, g, monkeypatch):
        # the cap is part of the CLI's contract (--oracle past it is a
        # usage error), not a bound the search needs; tests may lift it
        monkeypatch.setattr(chowkit.strata, "_ORACLE_GENUS_CAP", 240)
        assert oracle_enumerate(g) == enumerate_codim1(g)

    def test_work_is_linear(self, monkeypatch):
        # one side sweep per node profile and call: the FactorSpace
        # constructions grow with the genus, not with its square
        monkeypatch.setattr(chowkit.strata, "_ORACLE_GENUS_CAP", 60)
        built = []
        init = FactorSpace.__post_init__

        def counting(self):
            built.append(None)
            init(self)

        monkeypatch.setattr(FactorSpace, "__post_init__", counting)
        counts = {}
        for g in (30, 60):
            built.clear()
            oracle_enumerate(g)
            counts[g] = len(built)
        assert counts[60] <= 2.2 * counts[30], counts

    def test_guard(self):
        with pytest.raises(ValueError):
            oracle_enumerate(31)


class TestFactorIdentity:
    """Derived data rides on a FactorSpace outside its fields, so equality,
    hashing and the canonical order still see only the three fields."""

    def test_equal_and_hash_equal(self):
        a = H([2, 1], [3, 0], [(2,), (1,)])
        b = H([2, 1], [3, 0], [(2,), (1,)])
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a.sort_key() == b.sort_key()
        assert a != H([2, 1], [4, 0], [(2,), (1,)])

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(FactorSpace)] == \
            ["degrees", "genera", "profiles"]

    def test_display_is_cached_derived_data(self):
        f = H([2, 1], [3, 0], [(2,), (1,)])
        assert f.display == "H(2,1;3,0;(2),(1))"
        assert f.display is f.display
        assert f == H([2, 1], [3, 0], [(2,), (1,)])

    def test_replace_rederives(self):
        f = dataclasses.replace(H([3], [2], [(2, 1)]), genera=(5,))
        assert f.branch_needs == (13,)
        assert f.node_profile == (2, 1)
        assert (f.branch_total, f.connected, f.arithmetic_genus) == \
            (13, True, 5)
        f = dataclasses.replace(f, degrees=(2, 1), genera=(3, 0),
                                profiles=((2,), (1,)))
        assert (f.branch_total, f.connected, f.arithmetic_genus) == \
            (7, False, 2)
        assert f.display == "H(2,1;3,0;(2),(1))"


class TestFamilies:
    def test_classify(self):
        label, principal = classify_factor(H([3], [2], [(2, 1)]), 4)
        assert label == "connected, simple node point"
        assert principal == 2
        label, principal = classify_factor(
            H([2, 1], [2, 0], [(2,), (1,)]), 4)
        assert label == "split, ramified double cover"
        assert principal == 2

    def test_every_enumerated_factor_classifies(self):
        for g in range(0, 7):
            for s in enumerate_codim1(g):
                for side in (s.side1, s.side2):
                    label, principal = classify_factor(side, g)
                    key = (side.connected, side.profiles[0])
                    family_label, lower = FACTOR_FAMILIES[key]
                    assert label == family_label
                    assert principal >= lower

    def test_split_ramified_lower_bound(self):
        # the ramified double-cover leg never appears with genus 0
        for g in range(0, 9):
            for s in enumerate_codim1(g):
                for side in (s.side1, s.side2):
                    if not side.connected and side.profiles[0] == (2,):
                        assert side.genera[0] >= 1


@given(st.integers(min_value=0, max_value=10))
def test_enumeration_idempotent_under_reconstruction(g):
    found = enumerate_codim1(g)
    rebuilt = [StratumDescriptor(genus_total=g, j=s.j,
                                 node_profile=s.node_profile,
                                 side1=s.side1, side2=s.side2,
                                 quotient_group=s.quotient_group)
               for s in found]
    assert rebuilt == found
    assert sorted(rebuilt, key=lambda s: s.sort_key()) == found
