"""Codimension-1 boundary strata of the compactified trigonal space.

A codim-1 stratum splits the b = 2g+4 simple branch points into two sides
of sizes j and b-j (both >= 2), picks a ramification profile over the node
(a partition of 3), and a marked-curve configuration on each side: one
connected degree-3 cover, or a degree-2 cover plus a trivial degree-1
piece.  Genera are pinned by Riemann-Hurwitz on each component, all
branch points sit on the component of degree >= 2, and each side must be
a stable marked Hurwitz space (which works out to "carries at least two
branch points").

Descriptors are canonicalized with side 1 the larger-j side; at j = b-j
the mirror pair collapses to one stratum with sides sorted.  The gluing
quotient group is looked up from the configuration shapes.

Only five side shapes occur, and FACTOR_SHAPES holds each one's node
profile, Riemann-Hurwitz offsets and display template: a side is checked
by one lookup of its shape plus its genera, and its display string is
filled in from the template when the side is built.  codim1_by_split
reads the sides of each split straight off that table, solving for the
principal genus, and yields each split's strata in canonical (sort_key)
order with one side object per distinct side of the split, so a writer
holds one split at a time; enumerate_codim1 is the whole list, and
codim1_count its length in closed form, so a writer can state the count
before the list.  A side's branch total, connectivity and arithmetic
genus are computed once, when it is built, and a descriptor checks its
sides against them.

oracle_enumerate rediscovers the strata by brute force for
cross-checking: per node profile, one sweep over all degree shapes, all
profile-part distributions and all genera finds every stable side, keyed
by its branch total, and every pair of sides that fills a split is kept
when some node-slot matching glues it into a connected curve.  The work
is linear in the genus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

_NODE_PROFILES = ((3,), (2, 1), (1, 1, 1))
_QUOTIENTS = ("trivial", "Z2", "S3", "S3xZ2")
_ORACLE_GENUS_CAP = 30


def branch_count(g):
    """Simple branch points of a degree-3 genus-g cover of P^1."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return 2 * g + 4


class FactorShape(NamedTuple):
    """What a side's degrees and profiles fix, whatever its genera."""

    node_profile: tuple
    #: per component, needs = 2 * genus + offset: Riemann-Hurwitz,
    #: 2*g - 2 = -2*k + needs + sum(p - 1) with sum(p - 1) = k - len(prof)
    offsets: tuple
    #: the display string with %d for each genus
    template: str
    family: str
    #: the least genus of the first component among admissible sides
    lower_genus: int


#: the five side shapes, keyed by (degrees, profiles): a connected
#: degree-3 cover over each node profile, and a degree-2 cover plus a
#: genus-0 degree-1 leg over (2,1) and (1,1,1)
FACTOR_SHAPES = {
    ((3,), ((3,),)): FactorShape(
        (3,), (2,), "H(3;%d;(3))", "connected, triple point", 0),
    ((3,), ((2, 1),)): FactorShape(
        (2, 1), (3,), "H(3;%d;(2,1))", "connected, simple node point", 0),
    ((3,), ((1, 1, 1),)): FactorShape(
        (1, 1, 1), (4,), "H(3;%d;(1,1,1))", "connected, unramified point",
        0),
    ((2, 1), ((2,), (1,))): FactorShape(
        (2, 1), (1, 0), "H(2,1;%d,%d;(2),(1))",
        "split, ramified double cover", 1),
    ((2, 1), ((1, 1), (1,))): FactorShape(
        (1, 1, 1), (2, 0), "H(2,1;%d,%d;(1,1),(1))",
        "split, unramified double cover", 0),
}


@dataclass(frozen=True)
class FactorSpace:
    """One side of a stratum: components with genera and node profiles.

    The fields are tuples, each profile a tuple too, so that sides hash.
    branch_needs holds the per-component simple branch counts forced by
    Riemann-Hurwitz, and branch_total their sum.
    """

    degrees: tuple
    genera: tuple
    profiles: tuple

    def __post_init__(self):
        try:
            shape = FACTOR_SHAPES[self.degrees, self.profiles]
        except (KeyError, TypeError):  # a list in place of a tuple
            raise ValueError(f"no factor shape has degrees {self.degrees!r} "
                             f"and profiles {self.profiles!r}") from None
        genera = self.genera
        if type(genera) is not tuple or len(genera) != len(shape.offsets):
            raise ValueError("degrees, genera, profiles must align")
        if min(genera) < 0:
            raise ValueError("negative genus")
        if len(genera) == 2 and genera[1]:  # a split side's second leg
            raise ValueError("a degree-1 component must have genus 0")
        # derived once; plain attributes, not fields, so eq, hash and
        # sort_key still see only the three fields
        needs = tuple([2 * gi + off for gi, off in zip(genera, shape.offsets)])
        derive = object.__setattr__
        derive(self, "node_profile", shape.node_profile)
        derive(self, "branch_needs", needs)
        derive(self, "branch_total", sum(needs))
        derive(self, "connected", len(genera) == 1)
        derive(self, "arithmetic_genus", sum(genera) + 1 - len(genera))
        derive(self, "display", shape.template % genera)

    def sort_key(self):
        return (len(self.degrees), self.degrees, self.genera, self.profiles)


@dataclass(frozen=True)
class StratumDescriptor:
    genus_total: int
    j: int
    node_profile: tuple
    side1: FactorSpace
    side2: FactorSpace
    quotient_group: str

    def __post_init__(self):
        b = branch_count(self.genus_total)
        if not 2 <= b - self.j <= self.j:
            raise ValueError(f"side sizes ({self.j}, {b - self.j}) invalid")
        if self.quotient_group not in _QUOTIENTS:
            raise ValueError(f"unknown quotient {self.quotient_group!r}")
        for side, j_side in ((self.side1, self.j), (self.side2, b - self.j)):
            if side.node_profile != self.node_profile:
                raise ValueError("side profile does not match the node")
            if side.branch_total != j_side or min(side.branch_needs) < 0:
                raise ValueError(
                    f"Riemann-Hurwitz mismatch: side needs "
                    f"{side.branch_needs}, carries {j_side}")
        total = (self.side1.arithmetic_genus + self.side2.arithmetic_genus
                 + len(self.node_profile) - 1)
        if total != self.genus_total:
            raise ValueError(f"genus consistency fails: {total} != "
                             f"{self.genus_total}")

    def sort_key(self):
        return (self.j, len(self.node_profile),
                self.side1.sort_key(), self.side2.sort_key())


def quotient_group(node_profile, side1, side2):
    """Automorphism quotient of the gluing map, from the shape table."""
    equal = side1 == side2
    conn1, conn2 = side1.connected, side2.connected
    if node_profile == (3,):
        return "Z2" if equal else "trivial"
    if node_profile == (2, 1):
        if conn1 and conn2:
            return "Z2" if equal else "trivial"
        return "trivial"
    if node_profile == (1, 1, 1):
        if conn1 and conn2:
            return "S3xZ2" if equal else "S3"
        if conn1 != conn2:
            return "Z2"
        return "Z2" if equal else "trivial"
    raise ValueError(f"unknown node profile {node_profile}")


#: per node profile, its shapes in FACTOR_SHAPES order with the sum of
#: their offsets
_SHAPES_OVER = {
    node: [(degrees, profiles, sum(shape.offsets))
           for (degrees, profiles), shape in FACTOR_SHAPES.items()
           if shape.node_profile == node]
    for node in _NODE_PROFILES}


def _side_configs(profile, j_side):
    """The sides over profile carrying j_side branch points, one per shape
    in FACTOR_SHAPES order (connected first) whose principal genus g
    solves 2 * g + sum(offsets) = j_side in nonnegative integers; the
    degree-1 leg has genus 0.  Every side carries j_side >= 2 points, so
    each is stable."""
    out = []
    for degrees, profiles, offset in _SHAPES_OVER[profile]:
        twice = j_side - offset
        if twice >= 0 and not twice % 2:
            genera = (twice // 2,) + (0,) * (len(degrees) - 1)
            out.append(FactorSpace(degrees, genera, profiles))
    return out


def _glues_connected(profile, side1, side2):
    # a double-split (2,1) stratum pairs the degree-2 components with each
    # other and the degree-1 with each other: two separate curves
    if profile == (2, 1) and not side1.connected and not side2.connected:
        return False
    return True


def codim1_by_split(g):
    """The codim-1 boundary strata for genus g, one list per split j.

    The lists come in sort_key order, and so do the strata in each: j
    rises from the mirror split b/2, node profiles come fewest points
    first, and _side_configs lists the connected side before the split
    one.
    """
    b = branch_count(g)
    for j in range(b // 2, b - 1):  # side 1 is the larger side, j >= b-j
        yield _strata_for_split(g, j)


def enumerate_codim1(g):
    """All codim-1 boundary strata for genus g, in sort_key order."""
    return list(itertools.chain.from_iterable(codim1_by_split(g)))


def codim1_count(g):
    """len(enumerate_codim1(g)) in closed form: 4g + 2 - (g mod 2).

    It is the sum of the per-family counts that
    test_family_counts_closed_form in tests/test_strata.py derives by hand
    from the family rules and checks against the enumeration.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return 4 * g + 2 - g % 2


def _strata_for_split(g, j):
    b = branch_count(g)
    mirror = 2 * j == b
    out = []
    for profile in _NODE_PROFILES:
        # the offsets over one profile share a parity, and b - j has the
        # parity of j, so a wrong-parity profile yields no sides
        side2_configs = _side_configs(profile, b - j)
        for s1 in side2_configs if mirror else _side_configs(profile, j):
            for s2 in side2_configs:
                if mirror and s1.sort_key() > s2.sort_key():
                    continue
                if not _glues_connected(profile, s1, s2):
                    continue
                out.append(StratumDescriptor(
                    genus_total=g, j=j, node_profile=profile,
                    side1=s1, side2=s2,
                    quotient_group=quotient_group(profile, s1, s2)))
    return out


# -- brute-force oracle --


def _oracle_sides(profile, g_cap):
    """Rediscover the sides over profile without the family formulas.

    One sweep tries every degree shape, every distribution of the profile
    parts onto components, and every genus tuple up to g_cap, and keeps
    the stable sides whose forced branch counts are nonnegative, listed by
    their branch total.  Degree shapes with no degree >= 2 component
    cannot appear (FactorSpace rejects them, and they carry no branch
    points anyway).
    """
    by_total = {}
    for degrees in ((3,), (2, 1)):
        for split_parts in _part_distributions(profile, degrees):
            genus_ranges = [range(g_cap + 1) if k > 1 else (0,)
                            for k in degrees]
            for genera in itertools.product(*genus_ranges):
                try:
                    f = FactorSpace(degrees, tuple(genera), split_parts)
                except ValueError:
                    continue
                if any(n < 0 for n in f.branch_needs):
                    continue
                # a side is stable when it carries at least two branch
                # points
                if f.branch_total < 2:
                    continue
                by_total.setdefault(f.branch_total, []).append(f)
    return by_total


def _part_distributions(profile, degrees):
    """Ways to hand the profile parts to components, as sorted profiles."""
    parts = list(profile)
    results = set()
    for assignment in itertools.product(range(len(degrees)),
                                        repeat=len(parts)):
        buckets = [[] for _ in degrees]
        for part, where in zip(parts, assignment):
            buckets[where].append(part)
        if any(sum(bucket) != k for bucket, k in zip(buckets, degrees)):
            continue
        results.add(tuple(tuple(sorted(b, reverse=True)) for b in buckets))
    return sorted(results)


def _connectable(side1, side2):
    """Whether some node matching makes the glued curve connected."""
    slots1 = [(ci, p) for ci, prof in enumerate(side1.profiles)
              for p in prof]
    slots2 = [(ci, p) for ci, prof in enumerate(side2.profiles)
              for p in prof]
    n1, n2 = len(side1.degrees), len(side2.degrees)
    for perm in itertools.permutations(range(len(slots2))):
        if any(slots1[i][1] != slots2[perm[i]][1]
               for i in range(len(slots1))):
            continue
        # union-find over components of both sides
        parent = list(range(n1 + n2))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(len(slots1)):
            a = find(slots1[i][0])
            c = find(n1 + slots2[perm[i]][0])
            parent[a] = c
        if len({find(x) for x in range(n1 + n2)}) == 1:
            return True
    return False


def oracle_enumerate(g):
    """Brute-force reconstruction of enumerate_codim1 for cross-checks."""
    if g > _ORACLE_GENUS_CAP:
        raise ValueError(f"oracle capped at genus {_ORACLE_GENUS_CAP}")
    b = branch_count(g)
    found = {}
    for profile in _NODE_PROFILES:
        sides = _oracle_sides(profile, g)
        for j in range(2, b - 1):
            if j < b - j:
                continue
            for s1 in sides.get(j, ()):
                for s2 in sides.get(b - j, ()):
                    if j == b - j and s1.sort_key() > s2.sort_key():
                        continue
                    if not _connectable(s1, s2):
                        continue
                    desc = StratumDescriptor(
                        genus_total=g, j=j, node_profile=profile,
                        side1=s1, side2=s2,
                        quotient_group=quotient_group(profile, s1, s2))
                    key = (j, profile, s1, s2)
                    assert key not in found, "oracle produced a duplicate"
                    found[key] = desc
    return sorted(found.values(), key=StratumDescriptor.sort_key)


# -- the five factor families, with their genus bounds --

#: (label, lower genus bound) keyed by (connected, profile of the big
#: component); every admissible factor space matches exactly one entry
FACTOR_FAMILIES = {
    (len(degrees) == 1, profiles[0]): (shape.family, shape.lower_genus)
    for (degrees, profiles), shape in FACTOR_SHAPES.items()}


def classify_factor(factor, genus_total):
    """(family label, principal genus) with the family's bounds enforced."""
    shape = FACTOR_SHAPES[factor.degrees, factor.profiles]
    principal = factor.genera[0]
    if not shape.lower_genus <= principal <= genus_total:
        raise ValueError(f"genus {principal} outside [{shape.lower_genus}, "
                         f"{genus_total}] for family {shape.family!r}")
    return shape.family, principal


# -- formatting --


def stratum_display(j, node_profile, display1, display2, quotient):
    """A stratum's one-line display from its parts.

    With j = "%d" and each side's display its shape's template, this is
    the display template of a stratum shape.
    """
    profile = ",".join(str(p) for p in node_profile)
    return f"D{j} ({profile}): {display1} x {display2} [{quotient}]"


def format_stratum(stratum):
    """One-line display."""
    return stratum_display(stratum.j, stratum.node_profile,
                           stratum.side1.display, stratum.side2.display,
                           stratum.quotient_group)
