"""Codimension-1 boundary strata of the compactified trigonal space.

A codim-1 stratum splits the b = 2g+4 simple branch points into two sides
of sizes j and b-j (both >= 2), picks a ramification profile over the node
(a partition of 3), and a marked-curve configuration on each side: one
connected degree-3 cover, or a degree-2 cover plus a trivial degree-1
piece.  Genera are pinned by Riemann-Hurwitz on each component, all
branch points sit on the component of degree >= 2, and each side must be
a stable marked Hurwitz space (which works out to "carries at least two
branch points").  Side 1 is the larger-j side; at j = b-j the mirror pair
collapses to one stratum with sides sorted.  The gluing quotient group is
looked up from the configuration shapes.

Only five side shapes occur, and FACTOR_SHAPES holds each one's node
profile, Riemann-Hurwitz offsets and display template.  codim1_families
derives from it the (at most eleven) families of strata of a genus, each
a progression in j, and codim1_walk yields their strata in canonical
(sort_key) order without building them; enumerate_codim1 builds them.

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
    #: the display string with %d for the principal genus
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
        (2, 1), (1, 0), "H(2,1;%d,0;(2),(1))",
        "split, ramified double cover", 1),
    ((2, 1), ((1, 1), (1,))): FactorShape(
        (1, 1, 1), (2, 0), "H(2,1;%d,0;(1,1),(1))",
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
        derive(self, "display", shape.template % genera[0])

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


class StratumFamily(NamedTuple):
    """The strata at j = first, first + 2, ..., last sharing a node
    profile, both side shapes (FACTOR_SHAPES keys) and a quotient.  Side 1
    carries j branch points and side 2 the other b - j, so their principal
    genera are (j - shift1) / 2 and (shift2 - j) / 2."""

    node_profile: tuple
    shape1: tuple
    shape2: tuple
    quotient: str
    first: int
    last: int
    shift1: int
    shift2: int

    @property
    def size(self):
        return (self.last - self.first) // 2 + 1

    def genera(self, j):
        """Both sides' principal genera at split j."""
        return (j - self.shift1) // 2, (self.shift2 - j) // 2

    def display_template(self):
        """Every member's display, with %d for j and each principal
        genus."""
        return stratum_display("%d", self.node_profile,
                               FACTOR_SHAPES[self.shape1].template,
                               FACTOR_SHAPES[self.shape2].template,
                               self.quotient)


def _sides(memo, b, j, shape1, shape2):
    """Both sides at split j, each built once per memo: a side value
    occurs in one split only, as side 1 carries j >= b/2 points and side 2
    b - j <= b/2."""
    for key in ((shape1, j), (shape2, b - j)):
        if key not in memo:
            (degrees, profiles), j_side = key
            principal = (j_side - sum(FACTOR_SHAPES[key[0]].offsets)) // 2
            memo[key] = FactorSpace(degrees, (principal,) + (0,) * (
                len(degrees) - 1), profiles)
    return memo[shape1, j], memo[shape2, b - j]


def _stratum(memo, g, j, profile, shape1, shape2):
    s1, s2 = _sides(memo, branch_count(g), j, shape1, shape2)
    return StratumDescriptor(g, j, profile, s1, s2,
                             quotient_group(profile, s1, s2))


def _families(g, memo):
    """codim1_families(g), building its sides through memo."""
    b = branch_count(g)
    mirror, families = b // 2, []
    shapes = sorted(FACTOR_SHAPES, key=lambda key: (
        len(FACTOR_SHAPES[key].node_profile), len(key[0]), key[0]))
    for shape1, shape2 in itertools.product(shapes, repeat=2):
        profile = FACTOR_SHAPES[shape1].node_profile
        o1, o2 = (sum(FACTOR_SHAPES[s].offsets) for s in (shape1, shape2))
        # j >= b - j >= 2 and both principal genera integers >= 0 (offsets
        # over one profile share a parity); a double-split (2,1) stratum
        # glues the degree-2 and the degree-1 components pairwise: two curves
        first, last = max(mirror, o1), min(b - 2, b - o2)
        first, last = first + (first - o1) % 2, last - (last - o1) % 2
        if FACTOR_SHAPES[shape2].node_profile != profile or first > last \
                or profile == (2, 1) and len(shape1[0]) == len(shape2[0]) == 2:
            continue
        runs = [(first, last)]
        if first == mirror:  # the one split where sides can be equal
            s1, s2 = _sides(memo, b, first, shape1, shape2)
            if s1.sort_key() > s2.sort_key():  # (shape2, shape1) lists it
                runs = [(first + 2, last)]
            elif s1 == s2:
                runs = [(first, first), (first + 2, last)]
        for lo, hi in runs:
            if lo > hi:
                continue
            start, end = (_stratum(memo, g, j, profile, shape1, shape2)
                          for j in (lo, hi))
            if start.quotient_group != end.quotient_group:
                raise ValueError(f"quotient changes over D{lo}..D{hi}")
            families.append(StratumFamily(profile, shape1, shape2,
                                          start.quotient_group, lo, hi,
                                          o1, b - o2))
    return families


def codim1_families(g):
    """The codim-1 strata for genus g, as validated families.

    The list runs node profile by node profile, fewest points first, and
    within one by both sides' degrees, which fix a side's shape there; so
    at any one j it is in sort_key order.  Each family is validated by
    real descriptors of its first and last member, and that proves every
    member: on a family each side's genera, branch needs and arithmetic
    genus are affine in j, so Riemann-Hurwitz, nonnegative genera and
    needs, and 2 <= b - j <= j hold between the ends when they hold at
    both, and the total genus is constant.  The quotient depends on j only
    through side equality, which needs equal shapes and j = b - j; such a
    mirror stratum is a family of its own.
    """
    return _families(g, {})


def codim1_walk(families):
    """(j, family) for every stratum of families, in sort_key order: j
    rises, and the families at one j come in list order."""
    for j in range(min(f.first for f in families),
                   max(f.last for f in families) + 1):
        for f in families:
            if f.first <= j <= f.last and not (j - f.first) % 2:
                yield j, f


def enumerate_codim1(g):
    """All codim-1 boundary strata for genus g, in sort_key order, with
    one side object per distinct side."""
    memo = {}
    return [_stratum(memo, g, j, f.node_profile, f.shape1, f.shape2)
            for j, f in codim1_walk(_families(g, memo))]


def codim1_count(g):
    """len(enumerate_codim1(g)): the sum of the family sizes."""
    return sum(f.size for f in codim1_families(g))


# -- brute-force oracle --


class OracleFailure(Exception):
    """The brute-force search found what the shape table cannot express:
    a failed cross-check, not a usage error."""


def _oracle_sides(profile, g_cap):
    """Rediscover the sides over profile without the family formulas.

    One sweep tries every degree shape, every distribution of the profile
    parts onto components, and every genus tuple up to g_cap, and keeps
    the stable sides (at least two branch points) whose branch counts,
    2 g - 2 + k + len(profile) per component, are nonnegative, by their
    branch total.  A kept side that FACTOR_SHAPES lacks, or gives other
    counts, raises OracleFailure.  (A degree shape with no degree >= 2
    component carries no branch points.)
    """
    by_total = {}
    for degrees in ((3,), (2, 1)):
        for split_parts in _part_distributions(profile, degrees):
            genus_ranges = [range(g_cap + 1) if k > 1 else (0,)
                            for k in degrees]
            for genera in itertools.product(*genus_ranges):
                needs = tuple([2 * gi - 2 + k + len(prof) for gi, k, prof
                               in zip(genera, degrees, split_parts)])
                if min(needs) < 0 or sum(needs) < 2:
                    continue
                f = (FactorSpace(degrees, genera, split_parts)
                     if (degrees, split_parts) in FACTOR_SHAPES else None)
                if f is None or f.branch_needs != needs:
                    raise OracleFailure(
                        f"no factor shape fits the stable side with degrees "
                        f"{degrees}, profiles {split_parts} and branch "
                        f"needs {needs}")
                by_total.setdefault(sum(needs), []).append(f)
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
        for j in range(b // 2, b - 1):  # side 1 is the larger, j >= b - j
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
                    if key in found:
                        raise OracleFailure(
                            f"oracle found {format_stratum(desc)} twice")
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
