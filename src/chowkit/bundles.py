"""Chern-class calculus and fiberwise jet evaluation.

BundleClass is a formal vector bundle: a rank plus a total Chern class
living in some RingPresentation.  Whitney products, truncated inverses,
principal-parts bundles and excess classes are all polynomial identities
in the Chern classes, so they stay exact.

The second half of the module handles rank-2 splitting types on P^1 and
the jet-evaluation matrices used to test whether point conditions on a
fiberwise cubic are independent.  A cubic on the Hirzebruch-style surface
is written f = a*y**3 + b*y**2 + c*y + d off the directrix, where the
coefficient a, b, c, d are polynomials on the base P^1 of degrees
2m-n, m, n, 2n-m.  Jets are divided derivatives, so all entries are
binomial coefficients times monomial values: in Q at a concrete fiber
position, and polynomials at a generic one, which gets an indeterminate
y so that the rank is the exact generic rank over Q(y).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .linalg import rank_fraction
from .ring import ChowElement, G


class BundleClass:
    """Formal bundle: rank r and total Chern class 1 + c1 + ... + cr."""

    __slots__ = ("ring", "rank", "total")

    def __init__(self, rank, total):
        if not isinstance(total, ChowElement):
            raise TypeError("total Chern class must be a ChowElement")
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        ring = total.ring
        if total.graded_part(0) != ring.one():
            raise ValueError("total Chern class must start with 1")
        top = total.degree()
        if top is not None and top > rank:
            cap = ring.truncation_degree
            for d in range(rank + 1, top + 1):
                if cap is not None and d > cap:
                    break
                if not total.graded_part(d).is_zero():
                    raise ValueError(
                        f"c_{d} nonzero on a rank-{rank} bundle")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "total", total)

    def __setattr__(self, *a):
        raise AttributeError("BundleClass is immutable")

    @classmethod
    def line(cls, c1):
        return cls(1, c1.ring.one() + c1)

    def c(self, i):
        if i < 0:
            raise ValueError("no negative Chern classes")
        return self.total.graded_part(i)

    @property
    def c1(self):
        return self.c(1)

    def top_chern(self):
        return self.c(self.rank)

    def whitney(self, other):
        if other.ring != self.ring:
            raise ValueError("bundles live in different rings")
        return BundleClass(self.rank + other.rank, self.total * other.total)

    def inverse_total(self, upto=None):
        """Formal inverse of the total Chern class, up to truncation.

        upto=d keeps only the parts of degree <= d, which needs no
        truncated ring.
        """
        r = self.ring
        x = self.total - r.one()
        if x.is_zero():
            return r.one()
        cap = r.truncation_degree if upto is None else upto
        if cap is None:
            raise ValueError("inverse_total needs a truncated ring")
        if cap < 0:
            raise ValueError("upto must be nonnegative")
        # x has no degree-0 part, so x**k starts in degree k and the
        # geometric series is exact up to degree cap after cap terms
        step = -x
        acc = r.one()
        power = r.one()
        for _ in range(cap):
            power = power.mul(step, upto=cap)
            if power.is_zero():
                break
            acc = acc + power
        return acc


def excess_class(n_ambient, n_component):
    """Top Chern class of the excess bundle N_ambient / N_component.

    Computed as the degree rank(N_ambient) - rank(N_component) part of
    c(N_ambient) * c(N_component)^(-1).  Equal ranks give 1.
    """
    if n_component.ring != n_ambient.ring:
        raise ValueError("bundles live in different rings")
    drop = n_ambient.rank - n_component.rank
    if drop < 0:
        raise ValueError("component normal bundle outranks the ambient one")
    inverse = n_component.inverse_total(upto=drop)
    return n_ambient.total.mul(inverse, upto=drop).graded_part(drop)


def principal_parts_chern(line_c1, omega_c1, order):
    """c(P^k(L)) from the filtration with quotients L, L*Omega, ..., L*Omega^k.

    Returns a BundleClass of rank order + 1 whose total Chern class is the
    Whitney product of the line classes c1(L) + j*c1(Omega), j = 0..order.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if omega_c1.ring != line_c1.ring:
        raise ValueError("classes live in different rings")
    bundle = BundleClass.line(line_c1)
    for j in range(1, order + 1):
        bundle = bundle.whitney(BundleClass.line(line_c1 + omega_c1 * j))
    return bundle


# -- splitting types on P^1 --


@dataclass(frozen=True)
class SplittingType:
    """Rank-2 splitting O(m) + O(n) with m <= n on the base P^1."""

    m: int
    n: int

    def __post_init__(self):
        if self.m > self.n:
            raise ValueError("normalize so m <= n")

    @property
    def genus(self):
        return self.m + self.n - 2

    @classmethod
    def for_genus(cls, g):
        if g < 0:
            raise ValueError("genus must be nonnegative")
        total = g + 2
        return [cls(m, total - m) for m in range(total // 2 + 1)]


def splitting_sym3(m, n):
    """Base degrees of the four cubic coefficients (a, b, c, d)."""
    return [2 * m - n, m, n, 2 * n - m]


def in_locus_B(m, n):
    """Whether the leading cubic coefficient has nonnegative degree."""
    return 2 * m - n >= 0


# -- jet evaluation --


@dataclass(frozen=True)
class JetPoint:
    """Point condition: jets rows of vanishing at x, fiber position y.

    y=None asks for a generic fiber position: jet_rank gives the point an
    indeterminate y, so ranks are taken over Q(y).  on_directrix puts the
    point at y = infinity, where the cubic is read in the w = 1/y chart.
    """

    x: Fraction
    jets: int
    y: Fraction | None = None
    on_directrix: bool = False

    def __post_init__(self):
        if self.jets < 1:
            raise ValueError("need at least one jet row")
        if self.on_directrix and self.y is not None:
            raise ValueError("a directrix point has no finite y")


def _jet_rows(points, widths, same_fiber):
    """Jet rows of the first widths[b] columns of each block b."""
    xs = [p.x for p in points]
    if not same_fiber and len(set(xs)) != len(xs):
        raise ValueError("two points share a fiber; pass same_fiber=True "
                         "if that is intended")
    rows = []
    free = 0
    for pt in points:
        y = pt.y
        if not pt.on_directrix and y is None:
            y = G ** (7 ** free)
            free += 1
        powers = [pt.x ** t for t in range(max(widths))]
        for k in range(pt.jets):
            row = []
            for bi, ncols in enumerate(widths):
                if pt.on_directrix:
                    # w-chart: f = a + b*w + c*w**2 + d*w**3, at w = 0 the
                    # k-th divided jet reads off coefficient block k.
                    val = Fraction(1) if bi == k else Fraction(0)
                else:
                    p = 3 - bi  # y-power of block bi
                    if k > p:
                        val = Fraction(0)
                    else:
                        val = comb(p, k) * y ** (p - k)
                row.extend(val * v for v in powers[:ncols])
            rows.append(row)
    return rows


def jet_rank(m, n, points=None, same_fiber=False):
    """((rows, cols), rank) of the jet-evaluation matrix of the cubic.

    Columns: monomials x**t in each coefficient block (a, b, c, d), skipping
    blocks of negative degree.  Rows: for each point, its divided y-jets
    of order 0..jets-1.  The default points are two full second-order
    jets: p at x=0 on the zero section, q at x=1 generic.

    The i-th point with y=None gets the polynomial fiber position
    y = G**(7**i), so its entries are ParamPoly.  A point's k-th row has
    y-degree at most 3 - k, so a minor has degree at most 3 + 2 + 1 = 6 in
    each point's y, and this Kronecker substitution keeps every nonzero
    minor nonzero: ranks over Q(G) are the generic ranks over Q(y).  The
    rank is taken on a narrow matrix of the same rank; the shape is the
    full one.
    """
    if points is None:
        points = (JetPoint(x=Fraction(0), jets=3, y=Fraction(0)),
                  JetPoint(x=Fraction(1), jets=3))
    widths = [max(0, d + 1) for d in splitting_sym3(m, n)]
    # In block b, column t is x**t times a factor of the row.  With k
    # distinct x among the points, the columns t < k carry an invertible
    # Vandermonde matrix, so they span every later column of the block:
    # the cost depends on neither (m, n) nor the jet counts.  A jet of
    # order 4 or more is a zero row: every block has y-degree at most 3
    # off the directrix, and the w-chart has no block past 3 on it.
    k = len({p.x for p in points})
    rows = _jet_rows([replace(p, jets=min(p.jets, 4)) for p in points],
                     [min(w, k) for w in widths], same_fiber)
    return (sum(p.jets for p in points), sum(widths)), rank_fraction(rows)
