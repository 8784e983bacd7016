"""Exact linear algebra, jet ranks, integer roots and normal forms against
sympy, an independent reference.

sympy is not a dependency of chowkit, so this module is skipped when it
is absent.  Ranks on the sympy side are taken over the fraction field of
the entries' domain (Q, Q(g) or Q(y1, y2, ...)) by DomainMatrix, which is
exact.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from chowkit.bundles import JetPoint, jet_rank, splitting_sym3  # noqa: E402
from chowkit.linalg import (bareiss_det, param_rank,  # noqa: E402
                            rank_fraction)
from chowkit.ring import ParamPoly  # noqa: E402
from chowkit.spaces import build_space  # noqa: E402
from sampled_rank import rank_at_samples  # noqa: E402

F = Fraction
GS = sympy.Symbol("g")


def to_sympy(x):
    if isinstance(x, ParamPoly):
        return sum((sympy.Rational(c.numerator, c.denominator) * GS ** i
                    for i, c in enumerate(x.coeffs)), sympy.Integer(0))
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def sympy_rank(rows):
    if not rows or not rows[0]:
        return 0
    matrix = sympy.Matrix([[to_sympy(x) for x in row] for row in rows])
    return DomainMatrix.from_Matrix(matrix).to_field().rank()


def random_poly(rng, max_degree=2):
    if rng.random() < 0.25:
        return ParamPoly()
    return ParamPoly([F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                      for _ in range(rng.randint(0, max_degree) + 1)])


def random_matrix(rng, nrows, ncols, entry):
    """Random entries, sometimes with a row made from the others so that
    the rank drops."""
    rows = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(nrows), 2)
        k = rng.randint(-2, 2)
        rows[a] = [k * x for x in rows[b]]
        if nrows >= 3:
            c = next(i for i in range(nrows) if i not in (a, b))
            rows[a] = [x + y for x, y in zip(rows[a], rows[c])]
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_bareiss_det_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 4)
    rows = random_matrix(rng, n, n, random_poly)
    want = sympy.Matrix([[to_sympy(x) for x in row] for row in rows]).det()
    assert sympy.expand(to_sympy(bareiss_det(rows)) - want) == 0


@pytest.mark.parametrize("seed", range(40))
def test_rank_fraction_matches_sympy(seed):
    rng = random.Random(1000 + seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    rows = random_matrix(
        rng, nrows, ncols,
        lambda r: F(r.randint(-3, 3), r.choice((1, 2, 5))))
    assert rank_fraction(rows) == sympy_rank(rows)
    # over Q(g), any nonzero pivot: the generic rank
    poly_rows = random_matrix(rng, nrows, ncols, random_poly)
    assert rank_fraction(poly_rows) == sympy_rank(poly_rows)


def test_param_rank_matches_sympy_when_certified():
    certified = 0
    for seed in range(200):
        rng = random.Random(2000 + seed)
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, nrows, ncols, random_poly)
        try:
            rank = param_rank(rows)
        except ValueError:
            continue
        certified += 1
        # a certified rank holds at every integer g >= 0, so it is the
        # generic rank and the rank at each sample
        assert rank == sympy_rank(rows)
        assert set(rank_at_samples(rows, range(12)).values()) == {rank}
    assert certified >= 100


def sympy_jet_rows(m, n, points, ys):
    """The jet matrix built by differentiating each monomial with sympy;
    ys holds one symbol per point with y=None."""
    blocks = [max(0, d + 1) for d in splitting_sym3(m, n)]
    w = sympy.Symbol("w")
    free = iter(ys)
    rows = []
    for pt in points:
        x = to_sympy(pt.x)
        if not pt.on_directrix:
            y0 = next(free) if pt.y is None else to_sympy(pt.y)
        for k in range(pt.jets):
            row = []
            for bi, ncols in enumerate(blocks):
                if pt.on_directrix:
                    # w = 1/y: block bi carries w**bi, read at w = 0
                    jet = sympy.diff(w ** bi, w, k).subs(w, 0)
                else:
                    jet = sympy.diff(w ** (3 - bi), w, k).subs(w, y0)
                jet = jet / sympy.factorial(k)
                row.extend(jet * x ** t for t in range(ncols))
            rows.append(row)
    return rows


def P(x, jets, **kw):
    return JetPoint(F(x), jets, **kw)


POINT_SETS = {
    "3p3q": ((P(0, 3, y=F(0)), P(1, 3)), False),
    "1p1q": ((P(0, 1, y=F(0)), P(1, 1)), False),
    "p-directrix": ((P(0, 3, on_directrix=True), P(1, 3)), False),
    "two-free": ((P(0, 3), P(1, 3)), False),
    "two-free-same-fiber": ((P(0, 3), P(0, 3)), True),
    "two-free-high-jets": ((P(0, 5), P(2, 2)), False),
    "three-free": ((P(0, 2), P(1, 2), P(-1, 2)), False),
    "mixed": ((P(0, 2, on_directrix=True), P(1, 2), P(2, 2, y=F(3))),
              False),
}


@pytest.mark.parametrize("name", sorted(POINT_SETS))
def test_jet_rank_is_the_rank_over_q_of_y(name):
    points, same_fiber = POINT_SETS[name]
    nfree = sum(1 for p in points if p.y is None and not p.on_directrix)
    ys = sympy.symbols(f"y1:{nfree + 1}")
    for n in range(5):
        for m in range(n + 1):
            want = sympy_jet_rows(m, n, points, ys)
            (nrows, ncols), rank = jet_rank(m, n, points,
                                            same_fiber=same_fiber)
            assert (nrows, ncols) == (len(want), len(want[0]))
            matrix = DomainMatrix.from_Matrix(sympy.Matrix(want))
            assert rank == matrix.to_field().rank(), (m, n)


def _to_sympy_element(terms, syms):
    return sum((to_sympy(c) * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
                for exps, c in terms.items()), sympy.Integer(0))


@pytest.mark.parametrize("sid, truncation", [("PE", 6), ("X111", 5)])
def test_normal_form_matches_groebner_reduction(sid, truncation):
    """_normalize against sympy's reduction by the square rules, in lex
    order on the generators in ring order, then truncated by degree.  The
    leading monomials zeta_p**2, zeta_q**2 and z**2 are pairwise coprime,
    so the rules are a Groebner basis and both normal forms are unique."""
    ring = build_space(sid, truncation=truncation).ring
    syms = sympy.symbols([gq.name for gq in ring.generators])
    rules = [syms[ring.index_of(name)] ** 2 - _to_sympy_element(rhs, syms)
             for name, rhs in ring.square_rules.items()]
    domain = sympy.QQ[GS]
    rng = random.Random(sum(map(ord, sid)))
    for _ in range(40):
        raw = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.choice((0, 0, 0, 0, 1, 1, 2, 3)) for _ in syms)
            if ring.monomial_degree(exps) <= truncation + 1:
                raw[exps] = random_poly(rng)
        ours = ring.element(raw)
        _, rem = sympy.reduced(_to_sympy_element(raw, syms), rules, *syms,
                               order="lex", domain=domain)
        want = {exps: domain.from_sympy(c) for exps, c in
                sympy.Poly(rem, *syms, domain=domain).terms()
                if c and ring.monomial_degree(exps) <= truncation}
        got = {exps: domain.from_sympy(to_sympy(c))
               for exps, c in ours.terms.items()}
        assert got == want


def test_nonneg_integer_roots_match_sympy_real_roots():
    rng = random.Random(11)
    for _ in range(150):
        p = ParamPoly.const(rng.randint(1, 3))
        for _ in range(rng.randint(1, 4)):
            p = p * rng.choice((
                ParamPoly([F(rng.randint(-40, 40)), F(rng.choice((1, 2, 3)))]),
                ParamPoly([F(rng.randint(-9, 9)), F(rng.randint(-4, 4)),
                           F(1)]),
                ParamPoly([F(-rng.randint(0, 10 ** 15)), F(1)])))
        if p.is_zero():
            continue
        want = sorted({int(r) for r in sympy.real_roots(to_sympy(p), GS)
                       if r.is_integer and r >= 0})
        assert p.nonneg_integer_roots() == want, p
