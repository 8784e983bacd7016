"""Chern-class bookkeeping: truncated total classes, inverses, excess
classes, and principal-parts bundles."""

import random

import pytest

from chowkit.bundles import (BundleClass, excess_class, principal_parts_chern)
from chowkit.ring import RingPresentation
from chowkit.spaces import build_space, diagonal


@pytest.fixture(scope="module")
def pe():
    return build_space("PE", truncation=8)


def test_trivial_and_line(pe):
    t = BundleClass(2, pe.one())
    assert t.c1 == pe.zero()
    assert t.total == pe.one()
    line = BundleClass.line(pe.gen("z"))
    assert line.rank == 1
    assert line.c1 == pe.gen("z")
    assert line.top_chern() == pe.gen("z")


def test_total_class_validation(pe):
    with pytest.raises(ValueError):
        BundleClass(1, pe.gen("z"))  # degree-0 part is 0, not 1
    with pytest.raises(ValueError):
        # c2 beyond rank 1
        BundleClass(1, pe.one() + pe.gen("z") + pe.gen("z") * pe.gen("a1"))


def test_c_indexing(pe):
    e = BundleClass(2, pe.one() + pe.parse("a1") + pe.parse("a2"))
    assert e.c(0) == pe.one()
    assert e.c(1) == pe.parse("a1")
    assert e.c(2) == pe.parse("a2")
    assert e.c(3) == pe.zero()
    assert e.top_chern() == pe.parse("a2")


def test_whitney_sum(pe):
    l1 = BundleClass.line(pe.gen("z"))
    l2 = BundleClass.line(pe.gen("a1"))
    s = l1.whitney(l2)
    assert s.rank == 2
    assert s.c1 == pe.parse("z + a1")
    assert s.c(2) == pe.parse("a1*z")


def test_inverse_total(pe):
    e = BundleClass(2, pe.one() + pe.parse("a1") + pe.parse("a2"))
    inv = e.inverse_total()
    assert (e.total * inv).canonical() == "1"


def test_inverse_total_upto(pe):
    e = BundleClass(2, pe.one() + pe.parse("a1") + pe.parse("a2"))
    full = e.inverse_total()
    for d in range(0, 10):
        want = pe.zero()
        for deg, piece in full.graded_pieces():
            if deg <= d:
                want = want + piece
        assert e.inverse_total(upto=d) == want
    with pytest.raises(ValueError):
        e.inverse_total(upto=-1)
    # upto alone bounds the series, so no truncation is needed
    ring = pe.ring
    free_of_cap = RingPresentation(ring.generators, ring.square_rules,
                                   rewrite_order=ring.rewrite_order)
    f = BundleClass(2, free_of_cap.parse("1 + a1 + a2"))
    with pytest.raises(ValueError):
        f.inverse_total()
    inv = f.inverse_total(upto=3)
    assert inv == free_of_cap.parse("1 - a1 + a1**2 - a2 - a1**3 + 2*a1*a2")


def _excess_reference(n_ambient, n_component):
    drop = n_ambient.rank - n_component.rank
    return (n_ambient.total * n_component.inverse_total()).graded_part(drop)


@pytest.mark.parametrize("truncation", [3, 4, 6])
@pytest.mark.parametrize("g", [None, 0, 5])
def test_excess_class_on_tt_chain_bundles(truncation, g):
    # the alpha-Y stage of the tt chain: P^2(W) on the q factor restricted
    # to the diagonal, over the relative tangent bundle of PE/B
    xt = build_space("Xtilde3", g=g, truncation=truncation)
    ctx = build_space("X3", g=g, truncation=truncation)
    p2_q = principal_parts_chern(xt.cls("c1W_q"), xt.cls("c1Omega_vert_q"), 2)
    n_ambient = BundleClass(3, diagonal(xt, p2_q.total))
    n_component = BundleClass.line(
        2 * ctx.gen("zeta_p") - ctx.cls("c1E")).whitney(
        BundleClass.line(2 * ctx.gen("z")))
    alpha = excess_class(n_ambient, n_component)
    assert alpha == _excess_reference(n_ambient, n_component)
    assert not alpha.is_zero()


def _random_bundle(ctx, rng, rank):
    names = ["zeta_p", "z", "a1", "a2p"]
    bundle = BundleClass(0, ctx.one())
    for _ in range(rank):
        c1 = ctx.zero()
        for name in names:
            c1 = c1 + rng.randint(-3, 3) * ctx.gen(name)
        if rng.random() < 0.5:
            c1 = c1 + ctx.parse("g*z")
        bundle = bundle.whitney(BundleClass.line(c1))
    return bundle


@pytest.mark.parametrize("truncation", [2, 4, 6])
def test_excess_class_on_random_bundles(truncation):
    rng = random.Random(20250507 + truncation)
    pe = build_space("PE", truncation=truncation)
    for _ in range(10):
        rank_c = rng.randint(1, 2)
        rank_a = rank_c + rng.randint(0, 2)
        n_ambient = _random_bundle(pe, rng, rank_a)
        n_component = _random_bundle(pe, rng, rank_c)
        assert excess_class(n_ambient, n_component) == \
            _excess_reference(n_ambient, n_component)


def test_excess_class(pe):
    ambient = BundleClass(2, (pe.one() + pe.gen("z"))
                          * (pe.one() + pe.gen("a1")))
    sub = BundleClass.line(pe.gen("z"))
    assert excess_class(ambient, sub) == pe.gen("a1")
    with pytest.raises(ValueError):
        excess_class(sub, ambient)


def test_principal_parts_chern(pe):
    line_c1 = pe.parse("3*zeta_p - a1 - (g+2)*z")
    omega_c1 = pe.parse("-2*zeta_p + a1 + (g+2)*z")
    p0 = principal_parts_chern(line_c1, omega_c1, 0)
    assert p0.rank == 1 and p0.c1 == line_c1
    p2 = principal_parts_chern(line_c1, omega_c1, 2)
    assert p2.rank == 3
    # c1 of the order-2 bundle: 3*L + (0+1+2)*omega
    assert p2.c1 == 3 * line_c1 + 3 * omega_c1
