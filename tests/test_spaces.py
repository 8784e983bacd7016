"""The bundle tower: presentations per space, named classes, lifts,
pushforwards, and the projection formula below the truncation cutoff."""

import random

import pytest

from chowkit.ring import G
from chowkit.spaces import (SPACE_IDS, build_space, diagonal, lift,
                            pushforward)

TRUNC = 12


@pytest.fixture(scope="module")
def spaces():
    return {sid: build_space(sid, truncation=TRUNC) for sid in SPACE_IDS}


def test_space_ids():
    assert SPACE_IDS == ("B", "P", "PE", "X111", "X3", "Xtilde3")
    with pytest.raises(ValueError):
        build_space("nope")


def test_generator_orders(spaces):
    orders = {sid: [gq.name for gq in spaces[sid].ring.generators]
              for sid in SPACE_IDS}
    assert orders["B"] == ["a1", "a2", "a2p", "c2"]
    assert orders["P"] == ["z", "a1", "a2", "a2p", "c2"]
    assert orders["PE"] == ["zeta_p", "z", "a1", "a2", "a2p", "c2"]
    assert orders["X3"] == orders["PE"]
    assert orders["X111"] == ["zeta_p", "zeta_q", "z", "a1", "a2", "a2p", "c2"]
    assert orders["Xtilde3"] == orders["X111"]
    # the normal form does not depend on the rewrite order, but the work
    # of reaching it does
    rewrite = {sid: spaces[sid].ring.rewrite_order for sid in SPACE_IDS}
    assert rewrite == {"B": (), "P": ("z",), "PE": ("zeta_p", "z"),
                       "X3": ("zeta_p", "z"),
                       "X111": ("zeta_q", "zeta_p", "z"),
                       "Xtilde3": ("zeta_q", "zeta_p", "z")}


def test_build_space_caches():
    assert build_space("PE") is build_space("PE")
    assert build_space("PE", g=4) is build_space("PE", g=4)
    assert build_space("PE") is not build_space("PE", g=4)


def test_caches_stay_bounded_over_a_genus_sweep(monkeypatch):
    """Only the symbolic contexts and those of the latest genus stay
    cached, and each symbolic ring keeps one specialization."""
    import chowkit.spaces as spaces_mod
    from chowkit.cli import main
    monkeypatch.delenv("CHOWKIT_TRUNCATION", raising=False)
    monkeypatch.setattr(spaces_mod, "_CACHE", {})
    assert main(["verify", "--g", "0..40"]) == 0
    cache = spaces_mod._CACHE
    assert len(cache) <= 12
    assert {g for _, g, _ in cache} == {None, 40}
    for (_, g, _), ctx in cache.items():
        if g is None:
            assert len(ctx.ring._specialized) <= 1


def test_specialized_space(spaces):
    pe4 = build_space("PE", g=4)
    assert pe4.g_value == 4
    zeta = pe4.gen("zeta_p")
    assert (zeta * zeta).canonical() == "6*z*zeta_p + a1*zeta_p - a2 - a2p*z"


def test_named_classes_one_point(spaces):
    pe = spaces["PE"]
    assert pe.cls("c1E").canonical() == "(g+2)*z + a1"
    assert pe.cls("c2E").canonical() == "a2 + a2p*z"
    assert pe.cls("c1Omega_base").canonical() == "-2*z"
    assert pe.cls("c1W").canonical() == "3*zeta_p - (g+2)*z - a1"
    assert pe.cls("c1Omega_vert").canonical() == "-2*zeta_p + (g+2)*z + a1"
    assert pe.cls("c1T_rel_B").canonical() == "2*zeta_p - g*z - a1"
    assert pe.cls("c1Q").canonical() == "zeta_p - (g+2)*z - a1"
    # the twins PE/X3 and X111/Xtilde3 share one presentation and carry
    # the same named classes, symbolic and specialized
    for one, twin in (("PE", "X3"), ("X111", "Xtilde3")):
        for g in (None, 0, 3):
            a = build_space(one, g=g, truncation=TRUNC)
            b = build_space(twin, g=g, truncation=TRUNC)
            assert a.ring == b.ring
            assert a.ring.rewrite_order == b.ring.rewrite_order
            assert list(a.named_classes) == list(b.named_classes)
            for name, value in a.named_classes.items():
                assert b.cls(name) == value
                assert b.cls(name).canonical() == value.canonical()


def test_named_classes_two_point(spaces):
    x111 = spaces["X111"]
    assert x111.cls("c1W_p").canonical() == "3*zeta_p - (g+2)*z - a1"
    assert x111.cls("c1W_q").canonical() == "3*zeta_q - (g+2)*z - a1"
    assert x111.cls("c1Q_q").canonical() == "zeta_q - (g+2)*z - a1"
    assert x111.cls("c1Omega_vert_q").canonical() == \
        "-2*zeta_q + (g+2)*z + a1"
    with pytest.raises(KeyError):
        x111.cls("c1W")


def test_base_and_p_have_no_zeta_rules(spaces):
    b = spaces["B"]
    assert (b.gen("a1") ** 2).canonical() == "a1**2"
    p = spaces["P"]
    assert (p.gen("z") ** 2).canonical() == "-c2"


def test_both_zetas_reduce(spaces):
    x111 = spaces["X111"]
    zp, zq = x111.gen("zeta_p"), x111.gen("zeta_q")
    want = "(g+2)*z*{v} + a1*{v} - a2 - a2p*z"
    assert (zp * zp).canonical() == want.format(v="zeta_p")
    assert (zq * zq).canonical() == want.format(v="zeta_q")
    # mixed monomials are normal forms, factors in reverse generator order
    assert (zp * zq).canonical() == "zeta_q*zeta_p"


def test_lift_injects(spaces):
    b, pe = spaces["B"], spaces["PE"]
    up = lift(b.parse("a1 + a2p"), pe)
    assert up.canonical() == "a1 + a2p"
    assert up.ring is pe.ring
    with pytest.raises(ValueError):
        lift(pe.gen("zeta_p"), spaces["P"])


def test_lift_rename(spaces):
    pe, x111 = spaces["PE"], spaces["X111"]
    as_q = lift(pe.cls("c1W"), x111, rename={"zeta_p": "zeta_q"})
    assert as_q == x111.cls("c1W_q")


def test_pushforward_gamma_section_rule(spaces):
    pe, p = spaces["PE"], spaces["P"]
    beta = p.parse("z + a1")
    lifted = lift(beta, pe)
    assert pushforward(pe, lifted, "gamma") == p.zero()
    assert pushforward(pe, lifted * pe.gen("zeta_p"), "gamma") == beta


def test_pushforward_gamma_degree_shift(spaces):
    pe = spaces["PE"]
    zeta = pe.gen("zeta_p")
    assert pushforward(pe, zeta, "gamma").canonical() == "1"
    assert pushforward(pe, zeta * zeta, "gamma").canonical() == \
        "(g+2)*z + a1"


def test_pushforward_pi(spaces):
    p, b = spaces["P"], spaces["B"]
    elem = p.parse("3*a2p*z + a2")
    assert pushforward(p, elem, "pi") == b.parse("3*a2p")
    with pytest.raises(ValueError):
        pushforward(spaces["PE"], spaces["PE"].gen("z"), "pi")


def test_pushforward_gamma_then_pi(spaces):
    pe, p, b = spaces["PE"], spaces["P"], spaces["B"]
    elem = pe.parse("3*a2p*z*zeta_p + a2*zeta_p")
    assert pushforward(p, pushforward(pe, elem, "gamma"), "pi") == \
        b.parse("3*a2p")
    # the gamma step has no zeta_q here
    with pytest.raises(ValueError, match="zeta_q"):
        pushforward(pe, elem, "gamma", zeta="zeta_q")
    # both one-point spaces take the weighted square to the same number
    for sid in ("PE", "X3"):
        ctx = spaces[sid]
        mid = pushforward(ctx, _weighted_square(ctx), "gamma")
        got = pushforward(p, mid, "pi")
        assert got.ring is b.ring
        assert got.canonical() == "(4*g+20)"
    # one gamma step from a two-zeta space lands on PE or X3, not on P
    for sid, below in (("X111", "PE"), ("Xtilde3", "X3")):
        mid = pushforward(spaces[sid], spaces[sid].one(), "gamma")
        with pytest.raises(ValueError, match=f"not {below}$"):
            pushforward(spaces[below], mid, "pi")


def test_pushforward_two_point(spaces):
    x111, pe = spaces["X111"], spaces["PE"]
    zp, zq = x111.gen("zeta_p"), x111.gen("zeta_q")
    # extracting zeta_q leaves a one-point class in zeta_p
    assert pushforward(x111, zp * zq, "gamma", zeta="zeta_q") == \
        pe.gen("zeta_p")
    # extracting zeta_p renames the survivor zeta_q -> zeta_p
    assert pushforward(x111, zp * zq, "gamma", zeta="zeta_p") == \
        pe.gen("zeta_p")


def test_lift_zeta_q_free_to_one_point(spaces):
    x111, pe = spaces["X111"], spaces["PE"]
    elem = x111.parse("zeta_p + 2*z")
    assert lift(elem, pe) == pe.parse("zeta_p + 2*z")
    with pytest.raises(ValueError):
        lift(x111.gen("zeta_q"), pe)


#: (space, map, zeta) -> (space of the result, canonical text) of every
#: pushforward of _weighted_square that succeeds; all others raise
#: ValueError.
_PUSHFORWARDS = {
    ("P", "pi", "zeta_p"): ("B", "16*a2 + 24*c2 + 12*a1 + 20*a2p + 4"),
    ("PE", "gamma", "zeta_p"):
        ("P", "20*a2 + 28*c2 + (4*g+20)*z + 20*a1 + 24*a2p + 4"),
    ("X111", "gamma", "zeta_p"):
        ("PE", "24*a2 + 32*c2 + 12*zeta_p + (4*g+24)*z + 24*a1 + 28*a2p + 4"),
    ("X111", "gamma", "zeta_q"):
        ("PE", "36*a2 + 48*c2 + 12*zeta_p + (9*g+42)*z + 39*a1 + 42*a2p + 6"),
    ("X3", "gamma", "zeta_p"):
        ("P", "20*a2 + 28*c2 + (4*g+20)*z + 20*a1 + 24*a2p + 4"),
    ("Xtilde3", "gamma", "zeta_p"):
        ("X3", "24*a2 + 32*c2 + 12*zeta_p + (4*g+24)*z + 24*a1 + 28*a2p + 4"),
    ("Xtilde3", "gamma", "zeta_q"):
        ("X3", "36*a2 + 48*c2 + 12*zeta_p + (9*g+42)*z + 39*a1 + 42*a2p + 6"),
}


def _weighted_square(ctx):
    """(1 + 2*x0 + 3*x1 + ...)**2 over the generators x0, x1, ... of the
    space: every generator, zeta_q included, with its own coefficient."""
    x = ctx.one()
    for i, gq in enumerate(ctx.ring.generators):
        x = x + (i + 2) * ctx.gen(gq.name)
    return x * x


@pytest.mark.parametrize("sid", SPACE_IDS)
def test_pushforward_table(spaces, sid):
    ctx = spaces[sid]
    elem = _weighted_square(ctx)
    for along in ("gamma", "pi", "gamma_then_pi", "eta_p", "sideways"):
        for zeta in ("zeta_p", "zeta_q"):
            want = _PUSHFORWARDS.get((sid, along, zeta))
            if want is None:
                with pytest.raises(ValueError):
                    pushforward(ctx, elem, along, zeta=zeta)
                continue
            got = pushforward(ctx, elem, along, zeta=zeta)
            assert got.ring is spaces[want[0]].ring, (along, zeta)
            assert got.canonical() == want[1], (along, zeta)


def test_unknown_map(spaces):
    with pytest.raises(ValueError):
        pushforward(spaces["PE"], spaces["PE"].one(), "sideways")


def test_diagonal(spaces):
    xt, x3 = spaces["Xtilde3"], spaces["X3"]
    elem = xt.parse("zeta_q + zeta_p - a1")
    assert diagonal(xt, elem) == x3.parse("2*zeta_p - a1")
    # two generators renamed to one multiply out by the target's rules
    assert lift(xt.gen("zeta_p") * xt.gen("zeta_q"), x3,
                {"zeta_q": "zeta_p"}) == x3.gen("zeta_p") ** 2
    with pytest.raises(ValueError):
        diagonal(spaces["X111"], spaces["X111"].one())


def _diagonal_by_substitution(xt, x3, element):
    """Reference diagonal: replace zeta_q by zeta_p term by term with
    Xtilde3 products, then carry the zeta_q-free result over to X3."""
    qi = xt.ring.index_of("zeta_q")
    zeta_p = xt.gen("zeta_p")
    total = xt.zero()
    for exps, coeff in element.terms.items():
        stripped = exps[:qi] + (0,) + exps[qi + 1:]
        total = total + xt.ring.element({stripped: coeff}) * zeta_p ** exps[qi]
    assert all(exps[qi] == 0 for exps in total.terms)
    return x3.ring.element({exps[:qi] + exps[qi + 1:]: coeff
                            for exps, coeff in total.terms.items()})


@pytest.mark.parametrize("truncation", [4, 6])
@pytest.mark.parametrize("g", [None, 0, 7, 1500])
def test_diagonal_matches_substitution(truncation, g):
    xt = build_space("Xtilde3", g=g, truncation=truncation)
    x3 = build_space("X3", g=g, truncation=truncation)
    names = [gq.name for gq in xt.ring.generators]
    rng = random.Random(truncation * 10007 + (-1 if g is None else g))
    for _ in range(30):
        elem = xt.zero()
        for _ in range(rng.randint(1, 5)):
            coeff = rng.randint(-5, 5)
            if g is None:
                coeff = coeff + rng.randint(-3, 3) * G
            term = xt.const(coeff)
            for _ in range(rng.randint(0, truncation)):
                term = term * xt.gen(rng.choice(names))
            elem = elem + term
        got = diagonal(xt, elem)
        want = _diagonal_by_substitution(xt, x3, elem)
        assert got.ring is x3.ring
        assert got == want
        assert got.canonical() == want.canonical()


def test_projection_formula_below_truncation(spaces):
    pe, p = spaces["PE"], spaces["P"]
    rng = random.Random(7)
    p_names = [gq.name for gq in p.ring.generators]
    pe_names = [gq.name for gq in pe.ring.generators]
    for _ in range(40):
        beta = p.zero()
        alpha = pe.zero()
        for _ in range(rng.randint(1, 3)):
            t = p.const(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                t = t * p.gen(rng.choice(p_names))
            beta = beta + t
        for _ in range(rng.randint(1, 3)):
            t = pe.const(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                t = t * pe.gen(rng.choice(pe_names))
            alpha = alpha + t
        lhs = pushforward(pe, lift(beta, pe) * alpha, "gamma")
        rhs = beta * pushforward(pe, alpha, "gamma")
        assert lhs == rhs


def test_truncation_env_override(monkeypatch):
    import chowkit.spaces as spaces_mod
    monkeypatch.setenv("CHOWKIT_TRUNCATION", "2")
    spaces_mod._CACHE.clear()
    try:
        pe = build_space("PE")
        assert pe.truncation == 2
        assert (pe.gen("zeta_p") ** 3).is_zero()
    finally:
        spaces_mod._CACHE.clear()


def test_default_truncation():
    import chowkit.spaces as spaces_mod
    spaces_mod._CACHE.clear()
    try:
        assert build_space("PE").truncation == 4
    finally:
        spaces_mod._CACHE.clear()
