"""Unit tests for the graded ring core: coefficients, presentations,
normalization, and the canonical string format."""

import hashlib
import random
import time
from fractions import Fraction
from math import isqrt, lcm

import pytest

from chowkit.ring import ChowElement, G, Generator, ParamPoly, RingPresentation


def poly(*coeffs):
    return ParamPoly(tuple(Fraction(c) for c in coeffs))


def _divisor_roots(p):
    """Reference for ParamPoly.nonneg_integer_roots, by the rational root
    theorem: with denominators cleared and g**k factored out, a positive
    integer root divides the constant term and lies within the Cauchy
    bound.  Trial division up to the square root of the constant term
    keeps it to small constants."""
    scale = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * scale) for c in p.coeffs]
    q = ints[next(i for i, c in enumerate(ints) if c):]
    bound = 1 + max(map(abs, q[:-1]), default=0) // abs(q[-1])
    const = abs(q[0])
    candidates = {0}
    for d in range(1, min(isqrt(const), bound) + 1):
        if const % d == 0:
            candidates.update((d, const // d))
    return sorted(r for r in candidates if r <= bound and p(r) == 0)


class TestParamPoly:
    def test_construction_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero()
        assert not poly(0, 1).is_zero()

    def test_arithmetic(self):
        a = poly(1, 2)
        b = poly(3, 0, 1)
        assert a + b == poly(4, 2, 1)
        assert a - b == poly(-2, 2, -1)
        assert a * b == poly(3, 6, 1, 2)
        assert 2 * a == poly(2, 4)
        assert a * Fraction(1, 2) == poly(Fraction(1, 2), 1)
        assert -a == poly(-1, -2)
        assert (a ** 2) == poly(1, 4, 4)

    def test_mixed_with_foreign_type_raises(self):
        with pytest.raises(TypeError):
            poly(1) + "g"

    def test_divmod_and_exact_div(self):
        num = poly(-36, -108, -72)
        den = poly(1, 1)
        q, r = num.divmod(den)
        assert r.is_zero()
        assert q * den == num
        assert num.exact_div(den) == q
        with pytest.raises(ValueError):
            poly(1, 1).exact_div(poly(0, 1))
        with pytest.raises(ZeroDivisionError):
            poly(1, 1).divmod(poly(0))

    def test_call_is_evaluation(self):
        p = poly(-36, -108, -72)
        assert p(0) == -36
        assert p(1) == -216
        assert p(Fraction(-1, 2)) == 0

    def test_nonneg_integer_roots(self):
        assert poly(-6, 5, -1).nonneg_integer_roots() == [2, 3]
        assert poly(-36, -108, -72).nonneg_integer_roots() == []
        assert poly(0, 1).nonneg_integer_roots() == [0]
        with pytest.raises(ValueError):
            poly(0).nonneg_integer_roots()

    def test_nonneg_integer_roots_have_no_cap(self):
        assert poly(-2000000, 1).nonneg_integer_roots() == [2000000]
        # the Cauchy bound is above 10**7, yet there is no root
        p = poly(Fraction(10000001, 10 ** 7), Fraction(1, 10 ** 7))
        assert p.nonneg_integer_roots() == []
        big = poly(-(10 ** 12 + 39), 1) * poly(-3, 1) * poly(0, 0, 1)
        assert big.nonneg_integer_roots() == [0, 3, 10 ** 12 + 39]

    def test_nonneg_integer_roots_of_huge_constants(self):
        """Sturm isolation does not grow with the constant term: trial
        division up to its square root would run for years here."""
        far = 10 ** 40 + 3
        cases = [((G - far) * (G + 1), [far]),
                 (G ** 2 + 10 ** 40, []),
                 (G ** 2 * (G - 15) * (G + 3), [0, 15])]
        for p, want in cases:
            start = time.perf_counter()
            assert p.nonneg_integer_roots() == want
            assert time.perf_counter() - start < 0.1

    def test_nonneg_integer_roots_match_divisor_reference(self):
        rng = random.Random(5)
        for _ in range(400):
            factors = [poly(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))
                       for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:  # an irreducible quadratic
                factors.append(poly(rng.randint(1, 9), 0, 1))
            if rng.random() < 0.3:  # a repeated root
                factors.append(factors[0])
            p = rng.randint(1, 5) * ParamPoly.const(1)
            for f in factors:
                p = p * f
            if p.is_zero():
                continue
            assert p.nonneg_integer_roots() == _divisor_roots(p), p

    def test_nonvanishing_for_nonneg_g(self):
        assert poly(2, 2).nonvanishing_for_nonneg_g()
        assert poly(-2, -2).nonvanishing_for_nonneg_g()
        assert not poly(0, 1).nonvanishing_for_nonneg_g()
        assert not poly(0).nonvanishing_for_nonneg_g()

    def test_str_compact_descending(self):
        assert str(poly(-36, -108, -72)) == "-72*g**2-108*g-36"
        assert str(poly(2, 1)) == "g+2"
        assert str(poly(12, 8)) == "8*g+12"
        assert str(poly(0, 1)) == "g"
        assert str(poly(0)) == "0"
        assert str(poly(Fraction(1, 2))) == "1/2"

    def test_module_constant_g(self):
        assert G == poly(0, 1)
        assert (G + 2) * (G + 1) == poly(2, 3, 1)


class TestGenerator:
    def test_validation(self):
        Generator("zeta_p", 1)
        with pytest.raises(ValueError):
            Generator("g", 1)
        with pytest.raises(ValueError):
            Generator("2bad", 1)
        with pytest.raises(ValueError):
            Generator("x", 0)


def base_ring(truncation=4):
    return RingPresentation(
        generators=(Generator("a1", 1), Generator("a2", 2),
                    Generator("a2p", 1), Generator("c2", 2)),
        truncation_degree=truncation,
    )


def pe_ring(truncation=4):
    gens = (Generator("zeta_p", 1), Generator("z", 1), Generator("a1", 1),
            Generator("a2", 2), Generator("a2p", 1), Generator("c2", 2))
    z_sq = {(0, 0, 0, 0, 0, 1): ParamPoly.const(-1)}
    zeta_sq = {
        (1, 0, 1, 0, 0, 0): ParamPoly.const(1),
        (1, 1, 0, 0, 0, 0): G + 2,
        (0, 0, 0, 1, 0, 0): ParamPoly.const(-1),
        (0, 1, 0, 0, 1, 0): ParamPoly.const(-1),
    }
    return RingPresentation(
        generators=gens,
        square_rules={"z": z_sq, "zeta_p": zeta_sq},
        truncation_degree=truncation,
        rewrite_order=("zeta_p", "z"),
    )


class TestPresentation:
    def test_rule_validation_rejects_inhomogeneous(self):
        gens = (Generator("z", 1), Generator("a1", 1))
        with pytest.raises(ValueError):
            RingPresentation(gens, square_rules={
                "z": {(1, 0): ParamPoly.const(1)}})

    def test_rule_validation_rejects_self_square(self):
        gens = (Generator("z", 1), Generator("a2", 2))
        with pytest.raises(ValueError):
            RingPresentation(gens, square_rules={
                "z": {(2, 0): ParamPoly.const(1)}})

    def test_rule_validation_rejects_earlier_ruled_generator(self):
        gens = (Generator("zeta_p", 1), Generator("z", 1))
        # the rule for z may not mention zeta_p squared away earlier
        with pytest.raises(ValueError):
            RingPresentation(gens, square_rules={
                "zeta_p": {(0, 2): ParamPoly.const(1)},
                "z": {(2, 0): ParamPoly.const(1)},
            })

    def test_rewrite_order_must_permute_ruled(self):
        with pytest.raises(ValueError):
            pe = pe_ring()
            pe.with_rewrite_order(("zeta_p",))

    def test_specialize_caches(self):
        pe = pe_ring()
        assert pe.specialize(4) is pe.specialize(4)
        assert pe.specialize(4) is not pe.specialize(5)


class TestNormalization:
    def test_z_square_rule(self):
        pe = pe_ring()
        z = pe.gen("z")
        assert (z * z).canonical() == "-c2"
        assert (z ** 3).canonical() == "-c2*z"

    def test_zeta_square_rule(self):
        pe = pe_ring()
        zeta = pe.gen("zeta_p")
        assert (zeta * zeta).canonical() == \
            "(g+2)*z*zeta_p + a1*zeta_p - a2 - a2p*z"

    def test_zeta_cubed(self):
        pe = pe_ring()
        zeta = pe.gen("zeta_p")
        cube = zeta ** 3
        # A*zeta^2 - B*zeta with zeta^2 reduced again, z^2 -> -c2
        expect = ((pe.gen("a1") + (pe.const(G + 2)) * pe.gen("z"))
                  * (zeta * zeta)
                  - (pe.gen("a2") + pe.gen("a2p") * pe.gen("z")) * zeta)
        assert cube == expect
        # the cube left the free presentation: re-normalizing its free
        # image reproduces it
        assert pe.element(cube.in_free().terms) == cube

    def test_truncation_drops_high_degree(self):
        pe = pe_ring(truncation=2)
        zeta = pe.gen("zeta_p")
        assert (zeta ** 3).is_zero()
        assert not (zeta ** 2).is_zero()

    def test_free_ring_keeps_squares(self):
        pe = pe_ring(truncation=8)
        free = pe.free()
        zeta = free.gen("zeta_p")
        assert (zeta * zeta).canonical() == "zeta_p**2"
        assert pe.element((zeta * zeta).terms).canonical() == \
            "(g+2)*z*zeta_p + a1*zeta_p - a2 - a2p*z"


class TestElementApi:
    def test_immutable(self):
        pe = pe_ring()
        e = pe.gen("z")
        with pytest.raises(AttributeError):
            e.terms = {}

    def test_cross_ring_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            pe_ring().gen("z") + base_ring().gen("a1")

    def test_degree_and_homogeneity(self):
        pe = pe_ring()
        z, a2 = pe.gen("z"), pe.gen("a2")
        assert z.degree() == 1
        assert a2.degree() == 2
        assert pe.zero().degree() is None
        mixed = z + a2
        assert not mixed.is_homogeneous()
        assert mixed.graded_part(1) == z
        assert mixed.graded_part(2) == a2
        assert dict(mixed.graded_pieces()) == {1: z, 2: a2}

    def test_coefficient_extraction(self):
        pe = pe_ring()
        e = pe.parse("3*a2p*z - 2*z + a1")
        assert e.coefficient(a2p=1, z=1) == ParamPoly.const(3)
        assert e.coefficient(z=1) == ParamPoly.const(-2)
        assert e.coefficient(a1=1) == ParamPoly.const(1)
        assert e.coefficient(c2=1) == ParamPoly.const(0)

    def test_split_linear(self):
        pe = pe_ring()
        e = pe.parse("a1 + 3*a2p*z")
        p0, p1 = e.split_linear("z")
        assert p0 == pe.parse("a1")
        assert p1 == pe.parse("3*a2p")
        assert e == p0 + pe.gen("z") * p1

    def test_evaluate(self):
        pe = pe_ring()
        e = pe.parse("(g+2)*z - a1")
        at4 = e.evaluate(4)
        assert at4.ring is pe.specialize(4)
        assert at4.canonical() == "6*z - a1"

    def test_division(self):
        pe = pe_ring()
        e = pe.parse("2*z")
        assert (e / 2).canonical() == "z"
        with pytest.raises(ZeroDivisionError):
            e / 0
        with pytest.raises(TypeError):
            e / pe.gen("z")

    def test_scalar_equality(self):
        pe = pe_ring()
        assert pe.one() == 1
        assert pe.zero() == 0
        assert pe.const(G + 2) == G + 2


class TestCanonicalFormat:
    def test_sign_and_coefficient_rules(self):
        pe = pe_ring()
        assert pe.parse("-zeta_p").canonical() == "-zeta_p"
        assert pe.parse("a1 - a2p").canonical() == "a1 - a2p"
        assert pe.parse("(g+2)*z").canonical() == "(g+2)*z"
        assert pe.parse("3*z").canonical() == "3*z"
        assert (pe.const(G + 2)).canonical() == "(g+2)"
        assert (pe.const(Fraction(8)) * pe.one()).canonical() == "8"
        assert (pe.parse("z") / 2).canonical() == "1/2*z"

    def test_factor_order_is_reverse_generator_order(self):
        pe = pe_ring()
        e = pe.gen("zeta_p") * pe.gen("z") * pe.gen("a1")
        assert e.canonical() == "a1*z*zeta_p"

    def test_grevlex_term_order(self):
        pe = pe_ring()
        zeta = pe.gen("zeta_p")
        # degree-2 before degree-1; within degree 2, the tie-break puts
        # z*zeta_p ahead of a1*zeta_p and those ahead of pure base terms
        assert (zeta * zeta + pe.gen("a1")).canonical() == \
            "(g+2)*z*zeta_p + a1*zeta_p - a2 - a2p*z + a1"

    def test_format_example_is_zeta_sq_minus_a1_zeta(self):
        pe = pe_ring()
        zeta, a1 = pe.gen("zeta_p"), pe.gen("a1")
        trimmed = zeta * zeta - a1 * zeta
        assert trimmed.canonical() == "(g+2)*z*zeta_p - a2 - a2p*z"

    def test_zero(self):
        assert pe_ring().zero().canonical() == "0"


class TestParser:
    def test_round_trip(self):
        pe = pe_ring()
        for text in [
            "zeta_p + zeta_q - (g+2)*z - a1".replace("zeta_q", "z"),
            "(g+2)*z*zeta_p + a1*zeta_p - a2 - a2p*z",
            "-72*g**2*a1",
            "3*a2 + 3*a2p*z",
            "0",
        ]:
            e = pe.parse(text)
            assert pe.parse(e.canonical()) == e

    def test_parse_normalizes(self):
        pe = pe_ring()
        assert pe.parse("zeta_p**2") == pe.gen("zeta_p") ** 2
        assert pe.parse("z*z") == pe.gen("z") * pe.gen("z")

    def test_parse_g_and_rationals(self):
        pe = pe_ring()
        assert pe.parse("g*z") == pe.const(G) * pe.gen("z")
        assert pe.parse("z/2") == pe.gen("z") / 2
        assert pe.parse("(g+2)*(g+1)") == pe.const((G + 2) * (G + 1))

    def test_parse_errors(self):
        pe = pe_ring()
        with pytest.raises(ValueError):
            pe.parse("bogus_gen")
        with pytest.raises(ValueError):
            pe.parse("z +")
        with pytest.raises(ValueError):
            pe.parse("z z")
        with pytest.raises(ValueError):
            pe.parse("z**a1")
        with pytest.raises(ValueError):
            pe.parse("1/z")


class TestConfluence:
    def test_reversed_scan_order_same_normal_form(self):
        pe = pe_ring()
        alt = pe.with_rewrite_order(("z", "zeta_p"))
        probes = ["zeta_p**2*z**2", "(zeta_p + z)**3",
                  "(zeta_p - a1)*(z + a2p)*zeta_p"]
        for text in probes:
            assert pe.parse(text).canonical() == alt.parse(text).canonical()


class TestDeepPowers:
    """x**T on X111 for x = sum of c_i * generator_i with c_i in Z[g], as
    the benchmark's deep-truncation workload builds it, for two fixed sign
    choices.  The hashes are of the canonical strings before non-constant
    coefficients were stored as ints."""

    SIGNS = {(1, 1, 1, 1, 1, 1): {
        8: "95bcb3df7b48722794dba6af964a9cca2156f4697138999ac67a8ccc0fee1aca",
        10: "80bc3938aae11205d3bb88345a84bfd60a5f0ebb2605ae8c226702f7d597db01",
        12: "9a096ea576b84b3b6d99fa4412477462f8b70ffdbd9805e300e2981d010128bd",
    }, (-1, 1, -1, -1, 1, -1): {
        8: "6c7d510356c7df8d97ed5568db04e4aaaa35b45b37785042512a93235047e486",
        10: "b11777733a4a8666b71498caf107d6dcde917e1867197422cbe01828d71b30cc",
        12: "6fd3c9b22ea848f0bc811d1c1941acfad97d87125072dc7e16ca1bf4fe958177",
    }}

    @staticmethod
    def deep_x(s, truncation):
        from chowkit.spaces import build_space
        coeffs = {"zeta_p": (s[0], 0), "zeta_q": (2 * s[1], 0),
                  "z": (2 * s[3], s[2]), "a1": (3 * s[4], 0),
                  "a2p": (s[5], 0)}
        ctx = build_space("X111", truncation=truncation)
        x = ctx.zero()
        for name, (c0, c1) in coeffs.items():
            x = x + ctx.gen(name) * (G * c1 + c0)
        return x

    @pytest.mark.parametrize("signs", list(SIGNS))
    def test_canonical_hashes(self, signs):
        for t, want in self.SIGNS[signs].items():
            power = self.deep_x(signs, t) ** t
            text = power.canonical().encode()
            assert hashlib.sha256(text).hexdigest() == want, t
        # the integer kernel hands its ints to the result: no coefficient
        # of a non-constant is a Fraction with denominator 1
        polys = [c for c in power.terms.values() if not c.is_const()]
        assert polys
        assert all(type(c) is int for p in polys for c in p.coeffs)
