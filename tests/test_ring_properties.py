"""Randomized algebraic laws for the ring core.

Strategies build elements of the two-square-rule presentation from small
integer coefficients so products stay inside the truncation window.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, strategies as st

from chowkit.ring import ChowElement, G, Generator, ParamPoly, RingPresentation
from chowkit.spaces import build_space

_GENS = (Generator("zeta_p", 1), Generator("z", 1), Generator("a1", 1),
         Generator("a2", 2), Generator("a2p", 1), Generator("c2", 2))
_Z_SQ = {(0, 0, 0, 0, 0, 1): ParamPoly.const(-1)}
_ZETA_SQ = {
    (1, 0, 1, 0, 0, 0): ParamPoly.const(1),
    (1, 1, 0, 0, 0, 0): G + 2,
    (0, 0, 0, 1, 0, 0): ParamPoly.const(-1),
    (0, 1, 0, 0, 1, 0): ParamPoly.const(-1),
}

RING = RingPresentation(
    generators=_GENS,
    square_rules={"zeta_p": _ZETA_SQ, "z": _Z_SQ},
    truncation_degree=12,
    rewrite_order=("zeta_p", "z"),
)

coeffs = st.integers(min_value=-4, max_value=4)
scalars = st.fractions(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=3))


@st.composite
def elements(draw, ring=RING, max_terms=4):
    names = [gq.name for gq in ring.generators]
    total = ring.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        term = ring.const(Fraction(draw(coeffs)))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            term = term * ring.gen(draw(st.sampled_from(names)))
        total = total + term
    return total


@given(elements(), elements(), elements())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RING.zero() == a
    assert a * RING.one() == a
    assert a - a == RING.zero()


@given(elements())
def test_canonical_round_trip(a):
    assert RING.parse(a.canonical()) == a


@given(elements())
def test_double_negation_and_scalar(a):
    assert -(-a) == a
    assert 2 * a == a + a
    assert (a / 2) * 2 == a


@given(elements(), st.integers(min_value=0, max_value=9))
def test_evaluate_is_ring_map(a, g):
    b = RING.parse("zeta_p + (g+1)*z - a1")
    assert (a * b).evaluate(g) == a.evaluate(g) * b.evaluate(g)
    assert (a + b).evaluate(g) == a.evaluate(g) + b.evaluate(g)


@given(elements(), elements())
def test_grading_multiplicative(a, b):
    prod = a * b
    pieces = {}
    for da, pa in a.graded_pieces():
        for db, pb in b.graded_pieces():
            key = da + db
            pieces[key] = pieces.get(key, RING.zero()) + pa * pb
    rebuilt = RING.zero()
    for piece in pieces.values():
        rebuilt = rebuilt + piece
    assert rebuilt == prod


@given(elements())
def test_graded_parts_sum_to_element(a):
    total = RING.zero()
    for _, piece in a.graded_pieces():
        assert piece.is_homogeneous()
        total = total + piece
    assert total == a


@given(elements())
def test_confluence_under_scan_order(a):
    alt = RING.with_rewrite_order(("z", "zeta_p"))
    again = ChowElement(alt, dict(a.in_free().terms))
    assert again.canonical() == a.canonical()


@given(elements())
def test_reduce_idempotent(a):
    assert a.ring.element(a.terms) == a
    assert a.ring.element(a.in_free().terms) == a


def _with_truncation(ring, truncation):
    return RingPresentation(ring.generators, ring.square_rules,
                            truncation_degree=truncation,
                            rewrite_order=ring.rewrite_order)


#: the PE and X111 presentations at several truncations, and untruncated
CAPPED_RINGS = [
    pytest.param(_with_truncation(build_space(sid, truncation=4).ring, t),
                 id=f"{sid}-trunc{t}")
    for sid in ("PE", "X111") for t in (2, 4, 6, None)
]


def _full_product(a, b):
    """Reference product: every pair product, then one normalization."""
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, ParamPoly()) + c1 * c2
    return ChowElement(a.ring, acc)


@pytest.mark.parametrize("ring", CAPPED_RINGS)
@given(data=st.data())
def test_capped_product_matches_full_expansion(ring, data):
    a = data.draw(elements(ring))
    b = data.draw(elements(ring))
    assert a * b == _full_product(a, b)


@pytest.mark.parametrize("ring", CAPPED_RINGS)
@given(data=st.data(), upto=st.integers(min_value=0, max_value=7))
def test_mul_upto_keeps_low_graded_parts(ring, data, upto):
    a = data.draw(elements(ring))
    b = data.draw(elements(ring))
    want = ring.zero()
    for d, piece in _full_product(a, b).graded_pieces():
        if d <= upto:
            want = want + piece
    assert a.mul(b, upto=upto) == want


# -- the integer kernel of ParamPoly sums and products --


def _fraction_add(p, q):
    """ParamPoly.__add__ before the integer kernel: Fraction by Fraction."""
    n = max(len(p.coeffs), len(q.coeffs))
    a = p.coeffs + (Fraction(0),) * (n - len(p.coeffs))
    b = q.coeffs + (Fraction(0),) * (n - len(q.coeffs))
    return ParamPoly(tuple(x + y for x, y in zip(a, b)))


def _fraction_mul(p, q):
    """ParamPoly.__mul__ before the integer kernel: Fraction by Fraction."""
    if not p.coeffs or not q.coeffs:
        return ParamPoly()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return ParamPoly(out)


def _integer_form(coeffs):
    """(numerators, lcm of the denominators), straight from the Fractions."""
    d = 1
    for c in coeffs:
        d = d * c.denominator // gcd(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in coeffs], d


rationals = st.one_of(
    st.integers(min_value=-10**40, max_value=10**40),
    st.builds(Fraction,
              st.integers(min_value=-10**40, max_value=10**40),
              st.integers(min_value=1, max_value=12)))


@st.composite
def rational_pairs(draw):
    """Two polynomials of length 0-6; often the second cancels the first
    in some of its coefficients, or in all of them."""
    p = ParamPoly(draw(st.lists(rationals, max_size=6)))
    q = ParamPoly(draw(st.lists(rationals, max_size=6)))
    cancel = draw(st.lists(st.booleans(), min_size=len(p.coeffs),
                           max_size=len(p.coeffs)))
    if draw(st.booleans()):
        cs = list(q.coeffs) + [Fraction(0)] * (len(p.coeffs) - len(q.coeffs))
        for i, c in enumerate(p.coeffs):
            if cancel[i]:
                cs[i] = -c
        q = ParamPoly(cs)
    return p, q


def _assert_stored_form(p):
    """No float and no trailing zero; a non-constant stores its integral
    coefficients as ints and the others as Fractions with denominator > 1;
    a constant stores a Fraction."""
    assert not any(isinstance(c, float) for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    if len(p.coeffs) <= 1:
        assert all(type(c) is Fraction for c in p.coeffs)
    else:
        assert all(type(c) is int
                   or (type(c) is Fraction and c.denominator > 1)
                   for c in p.coeffs)


def _assert_normal(got, want):
    assert got.coeffs == want.coeffs
    _assert_stored_form(got)
    if got._ints is not None:
        assert got._ints == _integer_form(got.coeffs)
    assert got._integer_form() == _integer_form(got.coeffs)


@given(rational_pairs())
@example((ParamPoly([1, 2]), ParamPoly([3, 4])))
@example((ParamPoly([1, 2]), ParamPoly([-1, -2])))
@example((ParamPoly([Fraction(1, 2), 3]), ParamPoly([Fraction(1, 2), 1])))
@example((ParamPoly([5]), ParamPoly([0, Fraction(2, 3)])))
def test_integer_kernel_matches_fraction_arithmetic(pair):
    _assert_stored_form(pair[0])
    _assert_stored_form(pair[1])
    p, q = pair
    _assert_normal(p + q, _fraction_add(p, q))
    _assert_normal(p - q, _fraction_add(p, ParamPoly(-c for c in q.coeffs)))
    _assert_normal(p * q, _fraction_mul(p, q))
    # a second use reads the stored integer forms of the operands
    _assert_normal((p * q) * p, _fraction_mul(_fraction_mul(p, q), p))
    _assert_normal((p + q) + q, _fraction_add(_fraction_add(p, q), q))


# -- division, evaluation and roots keep the stored form, with no float --


def _ref_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_divmod(a, b):
    """Long division of Fraction lists, b's last entry nonzero."""
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(_ref_trim(rem)) >= len(b):
        k = len(rem) - len(b)
        f = rem[-1] / b[-1]
        quo[k] = f
        for i, c in enumerate(b):
            rem[k + i] -= f * c
    return _ref_trim(quo), rem


def _ref_eval(cs, x):
    return sum((c * x ** i for i, c in enumerate(cs)), Fraction(0))


def _ref_roots(cs):
    """Integer roots n >= 0 by the rational root theorem: with denominators
    cleared and g**k factored out, a positive root divides the lowest
    coefficient; candidates come from trial division to its square root."""
    low = next(n for n in _integer_form(cs)[0] if n)
    candidates = {0}
    for n in range(1, isqrt(abs(low)) + 1):
        if low % n == 0:
            candidates.update((n, abs(low) // n))
    return sorted(n for n in candidates if _ref_eval(cs, n) == 0)


small_rationals = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.builds(Fraction, st.integers(min_value=-30, max_value=30),
              st.integers(min_value=1, max_value=6)))


@st.composite
def factored_polys(draw):
    """A polynomial of length 0-3 times 0-3 factors a*g - b, so that
    integer, rational, negative and repeated roots turn up."""
    p = ParamPoly(draw(st.lists(small_rationals, max_size=3)))
    factors = st.tuples(st.integers(min_value=1, max_value=3),
                        st.integers(min_value=-8, max_value=15))
    for a, b in draw(st.lists(factors, max_size=3)):
        p = p * ParamPoly([-b, a])
    return p


def _assert_value(got, want):
    """got is a ParamPoly in stored form whose coefficients equal want."""
    _assert_stored_form(got)
    assert list(got.coeffs) == want


@given(factored_polys(), factored_polys(), small_rationals)
@example(ParamPoly([1, 2]), ParamPoly([3, 4]), 2)
@example(ParamPoly([-6, 2]), ParamPoly([3]), Fraction(1, 2))
@example(ParamPoly([-7, 2]), ParamPoly([1, 1, 1]), -1)
def test_division_paths_match_fraction_reference(p, q, x):
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    _assert_stored_form(p)
    _assert_value(-p, [-c for c in a])
    _assert_value(p._derivative(), [i * c for i, c in enumerate(a)][1:])
    if a:
        assert type(p.leading()) is Fraction and p.leading() == a[-1]
    if len(a) <= 1:
        value = p.const_value()
        assert type(value) is Fraction and value == (a[0] if a else 0)
    else:
        with pytest.raises(ValueError):
            p.const_value()
    value = p(x)
    assert type(value) is Fraction and value == _ref_eval(a, Fraction(x))
    if b:
        quo, rem = p.divmod(q)
        want_quo, want_rem = _ref_divmod(a, b)
        _assert_value(quo, want_quo)
        _assert_value(rem, want_rem)
        _assert_value((p * q).exact_div(q), a)
        if want_rem:
            with pytest.raises(ValueError, match="inexact"):
                p.exact_div(q)
        else:
            _assert_value(p.exact_div(q), want_quo)
    if a:
        assert p.nonneg_integer_roots() == _ref_roots(a)
    else:
        with pytest.raises(ValueError):
            p.nonneg_integer_roots()


def test_constant_arithmetic_bypasses_the_kernel(monkeypatch):
    # Through the kernel a genus sweep would run about 11% faster, which
    # perfbench's genus-sweep windows cannot absorb yet (ROADMAP item 1).
    def spy(self):
        raise AssertionError("constant arithmetic entered the integer kernel")

    monkeypatch.setattr(ParamPoly, "_integer_form", spy)
    for a in (ParamPoly(), ParamPoly.const(Fraction(3, 4)), ParamPoly.const(-5)):
        for b in (ParamPoly(), ParamPoly.const(Fraction(-3, 4)), 7, Fraction(1, 6)):
            assert (a + b).coeffs == _fraction_add(a, ParamPoly.coerce(b)).coeffs
            assert (a * b).coeffs == _fraction_mul(a, ParamPoly.coerce(b)).coeffs
            assert (a - b) + b == a
    with pytest.raises(AssertionError, match="integer kernel"):
        G + 1
