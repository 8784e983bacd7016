"""Exact graded rings presented by generators and square rules.

Everything here is a finite-dimensional slice of a graded commutative ring
over Q[g], where g is a free integer parameter (a genus, in the intended
applications).  A ring presentation names its generators, assigns each a
positive degree, and optionally attaches a "square rule" gen**2 -> rhs to
some of them.  Normal forms are computed by a terminating rewrite system:
every ruled generator appears with exponent at most 1 in a normal form.

Coefficients are univariate polynomials in g over Q (ParamPoly).  No
floats anywhere.  A polynomial with two or more coefficients stores each
integral coefficient as a Python int and every other one as a reduced
Fraction; a constant (at most one coefficient) stores a Fraction.  Equal
int and Fraction values print, compare and hash alike, so the split never
shows in output; every division of coefficients goes through Fraction,
since int / int is a float.  A sum or product in which either polynomial
has more than one coefficient runs on Python ints: each operand is read as
integer numerators over the lcm of its denominators (kept with the
polynomial once computed, and 1 for integer polynomials), the integer
lists are added or convolved, and a result with denominator 1 keeps the
integers as its coefficients.  Constants (at most one coefficient on each
side) keep Fraction arithmetic, and not for speed: a genus sweep, which is
mostly constant arithmetic, runs faster through the kernel.  The Fraction
path stays because a faster genus sweep uses up perfbench's genus-sweep
windows and hangs (ROADMAP item 1); once that is fixed, constants store
ints too and plain int arithmetic replaces both paths (ROADMAP item 2).

Every square rule is homogeneous (checked at construction), so a rewrite
never changes the degree of a monomial.  A product of monomials of degrees
d1 and d2 therefore only ever contributes in degree d1 + d2, and a product
skips every pair above the truncation degree (or above the `upto` degree of
ChowElement.mul) before multiplying its coefficients: those pairs could
only yield terms that truncation drops.  The result is exactly what the
full expansion followed by truncation gives.

The canonical text format orders monomials by total degree descending,
ties broken by the reversed exponent tuple ascending, which reproduces
strings like

    (g+2)*z*zeta_p - a2 - a2p*z

and is the golden format the verification tests freeze.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ParamPoly:
    """Polynomial in the parameter g over Q, dense little-endian tuple.

    With two or more coefficients, an integral coefficient is an int and
    any other a Fraction with denominator > 1; a constant's coefficient is
    a Fraction.  No coefficient is ever a float.
    """

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) > 1:
            cs = [c.numerator if c.denominator == 1 else c for c in cs]
        self.coeffs = tuple(cs)
        self._ints = None

    def _integer_form(self):
        """(numerators, d) with coeffs[i] == numerators[i] / d.

        d is the lcm of the coefficients' (reduced) denominators, 1 when
        all are ints.  Filled on first use, or by _from_integers.
        """
        if self._ints is None:
            d = lcm(*[c.denominator for c in self.coeffs])
            self._ints = ([c.numerator * (d // c.denominator)
                           for c in self.coeffs], d)
        return self._ints

    @classmethod
    def _from_integers(cls, nums, d):
        """The polynomial sum(nums[i] / d * g**i); consumes nums.

        A non-constant result keeps the ints themselves when the common
        denominator reduces to 1, and otherwise makes a Fraction only of
        the coefficients d does not divide; a constant is a Fraction.
        """
        while nums and not nums[-1]:
            nums.pop()
        out = cls.__new__(cls)
        if d != 1:
            common = gcd(d, *nums)
            if common != 1:
                d //= common
                nums = [n // common for n in nums]
        if len(nums) <= 1:
            out.coeffs = tuple(Fraction(n, d) for n in nums)
        elif d == 1:
            out.coeffs = tuple(nums)
        else:
            out.coeffs = tuple(Fraction(n, d) if n % d else n // d
                               for n in nums)
        out._ints = (nums, d)
        return out

    @classmethod
    def const(cls, c):
        return cls((_as_fraction(c),))

    @classmethod
    def coerce(cls, x):
        if isinstance(x, ParamPoly):
            return x
        return cls.const(x)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_const(self):
        return len(self.coeffs) <= 1

    def const_value(self):
        if not self.is_const():
            raise ValueError(f"not a constant: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.coeffs[-1])

    def term_count(self):
        return sum(1 for c in self.coeffs if c != 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return ParamPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, ParamPoly)):
            return NotImplemented
        other = ParamPoly.coerce(other)
        if len(self.coeffs) > 1 or len(other.coeffs) > 1:
            a, da = self._integer_form()
            b, db = other._integer_form()
            d = lcm(da, db)
            if len(a) < len(b):
                a, da, b, db = b, db, a, da
            sa, sb = d // da, d // db
            out = [x * sa for x in a]
            for i, y in enumerate(b):
                out[i] += y * sb
            return ParamPoly._from_integers(out, d)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return ParamPoly(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, ParamPoly)):
            return NotImplemented
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, ParamPoly)):
            return NotImplemented
        return ParamPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, ParamPoly)):
            return NotImplemented
        other = ParamPoly.coerce(other)
        if not self.coeffs or not other.coeffs:
            return ParamPoly()
        if len(self.coeffs) > 1 or len(other.coeffs) > 1:
            a, da = self._integer_form()
            b, db = other._integer_form()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return ParamPoly._from_integers(out, da * db)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = ParamPoly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def divmod(self, other):
        """Long division; other must be nonzero."""
        other = ParamPoly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = Fraction(rem[-1]) / lead
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return ParamPoly(quo), ParamPoly(rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"inexact division: ({self}) / ({other})")
        return q

    def __call__(self, value):
        v = _as_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def nonneg_integer_roots(self):
        """All integer roots n >= 0, by Sturm sequences and bisection.

        0 is a root iff p(0) == 0; constants and linear p are answered
        directly.  Otherwise the square-free part s = p / gcd(p, p') has
        simple roots only, so the sign variations V of its Sturm chain count
        its roots in (a, b] as V(a) - V(b), even at an endpoint that is a
        root.  Integer intervals in (0, Cauchy bound] are bisected until each
        one holding a root has width 1, and its right end is tested exactly:
        time polynomial in the degree and the size of the coefficients.
        """
        if self.is_zero():
            raise ValueError("zero polynomial vanishes at every g")
        if self.degree == 0:
            return []
        if self.degree == 1:
            root = Fraction(-self.coeffs[0]) / self.coeffs[1]
            return [int(root)] if root >= 0 and root.denominator == 1 else []
        roots = [0] if self.coeffs[0] == 0 else []
        gcd, rest = self, self._derivative()
        while rest:
            gcd, rest = rest, gcd.divmod(rest)[1]
        chain = [self.exact_div(gcd)]
        chain.append(chain[0]._derivative())
        while chain[-1].degree > 0:
            chain.append(-chain[-2].divmod(chain[-1])[1])

        def variations(x):
            signs = [v > 0 for v in (q(x) for q in chain) if v != 0]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        bound = 1 + max(map(abs, self.coeffs[:-1])) // abs(self.coeffs[-1])
        todo = [(0, bound, variations(0), variations(bound))]
        while todo:
            lo, hi, v_lo, v_hi = todo.pop()
            if v_lo == v_hi:
                continue
            if hi - lo == 1:
                if self(hi) == 0:
                    roots.append(hi)
                continue
            mid = (lo + hi) // 2
            v_mid = variations(mid)
            todo += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
        return sorted(roots)

    def _derivative(self):
        return ParamPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def nonvanishing_for_nonneg_g(self):
        """True when p(n) != 0 for every integer n >= 0, provably."""
        return not self.is_zero() and not self.nonneg_integer_roots()

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                gpow = "g" if k == 1 else f"g**{k}"
                body = gpow if mag == 1 else f"{mag}*{gpow}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    __repr__ = __str__


#: The parameter itself, as a polynomial.
G = ParamPoly((Fraction(0), Fraction(1)))


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int

    def __post_init__(self):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise ValueError(f"bad generator name {self.name!r}")
        if self.name == "g":
            raise ValueError("'g' is reserved for the parameter")
        if self.degree < 1:
            raise ValueError(f"generator {self.name} needs positive degree")


class RingPresentation:
    """Generators, degrees, and square rules gen**2 -> rhs.

    Termination of the rewrite system is checked at construction: order the
    ruled generators as they appear in the generator list and read each
    monomial's ruled exponents as a lexicographic measure.  A rule for the
    i-th ruled generator may mention that generator to exponent at most 1
    and no ruled generator earlier than position i, so every rewrite
    strictly drops the measure.

    free() gives the free cover of the presentation: the same generators
    and truncation, with no square rules.  A class of the free cover maps
    back as ring.element(x.terms).
    """

    def __init__(self, generators, square_rules=None, truncation_degree=None,
                 rewrite_order=None):
        self.generators = tuple(generators)
        names = [gq.name for gq in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self._index = {gq.name: i for i, gq in enumerate(self.generators)}
        self.degrees = tuple(gq.degree for gq in self.generators)
        if truncation_degree is not None and truncation_degree < 1:
            raise ValueError("truncation degree must be positive")
        self.truncation_degree = truncation_degree

        rules = {}
        for name, rhs in (square_rules or {}).items():
            if name not in self._index:
                raise ValueError(f"rule for unknown generator {name!r}")
            clean = {}
            for exps, coeff in rhs.items():
                exps = tuple(exps)
                if len(exps) != len(self.generators) or any(e < 0 for e in exps):
                    raise ValueError(f"bad monomial {exps} in rule for {name}")
                coeff = ParamPoly.coerce(coeff)
                if coeff.is_zero():
                    continue
                clean[exps] = coeff
            rules[name] = clean
        self.square_rules = rules
        self.ruled = tuple(n for n in names if n in rules)

        if rewrite_order is None:
            rewrite_order = self.ruled
        if tuple(sorted(rewrite_order)) != tuple(sorted(self.ruled)):
            raise ValueError("rewrite_order must permute the ruled generators")
        self.rewrite_order = tuple(rewrite_order)

        self._measure_pos = {n: i for i, n in enumerate(self.ruled)}
        self._validate_rules()
        self._specialized = {}

    def _validate_rules(self):
        for name, rhs in self.square_rules.items():
            gi = self._index[name]
            want = 2 * self.degrees[gi]
            pos = self._measure_pos[name]
            for exps, _ in rhs.items():
                if self.monomial_degree(exps) != want:
                    raise ValueError(
                        f"rule {name}**2 is not homogeneous of degree {want}")
                if exps[gi] > 1:
                    raise ValueError(
                        f"rule for {name} mentions {name}**{exps[gi]}, "
                        "which would loop")
                for other in self.ruled[:pos]:
                    if exps[self._index[other]] != 0:
                        raise ValueError(
                            f"rule for {name} mentions earlier ruled "
                            f"generator {other}; rewriting would not terminate")

    # -- structure --

    def monomial_degree(self, exps):
        return sum(e * d for e, d in zip(exps, self.degrees))

    def _measure(self, exps):
        return tuple(exps[self._index[n]] for n in self.ruled)

    def _sort_key(self, exps):
        return (-self.monomial_degree(exps), tuple(reversed(exps)))

    def index_of(self, name):
        return self._index[name]

    def has_generator(self, name):
        return name in self._index

    def __eq__(self, other):
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return (self.generators == other.generators
                and self.square_rules == other.square_rules
                and self.truncation_degree == other.truncation_degree)

    def __hash__(self):
        return hash((self.generators, self.truncation_degree))

    def __repr__(self):
        return (f"RingPresentation("
                f"[{', '.join(gq.name for gq in self.generators)}], "
                f"trunc={self.truncation_degree})")

    def free(self):
        return RingPresentation(self.generators,
                                truncation_degree=self.truncation_degree)

    def with_rewrite_order(self, order):
        return RingPresentation(self.generators, self.square_rules,
                                truncation_degree=self.truncation_degree,
                                rewrite_order=tuple(order))

    def specialize(self, g_value):
        """Presentation with g fixed to a rational number.

        Only the latest one is kept, so a sweep over g stays bounded.
        """
        g_value = _as_fraction(g_value)
        hit = self._specialized.get(g_value)
        if hit is not None:
            return hit
        rules = {
            name: {exps: ParamPoly.const(coeff(g_value))
                   for exps, coeff in rhs.items()}
            for name, rhs in self.square_rules.items()
        }
        spec = RingPresentation(
            self.generators, rules,
            truncation_degree=self.truncation_degree,
            rewrite_order=self.rewrite_order)
        self._specialized = {g_value: spec}
        return spec

    # -- element constructors --

    def element(self, terms):
        return ChowElement(self, terms)

    def zero(self):
        return ChowElement(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        zero_exps = (0,) * len(self.generators)
        return ChowElement(self, {zero_exps: ParamPoly.coerce(c)})

    def g(self):
        return self.const(G)

    def gen(self, name):
        i = self._index[name]
        exps = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return ChowElement(self, {exps: ParamPoly.const(1)})

    def parse(self, text):
        return _Parser(self, text).parse()

    # -- normalization --

    def _normalize(self, raw_terms):
        out = {}
        stack = []
        for exps, coeff in raw_terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.generators) or any(e < 0 for e in exps):
                raise ValueError(f"bad monomial {exps}")
            stack.append((exps, ParamPoly.coerce(coeff)))
        while stack:
            exps, coeff = stack.pop()
            if coeff.is_zero():
                continue
            if (self.truncation_degree is not None
                    and self.monomial_degree(exps) > self.truncation_degree):
                continue
            rewritten = False
            for name in self.rewrite_order:
                i = self._index[name]
                if exps[i] >= 2:
                    base = list(exps)
                    base[i] -= 2
                    old_measure = self._measure(exps)
                    for r_exps, r_coeff in self.square_rules[name].items():
                        new = tuple(a + b for a, b in zip(base, r_exps))
                        assert self._measure(new) < old_measure, \
                            "rewrite failed to drop the termination measure"
                        stack.append((new, coeff * r_coeff))
                    rewritten = True
                    break
            if rewritten:
                continue
            prev = out.get(exps)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = total
        return out


class ChowElement:
    """Element of a RingPresentation, stored as monomial -> ParamPoly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", ring._normalize(terms))

    def __setattr__(self, *a):
        raise AttributeError("ChowElement is immutable")

    # -- ring sanity --

    def _coerce_other(self, other):
        if isinstance(other, ChowElement):
            if other.ring != self.ring:
                raise ValueError("elements live in different presentations")
            return other
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.ring.const(other)
        return None

    # -- arithmetic --

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, ParamPoly()) + coeff
        return ChowElement(self.ring, merged)

    __radd__ = __add__

    def __neg__(self):
        return ChowElement(self.ring,
                           {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            c = ParamPoly.coerce(other)
            return ChowElement(self.ring,
                               {e: k * c for e, k in self.terms.items()})
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self._product(other, self.ring.truncation_degree)

    __rmul__ = __mul__

    def mul(self, other, *, upto):
        """Product with self, keeping only its parts of degree <= upto."""
        other = self._coerce_other(other)
        if other is None:
            raise TypeError("factor must coerce into the ring")
        cap = self.ring.truncation_degree
        return self._product(other, upto if cap is None else min(upto, cap))

    def _product(self, other, cap):
        """Sum of the pair products of degree <= cap (None: every pair).

        A pair of degree d1 + d2 only yields terms of that degree, because
        every square rule is homogeneous, so a pair above cap is skipped
        before its coefficients are multiplied.
        """
        deg = self.ring.monomial_degree
        by_degree = {}
        for e2, c2 in other.terms.items():
            by_degree.setdefault(deg(e2), []).append((e2, c2))
        acc = {}
        for e1, c1 in self.terms.items():
            room = None if cap is None else cap - deg(e1)
            for d2, group in by_degree.items():
                if room is not None and d2 > room:
                    continue
                for e2, c2 in group:
                    key = tuple(a + b for a, b in zip(e1, e2))
                    acc[key] = acc.get(key, ParamPoly()) + c1 * c2
        return ChowElement(self.ring, acc)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / other)
        raise TypeError("can only divide by a nonzero rational constant")

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = self.ring.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            other = self.ring.const(other)
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- grading --

    def degree(self):
        """Top degree present, or None for the zero element."""
        if not self.terms:
            return None
        return max(self.ring.monomial_degree(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def graded_part(self, d):
        picked = {e: c for e, c in self.terms.items()
                  if self.ring.monomial_degree(e) == d}
        return ChowElement(self.ring, picked)

    def graded_pieces(self):
        degs = sorted({self.ring.monomial_degree(e) for e in self.terms})
        return [(d, self.graded_part(d)) for d in degs]

    # -- structure ops --

    def in_free(self):
        return ChowElement(self.ring.free(), dict(self.terms))

    def evaluate(self, g_value):
        """Substitute a rational number for g."""
        spec = self.ring.specialize(g_value)
        g_value = _as_fraction(g_value)
        return ChowElement(
            spec, {e: ParamPoly.const(c(g_value))
                   for e, c in self.terms.items()})

    def coefficient(self, **powers):
        """Coefficient of the monomial given by name=exponent keywords."""
        exps = [0] * len(self.ring.generators)
        for name, e in powers.items():
            exps[self.ring.index_of(name)] = e
        return self.terms.get(tuple(exps), ParamPoly())

    def split_linear(self, name):
        """Write self as p0 + gen*p1; requires exponent <= 1 throughout."""
        i = self.ring.index_of(name)
        p0, p1 = {}, {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                p0[exps] = coeff
            elif exps[i] == 1:
                lowered = list(exps)
                lowered[i] = 0
                p1[tuple(lowered)] = coeff
            else:
                raise ValueError(
                    f"{name}**{exps[i]} present; not linear in {name}")
        return ChowElement(self.ring, p0), ChowElement(self.ring, p1)

    # -- text --

    def canonical(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda kv: self.ring._sort_key(kv[0]))
        pieces = []
        for exps, coeff in items:
            sign, body = self._term_string(exps, coeff)
            if not pieces:
                pieces.append(body if sign > 0 else "-" + body)
            else:
                pieces.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(pieces)

    def _term_string(self, exps, coeff):
        sign = 1 if coeff.leading() > 0 else -1
        mag = coeff if sign > 0 else -coeff
        factors = []
        for i in range(len(exps) - 1, -1, -1):
            e = exps[i]
            if e == 0:
                continue
            name = self.ring.generators[i].name
            factors.append(name if e == 1 else f"{name}**{e}")
        mono = "*".join(factors)
        if not mono:
            if mag.term_count() > 1:
                return sign, f"({mag})"
            return sign, str(mag)
        if mag == 1:
            return sign, mono
        coeff_str = str(mag) if mag.term_count() == 1 else f"({mag})"
        return sign, f"{coeff_str}*{mono}"

    __str__ = canonical

    def __repr__(self):
        return self.canonical()


_TOKEN = re.compile(r"\s*(\*\*|[()+\-*/]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*)")


class _Parser:
    """Recursive descent for the canonical element format (and a bit more)."""

    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad character at {pos}: {text[pos]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return value

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.power()
            if op == "*":
                value = value * rhs
            else:
                if rhs.terms and set(rhs.terms) != {(0,) * len(self.ring.generators)}:
                    raise ValueError("can only divide by a rational constant")
                c = rhs.terms.get((0,) * len(self.ring.generators), ParamPoly())
                value = value / c.const_value()
        return value

    def power(self):
        base = self.atom()
        if self.peek() == "**":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"exponent must be an integer, got {tok!r}")
            base = base ** int(tok)
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ValueError("expected ')'")
            return inner
        if tok == "-":
            return -self.atom()
        if tok.isdigit():
            return self.ring.const(int(tok))
        if tok == "g":
            return self.ring.g()
        if self.ring.has_generator(tok):
            return self.ring.gen(tok)
        raise ValueError(f"unknown name {tok!r}")
