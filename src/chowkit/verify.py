"""Relation classes, the excess-intersection chain, and triviality proofs.

Each relation class is rebuilt from its own geometric recipe (a Chern
class of an explicit line bundle, a pushforward chain, or a quoted input)
and compared against the frozen expected class.  Everything is symbolic
in g by default; passing g = <rational> reruns a computation with the
genus specialized.

Two tables hold the data: ``_RELATIONS`` gives each lemma its space and
recipe, and ``_SYSTEMS`` gives each node profile mu its relation rows,
degree-1 basis and certificate step.  The triviality certificates turn
those systems into exact linear algebra over Q[g]: Cramer solutions with
cleared denominators for the inhomogeneous cases, and a certified
full-rank computation (pivots that provably never vanish at integers
g >= 0) for the homogeneous one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .bundles import BundleClass, excess_class, principal_parts_chern
from .linalg import bareiss_det, param_rank, solve_cramer
from .ring import ChowElement, G, ParamPoly
from .spaces import build_space, diagonal, lift, pushforward


class LemmaId(enum.Enum):
    REL_111_DELTA = "REL-111-DELTA"
    REL_111_RAM_P = "REL-111-RAM-P"
    REL_111_RAM_Q = "REL-111-RAM-Q"
    REL_21_TRIPLE = "REL-21-TRIPLE"
    REL_21_NODE = "REL-21-NODE"
    REL_3_CONTACT4 = "REL-3-CONTACT4"
    REL_3_NODE = "REL-3-NODE"
    REL_3_DELTA_INPUT = "REL-3-DELTA-INPUT"
    REL_3_TT = "REL-3-TT"

    @classmethod
    def from_string(cls, text):
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown lemma id {text!r}; known: "
                         + ", ".join(m.value for m in cls))


#: recipe shared by the two node relations
_NODE = (("c1 of gamma^* Omega_base", "c1Omega_base", 1),
         ("c1 of W", "c1W", 1))

#: lemma -> (space, recipe).  A derived lemma's recipe lists the summands
#: of its class as (narrative label, class or generator name, multiplier);
#: "quoted" marks the quoted input and "chain" the tt chain result.
_RELATIONS = {
    # the divisor is cut by a section of eta_p^* O(1) tensor eta_q^* Q
    LemmaId.REL_111_DELTA: ("X111", (("c1 of eta_p^* O(1)", "zeta_p", 1),
                                     ("c1 of eta_q^* Q", "c1Q_q", 1))),
    LemmaId.REL_111_RAM_P: ("X111", (
        ("c1 of Omega_vert at p", "c1Omega_vert_p", 1),
        ("c1 of W at p", "c1W_p", 1))),
    LemmaId.REL_111_RAM_Q: ("X111", (
        ("c1 of Omega_vert at q", "c1Omega_vert_q", 1),
        ("c1 of W at q", "c1W_q", 1))),
    LemmaId.REL_21_TRIPLE: ("PE", (("c1 of Omega_vert^2", "c1Omega_vert", 2),
                                   ("c1 of W", "c1W", 1))),
    LemmaId.REL_21_NODE: ("PE", _NODE),
    LemmaId.REL_3_CONTACT4: ("X3", (("c1 of Omega_vert^3", "c1Omega_vert", 3),
                                    ("c1 of W", "c1W", 1))),
    LemmaId.REL_3_NODE: ("X3", _NODE),
    LemmaId.REL_3_DELTA_INPUT: ("X3", "quoted"),
    LemmaId.REL_3_TT: ("X3", "chain"),
}

#: frozen expected classes, in canonical serialization
EXPECTED = {
    LemmaId.REL_111_DELTA: "zeta_p + zeta_q - (g+2)*z - a1",
    LemmaId.REL_111_RAM_P: "zeta_p",
    LemmaId.REL_111_RAM_Q: "zeta_q",
    LemmaId.REL_21_TRIPLE: "-zeta_p + (g+2)*z + a1",
    LemmaId.REL_21_NODE: "3*zeta_p - (g+4)*z - a1",
    LemmaId.REL_3_CONTACT4: "-3*zeta_p + (2*g+4)*z + 2*a1",
    LemmaId.REL_3_NODE: "3*zeta_p - (g+4)*z - a1",
    LemmaId.REL_3_DELTA_INPUT: "(8*g+12)*a1 - 9*a2p",
    LemmaId.REL_3_TT: "-zeta_p - g*z - a1 + 3*a2p",
}


@dataclass(frozen=True)
class Verdict:
    lemma: str
    computed: ChowElement
    expected: ChowElement
    passed: bool
    narrative: tuple = ()
    #: the ChainReport behind the class, for the lemma the tt chain derives
    chain: ChainReport | None = None

    def __bool__(self):
        return self.passed


class StageFailure(RuntimeError):
    """An intermediate identity of a verification chain failed.

    computed and expected hold the canonical strings of the two classes;
    lemma, when given, names the relation whose class failed.
    """

    def __init__(self, stage, computed, expected, lemma=None):
        self.stage = stage
        self.computed = computed
        self.expected = expected
        where = "" if lemma is None else f" at {lemma}"
        super().__init__(f"stage {stage!r} failed{where}: computed "
                         f"{computed}, expected {expected}")


def _check(stage, computed, expected):
    """Raise StageFailure unless a stage computed its expected class."""
    if computed != expected:
        raise StageFailure(stage, computed.canonical(), expected.canonical())


#: lowest truncation degree the tt chain needs: its first stage is the
#: degree-3 class c3, which a lower truncation sets to zero
TT_MIN_TRUNCATION = 3


class TruncationTooLow(ValueError):
    """A computation needs a higher truncation degree than the ring has."""


@dataclass(frozen=True)
class ChainReport:
    c3_free: ChowElement
    c3_reduced: ChowElement
    push_gamma: ChowElement
    push_pi: ChowElement
    alpha_Y: ChowElement
    tt_class: ChowElement

    def stages(self):
        return (("c3-free", self.c3_free), ("c3-reduced", self.c3_reduced),
                ("push-gamma", self.push_gamma), ("push-pi", self.push_pi),
                ("alpha-Y", self.alpha_Y), ("tt-class", self.tt_class))


@dataclass(frozen=True)
class TrivialityReport:
    mu: tuple
    passed: bool
    narrative: tuple
    #: generator name -> (numerator element, denominator polynomial),
    #: meaning den * generator = numerator modulo the relations
    solved: dict = field(default_factory=dict)
    determinant: ParamPoly | None = None
    det_roots: tuple | None = None
    rank: int | None = None
    basis: tuple = ()

    def __bool__(self):
        return self.passed


#: (symbolic space, expected text) -> parsed class; the space carries the
#: truncation, so a changed CHOWKIT_TRUNCATION never hits a stale ring
_PARSED = {}


def _expected_elem(lemma, g):
    ctx = build_space(_RELATIONS[lemma][0])
    key = (ctx, EXPECTED[lemma])
    symbolic = _PARSED.get(key)
    if symbolic is None:
        symbolic = _PARSED[key] = ctx.parse(EXPECTED[lemma])
    if g is None:
        return symbolic
    return symbolic.evaluate(g)


def verify_relation(lemma, g=None):
    """Rebuild one relation class from its recipe and compare.

    Accepts a LemmaId or its string value.  g=None verifies symbolically.
    """
    if isinstance(lemma, str):
        lemma = LemmaId.from_string(lemma)
    space, recipe = _RELATIONS[lemma]
    chain = None
    if recipe == "quoted":
        # quoted input, not a derivation; restated directly
        narrative = (("quoted divisor class", _expected_elem(lemma, g)),)
    elif recipe == "chain":
        chain = tt_chain(g=g)
        narrative = (("tt chain result", chain.tt_class),)
    else:
        ctx = build_space(space, g=g)
        narrative = []
        for label, name, mult in recipe:
            value = (ctx.gen(name) if ctx.ring.has_generator(name)
                     else ctx.cls(name))
            narrative.append((label, value if mult == 1 else mult * value))
    computed = sum((value for _, value in narrative[1:]), narrative[0][1])
    expected = _expected_elem(lemma, g)
    return Verdict(lemma=lemma.value, computed=computed, expected=expected,
                   passed=(computed - expected).is_zero(),
                   narrative=tuple(narrative), chain=chain)


def verify_all(g=None):
    """Ordered dict of every lemma's Verdict."""
    return {lemma.value: verify_relation(lemma, g=g) for lemma in LemmaId}


def tt_chain(g=None):
    """Run the triple-total-ramification pushforward chain end to end.

    Stages: free cubic expansion of c3 of the second principal parts of W,
    reduction, gamma and pi pushforwards, the excess class alpha_Y on the
    diagonal, and the resulting divisor class.  Any mismatch raises
    StageFailure naming the stage; a truncation below TT_MIN_TRUNCATION
    raises TruncationTooLow before any stage runs.
    """
    ctx = build_space("X3", g=g)
    if ctx.truncation < TT_MIN_TRUNCATION:
        raise TruncationTooLow(
            f"{LemmaId.REL_3_TT.value} and the tt chain need truncation "
            f"degree >= {TT_MIN_TRUNCATION} (set CHOWKIT_TRUNCATION to "
            f"{TT_MIN_TRUNCATION} or more); it is {ctx.truncation}")
    # the free cover has the same generators, so its classes keep their
    # terms; one free ring serves them all
    free = ctx.ring.free()
    zeta = free.gen("zeta_p")
    a_free, w_free, om_free = (free.element(ctx.cls(name).terms)
                               for name in ("c1E", "c1W", "c1Omega_vert"))

    c3_free = principal_parts_chern(w_free, om_free, 2).top_chern()
    want_free = -3 * zeta ** 3 + 4 * a_free * zeta ** 2 \
        - a_free * a_free * zeta
    _check("c3-free", c3_free, want_free)

    c3_reduced = ctx.ring.element(c3_free.terms)
    b_cls = ctx.cls("c2E")
    want_reduced = 3 * b_cls * ctx.gen("zeta_p") - ctx.cls("c1E") * b_cls
    _check("c3-reduced", c3_reduced, want_reduced)

    p_ctx = build_space("P", g=g)
    push_gamma = pushforward(ctx, c3_reduced, "gamma")
    _check("push-gamma", push_gamma, 3 * p_ctx.cls("c2E"))

    b_ctx = build_space("B", g=g)
    push_pi = pushforward(p_ctx, push_gamma, "pi")
    _check("push-pi", push_pi, 3 * b_ctx.gen("a2p"))

    # excess class on the diagonal: ambient normal bundle is the second
    # principal parts of W on the q factor, restricted by zeta_q -> zeta_p
    xt = build_space("Xtilde3", g=g)
    p2_q = principal_parts_chern(xt.cls("c1W_q"), xt.cls("c1Omega_vert_q"), 2)
    n_ambient = BundleClass(3, diagonal(xt, p2_q.total))
    # T_{PE/B} as the extension of the two relative tangent lines
    t_vert = BundleClass.line(2 * ctx.gen("zeta_p") - ctx.cls("c1E"))
    t_base = BundleClass.line(2 * ctx.gen("z"))
    n_component = t_vert.whitney(t_base)
    _check("alpha-Y", n_component.c1, ctx.cls("c1T_rel_B"))
    alpha = excess_class(n_ambient, n_component)
    gp = ctx.const(G) if g is None else ctx.const(g)
    want_alpha = ctx.gen("zeta_p") + ctx.gen("a1") + gp * ctx.gen("z")
    _check("alpha-Y", alpha, want_alpha)

    tt_class = lift(push_pi, ctx) - alpha
    _check("tt-class", tt_class, _expected_elem(LemmaId.REL_3_TT, g))

    return ChainReport(c3_free=c3_free, c3_reduced=c3_reduced,
                       push_gamma=push_gamma, push_pi=push_pi,
                       alpha_Y=alpha, tt_class=tt_class)


# -- triviality --

#: the degree-2 sentence every certificate ends with, before the words on
#: the degree-2 monomials other than a2 and c2
_DEGREE_2 = "degree 2: a2 = c2 = 0 trusted; "
_REST = "products of vanishing degree-1 classes cover the rest"

_BASE_GENS_DEG1 = ("a1", "a2p")


def _denominator_step(den):
    """(holds, sentence) for a cleared denominator."""
    if den.nonvanishing_for_nonneg_g():
        return True, f"denominator {den} never vanishes for integer g >= 0"
    return False, f"denominator {den} vanishes at an admissible g"


def _rank_step(rows, basis, full, short):
    """(rank, (holds, sentence)) for the certified rank of rows.

    full and short are the sentences for full rank and for less, formatted
    with rank, n = len(basis) and the basis names.
    """
    rank = param_rank(rows)
    words = dict(rank=rank, n=len(basis), basis=", ".join(basis))
    if rank == len(basis):
        return rank, (True, full.format(**words))
    return rank, (False, short.format(**words))


def _certify_3(basis, rows, labels, g):
    """The homogeneous system: determinant, its roots, certified rank."""
    det = bareiss_det(rows)
    steps = [(True, f"relation rows {', '.join(labels)}"),
             (True, f"determinant in basis ({', '.join(basis)}): {det}")]
    roots = () if det.is_zero() else tuple(det.nonneg_integer_roots())
    if det.is_zero():
        steps.append((False, "determinant vanishes identically"))
    elif roots:
        steps.append((False, f"determinant vanishes at g = {roots}"))
    else:
        steps.append((True, "determinant has no nonnegative integer roots"))
    rank, step = _rank_step(
        rows, basis, "certified rank {rank}: the homogeneous system kills "
        "every degree-1 generator", "certified rank {rank} < {n}")
    steps.append(step)
    return steps, dict(determinant=det, det_roots=roots, rank=rank,
                       basis=basis)


def _certify_21(basis, rows, labels, g):
    """Cramer solve for (zeta_p, z) with the a1 column moved right.

    solve_cramer re-checks its solution against every row exactly.
    """
    nums, den = solve_cramer([row[:2] for row in rows],
                             [-row[2] for row in rows])
    # normalize: den * gen = num * a1
    ctx = build_space("PE", g=g)
    a1 = ctx.gen("a1")
    solved = {}
    steps = []
    for name, num in zip(basis[:2], nums):
        solved[name] = (ctx.const(num) * a1, den)
        steps.append((True, f"({den}) * {name} = ({num}) * a1"))
    steps.append(_denominator_step(den))
    steps.append((True, "a1 = 0 and a2p = 0 as trusted base inputs, so "
                        "zeta_p = z = 0"))
    return steps, dict(solved=solved, basis=basis)


def _certify_111(basis, rows, labels, g):
    """Certified full rank with the base generators, and the z solve."""
    ctx = build_space("X111", g=g)
    # full degree-1 system: lemma relations plus trusted base generators
    full_basis = basis + ("a2p",)
    full_rows = [row + [ParamPoly()] for row in rows]
    for name in _BASE_GENS_DEG1:
        full_rows.append([ParamPoly.const(1) if b == name else ParamPoly()
                          for b in full_basis])
    rank, step = _rank_step(
        full_rows, full_basis,
        "relation matrix has certified full rank {rank} on {basis}",
        "rank {rank} < {n}: degree-1 generators not all killed")
    # the explicit solve the narrative quotes, read off the DELTA row:
    # (g+2) z = zeta_p + zeta_q - a1
    delta = dict(zip(basis, rows[0]))
    den = -delta.pop("z")
    num = sum((ctx.const(c) * ctx.gen(name) for name, c in delta.items()),
              ctx.zero())
    solved = {"zeta_p": (ctx.zero(), ParamPoly.const(1)),
              "zeta_q": (ctx.zero(), ParamPoly.const(1)),
              "z": (num, den)}
    steps = [step, (True, f"({den}) * z = {num.canonical()}, and the right "
                          "side is a sum of vanishing classes")]
    holds, sentence = _denominator_step(den)
    if not holds:
        steps.append((False, sentence))
    return steps, dict(solved=solved, basis=full_basis, rank=rank)


#: mu -> (relation rows in documented order, degree-1 basis, certificate
#: step, the degree-2 words after _DEGREE_2); base generators are not part
#: of the rows
_SYSTEMS = {
    (3,): ((LemmaId.REL_3_DELTA_INPUT, LemmaId.REL_3_CONTACT4,
            LemmaId.REL_3_NODE, LemmaId.REL_3_TT),
           ("zeta_p", "z", "a1", "a2p"), _certify_3, _REST),
    (2, 1): ((LemmaId.REL_21_TRIPLE, LemmaId.REL_21_NODE),
             ("zeta_p", "z", "a1"), _certify_21,
             "all other degree-2 monomials are products of vanishing "
             "degree-1 classes"),
    (1, 1, 1): ((LemmaId.REL_111_DELTA, LemmaId.REL_111_RAM_P,
                 LemmaId.REL_111_RAM_Q),
                ("zeta_p", "zeta_q", "z", "a1"), _certify_111, _REST),
}


def normalize_mu(mu):
    key = tuple(sorted(mu, reverse=True))
    if key not in _SYSTEMS:
        raise ValueError(f"mu must be (3), (2,1) or (1,1,1), got {tuple(mu)}")
    return key


def _linear_row(element, basis):
    """Coefficients of a degree-1 class in the named generators.

    Raises when the class has terms outside the span of the basis.
    """
    row = [element.coefficient(**{name: 1}) for name in basis]
    if len(element.terms) != sum(not c.is_zero() for c in row):
        raise ValueError(f"class has terms outside basis {basis}")
    return row


def relation_matrix(mu, g=None):
    """(basis, rows, labels) of the degree-1 relation system for mu.

    Rows come straight from the verified relation classes, in documented
    order; base generators are not included here.
    """
    lemmas, basis, _, _ = _SYSTEMS[normalize_mu(mu)]
    rows = []
    for lemma in lemmas:
        verdict = verify_relation(lemma, g=g)
        if not verdict.passed:
            raise StageFailure("relation-matrix",
                               verdict.computed.canonical(),
                               verdict.expected.canonical(), lemma.value)
        rows.append(_linear_row(verdict.computed, basis))
    return basis, rows, tuple(lemma.value for lemma in lemmas)


def triviality_check(mu, g=None):
    """Certify that every positive-degree generator dies for this mu.

    Base-ring generators (a1, a2, a2p, c2) vanish as a trusted input; the
    certificate shows the relation set then kills the remaining degree-1
    generators, with denominators that provably never vanish at integers
    g >= 0.  Each step of the certificate is a (holds, sentence) pair; the
    report passes when every step holds.
    """
    mu = normalize_mu(mu)
    _, _, certify, degree_2 = _SYSTEMS[mu]
    steps, fields = certify(*relation_matrix(mu, g=g), g)
    steps.append((True, _DEGREE_2 + degree_2))
    return TrivialityReport(mu=mu, passed=all(ok for ok, _ in steps),
                            narrative=tuple(line for _, line in steps),
                            **fields)
