"""Acceptance gate.

One test per shipped guarantee, each asserting both the mathematical
content and the runtime budget it must fit in.  Budgets are wall-clock
on a warm interpreter; the work inside each test is the full check, not
a cached summary.
"""

import random
import time

from fractions import Fraction

from chowkit.bundles import JetPoint, SplittingType, in_locus_B, jet_rank
from sampled_rank import rank_at_samples
from chowkit.ring import ChowElement
from chowkit.spaces import build_space, lift, pushforward
from chowkit.strata import (FACTOR_FAMILIES, branch_count, classify_factor,
                            enumerate_codim1, format_stratum,
                            oracle_enumerate)
from chowkit.verify import (LemmaId, relation_matrix, triviality_check,
                            tt_chain, verify_all)

EXPECTED_STRINGS = {
    "REL-111-DELTA": "zeta_p + zeta_q - (g+2)*z - a1",
    "REL-111-RAM-P": "zeta_p",
    "REL-111-RAM-Q": "zeta_q",
    "REL-21-TRIPLE": "-zeta_p + (g+2)*z + a1",
    "REL-21-NODE": "3*zeta_p - (g+4)*z - a1",
    "REL-3-CONTACT4": "-3*zeta_p + (2*g+4)*z + 2*a1",
    "REL-3-NODE": "3*zeta_p - (g+4)*z - a1",
    "REL-3-DELTA-INPUT": "(8*g+12)*a1 - 9*a2p",
    "REL-3-TT": "-zeta_p - g*z - a1 + 3*a2p",
}


def timed(limit):
    start = time.perf_counter()

    def stop():
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"budget {limit}s exceeded: {elapsed:.2f}s"
    return stop


def test_criterion_1_nine_relations_symbolic():
    stop = timed(1.0)
    verdicts = verify_all()
    assert len(verdicts) == 9
    for lemma, verdict in verdicts.items():
        assert verdict.passed, lemma
        assert verdict.computed.canonical() == EXPECTED_STRINGS[lemma]
    stop()


def test_criterion_2_torsion_chain_exact():
    stop = timed(1.0)
    chain = tt_chain()
    stages = {name: elem.canonical() for name, elem in chain.stages()}
    assert stages["push-gamma"] == "3*a2 + 3*a2p*z"
    assert stages["push-pi"] == "3*a2p"
    assert stages["alpha-Y"] == "zeta_p + g*z + a1"
    assert stages["tt-class"] == "-zeta_p - g*z - a1 + 3*a2p"
    stop()


def test_criterion_3_triviality_certificates():
    stop = timed(5.0)

    rep21 = triviality_check((2, 1))
    assert rep21.passed
    num, den = rep21.solved["zeta_p"]
    # zeta_p = z = -a1 / (g + 1)
    assert num.canonical() == "2*a1" and str(den) == "-2*g-2"
    assert rep21.solved["z"] == rep21.solved["zeta_p"]

    rep111 = triviality_check((1, 1, 1))
    assert rep111.passed
    assert rep111.rank == 5
    for name in ("zeta_p", "zeta_q"):
        solved_num, solved_den = rep111.solved[name]
        assert solved_num.is_zero() and str(solved_den) == "1"

    rep3 = triviality_check((3,))
    assert rep3.passed
    assert str(rep3.determinant) == "-72*g**2-108*g-36"
    assert abs(rep3.determinant(0)) == 36
    assert rep3.det_roots == ()
    assert rep3.rank == 4
    _, rows, _ = relation_matrix((3,))
    assert set(rank_at_samples(rows, range(0, 51)).values()) == {4}
    stop()


def test_criterion_4_boundary_strata():
    stop = timed(10.0)
    at4 = enumerate_codim1(4)
    d7 = [format_stratum(s) for s in at4 if s.j == 7]
    assert d7 == [
        "D7 (2,1): H(3;2;(2,1)) x H(3;1;(2,1)) [trivial]",
        "D7 (2,1): H(3;2;(2,1)) x H(2,1;2,0;(2),(1)) [trivial]",
        "D7 (2,1): H(2,1;3,0;(2),(1)) x H(3;1;(2,1)) [trivial]",
    ]
    for g in range(0, 13):
        assert oracle_enumerate(g) == enumerate_codim1(g), g
    for g in range(0, 13):
        for s in enumerate_codim1(g):
            for side in (s.side1, s.side2):
                label, principal = classify_factor(side, g)
                family_label, lower = \
                    FACTOR_FAMILIES[(side.connected, side.profiles[0])]
                assert label == family_label
                assert principal >= lower
    stop()


def test_criterion_5_jet_ranks():
    stop = timed(5.0)
    on = (JetPoint(Fraction(0), 3, on_directrix=True),
          JetPoint(Fraction(1), 3, on_directrix=True))
    values_only = (JetPoint(Fraction(0), 1, y=Fraction(0)),
                   JetPoint(Fraction(1), 1))
    for g in range(0, 11):
        for s in SplittingType.for_genus(g):
            if not in_locus_B(s.m, s.n):
                continue
            (rows, _), rank = jet_rank(s.m, s.n)
            assert (rows, rank) == (6, 6), (s.m, s.n)
            (rows, _), rank = jet_rank(s.m, s.n, on)
            assert rows == 6
            assert (rank == 5) == (2 * s.m - s.n == 0), (s.m, s.n)
            assert rank in (5, 6)
            (rows, _), rank = jet_rank(s.m, s.n, values_only)
            assert (rows, rank) == (2, 2), (s.m, s.n)
    stop()


def test_criterion_6_randomized_law_suite():
    stop = timed(30.0)
    rng = random.Random(20260822)
    cases = 0

    pe = build_space("PE", truncation=12)
    p = build_space("P", truncation=12)
    alt_ring = pe.ring.with_rewrite_order(("z", "zeta_p"))
    pe_names = [gq.name for gq in pe.ring.generators]
    p_names = [gq.name for gq in p.ring.generators]

    def rand_elem(ctx, names, max_terms=3, max_factors=3):
        total = ctx.zero()
        for _ in range(rng.randint(0, max_terms)):
            term = ctx.const(rng.randint(-4, 4))
            for _ in range(rng.randint(0, max_factors)):
                term = term * ctx.gen(rng.choice(names))
            total = total + term
        return total

    for _ in range(200):
        a = rand_elem(pe, pe_names)
        b = rand_elem(pe, pe_names)
        c = rand_elem(pe, pe_names)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == pe.zero()
        cases += 1

    for _ in range(200):
        a = rand_elem(pe, pe_names)
        again = ChowElement(alt_ring, dict(a.in_free().terms))
        assert again.canonical() == a.canonical()
        cases += 1

    for _ in range(200):
        a = rand_elem(pe, pe_names)
        total = pe.zero()
        for degree, piece in a.graded_pieces():
            assert piece.is_homogeneous()
            assert piece.degree() == degree
            total = total + piece
        assert total == a
        cases += 1

    for _ in range(150):
        beta = rand_elem(p, p_names, max_terms=2, max_factors=2)
        alpha = rand_elem(pe, pe_names, max_terms=2, max_factors=2)
        lhs = pushforward(pe, lift(beta, pe) * alpha, "gamma")
        rhs = beta * pushforward(pe, alpha, "gamma")
        assert lhs == rhs
        cases += 1

    for _ in range(150):
        x = rand_elem(pe, pe_names)
        y = rand_elem(pe, pe_names)
        s = rng.randint(-3, 3)
        assert pushforward(pe, x + y, "gamma") == \
            pushforward(pe, x, "gamma") + pushforward(pe, y, "gamma")
        assert pushforward(pe, s * x, "gamma") == \
            s * pushforward(pe, x, "gamma")
        cases += 1

    for _ in range(200):
        a = rand_elem(pe, pe_names)
        assert pe.parse(a.canonical()) == a
        cases += 1

    assert cases >= 1000
    stop()
