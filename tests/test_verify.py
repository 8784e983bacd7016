"""The relation suite: nine divisor classes, the torsion-section chain,
the linear-algebra certificates, and their failure modes."""

from fractions import Fraction

import pytest

import chowkit.spaces
from chowkit.linalg import (bareiss_det, param_rank, rank_fraction,
                            solve_cramer)
from chowkit.ring import ParamPoly
from chowkit.spaces import build_space
from chowkit.verify import (LemmaId, StageFailure, TruncationTooLow,
                            relation_matrix, tt_chain, triviality_check,
                            verify_all, verify_relation)
from sampled_rank import rank_at_samples

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

#: lemmas rebuilt from line-bundle recipes: all but the quoted input and
#: the tt chain result
DERIVED = [l for l in LemmaId
           if l not in (LemmaId.REL_3_DELTA_INPUT, LemmaId.REL_3_TT)]


class TestLemmaId:
    def test_round_trip(self):
        for lemma in LemmaId:
            assert LemmaId.from_string(lemma.value) is lemma

    def test_unknown(self):
        with pytest.raises(ValueError):
            LemmaId.from_string("REL-9-NOPE")


class TestRelations:
    @pytest.mark.parametrize("lemma", list(LemmaId),
                             ids=[l.value for l in LemmaId])
    def test_symbolic(self, lemma):
        verdict = verify_relation(lemma)
        assert verdict.passed
        assert verdict.lemma == lemma.value
        assert verdict.computed.canonical() == EXPECTED_STRINGS[lemma.value]
        assert verdict.computed == verdict.expected
        assert verdict.narrative

    @pytest.mark.parametrize("g", [0, 1, 4, 7])
    def test_sampled(self, g):
        for lemma, verdict in verify_all(g=g).items():
            assert verdict.passed, lemma
            # specialization oracle: computing at g is evaluating at g
            symbolic = verify_relation(lemma).computed
            assert verdict.computed == symbolic.evaluate(g), lemma

    @pytest.mark.parametrize("g", [None, 3])
    @pytest.mark.parametrize("lemma", DERIVED, ids=[l.value for l in DERIVED])
    def test_computed_is_sum_of_narrative(self, lemma, g):
        verdict = verify_relation(lemma, g=g)
        values = [value for _, value in verdict.narrative]
        assert len(values) >= 2
        total = values[0]
        for value in values[1:]:
            total = total + value
        assert total == verdict.computed

    def test_delta_at_g4(self):
        v = verify_relation(LemmaId.REL_111_DELTA, g=4)
        assert v.computed.canonical() == "zeta_p + zeta_q - 6*z - a1"

    def test_expected_class_follows_truncation(self, monkeypatch):
        monkeypatch.delenv("CHOWKIT_TRUNCATION", raising=False)
        assert verify_relation("REL-3-NODE").expected.ring \
            .truncation_degree == 4
        monkeypatch.setenv("CHOWKIT_TRUNCATION", "6")
        verdict = verify_relation("REL-3-NODE")
        assert verdict.passed
        assert verdict.expected.ring.truncation_degree == 6
        assert verdict.computed.ring == verdict.expected.ring

    def test_accepts_string_id(self):
        assert verify_relation("REL-21-NODE").passed

    def test_node_relation_agrees_across_presentations(self):
        pe = verify_relation(LemmaId.REL_21_NODE).computed
        x3 = verify_relation(LemmaId.REL_3_NODE).computed
        assert pe.canonical() == x3.canonical()

    def test_delta_input_is_marked_as_quoted(self):
        v = verify_relation(LemmaId.REL_3_DELTA_INPUT)
        assert any("quoted" in label.lower() for label, _ in v.narrative)

    def test_verify_all_order(self):
        assert list(verify_all()) == [l.value for l in LemmaId]

    def test_float_genus_raises_before_any_space_is_built(self):
        # Fraction(0.1) is the binary value 3602879701896397/2**55, so a
        # float genus is refused rather than read as some nearby rational
        cache = chowkit.spaces._CACHE
        before = dict(cache)
        for build in (lambda: build_space("X3", g=0.1),
                      lambda: verify_relation("REL-3-NODE", g=0.5),
                      lambda: tt_chain(g=0.5)):
            with pytest.raises(TypeError, match="expected int or Fraction"):
                build()
            assert cache == before
        assert build_space("X3", g=3).g_value == 3
        assert build_space("X3", g=Fraction(1, 10)).g_value == \
            Fraction(1, 10)


class TestChain:
    def test_stage_values(self):
        chain = tt_chain()
        stages = dict((name, elem.canonical())
                      for name, elem in chain.stages())
        assert stages == {
            "c3-free": "-3*zeta_p**3 + (4*g+8)*z*zeta_p**2 - "
                       "(g**2+4*g+4)*z**2*zeta_p + 4*a1*zeta_p**2 - "
                       "(2*g+4)*a1*z*zeta_p - a1**2*zeta_p",
            "c3-reduced": "3*a2*zeta_p - (g+2)*a2*z - a2*a1 + "
                          "3*a2p*z*zeta_p - a2p*a1*z + (g+2)*c2*a2p",
            "push-gamma": "3*a2 + 3*a2p*z",
            "push-pi": "3*a2p",
            "alpha-Y": "zeta_p + g*z + a1",
            "tt-class": "-zeta_p - g*z - a1 + 3*a2p",
        }

    @pytest.mark.parametrize("g", [0, 1, 2, 5, 7])
    def test_sampled_chain(self, g):
        chain = tt_chain(g=g)
        assert chain.push_pi.canonical() == "3*a2p"
        # specialization oracle: every stage computed at g is the symbolic
        # stage evaluated at g (at g = 0 the g*z terms vanish)
        for (name, got), (_, symbolic) in zip(chain.stages(),
                                              tt_chain().stages()):
            want = symbolic.evaluate(g)
            assert got == want, name
            assert got.canonical() == want.canonical(), name

    @pytest.mark.parametrize("truncation", ["1", "2"])
    def test_needs_truncation_3(self, monkeypatch, truncation):
        monkeypatch.setenv("CHOWKIT_TRUNCATION", truncation)
        with pytest.raises(TruncationTooLow, match=">= 3"):
            tt_chain()
        with pytest.raises(TruncationTooLow):
            triviality_check((3,), g=4)
        assert verify_relation("REL-3-NODE").passed

    def test_runs_at_truncation_3(self, monkeypatch):
        monkeypatch.setenv("CHOWKIT_TRUNCATION", "3")
        assert tt_chain().tt_class.canonical() == EXPECTED_STRINGS["REL-3-TT"]

    def test_stage_failure_type(self):
        err = StageFailure("c3-free", "3*zeta_p", "zeta_p")
        assert err.stage == "c3-free"
        assert (err.computed, err.expected) == ("3*zeta_p", "zeta_p")
        assert "c3-free" in str(err)
        assert "computed 3*zeta_p, expected zeta_p" in str(err)

    def test_relation_matrix_failure_names_both_classes(self, monkeypatch):
        import chowkit.verify as verify_mod
        broken = dict(verify_mod.EXPECTED)
        broken[LemmaId.REL_21_NODE] = "zeta_p"
        monkeypatch.setattr(verify_mod, "EXPECTED", broken)
        with pytest.raises(StageFailure) as info:
            relation_matrix((2, 1))
        err = info.value
        assert err.stage == "relation-matrix"
        assert err.computed == EXPECTED_STRINGS["REL-21-NODE"]
        assert err.expected == "zeta_p"
        assert "REL-21-NODE" in str(err)


class TestLinalg:
    def test_rank_fraction(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert rank_fraction(rows) == 1
        assert rank_fraction([[Fraction(0)]]) == 0

    def test_bareiss_det(self):
        one = ParamPoly.const(1)
        g = ParamPoly((Fraction(0), Fraction(1)))
        det = bareiss_det([[one, g], [g, one]])
        assert det == one - g * g
        assert bareiss_det([]) == one

    def test_solve_cramer(self):
        one = ParamPoly.const(1)
        two = ParamPoly.const(2)
        nums, den = solve_cramer([[one, one], [one, -one]], [two, two * 0])
        # x = y = 1 after dividing by the determinant
        assert nums[0].exact_div(den) == one
        assert nums[1].exact_div(den) == one

    def test_param_rank_certifies(self):
        one = ParamPoly.const(1)
        g = ParamPoly((Fraction(0), Fraction(1)))
        assert param_rank([[one, g], [g * 0, one + g]]) == 2
        with pytest.raises(ValueError):
            # the only pivot candidate vanishes at g = 0
            param_rank([[g]])
        # a root far out is found exactly, so the 1 is the certified pivot
        assert param_rank([[g - 2000000, 1]]) == 1

    def test_rank_at_samples(self):
        one = ParamPoly.const(1)
        g = ParamPoly((Fraction(0), Fraction(1)))
        out = rank_at_samples([[g, one]], [0, 1])
        assert out == {0: 1, 1: 1}


class TestRelationMatrix:
    def test_mu3(self):
        basis, rows, labels = relation_matrix((3,))
        assert basis == ("zeta_p", "z", "a1", "a2p")
        assert labels == ("REL-3-DELTA-INPUT", "REL-3-CONTACT4",
                          "REL-3-NODE", "REL-3-TT")
        assert len(rows) == 4 and all(len(r) == 4 for r in rows)

    def test_mu21(self):
        basis, rows, labels = relation_matrix((2, 1))
        assert basis == ("zeta_p", "z", "a1")
        assert labels == ("REL-21-TRIPLE", "REL-21-NODE")

    def test_mu111(self):
        basis, rows, labels = relation_matrix((1, 1, 1))
        assert basis == ("zeta_p", "zeta_q", "z", "a1")
        assert labels == ("REL-111-DELTA", "REL-111-RAM-P", "REL-111-RAM-Q")

    def test_systems_partition_the_lemmas(self):
        labels = [label for mu in ((3,), (2, 1), (1, 1, 1))
                  for label in relation_matrix(mu)[2]]
        assert len(labels) == len(set(labels))
        assert set(labels) == {lemma.value for lemma in LemmaId}

    def test_unsorted_mu_normalized(self):
        assert relation_matrix((1, 2))[0] == relation_matrix((2, 1))[0]

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            relation_matrix((4,))


class TestDeterminant:
    """The mu=(3) determinant, as its triviality certificate holds it."""

    def test_polynomial(self):
        det = triviality_check((3,)).determinant
        assert str(det) == "-72*g**2-108*g-36"
        # -36 (2g+1)(g+1)
        two_g_plus_1 = ParamPoly((Fraction(1), Fraction(2)))
        g_plus_1 = ParamPoly((Fraction(1), Fraction(1)))
        assert det == ParamPoly.const(-36) * two_g_plus_1 * g_plus_1

    def test_value_at_zero(self):
        assert abs(triviality_check((3,)).determinant(0)) == 36

    def test_no_nonneg_integer_roots(self):
        det = triviality_check((3,)).determinant
        assert det.nonneg_integer_roots() == []

    def test_rank_over_samples(self):
        _, rows, _ = relation_matrix((3,))
        ranks = rank_at_samples(rows, range(0, 51))
        assert set(ranks.values()) == {4}


class TestTriviality:
    def test_mu21(self):
        rep = triviality_check((2, 1))
        assert rep.passed
        assert rep.basis == ("zeta_p", "z", "a1")
        num, den = rep.solved["zeta_p"]
        # zeta_p = 2 a1 / (-2g - 2) = -a1 / (g + 1)
        assert num.canonical() == "2*a1"
        assert str(den) == "-2*g-2"
        assert rep.solved["z"][0].canonical() == "2*a1"
        assert den.nonvanishing_for_nonneg_g()

    def test_mu111(self):
        rep = triviality_check((1, 1, 1))
        assert rep.passed
        assert rep.rank == 5
        assert rep.basis == ("zeta_p", "zeta_q", "z", "a1", "a2p")
        num, den = rep.solved["z"]
        assert num.canonical() == "zeta_p + zeta_q - a1"
        assert str(den) == "g+2"
        assert rep.solved["zeta_p"][0].canonical() == "0"

    def test_mu3(self):
        rep = triviality_check((3,))
        assert rep.passed
        assert str(rep.determinant) == "-72*g**2-108*g-36"
        assert rep.det_roots == ()
        assert rep.rank == 4
        assert rep.basis == ("zeta_p", "z", "a1", "a2p")

    @pytest.mark.parametrize("mu", [(2, 1), (1, 1, 1), (3,)])
    def test_truthy_and_narrated(self, mu):
        rep = triviality_check(mu)
        assert bool(rep)
        assert rep.narrative

    @pytest.mark.parametrize("g", [0, 3, 11])
    def test_sampled(self, g):
        for mu in ((2, 1), (1, 1, 1), (3,)):
            assert triviality_check(mu, g=g).passed

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            triviality_check((5,))

    def test_mu111_verifies_each_relation_once(self, monkeypatch):
        # the z solution is read off the DELTA row, not rebuilt
        import chowkit.verify as verify_mod
        calls = []
        real = verify_mod.verify_relation

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "verify_relation", counting)
        assert triviality_check((1, 1, 1)).passed
        assert len(calls) == 3


class TestTamperDetection:
    def test_wrong_expected_fails(self, monkeypatch):
        import chowkit.verify as verify_mod
        x3 = build_space("X3")
        broken = dict(verify_mod.EXPECTED)
        broken[LemmaId.REL_3_CONTACT4] = "zeta_p"
        monkeypatch.setattr(verify_mod, "EXPECTED", broken)
        verdict = verify_relation(LemmaId.REL_3_CONTACT4)
        assert not verdict.passed
        assert not bool(verdict)
        del x3
