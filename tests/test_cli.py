"""Driver behavior: exit codes, text output, JSON stability, and the
frozen report schema."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chowkit
from chowkit.cli import (_REPORT_FIELDS, Report, _empty_report, _Json,
                         _json_text, main, parse_g_spec)
from chowkit.strata import (FACTOR_SHAPES, FactorSpace, StratumDescriptor,
                            codim1_families, enumerate_codim1,
                            oracle_enumerate)
from chowkit.verify import LemmaId


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def time_bound(seconds):
    """Fail the block with TimeoutError once it runs past seconds, so a
    cost that regresses to the full matrix fails fast instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_same_text(got, want):
    """got == want, reporting only the first line that differs.

    On a failed == between two long strings pytest diffs them in full,
    which takes minutes on the 6.5 MB report at g = 2000.
    """
    if got == want:
        return
    got_lines = got.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    at = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines))
               if a != b), min(len(got_lines), len(want_lines)))

    def line(lines):
        return repr(lines[at])[:200] if at < len(lines) else "end of text"

    pytest.fail(f"texts differ first at line {at + 1}: got "
                f"{line(got_lines)}, want {line(want_lines)}", pytrace=False)


# -- a small validator for the draft-07 subset the schema uses --

def _resolve(schema, ref):
    node = schema
    for part in ref.lstrip("#/").split("/"):
        node = node[part]
    return node


def _check(schema, node, value, path="$"):
    if "$ref" in node:
        return _check(schema, _resolve(schema, node["$ref"]), value, path)
    if "oneOf" in node:
        hits = 0
        for option in node["oneOf"]:
            try:
                _check(schema, option, value, path)
                hits += 1
            except AssertionError:
                pass
        assert hits == 1, f"{path}: matched {hits} oneOf branches"
        return
    if "enum" in node:
        assert value in node["enum"], f"{path}: {value!r} not in enum"
        return
    kind = node.get("type")
    if kind == "object":
        assert isinstance(value, dict), f"{path}: expected object"
        for key in node.get("required", ()):
            assert key in value, f"{path}: missing {key}"
        props = node.get("properties", {})
        if node.get("additionalProperties") is False:
            extras = set(value) - set(props)
            assert not extras, f"{path}: unexpected keys {extras}"
        for key, sub in props.items():
            if key in value:
                _check(schema, sub, value[key], f"{path}.{key}")
    elif kind == "array":
        assert isinstance(value, list), f"{path}: expected array"
        for i, item in enumerate(value):
            _check(schema, node["items"], item, f"{path}[{i}]")
    elif kind == "string":
        assert isinstance(value, str), f"{path}: expected string"
    elif kind == "integer":
        assert isinstance(value, int) and not isinstance(value, bool), \
            f"{path}: expected integer"
        if "minimum" in node:
            assert value >= node["minimum"], f"{path}: below minimum"
    elif kind == "boolean":
        assert isinstance(value, bool), f"{path}: expected boolean"
    elif kind == "null":
        assert value is None, f"{path}: expected null"
    else:
        raise AssertionError(f"{path}: unhandled schema node {node}")


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("chowkit") / "report-schema.json").read_text()
    return json.loads(text)


def validate_report(schema, text):
    _check(schema, schema, json.loads(text))


class TestGSpec:
    def test_forms(self):
        assert parse_g_spec("symbolic") is None
        assert parse_g_spec("4") == [4]
        assert parse_g_spec("0,2,2,1") == [0, 2, 1]
        assert parse_g_spec("3..6") == [3, 4, 5, 6]
        assert parse_g_spec("0,10..12") == [0, 10, 11, 12]

    def test_rejects(self):
        for bad in ("-1", "5..3", "", "1,,2", "x"):
            with pytest.raises(ValueError):
                parse_g_spec(bad)


class TestVerifyCommand:
    def test_symbolic_all(self, capsys):
        code, out, err = run(capsys, "verify", "--g", "symbolic",
                             "--lemma", "all")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if " pass " in l) == 9
        assert sum(1 for l in lines if l.startswith("chain ")) == 6
        assert lines[-1] == "overall: PASS"

    def test_single_lemma_sampled(self, capsys):
        code, out, _ = run(capsys, "verify", "--g", "0..3",
                           "--lemma", "REL-21-NODE")
        assert code == 0
        assert out.count("REL-21-NODE") == 4
        assert "chain" not in out

    def test_unknown_lemma_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--lemma", "REL-NOPE")
        assert code == 2
        assert "unknown lemma" in err
        assert out == ""

    def test_bad_g_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--g", "-2")
        assert code == 2
        assert "bad --g" in err

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        import chowkit.verify as verify_mod
        from chowkit.verify import LemmaId
        broken = dict(verify_mod.EXPECTED)
        broken[LemmaId.REL_21_TRIPLE] = "zeta_p"
        monkeypatch.setattr(verify_mod, "EXPECTED", broken)
        code, out, _ = run(capsys, "verify", "--lemma", "REL-21-TRIPLE")
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys, schema):
        code, out, _ = run(capsys, "verify", "--g", "symbolic",
                           "--format", "json")
        assert code == 0
        validate_report(schema, out)
        payload = json.loads(out)
        assert list(payload) == ["tool-version", "mode", "g-values",
                                 "verdicts", "chain", "strata",
                                 "determinant", "overall-pass"]
        assert payload["mode"] == "symbolic"
        assert len(payload["verdicts"]) == 9
        assert payload["chain"]["tt-class"] == \
            "-zeta_p - g*z - a1 + 3*a2p"
        assert payload["overall-pass"] is True

    def test_json_byte_stable_and_round_trip(self, capsys):
        _, first, _ = run(capsys, "verify", "--g", "0,4",
                          "--lemma", "REL-3-TT", "--format", "json")
        _, second, _ = run(capsys, "verify", "--g", "0,4",
                           "--lemma", "REL-3-TT", "--format", "json")
        assert first == second
        report = Report.from_json(first)
        assert report.to_json() + "\n" == first
        assert Report.from_json(report.to_json()) == report
        assert report.mode == "sampled"
        assert report.g_values == [0, 4]
        assert report.chain is None


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def _traced_peak(fn):
    """The peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _strata_peak(*argv):
    """(traced peak, characters written) of one strata run into a
    counting sink."""
    sink = _CountingSink()

    def command():
        with contextlib.redirect_stdout(sink):
            assert main(["strata", *argv]) == 0

    return _traced_peak(command), sink.chars


class TestStrataCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "strata", "--g", "4")
        assert code == 0
        assert "total: 18" in out
        assert "D7 (2,1): H(3;2;(2,1)) x H(3;1;(2,1)) [trivial]" in out

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "strata", "--g", "3", "--oracle")
        assert code == 0
        assert "oracle: agrees" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_count_mismatch_fails_the_report(self, capsys, monkeypatch, fmt):
        # a family walk one stratum short of the families' count fails
        # both formats, with and without --oracle
        monkeypatch.setattr(chowkit.cli, "codim1_walk", _drop_one)
        for args, count in ((("--g", "50"), 202),
                            (("--g", "9", "--oracle"), 37)):
            code, out, err = run(capsys, "strata", *args, "--format", fmt)
            assert code == 1, args
            assert (f"strata count mismatch: {count} counted, {count - 1} "
                    f"written\n") in err
            if fmt == "text":
                assert f"\ntotal: {count - 1}\n" in out
                assert out.endswith("overall: FAIL\n")
            else:
                assert json.loads(out)["overall-pass"] is False

    def test_oracle_guard_exits_2(self, capsys):
        code, _, err = run(capsys, "strata", "--g", "31", "--oracle")
        assert code == 2
        assert "capped" in err

    def test_oracle_cap_checked_before_enumerating(self, capsys,
                                                   monkeypatch):
        def refuse(g):
            raise AssertionError("enumerated before the oracle cap check")

        monkeypatch.setattr(chowkit.cli, "enumerate_codim1", refuse)
        code, out, err = run(capsys, "strata", "--g", "1000000", "--oracle")
        assert code == 2
        assert out == ""
        assert "oracle capped at genus 30" in err

    def test_json_renders_each_side_once(self, capsys, monkeypatch):
        # g = 2000: 8002 strata; both formats fill in their family's
        # display template, so neither formats a stratum
        counts = {"format_stratum": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in counts:
            monkeypatch.setattr(chowkit.strata, name,
                                counting(name, getattr(chowkit.strata, name)))
        monkeypatch.setattr(chowkit.cli, "format_stratum",
                            chowkit.strata.format_stratum, raising=False)
        for fmt, calls in (("json", 0), ("text", 0)):
            counts.update(dict.fromkeys(counts, 0))
            code, _, _ = run(capsys, "strata", "--g", "2000", "--format", fmt)
            assert code == 0
            assert counts["format_stratum"] == calls, fmt

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_work_is_constant_in_the_genus(self, monkeypatch, fmt):
        # the CLI builds descriptors only to validate each family at its
        # ends, so g = 2000 and g = 10^4 build the same objects
        built = {FactorSpace: 0, StratumDescriptor: 0}
        for cls in built:
            def counting(self, cls=cls, init=cls.__post_init__):
                built[cls] += 1
                init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        counts = []
        for g in (2000, 10**4):
            built.update(dict.fromkeys(built, 0))
            with contextlib.redirect_stdout(_CountingSink()):
                assert main(["strata", "--g", str(g), "--format", fmt]) == 0
            counts.append(dict(built))
        assert counts[0] == counts[1]
        assert counts[0][StratumDescriptor] <= 2 * 11
        assert len(codim1_families(10**4)) == 11

    @staticmethod
    def assert_bounded_by_split(*fmt):
        # five times the genus writes five times the report at about the
        # same peak
        _strata_peak("--g", "0", *fmt)  # first-call allocations, not measured
        small, small_chars = _strata_peak("--g", "2000", *fmt)
        large, large_chars = _strata_peak("--g", "10000", *fmt)
        assert large_chars > 4 * small_chars
        assert large <= 2 * small, (small, large)

    def test_text_memory_bounded_by_split(self):
        # the text report holds one stratum at a time
        self.assert_bounded_by_split()

    def test_json_memory_bounded_by_split(self):
        # the count is the family sizes' sum, so the JSON report too holds
        # one stratum at a time, and no descriptor list
        self.assert_bounded_by_split("--format", "json")

    @pytest.mark.parametrize("shape", list(FACTOR_SHAPES))
    def test_oracle_fails_on_a_missing_shape(self, capsys, monkeypatch,
                                             shape):
        # the oracle finds its sides by Riemann-Hurwitz, so a shape dropped
        # from the table is a failed check, not a skipped side
        monkeypatch.delitem(FACTOR_SHAPES, shape)
        code, out, err = run(capsys, "strata", "--g", "9", "--oracle")
        assert (code, out) == (1, "")
        degrees, profiles = shape
        assert f"degrees {degrees}, profiles {profiles}" in err

    def test_oracle_fails_on_a_wrong_offset(self, capsys, monkeypatch):
        # the oracle counts branch points by Riemann-Hurwitz itself, so a
        # wrong offset in the table is a failed check too
        shape = ((3,), ((3,),))
        monkeypatch.setitem(FACTOR_SHAPES, shape,
                            FACTOR_SHAPES[shape]._replace(offsets=(4,)))
        code, out, err = run(capsys, "strata", "--g", "9", "--oracle")
        assert (code, out) == (1, "")
        assert "degrees (3,), profiles ((3,),) and branch needs (2,)" in err

    def test_oracle_fails_on_a_duplicate(self, capsys, monkeypatch):
        sweep = chowkit.strata._oracle_sides
        monkeypatch.setattr(chowkit.strata, "_oracle_sides", lambda *a: {
            total: sides * 2 for total, sides in sweep(*a).items()})
        code, out, err = run(capsys, "strata", "--g", "9", "--oracle")
        assert (code, out) == (1, "")
        assert err.startswith("oracle found D") and err.endswith(" twice\n")

    def test_negative_genus_exits_2(self, capsys):
        code, _, err = run(capsys, "strata", "--g", "-1")
        assert code == 2

    def test_json(self, capsys, schema):
        code, out, _ = run(capsys, "strata", "--g", "0",
                           "--format", "json")
        assert code == 0
        validate_report(schema, out)
        payload = json.loads(out)
        block = payload["strata"]
        assert block["genus"] == 0
        assert block["count"] == 2
        assert block["oracle-checked"] is False
        assert block["oracle-agrees"] is None
        assert block["strata"][0]["display"] == \
            "D2 (3): H(3;0;(3)) x H(3;0;(3)) [Z2]"


_JSON_TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) \
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f",
                       "\u2028\u2029", "ζ_p", "\U0001d49e"])
_JSON_LEAVES = (st.none() | st.booleans() | _JSON_TEXT
                | st.integers() | st.sampled_from([0, -1, 10**40, -10**40]))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20)


_PADS = st.text(alphabet=" ", max_size=8)


def reference_display(factor):
    """A side's display string built from its fields, independent of the
    shape templates that FactorSpace fills in."""
    degrees = ",".join(str(k) for k in factor.degrees)
    genera = ",".join(str(gi) for gi in factor.genera)
    profiles = ",".join("(" + ",".join(str(p) for p in prof) + ")"
                        for prof in factor.profiles)
    return f"H({degrees};{genera};{profiles})"


def _side_payload(factor):
    return {
        "degrees": list(factor.degrees),
        "genera": list(factor.genera),
        "profiles": [list(p) for p in factor.profiles],
        "display": reference_display(factor),
    }


def test_display_matches_reference():
    for g in (*range(401), 2000):
        for s in enumerate_codim1(g):
            for side in (s.side1, s.side2):
                assert side.display == reference_display(side), g


def _drop_one(families):
    """codim1_walk without its first stratum."""
    walk = chowkit.strata.codim1_walk(families)
    next(walk)
    yield from walk


def reference_stratum_display(stratum):
    profile = ",".join(str(p) for p in stratum.node_profile)
    return (f"D{stratum.j} ({profile}): {reference_display(stratum.side1)} "
            f"x {reference_display(stratum.side2)} [{stratum.quotient_group}]")


def _stratum_payload(stratum):
    """Reference: one stratum's report entry as a plain dict, each side
    formatted afresh."""
    return {
        "j": stratum.j,
        "node-profile": list(stratum.node_profile),
        "side1": _side_payload(stratum.side1),
        "side2": _side_payload(stratum.side2),
        "quotient": stratum.quotient_group,
        "display": reference_stratum_display(stratum),
    }


def _strata_payload(g, oracle, agrees, source=enumerate_codim1):
    strata = source(g)
    return {
        "genus": g,
        "count": len(strata),
        "oracle-checked": oracle,
        "oracle-agrees": agrees,
        "strata": [_stratum_payload(s) for s in strata],
    }


def _strata_reference(g, oracle=False, agrees=None,
                      source=enumerate_codim1):
    """Reference: the whole stdout of `strata --g g --format json`, with
    or without --oracle, through json.dumps, from source's strata."""
    return json.dumps({
        "tool-version": chowkit.__version__,
        "mode": "sampled",
        "g-values": [g],
        "verdicts": [],
        "chain": None,
        "strata": _strata_payload(g, oracle, agrees, source),
        "determinant": None,
        "overall-pass": agrees is not False,
    }, indent=2, ensure_ascii=False) + "\n"


class TestJsonWriter:
    """The report writer is json.dumps(indent=2, ensure_ascii=False)."""

    @given(_JSON_VALUES)
    def test_matches_stdlib(self, value):
        assert _json_text(value) == json.dumps(value, indent=2,
                                               ensure_ascii=False)

    @given(_JSON_VALUES, _JSON_TEXT, _PADS)
    def test_fragment_writes_as_its_value(self, value, key, pad):
        # _JSON_TEXT draws strings with newlines, U+2028 and quotes
        fragment = _Json(_json_text(value))
        assert _json_text(fragment, pad) == _json_text(value, pad)
        assert _json_text([fragment, 0], pad) == _json_text([value, 0], pad)
        assert _json_text({key: fragment}, pad) == \
            _json_text({key: value}, pad)
        assert _json_text({key: [fragment]}) == json.dumps(
            {key: [value]}, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("g", [*range(31), 2000])
    def test_strata_json_matches_reference(self, g, capsys):
        code, out, _ = run(capsys, "strata", "--g", str(g), "--format", "json")
        assert code == 0
        assert_same_text(out, _strata_reference(g))

    def test_strata_match_the_oracle_reference(self, capsys):
        # the oracle finds the strata without the family table the CLI
        # walks, and the reference formats them afresh, so this gates the
        # table and both writers
        for g in range(31):
            code, out, _ = run(capsys, "strata", "--g", str(g),
                               "--format", "json")
            assert code == 0
            assert_same_text(out, _strata_reference(
                g, source=oracle_enumerate))
            strata = oracle_enumerate(g)
            code, out, _ = run(capsys, "strata", "--g", str(g))
            assert code == 0
            assert_same_text(out, "".join(
                [reference_stratum_display(s) + "\n" for s in strata])
                + f"total: {len(strata)}\noverall: PASS\n")

    def test_large_strata_report_matches_stdlib(self, capsys):
        # the whole-report writer on the 6.5 MB report, as the streamed
        # stdout and Report.from_json(...).to_json() both need it
        code, out, _ = run(capsys, "strata", "--g", "2000", "--format", "json")
        assert code == 0
        report = _empty_report(mode="sampled", g_values=[2000])
        report.strata = _strata_payload(2000, oracle=False, agrees=None)
        payload = {key: getattr(report, attr)
                   for key, attr in _REPORT_FIELDS}
        text = report.to_json()
        assert_same_text(text, json.dumps(payload, indent=2,
                                          ensure_ascii=False))
        assert_same_text(text + "\n", out)
        assert_same_text(Report.from_json(out).to_json() + "\n", out)

    @pytest.mark.parametrize("g", [0, 7, 30])
    def test_oracle_report_matches_reference(self, g, capsys):
        code, out, _ = run(capsys, "strata", "--g", str(g), "--oracle",
                           "--format", "json")
        assert code == 0
        assert_same_text(out, _strata_reference(g, oracle=True, agrees=True))

    def test_oracle_mismatch_report(self, capsys, monkeypatch, schema):
        monkeypatch.setattr(chowkit.cli, "oracle_enumerate",
                            lambda g: enumerate_codim1(g)[1:])
        code, out, err = run(capsys, "strata", "--g", "9", "--oracle",
                             "--format", "json")
        assert code == 1
        assert "oracle mismatch: 37 enumerated vs 36 brute-forced" in err
        validate_report(schema, out)
        payload = json.loads(out)
        assert payload["strata"]["oracle-agrees"] is False
        assert payload["overall-pass"] is False
        assert_same_text(out, _strata_reference(9, oracle=True,
                                                agrees=False))
        code, out, _ = run(capsys, "strata", "--g", "9", "--oracle")
        assert code == 1
        assert out.endswith("total: 37\noracle: MISMATCH\noverall: FAIL\n")

    def test_count_mismatch_report(self, capsys, monkeypatch, schema):
        # count is written before the list, from the family sizes; a list
        # that comes out short fails the report rather than being recounted
        monkeypatch.setattr(chowkit.cli, "codim1_walk", _drop_one)
        code, out, err = run(capsys, "strata", "--g", "50", "--format", "json")
        assert code == 1
        assert "strata count mismatch: 202 counted, 201 written" in err
        validate_report(schema, out)
        payload = json.loads(out)
        assert payload["overall-pass"] is False
        block = payload["strata"]
        assert (block["count"], len(block["strata"])) == (202, 201)
        # --oracle writes the same walk, after comparing the descriptors
        code, out, err = run(capsys, "strata", "--g", "9", "--oracle",
                             "--format", "json")
        assert (code, err) == (1, "strata count mismatch: 37 counted, "
                                  "36 written\n")
        block = json.loads(out)["strata"]
        assert (block["count"], len(block["strata"])) == (37, 36)
        assert block["oracle-agrees"] is True

    @pytest.mark.parametrize("bad", [1.5, (1, 2), {"a": [0.0]}, {1: 2},
                                     {"a": {1, 2}}])
    def test_rejects_other_types(self, bad):
        with pytest.raises(TypeError):
            _json_text(bad)


class TestDetCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "det")
        assert code == 0
        assert "determinant in basis (zeta_p, z, a1, a2p): " \
               "-72*g**2-108*g-36" in out
        assert "no roots at integers g >= 0" in out
        assert "certified rank: 4" in out

    def test_json(self, capsys, schema):
        code, out, _ = run(capsys, "det", "--format", "json")
        assert code == 0
        validate_report(schema, out)
        payload = json.loads(out)
        d = payload["determinant"]
        assert d["poly"] == "-72*g**2-108*g-36"
        assert d["nonneg-integer-roots"] == []
        assert d["rank"] == 4


    def test_stage_failure_exits_1(self, capsys, monkeypatch):
        import chowkit.verify as verify_mod
        from chowkit.verify import LemmaId
        broken = dict(verify_mod.EXPECTED)
        broken[LemmaId.REL_3_TT] = "zeta_p"
        monkeypatch.setattr(verify_mod, "EXPECTED", broken)
        code, out, err = run(capsys, "det", "--format", "json")
        assert code == 1
        assert out == ""
        assert "aborted at stage 'tt-class'" in err
        assert "computed -zeta_p - g*z - a1 + 3*a2p" in err
        assert "expected zeta_p" in err

    def test_singular_system_exits_1(self, capsys, monkeypatch, schema):
        import chowkit.verify as verify_mod
        from chowkit.verify import LemmaId
        # quote the node class as the delta input: two equal rows
        broken = dict(verify_mod.EXPECTED)
        broken[LemmaId.REL_3_DELTA_INPUT] = "3*zeta_p - (g+4)*z - a1"
        monkeypatch.setattr(verify_mod, "EXPECTED", broken)
        code, out, _ = run(capsys, "det", "--format", "json")
        assert code == 1
        validate_report(schema, out)
        payload = json.loads(out)
        assert payload["determinant"]["poly"] == "0"
        assert payload["determinant"]["nonneg-integer-roots"] == []
        assert payload["determinant"]["rank"] == 3
        assert payload["overall-pass"] is False

    def test_runs_tt_chain_once(self, capsys, monkeypatch):
        import chowkit.verify as verify_mod
        calls = []
        real = verify_mod.tt_chain

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "tt_chain", counting)
        code, _, _ = run(capsys, "det", "--format", "json")
        assert code == 0
        assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--g", "symbolic"),
    ("verify", "--lemma", "REL-3-TT", "--format", "json"),
])
def test_verify_runs_tt_chain_once(capsys, monkeypatch, argv):
    # the printed chain is the one behind the REL-3-TT verdict; count the
    # calls through every binding of the name
    import chowkit.cli as cli_mod
    import chowkit.verify as verify_mod
    calls = []
    real = verify_mod.tt_chain

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "tt_chain", counting)
    monkeypatch.setattr(cli_mod, "tt_chain", counting, raising=False)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "tt-class" in out
    assert len(calls) == 1


@pytest.mark.parametrize("truncation", ["1", "2"])
class TestTruncationGuard:
    """Commands that need the tt chain refuse a truncation below 3."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--g", "symbolic"),
        ("verify", "--g", "0..2", "--format", "json"),
        ("verify", "--lemma", "REL-3-TT"),
        ("det",),
        ("det", "--format", "json"),
    ])
    def test_chain_commands_exit_2(self, capsys, monkeypatch, truncation,
                                   argv):
        monkeypatch.setenv("CHOWKIT_TRUNCATION", truncation)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert ">= 3" in err
        assert "Traceback" not in err

    def test_chain_free_lemma_still_passes(self, capsys, monkeypatch,
                                           truncation):
        monkeypatch.setenv("CHOWKIT_TRUNCATION", truncation)
        code, out, _ = run(capsys, "verify", "--lemma", "REL-111-DELTA")
        assert code == 0
        assert out.splitlines()[-1] == "overall: PASS"


# int() alone would run the last four at truncation 3, 3, 10 and 3
@pytest.mark.parametrize("truncation", ["abc", "0", "-1", "\u0663", "+3",
                                        "1_0", "\uff13"])
@pytest.mark.parametrize("argv", [
    ("verify", "--g", "symbolic"),
    ("verify", "--g", "0..2", "--format", "json"),
    ("verify", "--lemma", "REL-111-DELTA"),
    ("det",),
    ("det", "--format", "json"),
])
def test_bad_truncation_is_a_usage_error(capsys, monkeypatch, truncation,
                                         argv):
    monkeypatch.setenv("CHOWKIT_TRUNCATION", truncation)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "CHOWKIT_TRUNCATION must be" in err
    assert "Traceback" not in err


def test_truncation_spacing_still_accepted(capsys, monkeypatch):
    monkeypatch.setenv("CHOWKIT_TRUNCATION", " 4 ")
    code, out, _ = run(capsys, "verify", "--g", "1", "--lemma", "REL-3-TT")
    assert code == 0
    assert out.splitlines()[-1] == "overall: PASS"


class TestJetCommand:
    def test_off_directrix(self, capsys):
        code, out, _ = run(capsys, "jet", "--m", "2", "--n", "4")
        assert code == 0
        assert "matrix 6x16, rank 6" in out
        assert "inside the globally generated locus" in out

    def test_on_directrix_boundary(self, capsys):
        code, out, _ = run(capsys, "jet", "--m", "2", "--n", "4",
                           "--p-directrix", "--q-directrix")
        assert code == 0
        assert "rank 5" in out

    def test_on_directrix_interior(self, capsys):
        code, out, _ = run(capsys, "jet", "--m", "3", "--n", "3",
                           "--p-directrix", "--q-directrix")
        assert code == 0
        assert "rank 6" in out

    def test_values_only(self, capsys):
        code, out, _ = run(capsys, "jet", "--m", "2", "--n", "4",
                           "--rows", "1p1q")
        assert code == 0
        assert "rank 2" in out

    def test_row_counts_cost_nothing(self, capsys):
        # jets of order 4 or more are zero rows: 10**8 of them are counted
        # in the shape, never built
        with time_bound(1.0):
            code, out, _ = run(capsys, "jet", "--m", "2", "--n", "4",
                               "--rows", "100000000p3q")
        assert code == 0
        assert "matrix 100000003x16, rank 7" in out

    def test_outside_locus(self, capsys):
        code, out, _ = run(capsys, "jet", "--m", "1", "--n", "5")
        assert code == 0
        assert "outside the globally generated locus" in out

    def test_malformed_rows_exits_2(self, capsys):
        for bad in ("bogus", "3p", "p3q", "0p3q", "3.5p2q"):
            code, _, err = run(capsys, "jet", "--m", "2", "--n", "4",
                               "--rows", bad)
            assert code == 2, bad

    @pytest.mark.parametrize("rows", ["3p\u0663q", "3p\u00b2q"],
                             ids=["arabic-indic-3", "superscript-2"])
    def test_rows_in_ascii_digits(self, capsys, rows):
        # both pass str.isdigit: int() ran '\u0663' as 3 and refused
        # '\u00b2' with its own message
        code, out, err = run(capsys, "jet", "--m", "2", "--n", "4",
                             "--rows", rows)
        assert code == 2
        assert out == ""
        assert f"row spec {rows!r} needs integer jet counts" in err

    def test_unnormalized_splitting_exits_2(self, capsys):
        code, _, err = run(capsys, "jet", "--m", "4", "--n", "2")
        assert code == 2

    def test_negative_m_exits_2(self, capsys):
        # the supported splittings are 0 <= m <= n
        code, out, err = run(capsys, "jet", "--m", "-1", "--n", "3")
        assert code == 2
        assert out == ""
        assert "0 <= m <= n" in err

    @pytest.mark.parametrize("m, n", [("\u0663", "4"), ("2", "1_0"),
                                      ("+2", "4"), ("2", "4.0"),
                                      ("", "4"), ("2", "\uff14")],
                             ids=["arabic-indic-3", "underscore", "plus",
                                  "decimal-point", "empty", "fullwidth-4"])
    def test_splitting_in_ascii_digits(self, capsys, m, n):
        # read like a genus: int() alone would run '\u0663' as 3 and
        # '1_0' as 10
        code, out, err = run(capsys, "jet", "--m", m, "--n", n)
        assert code == 2
        assert out == ""
        assert "0 <= m <= n in ASCII digits" in err
        assert "Traceback" not in err


class TestGenusInput:
    """A genus is ASCII decimal digits: int() alone would also read a
    non-ASCII digit such as Arabic-Indic three, an underscore or a sign."""

    @pytest.mark.parametrize("command", ["verify", "strata"])
    @pytest.mark.parametrize("text", ["\u0663", "1_0", "+3", "3.0", "",
                                      "-1", "0x3", "\uff13"],
                             ids=["arabic-indic-3", "underscore", "plus",
                                  "decimal-point", "empty", "negative",
                                  "hex", "fullwidth-3"])
    def test_rejected(self, capsys, command, text):
        code, out, err = run(capsys, command, "--g", text)
        assert code == 2
        assert out == ""
        assert "bad --g value" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["\u0663", "1_0", "0..\u0663", "1_0..12",
                                     "+3", " ", "0, 1_0"],
                             ids=["arabic-indic-3", "underscore",
                                  "range-end", "range-start", "plus",
                                  "blank", "list-entry"])
    def test_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_g_spec(bad)

    def test_spacing_still_accepted(self, capsys):
        assert parse_g_spec(" 3 ,4.. 5") == [3, 4, 5]
        code, out, _ = run(capsys, "strata", "--g", " 1 ")
        assert code == 0
        assert "\ntotal: 5\n" in out


class TestParser:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "yaml"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        # the child imports the same package as this process, installed or
        # found through pytest's pythonpath setting
        src = str(Path(chowkit.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-m", "chowkit", "--version"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0
        assert out.stdout.strip().startswith("chowkit ")


# -- the input contract, fuzzed --

#: tokens no subcommand accepts where it asks for a value: non-ASCII
#: digits, signs, underscores, floats, blanks, bad ranges and row specs,
#: unknown lemma ids, flags in place of values
_MALFORMED = st.sampled_from([
    "\u0663", "\u00b2", "\uff13", "+3", "-1", "1_0", "3.0", "1e3", "", " ",
    "0x3", "5..2", "0..", "..3", "0..1..2", "1,,2", "3p", "p3q", "3p\u0663q",
    "3p\u00b2q", "0p3q", "3.5p2q", "REL-9", "rel-3-tt", "all2", "yaml",
    "--bogus", "--g", "-h"])
_SMALL_INT = st.integers(0, 12).map(str)
_FORMAT = st.sampled_from(["text", "json"])

#: per subcommand, each value flag with its small valid values and each
#: bare flag with None
_GRAMMAR = {
    "verify": {
        "--g": _SMALL_INT | st.sampled_from(
            ["symbolic", "0..2", "1,3", " 2 ", "2..2", "0,0"]),
        "--lemma": st.sampled_from(["all"] + [m.value for m in LemmaId]),
        "--format": _FORMAT,
    },
    "strata": {
        "--g": st.integers(0, 40).map(str) | st.just(" 3 "),
        "--oracle": None,
        "--format": _FORMAT,
    },
    "det": {"--format": _FORMAT},
    "jet": {
        "--m": _SMALL_INT | st.integers(0, 10 ** 6).map(str),
        "--n": _SMALL_INT | st.integers(0, 10 ** 6).map(str),
        "--rows": st.sampled_from(["3p3q", "1p1q", "2p1q", "1P3Q", " 3p3q"])
        | st.builds("{}p{}q".format, st.integers(1, 10 ** 8),
                    st.integers(1, 10 ** 8)),
        "--p-directrix": None,
        "--q-directrix": None,
    },
}
_FLAGS = sorted({flag for flags in _GRAMMAR.values() for flag in flags})
_REQUIRED = {("strata", "--g"), ("jet", "--m"), ("jet", "--n")}


def _flat(parts):
    return [token for part in parts for token in part]


def _valid_args(command):
    """Each flag of command with a valid value, or left out if optional."""
    parts = []
    for flag, values in _GRAMMAR[command].items():
        present = (st.just([flag]) if values is None
                   else values.map(lambda value, flag=flag: [flag, value]))
        if (command, flag) not in _REQUIRED:
            present |= st.just([])
        parts.append(present)
    return st.tuples(*parts).map(_flat)


def _any_arg(command):
    """One flag of any subcommand with a valid or malformed value, or a
    bare malformed token."""
    flags = _GRAMMAR[command]

    def tokens(flag):
        if flags.get(flag) is None:         # a bare or a foreign flag
            return st.just([flag])
        return st.tuples(st.just(flag), flags[flag] | _MALFORMED).map(list)

    return (st.sampled_from(list(flags)).flatmap(tokens)
            | st.sampled_from(_FLAGS).flatmap(tokens)
            | _MALFORMED.map(lambda token: [token]))


#: a valid command line with up to two arguments appended; argparse keeps
#: the last value of a repeated flag, so an appended one can spoil it
_ARGV = st.sampled_from(sorted(_GRAMMAR)).flatmap(
    lambda command: st.tuples(
        st.just([command]), _valid_args(command),
        st.lists(_any_arg(command), max_size=2).map(_flat)).map(_flat))


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(_ARGV)
def test_fuzzed_input_contract(argv):
    """Any argv exits 0, 1 or 2 with no other exception, and a usage
    error (exit 2) prints nothing on stdout.

    jet draws splittings up to 10**6 and jet counts up to 10**8: its
    rank costs the same at every size.  The other values are small on
    purpose.  In-range inputs that are slow by design are left out:
    strata --g 10**9 and verify --g 0..10**7; bounding their cost is a
    separate gate.
    """
    bound = time_bound(1.0) if argv[0] == "jet" else contextlib.nullcontext()
    with bound:
        code, out, err = _run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv


def test_large_jet_splitting_in_time():
    # the full matrix would have 6 000 004 columns
    with time_bound(1.0):
        code, out, err = _run_main(["jet", "--m", "1000000",
                                    "--n", "2000000"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "matrix 6x6000004, rank 6"
