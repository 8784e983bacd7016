"""Driver behavior: exit codes, text output, JSON stability, and the
frozen report schema."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import chowkit
from chowkit.cli import (_REPORT_FIELDS, Report, _empty_report, _Json,
                         _json_text, _strata_json, main, parse_g_spec)
from chowkit.strata import enumerate_codim1, format_stratum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # g = 2000: 8002 strata over 10002 distinct side objects, in both
        # report formats; a side's display is filled in from its shape's
        # template when it is built, so format_factor is never called
        counts = dict.fromkeys(("format_factor", "format_stratum"), 0)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in counts:
            monkeypatch.setattr(chowkit.strata, name,
                                counting(name, getattr(chowkit.strata, name)))
        monkeypatch.setattr(chowkit.cli, "format_stratum",
                            chowkit.strata.format_stratum)
        for fmt in ("json", "text"):
            counts.update(dict.fromkeys(counts, 0))
            code, _, _ = run(capsys, "strata", "--g", "2000", "--format", fmt)
            assert code == 0
            assert counts["format_stratum"] == 8002, fmt
            assert counts["format_factor"] == 0, fmt

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


def _stratum_payload(stratum):
    """Reference: one stratum's report entry as a plain dict, each side
    formatted afresh."""
    return {
        "j": stratum.j,
        "node-profile": list(stratum.node_profile),
        "side1": _side_payload(stratum.side1),
        "side2": _side_payload(stratum.side2),
        "quotient": stratum.quotient_group,
        "display": format_stratum(stratum),
    }


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
    def test_strata_json_matches_reference(self, g):
        strata = enumerate_codim1(g)
        assert _strata_json(strata) == json.dumps(
            [_stratum_payload(s) for s in strata], indent=2,
            ensure_ascii=False)

    def test_large_strata_report_matches_stdlib(self):
        strata = enumerate_codim1(2000)
        report = _empty_report(mode="sampled", g_values=[2000])
        report.strata = {"strata": [_stratum_payload(s) for s in strata]}
        payload = {key: getattr(report, attr)
                   for key, attr in _REPORT_FIELDS}
        text = report.to_json()
        assert text == json.dumps(payload, indent=2, ensure_ascii=False)
        assert Report.from_json(text).to_json() == text
        report.strata = {"strata": _strata_json(strata)}
        assert report.to_json() == text

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


@pytest.mark.parametrize("truncation", ["abc", "0", "-1"])
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

    def test_outside_locus(self, capsys):
        code, out, _ = run(capsys, "jet", "--m", "1", "--n", "5")
        assert code == 0
        assert "outside the globally generated locus" in out

    def test_malformed_rows_exits_2(self, capsys):
        for bad in ("bogus", "3p", "p3q", "0p3q", "3.5p2q"):
            code, _, err = run(capsys, "jet", "--m", "2", "--n", "4",
                               "--rows", bad)
            assert code == 2, bad

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
