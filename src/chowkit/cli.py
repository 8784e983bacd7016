"""Command-line driver and machine-readable reports.

Subcommands: verify (relation suite, symbolic or at sampled genera),
strata (boundary enumeration, optionally oracle-checked), det (the
mu=(3) determinant and its root report), jet (jet-matrix ranks).

Exit codes: 0 all requested checks passed, 1 a verification failed,
2 usage errors, unknown ids, malformed specs, or guard violations.
JSON reports use kebab-case keys, canonical class strings, and a fixed
field order, so serialization is byte-stable for fixed inputs; the
structure is frozen in report-schema.json next to this module.  The
report writer reproduces json.dumps(indent=2, ensure_ascii=False) byte
for byte and accepts only dict (with str keys), list, str, int, bool and
None, plus a _Json fragment: text the writer already produced, which it
re-indents to the fragment's place; anything else, floats included,
raises TypeError.

The strata report is streamed from the validated families of
strata.codim1_families: its count, their sizes' sum, comes first, then
each stratum in codim1_walk order, written once at its final indent as its
family's JSON object template (with %d for j and the principal genera)
filled in with one %; text fills the family's display template the same
way.  No descriptor and no string holding the whole list is built, and a
number written that differs from the count fails the report in either
format.  A genus, the jet splitting degrees and the jet counts of a row
spec are read as ASCII decimal digits only.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring

from . import __version__
from .bundles import JetPoint, in_locus_B, jet_rank
from .spaces import _truncation_from_env
from .strata import (FACTOR_SHAPES, OracleFailure, codim1_families,
                     codim1_walk, enumerate_codim1, oracle_enumerate)
from .verify import (LemmaId, StageFailure, TruncationTooLow,
                     triviality_check, verify_relation)

_REPORT_FIELDS = (
    ("tool-version", "tool_version"),
    ("mode", "mode"),
    ("g-values", "g_values"),
    ("verdicts", "verdicts"),
    ("chain", "chain"),
    ("strata", "strata"),
    ("determinant", "determinant"),
    ("overall-pass", "overall_pass"),
)


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


class _Json(str):
    """JSON text written by _json_text at indent 0.

    The writer splices it in by re-indenting each line: encode_basestring
    escapes every newline inside a string, so each newline in the text is
    a layout break.
    """

    __slots__ = ()


def _json_text(o, pad=""):
    """json.dumps(o, indent=2, ensure_ascii=False), with pad the indent.

    Each container's text is one join over its children; with indent set,
    the stdlib falls back to its pure-Python encoder, which yields and
    joins every chunk separately.  Dispatch is on the exact type, so a
    bool never prints as an int and a float or tuple raises TypeError.
    """
    t = type(o)
    if t is str:
        return encode_basestring(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = pad + "  "
        return ("{\n" + inner + (",\n" + inner).join(
            [encode_basestring(key) + ": " + _json_text(value, inner)
             for key, value in o.items()]) + "\n" + pad + "}")
    if t is list:
        if not o:
            return "[]"
        inner = pad + "  "
        return ("[\n" + inner + (",\n" + inner).join(
            [_json_text(value, inner) for value in o]) + "\n" + pad + "]")
    if t is _Json:
        return o.replace("\n", "\n" + pad)
    if t is bool or o is None:
        return _JSON_CONSTANTS[o]
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


@dataclass
class Report:
    tool_version: str
    mode: str
    g_values: list
    verdicts: list
    chain: dict | None
    strata: dict | None
    determinant: dict | None
    overall_pass: bool

    def to_json(self):
        payload = {key: getattr(self, attr) for key, attr in _REPORT_FIELDS}
        return _json_text(payload)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(**{attr: payload[key] for key, attr in _REPORT_FIELDS})


def _empty_report(mode="symbolic", g_values=()):
    return Report(tool_version=__version__, mode=mode,
                  g_values=list(g_values), verdicts=[], chain=None,
                  strata=None, determinant=None, overall_pass=True)


def _verdict_payload(verdict, g):
    return {
        "lemma": verdict.lemma,
        "g": g,
        "computed": verdict.computed.canonical(),
        "expected": verdict.expected.canonical(),
        "pass": verdict.passed,
    }


def _chain_payload(chain):
    return {stage: value.canonical() for stage, value in chain.stages()}


def _stratum_template(family):
    """The JSON object of every stratum of family, at its indent in the
    report, with %d for j and each principal genus (a leg's is 0): j, side
    1's in its block and its display, side 2's likewise, then j and both
    in the stratum's display.  Nothing else in it holds a %."""
    blocks = []
    for degrees, profiles in (family.shape1, family.shape2):
        blocks.append({
            "degrees": list(degrees),
            "genera": [_Json("%d")] + [0] * (len(degrees) - 1),
            "profiles": [list(p) for p in profiles],
            "display": FACTOR_SHAPES[degrees, profiles].template,
        })
    return _json_text({
        "j": _Json("%d"),
        "node-profile": list(family.node_profile),
        "side1": blocks[0],
        "side2": blocks[1],
        "quotient": family.quotient,
        "display": family.display_template(),
    }, "      ")


def _write_strata(write, families):
    """Write the report's strata list at its indent, one write per
    stratum: its family's template filled with one %.  Returns the number
    written."""
    templates = {f: _stratum_template(f) for f in families}
    sep = "[\n      "
    written = 0
    for j, f in codim1_walk(families):
        g1, g2 = f.genera(j)
        write(sep + templates[f] % (j, g1, g1, g2, g2, j, g1, g2))
        sep = ",\n      "
        written += 1
    write("\n    ]" if written else "[]")
    return written


def parse_genus(text):
    """A genus written in ASCII decimal digits, spaces around allowed.

    int() alone would also read a sign, underscores ('1_0') and non-ASCII
    digits ('\u0663'), so those are refused here.  The jet splitting
    degrees m and n are read the same way.
    """
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"genus must be a nonnegative integer in ASCII "
                         f"digits, got {text!r}")
    return int(digits)


def parse_g_spec(text):
    """None for symbolic, else a list of nonnegative integers.

    Accepts a single value, a comma list, and ranges like 0..50, each
    genus read by parse_genus.
    """
    if text == "symbolic":
        return None
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo_text, hi_text = chunk.split("..", 1)
            lo, hi = parse_genus(lo_text), parse_genus(hi_text)
            if lo > hi:
                raise ValueError(f"empty range {chunk!r}")
            values.extend(range(lo, hi + 1))
        elif chunk:
            values.append(parse_genus(chunk))
        else:
            raise ValueError("empty g entry")
    return list(dict.fromkeys(values))


#: stands in for the strata list in the report text: encode_basestring
#: escapes every control character, so a raw NUL occurs nowhere else
_STRATA_MARK = "\x00"


def _check_count(report, count, written):
    """Fail report, with the reason on stderr, when written != count."""
    if written != count:
        report.overall_pass = False
        print(f"strata count mismatch: {count} counted, {written} written",
              file=sys.stderr)


def _emit(report, fmt):
    """Print report."""
    if fmt == "json":
        print(report.to_json())
        return
    for v in report.verdicts:
        g = "symbolic" if v["g"] is None else v["g"]
        mark = "pass" if v["pass"] else "FAIL"
        print(f"{v['lemma']:<20} g={g:<9} {mark}  {v['computed']}")
    if report.chain is not None:
        for stage, value in report.chain.items():
            print(f"chain {stage:<12} {value}")
    if report.determinant is not None:
        d = report.determinant
        basis = ", ".join(d["basis"])
        print(f"determinant in basis ({basis}): {d['poly']}")
        if d["nonneg-integer-roots"]:
            print(f"roots at integers g >= 0: {d['nonneg-integer-roots']}")
        else:
            print("no roots at integers g >= 0")
        print(f"certified rank: {d['rank']}")
    print("overall: " + ("PASS" if report.overall_pass else "FAIL"))


def _truncation_ok():
    """False, with the reason on stderr, when CHOWKIT_TRUNCATION is bad."""
    try:
        _truncation_from_env()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return False
    return True


def cmd_verify(args):
    try:
        g_values = parse_g_spec(args.g)
    except ValueError as exc:
        print(f"bad --g value: {exc}", file=sys.stderr)
        return 2
    if args.lemma == "all":
        lemmas = list(LemmaId)
    else:
        try:
            lemmas = [LemmaId.from_string(args.lemma)]
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if not _truncation_ok():
        return 2

    mode = "symbolic" if g_values is None else "sampled"
    report = _empty_report(mode=mode,
                           g_values=[] if g_values is None else g_values)
    sweep = [None] if g_values is None else g_values
    for g in sweep:
        for lemma in lemmas:
            verdict = verify_relation(lemma, g=g)
            report.verdicts.append(_verdict_payload(verdict, g))
            if not verdict.passed:
                report.overall_pass = False
            if g is None and verdict.chain is not None:
                report.chain = _chain_payload(verdict.chain)
    _emit(report, args.fmt)
    return 0 if report.overall_pass else 1


def cmd_strata(args):
    try:
        g = parse_genus(args.g)
    except ValueError as exc:
        print(f"bad --g value: {exc}", file=sys.stderr)
        return 2
    # the oracle runs first, so its genus cap is checked before any
    # enumeration
    try:
        reference = oracle_enumerate(g) if args.oracle else None
    except OracleFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = _empty_report(mode="sampled", g_values=[g])
    families = codim1_families(g)
    count = sum(f.size for f in families)
    agree = None
    if args.oracle:
        strata = enumerate_codim1(g)
        agree = reference == strata
        if not agree:
            report.overall_pass = False
            print(f"oracle mismatch: {len(strata)} enumerated vs "
                  f"{len(reference)} brute-forced", file=sys.stderr)
    write = sys.stdout.write
    if args.fmt == "json":
        report.strata = {
            "genus": g,
            "count": count,
            "oracle-checked": bool(args.oracle),
            "oracle-agrees": agree,
            "strata": _Json(_STRATA_MARK),
        }
        # the strata are written in place of the mark, and the text after
        # it is rendered once they are, so a short list fails the report
        write(report.to_json().split(_STRATA_MARK)[0])
        _check_count(report, count, _write_strata(write, families))
        write(report.to_json().split(_STRATA_MARK)[1] + "\n")
    else:
        templates = {f: f.display_template() + "\n" for f in families}
        total = 0
        for j, f in codim1_walk(families):
            write(templates[f] % (j, *f.genera(j)))
            total += 1
        _check_count(report, count, total)
        print(f"total: {total}")
        if args.oracle:
            print("oracle: " + ("agrees" if agree else "MISMATCH"))
        _emit(report, args.fmt)
    return 0 if report.overall_pass else 1


def cmd_det(args):
    if not _truncation_ok():
        return 2
    cert = triviality_check((3,))
    report = _empty_report()
    report.determinant = {
        "poly": str(cert.determinant),
        "basis": list(cert.basis),
        "nonneg-integer-roots": list(cert.det_roots),
        "rank": cert.rank,
    }
    report.overall_pass = cert.passed
    _emit(report, args.fmt)
    return 0 if cert.passed else 1


def _parse_rows_spec(text):
    """'3p3q' -> jets at p and q; digits before each point label."""
    spec = text.strip().lower()
    probe, rest = spec.split("p", 1) if "p" in spec else (None, None)
    if probe is None or not rest.endswith("q"):
        raise ValueError(f"row spec {text!r} not of the form <n>p<m>q")
    jets_q = rest[:-1]
    if not ((probe + jets_q).isascii() and probe.isdigit()
            and jets_q.isdigit()):
        raise ValueError(f"row spec {text!r} needs integer jet counts")
    jp, jq = int(probe), int(jets_q)
    if jp < 1 or jq < 1:
        raise ValueError("jet counts must be at least 1")
    return jp, jq


def cmd_jet(args):
    try:
        jets_p, jets_q = _parse_rows_spec(args.rows)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        m, n = parse_genus(args.m), parse_genus(args.n)
    except ValueError:
        print(f"the splitting needs 0 <= m <= n in ASCII digits, got "
              f"m = {args.m!r}, n = {args.n!r}", file=sys.stderr)
        return 2
    if m > n:
        print("normalize the splitting so m <= n", file=sys.stderr)
        return 2
    if args.p_directrix:
        p = JetPoint(x=Fraction(0), jets=jets_p, on_directrix=True)
    else:
        p = JetPoint(x=Fraction(0), jets=jets_p, y=Fraction(0))
    if args.q_directrix:
        q = JetPoint(x=Fraction(1), jets=jets_q, on_directrix=True)
    else:
        q = JetPoint(x=Fraction(1), jets=jets_q)
    (rows, cols), rank = jet_rank(m, n, (p, q))
    locus = "inside" if in_locus_B(m, n) else "outside"
    print(f"splitting (m, n) = ({m}, {n}), {locus} the "
          "globally generated locus")
    print(f"matrix {rows}x{cols}, rank {rank}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowkit",
        description="Exact Chow-ring verification for trigonal covers: "
                    "relation classes, pushforward chains, triviality "
                    "certificates, and boundary strata.")
    parser.add_argument("--version", action="version",
                        version=f"chowkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="re-derive relation classes and compare")
    p_verify.add_argument("--g", default="symbolic",
                          help="symbolic (default), an integer, a comma "
                               "list, or a range like 0..50")
    p_verify.add_argument("--lemma", default="all",
                          help="a relation id or 'all'")
    p_verify.add_argument("--format", dest="fmt", default="text",
                          choices=("text", "json"))
    p_verify.set_defaults(func=cmd_verify)

    p_strata = sub.add_parser(
        "strata", help="enumerate codimension-1 boundary strata")
    p_strata.add_argument("--g", required=True,
                          help="the genus, a nonnegative integer")
    p_strata.add_argument("--oracle", action="store_true",
                          help="cross-check against the brute-force oracle")
    p_strata.add_argument("--format", dest="fmt", default="text",
                          choices=("text", "json"))
    p_strata.set_defaults(func=cmd_strata)

    p_det = sub.add_parser(
        "det", help="determinant of the total-ramification relation system")
    p_det.add_argument("--format", dest="fmt", default="text",
                       choices=("text", "json"))
    p_det.set_defaults(func=cmd_det)

    p_jet = sub.add_parser(
        "jet", help="rank of a fiberwise jet-evaluation matrix")
    p_jet.add_argument("--m", required=True)
    p_jet.add_argument("--n", required=True)
    p_jet.add_argument("--rows", default="3p3q",
                       help="jets per point, e.g. 3p3q or 1p1q")
    p_jet.add_argument("--p-directrix", action="store_true",
                       help="place p on the directrix")
    p_jet.add_argument("--q-directrix", action="store_true",
                       help="place q on the directrix")
    p_jet.set_defaults(func=cmd_jet)
    return parser


def main(argv=None):
    """Run one subcommand and return its exit code.

    A chain that cannot run at the ring's truncation is a usage error
    (exit 2); a chain stage that fails is a failed verification (exit 1).
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TruncationTooLow as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except StageFailure as exc:
        print(f"{args.command} aborted at stage {exc.stage!r}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
