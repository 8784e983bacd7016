"""Frozen reports: selected CLI runs must reproduce their saved stdout
byte for byte, with the saved exit code.

The files under tests/golden/ were written by ``python tests/test_golden.py
--write`` with CHOWKIT_TRUNCATION unset.  Besides the CLI runs, one file
pins every field of the triviality certificates, which the CLI prints only
in part.  ``--write`` writes only the files that are missing, so adding a
case never rewrites a frozen report; ``--write --force`` rewrites them all.
Force it only for an intended change of output, never to make a refactor
pass.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from chowkit.cli import Report, main
from chowkit.verify import triviality_check

GOLDEN_DIR = Path(__file__).parent / "golden"


def _jet_runs():
    """Every `jet` text for 0 <= m <= n <= 12, both row specs, each
    placement of p and q on or off the directrix."""
    for rows in ("3p3q", "1p1q"):
        for flags in ((), ("--p-directrix",), ("--q-directrix",),
                      ("--p-directrix", "--q-directrix")):
            for n in range(13):
                for m in range(n + 1):
                    yield ("jet", "--m", str(m), "--n", str(n),
                           "--rows", rows) + flags


#: golden file name -> (argv, or a tuple of argvs whose stdout is
#: concatenated, and the exit code of each run)
CASES = {
    "verify-symbolic.json": (("verify", "--g", "symbolic", "--format",
                              "json"), 0),
    "verify-0..4.json": (("verify", "--g", "0..4", "--format", "json"), 0),
    "det.json": (("det", "--format", "json"), 0),
    "strata-0.json": (("strata", "--g", "0", "--format", "json"), 0),
    "strata-1.json": (("strata", "--g", "1", "--format", "json"), 0),
    "strata-8.json": (("strata", "--g", "8", "--format", "json"), 0),
    "strata-30-oracle.json": (("strata", "--g", "30", "--oracle",
                               "--format", "json"), 0),
    "strata-0.txt": (("strata", "--g", "0"), 0),
    "strata-1.txt": (("strata", "--g", "1"), 0),
    "strata-8.txt": (("strata", "--g", "8"), 0),
    "strata-9.txt": (("strata", "--g", "9"), 0),
    "strata-9.json": (("strata", "--g", "9", "--format", "json"), 0),
    "verify-symbolic.txt": (("verify", "--g", "symbolic"), 0),
    "verify-REL-3-TT.txt": (("verify", "--lemma", "REL-3-TT"), 0),
    "verify-REL-3-TT.json": (("verify", "--lemma", "REL-3-TT", "--format",
                              "json"), 0),
    "det.txt": (("det",), 0),
    "jet-0..12.txt": (tuple(_jet_runs()), 0),
}


def _run(argv):
    """(exit codes, stdout) of one argv or of several in turn."""
    runs = argv if isinstance(argv[0], tuple) else (argv,)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = {main(list(run)) for run in runs}
    return codes, out.getvalue()


def _triviality_reports():
    """Every TrivialityReport field for each mu at g = symbolic, 0 and 4,
    as indented JSON: classes by canonical string, polynomials by str."""
    reports = []
    for mu in ((3,), (2, 1), (1, 1, 1)):
        for g in (None, 0, 4):
            rep = triviality_check(mu, g=g)
            reports.append({
                "mu": list(rep.mu),
                "g": g,
                "passed": rep.passed,
                "narrative": list(rep.narrative),
                "solved": {name: [num.canonical(), str(den)]
                           for name, (num, den) in rep.solved.items()},
                "determinant": (None if rep.determinant is None
                                else str(rep.determinant)),
                "det_roots": (None if rep.det_roots is None
                              else list(rep.det_roots)),
                "rank": rep.rank,
                "basis": list(rep.basis),
            })
    return json.dumps(reports, indent=2) + "\n"


#: SHA-256 of the stdout of `strata --g 2000` (8002 strata), too large to
#: keep as a file; JSON first, then text
LARGE_STRATA = (
    (("strata", "--g", "2000", "--format", "json"),
     "4da70e52341f524ac982a2e9a8ff1e3a03633a173c1715670b4e808552b3bbd2"),
    (("strata", "--g", "2000"),
     "27b7d06d7adddbd3db3bff677daf32e8668d029d75ae72651ebce4cfb5ba1918"),
)


def test_golden_large_strata_reports(monkeypatch):
    monkeypatch.delenv("CHOWKIT_TRUNCATION", raising=False)
    outs = []
    for argv, digest in LARGE_STRATA:
        codes, out = _run(argv)
        assert codes == {0}
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        outs.append(out)
    assert Report.from_json(outs[0]).to_json() + "\n" == outs[0]


TRIVIALITY = GOLDEN_DIR / "triviality.json"


def test_golden_triviality_reports(monkeypatch):
    monkeypatch.delenv("CHOWKIT_TRUNCATION", raising=False)
    assert _triviality_reports() == TRIVIALITY.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch):
    monkeypatch.delenv("CHOWKIT_TRUNCATION", raising=False)
    argv, want_code = CASES[name]
    codes, out = _run(argv)
    assert codes == {want_code}
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:2] == ["--write"]:
    if sys.argv[2:] not in ([], ["--force"]):
        raise SystemExit("usage: test_golden.py --write [--force]")
    force = sys.argv[2:] == ["--force"]
    os.environ.pop("CHOWKIT_TRUNCATION", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, want_code) in CASES.items():
        if (GOLDEN_DIR / name).exists() and not force:
            continue
        codes, out = _run(argv)
        if codes != {want_code}:
            raise SystemExit(f"{name}: exit {codes}, expected {want_code}")
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
    if force or not TRIVIALITY.exists():
        TRIVIALITY.write_text(_triviality_reports(), encoding="utf-8")
