"""Frozen reports: selected CLI runs must reproduce their saved stdout
byte for byte, with the saved exit code.

The files under tests/golden/ were written by ``python tests/test_golden.py
--write`` with CHOWKIT_TRUNCATION unset.  ``--write`` writes only the files
that are missing, so adding a case never rewrites a frozen report;
``--write --force`` rewrites them all.  Force it only for an intended
change of output, never to make a refactor pass.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from chowkit.cli import main

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
    "strata-8.json": (("strata", "--g", "8", "--format", "json"), 0),
    "strata-30-oracle.json": (("strata", "--g", "30", "--oracle",
                               "--format", "json"), 0),
    "strata-8.txt": (("strata", "--g", "8"), 0),
    "verify-symbolic.txt": (("verify", "--g", "symbolic"), 0),
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
