"""Frozen reports: selected CLI runs must reproduce their saved stdout
byte for byte, with the saved exit code.

The files under tests/golden/ were written by ``python tests/test_golden.py
--write`` with CHOWKIT_TRUNCATION unset.  Regenerate them only for an
intended change of output, never to make a refactor pass.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from chowkit.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden file name -> (argv, exit code)
CASES = {
    "verify-symbolic.json": (("verify", "--g", "symbolic", "--format",
                              "json"), 0),
    "verify-0..4.json": (("verify", "--g", "0..4", "--format", "json"), 0),
    "det.json": (("det", "--format", "json"), 0),
    "strata-8.json": (("strata", "--g", "8", "--format", "json"), 0),
    "verify-symbolic.txt": (("verify", "--g", "symbolic"), 0),
    "det.txt": (("det",), 0),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch):
    monkeypatch.delenv("CHOWKIT_TRUNCATION", raising=False)
    argv, want_code = CASES[name]
    code, out = _run(argv)
    assert code == want_code
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.environ.pop("CHOWKIT_TRUNCATION", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, want_code) in CASES.items():
        code, out = _run(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code}")
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
