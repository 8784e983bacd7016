"""Self-test of the benchmark: transparent tracing and failure counting.

    python3 -m unittest perfbench/test_perfbench.py     (from the repo root)

Takes about a minute: it runs the traced mode of every workload once.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402

SEED = 7
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class TracedOutputsIdentical(unittest.TestCase):
    """Every workload prints the same bytes with tracing on and off."""

    def test_each_workload(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                proc = _bench("--workload", name, "--seed", str(SEED),
                              "--seconds", "1", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                detail = json.loads(lines[-2])["detail"]
                result = json.loads(lines[-1])
                self.assertEqual(detail["outputs_differing"], 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(m["name"] for m in
                                        BENCHMARK["per_layer"]))


class EndToEndMetrics(unittest.TestCase):
    def test_names_and_result_line(self):
        proc = _bench("--workload", "genus-sweep", "--seed", str(SEED),
                      "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK["end_to_end"]))
        for metric in BENCHMARK["end_to_end"]:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"])
            self.assertGreater(got["value"], 0)


class TamperedJobFails(unittest.TestCase):
    """A job whose expected output is wrong is counted as failed."""

    def test_each_workload(self):
        for name in workloads.WORKLOADS:
            for tamper in (False, True):
                with self.subTest(workload=name, tamper=tamper):
                    args = ["--jobs", "1"] + (["--tamper"] if tamper else [])
                    result = run.run_worker(name, SEED, *args)
                    self.assertEqual(result["passed"], [not tamper])
                    self.assertEqual(run._fails(result), int(tamper))


class DeepRepeatCheck(unittest.TestCase):
    """A repeated deep-truncation spec must reprint its checked result."""

    def test_repeat(self):
        specs = workloads.WORKLOADS["deep-truncation"].spec_stream(SEED)
        spec = next(specs)
        text, value = workloads.deep_job(spec)
        self.assertTrue(workloads.deep_check(spec, value))
        self.assertTrue(workloads.deep_check(spec, value))
        x, power, _ = value
        self.assertFalse(workloads.deep_check(spec, (x, power, text + " ")))
        self.assertFalse(workloads.deep_check(dict(spec, offset=1), value))


class TracerRestoresBindings(unittest.TestCase):
    def test_install_uninstall(self):
        import chowkit
        import chowkit.cli
        import tracer
        ring, verify, linalg = chowkit.ring, chowkit.verify, chowkit.linalg
        before = (verify.bareiss_det, chowkit.cli.verify_relation,
                  vars(ring.ChowElement)["__rmul__"],
                  vars(ring.ChowElement)["__radd__"])
        chowkit.build_space("P")   # cached, so the traced call is a hit
        t = tracer.Tracer(chowkit)
        t.install()
        try:
            self.assertIs(verify.bareiss_det, linalg.bareiss_det)
            self.assertIsNot(verify.bareiss_det, before[0])
            self.assertIs(chowkit.cli.verify_relation,
                          verify.verify_relation)
            self.assertIsNot(chowkit.cli.verify_relation, before[1])
            el = vars(ring.ChowElement)
            self.assertIs(el["__rmul__"], el["__mul__"])
            self.assertIsNot(el["__rmul__"], before[2])
            self.assertIs(el["__radd__"], el["__add__"])
            x = chowkit.build_space("P").gen("z")
            self.assertEqual((2 * x + 1).canonical(), "2*z + 1")
        finally:
            t.uninstall()
        after = (verify.bareiss_det, chowkit.cli.verify_relation,
                 vars(ring.ChowElement)["__rmul__"],
                 vars(ring.ChowElement)["__radd__"])
        for a, b in zip(before, after):
            self.assertIs(a, b)
        self.assertEqual(t.calls("ring.ChowElement.mul"), 1)
        self.assertEqual(t.calls("spaces.build_space"), 1)
        self.assertEqual(t.calls("spaces.SpaceContext.init"), 0)


class TailStatistic(unittest.TestCase):
    def test_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0, 0.0, 4.0]),
                         (3.6, 90.0, 1))
        times = [float(i) for i in range(200)]
        self.assertEqual(run.tail(times), (189.0, 95.0, 10))


class NoSourcesNoResult(unittest.TestCase):
    """Without the program the benchmark exits nonzero and prints nothing."""

    def test_bare_directory(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            proc = _bench("--workload", "genus-sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
