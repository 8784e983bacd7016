"""Benchmark for chowkit: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (perfbench/workloads.py):
symbolic-proof, genus-sweep, deep-truncation, strata-combinatorics.  The
load is a closed loop: one client, jobs one after another in one process.

--trace 0 runs the workload for S seconds of job time in a fresh
interpreter, sets up four more fresh interpreters (two before the timed
run, two after), and reports the end-to-end metrics:

Times are scaled to a reference machine speed measured by a probe around
each job (see worker.py); the times as measured are in the detail line.

  jobs_per_s   measured jobs over the seconds they took
  job_p50_s    median seconds of one job
  job_tail_s   highest percentile with at least ten samples beyond it,
               but never below the 90th (so below 100 jobs, the 90th)
  setup_s      median over five fresh interpreters of the time from before
               ``import chowkit`` to the end of the untimed warm-up job
  peak_rss_mb  peak resident memory of the workload process, read after a
               fixed number of jobs so that it does not grow with speed

--trace 1 runs a fixed prefix of the same seeded jobs twice in fresh
interpreters, untraced and traced, checks that both print byte-identical
outputs, and reports the per-layer metrics of the traced pass (totals over
the warm-up and the prefix) and trace.overhead_ratio.  The spans go to
.perfbench_out/.

A job fails when it exits nonzero, raises or fails its check; failures are
counted in ``failed`` and in fail_ratio.  The line before the result holds
the environment record and the detail behind the metrics.  The last line
of stdout is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from worker import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
#: a timed run must finish well inside the benchmark's time limit
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker_env():
    env = dict(os.environ)
    env.pop("CHOWKIT_TRUNCATION", None)   # deep-truncation passes it itself
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(workload, seed, *limit):
    """Run worker.py in a fresh interpreter; its parsed result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *limit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def tail(times):
    """(value, percentile, samples beyond) of the tail statistic.

    The highest percentile with TAIL_BEYOND samples beyond it, but never
    below the 90th: with fewer than 10 * TAIL_BEYOND samples that percentile
    would sit lower, so the interpolated 90th percentile stands in, with the
    number of samples above it.  The rule is continuous in the number of
    jobs, which varies from run to run.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 10 * TAIL_BEYOND:
        return (ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n,
                TAIL_BEYOND)
    value = statistics.quantiles(ordered, n=10, method="inclusive")[-1] \
        if n > 1 else ordered[0]
    return value, 90.0, sum(1 for t in ordered if t > value)


def _fails(result):
    return sum(1 for ok in result["passed"] if not ok) \
        + (0 if result["warmup"]["ok"] else 1)


def _attempts(result):
    return len(result["times"]) + 1


def end_to_end(workload, seed, seconds):
    """The timed run, with set-up-only runs before and after it.

    Splitting the set-up samples around the timed run spreads them over
    more of the machine's slow and fast spells.
    """
    extra = SETUP_SAMPLES - 1
    before = [run_worker(workload, seed, "--jobs", "0")
              for _ in range(extra // 2)]
    main = run_worker(workload, seed, "--seconds", str(seconds))
    after = [run_worker(workload, seed, "--jobs", "0")
             for _ in range(extra - extra // 2)]
    runs = before + [main] + after
    failed = sum(_fails(r) for r in runs)
    attempted = sum(_attempts(r) for r in runs)
    times = main["scaled"]
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(r["setup_scaled_s"] for r in runs),
                    "s"),
        "peak_rss_mb": (main["rss_mb"], "MB"),
    }
    wall = main["times"]
    detail = {
        "jobs": len(times), "job_seconds": sum(wall),
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "rss_after_jobs": main["rss_jobs"],
        "fail_ratio": failed / attempted,
        "as_measured": {
            "jobs_per_s": len(wall) / sum(wall),
            "job_p50_s": statistics.median(wall),
            "job_tail_s": tail(wall)[0],
            "setup_s": statistics.median(r["setup_s"] for r in runs),
        },
        "probe_s": {"reference": PROBE_REF_S,
                    "median": statistics.median(main["probes"]),
                    "min": min(main["probes"]), "max": max(main["probes"])},
    }
    return metrics, detail, attempted, failed


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(trace):
    """Per-layer metric name -> (value, unit) from a traced worker."""
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    out = {}
    for name in ("ring.ChowElement.mul", "ring.ChowElement.init",
                 "ring.ChowElement.add", "spaces.build_space"):
        out[name + ".calls"] = (calls(name), "count")
    out["ring.ChowElement.mul.pairs"] = (counts.get("mul.pairs", 0), "count")
    out["ring.ChowElement.mul.useful_pair_ratio"] = (
        _ratio(counts.get("mul.useful_pairs", 0), counts.get("mul.pairs", 0)),
        "ratio")
    out["ring.ChowElement.init.terms_in"] = (
        counts.get("init.terms_in", 0), "count")
    out["ring.ChowElement.init.terms_out"] = (
        counts.get("init.terms_out", 0), "count")
    out["ring.ParamPoly.ops"] = (calls("ring.ParamPoly"), "count")
    out["spaces.build_space.misses"] = (
        calls("spaces.SpaceContext.init"), "count")
    out["spaces.cache_entries"] = (trace["cache_entries"], "count")
    out["strata.enumerate_codim1.strata"] = (
        counts.get("enumerate_codim1.strata", 0), "count")
    for name in ("ring.ChowElement.mul", "ring.ChowElement.init",
                 "ring.ChowElement.add", "ring.ParamPoly",
                 "ring.ParamPoly.nonneg_integer_roots",
                 "ring.RingPresentation.parse", "ring.ChowElement.evaluate",
                 "ring.ChowElement.canonical", "spaces.build_space",
                 "spaces.pushforward", "spaces.lift", "spaces.diagonal",
                 "bundles.excess_class", "bundles.principal_parts_chern",
                 "bundles.BundleClass.whitney",
                 "bundles.BundleClass.inverse_total", "bundles.jet_rank",
                 "linalg.rank_fraction", "linalg.bareiss_det",
                 "linalg.param_rank", "linalg.solve_cramer",
                 "verify.verify_relation", "verify.triviality_check",
                 "verify.relation_matrix", "strata.enumerate_codim1",
                 "strata.oracle_enumerate", "strata.format_stratum",
                 "cli.Report.to_json", "cli.main"):
        out[name + ".self_s"] = (self_s(name), "s")
    out["verify.tt_chain.total_s"] = (
        stats.get("verify.tt_chain", {}).get("total_s", 0.0), "s")
    return out


def traced(workload, seed, prefix_jobs):
    """Untraced and traced passes over the same job prefix.

    A job whose output differs between the passes counts as failed.
    """
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.json"
    plain = run_worker(workload, seed, "--jobs", str(prefix_jobs))
    traced_run = run_worker(workload, seed, "--jobs", str(prefix_jobs),
                            "--trace", str(spans))
    pairs = [(plain["warmup"]["digest"], traced_run["warmup"]["digest"])]
    pairs += zip(plain["digests"], traced_run["digests"])
    # a job that raised has no digest and is already counted as failed
    differing = sum(1 for a, b in pairs if None not in (a, b) and a != b)

    def wall(result):
        return result["warmup"]["scaled_s"] + sum(result["scaled"])

    metrics = per_layer_metrics(traced_run["trace"])
    metrics["trace.overhead_ratio"] = (wall(traced_run) / wall(plain),
                                       "ratio")
    failed = _fails(plain) + _fails(traced_run) + differing
    attempted = _attempts(plain) + _attempts(traced_run)
    detail = {"prefix_jobs": prefix_jobs, "outputs_differing": differing,
              "spans_file": str(spans.relative_to(ROOT)),
              "fail_ratio": failed / attempted}
    return metrics, detail, attempted, failed


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "chowkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    """What must match before two results may be compared."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "chowkit_truncation": {
            "caller": os.environ.get("CHOWKIT_TRUNCATION"),
            "workload_process": "unset",
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="chowkit benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chowkit" / "__init__.py").is_file():
        print(f"no chowkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        if args.trace:
            prefix = workloads.WORKLOADS[args.workload].trace_jobs
            metrics, detail, attempted, failed = traced(
                args.workload, args.seed, prefix)
        else:
            metrics, detail, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(args), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
