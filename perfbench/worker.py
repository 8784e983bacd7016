"""One workload process: set up chowkit, run jobs, check them, report JSON.

Run by run.py in a fresh interpreter, with ``src`` on the path and
CHOWKIT_TRUNCATION unset:

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --jobs J) [--trace SPANS.json] [--tamper]

Set-up time runs from before ``import chowkit`` to the end of the untimed
warm-up job.  The timed loop then runs whole cycles of jobs while less than
S seconds of job time have passed, or exactly J jobs.  Each job is timed
alone; its check runs after the clock stops.  With --trace the warm-up and
the jobs run under the Tracer and its record is written to SPANS.json.
--tamper makes the first measured job's expected output wrong (self-test).

On a shared 2-vCPU Xeon VM the speed drifted between spells up to 1.8
times apart, each lasting seconds.  So a fixed stdlib probe, shaped like chowkit's hot
path (Fraction arithmetic into a dict keyed by tuples), is timed before
set-up and after the warm-up and each job, outside their clocks.  Every
time is reported twice: as measured, and scaled to the probe's reference
speed, wall * PROBE_REF_S / probe.  A job takes the slower of the probes on
either side, which keeps a job that straddles a change of spell, or a probe
that ran in a lucky instant, out of the upper tail; set-up, a single short
sample per process, takes their mean.

The last line of stdout is the result as JSON.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

import workloads

#: probe time that a scaled time refers to, near this probe's time on an
#: unloaded 2-vCPU Xeon VM
PROBE_REF_S = 0.012
_PROBE_STEPS = 1500


def _probe():
    """Seconds a fixed stdlib workload takes now."""
    t0 = time.perf_counter()
    acc = {}
    rate = Fraction(3, 7)
    for i in range(_PROBE_STEPS):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i, i + 1) * rate
    return time.perf_counter() - t0


def _scaled(seconds, probe):
    return seconds * PROBE_REF_S / probe


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_job(workload, spec, tracer, job_id):
    """(seconds, text digest, passed) of one job; the check is untimed.

    A job fails when it raises or when its check rejects the output.
    """
    if tracer is not None:
        tracer.begin_job(job_id)
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            text, value = workload.job(spec)
        except Exception:
            text = None
            traceback.print_exc()
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.end_job(t0, t1)
    if text is None:
        return t1 - t0, None, False
    digest = hashlib.sha256(text.encode()).hexdigest()
    try:
        passed = bool(workload.check(spec, value))
    except Exception:
        traceback.print_exc()
        passed = False
    if not passed:
        print(f"job {job_id} failed its check: {spec}", file=sys.stderr)
    return t1 - t0, digest, passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--jobs", type=int)
    parser.add_argument("--trace", metavar="SPANS_JSON")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.spec_stream(args.seed)

    probe = min(_probe(), _probe())   # the first call also warms up
    t_setup = time.perf_counter()
    import chowkit
    import chowkit.cli
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(chowkit)
    warm_spec = next(specs)
    warm_s, warm_digest, warm_ok = _run_job(workload, warm_spec, tracer, 0)
    setup_s = time.perf_counter() - t_setup
    probes = [probe, _probe()]

    times, scaled, digests, passed = [], [], [], []
    rss_mb = rss_jobs = None
    while True:
        if args.jobs is not None:
            if len(times) >= args.jobs:
                break
        elif len(times) % workload.cycle == 0 and sum(times) >= args.seconds:
            break
        spec = next(specs)
        if args.tamper and not times:
            spec = workload.tamper(spec)
        seconds, digest, ok = _run_job(workload, spec, tracer, len(times) + 1)
        probes.append(_probe())
        times.append(seconds)
        scaled.append(_scaled(seconds, max(probes[-2:])))
        digests.append(digest)
        passed.append(ok)
        if len(times) == workload.rss_jobs:
            rss_mb, rss_jobs = _peak_rss_mb(), len(times)
    if rss_mb is None:   # the run ended before the memory checkpoint
        rss_mb, rss_jobs = _peak_rss_mb(), len(times)

    result = {
        "setup_s": setup_s,
        "setup_scaled_s": _scaled(setup_s, (probes[0] + probes[1]) / 2),
        "warmup": {"seconds": warm_s, "digest": warm_digest, "ok": warm_ok,
                   "scaled_s": _scaled(warm_s, max(probes[:2]))},
        "times": times,
        "scaled": scaled,
        "probes": probes,
        "digests": digests,
        "passed": passed,
        "rss_mb": rss_mb,
        "rss_jobs": rss_jobs,
    }
    if tracer is not None:
        record = tracer.dump()
        cache = getattr(chowkit.spaces, "_CACHE", None)
        record["cache_entries"] = 0 if cache is None else len(cache)
        with open(args.trace, "w") as fh:
            json.dump(record, fh)
        result["trace"] = {k: record[k] for k in
                           ("stats", "counts", "cache_entries")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
