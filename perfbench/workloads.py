"""The four benchmark workloads: seeded job specs, the jobs, their checks.

Every workload draws all of its inputs from ``random.Random(seed)``: the
first spec is the untimed warm-up job, the rest are the measured jobs in
order, so a run of J jobs sees exactly the first J specs of the longer run.

A job returns ``(text, value)``.  ``text`` is everything the job printed or
rendered; it is hashed to prove that tracing changes no output.  ``value``
is whatever the check needs beyond the text.  Checks run outside the timed
region and return False on any wrong output.

chowkit is imported inside the job functions and every call goes through a
module attribute, so the tracer's patched bindings are the ones used.
"""

import contextlib
import io
import json
import random
from collections.abc import Callable
from dataclasses import dataclass

#: relation ids that ``verify --lemma all`` reports for each genus
_LEMMAS_PER_G = 9

# -- shared helpers --


def _cli(argv):
    """Run ``chowkit.cli.main`` in process; (exit code, stdout text)."""
    from chowkit import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def _verify_report_ok(text, g_values):
    """A verify JSON report that passes with computed == expected."""
    report = json.loads(text)
    verdicts = report["verdicts"]
    expected_gs = [None] if g_values is None else g_values
    if report["overall-pass"] is not True:
        return False
    if report["g-values"] != ([] if g_values is None else g_values):
        return False
    if [v["g"] for v in verdicts] != [g for g in expected_gs
                                      for _ in range(_LEMMAS_PER_G)]:
        return False
    return all(v["pass"] is True and v["computed"] == v["expected"]
               for v in verdicts)


def _triviality_text(report):
    """Stable rendering of a TrivialityReport (its repr holds addresses)."""
    solved = {name: [num.canonical(), str(den)]
              for name, (num, den) in sorted(report.solved.items())}
    return json.dumps({
        "mu": list(report.mu), "passed": report.passed,
        "narrative": list(report.narrative), "solved": solved,
        "determinant": None if report.determinant is None
        else str(report.determinant),
        "det-roots": None if report.det_roots is None
        else list(report.det_roots),
        "rank": report.rank, "basis": list(report.basis),
    })


# -- symbolic-proof --

_MUS = ((3,), (2, 1), (1, 1, 1))
_DET_POLY = "-72*g**2-108*g-36"
_DET_RANK = 4


def symbolic_specs(rng):
    while True:
        order = list(_MUS)
        rng.shuffle(order)
        yield {"mus": order, "det_poly": _DET_POLY}


def symbolic_job(spec):
    from chowkit import verify
    rc_v, out_v = _cli(["verify", "--g", "symbolic", "--lemma", "all",
                        "--format", "json"])
    rc_d, out_d = _cli(["det", "--format", "json"])
    reports = [verify.triviality_check(mu) for mu in spec["mus"]]
    text = out_v + out_d + "".join(_triviality_text(r) + "\n"
                                   for r in reports)
    return text, (rc_v, out_v, rc_d, out_d, reports)


def symbolic_check(spec, value):
    rc_v, out_v, rc_d, out_d, reports = value
    if rc_v != 0 or rc_d != 0:
        return False
    if not _verify_report_ok(out_v, None):
        return False
    if json.loads(out_v)["chain"] is None:
        return False
    det = json.loads(out_d)
    d = det["determinant"]
    if not (det["overall-pass"] is True and d["poly"] == spec["det_poly"]
            and d["nonneg-integer-roots"] == [] and d["rank"] == _DET_RANK):
        return False
    return all(r.passed is True and r.mu == mu
               for r, mu in zip(reports, spec["mus"]))


# -- genus-sweep --

#: per-genus cost creeps up with the size of g; a narrow range keeps the
#: cost of a job independent of the seed
_SWEEP_RANGE = (1000, 3000)
_WINDOW = 3


def sweep_specs(rng):
    seen = set()
    while True:
        a = rng.randrange(*_SWEEP_RANGE)
        window = list(range(a, a + _WINDOW))
        if seen.intersection(window):
            continue   # every space is built cold: no genus twice per run
        seen.update(window)
        yield {"g_values": window, "expect_g": window}


def sweep_job(spec):
    gs = spec["g_values"]
    rc, out = _cli(["verify", "--g", f"{gs[0]}..{gs[-1]}", "--lemma", "all",
                    "--format", "json"])
    return out, (rc, out)


def sweep_check(spec, value):
    rc, out = value
    return rc == 0 and _verify_report_ok(out, spec["expect_g"])


# -- deep-truncation --

#: T = 16 (1785 terms, about 5 s a job on a 2-vCPU Xeon VM) is left out:
#: the few such jobs that fit in a run spread too widely from run to run
_TRUNCATIONS = (8, 10, 12)
_DEGREE_ONE = ("zeta_p", "zeta_q", "z", "a1", "a2p")


def deep_specs(rng):
    """One x per run, x = sum of c_i * generator_i with c_i in Z[g].

    The magnitudes are fixed and only the signs are drawn: the cost of x**T
    depends on coefficient size and on where g sits (g on a ruled zeta
    doubles the g-degree of every coefficient), so fixing both keeps a
    job's cost nearly independent of the seed.
    """
    s = [rng.choice((-1, 1)) for _ in range(6)]
    coeffs = {"zeta_p": (s[0], 0), "zeta_q": (2 * s[1], 0),
              "z": (2 * s[3], s[2]), "a1": (3 * s[4], 0), "a2p": (s[5], 0)}
    g0 = rng.randrange(2, 60)
    while True:
        for t in _TRUNCATIONS:
            yield {"T": t, "coeffs": coeffs, "g0": g0, "offset": 0}


def _deep_x(spec):
    from chowkit import build_space, ring
    ctx = build_space("X111", truncation=spec["T"])
    x = ctx.zero()
    for name in _DEGREE_ONE:
        c0, c1 = spec["coeffs"][name]
        x = x + ctx.gen(name) * (ring.G * c1 + c0)
    return x


def deep_job(spec):
    x = _deep_x(spec)
    power = x ** spec["T"]
    text = power.canonical()
    return text, (x, power, text)


#: canonical x**T already checked in this process, by its spec
_DEEP_VERIFIED = {}


def deep_check(spec, value):
    """(x**T)(g0) against x(g0)**T, a path through constant coefficients.

    A repeat of a checked spec must print the checked result byte for byte.
    """
    x, power, text = value
    key = json.dumps(spec, sort_keys=True)
    if key in _DEEP_VERIFIED:
        return text == _DEEP_VERIFIED[key]
    g0 = spec["g0"]
    reference = x.evaluate(g0) ** spec["T"] + spec["offset"]
    if power.evaluate(g0) != reference:
        return False
    _DEEP_VERIFIED[key] = text
    return True


# -- strata-combinatorics --

_STRATA_RANGE = (1990, 2011)
_ORACLE_RANGE = (10, 31)
_JET_MAX = 40
_JET_ROWS = 6   # the default 3p3q row spec


def strata_specs(rng):
    while True:
        b = rng.randrange(1, _JET_MAX + 1)
        n = rng.randrange(*_STRATA_RANGE)
        yield {"n": n, "expect_n": n, "m": rng.randrange(*_ORACLE_RANGE),
               "jet": [rng.randrange(0, b + 1), b]}


def strata_job(spec):
    rc_s, out_s = _cli(["strata", "--g", str(spec["n"]), "--format", "json"])
    rc_o, out_o = _cli(["strata", "--g", str(spec["m"]), "--oracle",
                        "--format", "json"])
    a, b = spec["jet"]
    rc_j, out_j = _cli(["jet", "--m", str(a), "--n", str(b)])
    return out_s + out_o + out_j, (rc_s, out_s, rc_o, out_o, rc_j, out_j)


def _strata_report_ok(text, genus, oracle):
    from chowkit import cli
    report = cli.Report.from_json(text)
    if report.to_json() + "\n" != text:
        return False
    s = report.strata
    return (report.overall_pass is True and s["genus"] == genus
            and s["count"] == len(s["strata"]) > 0
            and s["oracle-checked"] is oracle
            and s["oracle-agrees"] is (True if oracle else None))


def strata_check(spec, value):
    rc_s, out_s, rc_o, out_o, rc_j, out_j = value
    if (rc_s, rc_o, rc_j) != (0, 0, 0):
        return False
    if not (_strata_report_ok(out_s, spec["expect_n"], False)
            and _strata_report_ok(out_o, spec["m"], True)):
        return False
    lines = out_j.splitlines()
    if len(lines) != 2 or not lines[1].startswith("matrix "):
        return False
    shape, rank = lines[1][len("matrix "):].split(", rank ")
    rows, cols = (int(v) for v in shape.split("x"))
    return rows == _JET_ROWS and 0 <= int(rank) <= min(rows, cols)


# -- registry --


@dataclass(frozen=True)
class Workload:
    """One workload's specs, job and check, and its run-shape constants.

    tamper: the spec with its expected output made wrong, for the
    self-test.  cycle: jobs the timed loop runs as one unit before it looks
    at the clock.  trace_jobs: measured jobs in a traced run (a fixed
    prefix, so its counts repeat exactly for a seed).  rss_jobs: measured
    jobs after which peak memory is read, a fixed amount of work that does
    not grow with the program's speed.
    """

    specs: Callable
    job: Callable
    check: Callable
    tamper: Callable
    cycle: int
    trace_jobs: int
    rss_jobs: int

    def spec_stream(self, seed):
        return self.specs(random.Random(seed))


WORKLOADS = {
    "symbolic-proof": Workload(
        symbolic_specs, symbolic_job, symbolic_check,
        lambda s: dict(s, det_poly=_DET_POLY.replace("36", "35")),
        cycle=1, trace_jobs=8, rss_jobs=20),
    "genus-sweep": Workload(
        sweep_specs, sweep_job, sweep_check,
        lambda s: dict(s, expect_g=[g + 1 for g in s["expect_g"]]),
        cycle=1, trace_jobs=20, rss_jobs=40),
    "deep-truncation": Workload(
        deep_specs, deep_job, deep_check,
        lambda s: dict(s, offset=1),
        cycle=len(_TRUNCATIONS), trace_jobs=len(_TRUNCATIONS), rss_jobs=3),
    "strata-combinatorics": Workload(
        strata_specs, strata_job, strata_check,
        lambda s: dict(s, expect_n=s["expect_n"] + 1),
        cycle=1, trace_jobs=3, rss_jobs=5),
}
