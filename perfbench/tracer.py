"""Per-layer tracing of chowkit from outside the package.

A Tracer wraps chowkit's public functions and methods, records a span
(name, start, end, parent span, job id) around each call, and keeps
per-name call counts, total time and child time, so that a layer's self
time is its span time minus the time its child spans cover.

Wrapping is transparent: each wrapper calls the original with the same
arguments and returns its result or lets its exception through unchanged.
Every binding site of a wrapped function is patched, not just the defining
one: a name imported into another module (``verify.bareiss_det`` next to
``linalg.bareiss_det``, ``cli.verify_relation``, the package namespace)
and a class alias (``ChowElement.__rmul__`` is ``__mul__``) are all found
by identity and restored by ``uninstall``.

Coefficient arithmetic and element arithmetic and construction run up to
millions of times in one job, so those calls are only aggregated (count and
time, still charged to their parent's child time); all other calls are also
kept as spans.  Each job gets a root span, the parent of its layer spans.
"""

import functools
import sys
import time

CHOWKIT = "chowkit"


def _layer_targets(ck):
    """(metric name, owner, attribute, keep spans, probe name) per target.

    ``ck`` is the imported chowkit package.  Several targets may share one
    metric name; their counts and times are summed.
    """
    ring, spaces, bundles = ck.ring, ck.spaces, ck.bundles
    linalg, verify, strata, cli = ck.linalg, ck.verify, ck.strata, ck.cli
    pp, el = ring.ParamPoly, ring.ChowElement
    targets = [
        ("ring.ParamPoly", pp, attr, False, None)
        for attr in ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__",
                     "__pow__", "__call__", "divmod", "exact_div")
    ]
    targets += [
        ("ring.ParamPoly.nonneg_integer_roots", pp, "nonneg_integer_roots",
         True, None),
        ("ring.ChowElement.init", el, "__init__", False, "init"),
        ("ring.ChowElement.mul", el, "__mul__", False, "mul"),
        ("ring.ChowElement.add", el, "__add__", False, None),
        ("ring.ChowElement.add", el, "__sub__", False, None),
        ("ring.ChowElement.add", el, "__rsub__", False, None),
        ("ring.ChowElement.add", el, "__neg__", False, None),
        ("ring.ChowElement.evaluate", el, "evaluate", True, None),
        ("ring.ChowElement.canonical", el, "canonical", True, None),
        ("ring.RingPresentation.parse", ring.RingPresentation, "parse", True,
         None),
        ("spaces.build_space", spaces, "build_space", True, None),
        ("spaces.SpaceContext.init", spaces.SpaceContext, "__init__", False,
         None),
        ("spaces.pushforward", spaces, "pushforward", True, None),
        ("spaces.lift", spaces, "lift", True, None),
        ("spaces.diagonal", spaces, "diagonal", True, None),
        ("bundles.excess_class", bundles, "excess_class", True, None),
        ("bundles.principal_parts_chern", bundles, "principal_parts_chern",
         True, None),
        ("bundles.BundleClass.whitney", bundles.BundleClass, "whitney", True,
         None),
        ("bundles.BundleClass.inverse_total", bundles.BundleClass,
         "inverse_total", True, None),
        ("bundles.jet_rank", bundles, "jet_rank", True, None),
        ("linalg.rank_fraction", linalg, "rank_fraction", True, None),
        ("linalg.bareiss_det", linalg, "bareiss_det", True, None),
        ("linalg.param_rank", linalg, "param_rank", True, None),
        ("linalg.solve_cramer", linalg, "solve_cramer", True, None),
        ("verify.verify_relation", verify, "verify_relation", True, None),
        ("verify.triviality_check", verify, "triviality_check", True, None),
        ("verify.relation_matrix", verify, "relation_matrix", True, None),
        ("verify.tt_chain", verify, "tt_chain", True, None),
        ("strata.enumerate_codim1", strata, "enumerate_codim1", True,
         "strata"),
        ("strata.oracle_enumerate", strata, "oracle_enumerate", True, None),
        ("strata.format_stratum", strata, "format_stratum", True, None),
        ("cli.Report.to_json", cli.Report, "to_json", True, None),
        ("cli.main", cli, "main", True, None),
    ]
    return targets


def _binding_sites():
    """Every chowkit module and every class defined in one."""
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == CHOWKIT
                                  or mod_name.startswith(CHOWKIT + ".")):
            continue
        sites.append(module)
        for value in vars(module).values():
            if (isinstance(value, type)
                    and value.__module__.startswith(CHOWKIT)
                    and value not in sites):
                sites.append(value)
    return sites


class Tracer:
    """Spans and per-name counters for one traced run."""

    def __init__(self, ck):
        self.names = []
        self.stats = {}      # metric name -> [calls, total_s, child_s]
        self.counts = {}     # extra counts gathered by probes
        self.spans = []      # (name index, start, end, parent index, job)
        self.job = [0]       # current job id, read by every wrapper
        self._stack = [[0.0, -1]]   # [child time, span index] per open call
        self._patched = []   # (site, attribute, original), in patch order
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for name, owner, attr, keep_spans, probe in _layer_targets(ck):
            original = vars(owner)[attr]
            if id(original) in self._wrappers:
                raise ValueError(f"{owner.__name__}.{attr} listed twice")
            probe_fn = None if probe is None else getattr(
                self, "_probe_" + probe)
            self._wrappers[id(original)] = (original, self._wrap(
                name, original, keep_spans, probe_fn))

    # -- probes: counts taken after a call returns, outside its span --

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _probe_mul(self, args, result):
        left, right = args[0], args[1]
        if type(right) is not type(left):
            return   # scalar product: no pairs of monomials
        ring = left.ring
        cap = ring.truncation_degree
        self._count("mul.pairs", len(left.terms) * len(right.terms))
        if cap is None:
            self._count("mul.useful_pairs",
                        len(left.terms) * len(right.terms))
            return
        hist_l, hist_r = {}, {}
        for terms, hist in ((left.terms, hist_l), (right.terms, hist_r)):
            for exps in terms:
                d = ring.monomial_degree(exps)
                hist[d] = hist.get(d, 0) + 1
        self._count("mul.useful_pairs",
                    sum(nl * nr for dl, nl in hist_l.items()
                        for dr, nr in hist_r.items() if dl + dr <= cap))

    def _probe_init(self, args, result):
        self._count("init.terms_in", len(args[2]))
        self._count("init.terms_out", len(args[0].terms))

    def _probe_strata(self, args, result):
        self._count("enumerate_codim1.strata", len(result))

    # -- wrapping --

    def _wrap(self, name, fn, keep_spans, probe):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        stack, spans, job = self._stack, self.spans, self.job
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1]
            if keep_spans:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if keep_spans:
                    spans[idx] = (name_idx, t0, t1, parent, job[0])
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def install(self):
        """Patch every binding site of every wrapped function."""
        for site in _binding_sites():
            for attr, value in list(vars(site).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(site, attr, hit[1])
                    self._patched.append((site, attr, value))

    def uninstall(self):
        """Put every patched binding back, newest first."""
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)

    def begin_job(self, job_id):
        """Open the root span of one benchmark job."""
        if "job" not in self.names:
            self.names.append("job")
        self.job[0] = job_id
        self._stack[0][1] = len(self.spans)
        self.spans.append(None)

    def end_job(self, start, end):
        idx = self._stack[0][1]
        self.spans[idx] = (self.names.index("job"), start, end, -1,
                           self.job[0])

    # -- results --

    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def dump(self):
        """Everything recorded, as a JSON-ready dict."""
        return {
            "names": list(self.names),
            "stats": {name: {"calls": c, "total_s": t, "self_s": t - ch}
                      for name, (c, t, ch) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [list(s) for s in self.spans if s is not None],
        }
