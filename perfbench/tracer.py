"""Traced run: spans around sobrough's public functions, made from outside
the package.

`Tracer.install()` replaces every public function of the layer modules at
every binding that refers to it: the defining module, every module that
imported the name with `from ... import`, and dict values such as the CLI's
study table.  The kernels are replaced on `sobrough._kernels` only, because
callers look them up there at call time; calls between kernels inside the
backend module are part of the calling kernel.  `uninstall()` restores the
originals, so untraced passes in the same process run the plain code.

Spans stay in memory as [name, start, end, parent, job, child_s, work] and
are written out at the end.  Functions called more than about 10^4 times
per job (polynomial evaluation inside the RK4 oracle, report
serialisation) get aggregated counters instead of one span per call; their
time still counts as child time of the enclosing span, so self times stay
exact.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("algebra", "paths", "controlled", "fields", "rde", "harness", "cli", "report")
KERNELS = ("level_layout", "rowwise_mul", "chen_prefix", "inverse_batch", "hom_dist_block",
           "hom_dist_matrix", "level_diff_block", "sobolev_pair_sum", "partition_dp_max",
           "interval_dp_table")
METHODS = {
    "fields": [("PolyMap", "__call__"), ("PolyMap", "eval_batch"),
               ("PolyVectorField", "__call__"), ("PolyVectorField", "eval_batch"),
               ("PolyVectorField", "lip_surrogate")],
    "paths": [("SampledRoughPath", "dist_matrix")],
}
AGGREGATED = {"fields.PolyMap.__call__", "fields.PolyMap.eval_batch",
              "fields.PolyVectorField.__call__", "report.dumps"}
SPAN_CALL_LIMIT = 10_000

_NAME, _START, _END, _PARENT, _JOB, _CHILD, _WORK = range(7)


def _pairs_in_pair_sum(args):
    i0, i1 = args[7], args[8]
    return sum((min(r0 + 128, i1) - r0) * (i1 - r0) for r0 in range(i0, i1, 128))


def _work_functions(tracer):
    """Work counts per function: fn(args, kwargs, result) -> {stat: amount}."""

    def dp_table(a, k, r):
        n = a[0].shape[0]
        return {"ops": n ** 3 / 6.0, "bytes": 2.0 * 8 * n * n}

    def lift(a, k, r):
        samples = a[0]
        key = hashlib.sha1(memoryview(samples.tobytes())).hexdigest() + repr(a[1:])
        fresh = key not in tracer.job_lift_keys
        tracer.job_lift_keys.add(key)
        return {"distinct": 1.0 if fresh else 0.0}

    def oracle(a, k, r):
        # RK4 at `refinement` substeps per grid step, then again at half of it
        ref = k.get("refinement", a[4] if len(a) > 4 else 64)
        return {"substeps": float((1 << a[3]) * (ref + max(ref // 2, 1)))}

    def dist_matrix(a, k, r):
        cache = a[0]._dist_cache
        return {"cache_bytes_max": float(cache.nbytes) if cache is not None else 0.0}

    def write_report(a, k, r):
        out = a[1] if len(a) > 1 else k.get("out")
        if out in (None, "-"):
            return {}
        return {"bytes": float(os.path.getsize(out))}

    return {
        "kernels.interval_dp_table": dp_table,
        "kernels.partition_dp_max": lambda a, k, r: {"ops": a[0].shape[0] ** 2 / 2.0},
        "kernels.hom_dist_block": lambda a, k, r: {"pairs": float(r.size)},
        "kernels.hom_dist_matrix": lambda a, k, r: {"pairs": float(r.size)},
        "kernels.level_diff_block": lambda a, k, r: {"pairs": float(r.size)},
        "kernels.sobolev_pair_sum": lambda a, k, r: {"pairs": float(_pairs_in_pair_sum(a))},
        "kernels.inverse_batch": lambda a, k, r: {"rows": float(a[0].shape[0])},
        "kernels.rowwise_mul": lambda a, k, r: {"rows": float(a[0].shape[0])},
        "kernels.chen_prefix": lambda a, k, r: {"products": float(a[0].shape[0])},
        "algebra.signature_path_packed": lambda a, k, r: {"nodes": float(a[0].shape[0])},
        "harness.lift_smooth": lift,
        "paths.SampledRoughPath.dist_matrix": dist_matrix,
        "controlled.remainder": lambda a, k, r: {"pair_bytes_max": float(r.pair.nbytes)},
        "controlled.rough_integral": lambda a, k, r: {
            "pair_bytes_max": float(r.remainder.pair.nbytes)},
        "rde.solve_picard_level2": lambda a, k, r: {"iterations": float(r.meta["iterations"])},
        "rde.solve_euler": lambda a, k, r: {"steps": float(r.values.shape[0] - 1)},
        "rde.windowed_solve": lambda a, k, r: {"windows": float(r.meta["windows"])},
        "harness.ode_oracle": oracle,
        "cli.ingest_csv": lambda a, k, r: {"rows": float(r[1]["rows"])},
        "report.write_report": write_report,
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.job_lift_keys = set()
        self.agg = defaultdict(lambda: [0, 0.0])     # name -> [calls, self_s]
        self.job_calls = defaultdict(int)            # span calls in the current job
        self.over_limit = set()
        self._undo = []
        self._work = _work_functions(self)
        self.names = set()                           # every wrapped function

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn):
        spans, stack, work = self.spans, self.stack, self._work.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.job, 0.0, None]
            rec_idx = len(spans)
            spans.append(rec)
            frame = [rec_idx, rec]
            stack.append(frame)
            self.job_calls[name] += 1
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                if stack:
                    stack[-1][1][_CHILD] += rec[_END] - rec[_START]
            if work is not None:
                rec[_WORK] = work(args, kwargs, result)
            return result

        return traced

    def _agg_wrapper(self, name, fn):
        stack, counter = self.stack, self.agg[name]
        clock = time.perf_counter

        def counted(*args, **kwargs):
            rec = [name, 0.0, 0.0, -1, None, 0.0, None]
            frame = [stack[-1][0] if stack else -1, rec]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                counter[0] += 1
                counter[1] += dt - rec[_CHILD]
                if stack:
                    stack[-1][1][_CHILD] += dt

        return counted

    def _wrap(self, name, fn):
        self.names.add(name)
        if name in AGGREGATED:
            return self._agg_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def install(self):
        """Wrap every public layer function at each of its bindings."""
        import sobrough._kernels as kernels
        mods = {layer: sys.modules[f"sobrough.{layer}"] for layer in LAYERS}
        bindings = [m for n, m in sorted(sys.modules.items())
                    if (n == "sobrough" or n.startswith("sobrough."))
                    and n not in ("sobrough._kernels", "sobrough._kernels._fallback",
                                  "sobrough._kernels._speedups")]
        for kname in KERNELS:
            orig = getattr(kernels, kname)
            self._set(kernels, kname, orig, self._wrap(f"kernels.{kname}", orig))
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in bindings:
                    space = vars(holder)
                    for key, val in list(space.items()):
                        if val is fn:
                            self._set(holder, key, fn, wrapped)
                        elif isinstance(val, dict):
                            for dkey, dval in list(val.items()):
                                if dval is fn:
                                    self._undo.append((val, dkey, fn, True))
                                    val[dkey] = wrapped
        for layer, methods in METHODS.items():
            for cls_name, meth in methods:
                cls = getattr(mods[layer], cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def _set(self, holder, key, orig, new):
        self._undo.append((holder, key, orig, False))
        setattr(holder, key, new)

    def uninstall(self):
        for holder, key, orig, is_dict in reversed(self._undo):
            if is_dict:
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._undo.clear()

    # -------------------------------------------------------------- jobs

    def begin_job(self, job_id):
        self.job = job_id
        self.job_lift_keys = set()
        self.job_calls.clear()
        rec = ["job", 0.0, 0.0, -1, job_id, 0.0, None]
        self.spans.append(rec)
        self.stack.append([len(self.spans) - 1, rec])
        rec[_START] = time.perf_counter()

    def end_job(self):
        frame = self.stack.pop()
        frame[1][_END] = time.perf_counter()
        if self.stack:
            raise RuntimeError("unbalanced spans at the end of a job")
        for name, calls in self.job_calls.items():
            if calls > SPAN_CALL_LIMIT:
                self.over_limit.add(name)
        self.job = None

    # ----------------------------------------------------------- results

    def stats(self):
        """Per-function totals (calls, self_s, summed work counts and the
        counters behind the derived ratios) and the job-coverage figures."""
        out = defaultdict(lambda: defaultdict(float))
        spans = self.spans
        has_hdm_child = set()
        for rec in spans:
            if rec[_NAME] == "kernels.hom_dist_matrix" and rec[_PARENT] >= 0:
                has_hdm_child.add(rec[_PARENT])
        picard = "rde.solve_picard_level2"
        job_s = cli_self_s = 0.0
        for idx, rec in enumerate(spans):
            name = rec[_NAME]
            dur = rec[_END] - rec[_START]
            if name == "job":
                job_s += dur
                continue
            st = out[name]
            st["calls"] += 1
            st["self_s"] += dur - rec[_CHILD]
            if name == "cli.main":
                cli_self_s += dur - rec[_CHILD]
            for key, val in (rec[_WORK] or {}).items():
                if key.endswith("_max"):
                    st[key] = max(st[key], val)
                else:
                    st[key] += val
            if name == "paths.SampledRoughPath.dist_matrix" and idx not in has_hdm_child:
                st["hits"] += 1
            if name == "controlled.remainder_norm_tildeV":
                parent = rec[_PARENT]
                while parent >= 0 and spans[parent][_NAME] != picard:
                    parent = spans[parent][_PARENT]
                if parent >= 0:
                    st["in_picard"] += 1
        for name, (calls, self_s) in self.agg.items():
            out[name]["calls"] += calls
            out[name]["self_s"] += self_s
        job_child_s = sum(rec[_CHILD] for rec in spans if rec[_NAME] == "job")
        # time inside a job that no span below the CLI entry point covers
        uncovered_s = (job_s - job_child_s) + cli_self_s
        return out, {"job_s": job_s, "uncovered_s": uncovered_s}

    def dump(self, path, jobs):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "child_s", "work"],
                       "jobs": jobs, "spans": self.spans,
                       "aggregated": {k: {"calls": v[0], "self_s": v[1]}
                                      for k, v in self.agg.items()}}, fh)
