"""Per-layer metrics from a traced run, named `<layer>.<function>.<stat>`.

Counts and times are per pass of the workload's job list (totals divided by
the number of traced passes), so runs that complete different numbers of
passes stay comparable.  A function the workload never calls reads 0, and
so does a ratio whose denominator is 0.
"""

from __future__ import annotations

PER_PASS = ("calls", "self_s", "ops", "bytes", "pairs", "rows", "products", "nodes",
            "iterations", "steps", "windows", "substeps")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes: int, records: list) -> dict:
    stats, cover = tracer.stats()
    out = {}
    for fn in tracer.names:
        for stat in PER_PASS:
            out[f"{fn}.{stat}"] = stats[fn][stat] / passes if fn in stats else 0.0
        for stat, val in stats.get(fn, {}).items():
            if stat.endswith("_max"):
                out[f"{fn}.{stat}"] = val
    for fn, stat in (("controlled.remainder", "pair_bytes_max"),
                     ("controlled.rough_integral", "pair_bytes_max"),
                     ("paths.SampledRoughPath.dist_matrix", "cache_bytes_max")):
        out.setdefault(f"{fn}.{stat}", 0.0)

    lift = stats.get("harness.lift_smooth", {})
    out["harness.lift_smooth.distinct_ratio"] = _ratio(lift.get("distinct", 0.0),
                                                       lift.get("calls", 0.0))
    dm = stats.get("paths.SampledRoughPath.dist_matrix", {})
    out["paths.SampledRoughPath.dist_matrix.hit_ratio"] = _ratio(dm.get("hits", 0.0),
                                                                 dm.get("calls", 0.0))
    tv = stats.get("controlled.remainder_norm_tildeV", {})
    picard = stats.get("rde.solve_picard_level2", {})
    out["controlled.tildeV_per_picard_iter"] = _ratio(tv.get("in_picard", 0.0),
                                                      picard.get("iterations", 0.0))
    out["report.identical_frac"] = _ratio(sum(r["identical"] for r in records), len(records))
    out["trace.uncovered_frac"] = _ratio(cover["uncovered_s"], cover["job_s"])
    out["trace.spans"] = len(tracer.spans) / passes
    return out
