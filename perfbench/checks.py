"""Output checks for one job's report.

A job fails when the CLI exits non-zero, when its report does not validate
against `report.schema.json`, when a closed-form or consistency check on
its results does not hold, or when its `results` differ from the reference
beyond the tolerances the unit tests pin for kernel parity and norms
(absolute 1e-13 plus relative 1e-12).  Byte-identical reports are counted
separately, because the repository promises byte-identical reports for
unchanged results.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

ABS_TOL = 1e-13
REL_TOL = 1e-12
# large numeric arrays (solution paths) are kept as an evenly spaced sample
# plus their sum and sum of squares, so references stay small
SAMPLE = 64


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(obj, out):
    if isinstance(obj, dict):
        for key, val in obj.items():
            out.append(("key", key))
            _leaves(val, out)
    elif isinstance(obj, list):
        out.append(("list", len(obj)))
        for val in obj:
            _leaves(val, out)
    elif isinstance(obj, bool) or obj is None or isinstance(obj, str):
        out.append(("atom", obj))
    else:
        out.append(("num", float(obj)))


def fingerprint(results: dict) -> dict:
    """Structure, non-numeric atoms and (a sample of) the numbers of `results`."""
    leaves = []
    _leaves(results, leaves)
    nums = [v for kind, v in leaves if kind == "num"]
    shape = [[kind, v] for kind, v in leaves if kind != "num"]
    fp = {"shape_sha256": digest(json.dumps(shape).encode()), "count": len(nums)}
    if len(nums) <= SAMPLE:
        fp["values"] = nums
    else:
        idx = np.linspace(0, len(nums) - 1, SAMPLE).round().astype(int)
        fp["values"] = [nums[i] for i in idx]
        fp["sum"] = math.fsum(nums)
        fp["sum_abs"] = math.fsum(abs(v) for v in nums)
        fp["sum_sq"] = math.fsum(v * v for v in nums)
    return fp


def _close(a: float, b: float, scale: float | None = None) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ABS_TOL + REL_TOL * (abs(b) if scale is None else scale)


def compare(fp: dict, ref: dict) -> str | None:
    """None when `fp` matches the reference fingerprint, else the first difference."""
    if fp["shape_sha256"] != ref["shape_sha256"] or fp["count"] != ref["count"]:
        return "report structure or non-numeric entries differ"
    for i, (a, b) in enumerate(zip(fp["values"], ref["values"])):
        if not _close(a, b):
            return f"number {i}: {a!r} vs reference {b!r}"
    if "sum" in ref:
        if not _close(fp["sum"], ref["sum"], ref["sum_abs"]):
            return f"sum {fp['sum']!r} vs reference {ref['sum']!r}"
        if not _close(fp["sum_sq"], ref["sum_sq"]):
            return f"sum of squares {fp['sum_sq']!r} vs reference {ref['sum_sq']!r}"
    return None


def invariants(job, results: dict) -> str | None:
    """Checks that hold for every seed: closed forms and internal consistency."""
    if job.kind == "integrate":
        # rough integral of the coordinate map along a grid-aligned walk from 0
        got = np.asarray(results["values"], dtype=float)
        want = np.asarray(job.expect["half_square"])
        err = float(np.max(np.abs(got - want)))
        if not err <= 1e-12 * max(1.0, float(np.max(np.abs(want)))):
            return f"integral of x dx differs from x^2/2 by {err:.3e}"
    elif job.kind == "solve":
        meta = results["meta"]
        if job.expect["scheme"] == "picard" and not meta["residual"] < job.expect["tol"]:
            return f"Picard residual {meta['residual']} not below tol"
        if job.expect["scheme"] == "windowed" and meta["windows"] != 4:
            return f"{meta['windows']} windows, expected 4"
        if not np.all(np.isfinite(np.asarray(results["values"], dtype=float))):
            return "non-finite solution values"
    elif job.kind == "norm":
        for key in ("sobolev_integral", "sobolev_dyadic", "holder", "qvar"):
            val = results[key]
            if not (isinstance(val, float) and math.isfinite(val) and val > 0):
                return f"{key} = {val!r} is not a positive finite number"
    elif job.kind == "dist":
        levels = results["inhom_sobolev_levels"]
        if not _close(results["inhom_sobolev"], math.fsum(levels)):
            return "inhom_sobolev is not the sum of its levels"
        if results["mixed"] != max(results["mixed_levels"]):
            return "mixed distance is not the max of its levels"
    elif job.kind == "sweep":
        if results["n_pairs"] != len(results["records"]):
            return "n_pairs does not match the record count"
    elif results.get("kind") != f"{job.kind}_study":
        return f"study report of kind {results.get('kind')!r}"
    return None
