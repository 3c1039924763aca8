"""The traced benchmark run (perfbench/tracer.py) wraps library names from
outside the package; a refactor that renames one of them would silently
drop its spans, and one that reshapes a result would crash the work hooks
that read it.  These checks read the tracer's tables without editing it."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import sobrough._kernels
from sobrough import controlled as C
from sobrough import paths as P
from sobrough import rde
from sobrough.fields import PolyVectorField
from sobrough.harness import lift_smooth, make_trig_driver

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# per-layer metrics the tracer derives rather than reads off one function's spans
_DERIVED = ("controlled.tildeV_per_picard_iter", "report.identical_frac", "trace.")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_kernels_exist():
    tracer = _load_tracer()
    missing = [name for name in tracer.KERNELS if not hasattr(sobrough._kernels, name)]
    assert not missing


def test_traced_methods_exist():
    tracer = _load_tracer()
    missing = []
    for layer, methods in tracer.METHODS.items():
        module = importlib.import_module(f"sobrough.{layer}")
        for cls, method in methods:
            if not callable(getattr(getattr(module, cls, None), method, None)):
                missing.append(f"{layer}.{cls}.{method}")
    assert not missing


def test_per_layer_metrics_name_traced_functions():
    # each per-layer metric is "<function>.<stat>"; a function the tracer no
    # longer wraps would read zero instead of failing
    tracer = _load_tracer()
    traced = {f"kernels.{name}" for name in tracer.KERNELS}
    traced |= {f"{layer}.{cls}.{method}"
               for layer, methods in tracer.METHODS.items() for cls, method in methods}
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"sobrough.{layer}")
        traced |= {f"{layer}.{name}" for name, fn in vars(module).items()
                   if not name.startswith("_") and inspect.isfunction(fn)
                   and fn.__module__ == module.__name__}
    names = [m["name"] for m in json.loads(_BENCHMARK.read_text())["per_layer"]]
    derived = [name for name in names if name.startswith(_DERIVED)]
    assert len(derived) == 5
    unknown = [name for name in names
               if name not in derived and name.rsplit(".", 1)[0] not in traced]
    assert not unknown


def test_path_has_traced_cache_attribute():
    X = P.SampledRoughPath.from_samples(np.zeros((5, 2)), 2, 0.4, 4.0)
    assert hasattr(X, "_dist_cache")


def test_work_hooks_read_library_results():
    work = _load_tracer()._work_functions(SimpleNamespace(job_lift_keys=set()))
    X = lift_smooth(make_trig_driver(1, 2).samples(4), 2, 4, 0.4, 4.0)
    V = PolyVectorField.linear(0.2 * np.ones((2, 2, 2)))
    y0 = np.array([0.5, -0.5])

    def hook(name, args, result):
        return work[name](args, {}, result)

    # the whole-matrix DP kernels, called as the embedding study calls them
    w = X.dist_matrix(0, X.n_nodes) ** 2.5
    n = float(X.n_nodes)
    for name, want in [("interval_dp_table", {"ops": n ** 3 / 6.0, "bytes": 2.0 * 8 * n * n}),
                       ("partition_dp_max", {"ops": n ** 2 / 2.0})]:
        assert hook(f"kernels.{name}", (w,), getattr(sobrough._kernels, name)(w)) == want

    cp = C.compose_smooth(V, C.coordinate_controlled(X))
    R = C.remainder(cp)
    assert hook("controlled.remainder", (cp,), R) == {"pair_bytes_max": float(R.pair.nbytes)}
    res = C.rough_integral(cp)
    assert hook("controlled.rough_integral", (cp,), res) == {
        "pair_bytes_max": float(res.remainder.pair.nbytes)}
    sol = rde.solve_picard_level2(y0, V, X)
    assert hook("rde.solve_picard_level2", (y0, V, X), sol) == {
        "iterations": float(sol.meta["iterations"])}
    win = rde.windowed_solve(y0, V, X, splits=(0.5,))
    assert hook("rde.windowed_solve", (y0, V, X), win) == {"windows": 2.0}
    eul = rde.solve_euler(y0, V, X)
    assert hook("rde.solve_euler", (y0, V, X), eul) == {"steps": float(X.n_nodes - 1)}
