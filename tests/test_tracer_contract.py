"""The traced benchmark run (perfbench/tracer.py) wraps library names from
outside the package; a refactor that renames one of them would silently
drop its spans.  These checks read the tracer's tables without editing it."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import sobrough._kernels
from sobrough import paths as P

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_path_has_traced_cache_attribute():
    X = P.SampledRoughPath.from_samples(np.zeros((5, 2)), 2, 0.4, 4.0)
    assert hasattr(X, "_dist_cache")
