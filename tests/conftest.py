import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import sobrough._kernels

settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def traced_memory():
    """traced_memory(fn) -> (peak, held): the bytes that fn() allocates at its
    peak, and those it still holds when it returns, over what was allocated
    before the call."""
    def measure(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base, held - base
    return measure


@pytest.fixture
def kept_arrays():
    """kept_arrays(X) -> the names of the arrays that a path holds beyond its
    nodes and their inverses."""
    def names(X):
        return [k for k, v in vars(X).items()
                if isinstance(v, np.ndarray) and k not in ("nodes", "_inv_cache")]
    return names


@pytest.fixture
def kernel_calls(monkeypatch):
    """kernel_calls(*names) -> {name: [the arguments of each call]}, counting
    from then on every call of the named kernels made through sobrough._kernels."""
    def count(*names):
        calls = {name: [] for name in names}
        for name in names:
            def counted(*args, _name=name, _fn=getattr(sobrough._kernels, name)):
                calls[_name].append(args)
                return _fn(*args)
            monkeypatch.setattr(sobrough._kernels, name, counted)
        return calls
    return count
