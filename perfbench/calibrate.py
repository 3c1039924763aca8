"""Machine-speed probe that puts measured times on a fixed speed scale.

On a shared machine the speed of the same process drifts by tens of per
cent over minutes, because other tenants share the physical cores.  A
timing measured on such a machine is scaled by how long this fixed probe
took right before and right after it:

    scaled = raw * REFERENCE_S / mean(probe before, probe after)

so a run made while the machine is slow reads about the same as one made
while it is fast.  Process start-up tracks the probe poorly, so set-up
times are scaled instead by the start-up time of a bare interpreter
launched right after them.  The probe exercises the interpreter and small NumPy
operations, the same mix the jobs spend their time in, and uses no
sobrough code, so a change to the library moves the scaled times exactly
as much as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: probe time (s) at the reference speed the scaled times are expressed in;
#: the median probe time on the 2-core x86 machine the baseline was measured on
REFERENCE_S = 0.0100
#: start-up time (s) of a bare interpreter at the reference speed; set-up
#: times are scaled by it, because process start-up does not track `probe`
START_REFERENCE_S = 0.035

_W = np.random.default_rng(0).random((257, 257))
_A = np.random.default_rng(1).random(131072)


def probe() -> float:
    """Seconds this process takes for a fixed piece of work."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(40000):
        acc[i & 255] = acc.get(i & 255, 0.0) + i * 0.5
    row = np.zeros(257)
    for b in range(1, 257, 2):
        row[b] = np.max(row[:b] + _W[:b, b])
    x = _A
    for _ in range(8):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - t0


def scale(raw_s: float, before_s: float, after_s: float) -> float:
    """`raw_s` expressed at the reference speed."""
    return raw_s * REFERENCE_S / (0.5 * (before_s + after_s))


def scale_start(raw_s: float, bare_start_s: float) -> float:
    """A process start-up time expressed at the reference speed, given how
    long a bare interpreter took to start alongside it."""
    return raw_s * START_REFERENCE_S / bare_start_s
