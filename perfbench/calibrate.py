"""Machine-speed calibration for the gated timings.

On a shared host the same code runs up to 1.7x slower for tens of seconds
at a time (measured on a 2-vCPU VM: the medians of 10-second windows of
one unchanged computation spread that far, with no CPU steal reported).
Medians over passes cannot remove drift that lasts a whole run.  So each
operation is bracketed by short calibration kernels that do not touch
rodfield, and its wall time is rescaled to the speed at which the kernels
take their reference time:

    t_calibrated = t_wall * REFERENCE_S[workload] / mean(kernel time before, after)

The kernels imitate where each workload's time goes (the traced run shows
it): dense BLAS and memory-bound array passes for the BEM workloads, the
Python interpreter with small numpy calls for the closed-form loop.  Over
ten seeds on that host, the quartile spread of the run medians fell from
23% to 7% on closed_form and from 14% to 6% on small_problems, but only
from 11% to 9% on fieldmap and from 13% to 12% on thin_rod: the
memory-bound assembly and field evaluation vary by about 20% from call to
call, and no kernel timed before and after a call tracks that.  A slower
or faster machine reads as proportionally longer or shorter calibrated
times, so compare runs from one machine only.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 16)
_SQUARE = np.random.default_rng(0).standard_normal((250, 250))
_BIG = np.random.default_rng(1).standard_normal(2_000_000)


def _py():
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    return s


def _np():
    for _ in range(100):
        np.unique(np.concatenate([np.cos(_SMALL), _SMALL]))


def _blas():
    _SQUARE @ _SQUARE
    _SQUARE @ _SQUARE


def _mem():
    (_BIG * 1.5 + _BIG).sum()


KERNELS = {"py": _py, "np": _np, "blas": _blas, "mem": _mem}

WORKLOAD_KERNELS = {
    "thin_rod": ("blas", "mem"),
    "fieldmap": ("mem", "blas"),
    "closed_form": ("py", "np"),
    "small_problems": ("py", "np", "blas", "mem"),
}

# kernel time at which calibrated seconds equal wall seconds; any fixed
# value works, these are the kernels' 10th-percentile times on the
# reference host (2 vCPUs at 2.0 GHz, OpenBLAS 0.3.31, one thread)
REFERENCE_S = {
    "thin_rod": 10.0e-3,
    "fieldmap": 10.0e-3,
    "closed_form": 3.0e-3,
    "small_problems": 15.0e-3,
}


class Calibration:
    """Times one workload's calibration kernels."""

    def __init__(self, workload: str):
        self.kernels = [KERNELS[k] for k in WORKLOAD_KERNELS[workload]]
        self.reference_s = REFERENCE_S[workload]

    def measure(self) -> float:
        t0 = perf_counter()
        for k in self.kernels:
            k()
        return perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor from wall seconds to calibrated seconds."""
        return self.reference_s / ((before + after) / 2.0)
