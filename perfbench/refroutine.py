"""Fixed reference routine: the host-speed yardstick every timing is scaled by.

A shared 2-vCPU host runs the same Python step anywhere from 1x to 2x
slower between fresh processes, and process CPU time moves with it, so raw
wall time cannot separate a code change from a slower moment on the host.
Each timed step is therefore followed at once by :meth:`Reference.timed`,
and the step's wall time is scaled by ``REF_NOMINAL_MS / reference_ms``,
where ``reference_ms`` is the mean of the runs just before and just after
the step: both slow down together, and the ratio stays.

The routine mixes what a proxy-app step spends its time on: interpreter
traffic (object construction, dict updates, calls), small cache-resident
NumPy stencil sweeps (dispatch-bound, like the vec tier), and sweeps over
two L2-sized grids (bandwidth-bound, like the compiled kernels).  Its
working set is two 64x64 and two 224x224 float64 grids (~0.87 MB) plus a
64-entry dict, below a 2 MB L2.  On a 2-vCPU Xeon host, 14 fresh processes
per workload, the spread (IQR / median) of per-process median step times
was 4.0% on clover-eager and 6.4% on airfoil normalised by all three parts,
against 6.2% and 9.4% with the first two parts alone and 11% and 18%
unnormalised.

This module must import nothing from ``repro``: a change under measurement
must not be able to change the yardstick.  ``perfbench/run.py`` checks that
on every invocation.
"""

from __future__ import annotations

import time

import numpy as np

#: the reference routine's nominal duration; normalised times read as
#: "milliseconds on a host where the reference takes exactly this long"
REF_NOMINAL_MS = 4.0

_SMALL = 64
_LARGE = 224
_INTERP_ITERS = 1600
_SMALL_SWEEPS = 50
_LARGE_SWEEPS = 8


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def _mix(a: int, b: int) -> int:
    return (a ^ b) & 1023


def _interpreter_work(n: int) -> float:
    table: dict[int, float] = {}
    acc = 0
    for i in range(n):
        c = _Cell(i & 63, i * 0.5)
        table[c.key] = table.get(c.key, 0.0) + c.value
        acc += _mix(i, c.key)
    return acc + sum(table.values())


def _stencil_work(a: np.ndarray, b: np.ndarray, sweeps: int) -> float:
    for _ in range(sweeps):
        b[1:-1, 1:-1] = 0.25 * (a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:])
        a, b = b, a
    return float(a[1, 1])


def _grid(n: int) -> np.ndarray:
    y, x = np.mgrid[0:n, 0:n]
    return (1.0 + np.sin(x * 0.1) * np.cos(y * 0.07)).astype(np.float64)


class Reference:
    """The reference routine with its grids allocated once."""

    def __init__(self):
        self._init = [_grid(_SMALL), _grid(_LARGE)]
        self._grids = [(g.copy(), g.copy()) for g in self._init]

    def timed(self) -> float:
        """Wall time of one pass, in milliseconds (identical work every call)."""
        for init, (a, b) in zip(self._init, self._grids):
            a[...] = init
            b[...] = init
        (sa, sb), (la, lb) = self._grids
        t0 = time.perf_counter()
        _interpreter_work(_INTERP_ITERS)
        _stencil_work(sa, sb, _SMALL_SWEEPS)
        _stencil_work(la, lb, _LARGE_SWEEPS)
        return (time.perf_counter() - t0) * 1e3
