"""Ablation: cache-block tiling and cross-loop fusion (Section VI locality).

Two experiments on real executions:

* tile-size sweep of the OPS ``tiled`` backend over a CloverLeaf-sized
  stencil sweep, with the model's cache-fit estimate alongside measured
  wall time;
* lazy cross-loop execution (``ops.lazy_scope``, fused tiles) vs eager
  execution of a pointwise pipeline: bitwise-identical results, with the
  fused group and tile counts taken from ``PerfCounters``.
"""

import time

import numpy as np
import pytest

from _support import emit
from repro import ops
from repro.common.config import swap
from repro.common.counters import PerfCounters
from repro.common.profiling import counters_scope
from repro.ops.tileplan import tile_working_set_bytes

N = 256
TILE_EDGES = [16, 32, 64, 128, 256]


def smooth(a, b):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])


def axpy(a, b):
    b[0, 0] = 2.0 * a[0, 0] + 1.0


def square(b, c):
    c[0, 0] = b[0, 0] * b[0, 0]


def fields():
    blk = ops.Block(2)
    a = ops.Dat(blk, (N, N), halo_depth=2)
    b = ops.Dat(blk, (N, N), halo_depth=2)
    c = ops.Dat(blk, (N, N), halo_depth=2)
    a.interior[...] = np.random.default_rng(0).standard_normal((N, N))
    return blk, a, b, c


def test_ablation_tile_size(benchmark):
    blk, a, b, c = fields()
    r = [(1, N - 1), (1, N - 1)]

    def run_tiled(edge):
        ops.par_loop(smooth, blk, r, a(ops.READ, ops.S2D_5PT), b(ops.WRITE),
                     backend="tiled", tile_shape=(edge, edge))

    benchmark.pedantic(lambda: run_tiled(64), rounds=3, iterations=1)

    ops.par_loop(smooth, blk, r, a(ops.READ, ops.S2D_5PT), c(ops.WRITE), backend="vec")
    ref = c.interior.copy()

    rows = [f"{'tile edge':>10}{'working set KiB':>17}{'measured ms':>13}{'correct':>9}"]
    ms_by_edge = {}
    for edge in TILE_EDGES:
        run_tiled(edge)  # warm: the first call at an edge builds its plan
        b.data[:] = 0
        t0 = time.perf_counter()
        run_tiled(edge)
        ms = (time.perf_counter() - t0) * 1e3
        ws = tile_working_set_bytes((edge, edge), n_fields=2) / 1024
        ok = np.allclose(b.interior, ref)
        ms_by_edge[edge] = ms
        rows.append(f"{edge:>10}{ws:>17.0f}{ms:>13.2f}{str(ok):>9}")
        assert ok
    emit(
        "ablation_tile_size",
        rows,
        data={"config": {"tile_edges": list(TILE_EDGES)}, "measured_ms": ms_by_edge},
    )


def test_ablation_fusion_vs_eager(benchmark):
    blk, a, b, c = fields()
    r = [(0, N), (0, N)]

    def chain():
        ops.par_loop(axpy, blk, r, a(ops.READ), b(ops.WRITE), backend="vec")
        ops.par_loop(square, blk, r, b(ops.READ), c(ops.WRITE), backend="vec")

    def eager():
        with swap(lazy=False):
            chain()

    def fused() -> PerfCounters:
        counters = PerfCounters()
        with counters_scope(counters), ops.lazy_scope(lazy_tile=(64, 64)):
            chain()
        return counters

    eager()
    ref = c.interior.copy()
    b.data[:] = 0
    c.data[:] = 0
    stats = fused()
    np.testing.assert_array_equal(c.interior, ref)

    benchmark.pedantic(fused, rounds=3, iterations=1)

    t0 = time.perf_counter()
    eager()
    t_eager = time.perf_counter() - t0
    t0 = time.perf_counter()
    fused()
    t_fused = time.perf_counter() - t0

    rows = [
        f"chain of 2 pointwise loops over {N}x{N}:",
        f"  fused groups: {stats.lazy_groups} ({stats.lazy_loops} loops, "
        f"{stats.lazy_tiles} tiles)",
        f"  eager {t_eager * 1e3:.2f} ms vs fused {t_fused * 1e3:.2f} ms",
        "  (on real hardware fusion additionally saves one kernel launch per",
        "   fused loop and keeps the tile resident in cache between loops)",
    ]
    emit(
        "ablation_fusion",
        rows,
        data={
            "config": {"grid": [N, N], "lazy_tile": [64, 64]},
            "wall_seconds": {"eager": t_eager, "fused": t_fused},
            "fusion_stats": {
                "loops": stats.lazy_loops,
                "groups": stats.lazy_groups,
                "tiles": stats.lazy_tiles,
            },
        },
    )
    assert stats.lazy_groups == 1
    assert stats.lazy_loops == 2
