"""Cross-loop fusion cases on the lazy engine (``ops.lazy_scope``).

Small hand-written chains — pointwise pipelines, stencil RAW/WAR pairs,
MIN/MAX reductions mid-chain, loops over differing ranges, random tile
shapes — each run fused under ``lazy_scope(lazy_tile=...)`` and compared
bitwise with eager execution.  Group and tile counts come from
``PerfCounters.lazy_groups``/``lazy_tiles``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import ops
from repro.common.config import swap
from repro.common.counters import PerfCounters
from repro.common.profiling import counters_scope
from repro.ops import lazy as lazy_mod


def axpy(a, b):
    b[0, 0] = 2.0 * a[0, 0] + 1.0


def square(b, c):
    c[0, 0] = b[0, 0] * b[0, 0]


def smooth(a, b):
    b[0, 0] = 0.25 * (a[1, 0] + a[-1, 0] + a[0, 1] + a[0, -1])


def setup(nx=20, ny=16, seed=0):
    blk = ops.Block(2)
    rng = np.random.default_rng(seed)
    a = ops.Dat(blk, (nx, ny), halo_depth=2, name="a")
    b = ops.Dat(blk, (nx, ny), halo_depth=2, name="b")
    c = ops.Dat(blk, (nx, ny), halo_depth=2, name="c")
    a.interior[...] = rng.standard_normal((nx, ny))
    return blk, a, b, c


def run(chain, lazy_tile=None) -> PerfCounters:
    """Execute ``chain()`` fused (``lazy_tile`` given) or eagerly."""
    counters = PerfCounters()
    with counters_scope(counters):
        if lazy_tile is None:
            chain()
        else:
            with ops.lazy_scope(lazy_tile=lazy_tile):
                chain()
    return counters


class TestCorrectness:
    def test_pointwise_pipeline_matches_eager(self):
        r = [(0, 20), (0, 16)]

        def chain(blk, a, b, c):
            ops.par_loop(axpy, blk, r, a(ops.READ), b(ops.WRITE), backend="vec")
            ops.par_loop(square, blk, r, b(ops.READ), c(ops.WRITE), backend="vec")

        ref = setup()
        run(lambda: chain(*ref))
        fused = setup()
        cnt = run(lambda: chain(*fused), lazy_tile=(6, 5))
        np.testing.assert_array_equal(fused[3].interior, ref[3].interior)
        assert cnt.lazy_groups == 1
        assert cnt.lazy_tiles > 1

    def test_stencil_raw_matches_eager(self):
        """A wide-stencil consumer of a fused producer: its tiles are skewed
        by the stencil's reach, so the group stays whole and exact."""
        r_in = [(1, 19), (1, 15)]

        def chain(blk, a, b, c):
            ops.par_loop(axpy, blk, [(0, 20), (0, 16)], a(ops.READ), b(ops.WRITE),
                         backend="vec")
            ops.par_loop(smooth, blk, r_in, b(ops.READ, ops.S2D_5PT), c(ops.WRITE),
                         backend="vec")

        ref = setup()
        run(lambda: chain(*ref))
        fused = setup()
        cnt = run(lambda: chain(*fused), lazy_tile=(7, 7))
        np.testing.assert_array_equal(fused[3].interior, ref[3].interior)
        assert cnt.lazy_groups == 1

    def test_war_through_stencil_breaks_group(self):
        """smooth reads ``a`` wide, then a later loop writes ``a``: the
        writer's tiles must trail every neighbour value the reader still
        needs (a skew, where an untiled engine would end the group)."""
        r_in = [(1, 19), (1, 15)]
        full = [(0, 20), (0, 16)]

        def chain(blk, a, b, c):
            ops.par_loop(smooth, blk, r_in, a(ops.READ, ops.S2D_5PT), b(ops.WRITE),
                         backend="vec")
            ops.par_loop(axpy, blk, full, b(ops.READ), a(ops.WRITE), backend="vec")

        ref = setup()
        run(lambda: chain(*ref))
        fused = setup()
        cnt = run(lambda: chain(*fused), lazy_tile=(5, 5))
        np.testing.assert_array_equal(fused[1].interior, ref[1].interior)
        np.testing.assert_array_equal(fused[2].interior, ref[2].interior)
        assert cnt.lazy_groups == 1

    def test_reductions_fuse_fine(self):
        """MIN/MAX reductions mid-chain are exact under any partition and
        fuse; an INC reduction would re-associate its sum, so it runs whole."""
        r = [(0, 20), (0, 16)]

        def extremes(x, lo, hi):
            lo.min(x[0, 0])
            hi.max(x[0, 0])

        def summing(x, t):
            t.inc(x[0, 0])

        def chain(blk, a, b, c, kind):
            reds = [ops.Reduction(kind[0]), ops.Reduction(kind[1])]
            ops.par_loop(axpy, blk, r, a(ops.READ), b(ops.WRITE), backend="vec")
            if kind == ("min", "max"):
                ops.par_loop(extremes, blk, r, b(ops.READ), *reds, backend="vec")
            else:
                ops.par_loop(summing, blk, r, b(ops.READ), reds[0], backend="vec")
            ops.par_loop(square, blk, r, b(ops.READ), c(ops.WRITE), backend="vec")
            return reds

        for kind, groups in ((("min", "max"), 1), (("inc", "inc"), 0)):
            ref = setup()
            ref_reds = []
            run(lambda: ref_reds.extend(chain(*ref, kind)))
            fused = setup()
            reds = []
            cnt = run(lambda: reds.extend(chain(*fused, kind)), lazy_tile=(8, 8))
            assert [x.value for x in reds] == [x.value for x in ref_reds], kind
            np.testing.assert_array_equal(fused[3].interior, ref[3].interior)
            assert cnt.lazy_groups == groups, kind

    def test_differing_ranges_covered_exactly(self):
        blk, a, b, c = setup()
        cnt = run(
            lambda: (
                ops.par_loop(axpy, blk, [(2, 18), (0, 16)], a(ops.READ), b(ops.WRITE),
                             backend="vec"),
                ops.par_loop(square, blk, [(4, 10), (3, 9)], b(ops.READ), c(ops.WRITE),
                             backend="vec"),
            ),
            lazy_tile=(6, 6),
        )
        # outside loop-2's range c stays zero; inside it matches
        expect = (2 * a.interior + 1) ** 2
        np.testing.assert_array_equal(c.interior[4:10, 3:9], expect[4:10, 3:9])
        assert c.interior[0:4, :].sum() == 0.0
        assert cnt.lazy_groups == 1

    @given(tx=st.integers(2, 12), ty=st.integers(2, 12), seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_property_fused_equals_eager(self, tx, ty, seed):
        r = [(0, 20), (0, 16)]
        r_in = [(1, 19), (1, 15)]

        def chain(blk, a, b, c):
            ops.par_loop(axpy, blk, r, a(ops.READ), b(ops.WRITE), backend="vec")
            ops.par_loop(smooth, blk, r_in, b(ops.READ, ops.S2D_5PT), c(ops.WRITE),
                         backend="vec")
            ops.par_loop(square, blk, r, c(ops.READ), b(ops.WRITE), backend="vec")

        ref = setup(seed=seed)
        run(lambda: chain(*ref))
        fused = setup(seed=seed)
        run(lambda: chain(*fused), lazy_tile=(tx, ty))
        np.testing.assert_array_equal(fused[2].interior, ref[2].interior)
        np.testing.assert_array_equal(fused[3].interior, ref[3].interior)


class TestAPI:
    def test_single_block_only(self):
        """A fused group never spans two blocks: the other block's loop runs
        whole, after the first block's group."""
        blk, a, b, c = setup()
        other = ops.Block(2)
        d = ops.Dat(other, (4, 4), initial=1.0)
        r = [(0, 20), (0, 16)]
        cnt = run(
            lambda: (
                ops.par_loop(axpy, blk, r, a(ops.READ), b(ops.WRITE), backend="vec"),
                ops.par_loop(square, blk, r, b(ops.READ), c(ops.WRITE), backend="vec"),
                ops.par_loop(axpy, other, [(0, 4), (0, 4)], d(ops.READ), d(ops.RW),
                             backend="vec"),
            ),
            lazy_tile=(8, 8),
        )
        assert cnt.lazy_groups == 1
        np.testing.assert_array_equal(c.interior, (2 * a.interior + 1) ** 2)
        np.testing.assert_array_equal(d.interior, np.full((4, 4), 3.0))

    def test_queue_cleared_after_execute(self):
        blk, a, b, c = setup()
        with ops.lazy_scope():
            ops.par_loop(axpy, blk, [(0, 4), (0, 4)], a(ops.READ), b(ops.WRITE),
                         backend="vec")
            assert ops.queued_loops() == 1
        assert ops.queued_loops() == 0
        assert lazy_mod.ACTIVE == 0

    def test_no_tile_shape_runs_eagerly(self):
        """Outside a lazy scope nothing queues: each loop runs at its call."""
        blk, a, b, c = setup()
        with swap(lazy=False):
            cnt = run(lambda: ops.par_loop(axpy, blk, [(0, 20), (0, 16)], a(ops.READ),
                                           b(ops.WRITE), backend="vec"))
        assert cnt.lazy_flushes == 0
        np.testing.assert_array_equal(b.interior, 2 * a.interior + 1)
