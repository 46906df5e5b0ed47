"""Compiled structured-loop executors: the ops hot path, specialised per site.

The structured-mesh analogue of :mod:`repro.op2.execplan` (paper Sections
II-C and VI): everything a loop re-derives per call from its declared
stencils and ranges — range validation, shifted region views, the tile
decomposition, the loop event, traffic accounting — is computed on the
first execution and replayed afterwards.

A :class:`CompiledOpsLoop` holds:

* the validated argument list and the prebuilt loop event,
* one :class:`FastAccessor` per dat argument (per tile on the ``tiled``
  backend): the shifted storage views for every declared stencil offset,
  computed once — the interpreted :class:`~repro.ops.accessor.RangeAccessor`
  re-slices on every ``u[off]`` of every invocation,
* the tile list for ``tiled`` sweeps,
* the loop's exact traffic/flop accounting as precomputed constants.

Reduction handles are *slots*, not captures: apps routinely build a fresh
:class:`~repro.ops.reduction.Reduction` per invocation, so plans key on the
slot's access mode and rebind the caller's handle (accessor position and
event ``data_ref``) on every call.

Plans live in a bounded :class:`~repro.common.plancache.PlanCache` keyed by
stable monotonic tokens, sharing its capacity with the op2 registry.
Because the cached views alias a dat's storage array, entries guard on the
identity of every ``dat.data`` and are invalidated when storage is
replaced.  ``seq`` stays the untouched interpreted reference, and stencil
checking / descriptor verification always bypass the compiled path.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.common.counters import LoopRecord, PerfCounters, Timer
from repro.common.profiling import (
    LoopEvent,
    active_counters,
    notify_loop,
    observers_active,
)
from repro.common.plancache import PlanCache, set_plan_cache_capacity
from repro.common.tokens import kernel_token
from repro.telemetry import tracer as _trace
from repro.ops.block import Block
from repro.ops.dat import Dat
from repro.ops.reduction import Reduction
from repro.ops.tileplan import tiled_ranges

__all__ = [
    "CompiledOpsLoop",
    "FastAccessor",
    "lookup",
    "clear_plan_cache",
    "plan_cache_stats",
    "set_plan_cache_capacity",
]

#: backends the compiled path covers; ``seq`` deliberately stays the
#: untouched interpreted semantic baseline
FAST_BACKENDS = frozenset({"vec", "tiled"})


class FastAccessor:
    """Array accessor with the shifted views cached per stencil offset.

    Semantically identical to an unchecked
    :class:`~repro.ops.accessor.RangeAccessor` — it hands the kernel the
    very same ``dat.region(ranges, off)`` views — but the slicing happens
    once at compile time.  Offsets outside the declared stencil (legal when
    checking is off, which is the only time this accessor runs) are sliced
    lazily and cached too.
    """

    __slots__ = ("dat", "ranges", "_views")

    def __init__(self, dat: Dat, ranges: list[tuple[int, int]], points: Sequence[tuple]):
        self.dat = dat
        self.ranges = ranges
        self._views: dict = {}
        for p in points:
            view = dat.region(ranges, p)
            self._views[p] = view
            if len(p) == 1:
                # 1-D kernels index with a bare int: u[1], not u[(1,)]
                self._views[p[0]] = view

    def _view(self, offset):
        view = self._views.get(offset)
        if view is None:
            off = offset if isinstance(offset, tuple) else (int(offset),)
            view = self.dat.region(self.ranges, tuple(int(o) for o in off))
            self._views[offset] = view
        return view

    def __getitem__(self, offset):
        return self._view(offset)

    def __setitem__(self, offset, value) -> None:
        self._view(offset)[...] = value


class CompiledOpsLoop:
    """Everything re-derivable from one structured loop site, computed once."""

    def __init__(
        self,
        kernel: Callable,
        block: Block,
        ranges: list[tuple[int, int]],
        args: Sequence,
        backend: str,
        loop_name: str,
        flops_per_point: int,
        tile_shape: tuple[int, ...] | None,
    ):
        from repro.ops import parloop as _parloop  # deferred: parloop imports us

        # (a) full validation, exactly as the interpreted path performs it
        _parloop._validate(block, ranges, args, loop_name)

        self.kernel = kernel
        self.name = loop_name
        self.args = list(args)  # strong refs keep dats alive while cached

        # (b) the prebuilt event, reduction slots, written-dat list
        self.event: LoopEvent = _parloop._event_for(loop_name, args)
        # span attributes are part of the plan too: formatting descriptors
        # per call would dominate a traced fast path
        self.trace_attrs = {
            "kernel": loop_name,
            "block": block.name,
            "backend": backend,
            "n": _parloop._npoints(ranges),
            "descriptors": _parloop.describe_args(args),
            "compiled": True,
        }
        self.red_slots = [i for i, a in enumerate(args) if isinstance(a, Reduction)]
        self.written_dats = []
        for a in args:
            if isinstance(a, Reduction) or not a.access.writes:
                continue
            if not any(d is a.dat for d in self.written_dats):
                self.written_dats.append(a.dat)

        # (c) tile decomposition and per-tile cached-view accessors
        if backend == "tiled":
            tile_list = tiled_ranges(ranges, tile_shape)
            self.tiles = len(tile_list)
        else:
            tile_list = [ranges]
            self.tiles = 1
        self.tile_accessors: list[list] = []
        for tile in tile_list:
            accs: list = []
            for a in args:
                if isinstance(a, Reduction):
                    accs.append(None)  # slot rebound with the caller's handle
                else:
                    accs.append(FastAccessor(a.dat, tile, tuple(a.stencil.points)))
            self.tile_accessors.append(accs)

        # (d) accounting constants: the interpreted path's exact counter
        # arithmetic, run once against a scratch register
        scratch = PerfCounters()
        _parloop._account(loop_name, ranges, args, scratch, flops_per_point, self.tiles)
        self.acct: LoopRecord = scratch.loops[loop_name]

        # guards: the cached views alias each dat's storage array, so the
        # plan is only valid while every ``dat.data`` is the same ndarray
        guards: dict[int, tuple] = {}
        for a in args:
            if not isinstance(a, Reduction):
                guards[a.dat.token] = (a.dat, a.dat.data)
        self._guards = list(guards.values())

        # (e) native tier: one compiled C kernel per tile, admission-gated.
        # The identity guards above already pin every baked storage address,
        # so a native plan needs no extra invalidation machinery here.
        from repro.native import plan as _native  # deferred: optional tier

        natives: list | None = []
        for tile in tile_list:
            nat = _native.try_compile_ops(kernel, tile, args, loop_name)
            if nat is None:
                natives = None
                break
            natives.append(nat)
        self.natives = natives
        if natives:
            self.trace_attrs["native"] = True

    def still_valid(self) -> bool:
        """True while every dat still owns the storage the views were cut from."""
        for dat, data in self._guards:
            if dat.data is not data:
                return False
        return True

    def execute(self, args: Sequence) -> None:
        """Replay the plan with this call's reduction handles bound in."""
        if observers_active():
            event = self.event
            for i in self.red_slots:
                red = args[i]
                ev = event.args[i]
                ev.name = red.name
                ev.data_ref = red
            event.skip = False
            notify_loop(event)
            if event.skip:
                # recovery fast-forward: same contract as the interpreted path
                for dat in self.written_dats:
                    dat.halo_dirty = True
                return

        counters = active_counters()
        rec = counters.loop(self.name)
        kernel = self.kernel
        red_slots = self.red_slots
        trc = _trace.ACTIVE
        span = trc.begin("par_loop", "ops", **self.trace_attrs) if trc is not None else None
        try:
            with Timer(rec):
                if self.natives:
                    counters.record_native_call()
                    for nat in self.natives:
                        nat.execute(args)
                else:
                    for accs in self.tile_accessors:
                        for i in red_slots:
                            accs[i] = args[i]
                        kernel(*accs)
        finally:
            if span is not None:
                trc.end(span)
        rec.merge(self.acct)

        for dat in self.written_dats:
            dat.halo_dirty = True


# -- registry -----------------------------------------------------------------

_plans = PlanCache(
    "plan", "plan", "execplan_cache_size",
    lambda c: {"kernel": c.name, "backend": c.trace_attrs["backend"]},
)


def _signature(
    kernel: Callable,
    block: Block,
    ranges: list[tuple[int, int]],
    args: Sequence,
    backend: str,
    loop_name: str,
    flops_per_point: int,
    tile_shape: tuple[int, ...] | None,
) -> tuple:
    parts: list = [
        kernel_token(kernel),
        block.token,
        tuple(ranges),
        backend,
        loop_name,
        flops_per_point,
        tile_shape,
    ]
    for a in args:
        if isinstance(a, Reduction):
            # reductions are rebindable slots: any handle with this access
            # mode replays the same plan
            parts.append(("r", a.access))
        else:
            parts.append(("d", a.dat.token, a.access, tuple(a.stencil.points)))
    return tuple(parts)


def lookup(
    kernel: Callable,
    block: Block,
    ranges: list[tuple[int, int]],
    args: Sequence,
    backend: str,
    loop_name: str,
    flops_per_point: int,
    tile_shape: tuple[int, ...] | None,
) -> CompiledOpsLoop | None:
    """Fetch (or compile) the plan for this loop site; None -> slow path.

    Returns None only when a signature cannot even be formed (malformed
    arguments) so the interpreted path can raise its usual diagnostics.
    Compilation itself runs the full interpreted-path validation and lets
    any :class:`~repro.common.errors.APIError` propagate.
    """
    from repro.lint.abstract import certify_callable

    if certify_callable(kernel).rng:
        # the kernel draws random numbers: its output is not a pure
        # function of the signature, so a replayed plan is not a replay
        return None

    try:
        key = _signature(kernel, block, ranges, args, backend, loop_name, flops_per_point, tile_shape)
    except (AttributeError, TypeError):
        return None

    # compiled outside the cache lock: slicing every tile's views can be
    # expensive and simulated MPI ranks compile distinct per-rank signatures
    # concurrently
    return _plans.get(
        key, CompiledOpsLoop,
        kernel, block, ranges, args, backend, loop_name, flops_per_point, tile_shape,
    )


def clear_plan_cache() -> None:
    """Drop every compiled structured loop (tests / reconfiguration)."""
    _plans.clear()


def plan_cache_stats() -> dict[str, int]:
    """Process-lifetime registry statistics (tests and diagnostics)."""
    return _plans.stats()
