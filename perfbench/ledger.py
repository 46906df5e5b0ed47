"""Per-layer ledger, timed from outside the library.

The traced run replaces each layer's public entry points, at the attribute
its callers look them up through, with a timing wrapper.  Spans nest: a
wrapper's self time is its duration minus the durations of the wrapped calls
it made, so the self times of all layers plus the untraced remainder add up
to the traced step's wall time.  Nothing under ``src/`` changes.

Exact counts (plan hits, native calls, lazy tiles, messages, ...) are read
from the library's own ``PerfCounters`` and plan-cache statistics, not from
the wrappers.
"""

from __future__ import annotations

import importlib
from time import perf_counter

#: (module, class or None, attribute, layer).  Several entry points may
#: feed one layer; calls are counted per layer.
TARGETS = [
    ("repro.ops", None, "par_loop", "ops.par_loop"),
    ("repro.ops.dat", "Dat", "__call__", "ops.dat_arg"),
    ("repro.ops.execplan", None, "lookup", "ops.execplan.lookup"),
    ("repro.ops.execplan", "CompiledOpsLoop", "__init__", "ops.execplan.build"),
    ("repro.ops.execplan", "CompiledOpsLoop", "execute", "ops.execplan.execute"),
    ("repro.ops.lazy", None, "enqueue", "ops.lazy.enqueue"),
    ("repro.ops.lazy", None, "flush", "ops.lazy.flush"),
    ("repro.ops.lazy", None, "flush_point", "ops.lazy.flush"),
    ("repro.ops.lazy", None, "build_tile_schedule", "ops.tileplan.schedule"),
    ("repro.native.plan", None, "try_compile_ops", "native.admit"),
    ("repro.native.plan", None, "try_compile_op2", "native.admit"),
    ("repro.native.plan", "NativeOpsLoop", "execute", "native.kernel"),
    ("repro.native.plan", "NativeOp2Loop", "execute", "native.kernel"),
    ("repro.native.cache", None, "load_kernel", "native.load"),
    ("repro.lint.abstract", None, "certify_callable", "lint.certify"),
    ("repro.native.plan", None, "certify_callable", "lint.certify"),
    ("repro.apps.cloverleaf.app", None, "apply_reflective_bcs", "apps.bcs"),
    ("repro.op2", None, "par_loop", "op2.par_loop"),
    ("repro.op2.dat", "Dat", "__call__", "op2.dat_arg"),
    ("repro.op2.halo", None, "par_loop", "op2.par_loop"),
    ("repro.op2.execplan", None, "lookup", "op2.execplan.lookup"),
    ("repro.op2.execplan", "CompiledLoop", "__init__", "op2.execplan.build"),
    ("repro.op2.execplan", "CompiledLoop", "execute", "op2.execplan.execute"),
    ("repro.op2.halo", "RankMesh", "par_loop", "op2.halo.par_loop"),
    ("repro.op2.halo", "RankMesh", "halo_exchange", "op2.halo.exchange"),
    ("repro.op2.halo", "RankMesh", "reverse_halo_exchange", "op2.halo.exchange"),
    ("repro.simmpi.comm", "SimComm", "send", "simmpi.p2p"),
    ("repro.simmpi.comm", "SimComm", "recv", "simmpi.p2p"),
    ("repro.simmpi.comm", "SimComm", "allreduce", "simmpi.allreduce"),
    ("repro.mp.transport", "ProcessTransport", "deliver", "mp.transport.deliver"),
    ("repro.mp.transport", "ProcessTransport", "collect", "mp.transport.wait"),
]

LAYERS = sorted({t[3] for t in TARGETS})


class Ledger:
    """Self time and call counts per layer, over nested wrapped calls."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: one accumulator per open span for its children's time; the
        #: bottom slot collects top-level spans (the attributed step time)
        self._stack = [0.0]

    def reset(self) -> None:
        for k in LAYERS:
            self.self_s[k] = 0.0
            self.calls[k] = 0
        self._stack = [0.0]

    @property
    def attributed_s(self) -> float:
        """Total duration of top-level spans since the last reset."""
        return self._stack[0]

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "attributed_s": self.attributed_s}

    def _wrap(self, fn, layer: str):
        self_s, calls = self.self_s, self.calls
        ledger = self

        def timed(*args, **kwargs):
            stack = ledger._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                self_s[layer] += dt - children
                calls[layer] += 1
                stack[-1] += dt

        return timed

    def install(self) -> None:
        """Wrap every target in place (call once, after ``import repro``)."""
        for modname, clsname, attr, layer in TARGETS:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname)
            setattr(owner, attr, self._wrap(getattr(owner, attr), layer))
