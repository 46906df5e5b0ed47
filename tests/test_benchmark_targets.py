"""The benchmark's hooks into the library still resolve.

``perfbench/ledger.py`` times layers by replacing entry points at the
attributes their callers look them up through, and ``perfbench/child.py``
reads named ``PerfCounters`` fields.  A refactor that moves or renames one
of them would otherwise only show up as a silently empty ledger row.  Both
files are read as source (``ast``), never imported or written.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from repro import ops
from repro.common.counters import PerfCounters

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(filename: str, name: str):
    """The literal value assigned to module-level ``name`` in a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


@pytest.mark.parametrize("target", _literal("ledger.py", "TARGETS"),
                         ids=lambda t: ".".join(p for p in t[:3] if p))
def test_ledger_target_resolves(target):
    modname, clsname, attr, _layer = target
    owner = importlib.import_module(modname)
    if clsname is not None:
        owner = getattr(owner, clsname)
    assert callable(getattr(owner, attr))


def test_count_fields_are_perf_counters():
    counters = PerfCounters()
    missing = [f for f in _literal("child.py", "COUNT_FIELDS") if not hasattr(counters, f)]
    assert missing == []


def test_lazy_flush_calls_schedule_builder_through_module_global(monkeypatch):
    """The ledger wraps ``repro.ops.lazy.build_tile_schedule``; a flush must
    look it up there at call time, or the tileplan layer reads zero."""
    from repro.ops import lazy as lazy_mod

    calls = []
    real = lazy_mod.build_tile_schedule

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lazy_mod, "build_tile_schedule", counting)
    lazy_mod.clear_chain_cache()
    blk = ops.Block(2)
    u = ops.Dat(blk, (16, 16), halo_depth=1, name="u")
    v = ops.Dat(blk, (16, 16), halo_depth=1, name="v")
    u.interior[...] = np.arange(256.0).reshape(16, 16)

    def copy(a, b):
        b[0, 0] = a[0, 0]

    with ops.lazy_scope():
        ops.par_loop(copy, blk, [(0, 16), (0, 16)], u(ops.READ), v(ops.WRITE),
                     backend="vec")
        ops.par_loop(copy, blk, [(0, 16), (0, 16)], v(ops.READ), u(ops.WRITE),
                     backend="vec")
    lazy_mod.clear_chain_cache()
    assert calls == [1]
