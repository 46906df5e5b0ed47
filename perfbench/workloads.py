"""The four proxy-app workloads, built from a seed.

Each workload is a closed loop: the benchmark issues the next timestep when
the previous one returns.  A timestep is one CloverLeaf ``step()`` or one
Airfoil outer iteration (on ``airfoil-mp2``, rank 0's iteration).

Why these four (the layers each one keeps busy, and its idle counterpart):

* ``clover-eager`` -- CloverLeaf 2D clover_bm at 128x128 (~3.4 MB of
  fields, above a 2 MB L2), eager, default tiers.  26 dispatch-heavy
  ``ops.par_loop`` calls a step; the five dt-baking loops rebuild their
  plan and re-admit native on every step.  Busy: ops front end,
  ``ops.execplan``, ``native``.  Idle: op2, lazy, comms.
* ``clover-lazy`` -- the same state under ``REPRO_LAZY=1``.  Busy:
  ``ops.lazy``, ``ops.tileplan``.  Same mesh as ``clover-eager``, so the
  lazy/eager ratio reads straight off two rows.
* ``airfoil`` -- OP2 Airfoil, 200x120 cells, node jitter 0.2 seeded by the
  benchmark seed, 1 rank.  Busy: op2, ``op2.execplan``, native.  Idle: every
  ops layer -- the counterpart that must not move under ops changes.
* ``airfoil-mp2`` -- the same mesh block-partitioned onto 2 ``repro.mp``
  worker processes.  Busy: ``simmpi``, ``mp``, ``op2.halo``.

The oracle configuration of every workload is eager, ``native=False`` and
the in-process executor at the same rank count; :func:`configure_env`
selects it through the environment, before ``repro`` is imported.

``repro`` is imported inside the constructors, so the orchestrator can read
the specs without it and a measurement process imports it only after its
set-up clock has started.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spec:
    kind: str  # "clover" | "airfoil"
    lazy: bool
    ranks: int
    cells: int


#: steps after the first, excluded from the samples
WARMUP = 4
#: sampled steps per measurement process: 200, so each process's p95 has 10
#: samples beyond it
TIMED = 200

CLOVER_N = 128
AIRFOIL_NX, AIRFOIL_NY, AIRFOIL_JITTER = 200, 120, 0.2

SPECS = {
    "clover-eager": Spec("clover", False, 1, CLOVER_N * CLOVER_N),
    "clover-lazy": Spec("clover", True, 1, CLOVER_N * CLOVER_N),
    "airfoil": Spec("airfoil", False, 1, AIRFOIL_NX * AIRFOIL_NY),
    "airfoil-mp2": Spec("airfoil", False, 2, AIRFOIL_NX * AIRFOIL_NY),
}


def configure_env(env: dict, name: str, *, oracle: bool, cache_dir: str) -> dict:
    """The child environment for one workload run (returns a new dict)."""
    spec = SPECS[name]
    out = dict(env)
    out["REPRO_LAZY"] = "1" if (spec.lazy and not oracle) else "0"
    out["REPRO_NATIVE"] = "0" if oracle else "1"
    out["REPRO_NATIVE_CACHE_DIR"] = cache_dir
    return out


def digest(fields: dict) -> str:
    """Bitwise digest of named arrays (name, dtype, shape and bytes)."""
    h = hashlib.sha256()
    for key in sorted(fields):
        arr = np.ascontiguousarray(fields[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class CloverRun:
    def __init__(self, seed: int):
        from repro.apps.cloverleaf import CloverLeafApp
        from repro.apps.cloverleaf.state import clover_bm_state

        st = clover_bm_state(CLOVER_N, CLOVER_N)
        rng = np.random.default_rng(seed)
        # a seeded 0.1% energy perturbation: distinct inputs per seed, same
        # physics regime and the same loop sequence on every seed
        st.energy0.interior[...] *= 1.0 + 1e-3 * rng.random(st.energy0.interior.shape)
        self.app = CloverLeafApp(st)

    def execute(self, body, *, executor: str = "inproc"):
        """``body(step)`` in this process; returns ([its result], fields)."""
        result = body(self.app.step)
        st = self.app.st
        fields = {d.name: d.interior.copy() for d in st.all_dats}
        fields["dt"] = np.asarray([self.app.dt])
        return [result], fields


class AirfoilRun:
    def __init__(self, seed: int, ranks: int):
        from repro.apps.airfoil import AirfoilApp, generate_mesh

        self.mesh = generate_mesh(AIRFOIL_NX, AIRFOIL_NY, jitter=AIRFOIL_JITTER, seed=seed)
        self.app = AirfoilApp(self.mesh)
        self.ranks = ranks
        self.pm = self.app.build_partitioned(ranks, "block") if ranks > 1 else None

    def execute(self, body, *, executor: str = "mp"):
        """Run ``body(step)`` on every rank; returns (per-rank results, fields)."""
        app, mesh = self.app, self.mesh
        if self.pm is None:
            result = body(app.iteration)
            fields = {
                "q": mesh.q.data.copy(),
                "qold": mesh.qold.data.copy(),
                "adt": mesh.adt.data.copy(),
                "res": mesh.res.data.copy(),
                "rms": app.rms.data.copy(),
            }
            return [result], fields

        pm = self.pm
        # ranks start every step together, so rank 0's step time is not
        # lengthened by rank 1 finishing its paired reference run late
        if executor == "mp":
            start_together = multiprocessing.get_context("fork").Barrier(self.ranks)
        else:
            start_together = threading.Barrier(self.ranks)
        cpus = sorted(os.sched_getaffinity(0))
        t_spawn = time.perf_counter()

        def rank_main(comm):
            entered = time.perf_counter()
            if executor == "mp":
                # one core per worker, as MPI launchers bind ranks: a worker
                # that migrates onto its peer's core stalls both
                os.sched_setaffinity(0, {cpus[comm.rank % len(cpus)]})
            rms = [0.0]

            def step():
                rms[0] = app.run_distributed(comm, pm, 1)

            result = body(step, start_together.wait)
            result["spawn_s"] = entered - t_spawn
            q = pm.local(comm.rank).gather_dat(comm, mesh.q)
            return result, (q, rms[0]) if comm.rank == 0 else None

        from repro.mp import run_spmd_mp
        from repro.simmpi import run_spmd

        spmd = run_spmd_mp if executor == "mp" else run_spmd
        out = spmd(self.ranks, rank_main)
        q, rms = out[0][1]
        return [r for r, _ in out], {"q": q, "rms": np.asarray([rms])}


def build(name: str, seed: int):
    spec = SPECS[name]
    if spec.kind == "clover":
        return CloverRun(seed)
    return AirfoilRun(seed, spec.ranks)
