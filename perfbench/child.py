"""One fresh benchmark process: prime, oracle, measure or trace one workload.

Run by ``perfbench/run.py`` from the repository root with ``PYTHONPATH=src``
and the workload's environment (see ``workloads.configure_env``); prints one
JSON object as its last line of output.

Modes:

* ``prime``   -- run a few steps so every native kernel is compiled into the
  benchmark's ``.so`` cache and every module's bytecode is written; reports
  the compiler invocations and the seconds spent loading/compiling.  A
  multi-rank workload first runs the same mesh on one rank, so every kernel
  is compiled once, in this process, before the ranks fork.
* ``oracle``  -- run the oracle configuration for the same step count as a
  measurement process and report the bitwise digest of the final fields
  (plus the digest of a copy with one field perturbed by one ulp, which the
  orchestrator's failure accounting must reject).
* ``measure`` -- time every step, each paired with the reference routine.
* ``trace``   -- the same, with the per-layer ledger installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import numpy as np

from refroutine import REF_NOMINAL_MS, Reference

PRIME_STEPS = 3

#: PerfCounters fields whose per-run deltas the benchmark reports
COUNT_FIELDS = (
    "plan_hits", "plan_misses", "plan_evictions", "native_calls",
    "native_fallbacks", "native_compiles", "native_cache_misses",
    "lazy_flushes", "lazy_groups", "lazy_tiles", "lazy_bytes_saved",
    "chain_hits", "chain_misses", "messages_sent", "bytes_sent",
    "halo_exchanges",
)


def _counts(counters) -> dict:
    return {f: getattr(counters, f) for f in COUNT_FIELDS}


def _plan_stats() -> dict:
    from repro import op2, ops

    return {"ops": ops.plan_cache_stats(), "op2": op2.plan_cache_stats()}


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for k, v in after.items():
        out[k] = _delta(v, before[k]) if isinstance(v, dict) else v - before[k]
    return out


def make_body(nsteps: int, warmup: int, ref: Reference | None, ledger):
    """The per-rank timed loop: step 1 ends set-up, then warm-up, then samples.

    ``sync`` (multi-rank runs) is called before every step after the first,
    outside the timed window.
    """

    def body(step, sync=None) -> dict:
        from repro.common.profiling import active_counters

        out: dict = {"first_end": None, "samples": []}
        step()
        out["first_end"] = time.perf_counter()
        if ref is not None:
            out["ref_after"] = ref.timed()
        if ledger is not None:
            out["setup_ledger"] = ledger.snapshot()
        for _ in range(warmup):
            if sync is not None:
                sync()
            step()
            if ref is not None:
                ref.timed()
        gc.collect()
        counters = active_counters()
        c0, p0 = _counts(counters), _plan_stats()
        if ledger is not None:
            ledger.reset()
        walls = []
        samples = out["samples"]
        # each step is scaled by the mean of the reference runs just before
        # and just after it: its own paired run and the previous step's
        before = ref.timed() if ref is not None else 0.0
        for _ in range(nsteps):
            if sync is not None:
                sync()
            t0 = time.perf_counter()
            step()
            wall = time.perf_counter() - t0
            after = ref.timed() if ref is not None else 0.0
            walls.append(wall)
            samples.append((wall * 1e3, 0.5 * (before + after)))
            before = after
        out["counts"] = _delta(_counts(active_counters()), c0)
        out["plans"] = _delta(_plan_stats(), p0)
        if ledger is not None:
            out["ledger"] = ledger.snapshot()
            out["wall_s"] = sum(walls)
        return out

    return body


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--workload", required=True)
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--mode", choices=("prime", "oracle", "measure", "trace"), required=True)
    args = cli.parse_args()

    ref = Reference()
    for _ in range(3):
        ref.timed()
    ref_before = statistics.median(ref.timed() for _ in range(5))

    t0 = time.perf_counter()
    # -- set-up clock runs from here: imports, build, first step -----------------
    import workloads
    from repro.common.profiling import global_counters

    ledger = None
    if args.mode in ("trace", "prime"):
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    spec = workloads.SPECS[args.workload]
    run = workloads.build(args.workload, args.seed)
    if args.mode == "prime":
        # no ledger in the body: it would reset the ledger, and the load
        # seconds are read from this process's ledger afterwards
        body = make_body(PRIME_STEPS - 1, 0, None, None)
        if spec.ranks > 1:
            # forked ranks would race to compile the same kernels, each
            # counting its own compile: compile them here, in one process
            workloads.AirfoilRun(args.seed, 1).execute(body)
        serial_compiles = global_counters().native_compiles
    elif args.mode == "oracle":
        body = make_body(workloads.TIMED, workloads.WARMUP, None, None)
    else:
        body = make_body(workloads.TIMED, workloads.WARMUP, ref, ledger)
    executor = "inproc" if args.mode == "oracle" else "mp"
    results, fields = run.execute(body, executor=executor)
    r0 = results[0]
    total = _counts(global_counters())

    out: dict = {"mode": args.mode, "counts_total": total}
    if args.mode == "prime":
        if spec.ranks > 1 and total["native_compiles"] != serial_compiles:
            print("worker ranks compiled kernels the serial pass did not", file=sys.stderr)
            return 1
        out["compiles"] = total["native_compiles"]
        out["load_s"] = ledger.self_s["native.load"]
    elif args.mode == "oracle":
        out["digest"] = workloads.digest(fields)
        name = sorted(fields)[0]
        bad = dict(fields)
        bad[name] = fields[name].copy()
        flat = bad[name].reshape(-1)
        flat[0] = np.nextafter(flat[0], np.inf)
        out["perturbed_digest"] = workloads.digest(bad)
    else:
        ref_after = r0["ref_after"]
        ref_setup = 0.5 * (ref_before + ref_after)
        raw_setup = r0["first_end"] - t0
        # a step of a multi-rank run spans every rank's core: scale rank 0's
        # step time by the mean of all ranks' paired reference times
        refs = zip(*([r_ms for _, r_ms in r["samples"]] for r in results))
        samples = [(step, statistics.fmean(rs)) for (step, _), rs in zip(r0["samples"], refs)]
        out.update(
            digest=workloads.digest(fields),
            setup_s=raw_setup * REF_NOMINAL_MS / ref_setup,
            samples=samples,
            counts=r0["counts"],
            plans=r0["plans"],
            peak_rss_mb=max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            ) / 1024.0,
        )
        if "spawn_s" in r0:
            out["spawn_s"] = r0["spawn_s"]
        if ledger is not None:
            out["ledger"] = r0["ledger"]
            out["setup_ledger"] = r0["setup_ledger"]
            out["wall_s"] = r0["wall_s"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
