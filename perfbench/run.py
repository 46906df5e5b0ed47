"""Host-normalised proxy-app benchmark: one workload, one invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload clover-eager --seed 1 --seconds 10 --trace 0

Workloads: clover-eager, clover-lazy, airfoil, airfoil-mp2 (see
``perfbench/workloads.py`` for why each one exists).

One invocation:

1. checks that the reference routine imports nothing from ``repro``;
2. primes the benchmark's own native ``.so`` cache, emptied first, and its
   bytecode cache under ``.bench_build/perfbench`` (records the compiler
   invocations and seconds of this cold pass);
3. runs the workload's oracle configuration (eager, ``native=False``,
   in-process executor) in a fresh process and keeps its bitwise digest,
   and checks that a digest with one field perturbed by one ulp is counted
   as a failure;
4. with ``--trace 0``, runs fresh measurement processes until ``--seconds``
   have passed (at least two); with ``--trace 1``, one untraced and two
   traced processes on the same seed.

Every measured step is followed by the reference routine and reported in
milliseconds at reference speed (``REF_NOMINAL_MS / reference_ms``, the
reference runs just before and just after the step averaged).  A
process whose final fields differ from the oracle's, that raises, or that
ran the C compiler, counts its steps as failed and its timings are dropped.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (timesteps) and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (``step_ms_p50``, ``step_ms_p95``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` the per-layer ledger.  Exit code 2 without
a result when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (repro-free: specs and digests only)
from refroutine import REF_NOMINAL_MS  # noqa: E402

MIN_PROCESSES = 2
PRIME_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 60
#: the only modules the reference routine may import
REF_ALLOWED_IMPORTS = {"__future__", "time", "numpy"}

CLOVER = ("clover-eager", "clover-lazy")
AIRFOIL = ("airfoil", "airfoil-mp2")
ALL = CLOVER + AIRFOIL

#: ledger layer -> (workloads that must record calls, workloads that must
#: record none).  Busy layers may be called only during set-up (a schedule
#: built once, then served from cache); idle layers must record no call in
#: the timed steps (set-up may pass through no-op hooks such as the lazy
#: flush point ``run_spmd_mp`` calls before forking)
COVERAGE = {
    "ops.par_loop": (CLOVER, AIRFOIL),
    "ops.dat_arg": (CLOVER, AIRFOIL),
    "ops.execplan.lookup": (CLOVER, AIRFOIL),
    "ops.execplan.build": (CLOVER, AIRFOIL),
    "ops.execplan.execute": (CLOVER, AIRFOIL),
    "ops.lazy.enqueue": (("clover-lazy",), ("clover-eager",) + AIRFOIL),
    "ops.lazy.flush": (("clover-lazy",), ("clover-eager",) + AIRFOIL),
    "ops.tileplan.schedule": (("clover-lazy",), ("clover-eager",) + AIRFOIL),
    "apps.bcs": (CLOVER, AIRFOIL),
    "native.admit": (ALL, ()),
    "native.kernel": (ALL, ()),
    "native.load": (ALL, ()),
    "lint.certify": (ALL, ()),
    "op2.par_loop": (AIRFOIL, CLOVER),
    "op2.dat_arg": (AIRFOIL, CLOVER),
    "op2.execplan.lookup": (AIRFOIL, CLOVER),
    "op2.execplan.build": (AIRFOIL, CLOVER),
    "op2.execplan.execute": (AIRFOIL, CLOVER),
    "op2.halo.par_loop": (("airfoil-mp2",), CLOVER + ("airfoil",)),
    "op2.halo.exchange": (("airfoil-mp2",), CLOVER + ("airfoil",)),
    "simmpi.p2p": (("airfoil-mp2",), CLOVER + ("airfoil",)),
    "simmpi.allreduce": (("airfoil-mp2",), CLOVER + ("airfoil",)),
    "mp.transport.deliver": (("airfoil-mp2",), CLOVER + ("airfoil",)),
    "mp.transport.wait": (("airfoil-mp2",), CLOVER + ("airfoil",)),
}

#: layers whose calls need native code; with no compiler they stay at zero
NATIVE_LAYERS = ("native.kernel", "native.load")

#: per-step counts that two traced runs on one seed must reproduce exactly
REPEATABLE_COUNTS = (
    "plan_hits", "plan_misses", "plan_evictions", "native_calls",
    "native_fallbacks", "lazy_flushes", "lazy_groups", "lazy_tiles",
    "messages_sent", "bytes_sent",
)


def log(msg: str) -> None:
    print(msg, flush=True)


def reference_imports_repro_free() -> list[str]:
    """Modules ``refroutine.py`` imports outside the allowed set."""
    tree = ast.parse((HERE / "refroutine.py").read_text())
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        bad += [n for n in names if n.split(".")[0] not in REF_ALLOWED_IMPORTS]
    return bad


def host_stamp() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # the compiler repro.native picks: REPRO_NATIVE_CC, else cc, gcc, clang
    chosen = os.environ.get("REPRO_NATIVE_CC")
    if chosen is None:
        chosen = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), "none")
    chosen = chosen.strip()
    cc = "none"
    if chosen.lower() not in ("", "none", "0"):
        try:
            cc = subprocess.run(
                [chosen, "--version"], capture_output=True, text=True, timeout=30
            ).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cc": cc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Runner:
    """Launches fresh child processes for one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        cache = ROOT / ".bench_build" / "perfbench"
        native = cache / "native"
        # priming starts cold on every invocation, so the compile figures
        # it records do not depend on earlier invocations
        shutil.rmtree(native, ignore_errors=True)
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(cache / "pycache")
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.env = env
        self.cache_dir = str(native)

    def run(self, mode: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
        """One child; returns its JSON result or ``{"error": ...}``."""
        env = workloads.configure_env(
            self.env, self.workload, oracle=(mode == "oracle"), cache_dir=self.cache_dir
        )
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode,
        ]
        # own process group: a hung child is killed with its mp workers
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"{mode} process timed out after {timeout} s"}
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return {"error": f"{mode} process exited {proc.returncode}: {tail[0]}"}
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"{mode} process printed no result"}


class Tally:
    """Failure accounting: every timestep of a measurement process is one
    attempted operation; a process that raised, whose final fields differ
    from the oracle's bitwise, or that ran the C compiler fails all of its
    steps and its timings are dropped."""

    def __init__(self, oracle_digest: str, steps_per_process: int):
        self.oracle_digest = oracle_digest
        self.steps = steps_per_process
        self.attempted = 0
        self.failed = 0
        self.passed: dict[str, list[dict]] = {"measure": [], "trace": []}

    def add(self, mode: str, result: dict) -> str | None:
        """Account one process; returns why it failed, or None."""
        self.attempted += self.steps
        why = self.verdict(result)
        if why is None:
            self.passed[mode].append(result)
        else:
            self.failed += self.steps
        return why

    def verdict(self, result: dict) -> str | None:
        if "error" in result:
            return result["error"]
        if result["digest"] != self.oracle_digest:
            return "final fields differ from the oracle"
        total = result["counts_total"]
        if total["native_compiles"] or total["native_cache_misses"]:
            return (
                f"ran the C compiler ({total['native_compiles']} compiles, "
                f"{total['native_cache_misses']} cache misses) despite priming"
            )
        return None


def perturbed_field_counted(oracle: dict, prime: dict, steps: int) -> bool:
    """Self-test: a result one ulp off in one field must count as failed."""
    tally = Tally(oracle["digest"], steps)
    tally.add("measure", {"digest": oracle["perturbed_digest"],
                          "counts_total": prime["counts_total"]})
    return tally.failed == tally.attempted == steps and not tally.passed["measure"]


def normalised(samples) -> list[float]:
    return [step * REF_NOMINAL_MS / ref for step, ref in samples]


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(results: list[dict], cells: int) -> dict:
    steps = [v for r in results for v in normalised(r["samples"])]
    p50 = statistics.median(steps)
    log(
        f"step p50 {p50:.4f} ms (at reference speed, {len(steps)} samples, "
        f"{len(results)} processes) = {cells / p50 / 1e3:.3f} Mcell-steps/s"
    )
    # p95 per process, then the median over processes: a burst of host
    # contention during one process moves that process's tail, not the run's
    tail = statistics.median(p95(normalised(r["samples"])) for r in results)
    return {
        "step_ms_p50": (p50, "ms"),
        "step_ms_p95": (tail, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }


def per_layer(untraced: dict, traced: list[dict], prime: dict) -> dict:
    n = sum(len(t["samples"]) for t in traced)

    def ms(layer):
        return sum(t["ledger"]["self_s"][layer] for t in traced) / n * 1e3

    def calls(layer):
        return sum(t["ledger"]["calls"][layer] for t in traced) / n

    def setup_ms(layer):
        return statistics.median(t["setup_ledger"]["self_s"][layer] for t in traced) * 1e3

    def count(field):
        return sum(t["counts"][field] for t in traced) / n

    def plans(dsl, key):
        return sum(t["plans"][dsl][key] for t in traced) / n

    def ratio(a, b):
        return a / (a + b) if a + b else 0.0

    wall = sum(t["wall_s"] for t in traced) / n * 1e3
    remainder = wall - sum(t["ledger"]["attributed_s"] for t in traced) / n * 1e3
    executed = calls("ops.execplan.execute") + calls("op2.execplan.execute")
    traced_p50 = statistics.median(v for t in traced for v in normalised(t["samples"]))
    untraced_p50 = statistics.median(normalised(untraced["samples"]))
    m = {
        "apps.bcs_ms": ms("apps.bcs"),
        "apps.driver_ms": remainder,
        "ops.par_loop_ms": ms("ops.par_loop"),
        "ops.par_loop_calls": calls("ops.par_loop"),
        "ops.dat_arg_ms": ms("ops.dat_arg"),
        "ops.dat_arg_calls": calls("ops.dat_arg"),
        "ops.execplan.lookup_ms": ms("ops.execplan.lookup"),
        "ops.execplan.build_ms": ms("ops.execplan.build"),
        "ops.execplan.execute_ms": ms("ops.execplan.execute"),
        "ops.execplan.hits": plans("ops", "hits"),
        "ops.execplan.misses": plans("ops", "misses"),
        "ops.execplan.evictions": plans("ops", "evictions"),
        "ops.execplan.hit_ratio": ratio(plans("ops", "hits"), plans("ops", "misses")),
        "ops.lazy.enqueue_ms": ms("ops.lazy.enqueue"),
        "ops.lazy.flush_ms": ms("ops.lazy.flush"),
        "ops.lazy.flushes": count("lazy_flushes"),
        "ops.lazy.groups": count("lazy_groups"),
        "ops.lazy.tiles": count("lazy_tiles"),
        "ops.lazy.chain_hit_ratio": ratio(count("chain_hits"), count("chain_misses")),
        "ops.lazy.bytes_saved": count("lazy_bytes_saved"),
        "ops.tileplan.schedule_ms": ms("ops.tileplan.schedule"),
        "op2.par_loop_ms": ms("op2.par_loop"),
        "op2.par_loop_calls": calls("op2.par_loop"),
        "op2.dat_arg_ms": ms("op2.dat_arg"),
        "op2.dat_arg_calls": calls("op2.dat_arg"),
        "op2.execplan.lookup_ms": ms("op2.execplan.lookup"),
        "op2.execplan.build_ms": ms("op2.execplan.build"),
        "op2.execplan.execute_ms": ms("op2.execplan.execute"),
        "op2.execplan.hits": plans("op2", "hits"),
        "op2.execplan.misses": plans("op2", "misses"),
        "op2.execplan.setup_build_ms": setup_ms("op2.execplan.build"),
        "op2.halo.par_loop_ms": ms("op2.halo.par_loop"),
        "op2.halo.exchange_ms": ms("op2.halo.exchange"),
        "op2.halo.exchanges": count("halo_exchanges"),
        "native.kernel_ms": ms("native.kernel"),
        "native.calls": count("native_calls"),
        "native.coverage": count("native_calls") / executed if executed else 0.0,
        "native.admit_ms": ms("native.admit"),
        "native.admits": calls("native.admit"),
        "native.fallbacks": count("native_fallbacks"),
        "native.load_ms": ms("native.load"),
        "native.cold_compile_s": prime["load_s"],
        "native.compiles": float(prime["compiles"]),
        "lint.certify_ms": ms("lint.certify"),
        "lint.certify_calls": calls("lint.certify"),
        "simmpi.messages": count("messages_sent"),
        "simmpi.bytes": count("bytes_sent"),
        "simmpi.p2p_ms": ms("simmpi.p2p"),
        "simmpi.allreduce_ms": ms("simmpi.allreduce"),
        "mp.transport.wait_ms": ms("mp.transport.wait"),
        "mp.transport.deliver_ms": ms("mp.transport.deliver"),
        "mp.spawn_s": statistics.median(t.get("spawn_s", 0.0) for t in traced),
        "host.ref_ms": statistics.median(r for _, r in untraced["samples"]),
        "host.step_ms_raw_p50": statistics.median(s for s, _ in untraced["samples"]),
        "bench.trace_overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "bench.unattributed_pct": remainder / wall * 100.0,
    }
    return {name: (value, layer_unit(name)) for name, value in m.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def trace_selftests(workload: str, traced: list[dict], native_available: bool) -> list[str]:
    """Coverage, attribution and exact-count repeatability checks."""
    problems = []
    for layer, (busy, idle) in COVERAGE.items():
        steps = [t["ledger"]["calls"][layer] for t in traced]
        total = [t["setup_ledger"]["calls"][layer] + c for t, c in zip(traced, steps)]
        if workload in busy and min(total) == 0:
            if native_available or layer not in NATIVE_LAYERS:
                problems.append(f"coverage: {layer} recorded no call on {workload}")
        if workload in idle and max(steps) != 0:
            problems.append(f"coverage: {layer} recorded {max(steps)} calls on idle {workload}")
    for t in traced:
        unattributed = 1.0 - t["ledger"]["attributed_s"] / t["wall_s"]
        if not 0.0 <= unattributed < 0.10:
            problems.append(f"attribution: unattributed share {unattributed:.1%} not in [0, 10%)")
    a, b = traced[0], traced[1]
    for field in REPEATABLE_COUNTS:
        if a["counts"][field] != b["counts"][field]:
            problems.append(
                f"repeatability: {field} {a['counts'][field]} != {b['counts'][field]}"
            )
    if a["plans"] != b["plans"]:
        problems.append("repeatability: plan-cache statistics differ between runs")
    if a["ledger"]["calls"] != b["ledger"]["calls"]:
        problems.append("repeatability: per-layer call counts differ between runs")
    return problems


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--seconds", type=float, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cli.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    problems: list[str] = []
    bad = reference_imports_repro_free()
    if bad:
        problems.append(f"reference routine imports {bad}: it must import nothing from repro")

    log("host: " + json.dumps(host_stamp()))
    spec = workloads.SPECS[args.workload]
    runner = Runner(args.workload, args.seed)

    prime = runner.run("prime", timeout=PRIME_TIMEOUT_S)
    if "error" in prime:
        print(f"perfbench: priming failed: {prime['error']}", file=sys.stderr)
        return 1
    log(f"prime: {prime['compiles']} compiles, {prime['load_s']:.3f} s loading/compiling")
    native_available = prime["counts_total"]["native_calls"] > 0

    oracle = runner.run("oracle")
    if "error" in oracle:
        print(f"perfbench: oracle failed: {oracle['error']}", file=sys.stderr)
        return 1
    steps = 1 + workloads.WARMUP + workloads.TIMED
    if not perturbed_field_counted(oracle, prime, steps):
        problems.append("self-test: a perturbed field was not counted as failed")

    tally = Tally(oracle["digest"], steps)
    modes = ["measure", "trace", "trace"] if args.trace else []
    t_start = time.perf_counter()
    launched = 0
    while True:
        if args.trace:
            if launched == len(modes):
                break
            mode = modes[launched]
        else:
            if launched >= MIN_PROCESSES and time.perf_counter() - t_start >= args.seconds:
                break
            mode = "measure"
        launched += 1
        why = tally.add(mode, runner.run(mode))
        if why is not None:
            log(f"{mode} process {launched}: FAILED ({why})")
    ok, traced = tally.passed["measure"], tally.passed["trace"]

    metrics: dict = {}
    if args.trace:
        if ok and len(traced) == 2:
            problems += trace_selftests(args.workload, traced, native_available)
            metrics = per_layer(ok[0], traced, prime)
    elif ok:
        metrics = end_to_end(ok, spec.cells)
    for p in problems:
        log(f"problem: {p}")

    correct = tally.failed == 0 and not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
