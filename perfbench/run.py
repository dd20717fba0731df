"""Benchmark of the Spectral LPM stack: one workload per invocation.

    python3 perfbench/run.py --workload warm-query --seed 7 \
        --seconds 20 --trace 0

Run from the root of a checkout: the sessions import ``repro`` from its
``src/`` directory, never from an installed copy.  Workloads:

``cold-order``
    Distinct domains ordered once each through one ``OrderingService``
    with an ``ArtifactStore``: graph, linalg, core, service.
``warm-query``
    Range, nn and join queries at one 128x128 index: api, query,
    geometry, index, storage, obs.  Its traced run also measures the
    serving tiers (net, serve) over a ``repro-serve`` process.

Each workload executes the same seeded list of operations on every run,
sized by ``--seconds``; warm-query runs its list twenty times and takes
each query's fastest run (see ``common.best_of``).  Set-up is measured
in fresh interpreters, five times, and reported as the median.  Every
answer is checked.  With ``--trace 0`` the last line of standard output
is the JSON result with every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1``
the session also runs a traced pass and the result holds every
per-layer metric instead, plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics each workload's traced run measures; on the other
#: workload their layers do no work and the metric reads 0.
PER_LAYER = {
    "cold-order": (
        "graph.build_ms", "linalg.solve_ms", "linalg.solves_per_order",
        "linalg.solves_dense", "linalg.solves_scipy", "core.self_ms",
        "service.fingerprint_ms", "service.store_save_ms",
        "service.store_bytes"),
    "warm-query": (
        "api.self_ms", "query.range_self_ms", "geometry.cells_ms",
        "index.search_ms", "index.nodes_per_range", "storage.pages_ms",
        "storage.buffer_ms", "storage.buffer_hit_ratio", "query.scan_waste",
        "query.nn_window_ms", "query.nn_candidates_per_k",
        "query.join_truth_ms", "query.join_window_ms",
        "query.join_candidate_ratio", "obs.observe_ms",
        # the serving tiers, from serving.py
        "net.server_ms", "net.transport_ms", "net.bytes_out",
        "net.bytes_in", "serve.worker_query_ms", "query.engine_range_ms",
        "tier.sharded_p50_ms", "tier.pool_p50_ms", "tier.remote_p50_ms",
        "serve.ipc_ms", "net.socket_ms", "service.memory_hit_ratio",
        "serve.spawn_s", "service.store_load_ms", "service.disk_hits"),
}

#: Wall seconds every session of one run must finish within.
RUN_BUDGET = 170.0
#: Fresh set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5


def reference_ms() -> float:
    """Median of three timings of a fixed pure-Python loop: a gauge of
    the machine's speed, printed beside the metrics but never gated."""
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        timings.append((time.perf_counter() - start) * 1e3)
    return statistics.median(timings)


def session_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Temporary files of the program and its workers stay in the checkout.
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_session(args, work: Path, setup_only: bool, deadline: float
                ) -> dict:
    """Run one fresh-interpreter session and return its JSON result."""
    command = [sys.executable, str(HERE / "session.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work)]
    if setup_only:
        command.append("--setup-only")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # A new session per child, so a timeout can stop the child and any
    # server or worker it started with one signal to the group.
    proc = subprocess.Popen(command, cwd=ROOT, env=session_env(work),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"sessions ran past {RUN_BUDGET:g}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = [line for line in out.splitlines()
             if line.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"session exited with code {proc.returncode}")
    return json.loads(lines[-1][len("PERFBENCH "):])


def measure(args, work: Path):
    """The measured session, with set-up-only sessions before and after
    it, so the set-up samples span the run rather than one moment."""
    deadline = time.monotonic() + RUN_BUDGET

    def setups(first, count):
        return [run_session(args, work / f"setup{i}", True,
                            deadline)["setup_s"]
                for i in range(first, first + count)]

    before = (SETUP_SAMPLES - 1) // 2
    samples = setups(0, before)
    main = run_session(args, work / "main", False, deadline)
    samples += [main["setup_s"]] + setups(before, SETUP_SAMPLES - 1 - before)
    return main, samples


def collect(args, spec, main, samples):
    """The result's metrics and the lines printed above it."""
    e2e = dict(main["metrics"], setup_s=statistics.median(samples))
    if args.trace:
        traced = main["traced"]
        unmeasured = set(PER_LAYER[args.workload]) - set(main["per_layer"])
        if unmeasured:
            raise RuntimeError(f"no value measured for {sorted(unmeasured)}")
        per_layer = dict.fromkeys(
            (name for names in PER_LAYER.values() for name in names), 0.0)
        per_layer.update(main["per_layer"])
        # Tracing overhead: the traced pass against the median untraced
        # pass (both plain, not best-of), in latency_p50_ms and in the
        # share of ops_per_s the wrappers cost.
        plain = main["single_pass"]
        per_layer["trace.p50_overhead_ms"] = (
            traced["latency_p50_ms"] - plain["latency_p50_ms"])
        per_layer["trace.ops_overhead_pct"] = (
            (1.0 - traced["ops_per_s"] / plain["ops_per_s"]) * 100.0)
        reported = spec["per_layer"]
        values = per_layer
    else:
        reported = spec["end_to_end"]
        values = e2e
    missing = [m["name"] for m in reported if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value measured for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in reported}
    lines = []
    if args.trace:
        lines.append("untraced pass (end-to-end):")
        lines += [f"  {m['name']:<26} {e2e[m['name']]:>14.6g} {m['unit']}"
                  for m in spec["end_to_end"]]
        lines.append("traced pass (per layer):")
    lines += [f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}"
              for name, metric in metrics.items()]
    diagnostics = dict(main.get("diagnostics", {}))
    diagnostics["setup_samples_s"] = samples
    diagnostics["failed_frac"] = main["failed"] / main["attempted"]
    return metrics, lines, diagnostics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark one workload of the Spectral LPM stack.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(PER_LAYER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; sizes the "
                             "seeded operation list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwinds through run_session's ``finally``, which stops the
    # running session's process group.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # One BLAS thread in every process of a run (the sessions inherit
    # it): on 2 cores, extra BLAS threads would compete with the caller
    # and with the serving tiers' workers.
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[knob] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              "from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    reference_start = reference_ms()
    try:
        main_result, samples = measure(args, work)
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    reference_end = reference_ms()
    metrics, lines, diagnostics = collect(args, spec, main_result, samples)
    diagnostics["reference_loop_ms"] = [reference_start, reference_end]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(lines))
    print("diagnostics " + json.dumps(diagnostics))
    print(json.dumps({
        "correct": bool(main_result["correct"]),
        "attempted": int(main_result["attempted"]),
        "failed": int(main_result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
