"""Closed-loop benchmark of the gmmaug command line.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload stats-quantised --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client calls ``gmmaug.cli.main`` in-process, each call starting when
the last one returns. Inputs are generated from ``--seed`` into
``.bench_work/`` and removed at the end. With ``--trace 0`` the last
stdout line carries the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` the first call runs untraced and the rest traced, and the
line carries the per-layer metrics. A human-readable report precedes it,
and the full record (environment, every metric, every call, and the
spans of a traced run) goes to ``.bench_results/``. ``--workload all``
runs each workload in its own process, so peak memory does not carry
over, and prints one table.
"""

from __future__ import annotations

import env  # first: pins the thread pools before numpy loads

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import make_workloads

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def call_cli(gm, argv) -> int | None:
    """One CLI call; an escaped exception is a failed call, not a crash."""
    try:
        return gm.cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        return 0 if exc.code is None else exc.code
    except Exception:
        traceback.print_exc()
        return None


def run_workload(gm, wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, then call the CLI until ``seconds`` of calls and ``wl.min_calls`` calls."""
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        setup_s = []
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            with tracer.root("setup", f"setup{rep}") if tracer else nullcontext():
                wl.setup(gm, work, seed)
            setup_s.append(time.perf_counter() - start)
        setup_rss = peak_rss_mb()

        ops, measured, j = [], 0.0, 0
        while j < wl.min_calls or measured < seconds:
            traced = tracer is not None and j > 0
            argv = wl.argv(j)
            start = time.perf_counter()
            with tracer.root("cli", j) if traced else nullcontext():
                code = call_cli(gm, argv)
            elapsed = time.perf_counter() - start
            failures, err = wl.check(gm, j, code)
            for line in failures:
                print(f"call {j} failed: {line}", file=sys.stderr)
            ops.append({"op": j, "slot": j % wl.slots, "seconds": elapsed, "traced": traced,
                        "work": wl.work, "failures": failures, "mean_err": err})
            measured += elapsed
            j += 1
    finally:
        if tracer:
            tracer.uninstall()
    return {"setup_s": setup_s, "setup_rss_mb": setup_rss, "peak_rss_mb": peak_rss_mb(),
            "ops": ops, "tracer": tracer}


def tail(times: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, else None."""
    for q in (0.999, 0.99, 0.9):
        if len(times) * (1 - q) >= 10:
            cuts = statistics.quantiles(times, n=1000, method="inclusive")
            return f"op_s_p{q * 100:g}", cuts[round(q * 1000) - 1]
    return None


def end_to_end(wl, run: dict) -> dict:
    ops = run["ops"]
    times = [op["seconds"] for op in ops]
    errs = [op["mean_err"] for op in ops]
    rate = sum(op["work"] for op in ops) / sum(times)
    metrics = {
        "volumes_per_s": (rate, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "mean_err_max": (max(errs) if all(map(math.isfinite, errs)) else math.nan, "1"),
        # Reported, not gated: 0 on a correct run, which no bound can scale.
        "failed_frac": (sum(bool(op["failures"]) for op in ops) / len(ops), "1"),
        "samples": (len(ops), "count"),
        "setup_rss_mb": (run["setup_rss_mb"], "MB"),
    }
    if wl.unit == "draws":
        metrics["draws_per_s"] = (rate, "1/s")
    extra = tail(times)
    if extra:
        metrics[extra[0]] = (extra[1], "s")
    return metrics


def per_layer(run: dict) -> dict:
    ops = run["ops"]
    traced = [op for op in ops if op["traced"]]
    metrics = layer_metrics(run["tracer"], [op["op"] for op in traced],
                            [f"setup{rep}" for rep in range(SETUP_REPEATS)])
    # Same arguments as the untraced first call: calls on slot 0.
    again = [op["seconds"] for op in traced if op["slot"] == 0]
    metrics["trace.overhead_s"] = (statistics.median(again) - ops[0]["seconds"], "s")
    return metrics


def load_spec() -> dict:
    return json.loads((Path.cwd() / "BENCHMARK.json").read_text())


def result_line(spec: dict, run: dict, metrics: dict, kind: str) -> dict:
    """The last stdout line: the metrics BENCHMARK.json names under ``kind``."""
    chosen = {}
    for name, unit in ((m["name"], m["unit"]) for m in spec[kind]):
        value, measured_unit = metrics[name]
        if measured_unit != unit:
            raise ValueError(f"{name}: measured in {measured_unit}, BENCHMARK.json says {unit}")
        chosen[name] = {"value": value, "unit": unit}
    failed = sum(bool(op["failures"]) for op in run["ops"])
    return {"correct": failed == 0, "attempted": len(run["ops"]), "failed": failed,
            "metrics": chosen}


def run_one(args) -> int:
    gm = env.load_package()
    spec = load_spec()
    wl = make_workloads()[args.workload]
    work = Path.cwd() / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        run = run_workload(gm, wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(run) if args.trace else end_to_end(wl, run)
    line = result_line(spec, run, metrics, "per_layer" if args.trace else "end_to_end")

    environment = env.environment()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {why}")
    print("  environment: " + json.dumps(environment))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "ops": run["ops"], "setup_s": run["setup_s"]}
    if args.trace:
        record["spans"] = run["tracer"].spans
    out = results_path(wl.name, args.seed, args.trace)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


def results_path(name: str, seed: int, trace: int) -> Path:
    return Path.cwd() / ".bench_results" / f"{name}-seed{seed}-trace{trace}.json"


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    tables, ok = {}, True
    for name in make_workloads():
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            ok = False
            continue
        ok = ok and json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
        record = json.loads(results_path(name, args.seed, args.trace).read_text())
        tables[name] = record["metrics"]
    rows = list(dict.fromkeys(m for metrics in tables.values() for m in metrics))
    print(f"\n{'metric':<30}" + "".join(f"{name:>18}" for name in tables) + "  unit")
    for row in rows:
        unit = next(metrics[row]["unit"] for metrics in tables.values() if row in metrics)
        cells = "".join(f"{metrics[row]['value']:>18.6g}" if row in metrics else f"{'-':>18}"
                        for metrics in tables.values())
        print(f"{row:<30}{cells}  {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    names = list(make_workloads())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure at least this many seconds of CLI calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
