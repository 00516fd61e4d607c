"""Self-test of the benchmark: tiny smoke runs, and broken outputs that must fail.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload runs on tiny inputs, untraced and traced, and every call
must pass its checks. Then three broken outputs go through the same
per-call checks the benchmark uses, and each must come out as a failed
call: a stats file with shifted means, a truncated augmented volume and
a replay whose bytes differ from the first call. Exits 0 only if all of
that holds.
"""

from __future__ import annotations

import env  # first: pins the thread pools before numpy loads

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from run import call_cli, end_to_end, per_layer, run_workload
from workloads import make_workloads

SEED = 3


def smoke(gm, work: Path) -> list[str]:
    problems = []
    for trace in (False, True):
        for wl in make_workloads(tiny=True).values():
            run = run_workload(gm, wl, SEED, 0.0, trace, work / f"{wl.name}-{int(trace)}")
            metrics = per_layer(run) if trace else end_to_end(wl, run)
            failed = [op for op in run["ops"] if op["failures"]]
            print(f"smoke {wl.name} trace={int(trace)}: {len(run['ops'])} calls, "
                  f"{len(failed)} failed, {len(metrics)} metrics")
            if failed:
                problems.append(f"smoke {wl.name} trace={int(trace)}: {failed[0]['failures']}")
    return problems


def _first_call(gm, wl, work: Path) -> None:
    wl.setup(gm, work, SEED)
    code = call_cli(gm, wl.argv(0))
    if code != 0:
        raise RuntimeError(f"{wl.name}: the first call exited {code}")


def shifted_means(gm, wl, work: Path) -> list[str]:
    _first_call(gm, wl, work)
    out = Path(wl.argv(0)[-1])
    obj = json.loads(out.read_text())
    for component in obj["components"]:
        component["mu_mean"] += 0.2
    out.write_text(json.dumps(obj))
    return wl.check(gm, 0, 0)[0]


def truncated_volume(gm, wl, work: Path) -> list[str]:
    _first_call(gm, wl, work)
    nii = Path(f"{wl.argv(0)[-1]}_0.nii")
    nii.write_bytes(nii.read_bytes()[: nii.stat().st_size // 2])
    return wl.check(gm, 0, 0)[0]


def mismatched_replay(gm, wl, work: Path) -> list[str]:
    _first_call(gm, wl, work)
    if wl.check(gm, 0, 0)[0]:
        raise RuntimeError("the first call already fails its checks")
    code = call_cli(gm, wl.argv(1))
    # Nudge one foreground voxel: the output stays valid, only the replay differs.
    nii = Path(f"{wl.argv(1)[-1]}_0.nii")
    raw = bytearray(nii.read_bytes())
    body = np.frombuffer(raw, dtype="<f4", offset=352).copy()
    index = int(np.flatnonzero(body > 0.1)[0])
    body[index] -= 0.05
    raw[352:] = body.tobytes()
    nii.write_bytes(bytes(raw))
    return wl.check(gm, 1, code)[0]


def negatives(gm, work: Path) -> list[str]:
    problems = []
    cases = [
        ("stats file with shifted means", "stats-quantised", shifted_means, "tissue mean error"),
        ("truncated augmented volume", "augment-batch", truncated_volume, "does not parse"),
        ("mismatched replay", "augment-batch", mismatched_replay, "not byte-identical"),
    ]
    for label, name, case, expected in cases:
        wl = make_workloads(tiny=True)[name]
        failures = case(gm, wl, work / label.replace(" ", "_"))
        caught = any(expected in line for line in failures)
        print(f"negative {label}: {'failed as intended' if caught else 'NOT CAUGHT'}"
              f" {failures}")
        if not caught:
            problems.append(f"negative case not caught: {label}")
    return problems


def main() -> int:
    gm = env.load_package()
    work = Path.cwd() / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        problems = smoke(gm, work) + negatives(gm, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"PROBLEM: {line}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
