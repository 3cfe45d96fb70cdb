"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that:
- the metrics in BENCHMARK.json match the ones the code reports;
- every workload runs at a tiny size, traced and untraced, prints every
  declared metric with its unit, and passes its oracles;
- the oracles are live: an input with a deliberately wrong expected value
  (an off-by-one torsion residue, genus or obstruction residue) is counted
  as a failed op;
- without the program's sources next to it, the benchmark exits non-zero and
  prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import NullRecorder  # noqa: E402
from worker import Runner  # noqa: E402

SEED = 3


def check_declarations() -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    if [w["name"] for w in doc["workloads"]] != list(layers.WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from layers.WORKLOADS")
    for key, declared in (("end_to_end", layers.END_TO_END), ("per_layer", layers.per_layer())):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        if listed != list(declared):
            extra = sorted(set(listed) - set(declared))
            absent = sorted(set(declared) - set(listed))
            bad.append(f"BENCHMARK.json {key} differs: extra {extra}, absent {absent}")
    return bad


def check_tiny_runs() -> list:
    bad = []
    for wl in layers.WORKLOADS:
        for trace in (0, 1):
            summary = run.run_benchmark(wl, SEED, 0.2, trace, tiny=True)
            declared = layers.per_layer() if trace else layers.END_TO_END
            want = {name: unit for name, unit, _ in declared}
            got = {name: m["unit"] for name, m in summary["metrics"].items()}
            if got != want:
                bad.append(f"{wl} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                           "missing or undeclared, or units differ")
            if not summary["correct"] or summary["failed"]:
                bad.append(f"{wl} trace={trace}: {summary['failed']} ops failed")
            if not trace and any(m["value"] <= 0 for m in summary["metrics"].values()):
                bad.append(f"{wl}: an end-to-end metric is not positive")
            print(f"ok: {wl} trace={trace}, {summary['attempted']} ops")
    return bad


def check_oracles_live() -> list:
    print("the 'failed op' lines below are the deliberate off-by-one ones")
    bad = []
    for wl in layers.WORKLOADS:
        module = importlib.import_module(f"workloads.{wl}")
        workload = module.Workload(ROOT, SEED, True)
        try:
            inputs = next(batch for batch in map(workload.inputs, range(workload.ROUND_CYCLES))
                          if batch)
            wrong = [module.off_by_one(inp) for inp in inputs]
            n_wrong = sum(a != b for a, b in zip(inputs, wrong))
            for label, batch, want in (("right", inputs, 0), ("wrong", wrong, n_wrong)):
                runner = Runner(workload)
                for n, inp in enumerate(batch):
                    runner.once(inp, NullRecorder(), n)
                if runner.failed != want or (label == "wrong" and not want):
                    bad.append(f"{wl}: {runner.failed} failed ops with {label} expectations, "
                               f"expected {want}")
        finally:
            workload.close()
        print(f"ok: {wl} oracles catch {n_wrong} off-by-one expectations")
    return bad


def check_bare_directory() -> list:
    with tempfile.TemporaryDirectory(prefix=".perfbench-bare-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "chart",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without src/ the benchmark still exits 0 or prints a result"]
    print("ok: a directory without the program fails with exit code", proc.returncode)
    return []


def main() -> int:
    problems = (check_declarations() + check_oracles_live() + check_tiny_runs()
                + check_bare_directory())
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
