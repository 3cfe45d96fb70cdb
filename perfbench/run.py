"""switchyard benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload chart --seed 1 --seconds 20 --trace 0

Workloads: chart, search, cli, matrix (see perfbench/README.md).  Every op is
checked against its oracle.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones.

An untraced run is split over PARTS worker processes, one after another:
one process can run 20% slow or fast for its whole life, and this way it
sways only its share.  Each times its set-up, from process start to its first
timed op, and runs its share of every round of ops; setup_s is the median
set-up and the op metrics pool every part's ops.  A traced run uses one
worker process at a time.

The run is pinned to one CPU, so that the speed probes of speed.py run on the
CPU that runs the ops, cli child processes included.  Every time reported is
scaled to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from stats import median, percentile  # noqa: E402
from tracer import layer_metrics  # noqa: E402

# Untraced runs are split over this many worker processes, run one after the
# other; each set-up is one sample of setup_s.
PARTS = 5
# p90 needs ten samples beyond it.
MIN_OPS = 100
TINY_MIN_OPS = 3
PROBES_AROUND_SETUP = 3
# The whole run, all parts, must end within this.
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, trace: int, tiny: bool, part: int, parts: int,
           rounds: str, meter: SpeedMeter, deadline: float):
    """Run one worker; return (set-up seconds, scaled set-up seconds, result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--part", str(part),
           "--parts", str(parts), "--rounds", rounds]
    if tiny:
        cmd.append("--tiny")
    for _ in range(PROBES_AROUND_SETUP):
        meter.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        for _ in range(PROBES_AROUND_SETUP):
            meter.probe()
        rest, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if time.perf_counter() >= deadline:
        raise BenchError(f"{workload} run went past {RUN_TIMEOUT_S} s")
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    scaled_s = setup_s * meter.factor(t0, t0 + setup_s)
    return setup_s, scaled_s, json.loads(rest.strip().splitlines()[-1])


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  tiny: bool = False) -> dict:
    """Run one workload and return the summary printed as the last line.

    Every part first runs its share of round 0.  The time that took, over all
    parts, sets how many rounds fill `seconds` (and give MIN_OPS ops); the
    parts are then started again for the remaining rounds.
    """
    if not (ROOT / "src" / "switchyard" / "__init__.py").is_file():
        raise BenchError(f"no switchyard package under {ROOT / 'src'}")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    _pin_to_one_cpu()
    meter = SpeedMeter()
    parts = 1 if trace else PARTS
    min_ops = 0 if trace else (TINY_MIN_OPS if tiny else MIN_OPS)

    def phase(rounds: str) -> list:
        return [_spawn(workload, seed, trace, tiny, part, parts, rounds, meter, deadline)
                for part in range(parts)]

    runs = phase("0:1")
    round_s = sum(r["wall_s"] for _, _, r in runs)
    round_ops = sum(len(r.get("ms", ())) for _, _, r in runs)
    rounds = max(1, round(seconds / round_s) if round_s > 0 else 1,
                 math.ceil(min_ops / round_ops) if round_ops else 1)
    if rounds > 1:
        runs += phase(f"1:{rounds}")
    results = [r for _, _, r in runs]

    if trace:
        declared = layers.per_layer()
        plain_ms = sum(r["plain_ms"] for r in results)
        traced_ms = sum(r["traced_ms"] for r in results)
        overhead = traced_ms / plain_ms - 1.0 if plain_ms else 0.0
        metrics = layer_metrics([s for r in results for s in r["spans"]], workload, overhead)
        detail = {"plain_ms": plain_ms, "traced_ms": traced_ms}
    else:
        declared = layers.END_TO_END
        metrics, detail = _pool(results)
        metrics["setup_s"] = median([scaled for _, scaled, _ in runs])
    detail |= {"rounds": rounds, "workers": len(runs),
               "raw_setup_s": [round(raw, 4) for raw, _, _ in runs]}
    missing = {name for name, _, _ in declared} - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared},
        "detail": detail,
    }


def _pool(results: list):
    """End-to-end metrics from the op times of every part."""
    ms = [x for r in results for x in r["ms"]]
    raw = [x for r in results for x in r["raw_ms"]]
    if not ms:
        raise BenchError("no op passed its oracle")
    p90 = percentile(ms, 0.9)
    metrics = {
        "ops_per_s": 1e3 * len(ms) / sum(ms),
        "op_ms_p50": median(ms),
        "op_ms_p90": p90,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    detail = {
        "ok_ops": len(ms),
        "beyond_p90": sum(x > p90 for x in ms),
        "raw_op_ms_p50": median(raw),
        "raw_ops_per_s": 1e3 * len(raw) / sum(raw),
        "probe_ms_p50": median([r["probe_ms"] for r in results]),
    }
    return metrics, detail


def _pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to its last allowed CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="switchyard benchmark")
    ap.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        summary = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    detail = summary.pop("detail")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"run: {json.dumps(detail, sort_keys=True)}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if not args.trace:
        print(f"op_ms_p90 from {detail['ok_ops']} ops, {detail['beyond_p90']} beyond it")
    for name, m in summary["metrics"].items():
        if not args.trace or m["value"]:
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
