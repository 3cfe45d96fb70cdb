"""One benchmark process: set up a workload, then time its share of the ops.

Started by run.py, never by hand.  It prints `READY` once set-up is done, so
the parent can time set-up from process start, and then one JSON line with
the run's results.

Each process runs its part of the rounds given by --rounds; run.py pools what
the parts report.  Untraced (--trace 0) it reports every op's time.  Traced
(--trace 1) it runs every op twice, once plain and once inside spans,
alternating which goes first, and reports the spans and the time of those
pairs, from which run.py takes the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import SpeedMeter  # noqa: E402
from stats import median  # noqa: E402
from tracer import NullRecorder, Recorder, span_records  # noqa: E402

MAX_FAILURE_LINES = 5


class Runner:
    """Runs ops, checks each against its oracle, and keeps the counts."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def once(self, inp, rec, op_id: int):
        """Run one op; returns (start, seconds, ok)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = rec.run_op(op_id, self.wl.run, inp, rec)
        except Exception as err:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - t0
            problems = [f"raised {type(err).__name__}: {err}"]
        else:
            seconds = time.perf_counter() - t0
            problems = self.wl.check(inp, out)
        if problems:
            self.failed += 1
            if self.failed <= MAX_FAILURE_LINES:
                print(f"failed op {op_id}: {'; '.join(problems)}", file=sys.stderr)
        return t0, seconds, not problems


def _run_rounds(runner: Runner, part: int, parts: int, first: int, stop: int, run_one) -> None:
    """Run this part's cycles of rounds first..stop-1.

    A round is ROUND_CYCLES cycles, and part p runs the cycles c with
    c % parts == p, so the parts together cover whole rounds.
    """
    wl = runner.wl
    mine = [c for c in range(wl.ROUND_CYCLES) if c % parts == part]
    for r in range(first, stop):
        for c in mine:
            for inp in wl.inputs(r * wl.ROUND_CYCLES + c):
                run_one(inp)


def measure(runner: Runner, part: int, parts: int, first: int, stop: int) -> dict:
    """Untraced: every passing op's time, scaled and raw, in milliseconds."""
    plain = NullRecorder()
    ok_ops = []   # (start, seconds) of each op that passed its oracle

    def run_one(inp):
        t0, dt, ok = runner.once(inp, plain, runner.attempted)
        if ok:
            ok_ops.append((t0, dt))

    start = time.perf_counter()
    with SpeedMeter() as meter:
        _run_rounds(runner, part, parts, first, stop, run_one)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if runner.wl.RSS_OF_CHILDREN else resource.RUSAGE_SELF)
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wall_s": time.perf_counter() - start,
        "ms": [meter.scaled(t0, dt) * 1e3 for t0, dt in ok_ops],
        "raw_ms": [dt * 1e3 for _, dt in ok_ops],
        "probe_ms": median(meter.samples) * 1e3,
        "rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
    }


def measure_traced(runner: Runner, part: int, parts: int, first: int, stop: int) -> dict:
    """Traced: each op runs plain and traced, in alternating order."""
    plain, rec = NullRecorder(), Recorder()
    pairs = []   # (plain start, plain seconds, traced start, traced seconds)
    traced_ops = {}   # op id -> (start, seconds)

    def run_one(inp):
        plain_first = len(traced_ops) % 2 == 0
        first_rec, second_rec = (plain, rec) if plain_first else (rec, plain)
        base = runner.attempted
        a = runner.once(inp, first_rec, base)
        b = runner.once(inp, second_rec, base + 1)
        (p0, p_dt, p_ok), (t0, t_dt, t_ok) = (a, b) if plain_first else (b, a)
        traced_ops[base + 1 if plain_first else base] = (t0, t_dt)
        if p_ok and t_ok:
            pairs.append((p0, p_dt, t0, t_dt))

    start = time.perf_counter()
    with SpeedMeter() as meter:
        _run_rounds(runner, part, parts, first, stop, run_one)
    # scale spans by their op's factor, so that probes inside an op do not count
    factors = {op: meter.scaled(t0, dt) / dt for op, (t0, dt) in traced_ops.items()}
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wall_s": time.perf_counter() - start,
        "spans": span_records(rec.spans, factors),
        "plain_ms": sum(meter.scaled(p0, p_dt) for p0, p_dt, _, _ in pairs) * 1e3,
        "traced_ms": sum(meter.scaled(t0, t_dt) for _, _, t0, t_dt in pairs) * 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--rounds", default="0:1", help="first:stop, the rounds to run")
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    args = ap.parse_args(argv)
    first, stop = (int(x) for x in args.rounds.split(":"))

    module = importlib.import_module(f"workloads.{args.workload}")
    wl = module.Workload(ROOT, args.seed, args.tiny)
    try:
        runner = Runner(wl)
        for n, inp in enumerate(wl.warmup()):
            runner.once(inp, NullRecorder(), -1 - n)
        print("READY", flush=True)
        measure_fn = measure_traced if args.trace else measure
        result = measure_fn(runner, args.part, args.parts, first, stop)
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
