"""Span recorder for the traced run, and the per-layer numbers made from it.

A span covers one call from the benchmark into the program, or one whole op.
It holds the name, start, end, parent span and op id.  Spans stay in memory
and are reduced to per-layer metrics when the run ends.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import layers
from stats import percentile

OP = "op"


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullRecorder:
    """Untraced runs: calls go straight through."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def run_op(self, op_id: int, fn: Callable, *args):
        return fn(*args)

    def tag(self, **attrs: float) -> None:
        pass


class Recorder(NullRecorder):
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._op = -1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = len(self.spans)
        span = Span(name, self._op, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def run_op(self, op_id: int, fn: Callable, *args):
        """Run one whole op as the root span of its calls."""
        self._op = op_id
        return self.call(OP, fn, *args)

    def tag(self, **attrs: float) -> None:
        """Attach numbers to the newest span: the call that just returned."""
        self.spans[-1].attrs.update(attrs)


def span_records(spans: List[Span], factors: Dict[int, float]) -> List[list]:
    """[name, ms, self ms, failed, work ms or None] per span, each time scaled
    by the speed factor of the op it belongs to (see speed.py)."""
    scale = [factors.get(s.op, 1.0) for s in spans]
    own = [s.seconds * k for s, k in zip(spans, scale)]
    for s, k in zip(spans, scale):
        if s.parent is not None:
            own[s.parent] -= s.seconds * k
    return [[s.name, s.seconds * k * 1e3, o * 1e3, s.failed,
             s.attrs["work_ms"] * k if "work_ms" in s.attrs else None]
            for s, k, o in zip(spans, scale, own)]


def layer_metrics(records: List[list], workload: str, overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric from span records; layers never called read 0."""
    by_name: Dict[str, List[list]] = {}
    for rec in records:
        by_name.setdefault(rec[0], []).append(rec)

    out: Dict[str, float] = {name: 0.0 for name, _, _ in layers.per_layer()}
    for fn in layers.TRACED + layers.BRIEF:
        recs = by_name.get(fn, [])
        if not recs:
            continue
        out[f"{fn}.calls"] = len(recs)
        out[f"{fn}.busy_ms"] = sum(r[2] for r in recs)
        if fn in layers.TRACED:
            out[f"{fn}.ms_p50"] = percentile([r[1] for r in recs], 0.5)
            out[f"{fn}.ms_p90"] = percentile([r[1] for r in recs], 0.9)
            out[f"{fn}.failed"] = sum(r[3] for r in recs)
    for cmd in layers.CLI_COMMANDS:
        recs = [r for r in by_name.get(f"cli.{cmd}", []) if r[4] is not None]
        if recs:
            out[f"cli.{cmd}.startup_ms"] = percentile([r[1] - r[4] for r in recs], 0.5)
            out[f"cli.{cmd}.work_ms"] = percentile([r[4] for r in recs], 0.5)
    out[f"{workload}.bench.self_ms"] = sum(r[2] for r in by_name.get(OP, []))
    out[f"{workload}.bench.trace_overhead_frac"] = overhead_frac
    return out
