import collections
import contextlib
import gc
import io
import math

import numpy as np
import pytest

from switchyard import algebra as al
from switchyard import cocyclic as cc
from switchyard.cli import main


def as_member(tree, d, kind, v, z):
    """The point with slots ``v[r][k]`` and ``z[t][j]`` as a `cocyclic.Member` of ``tree``
    at tol = inf, in `cocyclic.chart` order and unchecked, as `io` decodes one: the
    chart functions gate it.  Tests that build or perturb a point from dicts use it."""
    ch = cc.chart(tree, d)
    vals = ([v[r][k] for r in ch.v_start for k in range(d - 1)]
            + [z[t][j] for t in ch.z_start for j in ch.z_offset])
    return cc.Member(d, kind, tree, math.inf, tuple(x.value for x in vals))


def plan_point(tree, free, eps, anchors):
    """The point `cocyclic.i2_inverse` builds from ``free`` and ``eps`` on ``anchors``,
    unchecked: the recorded plan's steps summed one at a time on elements by
    `algebra.combine`, then placed by its ``out``, as a `cocyclic.Member` at tol = inf."""
    d, kind = free.d, free.kind
    plan = cc.inverse_plan(tree, d, anchors)
    vals = [*al._from_lanes(kind, free.lanes), eps]
    for row in plan.steps:
        vals.append(al.combine(kind, [(n, vals[s]) for n, s in row]))
    return cc.Member(d, kind, tree, math.inf, tuple(vals[p].value for p in plan.out))


class CliResult:
    """What one in-process CLI run left: its exit code, what it wrote to stdout
    (``stdout``), to stderr (``stderr``) and to both in order (``output``), and
    the exception it ended with (None on exit 0)."""

    def __init__(self, exit_code, stdout, stderr, output, exception):
        self.exit_code, self.exception = exit_code, exception
        self.stdout, self.stderr, self.output = stdout, stderr, output


class _Both:
    """A text stream that writes to its own buffer and to a shared one."""

    def __init__(self, own, shared):
        self.own, self.shared = own, shared

    def write(self, text):
        self.shared.write(text)
        return self.own.write(text)

    def flush(self):
        pass


def _run_cli(argv):
    """Run ``main(argv)`` with stdout and stderr captured; a `SystemExit` gives the
    exit code, any other exception exit code 1."""
    out, err, both = io.StringIO(), io.StringIO(), io.StringIO()
    code, exception = 0, None
    try:
        with contextlib.redirect_stdout(_Both(out, both)), \
                contextlib.redirect_stderr(_Both(err, both)):
            main(argv)
    except SystemExit as done:
        code = done.code or 0
        exception = done if code else None
    except Exception as exc:
        code, exception = 1, exc
    finally:
        gc.unfreeze()  # each report freezes the heap; the test process keeps nothing frozen
    return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


@pytest.fixture(scope="session")
def run_cli():
    """The in-process CLI: ``run_cli(argv)`` returns a `CliResult`."""
    return _run_cli


@pytest.fixture
def member_checks(monkeypatch):
    """A list that grows by one per membership check run in the chart modules.

    Every check runs `_gate` once: `require_member` before the rotation
    relations, and `i2_inverse` on its fresh output, so wrapping `_gate` where
    `cocyclic` looks it up counts the checks that are run, not the ones
    `require_member` reuses.  A name missing from `cocyclic` fails the fixture.
    """
    calls = []
    real = cc._gate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cc, "_gate", counted)
    return calls


class LapackCalls(collections.Counter):
    """Calls per `np.linalg` function, and ``shapes[name]``, the shape of the
    matrix or stack each call took; `clear` empties both."""

    def __init__(self):
        super().__init__()
        self.shapes = collections.defaultdict(list)

    def clear(self):
        super().clear()
        self.shapes.clear()


@pytest.fixture
def lapack_calls(monkeypatch):
    """A `LapackCalls` of the calls made to `np.linalg.svd`, `qr`, `inv` and `det`.

    The flag and obstruction modules look these up on `np.linalg` at each call,
    so wrapping them there counts every factorisation, however many matrices
    one stacked call takes."""
    calls = LapackCalls()
    for name in ("svd", "qr", "inv", "det"):
        real = getattr(np.linalg, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            calls.shapes[name].append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class LaneWork:
    """What the chart asked of `algebra`: ``plans``, the rows handed to each
    `algebra.run` call, ``built``, every element `GroupElement.__init__`
    initialized (kept alive, so no two share an id), and ``from_lanes``, the
    number of elements each `algebra._from_lanes` call built from lanes."""

    def __init__(self):
        self.plans, self.built, self.from_lanes = [], [], []

    def built_any(self, elements) -> bool:
        ids = {id(x) for x in self.built}
        return any(id(x) in ids for x in elements)


@pytest.fixture
def lane_work(monkeypatch):
    """A `LaneWork` of the calls made from here on.  The chart modules look `run`
    and `_from_lanes` up on `algebra` at each call, so wrapping them there counts
    every plan and every element built from lanes."""
    work = LaneWork()
    run, init, from_lanes = al.run, al.GroupElement.__init__, al._from_lanes

    def counted_run(kind, rows, lanes):
        work.plans.append(rows)
        return run(kind, rows, lanes)

    def counted_init(self, kind, value):
        work.built.append(self)
        init(self, kind, value)

    def counted_from_lanes(kind, lanes):
        out = from_lanes(kind, lanes)
        work.from_lanes.append(len(out))
        return out

    monkeypatch.setattr(al, "run", counted_run)
    monkeypatch.setattr(al, "_from_lanes", counted_from_lanes)
    monkeypatch.setattr(al.GroupElement, "__init__", counted_init)
    return work
