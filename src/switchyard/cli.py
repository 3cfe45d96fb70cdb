"""Deterministic command-line surface over the library.

Every command folds its results into a run report: command name, seed,
digests of the inputs, a pass/fail line per check with numeric residuals,
and wall time.  With a fixed seed and fixed inputs everything except the
wall-time field reproduces byte-identically.  Exit codes: 0 success,
1 mathematical-check failure, 2 input error.

A command returns its report, or `Report.fail` ends it at its first failed
check.  `main` alone ends a run: it writes the report, also to a stdout closed
early, and exits with its code, or 2 on an `io.InputError`.  Per point,
`Report.attempt` fails a check on an error and `Report.bound` on a residual.

Every command imports the layers it runs inside itself, before its report
starts, so the wall time counts only its own work.  Beside `algebra` and
`io`, which every command loads:

- `gen-fixture`, `tree`, `validate` and `classify` load `traintrack`;
- `sample-y` and `torsion` add `cocyclic`, and no command loads `homology`;
- `corfinal` adds `slither` as well;
- `ob` loads numpy and `obstruction`, `flags` numpy and `flags`, and no chart
  module;
- `selftest` loads the chart modules and `obstruction`.

The helpers the commands share (`oriented_tree_for`, `load_member`,
`point_tor`) import the same layers again, which after the command's own
import only looks them up.

The parser is `argparse`, and no module builds a dataclass, so no command
loads `click` or `dataclasses`.  What start-up is left is the interpreter and
compiling these modules when no bytecode is cached (`PYTHONDONTWRITEBYTECODE=1`;
about 25 ms for `gen-fixture` up to 45 ms for `corfinal`).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import sys
import time
from typing import NoReturn, Optional

from . import algebra as al
from . import io


class _Failed(Exception):
    """A check failed; `main` writes the report, its one argument, and exits 1."""


def _at(n: int, err) -> str:
    """The error ``err`` of point ``n``, prefixed `point <n>: ` after the first point."""
    return f"point {n}: {err}" if n else str(err)


class Report:
    def __init__(self, cfg):  # the run's command, seed and --json, from `main`
        self.command, self.seed, self.as_json = cfg["command"], cfg["seed"], cfg["json"]
        self.inputs, self.checks, self.values, self.worst = {}, [], {}, {}
        # a collection set off by allocations made before the report would
        # land in its wall time; freezing resets the generation-0 count
        gc.freeze()
        self._t0 = time.perf_counter()

    def add_input(self, label: str, data: bytes) -> None:
        self.inputs[label] = hashlib.sha256(data).hexdigest()[:16]

    def check(self, name: str, ok: bool, residual: Optional[float] = None) -> None:
        self.checks.append({"name": name, "pass": bool(ok),
                            "residual": None if residual is None else float(residual)})

    def value(self, key: str, val) -> None:
        self.values[key] = val

    def finish(self) -> int:
        """Write the report once and return its exit code, 1 if a check failed, else 0.
        A stdout closed early keeps that code: the rest of the report goes to devnull,
        as the Python docs advise for SIGPIPE, so no traceback follows."""
        wall_ms = (time.perf_counter() - self._t0) * 1000.0
        failed = [c for c in self.checks if not c["pass"]]
        if not failed:  # each bounded check once, after the explicit ones
            for name, gap in self.worst.items():
                self.check(name, True, gap)
        if self.as_json:
            text = json.dumps({"command": self.command, "seed": self.seed, "inputs": self.inputs,
                               "checks": self.checks, "values": self.values, "ok": not failed,
                               "wall_time_ms": round(wall_ms, 3)}, sort_keys=True)
        else:
            lines = [f"command: {self.command}", f"seed: {self.seed}"]
            lines += [f"input {label}: sha256:{dig}" for label, dig in self.inputs.items()]
            for c in self.checks:
                tail = "" if c["residual"] is None else f" residual={c['residual']:.3g}"
                lines.append(f"check {c['name']}: {'pass' if c['pass'] else 'FAIL'}{tail}")
            lines += [f"{key}: {val}" for key, val in self.values.items()]
            lines.append(f"wall time: {wall_ms:.1f} ms")
            text = "\n".join(lines)
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1 if failed else 0

    def fail(self, name: str, err, residual: Optional[float] = None) -> NoReturn:
        """Record a failed check and its error, and end the run: `main` writes the report."""
        self.check(name, False, residual)
        self.value("error", str(err))
        raise _Failed(self)

    def attempt(self, name: str, n: int, errors, call, *args, **kwargs):
        """``call(*args, **kwargs)`` for point ``n``; if it raises one of ``errors``, fail
        check ``name`` with that error, named by `_at`."""
        try:
            return call(*args, **kwargs)
        except errors as err:
            self.fail(name, _at(n, err))

    def bound(self, name: str, n: int, gap: float, tol: float) -> None:
        """Fail check ``name`` at point ``n`` if its residual ``gap`` is above ``tol``;
        else keep the worst gap, which a passing report gives the check."""
        if not gap <= tol:
            self.fail(name, _at(n, f"residual {gap:.3g} is above the tolerance {tol:.3g}"), gap)
        self.worst[name] = max(self.worst.get(name, gap), gap)


def oriented_tree_for(track, tree, seed: int):
    from . import cocyclic as cc
    from . import traintrack as tt

    if tree is None:
        tree = tt.maximal_tree(track, seed=seed)
    return cc.ensure_right_unorientable(tree)


# name -> (the command, its arguments as `arg`s), in help order
_COMMANDS = {}


def arg(*flags, **kwargs):
    """One argument of a command, as `argparse.ArgumentParser.add_argument` takes it."""
    return flags, kwargs


OUT = arg("--out", required=True, help="file to write")


def command(*args, name=None):
    """Register the decorated function as a command taking ``args``, its docstring its help."""
    def register(run):
        _COMMANDS[name or run.__name__] = (run, args)
        return run
    return register


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchyard", allow_abbrev=False,
        description="Train-track coordinates, torsion invariants, and lifting obstructions.")
    parser.add_argument("--seed", type=int, default=0,
                        help="root of all randomness, >= 0; every trial reseeds from it (default 0)")
    parser.add_argument("--group", default="cylinder",
                        help="coefficient group: real, circle, cylinder, zd:<n> (default cylinder)")
    parser.add_argument("--d", type=int, default=3,
                        help="coordinate depth, the matrix size downstream (default 3)")
    parser.add_argument("--tolerance", type=float, default=al.DEFAULT_TOL,
                        help=f"comparison tolerance, finite and >= 0 (default {al.DEFAULT_TOL:g}); "
                             "each check uses max(--tolerance, its floor): "
                             f"{al.DEFAULT_TOL:g} for the ledger, {al.MEMBER_TOL:g} for the "
                             f"chart's membership and torsion, {al.SCALAR_TOL:g} for ob")
    parser.add_argument("--json", action="store_true", help="print a machine-readable report")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, args) in _COMMANDS.items():
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        for flags, kwargs in args:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=run, command=name)
    return parser


def main(argv=None) -> NoReturn:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None), write its report
    and exit with its code; the one place a run ends, and an input error becomes exit 2."""
    args = vars(_parser().parse_args(argv))
    run, tolerance = args.pop("run"), args.pop("tolerance")
    cfg = {key: args.pop(key) for key in ("command", "seed", "group", "d", "json")}
    try:
        if cfg["seed"] < 0:  # random.Random seeds by abs(), so -5 would alias 5
            raise io.InputError(f"seed {cfg['seed']} < 0")
        tol = max(io.tolerance(tolerance), al.DEFAULT_TOL)
        cfg.update(tol=tol, member_tol=max(tol, al.MEMBER_TOL))
        report = run(cfg, **args)
    except _Failed as failed:
        report, = failed.args
    except io.InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        sys.exit(2)
    sys.exit(report.finish())


@command(arg("path"))
def validate(cfg, path):
    """Check a track file: slot pairing, cell shapes, genus, connectivity."""
    from . import traintrack as tt

    report = Report(cfg)
    # Unchecked: a structurally invalid track is reported, not rejected.
    (track, tree), raw = io.load(path, io.track_from_json, False)
    report.add_input("track", raw)
    result = tt.validate(track)
    report.check("structure", result.valid)
    for code, msg in result.errors:
        report.value(f"error {code}", msg)
    report.value("genus", result.genus)
    report.value("switches", result.n_switches)
    report.value("rectangles", result.n_rectangles)
    report.value("plaques", result.n_plaques)
    if tree is not None:
        report.value("tree edges", len(tree.edges))
    return report


@command(arg("--genus", type=int, default=2,
             help="surface genus, >= 2 and <= traintrack.MAX_GENUS (default 2)"),
         OUT, name="gen-fixture")
def gen_fixture(cfg, genus, out):
    """Search for a valid genus-g track and write it as JSON."""
    from . import traintrack as tt

    if not 2 <= genus <= tt.MAX_GENUS:
        raise io.InputError(f"genus {genus} outside 2..{tt.MAX_GENUS}")
    report = Report(cfg)
    track = report.attempt("search", 0, tt.FixtureSearchError, tt.generate_fixture, genus,
                           cfg["seed"])
    g = track.genus
    report.check("switch count", len(track.switch_ids) == 12 * g - 12)
    report.check("rectangle count", len(track.rects) == 18 * g - 18)
    report.check("plaque count", len(track.plaques) == 4 * g - 4)
    report.add_input("track out", io.write(out, io.track_to_json(track)))
    report.value("genus", g)
    report.value("path", out)
    return report


@command(arg("path"), OUT)
def tree(cfg, path, out):
    """Choose a seeded oriented maximal tree and write track+tree JSON."""
    from . import traintrack as tt

    report = Report(cfg)
    (track, _), raw = io.load(path, io.track_from_json)
    report.add_input("track", raw)
    chosen = tt.maximal_tree(track, seed=cfg["seed"])
    g = track.genus
    report.check("edge count", len(chosen.edges) == 12 * g - 13)
    report.add_input("tree out", io.write(out, io.track_to_json(track, chosen)))
    report.value("edges", len(chosen.edges))
    report.value("root", chosen.root)
    report.value("path", out)
    return report


@command(arg("path"))
def classify(cfg, path):
    """Report the rectangle census of an oriented tree."""
    from . import traintrack as tt

    report = Report(cfg)
    (track, stored), raw = io.load(path, io.track_from_json)
    if stored is None:
        raise io.InputError(f"{path}: no tree present; run the tree command first")
    report.add_input("track", raw)
    cls = tt.classify(stored)
    g = track.genus
    n_o = len(cls.orientable)
    n_u = len(cls.unorientable)
    report.check("free census", n_o + n_u == 6 * g - 5)
    report.check("right-crossing count", len(cls.e_right) == 1 + len(cls.s_right))
    report.check("sign parity", (n_u + len(cls.s_right)) % 2 == 0)
    report.value("orientable", n_o)
    report.value("u_left", len(cls.u_left))
    report.value("u_right", len(cls.u_right))
    report.value("s_left", len(cls.s_left))
    report.value("s_right", len(cls.s_right))
    return report


@command(arg("path"), arg("--count", type=int, default=1, help="points to draw (default 1)"),
         arg("--torsion", dest="torsion_k", type=int, metavar="K",
             help="torsion residue k; random per sample when omitted"),
         OUT, name="sample-y")
def sample_y(cfg, path, count, torsion_k, out):
    """Draw member points with prescribed torsion and write them to a file."""
    d, kind = io.depth(cfg["d"]), io.group_kind(cfg["group"])
    if count < 1:
        raise io.InputError(f"count {count} < 1")
    step = d // al.torsion_order(kind, d)  # the residues the group reaches: step's multiples
    if torsion_k is not None and not 0 <= torsion_k < d:
        raise io.InputError(f"torsion residue {torsion_k} outside 0..{d - 1}")
    if torsion_k is not None and torsion_k % step:
        raise io.InputError(f"torsion residue {torsion_k} is not reached by group {kind} at d={d}; "
                            f"reachable residues: {', '.join(map(str, range(0, d, step)))}")
    from . import cocyclic as cc

    report = Report(cfg)
    (track, stored), raw = io.load(path, io.track_from_json)
    report.add_input("track", raw)
    otree = oriented_tree_for(track, stored, cfg["seed"])
    anchors = report.attempt("anchors", 0, cc.AnchorError, cc.default_anchors, otree, d)
    points = []
    for n in range(count):
        rng = random.Random(cfg["seed"] * 1_000_003 + n)
        k = rng.randrange(d) if torsion_k is None else torsion_k // step
        eps = al.torsion_element(kind, d, k)  # of residue k * step mod d, its label
        c = report.attempt("membership", n, cc.MembershipError,
                           cc.sample_y, otree, d, kind, rng, anchors, eps)
        gap = al.distance(cc.tor_prime(otree, c, anchors).value, eps)
        report.bound("torsion", n, gap, cfg["member_tol"])
        points.append((c, al.snap_torsion(eps, d)[0]))
    report.check("membership", True)
    report.add_input("points out", io.write(out, io.points_to_json(d, kind, cfg["seed"], points)))
    report.value("count", count)
    report.value("path", out)
    return report


def load_member(cfg, report: Report, track_path: str, coords_path: str):
    """Load a track, its oriented tree and a coords file; fail the `membership` check
    unless every point is a member (naming a failing point by `_at`), else return the
    tree and each point as a checked `cocyclic.Member` with its `torsion` label (None
    for a bare coords document).

    A track without a stored tree gets the tree `sample-y` drew the points on:
    the one of the seed a points file records, or of --seed for a bare coords
    document.
    """
    from . import cocyclic as cc

    (track, stored), raw = io.load(track_path, io.track_from_json)
    report.add_input("track", raw)

    def decode(doc):
        seed = io.points_seed(doc)
        otree = oriented_tree_for(track, stored, cfg["seed"] if seed is None else seed)
        return otree, io.coords_from_json(doc, otree)

    (otree, points), raw = io.load(coords_path, decode)
    report.add_input("coords", raw)
    for n, (c, label) in enumerate(points):
        points[n] = report.attempt("membership", n, cc.MembershipError,
                                   cc.require_member, otree, c, cfg["member_tol"]), label
    report.check("membership", True)
    return otree, points


def point_tor(cfg, report: Report, otree, n: int, c, label, check: str):
    """The tor′ of point ``n``, ``c``, at the member tolerance; fail the check ``check``
    naming the point (`_at`) if it fails, or the `torsion labels` check if ``label`` is
    not its residue.  The point of a bare coords document carries no label."""
    from . import cocyclic as cc

    tor = report.attempt(check, n, ValueError, cc.tor_prime, otree, c, tol=cfg["member_tol"])
    if label is not None and tor.residue != label:
        report.fail("torsion labels", _at(n, f"torsion label {label} is not the residue "
                                             f"{tor.residue} of tor_prime"))
    return tor


@command(arg("track_path"), arg("coords_path"))
def torsion(cfg, track_path, coords_path):
    """Print the torsion invariant and its residue for a member point."""
    from . import cocyclic  # noqa: F401 (`point_tor` runs it; loaded before the report starts)

    report = Report(cfg)
    otree, points = load_member(cfg, report, track_path, coords_path)
    for n, (c, label) in enumerate(points):
        tor = point_tor(cfg, report, otree, n, c, label, "torsion lattice")
        report.bound("torsion lattice", n, tor.residual, cfg["member_tol"])
        first = tor if not n else first
    report.value("tor_prime", al.format_log(first.value))
    report.value("residue", first.residue)
    return report


@command(arg("track_path"), arg("coords_path"))
def corfinal(cfg, track_path, coords_path):
    """Compare the boundary-product ledger with its closed form and tor'."""
    from . import slither as sl

    report = Report(cfg)
    otree, points = load_member(cfg, report, track_path, coords_path)
    ledger, negated = "ledger vs closed form", "negated total vs tor_prime"
    tol, member_tol = cfg["tol"], cfg["member_tol"]
    for n, (c, label) in enumerate(points):
        total = report.attempt(ledger, n, ValueError, sl.total_mid_log, otree, c, tol=member_tol)
        tor = point_tor(cfg, report, otree, n, c, label, negated)
        ob_value = report.attempt(negated, n, ValueError, sl.ob_from_product, total, c.d,
                                  member_tol)
        report.bound(ledger, n, al.distance(total, sl.closed_form_total(otree, c)), tol)
        report.bound(negated, n, al.distance(ob_value.value, al.to_cylinder(tor.value)), tol)
        first = (total, tor) if not n else first
    report.value("total", al.format_log(first[0]))
    report.value("tor_prime", al.format_log(first[1].value))
    return report


@command(arg("rep_path", nargs="?"),
         arg("--clock-shift", dest="use_clock", action="store_true",
             help="use the built-in clock-and-shift representation"),
         arg("--identity", dest="use_identity", action="store_true",
             help="use the identity representation"))
def ob(cfg, rep_path, use_clock, use_identity):
    """Evaluate the lifting obstruction of a relator product."""
    if sum((rep_path is not None, use_clock, use_identity)) != 1:
        raise io.InputError("provide exactly one of REP_PATH, --clock-shift, --identity")
    from . import obstruction as obs

    report = Report(cfg)
    if rep_path is None:
        rep = (obs.clock_shift_rep if use_clock else obs.identity_rep)(io.depth(cfg["d"]))
        raw = io.dumps(io.rep_to_json(rep))
    else:
        rep, raw = io.load(rep_path, io.rep_from_json)
    report.add_input("rep", raw)
    value = report.attempt("scalar relator product", 0, ValueError, obs.ob, rep,
                           scalar_tol=max(cfg["tol"], al.SCALAR_TOL))
    report.check("scalar relator product", True, value.residual)
    report.value("ob", al.format_log(value.value))
    report.value("residue", value.residue)
    report.value("d", rep.d)
    return report


@command(arg("matrices_path"),
         arg("--which", choices=("triple", "double"), default="triple",
             help="the invariant (default triple)"),
         arg("--index", dest="index_str",
             help="comma-separated index; triples sum to d, pairs sum to d"))
def flags(cfg, matrices_path, which, index_str):
    """Print a flag invariant (triple or double ratio) and its log."""
    from . import flags as fl

    report = Report(cfg)
    mats, raw = io.load(matrices_path, io.matrices_from_json)
    report.add_input("matrices", raw)
    need = 3 if which == "triple" else 4
    if len(mats) != need:
        raise io.InputError(f"{which} ratio needs {need} matrices, got {len(mats)}")
    d = mats[0].shape[0]
    flag_list = report.attempt("nondegenerate flags", 0, fl.DegenerateFlagError,
                               lambda: [fl.Flag(m) for m in mats])
    report.check("nondegenerate flags", True)
    if index_str is None:
        idx = (1, 1, d - 2) if which == "triple" else (1, d - 1)
    else:
        if not index_str.isascii() or not all(p.strip().isdecimal() for p in index_str.split(",")):
            raise io.InputError(f"bad index {index_str!r}")
        idx = tuple(map(int, index_str.split(",")))
    want_len = 3 if which == "triple" else 2
    if len(idx) != want_len or any(p < 1 for p in idx) or sum(idx) != d:
        raise io.InputError(f"index {idx} must have {want_len} positive parts summing to {d}")
    ratio = (fl.triple_ratio, flag_list) if which == "triple" else (fl.double_ratio, *flag_list)
    value = report.attempt("invariant defined", 0, ValueError, *ratio, idx)
    log = report.attempt("invariant defined", 0, ValueError, fl.log_invariant, value)
    report.check("invariant defined", True)
    report.value("which", which)
    report.value("index", ",".join(map(str, idx)))
    report.value("value", f"{value.real:.12g}{value.imag:+.12g}i")
    report.value("log", al.format_log(log))
    return report


@command()
def selftest(cfg):
    """Run a fast end-to-end battery across every module."""
    from . import cocyclic as cc
    from . import obstruction as obs
    from . import slither as sl
    from . import traintrack as tt

    report = Report(cfg)
    seed, tol = cfg["seed"], cfg["tol"]

    ok = all(al.dimension_count(d, g) == (d * d - 1) * (2 * g - 2)
             for d in range(2, 9) for g in (2, 3, 4))
    report.check("dimension identity", ok)

    track = tt.generate_fixture(2, seed)
    report.check("fixture census",
                 len(track.switch_ids) == 12 and len(track.rects) == 18
                 and len(track.plaques) == 4)
    otree = oriented_tree_for(track, None, seed)
    cls = tt.classify(otree)
    report.check("tree census",
                 len(otree.edges) == 11
                 and len(cls.orientable) + len(cls.unorientable) == 7
                 and len(cls.e_right) == 1 + len(cls.s_right)
                 and (len(cls.unorientable) + len(cls.s_right)) % 2 == 0)

    rng = random.Random(seed)
    worst = 0.0
    try:
        for d, kind in ((3, "cylinder"), (4, "zd:12"), (2, "real")):
            eps = al.torsion_element(kind, d, rng.randrange(d))
            c = cc.sample_y(otree, d, kind, rng, eps=eps)
            worst = max(worst, al.distance(cc.tor_prime(otree, c).value, eps))
    except cc.MembershipError:
        worst = math.inf
    report.check("sample and torsion", worst <= cfg["member_tol"], worst)

    worst = 0.0
    try:
        for d in (2, 3, 4):
            c = cc.sample_y(otree, d, "cylinder", rng)
            total = sl.total_mid_log(otree, c)
            worst = max(worst, al.distance(total, sl.closed_form_total(otree, c)),
                        al.distance(sl.ob_from_product(total, d).value,
                                    cc.tor_prime(otree, c).value))
    except cc.MembershipError:
        worst = math.inf
    report.check("boundary product", worst <= tol, worst)

    worst = 0.0
    for d in (2, 3, 4, 5):  # ob's value is the lattice point of its residue by construction
        value = obs.ob(obs.clock_shift_rep(d))
        worst = max(worst, value.residual if value.residue in (1, d - 1) else math.inf)
    report.check("clock-shift obstruction", worst <= tol, worst)
    report.check("octagon obstruction", obs.ob(obs.fuchsian_octagon(3)).residue == 0)

    return report


if __name__ == "__main__":
    main()
