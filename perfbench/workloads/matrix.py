"""matrix: flag and obstruction tasks, the numpy layer, in-process.

One op is either a flag task (`random_flag_triple`, `triple_ratio` over every
triple index, `unipotent_fixing`, `compatible_triple`) or an obstruction task
(`ob` of a clock-shift, octagon or diagonal representation, plus
`lift_independence`).  This is the only workload in which the numpy
`flags`/`obstruction` layer does the work rather than only being imported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import FrozenSet, List

import numpy as np

from switchyard import algebra as al
from switchyard import flags as fl
from switchyard import obstruction as obs

# The octagon stops at d=5, where its construction is still inside its
# precision budget.  lift_independence on the octagon stops at d=4: at d=5 a
# rotated relator product is no longer scalar to 1e-6 and `ob` raises (a
# known precision limit of the symmetric-power route).
MIX = ([("flag", d) for d in range(3, 9)] + [("clock", d) for d in range(2, 9)]
       + [("octagon", d) for d in range(2, 6)] + [("diagonal", d) for d in range(2, 9)])
OCTAGON_LIFT_MAX_D = 4

UNIPOTENT_RTOL = 1e-8   # criterion 8
CLOCK_TOL = 1e-9        # criterion 10, clock-and-shift
OCTAGON_TOL = 1e-6      # criterion 10, octagon and abelian representations


@dataclass(frozen=True)
class Task:
    kind: str
    d: int
    task_seed: int
    expect: FrozenSet[int]   # residues the oracle accepts for ob


def _expected(kind: str, d: int) -> FrozenSet[int]:
    if kind == "clock":
        return frozenset({1, d - 1})
    return frozenset({0})


class Workload:
    ROUND_CYCLES = 5   # a multiple of run.PARTS
    RSS_OF_CHILDREN = False

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed = seed
        start = seed % len(MIX)
        self.mix = MIX[start:] + MIX[:start]
        self.tables = {d: al.index_tables(d) for d in range(2, 9)}

    def _tasks(self, stream: int) -> List[Task]:
        rng = random.Random(self.seed * 1_000_003 + stream)
        return [Task(kind, d, rng.getrandbits(63), _expected(kind, d)) for kind, d in self.mix]

    def warmup(self) -> List[Task]:
        return self._tasks(-1)

    def inputs(self, cycle: int) -> List[Task]:
        return self._tasks(cycle)

    def run(self, t: Task, rec):
        rng = random.Random(t.task_seed)
        if t.kind == "flag":
            return self._flag(t, rng, rec)
        if t.kind == "clock":
            rep = rec.call("obstruction.clock_shift_rep", obs.clock_shift_rep, t.d)
        elif t.kind == "octagon":
            rep = rec.call("obstruction.fuchsian_octagon", obs.fuchsian_octagon, t.d)
        else:
            rep = rec.call("obstruction.diagonal_rep", obs.diagonal_rep, t.d, 2, rng)
        value = rec.call("obstruction.ob", obs.ob, rep)
        lift_ok = None
        if t.kind != "octagon" or t.d <= OCTAGON_LIFT_MAX_D:
            lift_ok = rec.call("obstruction.lift_independence", obs.lift_independence, rep, rng)
        return value, lift_ok

    def _flag(self, t: Task, rng, rec):
        triple = rec.call("flags.random_flag_triple", fl.random_flag_triple, t.d, rng)
        ratios = {j: rec.call("flags.triple_ratio", fl.triple_ratio, triple, j)
                  for j in self.tables[t.d].B}
        f1, f2, f3 = triple
        u = rec.call("flags.unipotent_fixing", fl.unipotent_fixing, f2, f1, f3)
        total = rec.call("flags.log_ratio_sum", fl.log_ratio_sum, triple, t.d)
        r = al.cylinder(total.value[0] / 3.0, total.value[1] / 3.0)
        bases = rec.call("flags.compatible_triple", fl.compatible_triple, triple, r)
        return triple, ratios, u, r, bases

    def check(self, t: Task, out) -> List[str]:
        if t.kind == "flag":
            return _check_flag(t.d, *out)
        value, lift_ok = out
        bad = []
        if value.residue not in t.expect:
            bad.append(f"{t.kind} d={t.d}: ob residue {value.residue} not in {sorted(t.expect)}")
        tol = CLOCK_TOL if t.kind == "clock" else OCTAGON_TOL
        if value.residual > tol:
            bad.append(f"{t.kind} d={t.d}: ob residual {value.residual:.3e} > {tol}")
        target = al.torsion_element("cylinder", t.d, value.residue)
        if not al.elements_equal(value.value, target, CLOCK_TOL):
            bad.append(f"{t.kind} d={t.d}: ob value is not the residue's torsion element")
        if lift_ok is False:
            bad.append(f"{t.kind} d={t.d}: lift_independence fails")
        return bad

    def close(self) -> None:
        pass


def off_by_one(t: Task) -> Task:
    if t.kind == "flag":   # the flag oracle has no expected value to shift
        return t
    return replace(t, expect=frozenset((k + 1) % t.d for k in t.expect) - t.expect)


def _ratio(y: np.ndarray, x: np.ndarray) -> complex:
    k = int(np.argmax(np.abs(x)))
    return y[k] / x[k]


def _check_flag(d: int, triple, ratios, u, r, bases) -> List[str]:
    """Criterion 8: the unipotent matrix against its closed-form action on the
    adapted basis, and the chained scaling of the compatible bases."""
    f1, f2, f3 = triple
    bad = []
    f = fl.adapted_basis((f2, f3, f1))
    fp0 = fl.adapted_basis((f3, f1, f2))
    fp = fp0 * _ratio(f[:, 0], fp0[:, d - 1])
    for m in range(1, d + 1):
        prod = 1.0 + 0j
        for j, x in ratios.items():
            if j[1] < m:
                prod *= x
        lhs = u @ f[:, m - 1]
        rhs = (-1) ** (m - 1) * prod * fp[:, d - m]
        scale = max(np.max(np.abs(rhs)), 1e-30)
        if np.max(np.abs(lhs - rhs)) > UNIPOTENT_RTOL * scale:
            bad.append(f"flag d={d}: unipotent formula differs from the linear solve at m={m}")
    s2 = fl.exp_value(r) ** 2
    fb, gb, hb = bases
    for first, second in ((fb, gb), (gb, hb), (hb, fb)):
        ref = max(np.linalg.norm(second[:, d - 1]), 1e-30)
        if np.linalg.norm(s2 * first[:, 0] - second[:, d - 1]) > UNIPOTENT_RTOL * ref:
            bad.append(f"flag d={d}: compatible bases are not chained by exp(2r)")
    return bad
