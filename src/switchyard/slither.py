"""Log-coefficient bookkeeping along the tree boundary walk.

The counterclockwise boundary of the maximal tree crosses every switch cusp
once and every non-tree rectangle twice.  For a fixed basis index m, each
crossing carries a logarithmic coefficient in the cylinder group determined
by the coordinate point; leaf runs carry the identity.  Individually the
rectangle crossings determine only ratios, so the ledger consumes them in
same-rectangle pairs.  At the middle index m = floor((d+1)/2) the full
product collapses to a closed form whose negative is the d-torsion
invariant of the coordinate point; the per-step route and the closed form
are kept separate so they can be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from . import algebra as al
from .algebra import GroupElement, TorsionValue, to_cylinder
from .cocyclic import Coords, require_member
from .traintrack import LEFT, RIGHT, OrientedTree, TrainTrack, boundary_walk, classify

CYL = "cylinder"


def _sign_log(k: int) -> GroupElement:
    # (-1)^k in logarithmic form
    return al.cylinder(0.0, math.pi * k)


@dataclass(frozen=True)
class PlaqueRoot:
    """A chosen third of every plaque's full triple-index sum.

    ``values[p]`` is r(p) with 3 r(p) equal to the sum of the plaque's
    B-vector; ``branches[p]`` records which of the three roots was taken.
    """

    values: Mapping[int, GroupElement]
    branches: Mapping[int, int]


def plaque_roots(track: TrainTrack, c: Coords,
                 branches: Optional[Mapping[int, int]] = None) -> PlaqueRoot:
    tables = al.index_tables(c.d)
    values: Dict[int, GroupElement] = {}
    chosen: Dict[int, int] = {}
    for pl in track.plaques:
        t = pl.switches_ccw[0]
        full = al.group_sum(CYL, (to_cylinder(c.z[t][j]) for j in tables.B))
        k = 0 if branches is None else int(branches.get(pl.id, 0)) % 3
        ang = full.value[1] % al.TWO_PI
        r = al.cylinder(full.value[0] / 3.0, ang / 3.0 + k * al.TWO_PI / 3.0)
        if not al.elements_equal(al.int_scale(3, r), full):
            raise AssertionError("cube root drifted from the triple-index sum")
        values[pl.id] = r
        chosen[pl.id] = k
    return PlaqueRoot(values=values, branches=chosen)


def switch_step_log(track: TrainTrack, m: int, t: int, side: str,
                    c: Coords, roots: PlaqueRoot) -> GroupElement:
    d = c.d
    if not 1 <= m <= d:
        raise ValueError(f"basis index {m} out of range 1..{d}")
    if side not in (LEFT, RIGHT):
        raise ValueError(f"unknown side {side!r}")
    bound = m - 1 if side == RIGHT else d - m
    tables = al.index_tables(d)
    val = _sign_log(bound)
    val = al.group_sub(val, al.int_scale(2, roots.values[track.plaque_of_switch(t).id]))
    theta = al.group_sum(CYL, (to_cylinder(c.z[t][j]) for j in tables.B if j[1] <= bound))
    return al.group_add(val, theta)


def rectangle_pair_log(m: int, rid: int, klass: str, c: Coords) -> GroupElement:
    d = c.d
    if not 1 <= m <= d:
        raise ValueError(f"basis index {m} out of range 1..{d}")
    if klass == "orientable":
        return al.zero(CYL)
    if klass not in ("u_left", "u_right"):
        raise ValueError(f"unknown rectangle class {klass!r}")
    if rid not in c.v:
        raise ValueError(f"rectangle {rid} carries no pair vector (tree edge?)")
    if m <= (d + 1) // 2:
        span = range(m, d - m + 1)
        positive = klass == "u_left"
    else:
        span = range(d - m + 1, m)
        positive = klass == "u_right"
    s = al.group_sum(CYL, (to_cylinder(c.v[rid][i1 - 1]) for i1 in span))
    base = _sign_log(d - 1)
    return al.group_add(base, s) if positive else al.group_sub(base, s)


@dataclass(frozen=True)
class LedgerEntry:
    n: int
    kind: str  # "leaf" | "switch" | "rectangle"
    payload: str
    contribution: Optional[GroupElement]  # None on the opening half of a pair

    def line(self) -> str:
        tail = "deferred" if self.contribution is None else al.format_log(self.contribution)
        return f"step {self.n} {self.kind} {self.payload} {tail}"


@dataclass(frozen=True)
class SlitherLedger:
    d: int
    m: int
    entries: Tuple[LedgerEntry, ...]
    total: GroupElement

    def lines(self) -> List[str]:
        return [e.line() for e in self.entries]

    def report(self) -> str:
        return "\n".join(self.lines())


def build_ledger(tree: OrientedTree, c: Coords, m: Optional[int] = None,
                 roots: Optional[PlaqueRoot] = None,
                 tol: float = al.MEMBER_TOL) -> SlitherLedger:
    c = require_member(tree, c, tol)
    track = tree.track
    d = c.d
    if m is None:
        m = (d + 1) // 2
    if roots is None:
        roots = plaque_roots(track, c)
    cls = classify(tree)
    klass_of = {rid: "orientable" for rid in cls.orientable}
    klass_of.update({rid: "u_left" for rid in cls.u_left})
    klass_of.update({rid: "u_right" for rid in cls.u_right})

    entries: List[LedgerEntry] = []
    total = al.zero(CYL)
    open_rect: Dict[int, int] = {}
    for n, st in enumerate(boundary_walk(tree)):
        if st.type == "leaf":
            entry = LedgerEntry(n, "leaf", f"run={st.arcs}", al.zero(CYL))
        elif st.type == "switch":
            val = switch_step_log(track, m, st.switch, st.side, c, roots)
            entry = LedgerEntry(n, "switch", f"switch={st.switch} side={st.side}", val)
        else:
            rid = st.rect
            if rid in open_rect:
                val = rectangle_pair_log(m, rid, klass_of[rid], c)
                payload = f"rect={rid} end={st.end} closes={open_rect.pop(rid)}"
                entry = LedgerEntry(n, "rectangle", payload, val)
            else:
                open_rect[rid] = n
                entry = LedgerEntry(n, "rectangle", f"rect={rid} end={st.end} opens", None)
        if entry.contribution is not None:
            total = al.group_add(total, entry.contribution)
        entries.append(entry)
    if open_rect:
        raise AssertionError(f"unpaired rectangle steps: {sorted(open_rect)}")
    return SlitherLedger(d=d, m=m, entries=tuple(entries), total=total)


def total_mid_log(tree: OrientedTree, c: Coords,
                  roots: Optional[PlaqueRoot] = None,
                  tol: float = al.MEMBER_TOL) -> GroupElement:
    return build_ledger(tree, c, None, roots, tol).total


def closed_form_total(tree: OrientedTree, c: Coords) -> GroupElement:
    """Evaluate the boundary-product total without walking the boundary.

    Kept separate from `build_ledger` so the two routes can be compared;
    for even d the middle-column rectangle and left-switch terms enter.
    """
    d = c.d
    tables = al.index_tables(d)
    cls = classify(tree)
    total = al.group_sum(CYL, (to_cylinder(c.z[pl.switches_ccw[0]][j])
                               for pl in tree.track.plaques
                               for j in tables.B_star))
    if d % 2 == 0:
        mid = tables.i_zero[0] - 1
        ul = al.group_sum(CYL, (to_cylinder(c.v[r][mid]) for r in cls.u_left))
        ur = al.group_sum(CYL, (to_cylinder(c.v[r][mid]) for r in cls.u_right))
        total = al.group_add(total, al.group_sub(ul, ur))
        total = al.group_add(total, al.group_sum(
            CYL, (to_cylinder(c.z[t][j]) for t in cls.s_left for j in tables.B_zero)))
    return total


def ob_from_product(total: GroupElement, d: int) -> TorsionValue:
    return TorsionValue(value=al.group_neg(to_cylinder(total)), d=d)


def cube_root_invariance(tree: OrientedTree, c: Coords,
                         roots_a: PlaqueRoot, roots_b: PlaqueRoot,
                         tol: float = al.DEFAULT_TOL) -> bool:
    ta = build_ledger(tree, c, roots=roots_a).total
    tb = build_ledger(tree, c, roots=roots_b).total
    return al.elements_equal(ta, tb, tol)
