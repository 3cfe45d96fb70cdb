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

Every step's log is an integer form over a point's v and z (`LogRow`).  The
forms of one walk, summed with the cube roots folded away and the signs
cancelled, give `_ledger_form`, one form over v and z; it and `_closed_form`
are recorded once per tree and d by `cocyclic.recorded_rows`, as tor′ is, and
each is run by one `al.run` on a `Member`'s lanes in the point's own group,
then embedded in the cylinder.  `build_ledger` runs the same walk over the
point's own values, step by step, behind reports and tests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from . import algebra as al
from .algebra import GroupElement, TorsionValue, to_cylinder
from .cocyclic import Member, lanes_on, recorded_rows, require_member
from .traintrack import LEFT, RIGHT, OrientedTree, TrainTrack, boundary_walk, classify

CYL = "cylinder"


def _sign_log(k: int) -> GroupElement:
    # (-1)^k in logarithmic form
    return al.cylinder(0.0, math.pi * k)


class PlaqueRoot(NamedTuple):
    """A chosen third of every plaque's full triple-index sum.

    ``values[p]`` is r(p) with 3 r(p) equal to the sum of the plaque's
    B-vector; ``branches[p]`` records which of the three roots was taken.
    """

    values: Mapping[int, GroupElement]
    branches: Mapping[int, int]


def plaque_roots(track: TrainTrack, c: Member,
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


class LogRow(NamedTuple):
    """An integer-linear form in a point's slots, valued in the cylinder group.

    Its value is ``pi`` times pi*i, plus n times the cube root of plaque p for
    each (p, n) in ``root``, plus n * x for each (n, x) in ``terms``, x a slot
    value read from the point's v or z.
    """

    pi: int = 0
    root: Tuple[Tuple[int, int], ...] = ()
    terms: Tuple[Tuple[int, object], ...] = ()


class RootFoldError(ValueError):
    """The ledger form does not fold: a plaque's cube root enters it with a coefficient
    not divisible by 3, or its steps' signs leave an odd multiple of pi*i."""


def _check_index(m: int, d: int) -> None:
    if not 1 <= m <= d:
        raise ValueError(f"basis index {m} out of range 1..{d}")


def _switch_row(track: TrainTrack, m: int, t: int, side: str, d: int, z) -> LogRow:
    _check_index(m, d)
    if side not in (LEFT, RIGHT):
        raise ValueError(f"unknown side {side!r}")
    bound = m - 1 if side == RIGHT else d - m
    return LogRow(pi=bound, root=((track.plaque_of_switch(t).id, -2),),
                  terms=tuple((1, z[t][j]) for j in al.index_tables(d).B if j[1] <= bound))


def _rectangle_row(m: int, rid: int, klass: str, d: int, v) -> LogRow:
    _check_index(m, d)
    if klass == "orientable":
        return LogRow()
    if klass not in ("u_left", "u_right"):
        raise ValueError(f"unknown rectangle class {klass!r}")
    if rid not in v:
        raise ValueError(f"rectangle {rid} carries no pair vector (tree edge?)")
    if m <= (d + 1) // 2:
        span = range(m, d - m + 1)
        positive = klass == "u_left"
    else:
        span = range(d - m + 1, m)
        positive = klass == "u_right"
    sign = 1 if positive else -1
    return LogRow(pi=d - 1, terms=tuple((sign, v[rid][i1 - 1]) for i1 in span))


def _evaluate(row: LogRow, roots: Optional[PlaqueRoot]) -> GroupElement:
    terms = [(n, to_cylinder(x)) for n, x in row.terms]
    terms += [(n, roots.values[p]) for p, n in row.root]
    terms.append((row.pi, _sign_log(1)))
    return al.combine(CYL, terms)


def switch_step_log(track: TrainTrack, m: int, t: int, side: str,
                    c: Member, roots: PlaqueRoot) -> GroupElement:
    return _evaluate(_switch_row(track, m, t, side, c.d, c.z), roots)


def rectangle_pair_log(m: int, rid: int, klass: str, c: Member) -> GroupElement:
    return _evaluate(_rectangle_row(m, rid, klass, c.d, c.v), None)


class LedgerEntry(NamedTuple):
    n: int
    kind: str  # "leaf" | "switch" | "rectangle"
    payload: str
    contribution: Optional[GroupElement]  # None on the opening half of a pair

    def line(self) -> str:
        tail = "deferred" if self.contribution is None else al.format_log(self.contribution)
        return f"step {self.n} {self.kind} {self.payload} {tail}"


class SlitherLedger(NamedTuple):
    d: int
    m: int
    entries: Tuple[LedgerEntry, ...]
    total: GroupElement

    def lines(self) -> List[str]:
        return [e.line() for e in self.entries]


def _ledger_steps(tree: OrientedTree, m: int, d: int, v, z):
    """The boundary walk at basis index m as (n, kind, payload, row) per step, each
    row a form over the point's ``v`` and ``z``; row is None on the opening half
    of a rectangle pair."""
    track = tree.track
    cls = classify(tree)
    klass_of = {rid: "orientable" for rid in cls.orientable}
    klass_of.update({rid: "u_left" for rid in cls.u_left})
    klass_of.update({rid: "u_right" for rid in cls.u_right})
    open_rect: Dict[int, int] = {}
    for n, st in enumerate(boundary_walk(tree)):
        if st.type == "leaf":
            yield n, "leaf", f"run={st.arcs}", LogRow()
        elif st.type == "switch":
            yield (n, "switch", f"switch={st.switch} side={st.side}",
                   _switch_row(track, m, st.switch, st.side, d, z))
        elif st.rect in open_rect:
            payload = f"rect={st.rect} end={st.end} closes={open_rect.pop(st.rect)}"
            yield n, "rectangle", payload, _rectangle_row(m, st.rect, klass_of[st.rect], d, v)
        else:
            open_rect[st.rect] = n
            yield n, "rectangle", f"rect={st.rect} end={st.end} opens", None
    if open_rect:
        raise AssertionError(f"unpaired rectangle steps: {sorted(open_rect)}")


def build_ledger(tree: OrientedTree, c: Member, m: Optional[int] = None,
                 roots: Optional[PlaqueRoot] = None,
                 tol: float = al.MEMBER_TOL) -> SlitherLedger:
    """Walk the boundary for one point, step by step, with the given cube roots."""
    c = require_member(tree, c, tol)
    if m is None:
        m = (c.d + 1) // 2
    if roots is None:
        roots = plaque_roots(tree.track, c)
    entries = tuple(LedgerEntry(n, kind, payload, None if row is None else _evaluate(row, roots))
                    for n, kind, payload, row in _ledger_steps(tree, m, c.d, c.v, c.z))
    total = al.combine(CYL, ((1, e.contribution) for e in entries if e.contribution is not None))
    return SlitherLedger(d=c.d, m=m, entries=entries, total=total)


def _ledger_form(tree: OrientedTree, d: int, v, z) -> List[List[Tuple[int, object]]]:
    """The middle-index ledger total over a point's ``v`` and ``z``, as one form: the
    walk's step forms summed by slot, each plaque's cube root folded away.

    At m = floor((d+1)/2) the walk's pi*i count is |s_right|(m-1) + |s_left|(d-m)
    + |U|(d-1), U the unorientable rectangles off the tree: it is even exactly
    when |U| + |s_right| is (the sign parity the CLI's `classify` command
    checks), so the signs cancel and the form carries no pi*i."""
    pi, root = 0, {}
    total: Dict[object, int] = {}  # slot -> coefficient
    for _, _, _, row in _ledger_steps(tree, (d + 1) // 2, d, v, z):
        if row is None:
            continue
        pi += row.pi
        for p, n in row.root:
            root[p] = root.get(p, 0) + n
        for n, s in row.terms:
            total[s] = total.get(s, 0) + n
    # 3 r(p) is the plaque's B-sum at its first switch modulo 2*pi*i, so a
    # multiple n of r(p) folds into n/3 times that sum for every cube root
    for pl in tree.track.plaques:
        n = root.get(pl.id, 0)
        if n % 3:
            raise RootFoldError(f"plaque {pl.id} root coefficient {n} is not divisible by 3")
        for s in z[pl.switches_ccw[0]].values():
            total[s] = total.get(s, 0) + n // 3
    if pi % 2:
        raise RootFoldError(f"the walk's signs leave an odd multiple {pi} of pi*i")
    return [[(n, s) for s, n in total.items() if n]]


def _run_form(tree: OrientedTree, c: Member, formula) -> GroupElement:
    """``formula``'s recorded row, run on ``c``'s lanes in its own group, embedded in
    the cylinder once."""
    total, = al.run(c.kind, recorded_rows(tree, c.d, formula), lanes_on(tree, c))
    return GroupElement(CYL, al.cylinder_lane(c.kind, total))


def total_mid_log(tree: OrientedTree, c: Member, tol: float = al.MEMBER_TOL) -> GroupElement:
    """The boundary-product total at the middle index, from the recorded ledger form.

    It equals `build_ledger(tree, c).total` modulo 2*pi*i, for every choice of
    cube roots; the sum is taken in the point's own group and rounded once.
    """
    return _run_form(tree, require_member(tree, c, tol), _ledger_form)


def _closed_form(tree: OrientedTree, d: int, v, z) -> List[List[Tuple[int, object]]]:
    """The closed-form total's signed terms over a point's ``v`` and ``z``, as one form."""
    tables = al.index_tables(d)
    cls = classify(tree)
    terms = [(1, z[pl.switches_ccw[0]][j]) for pl in tree.track.plaques for j in tables.B_star]
    if d % 2 == 0:
        mid = tables.i_zero[0] - 1
        terms += [(n, v[r][mid]) for n, rects in ((1, cls.u_left), (-1, cls.u_right))
                  for r in rects]
        terms += [(1, z[t][j]) for t in cls.s_left for j in tables.B_zero]
    return [terms]


def closed_form_total(tree: OrientedTree, c: Member) -> GroupElement:
    """Evaluate the boundary-product total without walking the boundary.

    Kept separate from `build_ledger` so the two routes can be compared;
    for even d the middle-column rectangle and left-switch terms enter.  It is
    run unchecked on the point's lanes (read by `cocyclic.lanes_on`) in its own
    group, as `total_mid_log` is."""
    return _run_form(tree, c, _closed_form)


def ob_from_product(total: GroupElement, d: int, tol: float = al.MEMBER_TOL) -> TorsionValue:
    return TorsionValue(al.group_neg(to_cylinder(total)), d, tol)


def cube_root_invariance(tree: OrientedTree, c: Member,
                         roots_a: PlaqueRoot, roots_b: PlaqueRoot,
                         tol: float = al.DEFAULT_TOL) -> bool:
    ta = build_ledger(tree, c, roots=roots_a).total
    tb = build_ledger(tree, c, roots=roots_b).total
    return al.elements_equal(ta, tb, tol)
