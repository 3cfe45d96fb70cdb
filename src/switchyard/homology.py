"""Chain calculus on the orientation double cover of a track.

Degree-one chains are supported on oriented rectangle lifts, degree-zero
chains on oriented vertical-boundary lifts; both carry coefficient vectors
indexed by the pair set A.  Keys use the absolute lift bit (0 = canonical
frame at the reference end), so chains are meaningful before any tree is
chosen.

Coefficient conventions: the hat involution on an A-indexed vector reverses
it; on a triple index it reverses the triple (this pairs with reversing a
vertex labeling, which also flips the sign of the stored value).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from . import algebra as al
from .algebra import GA, GroupElement, memo
from .cocyclic import ZField, check_diamond
from .io import lane_to_json
from .traintrack import (
    CoverLifts,
    OrientedTree,
    PORTS,
    TrainTrack,
    classify,
    is_big,
)


class SolvabilityViolated(ValueError):
    pass


def ga_zero(kind: str, d: int) -> GA:
    return tuple(al.zero(kind) for _ in range(d - 1))


def ga_add(a: GA, b: GA) -> GA:
    return tuple(al.group_add(x, y) for x, y in zip(a, b))


def ga_neg(a: GA) -> GA:
    return tuple(al.group_neg(x) for x in a)


def ga_hat(a: GA) -> GA:
    # position k holds the entry for (k+1, d-k-1); swapping the pair reverses
    return tuple(reversed(a))


def ga_is_zero(a: GA, tol: float = al.DEFAULT_TOL) -> bool:
    return all(al.is_zero(x, tol) for x in a)


def ga_equal(a: GA, b: GA, tol: float = al.DEFAULT_TOL) -> bool:
    return all(al.elements_equal(x, y, tol) for x, y in zip(a, b))


def ga_random(kind: str, d: int, rng) -> GA:
    return tuple(al._from_lanes(kind, al.random_lanes(kind, rng, d - 1)))


class _Chain:
    def __init__(self, kind: str, d: int, coeffs: Optional[Dict[Tuple[int, int], GA]] = None):
        self.kind, self.d = kind, d
        self.coeffs = {} if coeffs is None else coeffs

    def get(self, key: Tuple[int, int]) -> GA:
        return self.coeffs.get(key, ga_zero(self.kind, self.d))

    def accumulate(self, key: Tuple[int, int], val: GA) -> None:
        self.coeffs[key] = ga_add(self.get(key), val)

    def support(self) -> List[Tuple[int, int]]:
        return sorted(k for k, v in self.coeffs.items() if not ga_is_zero(v))

    def is_zero(self, tol: float = al.DEFAULT_TOL) -> bool:
        return all(ga_is_zero(v, tol) for v in self.coeffs.values())

    def _like(self, coeffs) -> "_Chain":
        return type(self)(self.kind, self.d, coeffs)

    def add(self, other: "_Chain") -> "_Chain":
        out = dict(self.coeffs)
        res = self._like(out)
        for k, v in other.coeffs.items():
            res.accumulate(k, v)
        return res

    def neg(self) -> "_Chain":
        return self._like({k: ga_neg(v) for k, v in self.coeffs.items()})

    def sub(self, other: "_Chain") -> "_Chain":
        return self.add(other.neg())

    def equal(self, other: "_Chain", tol: float = al.DEFAULT_TOL) -> bool:
        return self.sub(other).is_zero(tol)


class Chain1(_Chain):
    """Supported on rectangle lifts (rectangle id, bit)."""


class Chain0(_Chain):
    """Supported on vertical-boundary lifts (switch id, bit)."""


def iota_star(c: _Chain) -> _Chain:
    if isinstance(c, Chain1):
        return Chain1(c.kind, c.d, {(r, b ^ 1): ga_neg(v) for (r, b), v in c.coeffs.items()})
    return Chain0(c.kind, c.d, {(t, b ^ 1): v for (t, b), v in c.coeffs.items()})


def hat(c: _Chain) -> _Chain:
    return type(c)(c.kind, c.d, {k: ga_hat(v) for k, v in c.coeffs.items()})


def forward_end(track: TrainTrack, lifts: CoverLifts, rid: int, lift_bit: int) -> int:
    """End index at which the oriented core of this lift terminates.

    The core is oriented to cross each tie from its right to its left; in
    the canonical frame it therefore travels toward the big side of the end
    switch.
    """
    r = track.rect_by_id[rid]
    for e in (0, 1):
        p = r.end(e)[1]
        bit = lifts.end_bit(rid, lift_bit, e)
        if (not is_big(p) and bit == 0) or (is_big(p) and bit == 1):
            return e
    raise AssertionError("no forward end found")


def boundary(lifts: CoverLifts, c: Chain1) -> Chain0:
    track = lifts.tree.track
    out = Chain0(c.kind, c.d)
    for (rid, b), g in c.coeffs.items():
        fwd = forward_end(track, lifts, rid, b)
        r = track.rect_by_id[rid]
        for e in (0, 1):
            s = r.end(e)[0]
            key = (s, lifts.end_bit(rid, b, e))
            out.accumulate(key, g if e == fwd else ga_neg(g))
    return out


def beta(lifts: CoverLifts, u_tree: Mapping[int, GA], u_free: Mapping[int, GA],
         kind: str, d: int) -> Chain1:
    track = lifts.tree.track
    overlap = set(u_tree) & set(u_free)
    if overlap:
        raise ValueError(f"rectangle coefficients given twice: {sorted(overlap)}")
    u = {**u_tree, **u_free}
    missing = [r.id for r in track.rects if r.id not in u]
    if missing:
        raise ValueError(f"missing rectangle coefficients: {missing}")
    out = Chain1(kind, d)
    for r in track.rects:
        b = lifts.r_bit[r.id]
        out.accumulate((r.id, b), u[r.id])
        out.accumulate((r.id, b ^ 1), ga_hat(u[r.id]))
    return out


def delta(tree: OrientedTree, w: Mapping[int, GA], kind: str, d: int) -> Chain0:
    missing = [s for s in tree.track.switch_ids if s not in w]
    if missing:
        raise ValueError(f"missing switch coefficients: {missing}")
    out = Chain0(kind, d)
    for s in tree.track.switch_ids:
        b = tree.bit(s)
        out.accumulate((s, b), w[s])
        out.accumulate((s, b ^ 1), ga_neg(ga_hat(w[s])))
    return out


# -- theta-type coordinates ---------------------------------------------------


def k_theta(track: TrainTrack, z: ZField, kind: str, d: int, tol: float = al.DEFAULT_TOL) -> Chain0:
    """Endpoint class of the theta-type data, computed lift by lift."""
    check_diamond(track, z, d, tol)
    tables = al.index_tables(d)
    out = Chain0(kind, d)
    for t in track.switch_ids:
        canon = tuple(
            al.combine(kind, [(-1, z[t][j]) for j in tables.B if j[1] == i[0]])
            for i in tables.A
        )
        rev = tuple(
            al.group_sum(kind, (z[t][j] for j in tables.B if j[1] == i[1]))
            for i in tables.A
        )
        out.accumulate((t, 0), canon)
        out.accumulate((t, 1), rev)
    return out


def w_from_z(tree: OrientedTree, z: ZField, kind: str, d: int) -> Dict[int, GA]:
    """Per-switch A-vectors whose delta-chain matches k_theta."""
    tables = al.index_tables(d)
    cls = classify(tree)
    w: Dict[int, GA] = {}
    for t in tree.track.switch_ids:
        if t in cls.s_left:
            w[t] = tuple(
                al.group_sum(kind, (z[t][j] for j in tables.B if j[1] == i[1]))
                for i in tables.A
            )
        else:
            w[t] = tuple(
                al.combine(kind, [(-1, z[t][j]) for j in tables.B if j[1] == i[0]])
                for i in tables.A
            )
    return w


# -- tree solver --------------------------------------------------------------


def balance_defect(tree: OrientedTree, v_free: Mapping[int, GA], w: Mapping[int, GA],
                   kind: str, d: int) -> GA:
    """Left side minus right side of the solvability condition."""
    cls = classify(tree)
    top = d - 2

    def at(k: int) -> GroupElement:
        terms = [(n, v_free[r][i]) for n, rects in ((1, cls.u_right), (-1, cls.u_left))
                 for r in rects for i in (k, top - k)]
        terms += [(-1, w[t][k]) for t in tree.track.switch_ids]
        return al.combine(kind, terms)

    return tuple(at(k) for k in range(d - 1))


class SolverPlan(NamedTuple):
    """`solve_tree` on one cover at one d, recorded once by `solver_plan`.

    Lanes are numbered in order: w[s][k] for each switch s in id order and
    k < d-1, v_free[r][k] for each rectangle r off the tree (``rects``, in id
    order), then one per row of ``steps``, valued on the lanes before it: d-1
    for each edge of ``solved``.  The rows of ``last``, the final switch's
    residual, are minus `balance_defect`: they vanish exactly on a balanced
    input.  One `al.run` evaluates ``steps`` and then ``last``.
    """

    rects: Tuple[int, ...]
    steps: Tuple[al.Row, ...]
    solved: Tuple[int, ...]
    last: Tuple[al.Row, ...]


def solver_plan(lifts: CoverLifts, d: int, order: str = "low_first") -> SolverPlan:
    return memo(lifts, "solver_plan", _record_plan, d, order)


def _record_plan(lifts: CoverLifts, d: int, order: str) -> SolverPlan:
    tree = lifts.tree
    track = tree.track
    slots = track.slot_map()
    n = d - 1
    rects = tuple(sorted(r.id for r in track.rects if r.id not in tree.edges))
    # each vector reads d-1 consecutive lanes, its hat the same lanes reversed;
    # ``lanes`` holds the v_free vectors and then the solved ones, by rectangle id
    w_lanes = {s: range(n * q, n * q + n) for q, s in enumerate(track.switch_ids)}
    lanes = {r: range(n * q, n * q + n) for q, r in enumerate(rects, len(w_lanes))}

    # each incident end contributes sign(port) * (u, or hat(u) when flipped) at lift (s, 0)
    def end_term(rid: int, e: int) -> Tuple[int, bool]:
        p = track.rect_by_id[rid].end(e)[1]
        b_here = 0 if e == 0 else lifts.end_bit(rid, 0, 1)  # lift keyed 0 at this end
        return -1 if is_big(p) else 1, b_here != lifts.r_bit[rid]

    tree_edge_at: Dict[int, List[Tuple[int, int]]] = {s: [] for s in track.switch_ids}
    for rid in tree.edges:
        for e in (0, 1):
            tree_edge_at[track.rect_by_id[rid].end(e)[0]].append((rid, e))

    def pending(s: int) -> List[Tuple[int, int]]:
        # the ends at s of tree edges not solved yet
        return [(rid, e) for rid, e in tree_edge_at[s] if rid not in lanes]

    def residual(s: int):
        # the equation at (s, 0): rhs minus every known end term, as (coefficient, lanes)
        terms = [(1, w_lanes[s]) if tree.bit(s) == 0 else (-1, w_lanes[s][::-1])]
        for rid, e in (slots[(s, p)] for p in PORTS):
            if rid in lanes:
                sign, flip = end_term(rid, e)
                terms.append((-sign, lanes[rid][::-1] if flip else lanes[rid]))
        return terms

    def rows(terms) -> Tuple[al.Row, ...]:
        return tuple(tuple((m, ln[k]) for m, ln in terms) for k in range(n))

    steps: List[al.Row] = []
    solved: List[int] = []
    leaves = sorted(s for s in track.switch_ids if len(pending(s)) == 1)
    reverse = order == "high_first"
    while len(solved) < len(tree.edges):
        leaves.sort(reverse=reverse)
        s = leaves.pop(0)
        if len(pending(s)) != 1:  # stripped already, or not a leaf yet
            continue
        rid, e = pending(s)[0]
        # the unknown enters as sign * (u or hat(u)); undo both on the residual
        sign, flip = end_term(rid, e)
        first = n * (len(w_lanes) + len(lanes))
        steps += rows([(sign * m, ln[::-1] if flip else ln) for m, ln in residual(s)])
        lanes[rid] = range(first, first + n)
        solved.append(rid)
        s_other = track.rect_by_id[rid].end(1 - e)[0]
        if len(pending(s_other)) == 1:
            leaves.append(s_other)

    # the far end of the last edge solved is the one switch left
    return SolverPlan(rects, tuple(steps), tuple(solved), rows(residual(s_other)))


def solve_tree(
    lifts: CoverLifts,
    v_free: Mapping[int, GA],
    w: Mapping[int, GA],
    kind: str,
    d: int,
    order: str = "low_first",
    tol: float = al.DEFAULT_TOL,
) -> Dict[int, GA]:
    """Unique tree coefficients whose boundary matches the target chain.

    Solves switch by switch, stripping degree-one switches of the tree, by
    the plan `solver_plan` records once per (lifts, d, order), on lanes; the
    final switch's residual is the balance condition, checked at ``tol``.
    Each switch and each rectangle off the tree needs a vector of d-1 entries;
    a key for any other id, a tree edge among them, is refused.
    """
    plan = solver_plan(lifts, d, order)
    n = d - 1
    switches = lifts.tree.track.switch_ids

    def where(q: int) -> str:  # vector q of w, then of v_free
        if q < len(switches):
            return f"switch {switches[q]}"
        return f"rectangle {plan.rects[q - len(switches)]}"

    try:
        vecs = [w[s] for s in switches] + [v_free[r] for r in plan.rects]
    except KeyError:
        vecs = None
    if vecs is None or len(w) != len(switches) or len(v_free) != len(plan.rects):
        for name, ids, given in (("switch", switches, w), ("rectangle", plan.rects, v_free)):
            missing = [i for i in ids if i not in given]
            if missing:
                raise ValueError(f"missing {name} coefficients: {missing}")
            unread = [i for i in given if i not in ids]
            if unread:
                raise ValueError(f"{name} coefficients the solver does not read: {unread}")
    if set(map(len, vecs)) != {n}:
        q = next(q for q, vec in enumerate(vecs) if len(vec) != n)
        raise ValueError(f"{where(q)} coefficients have {len(vecs[q])} entries, not d-1 = {n}")
    lanes = al.unpack(kind, [x for vec in vecs for x in vec], lambda q: where(q // n))
    out = al.run(kind, plan.steps + plan.last, lanes)
    first = len(plan.steps)
    zero = al.zero_lane(kind)
    if not all(al.lane_distance(kind, x, zero) <= tol for x in out[first:]):
        defect = [al.group_neg(x).value for x in al._from_lanes(kind, out[first:])]
        raise SolvabilityViolated(f"balance defect {list(map(lane_to_json, defect))}")
    solved = al._from_lanes(kind, out[:first])
    return {rid: tuple(solved[n * q:n * q + n]) for q, rid in enumerate(plan.solved)}
