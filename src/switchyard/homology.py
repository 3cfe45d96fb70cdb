"""Chain calculus on the orientation double cover of a track.

Degree-one chains are supported on oriented rectangle lifts, degree-zero
chains on oriented vertical-boundary lifts; both carry coefficient vectors
indexed by the pair set A.  Keys use the absolute lift bit (0 = canonical
frame at the reference end), so chains are meaningful before any tree is
chosen.

Coefficient conventions: the hat involution on an A-indexed vector reverses
it; on a triple index it reverses the triple (this pairs with reversing a
vertex labeling, which also flips the sign of the stored value).

Chain maps return signed term lists summed by `_Chain._summed`: each of the
d-1 entries at a key once, by `al.combine`, in no order that matters.  A
chain needs d-1 entries at each key, and a map that reads vectors by id d-1
for each id it reads; `_require` names the first that lacks them, in
`solve_tree`'s words.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from . import algebra as al
from .algebra import GA, GroupElement, memo
from .cocyclic import ZField, check_diamond
from .io import lane_to_json
from .traintrack import (PORTS, RIGHT, CoverLifts, OrientedTree, TrainTrack, classify, exit_side,
                         is_big)


class SolvabilityViolated(ValueError):
    pass


def ga_zero(kind: str, d: int) -> GA:
    return tuple(al.zero(kind) for _ in range(d - 1))


def ga_neg(a: GA) -> GA:
    return tuple(al.group_neg(x) for x in a)


def ga_hat(a: GA) -> GA:
    # position k holds the entry for (k+1, d-k-1); swapping the pair reverses
    return tuple(reversed(a))


def ga_is_zero(a: GA, tol: float = al.DEFAULT_TOL) -> bool:
    return all(al.is_zero(x, tol) for x in a)


def ga_equal(a: GA, b: GA, tol: float = al.DEFAULT_TOL) -> bool:
    return len(a) == len(b) and all(al.elements_equal(x, y, tol) for x, y in zip(a, b))


def ga_random(kind: str, d: int, rng) -> GA:
    return tuple(al._from_lanes(kind, al.random_lanes(kind, rng, d - 1)))


class _Chain:
    def __init__(self, kind: str, d: int, coeffs: Optional[Dict[Tuple[int, int], GA]] = None):
        self.kind, self.d = kind, d
        self.coeffs = {} if coeffs is None else coeffs
        _require("lift", self.coeffs, self.coeffs, d - 1)  # d-1 entries at each lift key

    @classmethod
    def _summed(cls, kind: str, d: int, terms) -> "_Chain":
        """The chain whose entry k at a key is the sum of n * vec[k] over the terms
        (n, key, vec) at that key, summed once by `al.combine`."""
        by_key: Dict[Tuple[int, int], List[Tuple[int, GA]]] = {}
        for n, key, vec in terms:
            by_key.setdefault(key, []).append((n, vec))
        return cls(kind, d, {
            key: tuple(al.combine(kind, [(n, vec[k]) for n, vec in group]) for k in range(d - 1))
            for key, group in by_key.items()})

    def _terms(self, n: int):
        return ((n, k, v) for k, v in self.coeffs.items())

    def support(self) -> List[Tuple[int, int]]:
        return sorted(k for k, v in self.coeffs.items() if not ga_is_zero(v))

    def is_zero(self, tol: float = al.DEFAULT_TOL) -> bool:
        return all(ga_is_zero(v, tol) for v in self.coeffs.values())

    def add(self, other: "_Chain") -> "_Chain":
        return self._summed(self.kind, self.d, [*self._terms(1), *other._terms(1)])

    def neg(self) -> "_Chain":
        return self._summed(self.kind, self.d, self._terms(-1))

    def sub(self, other: "_Chain") -> "_Chain":
        return self._summed(self.kind, self.d, [*self._terms(1), *other._terms(-1)])

    def equal(self, other: "_Chain", tol: float = al.DEFAULT_TOL) -> bool:
        return self.sub(other).is_zero(tol)


class Chain1(_Chain):
    """Supported on rectangle lifts (rectangle id, bit)."""


class Chain0(_Chain):
    """Supported on vertical-boundary lifts (switch id, bit)."""


def iota_star(c: _Chain) -> _Chain:
    if isinstance(c, Chain1):
        return Chain1._summed(c.kind, c.d, ((-1, (r, b ^ 1), v) for (r, b), v in c.coeffs.items()))
    return Chain0(c.kind, c.d, {(t, b ^ 1): v for (t, b), v in c.coeffs.items()})


def hat(c: _Chain) -> _Chain:
    return type(c)(c.kind, c.d, {k: ga_hat(v) for k, v in c.coeffs.items()})


def boundary(lifts: CoverLifts, c: Chain1) -> Chain0:
    """Each lift's core, crossing every tie from its right to its left, leaves through
    the end that exits right in the lift's frame (+1) and enters through the other (-1)."""
    track = lifts.tree.track
    terms = []
    for (rid, b), g in c.coeffs.items():
        for e, (s, p) in enumerate(track.rect_by_id[rid].ends):
            bit = lifts.end_bit(rid, b, e)
            terms.append((1 if exit_side(p, bit) == RIGHT else -1, (s, bit), g))
    return Chain0._summed(c.kind, c.d, terms)


def beta(lifts: CoverLifts, u_tree: Mapping[int, GA], u_free: Mapping[int, GA],
         kind: str, d: int) -> Chain1:
    track = lifts.tree.track
    overlap = set(u_tree) & set(u_free)
    if overlap:
        raise ValueError(f"rectangle coefficients given twice: {sorted(overlap)}")
    u = {**u_tree, **u_free}
    ids = [r.id for r in track.rects]
    _require("rectangle", ids, u, d - 1)
    return Chain1._summed(kind, d, [(1, (r, lifts.r_bit[r] ^ b), ga_hat(u[r]) if b else u[r])
                                    for r in ids for b in (0, 1)])


def delta(tree: OrientedTree, w: Mapping[int, GA], kind: str, d: int) -> Chain0:
    _require("switch", tree.track.switch_ids, w, d - 1)
    return Chain0._summed(kind, d, [(1 - 2 * b, (s, tree.bit(s) ^ b), ga_hat(w[s]) if b else w[s])
                                    for s in tree.track.switch_ids for b in (0, 1)])


def _require(name: str, ids, given: Mapping[int, GA], n: int) -> None:
    """Refuse ``given`` unless it holds a vector of n = d-1 entries for each of ``ids``,
    naming the ids missing, else the first of another length."""
    try:
        wrong = [i for i in ids if len(given[i]) != n]
    except KeyError:
        missing = [i for i in ids if i not in given]
        raise ValueError(f"missing {name} coefficients: {missing}") from None
    if wrong:
        i = wrong[0]
        raise ValueError(f"{name} {i} coefficients have {len(given[i])} entries, not d-1 = {n}")


# -- theta-type coordinates ---------------------------------------------------


def _theta_end(kind: str, tables, zt, b: int) -> GA:
    """The A-vector of theta-type data ``zt`` at a switch's lift b: for i in A, the sum
    of zt[j] over j with j[1] == i[b], negated on the canonical lift (b = 0)."""
    n = 2 * b - 1
    return tuple(al.combine(kind, [(n, zt[j]) for j in tables.B if j[1] == i[b]])
                 for i in tables.A)


def k_theta(track: TrainTrack, z: ZField, kind: str, d: int, tol: float = al.DEFAULT_TOL) -> Chain0:
    """Endpoint class of the theta-type data, computed lift by lift."""
    check_diamond(track, z, d, tol)
    tables = al.index_tables(d)
    return Chain0(kind, d, {(t, b): _theta_end(kind, tables, z[t], b)
                            for t in track.switch_ids for b in (0, 1)})


def w_from_z(tree: OrientedTree, z: ZField, kind: str, d: int) -> Dict[int, GA]:
    """Per-switch A-vectors whose delta-chain matches k_theta."""
    tables = al.index_tables(d)
    s_left = classify(tree).s_left
    return {t: _theta_end(kind, tables, z[t], int(t in s_left)) for t in tree.track.switch_ids}


# -- tree solver --------------------------------------------------------------


def balance_defect(tree: OrientedTree, v_free: Mapping[int, GA], w: Mapping[int, GA],
                   kind: str, d: int) -> GA:
    """Left side minus right side of the solvability condition."""
    cls = classify(tree)
    _require("switch", tree.track.switch_ids, w, d - 1)
    _require("rectangle", sorted(cls.unorientable), v_free, d - 1)

    def at(k: int) -> GroupElement:
        terms = [(n, v_free[r][i]) for n, rects in ((1, cls.u_right), (-1, cls.u_left))
                 for r in rects for i in (k, d - 2 - k)]
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
    if order not in ("low_first", "high_first"):
        raise ValueError(f"order must be 'low_first' or 'high_first', not {order!r}")
    return memo(lifts, "solver_plan", _record_plan, d, order)


def _record_plan(lifts: CoverLifts, d: int, order: str) -> SolverPlan:
    # the slots are numbered as the plan's lanes: the inputs, then the tree edges by id
    n, switches = d - 1, lifts.tree.track.switch_ids
    rects, solved, equations, last = _solver_equations(lifts, d, order)
    vectors, inputs = (*rects, *sorted(solved)), n * (len(switches) + len(rects))
    steps, out = al.back_substitute(
        "tree solver", n * (len(switches) + len(vectors)), range(inputs), inputs, equations,
        lambda s: f"{_vector_name(switches, vectors, s // n)} lane {s % n}")
    last = tuple(tuple((m, out[s]) for m, s in row) for row in last)
    return SolverPlan(rects, steps, solved, last)


def _solver_equations(lifts: CoverLifts, d: int, order: str):
    """``(rects, solved, equations, last)`` over `_record_plan`'s slots.  A switch's rows are
    its equation at lift (s, 0): w[s] (its hat negated where s has tree bit 1) less each end's
    sign(port) * (u, or hat(u) if flipped).  Each leaf's rows, taken in ``order``, solve the
    lanes of its pending edge, and ``last`` holds the rows of the switch left over."""
    tree = lifts.tree
    track, slots, n = tree.track, tree.track.slot_map(), d - 1
    rects = tuple(sorted(r.id for r in track.rects if r.id not in tree.edges))
    w_lanes = {s: range(n * q, n * q + n) for q, s in enumerate(track.switch_ids)}
    lanes = {r: range(n * q, n * q + n)
             for q, r in enumerate((*rects, *sorted(tree.edges)), len(w_lanes))}
    m0, m1, m2 = (1 if is_big(p) else -1 for p in PORTS)  # -sign(port)
    read = {}  # each slot's u in rows 0..d-2, reversed (hat(u)) where its lift keyed 0 is not u's
    for key, (rid, e) in slots.items():
        flip = lifts.end_bit(rid, 0, e) != lifts.r_bit[rid]
        read[key] = lanes[rid][::-1] if flip else lanes[rid]

    def rows(s: int) -> List[al.Row]:
        b = tree.bit(s)
        cols = zip(w_lanes[s][::-1] if b else w_lanes[s], *(read[s, p] for p in PORTS))
        return [((1 - 2 * b, x), (m0, y0), (m1, y1), (m2, y2)) for x, y0, y1, y2 in cols]

    ends = {s: set() for s in track.switch_ids}  # the ports of tree edges not solved yet
    for rid in tree.edges:
        for s, p in track.rect_by_id[rid].ends:
            ends[s].add(p)
    equations, solved = [], []
    leaves = sorted(s for s in track.switch_ids if len(ends[s]) == 1)
    while len(solved) < len(tree.edges):
        leaves.sort(reverse=order == "high_first")
        s = leaves.pop(0)
        if len(ends[s]) != 1:  # its edge is solved from the far end
            continue
        p, = ends[s]
        rid, e = slots[s, p]
        equations += sorted(zip(rows(s), read[s, p], repeat(None)), key=itemgetter(1))
        solved.append(rid)
        s_other, p_other = track.rect_by_id[rid].end(1 - e)
        ends[s_other].remove(p_other)
        if len(ends[s_other]) == 1:
            leaves.append(s_other)
    return rects, tuple(solved), equations, rows(s_other)  # s_other is the one switch left


def _vector_name(switches, rects, q: int) -> str:  # vector q: w by switch, then by rectangle
    return f"switch {switches[q]}" if q < len(switches) else f"rectangle {rects[q - len(switches)]}"


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
    n, switches = d - 1, lifts.tree.track.switch_ids
    for name, ids, given in (("switch", switches, w), ("rectangle", plan.rects, v_free)):
        _require(name, ids, given, n)
        if len(given) != len(ids):  # every id is there, so some key is not one
            unread = [i for i in given if i not in ids]
            raise ValueError(f"{name} coefficients the solver does not read: {unread}")
    vecs = [w[s] for s in switches] + [v_free[r] for r in plan.rects]
    lanes = al.unpack(kind, [x for vec in vecs for x in vec],
                      lambda q: _vector_name(switches, plan.rects, q // n))
    out = al.run(kind, plan.steps + plan.last, lanes)
    first = len(plan.steps)
    zero = al.zero_lane(kind)
    if not all(al.lane_distance(kind, x, zero) <= tol for x in out[first:]):
        defect = [al.group_neg(x).value for x in al._from_lanes(kind, out[first:])]
        raise SolvabilityViolated(f"balance defect {list(map(lane_to_json, defect))}")
    solved = al._from_lanes(kind, out[:first])
    return {rid: tuple(solved[n * q:n * q + n]) for q, rid in enumerate(plan.solved)}
