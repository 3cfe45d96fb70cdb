"""The coordinate space of compatible rectangle/plaque data on a track.

A point assigns an A-indexed vector to every rectangle off the chosen maximal tree
and a B-indexed vector to every switch.  `chart` numbers these slots once per
(tree, d), v[r][k] by rectangle id and then z[t][j] by switch id, and records over
them each balance equation as two `al.Row`s and each per-plaque rotation relation
as a slot pair; a point is a member when both hold on its finite lanes (raw slot
values) by the residual rule `al.lane_distance`.  A point is a read-only `Member`,
one tuple of lanes in chart order, whose v/z element views only the oracles
(`check_diamond`, `check_spade`) read.  `require_member` gates every point handed
in, which the chart functions accept without checking it again; a `Member` of
another tree object is read where both charts number the same slots (`lanes_on`).
The torsion invariant tor′ is one linear form at every d, a row recorded once per
(tree, d, anchors): at even d the paper's second parity form differs from it by a
balance equation the gate has checked, so it is not evaluated.  The explicit linear
parametrization by unconstrained slots (`FreeCoords`) plus one d-torsion slot is
inverted by a recorded `InversePlan`: the chart's own balance rows and the tor′ row,
each solved for one unknown in turn, over slots that each rotation orbit shares, so
every point it builds keeps the rotation relations.  Every plan of rows runs on
lanes in one `al.run`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import starmap
from math import isfinite
from operator import add, itemgetter
from types import MappingProxyType
from typing import List, Mapping, NamedTuple, Optional, Tuple

from . import algebra as al
from .algebra import GA, GroupElement, PairIndex, TorsionValue, TripleIndex, memo
from .traintrack import OrientedTree, TrainTrack, classify


class MembershipError(ValueError):
    pass


class AnchorError(ValueError):
    pass


class InversePlanError(ValueError):
    """An inverse step list that does not solve each slot once, from slots solved before."""


ZField = Mapping[int, Mapping[TripleIndex, GroupElement]]


class Member:
    """A point of the chart of ``tree``, checked to be a member at ``tol`` (not at inf).

    ``lanes`` holds its slots' lanes in `chart` order; ``v`` and ``z`` are read-only
    views of their elements, built from ``lanes`` by `slot_views` on first read and kept.
    The gates build one, `require_member` and `i2_inverse` (for its own output); `io`
    decodes a point into one at tol = inf, which any gate at a finite tol checks.
    """

    __setattr__ = __delattr__ = al.frozen_attribute

    def __init__(self, d: int, kind: str, tree: OrientedTree, tol: float, lanes: tuple):
        vars(self).update(d=d, kind=kind, tree=tree, tol=tol, lanes=lanes)

    _views = cached_property(
        lambda m: slot_views(chart(m.tree, m.d), al._from_lanes(m.kind, m.lanes)))
    v = property(lambda self: self._views[0])
    z = property(lambda self: self._views[1])


Terms = List[Tuple[int, GroupElement]]  # (n, x) stands for n * x, summed by `al.combine`


class Anchors:
    """The anchor plaque, the anchor rectangle and each plaque's representative switch.

    ``reps`` is stored as a read-only copy, so anchors hash and compare by
    value, a key built once, and can key the recorded inverse (`inverse_plan`).
    """

    __setattr__ = __delattr__ = al.frozen_attribute

    def __init__(self, t_bar: int, r_bar: int, reps: Mapping[int, int]):
        reps = MappingProxyType(dict(reps))
        vars(self).update(t_bar=t_bar, r_bar=r_bar, reps=reps,
                          _value=(t_bar, r_bar, frozenset(reps.items())))

    def __eq__(self, other):
        return self._value == other._value if other.__class__ is Anchors else NotImplemented

    def __hash__(self):
        return hash(self._value)


def ensure_right_unorientable(tree: OrientedTree) -> OrientedTree:
    """Flip the global orientation if no unorientable rectangle exits right."""
    return tree if classify(tree).u_right else tree.flipped()


def default_anchors(tree: OrientedTree, d: int) -> Anchors:
    track = tree.track
    cls = classify(tree)
    if not cls.u_right:
        raise AnchorError("no right-exiting unorientable rectangle; flip the orientation first")
    r_bar = min(cls.u_right)
    reps = {pl.id: min(pl.switches_ccw) for pl in track.plaques}
    t_bar = min(pl.id for pl in track.plaques)
    if d == 4:
        # the two coupled slots at the anchor plaque are solvable only when
        # the representative and its minus-neighbour exit on opposite sides
        found = next(((pl.id, rep) for pl in sorted(track.plaques, key=lambda p: p.id)
                      for rep in sorted(pl.switches_ccw)
                      if (rep in cls.s_right) != (pl.minus(rep) in cls.s_right)), None)
        if found is None:
            raise AnchorError("every plaque is single-sided; no valid anchor for d=4")
        t_bar, rep = found
        reps[t_bar] = rep
    return Anchors(t_bar=t_bar, r_bar=r_bar, reps=reps)


def _check_anchors(tree: OrientedTree, anchors: Anchors) -> None:
    """Raise `AnchorError` naming the first fault of ``anchors`` on ``tree``.

    The d=4 condition on the anchor plaque is left to `_inverse_equations`, so
    that `random_free` can draw on anchors the inverse rejects.
    """
    r_bar, plaques = anchors.r_bar, tree.track.plaques
    ids = {pl.id for pl in plaques}
    if r_bar in tree.edges:
        raise AnchorError(f"anchor rectangle {r_bar} carries no slot off the tree")
    if r_bar not in classify(tree).u_right:
        raise AnchorError(f"anchor rectangle {r_bar} is not a right-exiting unorientable "
                          "rectangle off the tree")
    if anchors.t_bar not in ids:
        raise AnchorError(f"anchor plaque {anchors.t_bar} is not a plaque of the track")
    if anchors.reps.keys() != ids:
        raise AnchorError(f"the representatives name plaques {sorted(anchors.reps)}, "
                          f"not the track's plaques {sorted(ids)}")
    for pl in plaques:
        if anchors.reps[pl.id] not in pl.switches_ccw:
            raise AnchorError(f"representative {anchors.reps[pl.id]} is not a switch of "
                              f"plaque {pl.id}")


# -- the rotation relation -----------------------------------------------------


def rotation_pairs(track: TrainTrack, d: int) -> list:
    """(t, j, t+, rot+ j) for every switch t, plaque by plaque, and triple index j."""
    b = al.index_tables(d).B
    return [(t, j, pl.plus(t), al.rot_plus(j))
            for pl in track.plaques for t in pl.switches_ccw for j in b]


def check_diamond(track: TrainTrack, z: ZField, d: int, tol: float = al.DEFAULT_TOL) -> None:
    """Rotation compatibility: the value at a switch equals the value at the
    next switch clockwise around the plaque under the index rotation, on elements."""
    for t, j, tp, jp in rotation_pairs(track, d):
        if not al.elements_equal(z[t][j], z[tp][jp], tol):
            raise MembershipError(f"rotation relation fails at switch {t}, index {j}")


# -- the slot numbering and the membership gates ------------------------------


class Chart(NamedTuple):
    """The numbering of a point's slots on one tree at one d, built once by `chart`.

    Of its ``size`` slots, v[r][k] is ``v_start[r] + k`` for each rectangle r off the
    tree and k < d-1, then z[t][j] is ``z_start[t] + z_offset[j]`` for each switch t and
    j in ``index_tables(d).B``, the blocks in id order.
    ``balance`` maps each pair index to the (lhs, rhs) rows of its balance equation;
    ``rotation`` holds (left slots, right slots) of the rotation relations, in
    `rotation_pairs` order.
    """

    d: int
    v_start: Mapping[int, int]
    z_start: Mapping[int, int]
    z_offset: Mapping[TripleIndex, int]
    size: int
    balance: Mapping[PairIndex, Tuple[al.Row, al.Row]]
    rotation: Tuple[Tuple[int, ...], Tuple[int, ...]]


def chart(tree: OrientedTree, d: int) -> Chart:
    """The slot numbering of ``tree`` at ``d``, built once per (tree, d)."""
    return memo(tree, "chart", _record_chart, d)


def _record_chart(tree: OrientedTree, d: int) -> Chart:
    tables = al.index_tables(d)
    cls = classify(tree)
    n, nb = d - 1, len(tables.B)
    rects = sorted(r.id for r in tree.track.rects if r.id not in tree.edges)
    v_start = {r: n * q for q, r in enumerate(rects)}
    z_start = {t: n * len(rects) + nb * q for q, t in enumerate(sorted(tree.track.switch_ids))}
    z_offset = {j: q for q, j in enumerate(tables.B)}
    size = n * len(rects) + nb * len(z_start)
    slot = tuple(range(size))  # one int object per slot, shared by every term that names it
    # the z offsets of the triple indices with middle entry k, in B order
    by_mid = {k: [q for j, q in z_offset.items() if j[1] == k] for k in range(1, d)}
    balance = {i: (tuple((m, slot[v_start[r] + k - 1])
                         for m, side in ((1, cls.u_right), (-1, cls.u_left))
                         for r in side for k in i),
                   tuple((m, slot[z_start[t] + q])
                         for m, side, mid in ((1, cls.s_left, i[1]), (-1, cls.s_right, i[0]))
                         for t in side for q in by_mid[mid]))
               for i in tables.A}
    turned = [z_offset[al.rot_plus(j)] for j in tables.B]
    ends = [(z_start[t], z_start[pl.plus(t)]) for pl in tree.track.plaques for t in pl.switches_ccw]
    rotation = (tuple(slot[s + q] for s, _ in ends for q in range(nb)),
                tuple(slot[p + q] for _, p in ends for q in turned))
    return Chart(d, v_start, z_start, z_offset, size, balance, rotation)


def lanes_on(tree: OrientedTree, c: Member) -> tuple:
    """``c.lanes``, read in the chart of ``tree``: ``c``'s own tree object, or one whose
    chart numbers the same slots (the same rectangles off the tree and switches)."""
    if c.tree is not tree:
        ch, own = chart(tree, c.d), chart(c.tree, c.d)
        if (ch.v_start, ch.z_start) != (own.v_start, own.z_start):
            raise MembershipError("the point's rectangles or switches are not the chart's")
    return c.lanes


def _club_sides(tree: OrientedTree, c: Member, i: PairIndex) -> list:
    return al.run(c.kind, chart(tree, c.d).balance[i], lanes_on(tree, c))


def check_club(tree: OrientedTree, c: Member, i: PairIndex,
               tol: float = al.DEFAULT_TOL) -> bool:
    return al.lane_distance(c.kind, *_club_sides(tree, c, i)) <= tol


def check_spade(c: Member, i: PairIndex, tol: float = al.DEFAULT_TOL) -> bool:
    kind = c.kind
    lhs = al.group_sum(kind, (c.z[t][j] for t in c.z for j in c.z[t] if j[1] == i[1]))
    rhs = al.group_sum(kind, (c.z[t][j] for t in c.z for j in c.z[t] if j[1] == i[0]))
    return al.elements_equal(lhs, rhs, tol)


def _slot_name(ch: Chart, s: int) -> str:
    v, z = slot_views(ch, range(ch.size))
    for r, vec in v.items():
        if s in vec:
            return f"rectangle {r}, pair index {al.index_tables(ch.d).A[vec.index(s)]}"
    return next(f"switch {t}, index {j}" for t, vec in z.items() for j, x in vec.items() if x == s)


def _require_balance(ch: Chart, kind: str, lanes, tol: float) -> None:
    """Raise `MembershipError` naming the first pair index whose balance equation
    fails, or overflows a float, on ``lanes``.

    Every row is evaluated in one `al.run`; only after an overflow are the
    pairs run again one at a time, to find the first that fails or overflows.
    """
    pairs = ch.balance.items()
    try:
        sides = al.run(kind, [row for _, rows in pairs for row in rows], lanes)
    except al.SumOverflow:
        sides = None
    for q, (i, rows) in enumerate(pairs):
        try:
            lhs, rhs = sides[2 * q:2 * q + 2] if sides is not None else al.run(kind, rows, lanes)
        except al.SumOverflow as err:
            raise MembershipError(f"balance equation overflows at pair index {i}") from err
        if not al.lane_distance(kind, lhs, rhs) <= tol:
            raise MembershipError(f"balance equation fails at pair index {i}")


def _require_rotation(ch: Chart, kind: str, lanes, tol: float) -> None:
    """Raise `MembershipError` unless every rotation relation of ``ch`` holds on ``lanes``.

    Equal lanes are at distance 0, so only a pair that differs is measured: the
    verdict is `lane_distance`'s on finite lanes, which `_gate` has checked."""
    for s, p in zip(*ch.rotation):
        if lanes[s] != lanes[p] and not al.lane_distance(kind, lanes[s], lanes[p]) <= tol:
            raise MembershipError("rotation relations fail")


def slot_views(ch: Chart, vals) -> tuple:
    """Read-only v and z views of ``vals``, a point's slots in the order of ``ch``;
    over ``range`` they name each slot by its number, as the recorders read them."""
    n, nb = ch.d - 1, len(ch.z_offset)
    v = {r: vals[s:s + n] for r, s in ch.v_start.items()}
    z = {t: MappingProxyType(dict(zip(ch.z_offset, vals[s:s + nb]))) for t, s in ch.z_start.items()}
    return MappingProxyType(v), MappingProxyType(z)


def _gate(tree: OrientedTree, d: int, kind: str, lanes: tuple, tol: float) -> Member:
    """``lanes``, a point's slots of ``kind`` in `chart` order, as a `Member` checked at
    ``tol``: every slot finite (a non-finite value fails no equation it does not enter,
    and an orientable rectangle's v slots enter none), then the balance equations.

    One C-level sum screens the float slots (a cylinder slot enters as its real part
    plus its angle): a non-finite slot makes it non-finite, and only then are the
    slots scanned, for the first that is not finite, which the error names.  Finite
    slots whose sum overflows pass the scan."""
    ch = chart(tree, d)
    if kind == "cylinder":
        screen = sum(starmap(add, lanes))
    elif kind in ("real", "circle"):
        screen = sum(lanes)
    else:  # a "zd:<n>" residue is an int, always finite
        screen = 0.0
    if not isfinite(screen):
        if kind == "cylinder":
            finite = [isfinite(re) and isfinite(ang) for re, ang in lanes]
        else:
            finite = list(map(isfinite, lanes))
        if not all(finite):
            raise MembershipError(f"non-finite value at {_slot_name(ch, finite.index(False))}")
    _require_balance(ch, kind, lanes, tol)
    return Member(d, kind, tree, tol, lanes)


def require_member(tree: OrientedTree, c: Member, tol: float = al.DEFAULT_TOL) -> Member:
    """Return ``c`` as a `Member` of the chart of ``tree``, checked at ``tol`` by `_gate` and
    `_require_rotation`.  A `Member` of this tree object checked at a tol no looser is
    returned as it is; any other is checked again from its own lanes, read by `lanes_on`."""
    lanes = lanes_on(tree, c)
    if c.tree is tree and c.tol <= tol:
        return c
    member = _gate(tree, c.d, c.kind, lanes, tol)
    _require_rotation(chart(tree, c.d), c.kind, lanes, tol)
    return member


def is_member(tree: OrientedTree, c: Member, tol: float = al.DEFAULT_TOL) -> bool:
    try:
        require_member(tree, c, tol)
    except MembershipError:
        return False
    return True


# -- torsion invariant ---------------------------------------------------------


def recorded_rows(tree: OrientedTree, d: int, formula, *args) -> Tuple[al.Row, ...]:
    """The rows of ``formula(tree, d, v, z, *args)``, signed term lists over a point's
    v and z, `slot_rows` kept once per (tree, d, formula, args)."""
    return memo(tree, "recorded_rows", slot_rows, d, formula, *args)


def slot_rows(tree: OrientedTree, d: int, formula, *args) -> Tuple[al.Row, ...]:
    """The rows of ``formula(tree, d, v, z, *args)``, run over the slot numbers of `chart`."""
    ch = chart(tree, d)
    return tuple(map(tuple, formula(tree, d, *slot_views(ch, range(ch.size)), *args)))


def _tor_forms(tree: OrientedTree, d: int, v, z, anchors: Anchors) -> List[Terms]:
    """The torsion invariant's one form, signed terms over a point's ``v`` and ``z``:
    the row the explicit inverse sets to epsilon and solves for j_prime (v[r̄][0] at d=2).

    At even d it is the left parity form: the paper's right form differs from it by
    the i0 = (d/2, d/2) balance equation, which the gate checks, so it is not
    evaluated (`test_parity_forms_differ_by_the_i0_balance_row` proves that identity
    over integer coefficients).
    """
    _check_anchors(tree, anchors)
    tables = al.index_tables(d)
    cls = classify(tree)
    form = [(-1, z[anchors.reps[pl.id]][j]) for pl in tree.track.plaques for j in tables.B_star]
    if d % 2 == 0:
        # + (ur - ul) - zl: ur/ul the middle v-column summed over u_right/u_left,
        # zl the B_zero slots over s_left
        mid = tables.i_zero[0] - 1
        form += [(n, v[r][mid]) for n, rects in ((1, cls.u_right), (-1, cls.u_left)) for r in rects]
        form += [(-1, z[t][j]) for t in cls.s_left for j in tables.B_zero]
    return [form]


def tor_prime(tree: OrientedTree, c: Member, anchors: Optional[Anchors] = None,
              tol: float = al.MEMBER_TOL) -> TorsionValue:
    c = require_member(tree, c, tol)
    d, kind = c.d, c.kind
    if anchors is None:
        anchors = default_anchors(tree, d)
    val, = al.run(kind, recorded_rows(tree, d, _tor_forms, anchors), c.lanes)
    return TorsionValue(al._from_lanes(kind, [val])[0], d, tol)


# -- parametrization -----------------------------------------------------------


class FreeLayout(NamedTuple):
    """The free slots of the chart in `random_free`'s draw order.

    Each rectangle of ``rects`` carries |A| slots, the anchor rectangle the
    pair indices ``pairs``, each plaque of ``plaques`` |B| slots at its
    representative switch, and the anchor plaque the triple indices
    ``triples``; ``slots`` holds the slot of `chart` that each one is.
    """

    d: int
    rects: Tuple[int, ...]
    pairs: Tuple[PairIndex, ...]
    plaques: Tuple[int, ...]
    triples: Tuple[TripleIndex, ...]
    slots: Tuple[int, ...]


def free_views(layout: FreeLayout, vals) -> tuple:
    """Read-only views of ``vals``, a free point's slots in ``layout`` order: those of
    the free rectangles and the anchor rectangle, then those of each plaque's
    representative and the anchor plaque."""
    n, b = layout.d - 1, al.index_tables(layout.d).B
    nb, a0 = len(b), n * len(layout.rects)
    z0 = a0 + len(layout.pairs)
    z1 = z0 + nb * len(layout.plaques)
    return (MappingProxyType({r: vals[n * q:n * q + n] for q, r in enumerate(layout.rects)}),
            MappingProxyType(dict(zip(layout.pairs, vals[a0:z0]))),
            MappingProxyType({p: MappingProxyType(dict(zip(b, vals[z0 + nb * q:z0 + nb * q + nb])))
                              for q, p in enumerate(layout.plaques)}),
            MappingProxyType(dict(zip(layout.triples, vals[z1:]))))


class FreeCoords:
    """The unconstrained slots of a point, read-only like a `Member`: ``lanes`` in the
    order of ``layout``, with views that `free_views` builds from them on first read."""

    __setattr__ = __delattr__ = al.frozen_attribute

    def __init__(self, layout: FreeLayout, kind: str, lanes):
        vars(self).update(layout=layout, kind=kind, lanes=tuple(lanes))

    d = property(lambda self: self.layout.d)
    _views = cached_property(lambda f: free_views(f.layout, al._from_lanes(f.kind, f.lanes)))
    v_other = property(lambda self: self._views[0])
    v_anchor = property(lambda self: self._views[1])
    z_other = property(lambda self: self._views[2])
    z_anchor = property(lambda self: self._views[3])


def free_layout(tree: OrientedTree, d: int, anchors: Anchors) -> FreeLayout:
    """The free slots, built once per (tree, d, anchors) and keyed by the anchors' value.

    Unlike `inverse_plan`, this accepts anchors the inverse rejects, so that
    `random_free` can draw on them.
    """
    return memo(tree, "free_layout", _build_free_layout, d, anchors)


def _build_free_layout(tree: OrientedTree, d: int, anchors: Anchors) -> FreeLayout:
    _check_anchors(tree, anchors)
    tables = al.index_tables(d)
    track = tree.track
    ch = chart(tree, d)
    solved = set(tables.B_dprime) | {tables.j_prime}  # the anchor plaque's solved slots
    rects = tuple(r.id for r in track.rects if r.id not in tree.edges and r.id != anchors.r_bar)
    # at d=2 the lone anchor slot is spent on the torsion invariant instead
    pairs = () if d == 2 else tuple(i for i in tables.A if i not in tables.A_prime)
    plaques = tuple(pl.id for pl in track.plaques if pl.id != anchors.t_bar)
    triples = tuple(j for j in tables.B if j not in solved)
    slots = ([ch.v_start[r] + k for r in rects for k in range(d - 1)]
             + [ch.v_start[anchors.r_bar] + i[0] - 1 for i in pairs]
             + [ch.z_start[anchors.reps[p]] + q for p in plaques for q in ch.z_offset.values()]
             + [ch.z_start[anchors.reps[anchors.t_bar]] + ch.z_offset[j] for j in triples])
    return FreeLayout(d, rects, pairs, plaques, triples, tuple(slots))


def i2_forward(tree: OrientedTree, c: Member, anchors: Optional[Anchors] = None,
               tol: float = al.MEMBER_TOL) -> Tuple[FreeCoords, TorsionValue]:
    if anchors is None:
        anchors = default_anchors(tree, c.d)
    c = require_member(tree, c, tol)
    eps = tor_prime(tree, c, anchors, tol)
    layout = free_layout(tree, c.d, anchors)
    return FreeCoords(layout, c.kind, itemgetter(*layout.slots)(c.lanes)), eps


class InversePlan(NamedTuple):
    """`i2_inverse` on one (tree, d, anchors), recorded once by `inverse_plan`.

    Plan slots are numbered in order: the free slots in ``layout`` order, then
    epsilon, then one per row of ``steps``, valued on the plan slots before it;
    one `al.run` evaluates them all.  ``out[s]`` is the plan slot that fills
    slot s of `chart`, one for all three slots of a rotation orbit.
    """

    layout: FreeLayout
    steps: Tuple[al.Row, ...]
    out: Tuple[int, ...]


def inverse_plan(tree: OrientedTree, d: int, anchors: Anchors) -> InversePlan:
    """The recorded inverse, built once per (tree, d, anchors) and keyed by the anchors' value."""
    return memo(tree, "inverse_plan", _record_inverse, d, anchors)


def _record_inverse(tree: OrientedTree, d: int, anchors: Anchors) -> InversePlan:
    """Solve `_inverse_equations` in turn.  The three z slots of a rotation orbit
    (`ch.rotation` carries each to the next) share the plan slot of the free slot that
    seeds it or of the step that solves it, so every point the plan builds keeps the
    rotation relations: `i2_inverse` skips them."""
    layout, ch = free_layout(tree, d, anchors), chart(tree, d)
    turn = dict(zip(*ch.rotation))
    out, steps = [None] * ch.size, []
    eps = len(layout.slots)  # epsilon's plan slot; step q's is eps + 1 + q

    def orbit(s: int) -> tuple:
        return (s, turn[s], turn[turn[s]]) if s in turn else (s,)

    def solve(row, unknown: int, target: Optional[int] = None) -> None:
        # row = target (0 if None): the unknown's orbit enters it with c = ±1, so
        # unknown = c (target - the rest of the row), which reads solved slots only
        merged = {}
        for n, s in row:
            merged[s] = merged.get(s, 0) + n
        own = orbit(unknown)
        c = sum(merged.get(s, 0) for s in own)
        if out[unknown] is not None or c not in (1, -1):
            why = "is solved already" if out[unknown] is not None else f"has coefficient {c}"
            raise InversePlanError(f"recorded inverse: {_slot_name(ch, unknown)} {why}")
        terms = []
        for s, n in merged.items():
            if n and s not in own:
                if out[s] is None:
                    raise InversePlanError(f"recorded inverse: {_slot_name(ch, unknown)} is "
                                           f"solved from {_slot_name(ch, s)}, not solved yet")
                terms.append((-c * n, out[s]))
        steps.append((*terms, (c, target)) if target is not None else tuple(terms))
        for s in own:
            out[s] = eps + len(steps)

    for q, s in enumerate(layout.slots):
        for x in orbit(s):
            out[x] = q
    for row, unknown, tor in _inverse_equations(tree, d, anchors):
        solve(row, unknown, eps if tor else None)
    if None in out:
        raise InversePlanError(f"recorded inverse: {_slot_name(ch, out.index(None))} is unsolved")
    return InversePlan(layout, tuple(steps), tuple(out))


def _inverse_equations(tree: OrientedTree, d: int, anchors: Anchors) -> list:
    """The explicit inverse's equations in the paper's order, each (row, unknown, tor):
    row = epsilon if tor, else row = 0, solved for the chart slot unknown.

    A balance row is its lhs less its rhs.  At d = 2 tor′ fixes v[r̄][0].  At d = 4 tor′
    reads the coupled j0 orbit (at the representative's minus-neighbour) or j′ orbit (at
    the representative) where that switch exits left, so the two must exit on opposite
    sides; the i0 balance fixes the other.  Otherwise the i0 balance fixes j0 (even d),
    tor′ fixes j′, and each spade column i1 = (d-1)//2 .. 2, the z sides of the
    (d-i1, i1) and (i1, d-i1) balance rows, fixes rot+(i1-1, d-i1, 1).  Each A′
    balance then fixes v[r̄][i0-1].
    """
    tables, ch = al.index_tables(d), chart(tree, d)
    rep, v_bar = anchors.reps[anchors.t_bar], ch.v_start[anchors.r_bar]
    tor, = recorded_rows(tree, d, _tor_forms, anchors)

    def z_bar(j: TripleIndex) -> int:
        return ch.z_start[rep] + ch.z_offset[j]

    def minus(lhs: al.Row, rhs: al.Row) -> list:
        return [*lhs, *((-n, s) for n, s in rhs)]

    if d == 2:
        return [(tor, v_bar, True)]
    if d == 4:
        cls = classify(tree)
        right = rep in cls.s_right
        if right == (tree.track.plaques[anchors.t_bar].minus(rep) in cls.s_right):
            raise AnchorError("anchor plaque is single-sided at d=4; pick mixed-side anchors")
        coupled = (tables.j_zero, tables.j_prime)
        first, second = coupled if right else coupled[::-1]
        equations = [(tor, z_bar(first), True),
                     (minus(*ch.balance[tables.i_zero]), z_bar(second), False)]
    else:
        equations = [(minus(*ch.balance[tables.i_zero]), z_bar(tables.j_zero), False)
                     ] if d % 2 == 0 else []
        equations.append((tor, z_bar(tables.j_prime), True))
        equations += [(minus(ch.balance[d - i1, i1][1], ch.balance[i1, d - i1][1]),
                       z_bar(al.rot_plus((i1 - 1, d - i1, 1))), False)
                      for i1 in range((d - 1) // 2, 1, -1)]
    return equations + [(minus(*ch.balance[i]), v_bar + i[0] - 1, False) for i in tables.A_prime]


def i2_inverse(tree: OrientedTree, free: FreeCoords, eps, anchors: Optional[Anchors] = None,
               tol: float = al.MEMBER_TOL) -> Member:
    d, kind = free.d, free.kind
    if anchors is None:
        anchors = default_anchors(tree, d)
    eps_val = eps.value if isinstance(eps, TorsionValue) else eps
    if not al.is_d_torsion(eps_val, d, tol):
        raise ValueError(f"epsilon is not {d}-torsion: {eps_val}")
    plan = inverse_plan(tree, d, anchors)
    if free.layout != plan.layout:
        raise ValueError("the free point's slots are not those of this tree's free layout "
                         f"at d = {d} and these anchors")
    lanes = [*free.lanes, *al.unpack(kind, [eps_val], lambda q: "epsilon")]
    lanes += al.run(kind, plan.steps, lanes)
    return _gate(tree, d, kind, tuple(map(lanes.__getitem__, plan.out)), tol)


# -- auxiliary identities ------------------------------------------------------


def nice_combination_check(track: TrainTrack, z: ZField, t: int, d: int, kind: str,
                           tol: float = al.DEFAULT_TOL) -> Tuple[GroupElement, GroupElement]:
    tables = al.index_tables(d)
    pl = track.plaque_of_switch(t)
    trio = (t, pl.plus(t), pl.minus(t))
    check_diamond(track, z, d, tol)

    def trio_sum(n: int, middle: int) -> Terms:
        return [(n, z[s][j]) for s in trio for j in tables.B if j[1] == middle]

    lhs = [term for i in tables.A_prime for term in trio_sum(i[0], i[0]) + trio_sum(-i[0], i[1])]
    rhs = [(d, z[t][j]) for j in tables.B_star]
    if d % 2 == 0:
        rhs += [(d // 2, z[s][j]) for s in trio for j in tables.B_zero]
    return al.combine(kind, lhs), al.combine(kind, rhs)


def compose_alpha(a12: GA, a23: GA, theta: Mapping[TripleIndex, GroupElement],
                  label: str, d: int, kind: str) -> GA:
    if label not in ("cw", "ccw"):
        raise ValueError("label must be 'cw' or 'ccw'")
    tables = al.index_tables(d)
    out = []
    for i in tables.A:
        n, mid = (1, i[0]) if label == "cw" else (-1, i[1])
        out.append(al.combine(kind, [(1, a12[i[0] - 1]), (1, a23[i[0] - 1])]
                              + [(n, theta[j]) for j in tables.B if j[1] == mid]))
    return tuple(out)


# -- sampling and serialization -------------------------------------------------


def random_free(tree: OrientedTree, d: int, kind: str, rng,
                anchors: Optional[Anchors] = None) -> FreeCoords:
    if anchors is None:
        anchors = default_anchors(tree, d)
    layout = free_layout(tree, d, anchors)
    return FreeCoords(layout, kind, al.random_lanes(kind, rng, len(layout.slots)))


def sample_y(tree: OrientedTree, d: int, kind: str, rng,
             anchors: Optional[Anchors] = None,
             eps: Optional[GroupElement] = None) -> Member:
    if anchors is None:
        anchors = default_anchors(tree, d)
    free = random_free(tree, d, kind, rng, anchors)
    if eps is None:
        eps = al.torsion_element(kind, d, rng.randrange(d))
    return i2_inverse(tree, free, eps, anchors)
