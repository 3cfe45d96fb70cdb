"""The coordinate space of compatible rectangle/plaque data on a track.

A point assigns an A-indexed vector to every rectangle off the chosen
maximal tree and a B-indexed vector to every switch.  Membership means the
per-plaque rotation relations hold at every switch together with one balance
equation per pair index.  The rotation relation is checked by
`homology.check_diamond`, its only home; the balance equations are checked
here.  `require_member` is the one membership gate: it returns a read-only
`Member`, which the chart functions accept without checking it again.
The tree's rectangle and switch classification is computed once per tree
and cached on it (`traintrack.classify`).  The space carries a torsion
invariant and an explicit linear parametrization by unconstrained slots plus
one d-torsion slot; both directions of that parametrization are implemented
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import algebra as al
from .algebra import GroupElement, PairIndex, TorsionValue, TripleIndex
from .homology import GA, RotationViolated, check_diamond
from .traintrack import OrientedTree, TrainTrack, classify


class MembershipError(ValueError):
    pass


class AnchorError(ValueError):
    pass


@dataclass
class CocyclicCoords:
    d: int
    kind: str
    v: Dict[int, GA]
    z: Dict[int, Dict[TripleIndex, GroupElement]]


@dataclass(frozen=True)
class Member:
    """A point checked to be a member of the chart of ``tree`` at ``tol``.

    It is read like `CocyclicCoords`, but it is a read-only copy (proxies
    and tuples), so the check it records stays true.  Only `require_member`
    builds one.
    """

    d: int
    kind: str
    v: Mapping[int, GA]
    z: Mapping[int, Mapping[TripleIndex, GroupElement]]
    tree: OrientedTree
    tol: float


Coords = Union[CocyclicCoords, Member]


@dataclass(frozen=True)
class Anchors:
    t_bar: int
    r_bar: int
    reps: Mapping[int, int]


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
        def mixed(pl, rep):
            return (rep in cls.s_right) != (pl.minus(rep) in cls.s_right)

        found = None
        for pl in sorted(track.plaques, key=lambda p: p.id):
            for rep in sorted(pl.switches_ccw):
                if mixed(pl, rep):
                    found = (pl.id, rep)
                    break
            if found:
                break
        if found is None:
            raise AnchorError("every plaque is single-sided; no valid anchor for d=4")
        t_bar, rep = found
        reps = dict(reps)
        reps[t_bar] = rep
    return Anchors(t_bar=t_bar, r_bar=r_bar, reps=reps)


# -- equation checkers --------------------------------------------------------


def _club_sides(tree: OrientedTree, c: Coords, i: PairIndex):
    cls = classify(tree)
    kind = c.kind
    lhs = al.group_sub(
        al.group_sum(kind, (al.group_add(c.v[r][i[0] - 1], c.v[r][i[1] - 1])
                            for r in cls.u_right)),
        al.group_sum(kind, (al.group_add(c.v[r][i[0] - 1], c.v[r][i[1] - 1])
                            for r in cls.u_left)),
    )
    rhs = al.group_sub(
        al.group_sum(kind, (c.z[t][j] for t in cls.s_left for j in c.z[t] if j[1] == i[1])),
        al.group_sum(kind, (c.z[t][j] for t in cls.s_right for j in c.z[t] if j[1] == i[0])),
    )
    return lhs, rhs


def check_club(tree: OrientedTree, c: Coords, i: PairIndex,
               tol: float = al.DEFAULT_TOL) -> bool:
    return al.elements_equal(*_club_sides(tree, c, i), tol)


def check_spade(c: Coords, i: PairIndex, tol: float = al.DEFAULT_TOL) -> bool:
    kind = c.kind
    lhs = al.group_sum(kind, (c.z[t][j] for t in c.z for j in c.z[t] if j[1] == i[1]))
    rhs = al.group_sum(kind, (c.z[t][j] for t in c.z for j in c.z[t] if j[1] == i[0]))
    return al.elements_equal(lhs, rhs, tol)


def require_member(tree: OrientedTree, c: Coords, tol: float = al.DEFAULT_TOL) -> Member:
    """Return ``c`` as a `Member` of the chart of ``tree``, checked at ``tol``.

    A `Member` already checked on this tree object at a tol no looser is
    returned as it is; every other point is checked (rotation relations,
    then balance equations) and copied.
    """
    if isinstance(c, Member) and c.tree is tree and c.tol <= tol:
        return c
    m = Member(c.d, c.kind, MappingProxyType({r: tuple(vec) for r, vec in c.v.items()}),
               MappingProxyType({t: MappingProxyType(dict(vec)) for t, vec in c.z.items()}),
               tree, tol)
    try:
        check_diamond(tree.track, m.z, m.d, tol)
    except RotationViolated as err:
        raise MembershipError("rotation relations fail") from err
    for i in al.index_tables(m.d).A:
        if not check_club(tree, m, i, tol):
            raise MembershipError(f"balance equation fails at pair index {i}")
    return m


def is_member(tree: OrientedTree, c: Coords, tol: float = al.DEFAULT_TOL) -> bool:
    try:
        require_member(tree, c, tol)
    except MembershipError:
        return False
    return True


# -- torsion invariant ---------------------------------------------------------


def _vsum_at(c: Coords, rect_ids, i: PairIndex) -> GroupElement:
    return al.group_sum(c.kind, (c.v[r][i[0] - 1] for r in rect_ids))


def tor_prime(tree: OrientedTree, c: Coords, anchors: Optional[Anchors] = None,
              tol: float = al.MEMBER_TOL) -> TorsionValue:
    c = require_member(tree, c, tol)
    d, kind = c.d, c.kind
    tables = al.index_tables(d)
    if anchors is None:
        anchors = default_anchors(tree, d)
    cls = classify(tree)
    base = al.group_neg(al.group_sum(
        kind,
        (c.z[anchors.reps[pl.id]][j] for pl in tree.track.plaques for j in tables.B_star),
    ))
    if d % 2 == 1:
        val = base
    else:
        i0 = tables.i_zero
        ur = _vsum_at(c, cls.u_right, i0)
        ul = _vsum_at(c, cls.u_left, i0)
        b0 = set(tables.B_zero)
        zl = al.group_sum(kind, (c.z[t][j] for t in cls.s_left for j in b0))
        zr = al.group_sum(kind, (c.z[t][j] for t in cls.s_right for j in b0))
        left_form = al.group_sub(al.group_add(base, al.group_sub(ur, ul)), zl)
        right_form = al.group_sub(al.group_sub(base, al.group_sub(ur, ul)), zr)
        if not al.elements_equal(left_form, right_form, tol):
            raise AssertionError("the two parity forms disagree; equations inconsistent")
        val = left_form
    if not al.is_d_torsion(val, d, tol):
        raise ValueError(f"torsion invariant is not {d}-torsion: {val}")
    return TorsionValue(value=val, d=d)


# -- parametrization -----------------------------------------------------------


@dataclass
class FreeCoords:
    d: int
    kind: str
    v_other: Dict[int, GA]
    v_anchor: Dict[PairIndex, GroupElement]
    z_other: Dict[int, Dict[TripleIndex, GroupElement]]
    z_anchor: Dict[TripleIndex, GroupElement]

    def slot_count(self) -> int:
        return (sum(len(vec) for vec in self.v_other.values())
                + len(self.v_anchor)
                + sum(len(m) for m in self.z_other.values())
                + len(self.z_anchor))


def _free_b_indices(tables: al.IndexTables) -> List[TripleIndex]:
    excluded = set(tables.B_dprime)
    if tables.j_prime is not None:
        excluded.add(tables.j_prime)
    return [j for j in tables.B if j not in excluded]


def i2_forward(tree: OrientedTree, c: Coords, anchors: Optional[Anchors] = None,
               tol: float = al.MEMBER_TOL) -> Tuple[FreeCoords, TorsionValue]:
    d, kind = c.d, c.kind
    tables = al.index_tables(d)
    if anchors is None:
        anchors = default_anchors(tree, d)
    eps = tor_prime(tree, c, anchors, tol)
    v_other = {r: c.v[r] for r in c.v if r != anchors.r_bar}
    if d == 2:
        # the lone anchor slot is spent on the torsion invariant instead
        v_anchor: Dict[PairIndex, GroupElement] = {}
    else:
        v_anchor = {i: c.v[anchors.r_bar][i[0] - 1]
                    for i in tables.A if i not in tables.A_prime}
    z_other = {pl.id: dict(c.z[anchors.reps[pl.id]])
               for pl in tree.track.plaques if pl.id != anchors.t_bar}
    rep_bar = anchors.reps[anchors.t_bar]
    z_anchor = {j: c.z[rep_bar][j] for j in _free_b_indices(tables)}
    return FreeCoords(d, kind, v_other, v_anchor, z_other, z_anchor), eps


class _PlaqueField:
    """Per-plaque B-vectors at representative switches, with rotation lookup."""

    def __init__(self, track: TrainTrack, reps: Mapping[int, int], d: int):
        self.tables = al.index_tables(d)
        self.vecs: Dict[int, Dict[TripleIndex, Optional[GroupElement]]] = {}
        self.role: Dict[int, Tuple[int, int]] = {}
        for pl in track.plaques:
            rep = reps[pl.id]
            self.vecs[pl.id] = {j: None for j in self.tables.B}
            self.role[rep] = (pl.id, 0)
            self.role[pl.plus(rep)] = (pl.id, +1)
            self.role[pl.minus(rep)] = (pl.id, -1)

    def index_at(self, t: int, j: TripleIndex) -> Tuple[int, TripleIndex]:
        pid, role = self.role[t]
        if role == 0:
            return pid, j
        if role == +1:
            return pid, al.rot_minus(j)
        return pid, al.rot_plus(j)

    def get(self, t: int, j: TripleIndex) -> GroupElement:
        pid, idx = self.index_at(t, j)
        val = self.vecs[pid][idx]
        if val is None:
            raise AssertionError(f"slot ({t}, {j}) read before being set")
        return val

    def set_class(self, pid: int, j: TripleIndex, val: GroupElement) -> None:
        self.vecs[pid][j] = val

    def materialize(self, track: TrainTrack) -> Dict[int, Dict[TripleIndex, GroupElement]]:
        z: Dict[int, Dict[TripleIndex, GroupElement]] = {}
        for pl in track.plaques:
            for t in pl.switches_ccw:
                z[t] = {j: self.get(t, j) for j in self.tables.B}
        return z


def i2_inverse(tree: OrientedTree, free: FreeCoords, eps, anchors: Optional[Anchors] = None,
               tol: float = al.MEMBER_TOL) -> Member:
    d, kind = free.d, free.kind
    tables = al.index_tables(d)
    track = tree.track
    if anchors is None:
        anchors = default_anchors(tree, d)
    cls = classify(tree)
    eps_val = eps.value if isinstance(eps, TorsionValue) else eps
    if not al.is_d_torsion(eps_val, d, tol):
        raise ValueError(f"epsilon is not {d}-torsion: {eps_val}")

    v: Dict[int, GA] = dict(free.v_other)
    zf = _PlaqueField(track, anchors.reps, d)
    t_bar = anchors.t_bar
    rep_bar = anchors.reps[t_bar]
    for pl in track.plaques:
        if pl.id == t_bar:
            continue
        for j in tables.B:
            zf.set_class(pl.id, j, free.z_other[pl.id][j])
    for j in _free_b_indices(tables):
        zf.set_class(t_bar, j, free.z_anchor[j])

    v_bar: List[Optional[GroupElement]] = [None] * (d - 1)
    if d == 2:
        others = al.group_sub(
            al.group_sum(kind, (v[r][0] for r in cls.u_right if r != anchors.r_bar)),
            al.group_sum(kind, (v[r][0] for r in cls.u_left)))
        v_bar[0] = al.group_sub(eps_val, others)
    else:
        for i in tables.A:
            if i not in tables.A_prime:
                v_bar[i[0] - 1] = free.v_anchor[i]

    bar_plaque = next(pl for pl in track.plaques if pl.id == t_bar)
    tau_minus = bar_plaque.minus(rep_bar)
    tau_plus = bar_plaque.plus(rep_bar)

    def vsum(ids, i1: int) -> GroupElement:
        vals = []
        for r in ids:
            vec = v_bar if r == anchors.r_bar else v[r]
            e = vec[i1 - 1]
            if e is None:
                raise AssertionError("anchor slot read before being set")
            vals.append(e)
        return al.group_sum(kind, vals)

    def zsum(switches, indices, exclude=()) -> GroupElement:
        skip = set(exclude)
        return al.group_sum(kind, (zf.get(t, j) for t in switches
                                   for j in indices if (t, j) not in skip))

    all_switches = list(track.switch_ids)
    s_left = [t for t in all_switches if t in cls.s_left]
    s_right = [t for t in all_switches if t in cls.s_right]

    if d == 4:
        _solve_d4_anchor(kind, tables, cls, zf, t_bar, rep_bar, tau_minus,
                         vsum, zsum, s_left, s_right, eps_val)
    else:
        if d % 2 == 0 and d >= 6:
            _step1_even(kind, tables, cls, zf, t_bar, tau_minus,
                        vsum, zsum, s_left, s_right)
        if d >= 3:
            _step2(kind, tables, zf, track, anchors, t_bar, rep_bar,
                   vsum, zsum, s_left, cls, eps_val)
        _step3(kind, tables, zf, t_bar, tau_minus, tau_plus, all_switches, d)

    if d >= 3:
        for i in tables.A_prime:
            i_hat = al.hat_pair(i)
            val = zsum(s_left, [j for j in tables.B if j[1] == i[1]])
            val = al.group_sub(val, zsum(s_right, [j for j in tables.B if j[1] == i[0]]))
            val = al.group_add(val, al.group_sub(
                al.group_sum(kind, (al.group_add(v[r][i[0] - 1], v[r][i[1] - 1])
                                    for r in cls.u_left)),
                al.group_sum(kind, (al.group_add(v[r][i[0] - 1], v[r][i[1] - 1])
                                    for r in cls.u_right if r != anchors.r_bar))))
            # the mirrored anchor slot was fixed in advance
            hat_val = v_bar[i_hat[0] - 1]
            assert hat_val is not None
            v_bar[i[0] - 1] = al.group_sub(val, hat_val)

    assert all(e is not None for e in v_bar)
    v[anchors.r_bar] = tuple(v_bar)
    return require_member(tree, CocyclicCoords(d=d, kind=kind, v=v, z=zf.materialize(track)), tol)


def _step1_even(kind, tables, cls, zf, t_bar, tau_minus, vsum, zsum, s_left, s_right):
    i0 = tables.i_zero
    j0 = tables.j_zero
    j0m = al.rot_minus(j0)
    b0 = list(tables.B_zero)
    ul2 = al.int_scale(2, vsum(cls.u_left, i0[0]))
    ur2 = al.int_scale(2, vsum(cls.u_right, i0[0]))
    if tau_minus in cls.s_right:
        val = al.group_sub(ul2, ur2)
        val = al.group_add(val, zsum(s_left, b0))
        val = al.group_sub(val, zsum([t for t in s_right if t != tau_minus], b0))
        val = al.group_sub(val, zsum([tau_minus], [j for j in b0 if j != j0m]))
    else:
        val = al.group_sub(ur2, ul2)
        val = al.group_sub(val, zsum([t for t in s_left if t != tau_minus], b0))
        val = al.group_sub(val, zsum([tau_minus], [j for j in b0 if j != j0m]))
        val = al.group_add(val, zsum(s_right, b0))
    zf.set_class(t_bar, j0, val)


def _step2(kind, tables, zf, track, anchors, t_bar, rep_bar, vsum, zsum, s_left, cls, eps_val):
    jp = tables.j_prime
    b_star = list(tables.B_star)
    val = al.group_neg(eps_val)
    other_reps = [anchors.reps[pl.id] for pl in track.plaques if pl.id != t_bar]
    val = al.group_sub(val, zsum(other_reps, b_star))
    val = al.group_sub(val, zsum([rep_bar], [j for j in b_star if j != jp]))
    if tables.d % 2 == 0:
        i0 = tables.i_zero
        val = al.group_add(val, al.group_sub(vsum(cls.u_right, i0[0]),
                                             vsum(cls.u_left, i0[0])))
        val = al.group_sub(val, zsum(s_left, list(tables.B_zero)))
    zf.set_class(t_bar, jp, val)


def _step3(kind, tables, zf, t_bar, tau_minus, tau_plus, all_switches, d):
    fl = (d - 1) // 2
    if fl < 2:
        return
    bp_minus = {al.rot_minus(j) for j in tables.B_prime}
    bp_plus = {al.rot_plus(j) for j in tables.B_prime}

    # largest first-coordinate case: single unknown on the minus side
    i1 = fl
    i2 = d - i1
    target = (i1 - 1, i2, 1)
    val = al.group_sum(kind, (zf.get(t, j) for t in all_switches
                              for j in tables.B if j[1] == i1))
    val = al.group_sub(val, al.group_sum(
        kind, (zf.get(t, j) for t in all_switches if t != tau_minus
               for j in tables.B if j[1] == i2)))
    val = al.group_sub(val, al.group_sum(
        kind, (zf.get(tau_minus, j) for j in tables.B
               if j[1] == i2 and j not in bp_minus)))
    zf.set_class(t_bar, al.rot_plus(target), val)

    for i1 in range(fl - 1, 1, -1):
        i2 = d - i1
        target = (i1 - 1, i2, 1)
        val = al.group_sum(kind, (zf.get(t, j) for t in all_switches if t != tau_plus
                                  for j in tables.B if j[1] == i1))
        val = al.group_add(val, al.group_sum(
            kind, (zf.get(tau_plus, j) for j in tables.B
                   if j[1] == i1 and j not in bp_plus)))
        val = al.group_sub(val, al.group_sum(
            kind, (zf.get(t, j) for t in all_switches if t != tau_minus
                   for j in tables.B if j[1] == i2)))
        val = al.group_sub(val, al.group_sum(
            kind, (zf.get(tau_minus, j) for j in tables.B
                   if j[1] == i2 and j not in bp_minus)))
        val = al.group_add(val, zf.get(tau_plus, (1, i1, d - 1 - i1)))
        zf.set_class(t_bar, al.rot_plus(target), val)


def _solve_d4_anchor(kind, tables, cls, zf, t_bar, rep_bar, tau_minus,
                     vsum, zsum, s_left, s_right, eps_val):
    """Coupled anchor slots for d=4; requires rep and minus-neighbour on
    opposite sides, solving the torsion equation first and then the balance
    equation for the middle pair index."""
    i0 = tables.i_zero
    j0 = tables.j_zero
    jp = tables.j_prime
    b0 = list(tables.B_zero)
    rep_side_right = rep_bar in cls.s_right
    minus_side_right = tau_minus in cls.s_right
    if rep_side_right == minus_side_right:
        raise AnchorError("anchor plaque is single-sided at d=4; pick mixed-side anchors")
    ur = vsum(cls.u_right, i0[0])
    ul = vsum(cls.u_left, i0[0])
    if not rep_side_right:
        # torsion equation determines the anchor-representative slot
        known = zsum([t for t in s_left if t != rep_bar], b0)
        y = al.group_sub(al.group_sub(al.group_sub(ur, ul), eps_val), known)
        zf.set_class(t_bar, jp, y)
        val = al.group_sub(zsum(s_left, b0),
                           zsum([t for t in s_right if t != tau_minus], b0))
        val = al.group_sub(val, al.int_scale(2, al.group_sub(ur, ul)))
        zf.set_class(t_bar, j0, val)
    else:
        known = zsum([t for t in s_left if t != tau_minus], b0)
        x = al.group_sub(al.group_sub(al.group_sub(ur, ul), eps_val), known)
        zf.set_class(t_bar, j0, x)
        val = al.group_sub(zsum(s_left, b0),
                           zsum([t for t in s_right if t != rep_bar], b0))
        val = al.group_sub(val, al.int_scale(2, al.group_sub(ur, ul)))
        zf.set_class(t_bar, jp, val)


# -- auxiliary identities ------------------------------------------------------


def nice_combination_check(track: TrainTrack,
                           z: Mapping[int, Mapping[TripleIndex, GroupElement]],
                           t: int, d: int, kind: str,
                           tol: float = al.DEFAULT_TOL
                           ) -> Tuple[GroupElement, GroupElement]:
    tables = al.index_tables(d)
    pl = track.plaque_of_switch(t)
    trio = (t, pl.plus(t), pl.minus(t))
    check_diamond(track, z, d, tol)

    def trio_sum(middle: int) -> GroupElement:
        return al.group_sum(kind, (z[s][j] for s in trio
                                   for j in tables.B if j[1] == middle))

    lhs = al.group_sum(
        kind,
        (al.int_scale(i[0], al.group_sub(trio_sum(i[0]), trio_sum(i[1])))
         for i in tables.A_prime))
    rhs = al.int_scale(d, al.group_sum(kind, (z[t][j] for j in tables.B_star)))
    if d % 2 == 0:
        extra = al.group_sum(kind, (z[s][j] for s in trio for j in tables.B_zero))
        rhs = al.group_add(rhs, al.int_scale(d // 2, extra))
    return lhs, rhs


def compose_alpha(a12: GA, a23: GA, theta: Mapping[TripleIndex, GroupElement],
                  label: str, d: int, kind: str) -> GA:
    if label not in ("cw", "ccw"):
        raise ValueError("label must be 'cw' or 'ccw'")
    tables = al.index_tables(d)
    out = []
    for i in tables.A:
        acc = al.group_add(a12[i[0] - 1], a23[i[0] - 1])
        if label == "cw":
            corr = al.group_sum(kind, (theta[j] for j in tables.B if j[1] == i[0]))
            acc = al.group_add(acc, corr)
        else:
            corr = al.group_sum(kind, (theta[j] for j in tables.B if j[1] == i[1]))
            acc = al.group_sub(acc, corr)
        out.append(acc)
    return tuple(out)


# -- sampling and serialization -------------------------------------------------


def random_free(tree: OrientedTree, d: int, kind: str, rng,
                anchors: Optional[Anchors] = None) -> FreeCoords:
    tables = al.index_tables(d)
    track = tree.track
    if anchors is None:
        anchors = default_anchors(tree, d)
    v_other = {r.id: tuple(al.random_element(kind, rng) for _ in tables.A)
               for r in track.rects
               if r.id not in tree.edges and r.id != anchors.r_bar}
    if d == 2:
        v_anchor: Dict[PairIndex, GroupElement] = {}
    else:
        v_anchor = {i: al.random_element(kind, rng)
                    for i in tables.A if i not in tables.A_prime}
    z_other = {pl.id: {j: al.random_element(kind, rng) for j in tables.B}
               for pl in track.plaques if pl.id != anchors.t_bar}
    z_anchor = {j: al.random_element(kind, rng) for j in _free_b_indices(tables)}
    return FreeCoords(d, kind, v_other, v_anchor, z_other, z_anchor)


def sample_y(tree: OrientedTree, d: int, kind: str, rng,
             anchors: Optional[Anchors] = None,
             eps: Optional[GroupElement] = None) -> Member:
    if anchors is None:
        anchors = default_anchors(tree, d)
    free = random_free(tree, d, kind, rng, anchors)
    if eps is None:
        eps = al.torsion_element(kind, d, rng.randrange(d))
    return i2_inverse(tree, free, eps, anchors)
