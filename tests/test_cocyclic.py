import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest

from switchyard import algebra as al
from switchyard import cocyclic as cc
from switchyard import homology as hm
from switchyard import io
from switchyard import slither as sl
from switchyard import traintrack as tt

from conftest import as_member, plan_point


DATA = Path(__file__).parent / "data"  # tracks pinned from generate_fixture 0.1.0
(TRACK, _), _ = io.load(DATA / "track_g2_s1.json", io.track_from_json)
TREE = cc.ensure_right_unorientable(tt.maximal_tree(TRACK, seed=1))
CLS = tt.classify(TREE)
FREE_RECTS = sorted(r.id for r in TRACK.rects if r.id not in TREE.edges)
# an orientable rectangle off the tree: its v slots enter no equation
LONE = min(r for r in CLS.orientable if r in FREE_RECTS)

KINDS = ("real", "circle", "cylinder", "zd:12")


def zero_coords(d, kind):
    tables = al.index_tables(d)
    zero = al.zero(kind)
    v = {r: tuple(zero for _ in tables.A) for r in FREE_RECTS}
    z = {t: {j: zero for j in tables.B} for t in TRACK.switch_ids}
    return as_member(TREE, d, kind, v, z)


def random_rotated_z(d, kind, rng, track=TRACK):
    """Random B-vector per plaque, spread onto its switches by rotation."""
    tables = al.index_tables(d)
    z = {}
    for pl in track.plaques:
        t0 = min(pl.switches_ccw)
        base = {j: al.random_element(kind, rng) for j in tables.B}
        z[t0] = dict(base)
        z[pl.plus(t0)] = {j: base[al.rot_minus(j)] for j in tables.B}
        z[pl.minus(t0)] = {j: base[al.rot_plus(j)] for j in tables.B}
    return z


def random_coords(d, kind, rng, rotated=True):
    tables = al.index_tables(d)
    v = {r: tuple(al.random_element(kind, rng) for _ in tables.A) for r in FREE_RECTS}
    if rotated:
        z = random_rotated_z(d, kind, rng)
    else:
        z = {t: {j: al.random_element(kind, rng) for j in tables.B}
             for t in TRACK.switch_ids}
    return as_member(TREE, d, kind, v, z)


def plain(c):
    """Mutable copies of the v and z of ``c``, for tests that perturb a point and
    rebuild it with `as_member`."""
    return {r: list(vec) for r, vec in c.v.items()}, {t: dict(vec) for t, vec in c.z.items()}


def unchecked(c):
    """``c`` at tol = inf, copied in chart order from its views: the next gate checks it
    again in full."""
    return as_member(c.tree, c.d, c.kind, c.v, c.z)


def coords_equal(c1, c2, tol=1e-9):
    if set(c1.v) != set(c2.v) or set(c1.z) != set(c2.z):
        return False
    for r in c1.v:
        if any(not al.elements_equal(a, b, tol) for a, b in zip(c1.v[r], c2.v[r])):
            return False
    for t in c1.z:
        if set(c1.z[t]) != set(c2.z[t]):
            return False
        for j in c1.z[t]:
            if not al.elements_equal(c1.z[t][j], c2.z[t][j], tol):
                return False
    return True


def free_equal(f1, f2, tol=1e-9):
    if (set(f1.v_other) != set(f2.v_other) or set(f1.v_anchor) != set(f2.v_anchor)
            or set(f1.z_other) != set(f2.z_other) or set(f1.z_anchor) != set(f2.z_anchor)):
        return False
    for r in f1.v_other:
        if any(not al.elements_equal(a, b, tol)
               for a, b in zip(f1.v_other[r], f2.v_other[r])):
            return False
    for i in f1.v_anchor:
        if not al.elements_equal(f1.v_anchor[i], f2.v_anchor[i], tol):
            return False
    for t in f1.z_other:
        if set(f1.z_other[t]) != set(f2.z_other[t]):
            return False
        for j in f1.z_other[t]:
            if not al.elements_equal(f1.z_other[t][j], f2.z_other[t][j], tol):
                return False
    for j in f1.z_anchor:
        if not al.elements_equal(f1.z_anchor[j], f2.z_anchor[j], tol):
            return False
    return True


def _holds(check, *args):
    """Whether ``check(*args)`` returns without raising a `ValueError`."""
    try:
        check(*args)
    except ValueError:
        return False
    return True


class TestCheckers:
    def test_diamond_zero_true(self):
        for d in (2, 3, 4, 5):
            c = zero_coords(d, "real")
            cc.check_diamond(TRACK, c.z, c.d)

    def test_diamond_rotated_random_true(self):
        rng = random.Random(3)
        for d in (3, 4, 5):
            for kind in KINDS:
                c = random_coords(d, kind, rng, rotated=True)
                cc.check_diamond(TRACK, c.z, c.d)

    def test_diamond_perturbed_false(self):
        rng = random.Random(4)
        _, z = plain(random_coords(4, "real", rng, rotated=True))
        t = min(TRACK.switch_ids)
        j = al.index_tables(4).B[0]
        z[t][j] = al.group_add(z[t][j], al.real(0.5))
        with pytest.raises(ValueError, match="rotation relation"):
            cc.check_diamond(TRACK, z, 4)

    def test_is_member_false_on_rotation_only_violation(self):
        rng = random.Random(40)
        t = min(TRACK.switch_ids)
        for d, kind in itertools.product(range(4, 9), KINDS):
            m = cc.sample_y(TREE, d, kind, rng)
            v, z = plain(m)
            # (1, 1, d-2) and (d-2, 1, 1) share the middle index every balance sum filters on
            bump = al.random_element(kind, rng)
            z[t][(1, 1, d - 2)] = al.group_add(z[t][(1, 1, d - 2)], bump)
            z[t][(d - 2, 1, 1)] = al.group_sub(z[t][(d - 2, 1, 1)], bump)
            c = as_member(TREE, d, kind, v, z)
            assert all(cc.check_club(TREE, c, i) for i in al.index_tables(d).A)
            with pytest.raises(ValueError, match="rotation relation"):
                cc.check_diamond(TRACK, c.z, c.d)
            assert cc.is_member(TREE, c) is False
            with pytest.raises(cc.MembershipError, match="^rotation relations fail$"):
                cc.require_member(TREE, c)
            # the gate's lane check and the element oracle agree on either side of
            # the bump, and on the point before it
            gap = al.distance(bump, al.zero(kind))
            for point, tol in itertools.product((c, unchecked(m)), (al.DEFAULT_TOL, gap / 2,
                                                                    2 * gap)):
                if math.isfinite(tol):
                    oracle = _holds(cc.check_diamond, TRACK, point.z, d, tol)
                    assert _holds(cc._require_rotation, cc.chart(TREE, d), kind, point.lanes,
                                  tol) == oracle, (d, kind, tol)
                    assert cc.is_member(TREE, point, tol) == oracle, (d, kind, tol)
            assert cc.is_member(TREE, unchecked(m)) and _holds(cc.check_diamond, TRACK, m.z, d)

    def test_is_member_false_on_balance_only_violation(self):
        rng = random.Random(41)
        for bump in (al.real(0.5), al.cyclic(12, 1)):
            v, z = plain(cc.sample_y(TREE, 3, bump.kind, rng))
            r = min(CLS.u_right)
            v[r][0] = al.group_add(v[r][0], bump)
            c = as_member(TREE, 3, bump.kind, v, z)
            cc.check_diamond(TRACK, c.z, c.d)
            assert cc.is_member(TREE, c) is False
            with pytest.raises(cc.MembershipError, match="balance equation fails at pair index"):
                cc.require_member(TREE, c)

    def test_club_zero_true(self):
        for d in (2, 3, 4, 5):
            c = zero_coords(d, "cylinder")
            for i in al.index_tables(d).A:
                assert cc.check_club(TREE, c, i)

    def test_club_random_false_generically(self):
        rng = random.Random(5)
        for d in (2, 3, 5):
            c = random_coords(d, "real", rng, rotated=True)
            assert not all(cc.check_club(TREE, c, i) for i in al.index_tables(d).A)

    def test_spade_zero_true(self):
        for d in (2, 3, 4, 5):
            c = zero_coords(d, "circle")
            for i in al.index_tables(d).A:
                assert cc.check_spade(c, i)

    def test_spade_fails_generically_on_diamond_only_points(self):
        rng = random.Random(6)
        for d in (3, 4, 5):
            c = random_coords(d, "real", rng, rotated=True)
            assert not cc.check_spade(c, (1, d - 1))

    def test_membership_implies_spade_everywhere(self):
        rng = random.Random(7)
        for d in (3, 4, 5, 6):
            c = cc.sample_y(TREE, d, "real", rng)
            for i in al.index_tables(d).A:
                assert cc.check_spade(c, i)

    def test_club_pair_iff_club_and_spade(self):
        # adjust one right-exiting slot so the balance at i holds, then the
        # mirrored balance must hold exactly when the switch sum does
        rng = random.Random(8)
        r0 = min(r for r in CLS.u_right if r in FREE_RECTS)
        for d in (4, 5, 6):
            # self-reversed middle indices would need the adjustment halved
            pairs = [(1, d - 1)] + ([(2, d - 2)] if d != 4 else [])
            for i in pairs:
                for trial in range(20):
                    c = random_coords(d, "real", rng, rotated=True)
                    lhs, rhs = al._from_lanes("real", cc._club_sides(TREE, c, i))
                    v, z = plain(c)
                    v[r0][i[0] - 1] = al.group_add(v[r0][i[0] - 1], al.group_sub(rhs, lhs))
                    c = as_member(TREE, d, "real", v, z)
                    assert cc.check_club(TREE, c, i)
                    i_hat = al.hat_pair(i)
                    assert cc.check_club(TREE, c, i_hat) == cc.check_spade(c, i)

    def test_club_pair_follows_after_spade_repair(self):
        rng = random.Random(9)
        d = 5
        i = (2, 3)
        tables = al.index_tables(d)
        v, z = plain(random_coords(d, "real", rng, rotated=True))
        # make the switch sums at i agree by moving one z slot
        j_fix = next(j for j in tables.B if j[1] == i[0])
        t_fix = min(TRACK.switch_ids)
        lhs = al.group_sum("real", (z[t][j] for t in z for j in z[t] if j[1] == i[1]))
        rhs = al.group_sum("real", (z[t][j] for t in z for j in z[t] if j[1] == i[0]))
        z[t_fix][j_fix] = al.group_add(z[t_fix][j_fix], al.group_sub(lhs, rhs))
        c = as_member(TREE, d, "real", v, z)
        assert cc.check_spade(c, i)
        lhs, rhs = al._from_lanes("real", cc._club_sides(TREE, c, i))
        r0 = min(r for r in CLS.u_right if r in FREE_RECTS)
        v[r0][i[0] - 1] = al.group_add(v[r0][i[0] - 1], al.group_sub(rhs, lhs))
        c = as_member(TREE, d, "real", v, z)
        assert cc.check_club(TREE, c, i)
        assert cc.check_club(TREE, c, al.hat_pair(i))


G4_TRACK = Path(__file__).parent.parent / "perfbench" / "data" / "g4_track.json"


def _right_parity_form(tree, d, v, z, anchors):
    """The paper's right parity form of tor′ at even d, the reference that
    `cocyclic._tor_forms` no longer evaluates: base − (ur − ul) − zr, where base is
    minus the B_star slots of every plaque's representative, ur/ul the middle v
    column summed over u_right/u_left and zr the B_zero slots over s_right."""
    tables = al.index_tables(d)
    cls = tt.classify(tree)
    mid = tables.i_zero[0] - 1
    return [[(-1, z[anchors.reps[pl.id]][j]) for pl in tree.track.plaques for j in tables.B_star]
            + [(-1, v[r][mid]) for r in cls.u_right] + [(1, v[r][mid]) for r in cls.u_left]
            + [(-1, z[t][j]) for t in cls.s_right for j in tables.B_zero]]


def _coefficients(*signed_rows):
    """The integer coefficient of each slot in the sum of sign * row over
    ``signed_rows``, (sign, row) pairs, with zero coefficients left out."""
    total = collections.Counter()
    for sign, row in signed_rows:
        for n, slot in row:
            total[slot] += sign * n
    return {slot: n for slot, n in total.items() if n}


class TestTorPrime:
    def test_zero_coords_identity(self):
        for d in (2, 3, 4, 5, 6):
            for kind in KINDS:
                t = cc.tor_prime(TREE, zero_coords(d, kind))
                assert al.is_zero(t.value, 1e-12)

    def test_d2_closed_form(self):
        rng = random.Random(11)
        for kind in ("real", "cylinder", "zd:12"):
            c = cc.sample_y(TREE, 2, kind, rng)
            t = cc.tor_prime(TREE, c)
            expect = al.group_sub(
                al.group_sum(kind, (c.v[r][0] for r in CLS.u_right)),
                al.group_sum(kind, (c.v[r][0] for r in CLS.u_left)))
            assert al.elements_equal(t.value, expect, 1e-9)

    def test_representative_choice_invariance(self):
        rng = random.Random(12)
        for d in (3, 4, 5, 6):
            for kind in ("real", "cylinder"):
                c = cc.sample_y(TREE, d, kind, rng)
                base = cc.default_anchors(TREE, d)
                alt_reps = {pl.id: max(pl.switches_ccw) for pl in TRACK.plaques}
                alt = cc.Anchors(t_bar=base.t_bar, r_bar=base.r_bar, reps=alt_reps)
                t1 = cc.tor_prime(TREE, c, base)
                t2 = cc.tor_prime(TREE, c, alt)
                assert al.elements_equal(t1.value, t2.value, 1e-9)

    @pytest.mark.parametrize("name", ["track_g2_s1", "track_g2_s7", "track_g3_s2", "g4"])
    def test_parity_forms_differ_by_the_i0_balance_row(self, name):
        # tor′ evaluates the left form alone: left − right is, coefficient for
        # coefficient, lhs − rhs of the i0 balance equation, which the gate checks
        if name == "g4":
            (_, stored), _ = io.load(G4_TRACK, io.track_from_json)
            tree, ds = cc.ensure_right_unorientable(stored), (*range(2, 17, 2), 32, 64)
        else:
            tree, ds = _tree_of(name), range(2, 17, 2)
        for d in ds:
            anchors = cc.default_anchors(tree, d)
            left, = cc.recorded_rows(tree, d, cc._tor_forms, anchors)
            right, = cc.slot_rows(tree, d, _right_parity_form, anchors)
            lhs, rhs = cc.chart(tree, d).balance[(d // 2, d // 2)]
            difference = _coefficients((1, left), (-1, right))
            assert difference and difference == _coefficients((1, lhs), (-1, rhs)), (name, d)

    def test_non_member_raises(self):
        rng = random.Random(14)
        c = random_coords(3, "real", rng, rotated=False)
        with pytest.raises(cc.MembershipError):
            cc.tor_prime(TREE, c)

    def test_value_is_torsion(self):
        rng = random.Random(15)
        for d in (3, 4, 5):
            t = cc.tor_prime(TREE, cc.sample_y(TREE, d, "zd:12", rng))
            assert al.is_d_torsion(t.value, d, 1e-9)


class TestAnchors:
    def test_defaults_use_lowest_ids(self):
        a = cc.default_anchors(TREE, 5)
        assert a.t_bar == min(pl.id for pl in TRACK.plaques)
        assert a.r_bar == min(CLS.u_right)
        for pl in TRACK.plaques:
            assert a.reps[pl.id] == min(pl.switches_ccw)

    def test_d4_default_picks_mixed_side_plaque(self):
        a = cc.default_anchors(TREE, 4)
        rep = a.reps[a.t_bar]
        pl = next(p for p in TRACK.plaques if p.id == a.t_bar)
        assert ((rep in CLS.s_right) != (pl.minus(rep) in CLS.s_right))

    def test_d4_single_sided_anchor_rejected(self):
        # plaque whose three switches all exit on the same side
        uniform = next(pl for pl in TRACK.plaques
                       if len({t in CLS.s_right for t in pl.switches_ccw}) == 1)
        base = cc.default_anchors(TREE, 4)
        reps = dict(base.reps)
        reps[uniform.id] = min(uniform.switches_ccw)
        bad = cc.Anchors(t_bar=uniform.id, r_bar=base.r_bar, reps=reps)
        free = cc.random_free(TREE, 4, "real", random.Random(16), bad)
        eps = al.torsion_element("real", 4, 0)
        with pytest.raises(cc.AnchorError):
            cc.i2_inverse(TREE, free, eps, bad)

    def test_orientation_flip_when_no_right_unorientable(self):
        (track, _), _ = io.load(DATA / "track_g2_s7.json", io.track_from_json)
        tree = tt.maximal_tree(track, seed=3)
        cls = tt.classify(tree)
        assert not cls.u_right and cls.u_left
        with pytest.raises(cc.AnchorError):
            cc.default_anchors(tree, 3)
        fixed = cc.ensure_right_unorientable(tree)
        assert tt.classify(fixed).u_right == cls.u_left
        cc.default_anchors(fixed, 3)

    def test_anchor_rectangle_on_the_tree_is_refused(self):
        # a tree edge carries no v slots, so no free slot can be drawn for it
        base = cc.default_anchors(TREE, 3)
        edge = min(TREE.edges)
        bad = cc.Anchors(t_bar=base.t_bar, r_bar=edge, reps=base.reps)
        for d in (2, 3):
            with pytest.raises(cc.AnchorError, match=f"^anchor rectangle {edge} carries no slot "
                                                     "off the tree$"):
                cc.random_free(TREE, d, "real", random.Random(16), bad)

    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_invalid_anchors_are_refused_in_one_place(self, d):
        # drawing, inverting and the torsion invariant each name the same fault
        base = cc.default_anchors(TREE, d)
        left, orientable = min(CLS.u_left), min(CLS.orientable)
        other = TRACK.plaques[1].switches_ccw[0]
        ids = sorted(pl.id for pl in TRACK.plaques)
        cases = [
            (cc.Anchors(base.t_bar, left, base.reps),
             f"anchor rectangle {left} is not a right-exiting unorientable rectangle off the tree"),
            (cc.Anchors(base.t_bar, orientable, base.reps),
             f"anchor rectangle {orientable} is not a right-exiting unorientable rectangle "
             "off the tree"),
            (cc.Anchors(99, base.r_bar, base.reps),
             "anchor plaque 99 is not a plaque of the track"),
            (cc.Anchors(base.t_bar, base.r_bar, {p: s for p, s in base.reps.items() if p != 0}),
             f"the representatives name plaques {ids[1:]}, not the track's plaques {ids}"),
            (cc.Anchors(base.t_bar, base.r_bar, {**base.reps, 0: other}),
             f"representative {other} is not a switch of plaque 0"),
        ]
        member = cc.sample_y(TREE, d, "cylinder", random.Random(17))
        free = cc.random_free(TREE, d, "cylinder", random.Random(18), base)
        eps = al.torsion_element("cylinder", d, 1)
        for bad, message in cases:
            for call in (lambda: cc.random_free(TREE, d, "cylinder", random.Random(19), bad),
                         lambda: cc.i2_inverse(TREE, free, eps, bad),
                         lambda: cc.tor_prime(TREE, member, bad)):
                with pytest.raises(cc.AnchorError) as got:
                    call()
                assert str(got.value) == message

    def test_ensure_right_unorientable_keeps_good_tree(self):
        assert cc.ensure_right_unorientable(TREE) is TREE

    def test_anchors_are_values(self):
        a = cc.default_anchors(TREE, 4)
        b = cc.Anchors(t_bar=a.t_bar, r_bar=a.r_bar, reps=dict(a.reps))
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != cc.default_anchors(TREE, 3)
        with pytest.raises(TypeError):
            a.reps[a.t_bar] = 0
        reps = dict(a.reps)
        built = cc.Anchors(t_bar=a.t_bar, r_bar=a.r_bar, reps=reps)
        reps[a.t_bar] = 0
        assert built == a


def assert_free_fills_layout(free, layout):
    """``free`` holds exactly the slots that ``layout`` names, no more."""
    assert set(free.v_other) == set(layout.rects)
    assert all(len(vec) == layout.d - 1 for vec in free.v_other.values())
    assert set(free.v_anchor) == set(layout.pairs)
    assert set(free.z_other) == set(layout.plaques)
    b = set(al.index_tables(layout.d).B)
    assert all(set(vec) == b for vec in free.z_other.values())
    assert set(free.z_anchor) == set(layout.triples)


class TestI2:
    def test_zero_point_maps_to_zero_slots(self):
        for d in (2, 3, 4, 5):
            free, eps = cc.i2_forward(TREE, zero_coords(d, "cylinder"))
            assert al.is_zero(eps.value, 1e-12)
            for vec in free.v_other.values():
                assert all(al.is_zero(e, 1e-12) for e in vec)
            assert all(al.is_zero(e, 1e-12) for e in free.v_anchor.values())
            for m in free.z_other.values():
                assert all(al.is_zero(e, 1e-12) for e in m.values())
            assert all(al.is_zero(e, 1e-12) for e in free.z_anchor.values())

    def test_slot_count_matches_dimension(self):
        for d in (2, 3, 4, 5, 6, 7):
            free, _ = cc.i2_forward(TREE, zero_coords(d, "real"))
            layout = cc.free_layout(TREE, d, cc.default_anchors(TREE, d))
            assert_free_fills_layout(free, layout)
            assert len(free.lanes) == al.dimension_count(d, TRACK.genus)

    def test_slot_count_genus_three(self):
        (track, _), _ = io.load(DATA / "track_g3_s2.json", io.track_from_json)
        tree = cc.ensure_right_unorientable(tt.maximal_tree(track, seed=1))
        rng = random.Random(17)
        for d in (2, 3, 4, 5):
            free = cc.random_free(tree, d, "real", rng)
            layout = cc.free_layout(tree, d, cc.default_anchors(tree, d))
            assert_free_fills_layout(free, layout)
            assert len(free.lanes) == al.dimension_count(d, 3)

    def test_zero_free_identity_eps_gives_zero_point(self):
        for d in (2, 3, 4, 5):
            free, _ = cc.i2_forward(TREE, zero_coords(d, "real"))
            c = cc.i2_inverse(TREE, free, al.torsion_element("real", d, 0))
            assert coords_equal(c, zero_coords(d, "real"), 1e-12)

    def test_zero_free_torsion_eps_constructs_each_component(self):
        for d in (2, 3, 4, 5):
            free, _ = cc.i2_forward(TREE, zero_coords(d, "cylinder"))
            for k in range(d):
                eps = al.torsion_element("cylinder", d, k)
                c = cc.i2_inverse(TREE, free, eps)
                t = cc.tor_prime(TREE, c)
                assert al.elements_equal(t.value, eps, 1e-9)

    def test_roundtrip_from_free_side(self):
        rng = random.Random(18)
        for d in (2, 3, 4, 5, 6):
            for kind in ("real", "circle", "cylinder"):
                anchors = cc.default_anchors(TREE, d)
                free = cc.random_free(TREE, d, kind, rng, anchors)
                eps = al.torsion_element(kind, d, rng.randrange(d))
                c = cc.i2_inverse(TREE, free, eps, anchors)
                back, back_eps = cc.i2_forward(TREE, c, anchors)
                assert free_equal(free, back, 1e-9)
                assert al.elements_equal(back_eps.value, eps, 1e-9)

    def test_roundtrip_from_member_side(self):
        rng = random.Random(19)
        for d in (2, 3, 4, 5, 6):
            for kind in ("real", "cylinder"):
                anchors = cc.default_anchors(TREE, d)
                c = cc.sample_y(TREE, d, kind, rng, anchors)
                free, eps = cc.i2_forward(TREE, c, anchors)
                again = cc.i2_inverse(TREE, free, eps, anchors)
                assert coords_equal(c, again, 1e-9)

    def test_roundtrip_exact_over_cyclic(self):
        rng = random.Random(20)
        for d in (2, 3, 4, 5):
            anchors = cc.default_anchors(TREE, d)
            free = cc.random_free(TREE, d, "zd:12", rng, anchors)
            eps = al.torsion_element("zd:12", d, rng.randrange(d))
            c = cc.i2_inverse(TREE, free, eps, anchors)
            back, back_eps = cc.i2_forward(TREE, c, anchors)
            assert free_equal(free, back, 0.0)
            assert al.elements_equal(back_eps.value, eps, 0.0)
            again = cc.i2_inverse(TREE, back, back_eps, anchors)
            assert coords_equal(c, again, 0.0)

    def test_torsion_projection_matches_invariant(self):
        rng = random.Random(21)
        for d in (2, 3, 4, 5):
            for kind in ("cylinder", "zd:12"):
                c = cc.sample_y(TREE, d, kind, rng)
                _, eps = cc.i2_forward(TREE, c)
                t = cc.tor_prime(TREE, c)
                assert al.elements_equal(eps.value, t.value, 1e-12)

    def test_inverse_certified_members(self):
        # one hundred random inputs across the discrete and continuous groups
        rng = random.Random(22)
        for trial in range(100):
            kind = ("zd:12", "cylinder")[trial % 2]
            d = (2, 3, 4, 5)[trial % 4]
            anchors = cc.default_anchors(TREE, d)
            free = cc.random_free(TREE, d, kind, rng, anchors)
            eps = al.torsion_element(kind, d, rng.randrange(d))
            c = cc.i2_inverse(TREE, free, eps, anchors)
            cc.check_diamond(TRACK, c.z, c.d)
            for i in al.index_tables(d).A:
                assert cc.check_club(TREE, c, i)

    def test_non_torsion_eps_rejected(self):
        free, _ = cc.i2_forward(TREE, zero_coords(3, "real"))
        with pytest.raises(ValueError):
            cc.i2_inverse(TREE, free, al.real(0.3))

    def test_forward_rejects_non_member(self):
        rng = random.Random(23)
        c = random_coords(3, "real", rng, rotated=True)
        with pytest.raises(cc.MembershipError):
            cc.i2_forward(TREE, c)

    @pytest.mark.parametrize("d", [7, 8])
    @pytest.mark.parametrize("kind", ["cylinder", "zd:12"])
    def test_roundtrip_past_the_first_step_three_case(self, kind, d):
        # step 3's inner loop runs from d = 7 on
        tol = 0.0 if kind == "zd:12" else 1e-9
        rng = random.Random(25 + d)
        anchors = cc.default_anchors(TREE, d)
        for _ in range(3):
            eps = al.torsion_element(kind, d, rng.randrange(al.torsion_order(kind, d)))
            c = cc.sample_y(TREE, d, kind, rng, anchors, eps)
            assert cc.is_member(TREE, unchecked(c), al.MEMBER_TOL)
            assert al.elements_equal(cc.tor_prime(TREE, c, anchors).value, eps, tol)
            free, back_eps = cc.i2_forward(TREE, c, anchors)
            assert al.elements_equal(back_eps.value, eps, tol)
            assert coords_equal(c, cc.i2_inverse(TREE, free, back_eps, anchors), tol)

    def test_inverse_does_not_mutate_input(self):
        rng = random.Random(24)
        anchors = cc.default_anchors(TREE, 4)
        free = cc.random_free(TREE, 4, "cylinder", rng, anchors)
        snapshot = (dict(free.v_other), dict(free.v_anchor),
                    {t: dict(m) for t, m in free.z_other.items()},
                    dict(free.z_anchor))
        cc.i2_inverse(TREE, free, al.torsion_element("cylinder", 4, 1), anchors)
        assert free.v_other == snapshot[0]
        assert free.v_anchor == snapshot[1]
        assert free.z_other == snapshot[2]
        assert free.z_anchor == snapshot[3]


def _tor_formula(c):
    """Torsion expression evaluated directly, with no membership precondition."""
    tables = al.index_tables(c.d)
    kind = c.kind
    reps = [min(pl.switches_ccw) for pl in TRACK.plaques]
    base = al.group_neg(al.group_sum(
        kind, (c.z[t][j] for t in reps for j in tables.B_star)))
    if c.d % 2 == 1:
        return base
    i0 = tables.i_zero
    ur = al.group_sum(kind, (c.v[r][i0[0] - 1] for r in CLS.u_right))
    ul = al.group_sum(kind, (c.v[r][i0[0] - 1] for r in CLS.u_left))
    zl = al.group_sum(kind, (c.z[t][j] for t in CLS.s_left for j in tables.B_zero))
    return al.group_sub(al.group_add(base, al.group_sub(ur, ul)), zl)


def _holds_reduced_system(c):
    tables = al.index_tables(c.d)
    try:
        cc.check_diamond(TRACK, c.z, c.d)
    except ValueError:
        return False
    if not all(cc.check_club(TREE, c, i) for i in tables.A_dprime):
        return False
    spade_set = [i for i in tables.A_prime if i != (1, c.d - 1)]
    if not all(cc.check_spade(c, i) for i in spade_set):
        return False
    return al.is_d_torsion(_tor_formula(c), c.d, 1e-7)


def _tree_of(name):
    (track, _), _ = io.load(DATA / f"{name}.json", io.track_from_json)
    return cc.ensure_right_unorientable(tt.maximal_tree(track, seed=1))


# sha256 of every recorded inverse `_pinned_inverses` lists: its layout's slots, its
# out and each step row's terms in sorted order, since `al.run` sums a row's terms in
# any order to the same bits; or the `AnchorError` message of anchors it refuses
PLAN_DIGEST = "fad446f70e87fb067b2f935d9550bda5ec20eb26953213ef55736fb3f6546761"


@functools.cache
def _pinned_inverses():
    """(case, tree, plan or `AnchorError` message) for default anchors on the data tracks'
    trees of seeds 1-3 and the g4 benchmark tree at d = 2-16, then on each data
    track's seed-1 tree at d = 3-8 for anchors with every plaque's second or third
    switch as its representative and the first or second right-exiting unorientable
    rectangle as the anchor rectangle."""
    trees = []
    for name in TestInversePlan.TRACKS:
        (track, _), _ = io.load(DATA / f"{name}.json", io.track_from_json)
        trees += [((name, seed), cc.ensure_right_unorientable(tt.maximal_tree(track, seed=seed)))
                  for seed in (1, 2, 3)]
    (_, g4), _ = io.load(G4_TRACK, io.track_from_json)
    trees.append((("g4_track", None), cc.ensure_right_unorientable(g4)))
    cases = [(at, tree, d, cc.default_anchors(tree, d))
             for at, tree in trees for d in range(2, 17)]
    for (name, seed), tree in trees[:9:3]:
        u_right = sorted(tt.classify(tree).u_right)
        for d, k, r_bar in itertools.product(range(3, 9), (1, 2), u_right[:2]):
            reps = {pl.id: sorted(pl.switches_ccw)[k] for pl in tree.track.plaques}
            cases.append(((name, seed), tree, d,
                          cc.Anchors(cc.default_anchors(tree, d).t_bar, r_bar, reps)))
    out = []
    for at, tree, d, anchors in cases:
        try:
            plan = cc.inverse_plan(tree, d, anchors)
        except cc.AnchorError as err:
            plan = str(err)
        out.append(((at, d, anchors.t_bar, anchors.r_bar, sorted(anchors.reps.items())),
                    tree, plan))
    return out


class TestInversePlan:
    """The recorded inverse: the chart's balance rows and tor′ row, each solved for
    one unknown orbit in turn."""

    TRACKS = ("track_g2_s1", "track_g2_s7", "track_g3_s2")

    def test_plan_matches_the_step_code(self):
        rng = random.Random(70)
        d4_sides = set()  # the coupled d=4 slots are solved in one order or the other
        for name in self.TRACKS:
            tree = _tree_of(name)
            for d in range(2, 9):
                anchors = cc.default_anchors(tree, d)
                if d == 4:
                    d4_sides.add(anchors.reps[anchors.t_bar] in tt.classify(tree).s_right)
                for kind in KINDS:
                    free = cc.random_free(tree, d, kind, rng, anchors)
                    eps = al.torsion_element(kind, d, rng.randrange(al.torsion_order(kind, d)))
                    got = cc.i2_inverse(tree, free, eps, anchors)
                    point = plan_point(tree, free, eps, anchors)
                    assert dict(got.v) == dict(point.v), (name, d, kind)
                    assert ({t: dict(vec) for t, vec in got.z.items()}
                            == {t: dict(vec) for t, vec in point.z.items()}), (name, d, kind)
        assert d4_sides == {True, False}

    def test_pinned_plans_are_unchanged(self):
        digest = hashlib.sha256()
        for case, _, plan in _pinned_inverses():
            if not isinstance(plan, str):
                rows = tuple(tuple(sorted(row)) for row in plan.steps)
                plan = (plan.layout.slots, plan.out, rows)
            digest.update(repr((case, plan)).encode())
        assert digest.hexdigest() == PLAN_DIGEST

    def test_pinned_plans_keep_every_rotation_pair(self):
        # both slots of each pair are filled from one plan slot, so the relation
        # holds on every point a plan builds
        recorded = [(case[1], tree, plan) for case, tree, plan in _pinned_inverses()
                    if not isinstance(plan, str)]
        assert len(recorded) == 218
        for d, tree, plan in recorded:
            for s, p in zip(*cc.chart(tree, d).rotation):
                assert plan.out[s] == plan.out[p], (d, s, p)

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_inverse_runs_its_plan_once_and_builds_no_output(self, kind, lane_work):
        # one `al.run` for the steps and one for every balance row; the slots
        # it fills are taken from the runner's lanes, not renormalized
        d, rng = 6, random.Random(71)
        anchors = cc.default_anchors(TREE, d)
        eps = al.torsion_element(kind, d, 1)
        cc.i2_inverse(TREE, cc.random_free(TREE, d, kind, rng, anchors), eps, anchors)
        free = cc.random_free(TREE, d, kind, rng, anchors)
        lane_work.plans.clear()
        lane_work.from_lanes.clear()
        cc.i2_inverse(TREE, free, eps, anchors)
        plan = cc.inverse_plan(TREE, d, anchors)
        sides = 2 * len(cc.chart(TREE, d).balance)
        assert len(lane_work.plans) == 2 and lane_work.plans[0] is plan.steps
        assert len(lane_work.plans[1]) == sides
        # the output is lanes, and the balance sides are compared as lanes
        assert lane_work.from_lanes == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_round_trip_builds_no_slot_element_until_a_view_is_read(self, kind, lane_work):
        # drawing, inverting and reading back a point build elements only for
        # tor_prime's value (i2_forward's epsilon), and its d-torsion checks none; each
        # view's elements are built from the lanes on its first read, all at once,
        # and kept
        d, rng = 6, random.Random(72)
        anchors = cc.default_anchors(TREE, d)
        eps = al.torsion_element(kind, d, 1)
        warm = cc.i2_inverse(TREE, cc.random_free(TREE, d, kind, rng, anchors), eps, anchors)
        cc.i2_forward(TREE, warm, anchors)
        lane_work.from_lanes.clear()
        built = len(lane_work.built)
        free = cc.random_free(TREE, d, kind, rng, anchors)
        c = cc.i2_inverse(TREE, free, eps, anchors)
        back, _ = cc.i2_forward(TREE, c, anchors)
        assert lane_work.from_lanes == [1]
        slots = len(cc.free_layout(TREE, d, anchors).slots)
        # i2_inverse's epsilon and tor_prime's `TorsionValue` are snapped on lanes
        assert len(lane_work.built) - built == 0
        for point, view, size in ((free, "v_other", slots), (back, "z_anchor", slots),
                                  (c, "z", cc.chart(TREE, d).size)):
            lane_work.from_lanes.clear()
            assert getattr(point, view) is getattr(point, view)
            assert lane_work.from_lanes == [size], view

    @pytest.mark.parametrize("name", TRACKS)
    def test_plan_is_a_straight_line_row_program(self, name):
        tree = _tree_of(name)
        for d in range(2, 9):
            plan = cc.inverse_plan(tree, d, cc.default_anchors(tree, d))
            inputs = len(plan.layout.slots) + 1  # the free slots and epsilon
            # each step reads only the inputs and the steps before it
            for q, row in enumerate(plan.steps):
                assert all(s < inputs + q for _, s in row), (name, d, q)
            assert all(s < inputs + len(plan.steps) for s in plan.out)

    def test_anchor_errors_are_raised_on_every_call(self):
        (track, _), _ = io.load(DATA / "track_g2_s7.json", io.track_from_json)
        unflipped = tt.maximal_tree(track, seed=3)
        for _ in range(2):
            with pytest.raises(cc.AnchorError, match="^no right-exiting unorientable rectangle; "
                                                     "flip the orientation first$"):
                cc.sample_y(unflipped, 3, "real", random.Random(71))
        uniform = next(pl for pl in TRACK.plaques
                       if len({t in CLS.s_right for t in pl.switches_ccw}) == 1)
        base = cc.default_anchors(TREE, 4)
        bad = cc.Anchors(t_bar=uniform.id, r_bar=base.r_bar,
                         reps={**base.reps, uniform.id: min(uniform.switches_ccw)})
        free = cc.random_free(TREE, 4, "real", random.Random(72), bad)
        for _ in range(2):
            with pytest.raises(cc.AnchorError, match="^anchor plaque is single-sided at d=4; "
                                                     "pick mixed-side anchors$"):
                cc.i2_inverse(TREE, free, al.torsion_element("real", 4, 0), bad)

    def test_plan_is_keyed_by_the_anchors_value(self):
        tree = _tree_of("track_g2_s1")
        a = cc.default_anchors(tree, 5)
        plan = cc.inverse_plan(tree, 5, a)
        assert cc.inverse_plan(tree, 5, cc.default_anchors(tree, 5)) is plan
        alt = cc.Anchors(t_bar=a.t_bar, r_bar=a.r_bar,
                         reps={pl.id: max(pl.switches_ccw) for pl in tree.track.plaques})
        assert cc.inverse_plan(tree, 5, alt) is not plan

    def test_layout_is_built_once_for_every_caller(self, monkeypatch):
        tree = _tree_of("track_g2_s1")
        built = []
        real = cc._build_free_layout
        monkeypatch.setattr(cc, "_build_free_layout",
                            lambda *args: built.append(args) or real(*args))
        a = cc.default_anchors(tree, 5)
        layout = cc.free_layout(tree, 5, a)
        assert cc.free_layout(tree, 5, cc.default_anchors(tree, 5)) is layout
        # random_free, the recorded inverse and i2_forward all read the one layout
        c = cc.sample_y(tree, 5, "real", random.Random(76))
        cc.i2_forward(tree, c)
        assert cc.inverse_plan(tree, 5, a).layout is layout
        assert len(built) == 1


    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_plan_with_a_step_dropped_or_swapped_is_not_recorded(self, d, monkeypatch):
        # dropping any step leaves its unknown unsolved; the z step after tor′ (the
        # d = 4 i0 balance, or the first spade column) and each spade column after
        # that read the orbit the step before them solves, so swapping the two fails
        tree = _tree_of("track_g2_s1")
        anchors = cc.default_anchors(tree, d)
        real = cc._inverse_equations
        equations = real(tree, d, anchors)
        tor = next(q for q, (_, _, is_tor) in enumerate(equations) if is_tor)
        z_steps = len(equations) - len(al.index_tables(d).A_prime)
        edits = [equations[:q] + equations[q + 1:] for q in range(len(equations))]
        edits += [equations[:q] + [equations[q + 1], equations[q]] + equations[q + 2:]
                  for q in range(tor, z_steps - 1)]
        assert len(edits) == len(equations) + z_steps - 1 - tor > len(equations)
        for edited in edits:
            monkeypatch.setattr(cc, "_inverse_equations", lambda *args: edited)
            for _ in range(2):
                with pytest.raises(cc.InversePlanError, match="^recorded inverse: "):
                    cc.inverse_plan(tree, d, anchors)
        assert not [key for key in tree._memo if key[0] == "inverse_plan"]
        monkeypatch.setattr(cc, "_inverse_equations", real)
        assert cc.inverse_plan(tree, d, anchors) is tree._memo["inverse_plan", d, anchors]

    @pytest.mark.parametrize("name", TRACKS)
    def test_d4_plan_is_recorded_on_mixed_side_anchors_only(self, name):
        # every plaque and representative as the d = 4 anchor: the coupled j0 and j′
        # slots are solvable exactly when the representative and its minus-neighbour
        # exit on opposite sides
        tree = _tree_of(name)
        base, s_right = cc.default_anchors(tree, 4), tt.classify(tree).s_right
        sides = collections.Counter()
        for pl in tree.track.plaques:
            for rep in pl.switches_ccw:
                anchors = cc.Anchors(pl.id, base.r_bar, {**base.reps, pl.id: rep})
                mixed = (rep in s_right) != (pl.minus(rep) in s_right)
                sides[mixed] += 1
                if mixed:
                    cc.inverse_plan(tree, 4, anchors)
                else:
                    with pytest.raises(cc.AnchorError, match="^anchor plaque is single-sided "
                                                             "at d=4; pick mixed-side anchors$"):
                        cc.inverse_plan(tree, 4, anchors)
        assert sides[True] > 0 and sides[False] > 0

    def test_inverse_runs_no_rotation_check(self, monkeypatch):
        calls = []
        real = cc._require_rotation
        monkeypatch.setattr(cc, "_require_rotation",
                            lambda *args: calls.append(args) or real(*args))
        rng = random.Random(73)
        for d in range(2, 9):
            for kind in KINDS:
                c = cc.sample_y(TREE, d, kind, rng)
                assert isinstance(c, cc.Member) and c.tree is TREE and c.tol == al.MEMBER_TOL
        assert calls == []
        cc.require_member(TREE, unchecked(c), al.MEMBER_TOL)
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_recorded_gate_agrees_with_require_member(self, d):
        # the same verdict and message as the general gate on the same point,
        # also at tols tight enough for the balance equations to fail on rounding
        rng = random.Random(74 + d)
        anchors = cc.default_anchors(TREE, d)
        verdicts = set()
        for kind in KINDS:
            for tol in (al.MEMBER_TOL, 1e-13, 1e-15, 0.0):
                free = cc.random_free(TREE, d, kind, rng, anchors)
                eps = al.zero(kind)
                point = plan_point(TREE, free, eps, anchors)
                outcomes = []
                for gate in (lambda: cc.i2_inverse(TREE, free, eps, anchors, tol),
                             lambda: cc.require_member(TREE, point, tol)):
                    try:
                        m = gate()
                    except cc.MembershipError as err:
                        outcomes.append(str(err))
                    else:
                        outcomes.append((dict(m.v), {t: dict(vec) for t, vec in m.z.items()}))
                assert outcomes[0] == outcomes[1], (kind, tol)
                verdicts.add(isinstance(outcomes[0], str))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", ["real", "cylinder"])
    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_non_finite_slots_are_rejected(self, kind, d):
        anchors = cc.default_anchors(TREE, d)
        layout = cc.free_layout(TREE, d, anchors)
        orientable = next(r for r in layout.rects if r in CLS.orientable)
        plaque = layout.plaques[0]
        j = al.index_tables(d).B[0]
        ch = cc.chart(TREE, d)
        at = {"orientable v": layout.slots.index(ch.v_start[orientable]),
              "free z": layout.slots.index(ch.z_start[anchors.reps[plaque]] + ch.z_offset[j])}
        # an infinity in a free z slot meets its negative in the inverse's sums
        for x, where in itertools.product((math.nan, math.inf, -math.inf),
                                          ("orientable v", "free z")):
            lanes = list(cc.random_free(TREE, d, kind, random.Random(75), anchors).lanes)
            lanes[at[where]] = (x, 0.0) if kind == "cylinder" else x
            free = cc.FreeCoords(layout, kind, lanes)
            eps = al.zero(kind)
            with pytest.raises(cc.MembershipError, match="^non-finite value at ") as got:
                cc.i2_inverse(TREE, free, eps, anchors)
            if where == "orientable v":
                # it enters no equation: only the finiteness check sees it
                assert str(got.value) == (f"non-finite value at rectangle {orientable}, "
                                          f"pair index {(1, d - 1)}")
            point = plan_point(TREE, free, eps, anchors)
            with pytest.raises(cc.MembershipError) as again:
                cc.require_member(TREE, point)
            assert str(again.value) == str(got.value), (x, where)
            assert not cc.is_member(TREE, point)

    # sha256 of the members `test_finite_slots_whose_sum_overflows_are_accepted` builds,
    # each kind and d in turn, its lanes by `float.hex`
    HUGE_V_DIGEST = "85466a6808ca3103060e57e3dc96ff3a9ea7ae0ccf449a07698b33326396fa96"

    def test_finite_slots_whose_sum_overflows_are_accepted(self):
        # one sum of the slots screens for a non-finite one: +-1e308 in an orientable
        # rectangle's v slots, which enter no balance equation, overflow that sum, and
        # the slot scan behind it finds every slot finite, so the point is a member
        digest = hashlib.sha256()
        for kind, d in itertools.product(("real", "cylinder"), (4, 6)):
            anchors = cc.default_anchors(TREE, d)
            layout = cc.free_layout(TREE, d, anchors)
            q = next(q for q, r in enumerate(layout.rects) if r in CLS.orientable)
            lanes = list(cc.random_free(TREE, d, kind, random.Random(77), anchors).lanes)
            for k in range(d - 1):
                x = 1e308 if k % 4 < 2 else -1e308
                lanes[(d - 1) * q + k] = (x, lanes[(d - 1) * q + k][1]) if kind == "cylinder" else x
            free = cc.FreeCoords(layout, kind, lanes)
            m = cc.i2_inverse(TREE, free, al.zero(kind), anchors)
            parts = [x for lane in m.lanes for x in (lane if kind == "cylinder" else (lane,))]
            assert all(map(math.isfinite, parts)) and not math.isfinite(sum(parts))
            assert m.v[layout.rects[q]][0].value == lanes[(d - 1) * q]
            cc.require_member(TREE, m)
            digest.update(repr((kind, d, [x.hex() for x in parts])).encode())
        assert digest.hexdigest() == self.HUGE_V_DIGEST

    @pytest.mark.parametrize("kind", ["real", "cylinder"])
    def test_opposite_infinities_name_the_first_slot(self, kind):
        # +inf in one v slot and -inf in a later one: the screen's sum is nan, and the
        # scan names the first of the two
        d = 6
        anchors = cc.default_anchors(TREE, d)
        layout = cc.free_layout(TREE, d, anchors)
        q, r = next((q, r) for q, r in enumerate(layout.rects) if r in CLS.orientable)
        for first, later in ((1, 3), (0, 4)):
            lanes = list(cc.random_free(TREE, d, kind, random.Random(78), anchors).lanes)
            for k, x in ((first, math.inf), (later, -math.inf)):
                lanes[(d - 1) * q + k] = (x, 0.0) if kind == "cylinder" else x
            free = cc.FreeCoords(layout, kind, lanes)
            with pytest.raises(cc.MembershipError) as got:
                cc.i2_inverse(TREE, free, al.zero(kind), anchors)
            pair = al.index_tables(d).A[first]
            assert str(got.value) == f"non-finite value at rectangle {r}, pair index {pair}"

    def test_overflowing_balance_is_a_membership_error(self):
        m = cc.sample_y(TREE, 3, "cylinder", random.Random(76))
        v = {r: tuple(al.cylinder(1e308, x.value[1]) for x in vec) for r, vec in m.v.items()}
        c = as_member(TREE, 3, "cylinder", v, m.z)
        with pytest.raises(cc.MembershipError, match=r"^balance equation overflows at pair "
                                                     r"index \(1, 2\)$") as got:
            cc.require_member(TREE, c)
        assert isinstance(got.value.__cause__, al.SumOverflow)

    @pytest.mark.parametrize("first,message", [
        (2.0, "fails at pair index (1, 2)"), (1.0, "overflows at pair index (2, 1)")])
    def test_balance_names_the_first_pair_that_fails_or_overflows(self, first, message):
        # the rows run in one pass; after an overflow the pairs are run again in
        # order, so a failing pair before the overflowing one is still named
        balance = {(1, 2): (((1, 0),), ((1, 1),)), (2, 1): (((1, 2), (1, 2)), ((1, 0),))}
        ch = cc.Chart(3, {}, {}, {}, 3, balance, ((), ()))
        with pytest.raises(cc.MembershipError, match=f"^balance equation {re.escape(message)}$"):
            cc._require_balance(ch, "real", (1.0, first, 1e308), al.DEFAULT_TOL)
        cc._require_balance(ch, "real", (1.0, 1.0, 0.5), al.DEFAULT_TOL)


class TestFreePoint:
    """A free point is one slot vector in the order of its layout."""

    @pytest.mark.parametrize("name", TestInversePlan.TRACKS)
    def test_free_slots_are_chart_slots_in_layout_order(self, name):
        tree = _tree_of(name)
        rng = random.Random(96)
        for d in range(2, 9):
            anchors = cc.default_anchors(tree, d)
            layout = cc.free_layout(tree, d, anchors)
            assert len(layout.slots) == al.dimension_count(d, tree.track.genus)
            assert len(set(layout.slots)) == len(layout.slots)
            c = cc.sample_y(tree, d, "zd:12", rng, anchors)
            free, eps = cc.i2_forward(tree, c, anchors)
            assert free.lanes == tuple(c.lanes[s] for s in layout.slots), d
            drawn = cc.random_free(tree, d, "zd:12", rng, anchors)
            back, _ = cc.i2_forward(tree, cc.i2_inverse(tree, drawn, eps, anchors), anchors)
            assert back.lanes == drawn.lanes, d

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_views_are_read_only(self, d):
        anchors = cc.default_anchors(TREE, d)
        layout = cc.free_layout(TREE, d, anchors)
        free = cc.random_free(TREE, d, "real", random.Random(97), anchors)
        r, p, x = layout.rects[0], layout.plaques[0], al.real(0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            free.lanes = ()
        for view, key in ((free.v_other, r), (free.v_other[r], 0), (free.v_anchor, (1, d - 1)),
                          (free.z_other, p), (free.z_other[p], (1, 1, d - 2)),
                          (free.z_anchor, (1, 1, d - 2))):
            with pytest.raises(TypeError):
                view[key] = x

    def test_a_free_point_of_another_layout_is_refused(self):
        g2, g3 = _tree_of("track_g2_s1"), _tree_of("track_g3_s2")
        base = cc.default_anchors(g2, 3)
        # the same tree with another anchor plaque: as many slots, other plaques
        other_plaque = cc.Anchors(t_bar=max(pl.id for pl in g2.track.plaques),
                                  r_bar=base.r_bar, reps=base.reps)
        # (d, drawn on, drawn at, used on)
        cases = [(3, g3, None, g2), (3, g2, None, g3), (3, g2, other_plaque, g2)]
        # another representative of one plaque: the same rectangles, plaques and
        # length, other slots of the chart
        pl = max(g2.track.plaques, key=lambda p: p.id)
        for d in (5, 6):
            base = cc.default_anchors(g2, d)
            other_rep = cc.Anchors(t_bar=base.t_bar, r_bar=base.r_bar,
                                   reps={**base.reps, pl.id: max(pl.switches_ccw)})
            assert other_rep.reps != base.reps
            cases.append((d, g2, other_rep, g2))
        for d, drawn_on, drawn_at, used_on in cases:
            free = cc.random_free(drawn_on, d, "real", random.Random(98), drawn_at)
            with pytest.raises(ValueError, match="^the free point's slots are not those of "
                                                 f"this tree's free layout at d = {d} and these "
                                                 "anchors$"):
                cc.i2_inverse(used_on, free, al.torsion_element("real", d, 0))


class TestChart:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_each_slot_is_numbered_once(self, d):
        ch = cc.chart(TREE, d)
        assert cc.chart(TREE, d) is ch
        b = al.index_tables(d).B
        keys = ([(r, k) for r in FREE_RECTS for k in range(d - 1)]
                + [(t, j) for t in sorted(TRACK.switch_ids) for j in b])
        assert len(keys) == (d - 1) * len(FREE_RECTS) + len(b) * len(TRACK.switch_ids)
        # v first, then z, each in id order; every key once, numbered 0..N-1
        assert list(ch.v_start) == FREE_RECTS and list(ch.z_start) == sorted(TRACK.switch_ids)
        assert list(ch.z_offset) == list(b) and ch.size == len(keys)
        slots = [ch.v_start[at] + index if isinstance(index, int)
                 else ch.z_start[at] + ch.z_offset[index] for at, index in keys]
        assert slots == list(range(len(keys)))

    def test_chart_keeps_no_per_slot_map(self):
        # the layout is each block's start, each triple index's offset in a z block
        # and the count: no table in it grows with the slots
        for d in (2, 5, 8):
            ch = cc.chart(TREE, d)
            assert ch._fields == ("d", "v_start", "z_start", "z_offset", "size", "balance",
                                  "rotation")
            assert (len(ch.v_start), len(ch.z_start)) == (len(FREE_RECTS), len(TRACK.switch_ids))
            assert len(ch.z_offset) == len(al.index_tables(d).B)
            assert len(ch.balance) == d - 1

    @pytest.mark.parametrize("d", range(2, 9))
    def test_each_slot_is_named_by_its_key(self, d):
        # v[r][k] as rectangle r and the pair index (k+1, d-k-1), z[t][j] as switch
        # t and j, in slot order
        ch, tables = cc.chart(TREE, d), al.index_tables(d)
        names = ([f"rectangle {r}, pair index {i}" for r in FREE_RECTS for i in tables.A]
                 + [f"switch {t}, index {j}" for t in sorted(TRACK.switch_ids) for j in tables.B])
        assert [cc._slot_name(ch, s) for s in range(ch.size)] == names

    @pytest.mark.parametrize("name", TestInversePlan.TRACKS)
    def test_rotation_table_is_built_from_the_plaques(self, name):
        # on a fresh track: the table is the slots of `rotation_pairs`, in its
        # order, which no chart keeps
        tree = _tree_of(name)
        for d in range(2, 9):
            ch = cc.chart(tree, d)
            slot = lambda t, j: ch.z_start[t] + ch.z_offset[j]
            pairs = cc.rotation_pairs(tree.track, d)
            assert ch.rotation == (tuple(slot(t, j) for t, j, _, _ in pairs),
                                   tuple(slot(tp, jp) for _, _, tp, jp in pairs)), (name, d)
        assert not [key for key in tree.track._memo if key[0] == "rotation_pairs"]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_members_hold_their_slots_in_chart_order(self, d):
        ch = cc.chart(TREE, d)
        rng = random.Random(90 + d)
        for kind in KINDS:
            recorded = cc.sample_y(TREE, d, kind, rng)
            checked = cc.require_member(TREE, unchecked(recorded), al.MEMBER_TOL)
            assert checked is not recorded and checked.lanes == recorded.lanes
            for m in (recorded, checked):
                assert m.lanes == as_member(TREE, d, kind, m.v, m.z).lanes
                assert set(m.v) == set(ch.v_start) and set(m.z) == set(ch.z_start)
                assert all(len(m.v[r]) == d - 1 for r in m.v)
                assert all(len(m.z[t]) == len(al.index_tables(d).B) for t in m.z)
                # the views are built from the lane vector itself
                views = ([(m.v[r][k], start + k) for r, start in ch.v_start.items()
                          for k in range(d - 1)]
                         + [(m.z[t][j], start + q) for t, start in ch.z_start.items()
                            for j, q in ch.z_offset.items()])
                for view, s in views:
                    assert view.kind == kind and view.value is m.lanes[s], (kind, s)

    @pytest.mark.parametrize("name", TestInversePlan.TRACKS)
    def test_balance_rows_and_the_solver_defect_agree(self, name):
        # the chart's membership equation is the tree solver's solvability
        # condition: lhs - rhs of each balance row pair is balance_defect,
        # with w from z, on any point, member or not
        tree = _tree_of(name)
        rng = random.Random(93)
        for d in range(2, 8):
            ch, tables = cc.chart(tree, d), al.index_tables(d)
            for kind in KINDS:
                v = {r: hm.ga_random(kind, d, rng) for r in ch.v_start}
                z = {t: {j: al.random_element(kind, rng) for j in tables.B} for t in ch.z_start}
                lanes = as_member(tree, d, kind, v, z).lanes
                defect = hm.balance_defect(tree, v, hm.w_from_z(tree, z, kind, d), kind, d)
                for k, i in enumerate(tables.A):
                    lhs, rhs = (al.GroupElement(kind, al.evaluate(kind, row, lanes))
                                for row in ch.balance[i])
                    diff = al.group_sub(lhs, rhs)
                    tol = 0.0 if kind.startswith("zd:") else 1e-12
                    assert al.distance(diff, defect[k]) <= tol, (name, d, kind, i)


class TestSystemEquivalence:
    COMBOS = [(2, "real"), (3, "zd:12"), (4, "cylinder"), (5, "circle"), (6, "real")]

    def test_members_satisfy_both_systems(self):
        rng = random.Random(25)
        for d, kind in self.COMBOS:
            for _ in range(100):
                c = cc.sample_y(TREE, d, kind, rng)
                assert cc.is_member(TREE, c)
                assert _holds_reduced_system(c)

    def test_agreement_on_perturbed_points(self):
        rng = random.Random(26)
        for d, kind in self.COMBOS:
            if kind == "zd:12":
                bump = al.cyclic(12, 1)
            elif kind == "cylinder":
                bump = al.cylinder(0.7, 0.9)
            elif kind == "circle":
                bump = al.circle(0.9)
            else:
                bump = al.real(0.7)
            triples = al.index_tables(d).B
            # only unorientable rectangles enter the balance equations
            u_free = [r for r in FREE_RECTS
                      if r in set(CLS.u_right) | set(CLS.u_left)]
            for trial in range(30):
                v, z = plain(cc.sample_y(TREE, d, kind, rng))
                if trial % 2 == 0 or not triples:
                    r = u_free[trial % len(u_free)]
                    k = trial % (d - 1)
                    v[r][k] = al.group_add(v[r][k], bump)
                else:
                    t = sorted(z)[trial % len(z)]
                    j = triples[trial % len(triples)]
                    z[t][j] = al.group_add(z[t][j], bump)
                c = as_member(TREE, d, kind, v, z)
                assert not cc.is_member(TREE, c)
                assert not _holds_reduced_system(c)

    def test_generic_rotated_points_agree(self):
        rng = random.Random(27)
        for d, kind in self.COMBOS:
            for _ in range(20):
                c = random_coords(d, kind, rng, rotated=True)
                assert cc.is_member(TREE, c) == _holds_reduced_system(c)


class TestNiceCombination:
    def test_zero_gives_zero_pair(self):
        for d in (3, 4, 5, 6):
            c = zero_coords(d, "real")
            t = min(TRACK.switch_ids)
            lhs, rhs = cc.nice_combination_check(TRACK, c.z, t, d, "real")
            assert al.is_zero(lhs, 1e-12) and al.is_zero(rhs, 1e-12)

    def test_odd_case(self):
        rng = random.Random(28)
        for kind in ("real", "cylinder"):
            z = random_rotated_z(5, kind, rng)
            for t in TRACK.switch_ids:
                lhs, rhs = cc.nice_combination_check(TRACK, z, t, 5, kind)
                assert al.elements_equal(lhs, rhs, 1e-9)

    def test_even_case_includes_middle_correction(self):
        rng = random.Random(29)
        for kind in ("real", "circle"):
            z = random_rotated_z(6, kind, rng)
            for t in TRACK.switch_ids:
                lhs, rhs = cc.nice_combination_check(TRACK, z, t, 6, kind)
                assert al.elements_equal(lhs, rhs, 1e-9)

    def test_rotation_violation_rejected(self):
        rng = random.Random(30)
        tables = al.index_tables(5)
        z = random_rotated_z(5, "real", rng)
        t = min(TRACK.switch_ids)
        z[t][tables.B[0]] = al.group_add(z[t][tables.B[0]], al.real(1.0))
        with pytest.raises(ValueError):
            cc.nice_combination_check(TRACK, z, t, 5, "real")


class TestComposeAlpha:
    def test_zero_theta_is_plain_addition(self):
        rng = random.Random(31)
        for d in (3, 4, 5):
            tables = al.index_tables(d)
            a12 = tuple(al.random_element("real", rng) for _ in tables.A)
            a23 = tuple(al.random_element("real", rng) for _ in tables.A)
            theta = {j: al.group_sum("real", []) for j in tables.B}
            for label in ("cw", "ccw"):
                out = cc.compose_alpha(a12, a23, theta, label, d, "real")
                for k in range(d - 1):
                    expect = al.group_add(a12[k], a23[k])
                    assert al.elements_equal(out[k], expect, 1e-12)

    def test_d2_always_plain_addition(self):
        rng = random.Random(32)
        a12 = (al.random_element("cylinder", rng),)
        a23 = (al.random_element("cylinder", rng),)
        for label in ("cw", "ccw"):
            out = cc.compose_alpha(a12, a23, {}, label, 2, "cylinder")
            assert al.elements_equal(out[0], al.group_add(a12[0], a23[0]), 1e-12)

    def test_matches_per_index_evaluation(self):
        rng = random.Random(33)
        for d in (3, 4, 5, 6):
            tables = al.index_tables(d)
            for kind in ("real", "zd:12"):
                a12 = tuple(al.random_element(kind, rng) for _ in tables.A)
                a23 = tuple(al.random_element(kind, rng) for _ in tables.A)
                theta = {j: al.random_element(kind, rng) for j in tables.B}
                cw = cc.compose_alpha(a12, a23, theta, "cw", d, kind)
                ccw = cc.compose_alpha(a12, a23, theta, "ccw", d, kind)
                for k, i in enumerate(tables.A):
                    corr_cw = al.group_sum(kind, (theta[j] for j in tables.B
                                                  if j[1] == i[0]))
                    corr_ccw = al.group_sum(kind, (theta[j] for j in tables.B
                                                   if j[1] == i[1]))
                    base = al.group_add(a12[k], a23[k])
                    assert al.elements_equal(cw[k], al.group_add(base, corr_cw), 1e-12)
                    assert al.elements_equal(ccw[k], al.group_sub(base, corr_ccw), 1e-12)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            cc.compose_alpha((), (), {}, "up", 2, "real")


class TestSerialization:
    def test_roundtrip_all_kinds(self):
        rng = random.Random(34)
        for d in (2, 3, 4):
            for kind in KINDS:
                c = cc.sample_y(TREE, d, kind, rng)
                blob = json.dumps(io.coords_to_json(c))
                [(back, label)] = io.coords_from_json(json.loads(blob), TREE)
                assert label is None
                tol = 0.0 if kind == "zd:12" else 1e-12
                assert back.d == c.d and back.kind == c.kind
                assert coords_equal(c, back, tol)

    @pytest.mark.parametrize("kind", KINDS)
    def test_decoding_builds_no_element(self, kind, lane_work):
        # each value is decoded straight to its lane by the one normalization rule
        m = cc.sample_y(TREE, 6, kind, random.Random(35))
        doc = json.loads(json.dumps(io.coords_to_json(m)))
        lane_work.built.clear()
        lane_work.from_lanes.clear()
        [(back, _)] = io.coords_from_json(doc, TREE)
        assert lane_work.built == [] and lane_work.from_lanes == []
        assert repr(back.lanes) == repr(m.lanes)

    @pytest.mark.parametrize("kind", KINDS)
    def test_decoding_gating_and_encoding_a_point_build_no_element(self, kind, lane_work):
        # a file's point is read, checked and written back on its lanes alone
        m = cc.sample_y(TREE, 6, kind, random.Random(39))
        label = al.snap_torsion(cc.tor_prime(TREE, m).value, 6)[0]
        doc = json.loads(json.dumps({"d": 6, "group": kind, "seed": 0, "count": 1,
                                     "points": [{"torsion": label,
                                                 "coords": io.coords_to_json(m)}]}))
        lane_work.built.clear()
        lane_work.from_lanes.clear()
        [(back, got)] = io.coords_from_json(doc, TREE)
        gated = cc.require_member(TREE, back, al.MEMBER_TOL)
        written = io.coords_to_json(gated)
        assert lane_work.built == [] and lane_work.from_lanes == []
        assert got == label and gated is not back and gated.tol == al.MEMBER_TOL
        assert written == doc["points"][0]["coords"]

    def test_rotation_table_is_one_slot_pair_per_rotation_pair(self):
        for d in (3, 5, 8):
            ch, pairs = cc.chart(TREE, d), cc.rotation_pairs(TRACK, d)
            slot = lambda t, j: ch.z_start[t] + ch.z_offset[j]
            assert ch.rotation == tuple(zip(*[(slot(t, j), slot(tp, jp))
                                              for t, j, tp, jp in pairs]))
            # one pair per z slot: the table grows as the slots do
            assert len(ch.rotation[0]) == len(TRACK.switch_ids) * len(al.index_tables(d).B)

    def test_document_shape(self):
        c = cc.sample_y(TREE, 3, "real", random.Random(35))
        doc = io.coords_to_json(c)
        assert set(doc) == {"d", "group", "v", "z"}
        assert doc["group"] == "real"
        for r, slots in doc["v"].items():
            int(r)
            assert set(slots) == {"1", "2"}
        for t, slots in doc["z"].items():
            int(t)
            assert set(slots) == {"1,1,1"}

    @pytest.mark.parametrize("kind,d", [(kind, d) for kind in KINDS for d in range(2, 9)]
                             + [("cylinder", 16)])
    def test_decoded_point_is_the_slot_vector(self, kind, d):
        m = cc.sample_y(TREE, d, kind, random.Random(37 + d))
        [(back, _)] = io.coords_from_json(json.loads(json.dumps(io.coords_to_json(m))), TREE)
        assert isinstance(back, cc.Member) and back.tree is TREE and back.tol == math.inf
        gated = cc.require_member(TREE, back, al.MEMBER_TOL)
        assert repr(gated.lanes) == repr(m.lanes)

    # (edit of a d = 4 document, the message it is refused with)
    REFUSED = [
        (lambda doc, r, t: doc["v"][r].__setitem__("01", doc["v"][r].pop("1")),
         "pair index '01' is not a canonical integer"),
        (lambda doc, r, t: doc["z"][t].__setitem__("1,1,3", doc["z"][t].pop("1,1,2")),
         "triple index '1,1,3' is not three positive parts summing to 4"),
        (lambda doc, r, t: doc["z"][t].__setitem__("0,2,2", doc["z"][t].pop("1,1,2")),
         "triple index part 0 is outside 1..4"),
        (lambda doc, r, t: doc["z"].pop(t),
         "switch ids do not match the track: missing [{t}], unknown []"),
        (lambda doc, r, t: doc["v"].__setitem__(str(min(TREE.edges)), doc["v"][r]),
         f"free rectangle ids do not match the track: missing [], unknown [{min(TREE.edges)}]"),
        (lambda doc, r, t: doc["v"][r].pop("2"),
         "rectangle {r} does not carry the d=4 pair indices"),
        (lambda doc, r, t: doc["v"][r].__setitem__("4", doc["v"][r]["1"]),
         "pair index 4 is outside 1..3"),
        (lambda doc, r, t: doc["v"].pop(str(LONE)),
         f"free rectangle ids do not match the track: missing [{LONE}], unknown []"),
        (lambda doc, r, t: doc["z"].__setitem__(str(max(TRACK.switch_ids) + 1), doc["z"][t]),
         f"switch ids do not match the track: missing [], "
         f"unknown [{max(TRACK.switch_ids) + 1}]"),
    ]

    @pytest.mark.parametrize("edit,message", REFUSED)
    def test_refused_keys_keep_their_messages(self, edit, message):
        doc = io.coords_to_json(cc.sample_y(TREE, 4, "real", random.Random(38)))
        r, t = str(FREE_RECTS[1]), str(sorted(TRACK.switch_ids)[1])
        edit(doc, r, t)
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(r=r, t=t))}$"):
            io.coords_from_json(doc, TREE)

    def test_missing_slot_rejected(self):
        c = cc.sample_y(TREE, 3, "real", random.Random(36))
        doc = io.coords_to_json(c)
        rid = next(iter(doc["v"]))
        del doc["v"][rid]["1"]
        with pytest.raises(ValueError):
            io.coords_from_json(doc, TREE)


class TestMember:
    # the (group, d) mix of the benchmark's chart workload
    MIX = [("cylinder", d) for d in (2, 3, 4, 5, 6)] + [("zd:12", d) for d in (2, 3, 4, 6)]

    def test_chart_op_checks_each_point_once(self, member_checks):
        rng = random.Random(50)
        for kind, d in self.MIX:
            anchors = cc.default_anchors(TREE, d)
            free = cc.random_free(TREE, d, kind, rng, anchors)
            eps = al.torsion_element(kind, d, rng.randrange(al.torsion_order(kind, d)))
            before = len(member_checks)
            c = cc.i2_inverse(TREE, free, eps, anchors)
            assert cc.is_member(TREE, c, al.MEMBER_TOL)
            tor = cc.tor_prime(TREE, c, anchors)
            cc.i2_forward(TREE, c, anchors)
            total = sl.total_mid_log(TREE, c)
            assert al.elements_equal(total, sl.closed_form_total(TREE, c))
            assert al.elements_equal(tor.value, eps, 1e-9)
            assert len(member_checks) - before == 1, (kind, d)

    def test_plain_point_is_checked_once_per_call(self, member_checks):
        # a point at tol = inf, as `io` decodes one, is checked by every call
        c = zero_coords(3, "cylinder")
        cc.tor_prime(TREE, c)
        sl.total_mid_log(TREE, c)
        assert len(member_checks) == 2

    def test_writing_raises(self):
        c = cc.sample_y(TREE, 3, "real", random.Random(51))
        assert isinstance(c, cc.Member)
        r, t = next(iter(c.v)), next(iter(c.z))
        j = next(iter(c.z[t]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.d = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.tol = 1.0
        with pytest.raises(TypeError):
            c.v[r] = c.v[r]
        with pytest.raises(TypeError):
            c.v[r][0] = al.real(0.0)
        with pytest.raises(TypeError):
            c.z[t] = {}
        with pytest.raises(TypeError):
            c.z[t][j] = al.real(0.0)

    def test_chart_functions_build_no_views(self, monkeypatch):
        calls, free_calls = [], []
        views, free_views = cc.slot_views, cc.free_views
        monkeypatch.setattr(cc, "slot_views", lambda *args: calls.append(args) or views(*args))
        monkeypatch.setattr(cc, "free_views",
                            lambda *args: free_calls.append(args) or free_views(*args))
        rng = random.Random(54)
        for warm in (True, False):
            for kind, d in self.MIX:
                anchors = cc.default_anchors(TREE, d)
                m = cc.sample_y(TREE, d, kind, rng, anchors)
                assert cc.is_member(TREE, m, al.MEMBER_TOL)
                cc.tor_prime(TREE, m, anchors)
                free, eps = cc.i2_forward(TREE, m, anchors)
                cc.i2_inverse(TREE, cc.random_free(TREE, d, kind, rng, anchors), eps, anchors)
                sl.total_mid_log(TREE, m)
                sl.closed_form_total(TREE, m)
            if warm:  # recording reads views over slot numbers, once per tree and d
                calls.clear()
        assert calls == [] and free_calls == []
        assert m.z is m.z and m.v is m.v
        assert len(calls) == 1 and [x.value for x in calls[0][1]] == list(m.lanes)
        assert free.v_other is free.v_other and free.z_anchor is free.z_anchor
        assert free.v_anchor is free.v_anchor and free.z_other is free.z_other
        assert len(free_calls) == 1 and [x.value for x in free_calls[0][1]] == list(free.lanes)

    def test_reused_only_on_the_same_tree_at_a_tol_no_looser(self, member_checks):
        c = cc.sample_y(TREE, 3, "cylinder", random.Random(52))
        assert c.tree is TREE and c.tol == al.MEMBER_TOL
        before = len(member_checks)
        assert cc.require_member(TREE, c, al.MEMBER_TOL) is c
        assert cc.require_member(TREE, c, 1e-3) is c
        assert len(member_checks) == before
        stricter = cc.require_member(TREE, c, al.DEFAULT_TOL)
        assert stricter is not c and stricter.tol == al.DEFAULT_TOL
        assert len(member_checks) == before + 1
        other = cc.ensure_right_unorientable(tt.maximal_tree(TRACK, seed=1))
        assert other is not TREE
        again = cc.require_member(other, c, al.MEMBER_TOL)
        assert again is not c and again.tree is other
        assert len(member_checks) == before + 2

    def test_a_point_of_another_tree_is_read_by_its_numbering(self):
        # another tree object with the same edges numbers the same slots: its
        # closed form and its gate read the point's own lanes; a tree with other
        # edges numbers other slots, and both refuse the point
        same = cc.ensure_right_unorientable(tt.maximal_tree(TRACK, seed=1))
        other = cc.ensure_right_unorientable(tt.maximal_tree(TRACK, seed=2))
        assert same is not TREE and same.edges == TREE.edges and other.edges != TREE.edges
        rng, refused = random.Random(55), set()
        for d in (3, 4):
            for kind in KINDS:
                m = cc.sample_y(TREE, d, kind, rng)
                v, z = plain(m)
                r = min(CLS.u_right)
                v[r][0] = al.group_add(v[r][0], al.random_element(kind, rng))
                for c in (m, as_member(TREE, d, kind, v, z)):
                    bits = [repr(sl.closed_form_total(tree, c)) for tree in (TREE, same)]
                    assert bits[0] == bits[1], (d, kind)
                    verdicts = []
                    for tree in (TREE, same):
                        try:
                            verdicts.append(cc.require_member(tree, c, al.DEFAULT_TOL).lanes)
                        except cc.MembershipError as err:
                            verdicts.append(str(err))
                    assert verdicts[0] == verdicts[1], (d, kind)
                    refused.add(isinstance(verdicts[0], str))
                    for call in (cc.require_member, sl.closed_form_total):
                        with pytest.raises(cc.MembershipError, match="^the point's rectangles "
                                                                     "or switches are not the "
                                                                     "chart's$"):
                            call(other, c)
                    assert not cc.is_member(other, c)
        assert refused == {True, False}

    def test_recheck_can_fail(self):
        # the stricter tol is checked, not taken from the looser one
        v, z = plain(cc.sample_y(TREE, 3, "real", random.Random(53)))
        r = min(CLS.u_right)
        v[r][0] = al.group_add(v[r][0], al.real(1e-8))
        m = cc.require_member(TREE, as_member(TREE, 3, "real", v, z), al.MEMBER_TOL)
        with pytest.raises(cc.MembershipError, match="balance equation"):
            cc.require_member(TREE, m, al.DEFAULT_TOL)


class TestLanes:
    """Each call unpacks its points to lanes once, with a kind check, and every
    recorded row reads the lanes."""

    # (the point's kind, the stray element's kind)
    PROBES = [("real", "cylinder"), ("cylinder", "real"), ("real", "zd:12"), ("zd:12", "real")]
    @pytest.mark.parametrize("kind,other", PROBES)
    def test_i2_inverse_names_a_stray_free_slot_or_epsilon(self, kind, other):
        # a free point is lanes of its own kind, so only epsilon, an element, can stray
        anchors = cc.default_anchors(TREE, 3)
        free = cc.random_free(TREE, 3, kind, random.Random(1), anchors)
        with pytest.raises(al.GroupKindError, match=f"^kind mismatch: '{kind}' vs '{other}' "
                                                    "at epsilon$"):
            cc.i2_inverse(TREE, free, al.zero(other), anchors)

    def test_members_carry_their_lanes(self):
        rng = random.Random(94)
        for d in (2, 3, 6):
            for kind in KINDS:
                recorded = cc.sample_y(TREE, d, kind, rng)
                checked = cc.require_member(TREE, unchecked(recorded), al.MEMBER_TOL)
                for m in (recorded, checked):
                    # one lane tuple, and no elements but the views' once read
                    assert set(vars(m)) - {"_views"} == {"d", "kind", "tree", "tol", "lanes"}
                    assert type(m.lanes) is tuple and len(m.lanes) == cc.chart(TREE, d).size
                    assert cc.lanes_on(TREE, m) is m.lanes

    @pytest.mark.parametrize("name", TestInversePlan.TRACKS)
    def test_recorded_tor_rows_are_the_hand_formula(self, name):
        # the rows, recorded by running `_tor_forms` over slot numbers, give
        # the same bits as the formula run over the point's own elements
        tree = _tree_of(name)
        rng = random.Random(95)
        for d in range(2, 9):
            anchors = cc.default_anchors(tree, d)
            rows = cc.recorded_rows(tree, d, cc._tor_forms, anchors)
            assert cc.recorded_rows(tree, d, cc._tor_forms, anchors) is rows
            assert len(rows) == 1
            for kind in KINDS:
                c = cc.sample_y(tree, d, kind, rng, anchors)
                [form] = cc._tor_forms(tree, d, c.v, c.z, anchors)
                assert cc.tor_prime(tree, c, anchors).value == al.combine(kind, form)
                assert al.evaluate(kind, rows[0], c.lanes) == al.combine(kind, form).value
