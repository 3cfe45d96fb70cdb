"""Relabelling equivariance: a track's structure does not depend on its ids.

Every pinned digest uses one labelling of each track, and `generate_fixture`
numbers switches 0..n-1.  Here a data track's switch ids move onto a sparse set
that includes negative ids and its rectangle ids are permuted; the plaques, the
boundary walk and the classes of a tree, the chart's rows, the explicit inverse,
the invariants and the tree solver's output must map through the relabelling.
"""

import functools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchyard import algebra as al
from switchyard import cocyclic as cc
from switchyard import homology as hm
from switchyard import io
from switchyard import slither as sl
from switchyard import traintrack as tt

DATA = Path(__file__).parent / "data"
TRACKS = ["track_g2_s1", "track_g2_s7", "track_g3_s2"]
KINDS = ("real", "circle", "cylinder", "zd:12")


def relabel(track, rng):
    """``track`` with its switch ids drawn from -1000..999 and its rectangle ids
    permuted, its lists shuffled; returns it with the switch and rectangle maps."""
    sw = dict(zip(track.switch_ids, rng.sample(range(-1000, 1000), len(track.switch_ids))))
    ids = [r.id for r in track.rects]
    rid = dict(zip(ids, rng.sample(ids, len(ids))))
    rects = [tt.Rect(rid[r.id], *((sw[s], p) for s, p in r.ends)) for r in track.rects]
    switches = list(sw.values())
    rng.shuffle(rects)
    rng.shuffle(switches)
    return tt.TrainTrack(track.genus, switches, rects), sw, rid


def mapped_tree(tree, new, sw, rid):
    """``tree`` on the relabelled track ``new``: its edges, root and root bit mapped."""
    return tt.maximal_tree(new, edges={rid[e] for e in tree.edges}, root=sw[tree.root],
                           root_bit=tree.root_bit)


def mapped_anchors(track, new, sw, rid, anchors):
    """``anchors`` of ``track`` on the relabelled track ``new``: each plaque is found
    by its switch set."""
    by_switches = {frozenset(pl.switches_ccw): pl.id for pl in new.plaques}
    plaque = {pl.id: by_switches[frozenset(sw[t] for t in pl.switches_ccw)]
              for pl in track.plaques}
    return cc.Anchors(plaque[anchors.t_bar], rid[anchors.r_bar],
                      {plaque[p]: sw[t] for p, t in anchors.reps.items()})


def slot_permutation(ch, new_ch, sw, rid):
    """perm[s]: the slot of ``new_ch`` that names what slot s of ``ch`` names."""
    perm = [None] * ch.size
    for r, s in ch.v_start.items():
        for k in range(ch.d - 1):
            perm[s + k] = new_ch.v_start[rid[r]] + k
    for t, s in ch.z_start.items():
        for q in ch.z_offset.values():
            perm[s + q] = new_ch.z_start[sw[t]] + q
    return perm


def cyclic(triple):
    k = triple.index(min(triple))
    return triple[k:] + triple[:k]


@pytest.mark.parametrize("name", TRACKS)
@pytest.mark.parametrize("draw", range(3))
def test_relabelled_track_maps_plaques_walks_and_classes(name, draw):
    (track, _), _ = io.load(DATA / f"{name}.json", io.track_from_json)
    new, sw, rid = relabel(track, random.Random(draw))
    assert min(sw.values()) < 0 < max(sw.values())
    assert tt.validate(new).valid
    assert sorted(pl.switches_ccw for pl in new.plaques) == sorted(
        cyclic(tuple(sw[t] for t in pl.switches_ccw)) for pl in track.plaques)
    for seed in (1, 2, 3):
        tree = tt.maximal_tree(track, seed=seed)
        mapped = mapped_tree(tree, new, sw, rid)
        assert mapped.orientation == {sw[s]: b for s, b in tree.orientation.items()}
        walk = [step._replace(switch=sw.get(step.switch), rect=rid.get(step.rect))
                for step in tt.boundary_walk(tree)]
        got = list(tt.boundary_walk(mapped))
        # the walk starts at the least corner, which the new ids move
        assert any(got == walk[k:] + walk[:k] for k in range(len(walk)))
        c, got_c = tt.classify(tree), tt.classify(mapped)
        assert got_c.s_left == {sw[s] for s in c.s_left}
        assert got_c.s_right == {sw[s] for s in c.s_right}
        for part in ("orientable", "u_left", "u_right"):
            assert getattr(got_c, part) == {rid[r] for r in getattr(c, part)}
        for part in ("e_left", "e_right"):
            assert getattr(got_c, part) == tuple(sorted((rid[r], e) for r, e in getattr(c, part)))


@pytest.mark.parametrize("name", TRACKS)
def test_relabelled_tree_solver_maps_its_output(name):
    # The solver strips leaves in switch-id order, so on relabelled ids its float sums
    # run in another order: a known label dependence of the last bits (at most 8.0e-15
    # at d <= 8 on the data tracks), checked within DEFAULT_TOL; over zd:12 it is exact.
    (track, _), _ = io.load(DATA / f"{name}.json", io.track_from_json)
    rng = random.Random(name)
    new, sw, rid = relabel(track, rng)
    tree = tt.maximal_tree(track, seed=1)
    mapped = mapped_tree(tree, new, sw, rid)
    lifts, mapped_lifts = tt.orientation_cover(tree), tt.orientation_cover(mapped)
    free = sorted(r.id for r in track.rects if r.id not in tree.edges)
    for d in range(2, 7):
        for kind in ("real", "circle", "cylinder", "zd:12"):
            v = {r: hm.ga_random(kind, d, rng) for r in free}
            w = {s: hm.ga_random(kind, d, rng) for s in track.switch_ids}
            w[track.switch_ids[0]] = hm.ga_zero(kind, d)
            w[track.switch_ids[0]] = hm.balance_defect(tree, v, w, kind, d)
            out = hm.solve_tree(lifts, v, w, kind, d)
            got = hm.solve_tree(mapped_lifts, {rid[r]: x for r, x in v.items()},
                                {sw[s]: x for s, x in w.items()}, kind, d)
            assert set(got) == {rid[e] for e in out}
            tol = 0.0 if kind == "zd:12" else al.DEFAULT_TOL
            for e, vec in out.items():
                pairs = zip(got[rid[e]], vec, strict=True)
                assert all(al.distance(x, y) <= tol for x, y in pairs), (name, d, kind, e)


@functools.cache
def data_tree(name, seed):
    """The seeded maximal tree of a data track, flipped where no unorientable rectangle
    exits right, so that it has anchors; kept, so its recorded plans are built once."""
    (track, _), _ = io.load(DATA / f"{name}.json", io.track_from_json)
    return cc.ensure_right_unorientable(tt.maximal_tree(track, seed=seed))


def placed(perm, values):
    """``values`` moved by ``perm``: value q goes to position perm[q]."""
    out = [None] * len(perm)
    for p, x in zip(perm, values):
        out[p] = x
    return out


# each invariant of a point on a tree at given anchors, as a group element
INVARIANTS = {
    "tor'": lambda tree, c, anchors: cc.tor_prime(tree, c, anchors).value,
    "total_mid_log": lambda tree, c, anchors: sl.total_mid_log(tree, c),
    "closed_form_total": lambda tree, c, anchors: sl.closed_form_total(tree, c),
}


@pytest.mark.parametrize("name", TRACKS)
@settings(max_examples=10, deadline=None)
@given(rng=st.randoms(use_true_random=False), seed=st.sampled_from((1, 2, 3)))
def test_relabelled_chart_inverse_and_invariants_map(name, rng, seed):
    # the relabelling and the tree seed are drawn; a free point and epsilon at each d
    # and kind, mapped slot by slot, must give the mapped point lane for lane and the
    # same invariants bit for bit, as every sum is correctly rounded or exact
    tree = data_tree(name, seed)
    new, sw, rid = relabel(tree.track, rng)
    mapped = mapped_tree(tree, new, sw, rid)
    draws = random.Random(f"{name} {seed}")
    for d in range(2, 9):
        ch, new_ch = cc.chart(tree, d), cc.chart(mapped, d)
        perm = slot_permutation(ch, new_ch, sw, rid)
        assert sorted(perm) == list(range(new_ch.size))
        for i, rows in ch.balance.items():
            assert [sorted((m, perm[s]) for m, s in row) for row in rows] == [
                sorted(row) for row in new_ch.balance[i]], (d, i)
        rotation = sorted(zip(*([perm[s] for s in side] for side in ch.rotation)))
        assert rotation == sorted(zip(*new_ch.rotation)), d
        anchors = cc.default_anchors(tree, d)
        new_anchors = mapped_anchors(tree.track, new, sw, rid, anchors)
        layout = cc.free_layout(mapped, d, new_anchors)
        at = {s: q for q, s in enumerate(layout.slots)}
        order = [at[perm[s]] for s in cc.free_layout(tree, d, anchors).slots]
        for kind in KINDS:
            free = cc.random_free(tree, d, kind, draws, anchors)
            eps = al.torsion_element(kind, d, draws.randrange(d))
            point = cc.i2_inverse(tree, free, eps, anchors)
            got = cc.i2_inverse(mapped, cc.FreeCoords(layout, kind, placed(order, free.lanes)),
                                eps, new_anchors)
            want = placed(perm, point.lanes)
            assert list(map(repr, got.lanes)) == list(map(repr, want)), (d, kind)
            for invariant, value in INVARIANTS.items():
                assert repr(value(mapped, got, new_anchors).value) == repr(
                    value(tree, point, anchors).value), (d, kind, invariant)
