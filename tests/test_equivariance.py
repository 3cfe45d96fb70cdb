"""Relabelling equivariance: a track's structure does not depend on its ids.

Every pinned digest uses one labelling of each track, and `generate_fixture`
numbers switches 0..n-1.  Here a data track's switch ids move onto a sparse set
that includes negative ids and its rectangle ids are permuted; the plaques, the
boundary walk and the classes of a tree, and the tree solver's output, must map
through the relabelling.
"""

import random
from pathlib import Path

import pytest

from switchyard import algebra as al
from switchyard import homology as hm
from switchyard import io
from switchyard import traintrack as tt

DATA = Path(__file__).parent / "data"
TRACKS = ["track_g2_s1", "track_g2_s7", "track_g3_s2"]


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
        mapped_tree = tt.maximal_tree(new, edges={rid[e] for e in tree.edges},
                                      root=sw[tree.root], root_bit=tree.root_bit)
        assert mapped_tree.orientation == {sw[s]: b for s, b in tree.orientation.items()}
        walk = [st._replace(switch=sw.get(st.switch), rect=rid.get(st.rect))
                for st in tt.boundary_walk(tree)]
        got = list(tt.boundary_walk(mapped_tree))
        # the walk starts at the least corner, which the new ids move
        assert any(got == walk[k:] + walk[:k] for k in range(len(walk)))
        c, got_c = tt.classify(tree), tt.classify(mapped_tree)
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
    mapped = tt.maximal_tree(new, edges={rid[e] for e in tree.edges},
                             root=sw[tree.root], root_bit=tree.root_bit)
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
