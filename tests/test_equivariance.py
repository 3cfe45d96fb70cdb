"""Relabelling equivariance: a track's structure does not depend on its ids.

Every pinned digest uses one labelling of each track, and `generate_fixture`
numbers switches 0..n-1.  Here a data track's switch ids move onto a sparse set
that includes negative ids and its rectangle ids are permuted; the plaques, the
boundary walk and the classes of a tree must map through the relabelling.
"""

import random
from pathlib import Path

import pytest

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
