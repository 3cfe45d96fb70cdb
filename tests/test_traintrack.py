import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from switchyard import io
from switchyard import traintrack as tt

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def g2():
    return tt.generate_fixture(2, seed=1)


@pytest.fixture(scope="module")
def g3():
    return tt.generate_fixture(3, seed=1)


def _swapped_ends(track, a, b):
    """``track`` with the end1 slots of its a-th and b-th rectangles swapped."""
    rects = list(track.rects)
    ra, rb = rects[a], rects[b]
    rects[a], rects[b] = tt.Rect(ra.id, ra.end0, rb.end1), tt.Rect(rb.id, rb.end0, ra.end1)
    return tt.TrainTrack(track.genus, track.switch_ids, rects)


def _two_copies(track, shift=100):
    """Two disjoint copies of ``track``, the second's ids shifted by ``shift``: they satisfy
    every count of genus 2g - 1, but are disconnected."""
    copy = [tt.Rect(r.id + shift, *((s + shift, p) for s, p in r.ends)) for r in track.rects]
    switches = [*track.switch_ids, *(s + shift for s in track.switch_ids)]
    return tt.TrainTrack(2 * track.genus - 1, switches, [*track.rects, *copy])


def _malformed(track):
    """Altered copies of a genus-2 ``track``: every swap of two rectangles' end1 slots (most
    break a cell), each rectangle removed (an unused slot) and two disjoint copies (a
    disconnected track)."""
    n = len(track.rects)
    malformed = [_swapped_ends(track, a, b) for a in range(n) for b in range(a + 1, n)]
    malformed += [tt.TrainTrack(2, track.switch_ids, track.rects[:i] + track.rects[i + 1:])
                  for i in range(n)]
    malformed.append(_two_copies(track))
    return malformed


class TestValidation:
    def test_g2_counts(self, g2):
        rep = tt.validate(g2)
        assert rep.valid
        assert rep.n_switches == 12
        assert rep.n_rectangles == 18
        assert rep.n_plaques == 4

    def test_g3_counts(self, g3):
        rep = tt.validate(g3)
        assert rep.valid and rep.n_rectangles == 36

    @pytest.mark.parametrize("g", range(2, 13))
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_generated_fixtures_validate(self, g, seed):
        rep = tt.validate(tt.generate_fixture(g, seed))
        assert rep.valid
        assert rep.n_plaques == 4 * g - 4

    @pytest.mark.parametrize("g, seed", [(2, 3), (4, 2), (8, 4)])
    def test_fixture_search_deterministic(self, g, seed):
        first = json.dumps(tt.track_to_json(tt.generate_fixture(g, seed)))
        second = json.dumps(tt.track_to_json(tt.generate_fixture(g, seed)))
        assert first == second

    # sha256 of each genus-2 track document: every higher genus grows from this
    # base case, and seeds 5 and 36 are the tracks of the CLI walkthrough and
    # its tests.
    G2_DIGESTS = {
        1: "c086385836aa1f635c0ccba62b80073fc47edd3b44cef334475bdbc4a155295a",
        2: "2a920979a19ab6fa744ae59a7bb5e42a22ae625a36b2ed2e65b0a3bd97390877",
        3: "b9abf72ffc6543cb4200c0a6e5ae35d339bbe3d0bfaf545a0e55ad3cdf77a01e",
        4: "c427bc865228923efc857486828c8ec0a36d0e1a143f878ab1a365cbcd7f8dfb",
        5: "a64e8e75a1b812510a923ecdf5bbe543347b4d39e036fcf7a847e29be0b066c7",
        6: "6248754ae77936e0814c3a25bd2f5f997e36b1b3033ff4e428d9abbe1351fab9",
        7: "93c84c52ee235618efaafda3568fffb14b7ee1861c790b7b0ee12699301d262a",
        8: "465fefd79e340d5db0e52ab9de66fc2696cb44107199401fa250227a05103ee1",
        9: "8dcee5bbe1001f5fc1cde6b12f8a80a1ec3ebce29054fd0c425312e5a16f2a6e",
        10: "0a51e933385b6f73604c24b642506f377f702fba1125909eddf87ed209cb61cc",
        36: "bba66da91d3aef8df3b942b93c872317791c9f43b46037b484794f4da44700cf",
    }

    @pytest.mark.parametrize("seed", sorted(G2_DIGESTS))
    def test_genus_two_tracks_are_pinned(self, seed):
        doc = json.dumps(tt.track_to_json(tt.generate_fixture(2, seed)))
        assert hashlib.sha256(doc.encode()).hexdigest() == self.G2_DIGESTS[seed]

    # one sha256 over the track documents of g = 3..12 for seeds 1-5 and g = 20 for
    # seeds 1-3, in that order: each handle step must make the same choices in the
    # same order, so every track grown from a pinned genus-2 base stays byte-identical
    HANDLE_DIGEST = "ea4425c1ecabc97b5736f12e4cd9f68115e3e928bc060217354762d6cf3965dc"

    def test_handle_grown_tracks_are_pinned(self):
        digest = hashlib.sha256()
        for g, seeds in [*((g, range(1, 6)) for g in range(3, 13)), (20, range(1, 4))]:
            for seed in seeds:
                digest.update(json.dumps(tt.track_to_json(tt.generate_fixture(g, seed))).encode())
        assert digest.hexdigest() == self.HANDLE_DIGEST

    # the seeds the `search` benchmark workload runs: g = 3 for seeds 1-84 and
    # g = 4 for seeds 1-16, in that order.  Unlike the handle digest's range,
    # this window has attempts that hit the node cap (17) or fall apart (9).
    SEARCH_WINDOW = [(3, seed) for seed in range(1, 85)] + [(4, seed) for seed in range(1, 17)]
    # one sha256 over the window's track documents
    WINDOW_DIGEST = "b7ce7abd77da3c67f3957b513d24f7de9be178739131778c4a3bcd3e8b806f8a"
    # one sha256 over the search's path through the window: the length of each
    # shuffle (one per search node) and each attempt's outcome
    PATH_DIGEST = "eb085ce23f332f7b14a1780446ff11574c7d9f7614777ee45e0d674421e8ed84"

    def test_search_window_tracks_are_pinned(self):
        digest = hashlib.sha256()
        for g, seed in self.SEARCH_WINDOW:
            digest.update(json.dumps(tt.track_to_json(tt.generate_fixture(g, seed))).encode())
        assert digest.hexdigest() == self.WINDOW_DIGEST

    def test_search_path_through_the_window_is_pinned(self, monkeypatch):
        # every node shuffles its partners once, so the shuffle lengths and the
        # attempt outcomes show the search visits the same nodes in the same order
        events = []
        shuffle = tt._shuffle

        def recorded_shuffle(x, getrandbits):
            events.append(len(x))
            shuffle(x, getrandbits)

        grow = tt._grow

        def recorded_grow(*args):
            try:
                grown = grow(*args)
            except tt.FixtureSearchError as err:
                events.append("cap" if "nodes" in str(err) else
                              "disconnected" if "disconnected" in str(err) else str(err))
                raise
            events.append("ok")
            return grown

        monkeypatch.setattr(tt, "_shuffle", recorded_shuffle)
        monkeypatch.setattr(tt, "_grow", recorded_grow)
        for g, seed in self.SEARCH_WINDOW:
            tt.generate_fixture(g, seed)
        assert (events.count("ok"), events.count("cap"), events.count("disconnected")) == (216, 17, 9)
        assert hashlib.sha256(json.dumps(events).encode()).hexdigest() == self.PATH_DIGEST

    # one sha256 over the window's plaques, and the boundary walk and classes of each
    # track's seeded maximal tree, then over the `validate` errors of malformed genus-2
    # tracks: every swap of two rectangles' end1 slots (cells of 0, 1, 2, 4, 5, 6 or 9
    # cusps, each the first bad cell in corner order), each rectangle removed (an unused
    # slot) and two disjoint copies (a disconnected track)
    WALK_DIGEST = "53cdcd3894f39abca695749c016bad7ac4a3adf965a2895f0fb4ebabd20b8b37"

    def test_walks_and_cell_errors_are_pinned(self, g2):
        digest = hashlib.sha256()
        for g, seed in self.SEARCH_WINDOW:
            track = tt.generate_fixture(g, seed)
            tree = tt.maximal_tree(track, seed=seed)
            classes = [tuple(sorted(part)) for part in tt.classify(tree)]
            digest.update(repr((track.plaques, tt.boundary_walk(tree), classes)).encode())
        errors = [tt.validate(track).errors for track in _malformed(g2)]
        assert {e[0][0] for e in errors if e} == {"cell_shape", "unused_slot", "disconnected"}
        digest.update(repr(errors).encode())
        assert digest.hexdigest() == self.WALK_DIGEST

    def test_counts_and_trigons_force_the_euler_characteristic(self, g2):
        # every slot used once gives each switch one cusp, so all-trigon cells number
        # (12g-12)/3 = 4g-4 and chi = 2-2g: `validate` needs no Euler check of its own
        tracks = _malformed(g2)
        for name in ("track_g2_s1", "track_g2_s7", "track_g3_s2"):
            (track, _), _ = io.load(DATA / f"{name}.json", io.track_from_json)
            tracks.append(track)
        held = 0
        for track in tracks:
            g = track.genus
            try:
                track.slot_map()
            except tt.TrackError:
                continue
            if (len(track.switch_ids), len(track.rects)) != (12 * g - 12, 18 * g - 18):
                continue
            cells = track._trace_cells()
            if all(len(cusps) == 3 for cusps in cells):
                assert len(track.switch_ids) - len(track.rects) + len(cells) == 2 - 2 * g
                held += 1
        # the six swaps that leave every cell a trigon, the disconnected pair of copies
        # and the three data tracks
        assert held == 10

    def test_disconnected_handle_is_retried(self):
        # seed 14's first genus-3 attempt pairs a track that falls apart; the
        # second attempt draws another rectangle and grows the pinned track
        base = tt._grow({}, 2, 14, 0)
        with pytest.raises(tt.FixtureSearchError, match="the re-paired track is disconnected"):
            tt._grow(base, 3, 14, 0)
        doc = json.dumps(tt.track_to_json(tt.generate_fixture(3, 14)))
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "9bfe81f4b658d3519c99b1d9b43076cb8164b5129ffc6fe3b92ff20de5b1c3ea")

    def test_exhausted_search_raises_fixture_error(self, monkeypatch):
        monkeypatch.setattr(tt, "MAX_SEARCH_NODES", 5)
        monkeypatch.setattr(tt, "MAX_SEARCH_ATTEMPTS", 1)
        with pytest.raises(tt.FixtureSearchError):
            tt.generate_fixture(3, seed=1)

    def test_exhausted_handle_step_raises_fixture_error(self, monkeypatch):
        # 18 nodes pair a genus-2 track with no backtracking, as seed 5's first
        # attempt does, but a handle re-pairs 38 slots and needs at least 19
        monkeypatch.setattr(tt, "MAX_SEARCH_NODES", 18)
        monkeypatch.setattr(tt, "MAX_SEARCH_ATTEMPTS", 1)
        assert tt.validate(tt.generate_fixture(2, seed=5)).valid
        with pytest.raises(tt.FixtureSearchError, match="genus-3"):
            tt.generate_fixture(3, seed=5)

    def test_g1_rejected(self):
        with pytest.raises(tt.GenusMismatch):
            tt.generate_fixture(1, seed=1)

    @pytest.mark.parametrize("g", [tt.MAX_GENUS + 1, 10**9])
    def test_genus_above_bound_rejected(self, g):
        with pytest.raises(tt.GenusMismatch, match="MAX_GENUS"):
            tt.generate_fixture(g, seed=1)

    def test_port_collision(self, g2):
        rects = list(g2.rects)
        bad = tt.Rect(rects[0].id, rects[0].end0, rects[1].end1)
        track = tt.TrainTrack(2, g2.switch_ids, [bad] + rects[1:])
        rep = tt.validate(track)
        assert not rep.valid
        assert rep.errors[0][0] == "port_collision"

    def test_duplicate_rectangle_id(self, g2):
        # rect_by_id keeps one rectangle per id, so without the check the
        # corner map is no permutation and the cell trace never ends
        rects = list(g2.rects)
        dup = tt.Rect(rects[0].id, rects[1].end0, rects[1].end1)
        track = tt.TrainTrack(2, g2.switch_ids, [rects[0], dup] + rects[2:])
        rep = tt.validate(track)
        assert not rep.valid
        assert rep.errors[0] == ("port_collision", "rectangle ids are not unique")

    def test_missing_rectangle_leaves_an_unused_slot(self, g2):
        first = g2.rects[0]
        rep = tt.validate(tt.TrainTrack(2, g2.switch_ids, g2.rects[1:]))
        assert not rep.valid
        assert rep.errors == (("unused_slot", f"slot {min(first.ends)} is unused"),)
        assert issubclass(tt.UnusedSlot, tt.TrackError)

    def test_cell_shape_error(self, g2):
        # swap partners between two rectangles until a cell stops being a trigon
        for a in range(len(g2.rects)):
            for b in range(a + 1, len(g2.rects)):
                rep = tt.validate(_swapped_ends(g2, a, b))
                if not rep.valid and rep.errors[0][0] == "cell_shape":
                    return
        pytest.fail("no swap produced a cell-shape violation")

    def test_genus_mismatch(self, g2):
        track = tt.TrainTrack(3, g2.switch_ids, g2.rects)
        rep = tt.validate(track)
        assert not rep.valid
        assert rep.errors[0][0] == "genus_mismatch"

    def test_disconnected(self, g2):
        rep = tt.validate(_two_copies(g2))
        assert not rep.valid
        assert rep.errors[0][0] == "disconnected"

    def test_json_roundtrip(self, g2, tmp_path):
        tree = tt.maximal_tree(g2, seed=7)
        path = tmp_path / "track.json"
        io.write(str(path), io.track_to_json(g2, tree))
        doc = json.loads(path.read_text())
        assert set(doc) == {"genus", "switches", "rectangles", "tree"}
        (track2, tree2), _ = io.load(str(path), io.track_from_json)
        assert tt.validate(track2).valid
        assert tree2 is not None and tree2.edges == tree.edges
        assert tree2.orientation == tree.orientation

    def test_plaque_rotations(self, g2):
        for pl in g2.plaques:
            for t in pl.switches_ccw:
                assert pl.minus(pl.plus(t)) == t
                assert pl.plus(pl.plus(pl.plus(t))) == t
                assert {t, pl.plus(t), pl.minus(t)} == set(pl.switches_ccw)

    def test_each_switch_in_one_plaque(self, g2):
        seen = [t for pl in g2.plaques for t in pl.switches_ccw]
        assert sorted(seen) == sorted(g2.switch_ids)


class TestShuffle:
    # every length a search node shuffles (at most 37 partners) and more, plus the
    # rectangle count `maximal_tree` shuffles at MAX_GENUS; the suite runs on every
    # CI Python, so a change to the stdlib's shuffle or _randbelow fails here
    @pytest.mark.parametrize("n", [*range(65), 18 * (tt.MAX_GENUS - 1)])
    def test_shuffle_is_the_stdlib_shuffle(self, n):
        for seed in range(200):
            a, b = random.Random(seed), random.Random(seed)
            got, want = list(range(n)), list(range(n))
            tt._shuffle(got, a.getrandbits)
            b.shuffle(want)
            assert got == want
            assert a.getstate() == b.getstate()


class TestTrees:
    def test_edge_count(self, g2):
        tree = tt.maximal_tree(g2, seed=0)
        assert len(tree.edges) == 11
        assert set(tree.orientation) == set(g2.switch_ids)

    def test_unknown_edge_rejected(self, g2):
        edges = set(tt.maximal_tree(g2, seed=0).edges)
        with pytest.raises(tt.TreeStructureError, match=r"edges \[999\] are not rectangles"):
            tt.maximal_tree(g2, edges=edges - {min(edges)} | {999})

    def test_cycle_rejected(self, g2):
        tree = tt.maximal_tree(g2, seed=0)
        non_tree = [r.id for r in g2.rects if r.id not in tree.edges]
        with pytest.raises(tt.TreeStructureError):
            tt.maximal_tree(g2, edges=set(tree.edges) | {non_tree[0]})
        # 11 edges containing a cycle: add a chord, drop a tree edge off the cycle
        adj = {}
        for rid in tree.edges:
            r = g2.rect_by_id[rid]
            adj.setdefault(r.end0[0], []).append((r.end1[0], rid))
            adj.setdefault(r.end1[0], []).append((r.end0[0], rid))
        for chord_id in non_tree:
            chord = g2.rect_by_id[chord_id]
            a, b = chord.end0[0], chord.end1[0]
            prev = {a: (None, None)}
            todo = [a]
            while todo:
                x = todo.pop()
                for y, rid in adj.get(x, []):
                    if y not in prev:
                        prev[y] = (x, rid)
                        todo.append(y)
            path_edges = set()
            x = b
            while prev[x][0] is not None:
                path_edges.add(prev[x][1])
                x = prev[x][0]
            off_cycle = set(tree.edges) - path_edges
            if not off_cycle:
                continue
            bad = (set(tree.edges) - {min(off_cycle)}) | {chord_id}
            with pytest.raises(tt.TreeStructureError):
                tt.maximal_tree(g2, edges=bad)
            return
        pytest.fail("every chord closed a Hamiltonian cycle")

    def test_flip_flips_everything(self, g2):
        tree = tt.maximal_tree(g2, seed=3)
        flip = tree.flipped()
        assert all(flip.bit(s) == tree.bit(s) ^ 1 for s in g2.switch_ids)
        c, cf = tt.classify(tree), tt.classify(flip)
        assert c.s_left == cf.s_right and c.s_right == cf.s_left
        assert c.u_left == cf.u_right and c.u_right == cf.u_left
        assert set(c.e_left) == set(cf.e_right) and set(c.e_right) == set(cf.e_left)
        assert c.orientable == cf.orientable

    def test_classify_body_runs_once_per_tree(self, g2, monkeypatch):
        calls = []
        body = tt._classify
        monkeypatch.setattr(tt, "_classify", lambda tree: calls.append(tree) or body(tree))
        tree = tt.maximal_tree(g2, seed=4)
        first = tt.classify(tree)
        assert all(tt.classify(tree) is first for _ in range(5))
        assert calls == [tree]
        tt.classify(tt.maximal_tree(g2, seed=4))
        assert len(calls) == 2

    def test_flipped_tree_gets_its_own_classification(self, g2):
        tree = tt.maximal_tree(g2, seed=6)
        c = tt.classify(tree)
        cf = tt.classify(tree.flipped())
        assert cf is not c
        assert cf.s_left == c.s_right and cf.s_right == c.s_left
        assert tt.classify(tree) is c

    @pytest.mark.parametrize("seed", range(20))
    def test_count_and_parity_lemmas(self, g2, g3, seed):
        for track in (g2, g3):
            g = track.genus
            tree = tt.maximal_tree(track, seed=seed, root_bit=seed % 2)
            c = tt.classify(tree)
            assert len(c.orientable) + len(c.unorientable) == 6 * g - 5
            assert len(c.unorientable) >= 1
            assert len(c.e_right) == 1 + len(c.s_right)
            assert len(c.e_right) == len(c.orientable) + 2 * len(c.u_right)
            assert (len(c.unorientable) + len(c.s_right)) % 2 == 0
            assert c.s_left | c.s_right == set(track.switch_ids)

    def test_orientable_exits_split(self, g2):
        tree = tt.maximal_tree(g2, seed=5)
        c = tt.classify(tree)
        for rid in c.orientable:
            sides = {s for (r, e) in c.e_left if r == rid for s in ["left"]}
            sides |= {s for (r, e) in c.e_right if r == rid for s in ["right"]}
            assert sides == {"left", "right"}


class TestCover:
    @pytest.mark.parametrize("p0, p1, b0", itertools.product(tt.PORTS, tt.PORTS, (0, 1)))
    def test_one_end_exits_right(self, p0, p1, b0):
        # a lift's core leaves through the end that exits right in its frame, and a
        # rectangle has exactly one such end, whatever its ports and frame bit; with
        # the far bit flipped, as on an unorientable rectangle, both ends exit alike
        b1 = tt.transport(b0, p0, p1)
        assert [tt.exit_side(p0, b0), tt.exit_side(p1, b1)].count(tt.RIGHT) == 1
        assert tt.exit_side(p0, b0) == tt.exit_side(p1, b1 ^ 1)

    def test_lift_equations(self, g2):
        tree = tt.maximal_tree(g2, seed=2)
        lifts = tt.orientation_cover(tree)
        c = tt.classify(tree)
        for r in g2.rects:
            b = lifts.r_bit[r.id]
            # whether the chosen lift agrees with the tree orientation at each end
            agree = [lifts.end_bit(r.id, b, e) == tree.bit(r.end(e)[0]) for e in (0, 1)]
            if r.id in tree.edges or r.id in c.orientable:
                assert agree == [True, True]
            else:
                assert agree == [True, False]


class TestBoundaryWalk:
    def test_single_switch_tree(self, g2):
        s = g2.switch_ids[0]
        tree = tt.OrientedTree(g2, frozenset(), s, 0, {s: 0})
        steps = tt.boundary_walk(tree)
        kinds = [st.type for st in steps]
        assert kinds.count("switch") == 1
        assert kinds.count("rectangle") == 3
        assert kinds.count("leaf") == 4
        assert all(kinds[k] != "leaf" for k in range(0, len(kinds), 2))
        assert all(kinds[k] == "leaf" for k in range(1, len(kinds), 2))

    def test_maximal_walk_structure(self, g2):
        tree = tt.maximal_tree(g2, seed=4)
        c = tt.classify(tree)
        steps = tt.boundary_walk(tree)
        sw_steps = [s for s in steps if s.type == "switch"]
        r_steps = [s for s in steps if s.type == "rectangle"]
        assert len(sw_steps) == 12
        assert sorted(s.switch for s in sw_steps) == sorted(g2.switch_ids)
        assert len(r_steps) == 2 * (6 * 2 - 5)
        visits = sorted((s.rect, s.end) for s in r_steps)
        assert visits == sorted(c.e_left + c.e_right)
        for s in r_steps:
            key = (s.rect, s.end)
            assert (s.side == "left") == (key in c.e_left)
        for s in sw_steps:
            assert (s.side == "right") == (s.switch in c.s_right)

    def test_walk_is_cached_on_the_tree(self, g2):
        tree = tt.maximal_tree(g2, seed=4)
        steps = tt.boundary_walk(tree)
        assert isinstance(steps, tuple)
        assert tt.boundary_walk(tree) is steps
        assert tt.boundary_walk(tree.flipped()) is not steps

    def test_walk_alternates(self, g3):
        tree = tt.maximal_tree(g3, seed=9)
        steps = tt.boundary_walk(tree)
        for a, b in zip(steps, steps[1:]):
            assert (a.type == "leaf") != (b.type == "leaf")
