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

from conftest import as_member

DATA = Path(__file__).parent / "data"  # tracks pinned from generate_fixture 0.1.0
(TRACK, _), _ = io.load(DATA / "track_g2_s1.json", io.track_from_json)
TREE = cc.ensure_right_unorientable(tt.maximal_tree(TRACK, seed=1))
CLS = tt.classify(TREE)

(TRACK3, _), _ = io.load(DATA / "track_g3_s2.json", io.track_from_json)
TREE3 = cc.ensure_right_unorientable(tt.maximal_tree(TRACK3, seed=1))

CYL = "cylinder"


def zero_coords(track, tree, d, kind=CYL):
    tables = al.index_tables(d)
    z = {t: {j: al.zero(kind) for j in tables.B} for t in track.switch_ids}
    v = {r.id: tuple(al.zero(kind) for _ in tables.A)
         for r in track.rects if r.id not in tree.edges}
    return as_member(tree, d, kind, v, z)


def random_rotated_coords(track, tree, d, rng, kind=CYL):
    """Generic coordinates satisfying only the rotation relations."""
    tables = al.index_tables(d)
    z = {}
    for pl in track.plaques:
        t0 = pl.switches_ccw[0]
        base = {j: al.random_element(kind, rng) for j in tables.B}
        z[t0] = base
        z[pl.plus(t0)] = {al.rot_plus(j): base[j] for j in tables.B}
        z[pl.minus(t0)] = {al.rot_minus(j): base[j] for j in tables.B}
    v = {r.id: tuple(al.random_element(kind, rng) for _ in tables.A)
         for r in track.rects if r.id not in tree.edges}
    return as_member(tree, d, kind, v, z)


def closed_form(tree, c):
    """Boundary-product total computed from the classification data alone."""
    d = c.d
    tables = al.index_tables(d)
    cls = tt.classify(tree)
    tot = al.group_sum(CYL, (sl.to_cylinder(c.z[pl.switches_ccw[0]][j])
                             for pl in tree.track.plaques for j in tables.B_star))
    if d % 2 == 0:
        i0 = tables.i_zero
        ul = al.group_sum(CYL, (sl.to_cylinder(c.v[r][i0[0] - 1]) for r in cls.u_left))
        ur = al.group_sum(CYL, (sl.to_cylinder(c.v[r][i0[0] - 1]) for r in cls.u_right))
        tot = al.group_add(tot, al.group_sub(ul, ur))
        zl = al.group_sum(CYL, (sl.to_cylinder(c.z[t][j])
                                for t in cls.s_left for j in tables.B_zero))
        tot = al.group_add(tot, zl)
    return tot


class TestPlaqueRoots:
    def test_triple_of_root_reproduces_sum(self):
        rng = random.Random(1)
        for d in (2, 3, 4, 5):
            c = random_rotated_coords(TRACK, TREE, d, rng)
            tables = al.index_tables(d)
            roots = sl.plaque_roots(TRACK, c)
            for pl in TRACK.plaques:
                full = al.group_sum(CYL, (c.z[pl.switches_ccw[0]][j] for j in tables.B))
                assert al.elements_equal(al.int_scale(3, roots.values[pl.id]), full, 1e-9)
                assert roots.branches[pl.id] == 0

    def test_sum_is_rotation_invariant(self):
        rng = random.Random(2)
        c = random_rotated_coords(TRACK, TREE, 4, rng)
        tables = al.index_tables(4)
        for pl in TRACK.plaques:
            sums = [al.group_sum(CYL, (c.z[t][j] for j in tables.B))
                    for t in pl.switches_ccw]
            assert al.elements_equal(sums[0], sums[1], 1e-12)
            assert al.elements_equal(sums[0], sums[2], 1e-12)

    def test_branch_shifts_by_thirds(self):
        c = zero_coords(TRACK, TREE, 3)
        roots = sl.plaque_roots(TRACK, c, branches={0: 1, 1: 2})
        assert al.elements_equal(roots.values[0], al.cylinder(0.0, al.TWO_PI / 3), 1e-12)
        assert al.elements_equal(roots.values[1], al.cylinder(0.0, 2 * al.TWO_PI / 3), 1e-12)
        assert roots.branches[0] == 1 and roots.branches[1] == 2


class TestSwitchStep:
    def test_zero_coords_right_m1(self):
        for d in (2, 3, 4, 5):
            c = zero_coords(TRACK, TREE, d)
            roots = sl.plaque_roots(TRACK, c)
            t = TRACK.switch_ids[0]
            val = sl.switch_step_log(TRACK, 1, t, tt.RIGHT, c, roots)
            assert al.is_zero(val, 1e-12)

    def test_d2_only_sign_and_root_survive(self):
        c = zero_coords(TRACK, TREE, 2)
        roots = sl.plaque_roots(TRACK, c)
        t = TRACK.switch_ids[0]
        right = sl.switch_step_log(TRACK, 1, t, tt.RIGHT, c, roots)
        left = sl.switch_step_log(TRACK, 1, t, tt.LEFT, c, roots)
        assert al.is_zero(right, 1e-12)
        assert al.elements_equal(left, al.cylinder(0.0, math.pi), 1e-12)

    def test_left_m_equals_right_reflected(self):
        rng = random.Random(3)
        for d in (3, 4, 5):
            c = random_rotated_coords(TRACK, TREE, d, rng)
            roots = sl.plaque_roots(TRACK, c)
            for t in TRACK.switch_ids[:4]:
                for m in range(1, d + 1):
                    a = sl.switch_step_log(TRACK, m, t, tt.LEFT, c, roots)
                    b = sl.switch_step_log(TRACK, d - m + 1, t, tt.RIGHT, c, roots)
                    assert al.elements_equal(a, b, 1e-12)

    def test_bad_inputs(self):
        c = zero_coords(TRACK, TREE, 3)
        roots = sl.plaque_roots(TRACK, c)
        t = TRACK.switch_ids[0]
        with pytest.raises(ValueError):
            sl.switch_step_log(TRACK, 0, t, tt.RIGHT, c, roots)
        with pytest.raises(ValueError):
            sl.switch_step_log(TRACK, 4, t, tt.RIGHT, c, roots)
        with pytest.raises(ValueError):
            sl.switch_step_log(TRACK, 1, t, "up", c, roots)


class TestRectanglePair:
    def test_orientable_always_zero(self):
        rng = random.Random(4)
        c = random_rotated_coords(TRACK, TREE, 5, rng)
        rid = min(CLS.orientable)
        for m in range(1, 6):
            assert al.is_zero(sl.rectangle_pair_log(m, rid, "orientable", c), 0.0)

    def test_odd_middle_index_is_zero(self):
        rng = random.Random(5)
        c = random_rotated_coords(TRACK, TREE, 5, rng)
        for klass, rid in (("u_left", min(CLS.u_left)), ("u_right", min(CLS.u_right))):
            assert al.is_zero(sl.rectangle_pair_log(3, rid, klass, c), 1e-12)

    def test_even_middle_index(self):
        rng = random.Random(6)
        c = random_rotated_coords(TRACK, TREE, 4, rng)
        rid = min(CLS.u_right)
        got = sl.rectangle_pair_log(2, rid, "u_right", c)
        want = al.group_sub(al.cylinder(0.0, math.pi), c.v[rid][1])
        assert al.elements_equal(got, want, 1e-12)
        got_l = sl.rectangle_pair_log(2, min(CLS.u_left), "u_left", c)
        want_l = al.group_add(al.cylinder(0.0, math.pi), c.v[min(CLS.u_left)][1])
        assert al.elements_equal(got_l, want_l, 1e-12)

    def test_reflected_indices_are_inverse(self):
        rng = random.Random(7)
        for d in (3, 4, 5, 6):
            c = random_rotated_coords(TRACK, TREE, d, rng)
            for klass, rid in (("u_left", min(CLS.u_left)), ("u_right", min(CLS.u_right))):
                for m in range(1, d + 1):
                    a = sl.rectangle_pair_log(m, rid, klass, c)
                    b = sl.rectangle_pair_log(d - m + 1, rid, klass, c)
                    assert al.is_zero(al.group_add(a, b), 1e-12)

    def test_bad_inputs(self):
        c = zero_coords(TRACK, TREE, 3)
        tree_edge = min(TREE.edges)
        with pytest.raises(ValueError):
            sl.rectangle_pair_log(1, tree_edge, "u_left", c)
        with pytest.raises(ValueError):
            sl.rectangle_pair_log(1, min(CLS.u_left), "mixed", c)


class TestLedger:
    def test_step_census(self):
        c = zero_coords(TRACK, TREE, 3)
        led = sl.build_ledger(TREE, c)
        switch = [e for e in led.entries if e.kind == "switch"]
        rect = [e for e in led.entries if e.kind == "rectangle"]
        leaf = [e for e in led.entries if e.kind == "leaf"]
        assert len(switch) == 12 * TRACK.genus - 12
        n_free = len(TRACK.rects) - len(TREE.edges)
        assert len(rect) == 2 * n_free
        assert all(al.is_zero(e.contribution, 0.0) for e in leaf)
        opens = [e for e in rect if e.contribution is None]
        closes = [e for e in rect if e.contribution is not None]
        assert len(opens) == len(closes) == n_free

    def test_pairing_is_same_rectangle(self):
        c = zero_coords(TRACK, TREE, 3)
        led = sl.build_ledger(TREE, c)
        opened = {}
        for e in led.entries:
            if e.kind != "rectangle":
                continue
            rid = int(re.search(r"rect=(\d+)", e.payload).group(1))
            if e.contribution is None:
                assert rid not in opened
                opened[rid] = e.n
            else:
                partner = int(re.search(r"closes=(\d+)", e.payload).group(1))
                assert opened.pop(rid) == partner
        assert not opened

    def test_report_format(self):
        c = zero_coords(TRACK, TREE, 2)
        led = sl.build_ledger(TREE, c)
        pat = re.compile(r"^step \d+ (leaf|switch|rectangle) \S.* (deferred|log=\S+)$")
        lines = led.lines()
        assert lines and all(pat.match(ln) for ln in lines)
        assert lines[0].startswith("step 0 ")

    def test_rotation_relation_required(self):
        rng = random.Random(8)
        c = random_rotated_coords(TRACK, TREE, 3, rng)
        t = TRACK.switch_ids[0]
        z = {s: dict(vec) for s, vec in c.z.items()}
        z[t][(1, 1, 1)] = al.group_add(z[t][(1, 1, 1)], al.cylinder(0.5, 0.0))
        c = as_member(TREE, 3, CYL, c.v, z)
        with pytest.raises(ValueError):
            sl.build_ledger(TREE, c)


class TestTotal:
    def test_zero_coords_zero_total(self):
        for track, tree in ((TRACK, TREE), (TRACK3, TREE3)):
            for d in (2, 3, 4, 5):
                c = zero_coords(track, tree, d)
                assert al.is_zero(sl.total_mid_log(tree, c), 1e-12)

    def test_sign_parity_count(self):
        for track, tree in ((TRACK, TREE), (TRACK3, TREE3)):
            cls = tt.classify(tree)
            assert (len(cls.unorientable) + len(cls.s_right)) % 2 == 0

    def test_matches_closed_form(self):
        rng = random.Random(9)
        kinds = (CYL, "real", CYL, "zd:12")
        for track, tree in ((TRACK, TREE), (TRACK3, TREE3)):
            for d in (2, 3, 4, 5, 6):
                for trial in range(50):
                    c = cc.sample_y(tree, d, kinds[trial % 4], rng)
                    total = sl.total_mid_log(tree, c)
                    assert al.elements_equal(total, closed_form(tree, c), 1e-9)

    def test_library_closed_form_agrees_with_oracle(self):
        rng = random.Random(12)
        for track, tree in ((TRACK, TREE), (TRACK3, TREE3)):
            for d in (2, 3, 4, 5):
                c = cc.sample_y(tree, d, CYL, rng)
                lib = sl.closed_form_total(tree, c)
                assert al.elements_equal(lib, closed_form(tree, c), 1e-12)
                assert al.elements_equal(lib, sl.total_mid_log(tree, c), 1e-9)

    def test_ob_equals_torsion_invariant(self):
        rng = random.Random(10)
        for d in (2, 3, 4, 5, 6):
            for trial in range(10):
                c = cc.sample_y(TREE, d, CYL, rng)
                ob = sl.ob_from_product(sl.total_mid_log(TREE, c), d)
                tp = cc.tor_prime(TREE, c)
                assert al.elements_equal(ob.value, sl.to_cylinder(tp.value), 1e-9)
                assert al.is_zero(al.int_scale(d, ob.value), 1e-9)

    def test_membership_enforced(self):
        rng = random.Random(11)
        c = random_rotated_coords(TRACK, TREE, 3, rng)
        with pytest.raises(cc.MembershipError):
            sl.total_mid_log(TREE, c)

    def test_ob_rejects_non_torsion(self):
        with pytest.raises(ValueError):
            sl.ob_from_product(al.cylinder(0.37, 0.2), 3)

    def test_ob_of_zero_is_identity(self):
        ob = sl.ob_from_product(al.zero(CYL), 5)
        assert al.is_zero(ob.value, 0.0)


    def test_closed_form_is_one_recorded_row(self, monkeypatch):
        # recorded once per (tree, d) from `_closed_form` over slot numbers, it
        # gives the bits of the formula summed over the point's own elements in
        # their own group, then embedded in the cylinder, on gated and unchecked
        # points alike
        runs = []
        formula = sl._closed_form

        def counted(*args):
            runs.append(args[1])
            return formula(*args)

        monkeypatch.setattr(sl, "_closed_form", counted)
        tree = cc.ensure_right_unorientable(tt.maximal_tree(TRACK3, seed=1))
        rng = random.Random(13)
        for d in (2, 3, 4, 5, 6):
            for kind in ("real", "circle", CYL, "zd:12"):
                m = cc.sample_y(tree, d, kind, rng)
                c = random_rotated_coords(TRACK3, tree, d, rng, kind)
                for point in (m, c):
                    terms = formula(tree, d, point.v, point.z)[0]
                    want = sl.to_cylinder(al.combine(kind, terms))
                    assert sl.closed_form_total(tree, point) == want, (d, kind)
        assert runs == [2, 3, 4, 5, 6]


class TestCubeRootInvariance:
    def test_zero_point(self):
        c = zero_coords(TRACK, TREE, 3)
        ra = sl.plaque_roots(TRACK, c)
        rb = sl.plaque_roots(TRACK, c, branches={pl.id: 1 for pl in TRACK.plaques})
        assert sl.cube_root_invariance(TREE, c, ra, rb)

    def test_random_branch_assignments(self):
        rng = random.Random(12)
        for trial in range(20):
            d = (2, 3, 4, 5)[trial % 4]
            c = cc.sample_y(TREE, d, CYL, rng)
            ra = sl.plaque_roots(TRACK, c)
            rb = sl.plaque_roots(TRACK, c,
                                 branches={pl.id: rng.randrange(3) for pl in TRACK.plaques})
            assert sl.cube_root_invariance(TREE, c, ra, rb)

    def test_single_plaque_branch_shift(self):
        rng = random.Random(13)
        c = cc.sample_y(TREE, 4, CYL, rng)
        ra = sl.plaque_roots(TRACK, c)
        rb = sl.plaque_roots(TRACK, c, branches={TRACK.plaques[0].id: 2})
        assert sl.cube_root_invariance(TREE, c, ra, rb)


class TestCompiledRow:
    KINDS = (CYL, "real", "circle", "zd:12")

    def test_equals_walked_ledger(self):
        rng = random.Random(14)
        for tree in (TREE, TREE3):
            for d in (2, 3, 4, 5, 6):
                for kind in self.KINDS:
                    c = cc.sample_y(tree, d, kind, rng)
                    walked = sl.build_ledger(tree, c).total
                    assert al.elements_equal(sl.total_mid_log(tree, c), walked, 1e-12), (kind, d)

    def test_closed_form_at_large_d(self):
        rng = random.Random(15)
        for d in (8, 16, 24):
            c = cc.sample_y(TREE, d, CYL, rng)
            assert al.elements_equal(sl.total_mid_log(TREE, c), sl.closed_form_total(TREE, c),
                                     1e-12), d

    def test_independent_of_cube_roots(self):
        rng = random.Random(16)
        for d in (2, 3, 4, 5):
            c = cc.sample_y(TREE, d, CYL, rng)
            roots = sl.plaque_roots(TRACK, c, {pl.id: rng.randrange(3) for pl in TRACK.plaques})
            walked = sl.build_ledger(TREE, c, roots=roots).total
            assert al.elements_equal(sl.total_mid_log(TREE, c), walked, 1e-12)

    def test_row_is_folded_and_cached(self):
        for d in (2, 3, 4, 5, 6):
            rows = cc.recorded_rows(TREE, d, sl._ledger_form)
            assert cc.recorded_rows(TREE, d, sl._ledger_form) is rows
            row, = rows
            # the cube roots are folded away: every term reads one slot of the chart
            slots = [s for _, s in row]
            assert len(set(slots)) == len(slots)
            assert all(0 <= s < cc.chart(TREE, d).size for s in slots)
            assert all(n != 0 for n, _ in row)

    def test_root_coefficient_must_fold(self, monkeypatch):
        # a walk that misses one switch cusp leaves its plaque's root at -4
        tree = cc.ensure_right_unorientable(tt.maximal_tree(TRACK, seed=1))
        steps = tt.boundary_walk(tree)
        first = next(n for n, st in enumerate(steps) if st.type == "switch")
        monkeypatch.setattr(sl, "boundary_walk", lambda t: steps[:first] + steps[first + 1:])
        # a row that fails to fold is not kept: every call raises
        for _ in range(2):
            with pytest.raises(sl.RootFoldError, match="not divisible by 3"):
                cc.recorded_rows(tree, 3, sl._ledger_form)
        assert not [key for key in tree._memo if sl._ledger_form in key]
        monkeypatch.setattr(sl, "boundary_walk", tt.boundary_walk)
        rows = cc.recorded_rows(tree, 3, sl._ledger_form)
        assert rows is tree._memo["recorded_rows", 3, sl._ledger_form]

    def test_odd_sign_count_must_not_be_recorded(self, monkeypatch):
        # one switch step's pi*i count raised by 1 makes the walk's count odd: the
        # signs no longer cancel, so every call raises and nothing is kept
        tree = cc.ensure_right_unorientable(tt.maximal_tree(TRACK, seed=1))
        c = cc.sample_y(tree, 3, CYL, random.Random(19))
        t0 = TRACK.switch_ids[0]
        switch_row = sl._switch_row

        def shifted(track, m, t, side, d, z):
            row = switch_row(track, m, t, side, d, z)
            return row._replace(pi=row.pi + 1) if t == t0 else row

        monkeypatch.setattr(sl, "_switch_row", shifted)
        for _ in range(2):
            with pytest.raises(sl.RootFoldError, match="odd multiple"):
                sl.total_mid_log(tree, c)
        assert not [key for key in tree._memo if sl._ledger_form in key]
        monkeypatch.setattr(sl, "_switch_row", switch_row)
        assert al.elements_equal(sl.total_mid_log(tree, c), sl.build_ledger(tree, c).total)

    def test_zd_totals_are_exact(self):
        # over "zd:<n>" the ledger and the closed form are integer sums in the
        # point's own group, embedded in the cylinder once: equal bit for bit
        rng = random.Random(20)
        for tree in (TREE, TREE3):
            for d in (2, 3, 4, 5, 6, 7, 8, 16):
                for _ in range(3):
                    c = cc.sample_y(tree, d, "zd:12", rng)
                    assert sl.closed_form_total(tree, c) == sl.total_mid_log(tree, c), d


class TestCompiledOnce:
    # the (group, d) mix of the benchmark's chart workload
    MIX = [(CYL, d) for d in (2, 3, 4, 5, 6)] + [("zd:12", d) for d in (2, 3, 4, 6)]

    def test_chart_ops_build_each_tree_table_once(self, monkeypatch):
        counts = {"walk": 0, "row": [], "plan": [], "inverse": [], "rotation": [], "chart": []}

        def counting(mod, name, key):
            real = getattr(mod, name)

            def wrapped(*args):
                if key == "walk":
                    counts["walk"] += 1
                else:
                    counts[key].append(args[1:] if key in ("inverse", "plan") else args[1])
                return real(*args)

            monkeypatch.setattr(mod, name, wrapped)

        counting(tt, "_walk", "walk")
        counting(sl, "_ledger_form", "row")
        counting(hm, "_record_plan", "plan")
        counting(cc, "_record_inverse", "inverse")
        counting(cc, "rotation_pairs", "rotation")
        counting(cc, "_record_chart", "chart")
        # a fresh track and tree: the chart is kept on the tree, and its rotation
        # table is built from the plaques, not from `rotation_pairs`
        (track, _), _ = io.load(DATA / "track_g2_s1.json", io.track_from_json)
        tree = cc.ensure_right_unorientable(tt.maximal_tree(track, seed=1))
        lifts = tt.orientation_cover(tree)
        free_rects = sorted(set(r.id for r in track.rects) - tree.edges)
        rng = random.Random(17)
        for _ in range(2):
            for kind, d in self.MIX:
                anchors = cc.default_anchors(tree, d)
                free = cc.random_free(tree, d, kind, rng, anchors)
                eps = al.torsion_element(kind, d, rng.randrange(al.torsion_order(kind, d)))
                c = cc.i2_inverse(tree, free, eps, anchors)
                assert cc.is_member(tree, c, al.MEMBER_TOL)
                tor = cc.tor_prime(tree, c, anchors)
                cc.i2_forward(tree, c, anchors)
                total = sl.total_mid_log(tree, c)
                assert al.elements_equal(total, sl.closed_form_total(tree, c))
                assert al.elements_equal(sl.ob_from_product(total, d).value,
                                         sl.to_cylinder(tor.value))
                v = {rid: hm.ga_random(kind, d, rng) for rid in free_rects}
                w = {s: hm.ga_random(kind, d, rng) for s in track.switch_ids}
                w[track.switch_ids[0]] = hm.ga_zero(kind, d)
                w[track.switch_ids[0]] = hm.balance_defect(tree, v, w, kind, d)
                hm.solve_tree(lifts, v, w, kind, d)
        assert counts["walk"] == 1
        assert sorted(counts["row"]) == [2, 3, 4, 5, 6]
        # the solver plan is recorded once per (d, order)
        assert sorted(counts["plan"]) == [(d, "low_first") for d in (2, 3, 4, 5, 6)]
        # the anchors are rebuilt for every point; the inverse is keyed by their value
        assert sorted(d for d, _ in counts["inverse"]) == [2, 3, 4, 5, 6]
        assert counts["rotation"] == []
        assert sorted(counts["chart"]) == [2, 3, 4, 5, 6]
        hm.solve_tree(lifts, v, w, kind, d, order="high_first")
        hm.solve_tree(lifts, v, w, kind, d, order="high_first")
        assert counts["plan"][-1] == (6, "high_first") and len(counts["plan"]) == 6

    def test_derived_data_is_kept_in_one_store(self):
        # a fresh track, its tree and its cover after one chart op: each holds its
        # constructor fields and one `al.memo` store, keyed by the getters' names
        (track, _), _ = io.load(DATA / "track_g2_s1.json", io.track_from_json)
        tree = cc.ensure_right_unorientable(tt.maximal_tree(track, seed=1))
        lifts = tt.orientation_cover(tree)
        rng = random.Random(18)
        kind, d = CYL, 4
        anchors = cc.default_anchors(tree, d)
        free = cc.random_free(tree, d, kind, rng, anchors)
        c = cc.i2_inverse(tree, free, al.torsion_element(kind, d, 1), anchors)
        assert cc.is_member(tree, c, al.MEMBER_TOL)
        cc.tor_prime(tree, c, anchors)
        cc.i2_forward(tree, c, anchors)
        sl.total_mid_log(tree, c)
        sl.closed_form_total(tree, c)
        v = {rid: hm.ga_zero(kind, d) for rid in set(r.id for r in track.rects) - tree.edges}
        w = {s: hm.ga_zero(kind, d) for s in track.switch_ids}
        hm.solve_tree(lifts, v, w, kind, d)
        fresh = tt.TrainTrack(track.genus, track.switch_ids, track.rects)
        assert set(vars(track)) == set(vars(fresh)) | {"_memo"}
        assert set(vars(tree)) == {"track", "edges", "root", "root_bit", "orientation", "_memo"}
        assert set(vars(lifts)) == {"tree", "r_bit", "_memo"}
        assert {key[0] for key in track._memo} == {"slot_map", "plaques", "plaque_of_switch"}
        assert {key[0] for key in tree._memo} == {"classify", "boundary_walk", "chart",
                                                  "recorded_rows", "free_layout",
                                                  "inverse_plan"}
        assert {key[0] for key in lifts._memo} == {"solver_plan"}
        # tor', the ledger and the closed form are each one recorded row
        assert {key[2] for key in tree._memo if key[0] == "recorded_rows"} == {
            cc._tor_forms, sl._ledger_form, sl._closed_form}
