"""End-to-end acceptance battery.

One test per criterion; each line of `pytest -v` output is the pass/fail
verdict for that criterion.  Every check is timed against its budget.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from switchyard import algebra as al
from switchyard import cocyclic as cc
from switchyard import flags as fl
from switchyard import homology as hm
from switchyard import io
from switchyard import obstruction as obs
from switchyard import slither as sl
from switchyard import traintrack as tt

DATA = Path(__file__).parent / "data"  # tracks pinned from generate_fixture 0.1.0
(TRACK2, _), _ = io.load(DATA / "track_g2_s1.json", io.track_from_json)
TREE2 = cc.ensure_right_unorientable(tt.maximal_tree(TRACK2, seed=1))
(TRACK3, _), _ = io.load(DATA / "track_g3_s2.json", io.track_from_json)
TREE3 = cc.ensure_right_unorientable(tt.maximal_tree(TRACK3, seed=1))

CYL = "cylinder"


class Timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self._t0
        if exc_type is None:
            assert self.elapsed < self.budget, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.budget}s")


def coords_equal(c1, c2, tol):
    if set(c1.v) != set(c2.v) or set(c1.z) != set(c2.z):
        return False
    for r in c1.v:
        if any(not al.elements_equal(a, b, tol) for a, b in zip(c1.v[r], c2.v[r])):
            return False
    for t in c1.z:
        if any(not al.elements_equal(c1.z[t][j], c2.z[t][j], tol) for j in c1.z[t]):
            return False
    return True


def free_equal(f1, f2, tol):
    for r in f1.v_other:
        if any(not al.elements_equal(a, b, tol)
               for a, b in zip(f1.v_other[r], f2.v_other[r])):
            return False
    for i in f1.v_anchor:
        if not al.elements_equal(f1.v_anchor[i], f2.v_anchor[i], tol):
            return False
    for t in f1.z_other:
        if any(not al.elements_equal(f1.z_other[t][j], f2.z_other[t][j], tol)
               for j in f1.z_other[t]):
            return False
    return all(al.elements_equal(f1.z_anchor[j], f2.z_anchor[j], tol)
               for j in f1.z_anchor)


def test_criterion_01_dimension_identity():
    with Timer(1.0):
        for d in range(2, 9):
            t = al.index_tables(d)
            for g in (2, 3, 4):
                lhs = (len(t.A) * (6 * g - 5) + len(t.B) * (4 * g - 4)
                       - (len(t.A_prime) + len(t.B_dprime)) - 1)
                assert lhs == (d * d - 1) * (2 * g - 2)
                assert al.dimension_count(d, g) == (d * d - 1) * (2 * g - 2)


def test_criterion_02_track_census():
    with Timer(5.0):
        for g, seeds in ((2, (1, 5)), (3, (2,))):
            for seed in seeds:
                track = tt.generate_fixture(g, seed)
                assert len(track.switch_ids) == 12 * g - 12
                assert len(track.rects) == 18 * g - 18
                assert len(track.plaques) == 4 * g - 4
                tree = tt.maximal_tree(track, seed=seed)
                assert len(tree.edges) == 12 * g - 13
                cls = tt.classify(tree)
                assert len(cls.orientable) + len(cls.unorientable) == 6 * g - 5


def test_criterion_03_crossing_count_and_parity():
    with Timer(5.0):
        for track in (TRACK2, TRACK3):
            pairs = 0
            for seed in range(20):
                tree = tt.maximal_tree(track, seed=seed)
                for oriented in (tree, tree.flipped()):
                    cls = tt.classify(oriented)
                    assert len(cls.e_right) == 1 + len(cls.s_right)
                    assert (len(cls.unorientable) + len(cls.s_right)) % 2 == 0
                    pairs += 1
            assert pairs >= 20


def test_criterion_04_coordinate_roundtrip_and_torsion():
    with Timer(30.0):
        rng = random.Random(101)
        for kind in ("zd:12", "real", CYL):
            exact = kind == "zd:12"
            tol = 0.0 if exact else 1e-9
            for d in (2, 3, 4, 5):
                anchors = cc.default_anchors(TREE2, d)
                for _ in range(100):
                    free = cc.random_free(TREE2, d, kind, rng, anchors)
                    k = rng.randrange(al.torsion_order(kind, d))
                    eps = al.torsion_element(kind, d, k)
                    c = cc.i2_inverse(TREE2, free, eps, anchors)
                    assert cc.is_member(TREE2, c, 1e-7)
                    back, back_eps = cc.i2_forward(TREE2, c, anchors)
                    assert free_equal(free, back, tol)
                    assert al.elements_equal(back_eps.value, eps, tol)
                    assert al.elements_equal(cc.tor_prime(TREE2, c).value, eps, tol)
                    again = cc.i2_inverse(TREE2, back, back_eps, anchors)
                    assert coords_equal(c, again, tol)


def test_criterion_05_all_torsion_residues_realized():
    with Timer(5.0):
        for d in (2, 3, 4, 5, 6):
            anchors = cc.default_anchors(TREE2, d)
            free = cc.random_free(TREE2, d, CYL, random.Random(5 + d), anchors)
            seen = set()
            for k in range(d):
                eps = al.torsion_element(CYL, d, k)
                c = cc.i2_inverse(TREE2, free, eps, anchors)
                got = cc.tor_prime(TREE2, c).value
                ang = got.value[1] % al.TWO_PI
                snapped = int(round(d * ang / al.TWO_PI)) % d
                gap = abs(ang - al.TWO_PI * snapped / d)
                assert min(gap, al.TWO_PI - gap) < 1e-9
                assert abs(got.value[0]) < 1e-9
                seen.add(snapped)
            assert seen == set(range(d))
            # over the order-d cyclic coefficients the loop is integer-exact
            kind = f"zd:{d}"
            free = cc.random_free(TREE2, d, kind, random.Random(50 + d), anchors)
            for k in range(d):
                eps = al.torsion_element(kind, d, k)
                c = cc.i2_inverse(TREE2, free, eps, anchors)
                assert al.elements_equal(cc.tor_prime(TREE2, c).value, eps, 0.0)


def test_criterion_06_tree_solver():
    with Timer(10.0):
        lifts = tt.orientation_cover(TREE2)
        free = sorted(set(r.id for r in TRACK2.rects) - TREE2.edges)
        bumps = {"real": al.real(1.0), "circle": al.circle(1.0),
                 CYL: al.cylinder(1.0, 1.0), "zd:12": al.cyclic(12, 1)}
        for kind, bump in bumps.items():
            rng = random.Random(len(kind))
            for trial in range(100):
                d = rng.choice([2, 3, 4, 5])
                v = {rid: hm.ga_random(kind, d, rng) for rid in free}
                w = {s: hm.ga_random(kind, d, rng) for s in TRACK2.switch_ids}
                t_star = TRACK2.switch_ids[0]
                w[t_star] = hm.ga_zero(kind, d)
                w[t_star] = hm.balance_defect(TREE2, v, w, kind, d)
                a = hm.solve_tree(lifts, v, w, kind, d, order="low_first")
                b = hm.solve_tree(lifts, v, w, kind, d, order="high_first")
                assert all(hm.ga_equal(a[r], b[r], 1e-9) for r in a)
                resid = hm.boundary(lifts, hm.beta(lifts, a, v, kind, d)).sub(
                    hm.delta(TREE2, w, kind, d))
                assert resid.is_zero(1e-9)
                if trial % 2 == 0:
                    t = rng.choice(list(TRACK2.switch_ids))
                    bad = dict(w)
                    vec = list(bad[t])
                    vec[rng.randrange(d - 1)] = al.group_add(vec[0], bump)
                    bad[t] = tuple(vec)
                    with pytest.raises(hm.SolvabilityViolated):
                        hm.solve_tree(lifts, v, bad, kind, d)


def test_criterion_07_switch_sum_and_composition():
    with Timer(10.0):
        rng = random.Random(107)
        kinds = ("real", CYL, "circle", "zd:12")
        tables_by_d = {d: al.index_tables(d) for d in (3, 4, 5, 6)}
        points = 0
        for d in (3, 4, 5, 6):
            tables = tables_by_d[d]
            for trial in range(25):
                kind = kinds[trial % 4]
                z = {}
                for pl in TRACK2.plaques:
                    t0 = min(pl.switches_ccw)
                    base = {j: al.random_element(kind, rng) for j in tables.B}
                    z[t0] = base
                    z[pl.plus(t0)] = {al.rot_plus(j): base[j] for j in tables.B}
                    z[pl.minus(t0)] = {al.rot_minus(j): base[j] for j in tables.B}
                for t in TRACK2.switch_ids:
                    lhs, rhs = cc.nice_combination_check(TRACK2, z, t, d, kind)
                    assert al.elements_equal(lhs, rhs, 1e-9)
                a12 = tuple(al.random_element(kind, rng) for _ in tables.A)
                a23 = tuple(al.random_element(kind, rng) for _ in tables.A)
                theta = {j: al.random_element(kind, rng) for j in tables.B}
                cw = cc.compose_alpha(a12, a23, theta, "cw", d, kind)
                ccw = cc.compose_alpha(a12, a23, theta, "ccw", d, kind)
                for k, i in enumerate(tables.A):
                    base_sum = al.group_add(a12[k], a23[k])
                    corr_cw = al.group_sum(kind, (theta[j] for j in tables.B
                                                  if j[1] == i[0]))
                    corr_ccw = al.group_sum(kind, (theta[j] for j in tables.B
                                                   if j[1] == i[1]))
                    assert al.elements_equal(cw[k], al.group_add(base_sum, corr_cw), 1e-9)
                    assert al.elements_equal(ccw[k], al.group_sub(base_sum, corr_ccw), 1e-9)
                points += 1
        assert points == 100


def test_criterion_08_unipotent_formula_and_rotation_closure():
    with Timer(20.0):
        rng = random.Random(108)
        for d in (2, 3, 4, 5, 6):
            tables = al.index_tables(d)
            for _ in range(50):
                f1, f2, f3 = fl.random_flag_triple(d, rng)
                u = fl.unipotent_fixing(f2, f1, f3)
                f = fl.adapted_basis((f2, f3, f1))
                fp0 = fl.adapted_basis((f3, f1, f2))
                fp = fp0 * fl._vector_ratio(f[:, 0], fp0[:, d - 1])
                for m in range(1, d + 1):
                    prod = 1.0 + 0j
                    for j in tables.B:
                        if j[1] < m:
                            prod *= fl.triple_ratio((f1, f2, f3), j)
                    lhs = u @ f[:, m - 1]
                    rhs = (-1) ** (m - 1) * prod * fp[:, d - m]
                    scale = max(np.max(np.abs(rhs)), 1e-30)
                    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale

                triple = (f1, f2, f3)
                total = fl.log_ratio_sum(triple, d)
                r = al.cylinder(total.value[0] / 3.0, total.value[1] / 3.0)
                fb, gb, hb = fl.compatible_triple(triple, r)
                s2 = fl.exp_value(r) ** 2
                for first, second in ((fb, gb), (gb, hb), (hb, fb)):
                    ref = max(np.linalg.norm(second[:, d - 1]), 1e-30)
                    assert np.linalg.norm(s2 * first[:, 0] - second[:, d - 1]) <= 1e-8 * ref


def test_criterion_09_boundary_product_total():
    with Timer(60.0):
        rng = random.Random(109)
        kinds = (CYL, "real", CYL, "zd:12")
        for tree in (TREE2, TREE3):
            track = tree.track
            for d in (2, 3, 4, 5, 6):
                for trial in range(50):
                    c = cc.sample_y(tree, d, kinds[trial % 4], rng)
                    total = sl.total_mid_log(tree, c)
                    assert al.elements_equal(total, sl.closed_form_total(tree, c), 1e-9)
                    tp = cc.tor_prime(tree, c)
                    assert al.elements_equal(sl.ob_from_product(total, d).value,
                                             sl.to_cylinder(tp.value), 1e-9)
                    if trial < 3:
                        roots_a = sl.plaque_roots(track, c)
                        branches = {pl.id: rng.randrange(3) for pl in track.plaques}
                        roots_b = sl.plaque_roots(track, c, branches)
                        assert sl.cube_root_invariance(tree, c, roots_a, roots_b, 1e-9)


def test_criterion_10_lifting_obstruction():
    with Timer(20.0):
        rng = random.Random(110)
        for d in range(2, 8):
            value = obs.ob(obs.clock_shift_rep(d))
            assert value.residue in (1, d - 1)
            target = al.torsion_element(CYL, d, value.residue)
            assert al.elements_equal(value.value, target, 1e-9)
            assert value.residual <= 1e-9
        for d in (2, 3, 5):
            assert obs.ob(obs.identity_rep(d)).residue == 0
            assert obs.ob(obs.diagonal_rep(d, 2, rng)).residue == 0
        for d in (2, 3, 4):
            value = obs.ob(obs.fuchsian_octagon(d))
            assert value.residue == 0
            assert value.residual <= 1e-6
        assert obs.lift_independence(obs.clock_shift_rep(3), rng)
        assert obs.lift_independence(obs.clock_shift_rep(6), rng)
        assert obs.lift_independence(obs.fuchsian_octagon(3), rng)
