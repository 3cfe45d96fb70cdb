import random
import re
from pathlib import Path

import pytest

from switchyard import algebra as al
from switchyard import homology as hm
from switchyard import io
from switchyard.traintrack import maximal_tree, orientation_cover, classify

DATA = Path(__file__).parent / "data"  # tracks pinned from generate_fixture 0.1.0

KINDS = ["real", "circle", "cylinder", "zd:12"]


@pytest.fixture(scope="module")
def setup():
    (track, _), _ = io.load(DATA / "track_g2_s1.json", io.track_from_json)
    tree = maximal_tree(track, seed=1)
    lifts = orientation_cover(tree)
    free = sorted(set(r.id for r in track.rects) - tree.edges)
    return track, tree, lifts, free


def random_u(track, kind, d, rng):
    return {r.id: hm.ga_random(kind, d, rng) for r in track.rects}


def random_w(track, kind, d, rng):
    return {s: hm.ga_random(kind, d, rng) for s in track.switch_ids}


def random_diamond_z(track, kind, d, rng):
    """Random theta data satisfying the rotation relations, plaque by plaque."""
    tables = al.index_tables(d)
    z = {}
    for pl in track.plaques:
        t0 = pl.switches_ccw[0]
        z[t0] = {j: al.random_element(kind, rng) for j in tables.B}
        z[pl.plus(t0)] = {j: z[t0][al.rot_minus(j)] for j in tables.B}
        z[pl.minus(t0)] = {j: z[t0][al.rot_plus(j)] for j in tables.B}
    return z


def solvable_instance(track, tree, free, kind, d, rng):
    v = {rid: hm.ga_random(kind, d, rng) for rid in free}
    w = random_w(track, kind, d, rng)
    t_star = track.switch_ids[0]
    w[t_star] = hm.ga_zero(kind, d)
    w[t_star] = hm.balance_defect(tree, v, w, kind, d)
    return v, w


def bits(c):
    """A chain's entries by key, each value by its repr: equal only bit for bit."""
    return {k: [repr(x.value) for x in v] for k, v in c.coeffs.items()}


def off_by_one(vec, extra):
    """``vec`` one entry longer (extra = 1) or shorter (extra = -1)."""
    return vec + (al.real(5.0),) if extra > 0 else vec[:-1]


def unit_vector(kind, d, slot=0):
    one = {"real": al.real(1.0), "circle": al.circle(1.0),
           "cylinder": al.cylinder(1.0, 1.0), "zd:12": al.cyclic(12, 1)}[kind]
    return tuple(one if k == slot else al.zero(kind) for k in range(d - 1))


class TestChainOps:
    def test_boundary_single_generator(self, setup):
        track, tree, lifts, free = setup
        rid = track.rects[0].id
        c = hm.Chain1("real", 3, {(rid, 0): unit_vector("real", 3)})
        b = hm.boundary(lifts, c)
        assert len(b.support()) == 2
        vals = [b.coeffs[k] for k in b.support()]
        assert any(hm.ga_equal(v, unit_vector("real", 3)) for v in vals)
        assert any(hm.ga_equal(v, hm.ga_neg(unit_vector("real", 3))) for v in vals)

    def test_boundary_linear(self, setup):
        track, tree, lifts, free = setup
        rng = random.Random(7)
        c1 = hm.Chain1("real", 4, {(r.id, rng.randrange(2)): hm.ga_random("real", 4, rng)
                                   for r in track.rects[:9]})
        c2 = hm.Chain1("real", 4, {(r.id, rng.randrange(2)): hm.ga_random("real", 4, rng)
                                   for r in track.rects[5:14]})
        lhs = hm.boundary(lifts, c1.add(c2))
        rhs = hm.boundary(lifts, c1).add(hm.boundary(lifts, c2))
        assert lhs.equal(rhs, 1e-12)

    @pytest.mark.parametrize("kind", ["real", "cylinder"])
    def test_boundary_does_not_depend_on_key_order(self, setup, kind):
        # each entry is summed once; pairwise sums in insertion order once
        # differed in the last place on most seeds
        track, tree, lifts, free = setup
        for seed in range(8):
            rng = random.Random(seed)
            coeffs = {(r.id, b): hm.ga_random(kind, 4, rng) for r in track.rects for b in (0, 1)}
            forward = hm.boundary(lifts, hm.Chain1(kind, 4, coeffs))
            backward = hm.boundary(lifts, hm.Chain1(kind, 4, dict(reversed(coeffs.items()))))
            assert bits(forward) == bits(backward), seed
            total = forward.add(hm.boundary(lifts, hm.Chain1(kind, 4, coeffs)))
            assert bits(total) == bits(backward.add(forward))

    def test_iota_star_involutions(self, setup):
        track, tree, lifts, free = setup
        rng = random.Random(11)
        c1 = hm.Chain1("cylinder", 3, {(r.id, 1): hm.ga_random("cylinder", 3, rng)
                                       for r in track.rects})
        assert hm.iota_star(hm.iota_star(c1)).equal(c1)
        c0 = hm.boundary(lifts, c1)
        assert hm.iota_star(hm.iota_star(c0)).equal(c0)
        assert hm.iota_star(hm.Chain1("real", 2)).is_zero()

    def test_hat(self, setup):
        track, tree, lifts, free = setup
        rng = random.Random(13)
        c = hm.Chain1("circle", 5, {(r.id, 0): hm.ga_random("circle", 5, rng)
                                    for r in track.rects[:6]})
        assert hm.hat(hm.hat(c)).equal(c)
        assert hm.hat(hm.boundary(lifts, c)).equal(hm.boundary(lifts, hm.hat(c)))
        sym = al.circle(0.4)
        c_sym = hm.Chain1("circle", 4, {(track.rects[0].id, 0): (sym, sym, sym)})
        assert hm.hat(c_sym).equal(c_sym)

    @pytest.mark.parametrize("kind", KINDS)
    def test_beta_image_antisymmetric(self, setup, kind):
        track, tree, lifts, free = setup
        rng = random.Random(17)
        u = random_u(track, kind, 4, rng)
        c = hm.beta(lifts, {}, u, kind, 4)
        assert hm.iota_star(c).equal(hm.hat(c).neg())

    def test_beta_trivial_cases(self, setup):
        track, tree, lifts, free = setup
        zero_u = {r.id: hm.ga_zero("real", 3) for r in track.rects}
        assert hm.beta(lifts, {}, zero_u, "real", 3).is_zero()
        rid = track.rects[4].id
        u = dict(zero_u)
        u[rid] = unit_vector("real", 3)
        c = hm.beta(lifts, {}, u, "real", 3)
        assert c.support() == [(rid, 0), (rid, 1)]

    def test_beta_missing_rectangle(self, setup):
        track, tree, lifts, free = setup
        u = {r.id: hm.ga_zero("real", 3) for r in track.rects[:-1]}
        with pytest.raises(ValueError, match="missing rectangle"):
            hm.beta(lifts, {}, u, "real", 3)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_beta_delta_and_balance_defect_name_a_vector_of_another_length(self, setup, extra):
        # a longer vector was once cut to d-1 entries (a longer w[s] also reversed
        # into the other lift), a shorter one kept, or raised IndexError
        track, tree, lifts, free = setup
        d = 3
        v, w = solvable_instance(track, tree, free, "real", d, random.Random(41))
        u = hm.solve_tree(lifts, v, w, "real", d)
        r, s = min(classify(tree).unorientable), track.switch_ids[1]
        assert r in v
        message = f"coefficients have {d - 1 + extra} entries, not d-1 = {d - 1}"
        v_bad, w_bad = {**v, r: off_by_one(v[r], extra)}, {**w, s: off_by_one(w[s], extra)}
        for call, name in ((lambda: hm.beta(lifts, u, v_bad, "real", d), f"rectangle {r}"),
                           (lambda: hm.delta(tree, w_bad, "real", d), f"switch {s}"),
                           (lambda: hm.balance_defect(tree, v_bad, w, "real", d), f"rectangle {r}"),
                           (lambda: hm.balance_defect(tree, v, w_bad, "real", d), f"switch {s}")):
            with pytest.raises(ValueError, match=f"^{name} {message}$"):
                call()

    def test_balance_defect_checks_only_the_rectangles_it_reads(self, setup):
        track, tree, lifts, free = setup
        v, w = solvable_instance(track, tree, free, "real", 3, random.Random(42))
        r = min(classify(tree).orientable & set(free))
        want = hm.balance_defect(tree, v, w, "real", 3)
        got = hm.balance_defect(tree, {q: x for q, x in v.items() if q != r}, w, "real", 3)
        assert got == want
        unread = sorted(classify(tree).unorientable)
        with pytest.raises(ValueError, match=re.escape(f"missing rectangle coefficients: {unread}")):
            hm.balance_defect(tree, {}, w, "real", 3)

    def test_delta(self, setup):
        track, tree, lifts, free = setup
        rng = random.Random(19)
        zero_w = {s: hm.ga_zero("real", 3) for s in track.switch_ids}
        assert hm.delta(tree, zero_w, "real", 3).is_zero()
        w = dict(zero_w)
        w[track.switch_ids[2]] = unit_vector("real", 3)
        c = hm.delta(tree, w, "real", 3)
        assert len(c.support()) == 2
        w_full = random_w(track, "zd:12", 5, rng)
        e = hm.delta(tree, w_full, "zd:12", 5)
        assert hm.iota_star(e).equal(hm.hat(e).neg())

    @pytest.mark.parametrize("kind", KINDS)
    def test_boundary_beta_antisymmetric(self, setup, kind):
        track, tree, lifts, free = setup
        rng = random.Random(23)
        u = random_u(track, kind, 3, rng)
        b = hm.boundary(lifts, hm.beta(lifts, {}, u, kind, 3))
        assert hm.iota_star(b).equal(hm.hat(b).neg())

    @pytest.mark.parametrize("extra", [1, -1])
    def test_a_chain_refuses_a_vector_of_another_length(self, setup, extra):
        rid = setup[0].rects[0].id
        vec = off_by_one(unit_vector("real", 3), extra)
        with pytest.raises(ValueError, match=re.escape(
                f"lift {(rid, 0)} coefficients have {2 + extra} entries, not d-1 = 2")):
            hm.Chain1("real", 3, {(rid, 0): vec})

    def test_vectors_of_unequal_lengths_are_not_equal(self):
        one = unit_vector("real", 2)
        assert not hm.ga_equal(one, off_by_one(one, 1))
        assert not hm.ga_equal(off_by_one(one, 1), one)
        assert hm.ga_equal(one, one)


class TestKTheta:
    def test_zero_and_d2(self, setup):
        track, tree, lifts, free = setup
        tables = al.index_tables(3)
        z0 = {t: {j: al.zero("real") for j in tables.B} for t in track.switch_ids}
        assert hm.k_theta(track, z0, "real", 3).is_zero()
        z_empty = {t: {} for t in track.switch_ids}
        assert hm.k_theta(track, z_empty, "real", 2).is_zero()

    def test_diamond_violation(self, setup):
        track, tree, lifts, free = setup
        rng = random.Random(29)
        z = random_diamond_z(track, "real", 4, rng)
        t = track.plaques[0].switches_ccw[1]
        j = al.index_tables(4).B[0]
        z[t][j] = al.group_add(z[t][j], al.real(0.5))
        with pytest.raises(ValueError, match="rotation relation"):
            hm.k_theta(track, z, "real", 4)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_matches_delta_route(self, setup, kind, d):
        track, tree, lifts, free = setup
        rng = random.Random(d * 100 + len(kind))
        z = random_diamond_z(track, kind, d, rng)
        lhs = hm.k_theta(track, z, kind, d)
        rhs = hm.delta(tree, hm.w_from_z(tree, z, kind, d), kind, d)
        assert lhs.equal(rhs, 1e-12)


class TestSolveTree:
    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_solve_runs_its_plan_once_and_builds_no_output(self, setup, kind, lane_work):
        # the steps and the last switch's rows are one `al.run`, and the solved
        # vectors are taken from its lanes, not renormalized
        track, tree, lifts, free = setup
        d, rng = 5, random.Random(35)
        hm.solve_tree(lifts, *solvable_instance(track, tree, free, kind, d, rng), kind, d)
        v, w = solvable_instance(track, tree, free, kind, d, rng)
        lane_work.plans.clear()
        out = hm.solve_tree(lifts, v, w, kind, d)
        plan = hm.solver_plan(lifts, d)
        assert lane_work.plans == [plan.steps + plan.last]
        assert not lane_work.built_any([x for vec in out.values() for x in vec])

    @pytest.mark.parametrize("kind", KINDS)
    def test_balanced_input_builds_only_the_solved_outputs(self, setup, kind, lane_work):
        # the final lanes are compared with the zero lane; the negated defect is
        # built only for the message of an unbalanced input
        track, tree, lifts, free = setup
        d = 5
        v, w = solvable_instance(track, tree, free, kind, d, random.Random(36))
        hm.solver_plan(lifts, d)
        lane_work.built.clear()
        lane_work.from_lanes.clear()
        out = hm.solve_tree(lifts, v, w, kind, d)
        assert lane_work.built == []
        assert lane_work.from_lanes == [(d - 1) * len(out)]

    def test_all_zero(self, setup):
        track, tree, lifts, free = setup
        v = {rid: hm.ga_zero("real", 3) for rid in free}
        w = {s: hm.ga_zero("real", 3) for s in track.switch_ids}
        out = hm.solve_tree(lifts, v, w, "real", 3)
        assert set(out) == tree.edges
        assert all(hm.ga_is_zero(g) for g in out.values())

    @pytest.mark.parametrize("kind", KINDS)
    def test_solvable_iff_balance(self, setup, kind):
        # one hundred instances per kind: solvable ones admit an exact
        # solution, unbalanced perturbations are refused
        track, tree, lifts, free = setup
        rng = random.Random(hash(kind) % 10_000)
        bump = {"real": al.real(1.0), "circle": al.circle(1.0),
                "cylinder": al.cylinder(1.0, 1.0), "zd:12": al.cyclic(12, 1)}[kind]
        for trial in range(100):
            d = rng.choice([2, 3, 5])
            v, w = solvable_instance(track, tree, free, kind, d, rng)
            v_prime = hm.solve_tree(lifts, v, w, kind, d)
            resid = hm.boundary(lifts, hm.beta(lifts, v_prime, v, kind, d)).sub(
                hm.delta(tree, w, kind, d))
            assert resid.is_zero(1e-9)
            if trial % 2 == 0:
                t = rng.choice(list(track.switch_ids))
                w_bad = dict(w)
                vec = list(w_bad[t])
                slot = rng.randrange(d - 1)
                vec[slot] = al.group_add(vec[slot], bump)
                w_bad[t] = tuple(vec)
                with pytest.raises(hm.SolvabilityViolated):
                    hm.solve_tree(lifts, v, w_bad, kind, d)

    def test_two_orders_identical(self, setup):
        track, tree, lifts, free = setup
        rng = random.Random(31)
        for kind in KINDS:
            v, w = solvable_instance(track, tree, free, kind, 4, rng)
            a = hm.solve_tree(lifts, v, w, kind, 4, order="low_first")
            b = hm.solve_tree(lifts, v, w, kind, 4, order="high_first")
            assert set(a) == set(b)
            assert all(hm.ga_equal(a[r], b[r]) for r in a)

    def test_cyclic_exact(self, setup):
        track, tree, lifts, free = setup
        rng = random.Random(37)
        v, w = solvable_instance(track, tree, free, "zd:12", 3, rng)
        v_prime = hm.solve_tree(lifts, v, w, "zd:12", 3)
        resid = hm.boundary(lifts, hm.beta(lifts, v_prime, v, "zd:12", 3)).sub(
            hm.delta(tree, w, "zd:12", 3))
        assert resid.is_zero(0.0)

    def test_malformed_input(self, setup):
        # a missing rectangle or switch is named as `beta` and `delta` name it
        track, tree, lifts, free = setup
        v, w = solvable_instance(track, tree, free, "real", 3, random.Random(38))
        with pytest.raises(ValueError, match=re.escape(f"missing rectangle coefficients: {free}")):
            hm.solve_tree(lifts, {}, w, "real", 3)
        s = track.switch_ids[0]
        w_short = {t: w[t] for t in track.switch_ids if t != s}
        message = re.escape(f"missing switch coefficients: [{s}]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            hm.delta(tree, w_short, "real", 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            hm.solve_tree(lifts, v, w_short, "real", 3)

    def test_keys_the_solver_does_not_read_are_named(self, setup):
        # a tree edge's vector was once dropped for the solved one without a word,
        # and so were unknown rectangle and switch ids
        track, tree, lifts, free = setup
        v, w = solvable_instance(track, tree, free, "real", 3, random.Random(40))
        edge = min(tree.edges)
        stray = (al.real(-0.95), al.real(0.0))
        for v_bad, w_bad, message in (
                ({**v, edge: stray}, w, f"rectangle coefficients the solver does not read: [{edge}]"),
                ({**v, 999: stray}, w, "rectangle coefficients the solver does not read: [999]"),
                (v, {**w, 999: stray}, "switch coefficients the solver does not read: [999]")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                hm.solve_tree(lifts, v_bad, w_bad, "real", 3)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_a_vector_of_another_length_is_named(self, setup, extra):
        # a longer vector was once cut to d-1 entries, a shorter one raised IndexError
        track, tree, lifts, free = setup
        d = 3
        v, w = solvable_instance(track, tree, free, "real", d, random.Random(39))
        s, r = track.switch_ids[1], free[0]

        def resized(vec, longer):
            return vec + (al.real(0.0),) if longer else vec[:1]

        w_bad, v_bad = {**w, s: resized(w[s], extra > 0)}, {**v, r: resized(v[r], extra > 0)}
        message = f"coefficients have {d - 1 + extra} entries, not d-1 = {d - 1}$"
        with pytest.raises(ValueError, match=f"^switch {s} {message}"):
            hm.solve_tree(lifts, v, w_bad, "real", d)
        with pytest.raises(ValueError, match=f"^rectangle {r} {message}"):
            hm.solve_tree(lifts, v_bad, w, "real", d)
        # a longer and a shorter vector do not cancel in the lane count
        with pytest.raises(ValueError, match=f"^switch {s} {message}"):
            hm.solve_tree(lifts, {**v, r: resized(v[r], extra < 0)}, w_bad, "real", d)

    def test_plan_recorded_once_per_lifts_and_order(self, setup):
        track, tree, lifts, free = setup
        fresh = orientation_cover(tree)
        plan = hm.solver_plan(fresh, 3)
        assert hm.solver_plan(fresh, 3, "low_first") is plan
        assert hm.solver_plan(fresh, 3, "high_first") is not plan
        assert hm.solver_plan(fresh, 4) is not plan
        assert hm.solver_plan(orientation_cover(tree), 3) is not plan
        assert sorted(plan.solved) == sorted(tree.edges)

    def test_an_unknown_order_is_refused_before_any_plan_is_kept(self, setup):
        # a misspelled order once ran the low-first plan and kept it under its own key
        track, tree, lifts, free = setup
        fresh = orientation_cover(tree)
        v, w = solvable_instance(track, tree, free, "real", 3, random.Random(43))
        message = "^order must be 'low_first' or 'high_first', not 'highfirst'$"
        with pytest.raises(ValueError, match=message):
            hm.solve_tree(fresh, v, w, "real", 3, order="highfirst")
        with pytest.raises(ValueError, match=message):
            hm.solver_plan(fresh, 3, "highfirst")
        assert not [k for k in getattr(fresh, "_memo", {}) if k[0] == "solver_plan"]

    def test_final_switch_checked_at_tol(self, setup):
        # an extra term on the last equation, off by 1e-8: between the
        # default tol and MEMBER_TOL, so no looser floor may let it pass
        track, tree, lifts, free = setup
        orientable = min(classify(tree).orientable)
        v = {rid: hm.ga_zero("real", 3) for rid in free}
        v[orientable] = (al.real(1e-8), al.real(1e-8))
        w = {s: hm.ga_zero("real", 3) for s in track.switch_ids}
        fresh = orientation_cover(tree)
        plan = hm.solver_plan(fresh, 3)
        # the lanes of v_free[orientable] follow the w lanes
        lane = 2 * (len(track.switch_ids) + plan.rects.index(orientable))
        fresh._memo["solver_plan", 3, "low_first"] = plan._replace(
            last=tuple(row + ((1, lane + k),) for k, row in enumerate(plan.last)))
        with pytest.raises(hm.SolvabilityViolated, match="^balance defect "):
            hm.solve_tree(fresh, v, w, "real", 3)
        assert hm.solve_tree(fresh, v, w, "real", 3, tol=1e-7)
        assert hm.solve_tree(lifts, v, w, "real", 3, tol=0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_last_rows_are_minus_the_balance_defect(self, setup, kind):
        # the final switch's rows are the one solvability check: on any input,
        # balanced or not, they are minus balance_defect, lane by lane
        track, tree, lifts, free = setup
        rng = random.Random(33)
        tol = 0.0 if kind.startswith("zd:") else 1e-12
        for d in range(2, 6):
            plan = hm.solver_plan(lifts, d)
            for _ in range(20):
                v = {rid: hm.ga_random(kind, d, rng) for rid in free}
                w = random_w(track, kind, d, rng)
                vecs = [w[s] for s in track.switch_ids] + [v[r] for r in plan.rects]
                lanes = [x.value for vec in vecs for x in vec]
                for row in plan.steps:
                    lanes.append(al.evaluate(kind, row, lanes))
                defect = hm.balance_defect(tree, v, w, kind, d)
                got = [al.group_neg(al.GroupElement(kind, al.evaluate(kind, row, lanes)))
                       for row in plan.last]
                for x, want in zip(got, defect, strict=True):
                    assert al.distance(x, want) <= tol, (d, kind)
                if hm.ga_is_zero(defect):  # a random zd:12 input can balance
                    continue
                # the message lists the negated final lanes
                message = f"balance defect {[io.lane_to_json(x.value) for x in got]}"
                with pytest.raises(hm.SolvabilityViolated, match=f"^{re.escape(message)}$"):
                    hm.solve_tree(lifts, v, w, kind, d)

    @pytest.mark.parametrize("kind,other", [("real", "cylinder"), ("cylinder", "real"),
                                            ("real", "zd:12"), ("zd:12", "real")])
    def test_a_stray_kind_is_named_by_its_vector(self, setup, kind, other):
        track, tree, lifts, free = setup
        v, w = solvable_instance(track, tree, free, kind, 3, random.Random(34))
        s, r = track.switch_ids[2], free[1]
        w[s] = (w[s][0], al.zero(other))
        with pytest.raises(al.GroupKindError, match=f"^kind mismatch: '{kind}' vs '{other}' "
                                                    f"at switch {s}$"):
            hm.solve_tree(lifts, v, w, kind, 3)
        v[r] = (al.zero(other), v[r][1])
        w[s] = (w[s][0], al.zero(kind))
        with pytest.raises(al.GroupKindError, match=f"^kind mismatch: '{kind}' vs '{other}' "
                                                    f"at rectangle {r}$"):
            hm.solve_tree(lifts, v, w, kind, 3)

    @pytest.mark.parametrize("name", ["track_g2_s1", "track_g2_s7", "track_g3_s2"])
    def test_plan_is_a_straight_line_row_program(self, name):
        (track, _), _ = io.load(DATA / f"{name}.json", io.track_from_json)
        tree = maximal_tree(track, seed=1)
        lifts = orientation_cover(tree)
        for d in range(2, 7):
            for order in ("low_first", "high_first"):
                plan = hm.solver_plan(lifts, d, order)
                inputs = (d - 1) * (len(track.switch_ids) + len(plan.rects))
                assert plan.rects == tuple(sorted(set(r.id for r in track.rects) - tree.edges))
                assert len(plan.steps) == (d - 1) * len(tree.edges)
                assert sorted(plan.solved) == sorted(tree.edges)
                # each step reads only the inputs and the steps before it
                for q, row in enumerate(plan.steps):
                    assert all(lane < inputs + q for _, lane in row), (name, d, order, q)
                assert len(plan.last) == d - 1
                # every switch but one solves an edge; the last rows close that one
                w_switches = [{lane // (d - 1) for row in rows for _, lane in row
                               if lane < (d - 1) * len(track.switch_ids)}
                              for rows in (plan.steps, plan.last)]
                assert len(w_switches[0]) == len(tree.edges) and len(w_switches[1]) == 1
                assert not w_switches[0] & w_switches[1]
                for row in plan.steps + plan.last:
                    assert row and all(n in (1, -1) for n, _ in row)
                assert all(lane < inputs + len(plan.steps) for row in plan.last for _, lane in row)
