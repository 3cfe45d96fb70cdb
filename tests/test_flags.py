import cmath
import math
import random

import numpy as np
import pytest

from switchyard import algebra as al
from switchyard import flags as fl
from switchyard import io


def det3(m):
    """Cofactor expansion, kept free of numpy on purpose."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def veronese_flag(d, b):
    """Flag of the line (1, b) under the degree d-1 symmetric power."""
    cols = []
    for m in range(1, d + 1):
        col = np.zeros(d, dtype=complex)
        for t in range(d):
            s = t - (m - 1)
            if 0 <= s <= d - m:
                col[t] = math.comb(d - m, s) * (b ** s)
        cols.append(col)
    return fl.Flag(np.column_stack(cols))


def in_span(vec, basis_cols, tol=1e-10):
    sol, *_ = np.linalg.lstsq(basis_cols, vec, rcond=None)
    return np.linalg.norm(basis_cols @ sol - vec) <= tol * max(1.0, np.linalg.norm(vec))


def subspaces_match(a_cols, b_cols, tol=1e-6):
    return all(in_span(a_cols[:, k], b_cols, tol) for k in range(a_cols.shape[1]))


class TestFlagType:
    def test_dependent_columns_rejected(self):
        with pytest.raises(fl.DegenerateFlagError):
            fl.Flag([[1, 2], [2, 4]])

    def test_zero_column_rejected(self):
        with pytest.raises(fl.DegenerateFlagError):
            fl.Flag([[0, 1], [0, 1]])

    def test_scaling_does_not_matter(self):
        f = fl.Flag(np.eye(3) * 1e-8)
        assert f.d == 3

    def test_unit_is_read_only(self):
        # the minors kept in a flag's memo are computed from unit
        f = fl.standard_flag(3)
        with pytest.raises(ValueError, match="read-only"):
            f.unit[0, 0] = 2.0

    def test_random_flag_gives_up_after_its_cap(self):
        # a generator whose every gaussian is 0.0 (random() is 0.0, so each
        # Box-Muller pair has radius 0) draws MAX_FLAG_ATTEMPTS dependent
        # flags of 2d^2 gaussians, then fails instead of looping for ever;
        # a pair takes two random() calls, so each attempt makes 2d^2 calls
        class Zeros:
            draws = 0
            gauss_next = None

            def random(self):
                self.draws += 1
                return 0.0

        rng = Zeros()
        with pytest.raises(fl.DegenerateFlagError, match=f"in {fl.MAX_FLAG_ATTEMPTS} attempts$"):
            fl.random_flag(3, rng)
        assert rng.draws == fl.MAX_FLAG_ATTEMPTS * 2 * 3 * 3

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
            with pytest.raises(fl.DegenerateFlagError, match="non-finite"):
                fl.Flag([[bad, 0], [0, 1]])


def gauss_flag(d, rng):
    """`random_flag` drawn by ``rng.gauss(0.0, 1.0)``, one entry part at a time: the
    route its lanes of `algebra.random_lanes` stand for."""
    for _ in range(fl.MAX_FLAG_ATTEMPTS):
        mat = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d * d)]).view(complex).reshape(d, d)
        try:
            return fl.Flag(mat)
        except fl.DegenerateFlagError:
            continue


def matrix_bits(m):
    return [(z.real.hex(), z.imag.hex()) for z in m.flat]


class TestDrawRule:
    @pytest.mark.parametrize("pending", [0, 1])
    def test_random_flag_has_the_bits_of_the_gauss_route(self, pending):
        # every entry and the generator's final state match the stdlib calls', also
        # when a gaussian of an earlier draw is pending in gauss_next
        for d in (*range(2, 9), 16, 32):
            for seed in range(5 if d <= 8 else 1):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                for r in (got_rng, want_rng)[:pending * 2]:
                    r.gauss(0.0, 1.0)
                for _ in range(2):
                    got, want = fl.random_flag(d, got_rng), gauss_flag(d, want_rng)
                    assert matrix_bits(got.mat) == matrix_bits(want.mat)
                    assert got_rng.getstate() == want_rng.getstate()


class TestCachedTables:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_each_table_is_built_once_and_read_only(self, d):
        for m in (2, 3, 4):
            patterns = fl._all_patterns(d, m)
            assert fl._all_patterns(d, m) is patterns
            assert patterns == tuple(fl._compositions(d, m))
        patterns = fl._all_patterns(d, 3)
        minor_cols = fl._pattern_columns(d, patterns)
        assert fl._pattern_columns(d, tuple(list(patterns))) is minor_cols
        # row r takes the first k_i columns of flag i, laid end to end
        assert minor_cols.tolist() == [[i * d + c for i, k in enumerate(p) for c in range(k)]
                                       for p in patterns]
        cols = fl._intersection_columns(d)
        assert fl._intersection_columns(d) is cols
        assert cols.tolist() == [[*range(m), *range(d, 2 * d - m + 1)] for m in range(1, d + 1)]
        tables = fl._upper_triangle(d)
        assert fl._upper_triangle(d) is tables
        a, b, rows_ba, rows_ab = tables
        assert [a.tolist(), b.tolist()] == [x.tolist() for x in np.triu_indices(d, 1)]
        for want, got in ((np.ix_(b, a), rows_ba), (np.ix_(a, b), rows_ab)):
            assert [x.tolist() for x in got] == [x.tolist() for x in want]
        for arr in (minor_cols, cols, a, b, *rows_ba, *rows_ab):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1


class TestGeneralPosition:
    def test_standard_vs_reversed_transverse(self):
        for d in (2, 3, 4, 5):
            a, b = fl.standard_flag(d), fl.reversed_standard_flag(d)
            assert fl.general_position([a, b])

    def test_flag_vs_itself_false(self):
        for d in (2, 3, 4):
            a = fl.standard_flag(d)
            assert not fl.general_position([a, a])

    def test_three_random_gaussian_flags(self):
        for seed in (1, 2, 3, 4, 5):
            rng = random.Random(seed)
            flags = [fl.random_flag(4, rng) for _ in range(3)]
            assert fl.general_position(flags)

    def test_nan_minor_is_not_general_position(self):
        # Flag refuses non-finite entries, so a nan reaches the guard only
        # through a matrix edited after construction
        f = fl.standard_flag(2)
        f.unit = np.array([[math.nan, 0], [0, 1]], dtype=complex)
        with np.errstate(invalid="ignore"):
            assert not fl.general_position([f, fl.reversed_standard_flag(2)])

    def test_single_pattern(self):
        a, b = fl.standard_flag(3), fl.reversed_standard_flag(3)
        assert fl.general_position([a, b], pattern=(1, 2))
        with pytest.raises(ValueError):
            fl.general_position([a, b], pattern=(1, 1))


class TestTripleRatio:
    def test_symmetric_power_lines_give_unit_ratios(self):
        lines = (0.3 + 0.4j, -1.1 + 0.2j, 2.0 - 0.7j)
        for d in (3, 4, 5, 6):
            triple = tuple(veronese_flag(d, b) for b in lines)
            for j in al.index_tables(d).B:
                assert abs(fl.triple_ratio(triple, j) - 1.0) < 1e-8

    def test_swap_symmetry_product_is_one(self):
        rng = random.Random(6)
        for d in (3, 4, 5):
            f1, f2, f3 = fl.random_flag_triple(d, rng)
            for j in al.index_tables(d).B:
                a = fl.triple_ratio((f1, f2, f3), j)
                b = fl.triple_ratio((f2, f1, f3), (j[1], j[0], j[2]))
                assert abs(a * b - 1.0) < 1e-9

    def test_rotation_symmetry(self):
        rng = random.Random(7)
        f1, f2, f3 = fl.random_flag_triple(4, rng)
        for j in al.index_tables(4).B:
            a = fl.triple_ratio((f1, f2, f3), j)
            b = fl.triple_ratio((f2, f3, f1), (j[1], j[2], j[0]))
            assert abs(a - b) < 1e-9

    def test_d3_matches_cofactor_expansion(self):
        rng = random.Random(8)
        f1, f2, f3 = fl.random_flag_triple(3, rng)

        def col(f, k):
            return [f.mat[r, k] for r in range(3)]

        def wedge(a, b, c):
            cols = [col(f1, k) for k in range(a)]
            cols += [col(f2, k) for k in range(b)]
            cols += [col(f3, k) for k in range(c)]
            rows = [[cols[c2][r] for c2 in range(3)] for r in range(3)]
            return det3(rows)

        j1, j2, j3 = 1, 1, 1
        expect = (wedge(j1 + 1, j2, j3 - 1) / wedge(j1 - 1, j2, j3 + 1)
                  * wedge(j1, j2 - 1, j3 + 1) / wedge(j1, j2 + 1, j3 - 1)
                  * wedge(j1 - 1, j2 + 1, j3) / wedge(j1 + 1, j2 - 1, j3))
        got = fl.triple_ratio((f1, f2, f3), (1, 1, 1))
        assert abs(got - expect) < 1e-10

    def test_degenerate_triple_rejected(self):
        a = fl.standard_flag(3)
        with pytest.raises(fl.DegenerateFlagError):
            fl.triple_ratio((a, a, fl.reversed_standard_flag(3)), (1, 1, 1))


class TestDoubleRatio:
    def test_equal_h_flags_give_minus_one(self):
        rng = random.Random(9)
        for d in (2, 3, 4):
            g1, g2, h = fl.random_flag_triple(d, rng)
            for i in al.index_tables(d).A:
                assert abs(fl.double_ratio(g1, g2, h, h, i) + 1.0) < 1e-10

    def test_projective_invariance(self):
        rng = random.Random(10)
        g1, g2, h1 = fl.random_flag_triple(4, rng)
        h2 = fl.random_flag(4, rng)
        base = {i: fl.double_ratio(g1, g2, h1, h2, i) for i in al.index_tables(4).A}
        q = fl.random_flag(4, rng).mat
        moved = [fl.Flag(q @ f.mat) for f in (g1, g2, h1, h2)]
        for i, val in base.items():
            assert abs(fl.double_ratio(*moved, i) - val) < 1e-8 * max(1.0, abs(val))

    def test_d2_matches_direct_determinants(self):
        rng = random.Random(11)
        g1, g2, h1 = fl.random_flag_triple(2, rng)
        h2 = fl.random_flag(2, rng)

        def pair_det(x, y):
            return det2([[x[0], y[0]], [x[1], y[1]]])

        a = [g1.mat[r, 0] for r in range(2)]
        b = [g2.mat[r, 0] for r in range(2)]
        c = [h1.mat[r, 0] for r in range(2)]
        e = [h2.mat[r, 0] for r in range(2)]
        expect = -(pair_det(a, c) / pair_det(a, e)) * (pair_det(b, e) / pair_det(b, c))
        got = fl.double_ratio(g1, g2, h1, h2, (1, 1))
        assert abs(got - expect) < 1e-10


class TestLogInvariant:
    def test_pinned_values(self):
        one = fl.log_invariant(1.0)
        assert al.is_zero(one, 1e-12)
        minus = fl.log_invariant(-1.0)
        assert al.elements_equal(minus, al.cylinder(0.0, math.pi), 1e-12)
        e2 = fl.log_invariant(math.e ** 2)
        assert al.elements_equal(e2, al.cylinder(2.0, 0.0), 1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fl.log_invariant(0.0)

    def test_exp_value_inverts(self):
        rng = random.Random(12)
        for _ in range(20):
            x = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            if abs(x) < 1e-3:
                continue
            back = fl.exp_value(fl.log_invariant(x))
            assert abs(back - x) < 1e-12 * abs(x)

    def test_exp_value_needs_cylinder(self):
        with pytest.raises(al.GroupKindError):
            fl.exp_value(al.real(1.0))


class TestAdaptedBasis:
    def test_d2_hand_example(self):
        f1 = fl.Flag([[1, 0], [0, 1]])
        f2 = fl.Flag([[1, 1], [1, 0]])
        f3 = fl.Flag([[0, 1], [1, 0]])
        g = fl.adapted_basis((f2, f3, f1))
        assert np.allclose(g[:, 0], [1, 1], atol=1e-12)
        assert np.allclose(g[:, 1], [-1, 0], atol=1e-12)
        assert in_span(g.sum(axis=1), f3.cols(1), 1e-12)

    def test_membership_for_random_triples(self):
        rng = random.Random(13)
        for d in (2, 3, 4, 5):
            f1, f2, f3 = fl.random_flag_triple(d, rng)
            g = fl.adapted_basis((f1, f2, f3))
            for m in range(1, d + 1):
                assert in_span(g[:, m - 1], f1.cols(m))
                assert in_span(g[:, m - 1], f3.cols(d - m + 1))
            assert in_span(g.sum(axis=1), f2.cols(1))
            assert abs(np.linalg.det(g)) > 1e-12

    def test_scale_pin(self):
        rng = random.Random(14)
        g = fl.adapted_basis(fl.random_flag_triple(3, rng))
        lead = g[:, 0]
        k = next(i for i in range(3) if abs(lead[i]) > 1e-12)
        assert abs(lead[k] - 1.0) < 1e-12

    def test_reversed_triple_gives_reversed_basis(self):
        rng = random.Random(15)
        for d in (2, 3, 4):
            f1, f2, f3 = fl.random_flag_triple(d, rng)
            g = fl.adapted_basis((f1, f2, f3))
            rev = fl.adapted_basis((f3, f2, f1))
            flipped = np.fliplr(g)
            c = fl._vector_ratio(rev[:, 0], flipped[:, 0])
            assert np.allclose(rev, c * flipped, atol=1e-9)


class TestUnipotent:
    def test_d2_hand_example(self):
        f1 = fl.Flag([[1, 0], [0, 1]])
        f2 = fl.Flag([[1, 1], [1, 0]])
        f3 = fl.Flag([[0, 1], [1, 0]])
        u = fl.unipotent_fixing(f2, f1, f3)
        assert np.allclose(u @ np.array([1, 1]), [1, 1], atol=1e-10)
        assert np.allclose(u @ np.array([-1, 0]), [0, 1], atol=1e-10)

    def test_unipotency_and_flag_action(self):
        rng = random.Random(16)
        for d in range(2, 9):
            f1, f2, f3 = fl.random_flag_triple(d, rng)
            u = fl.unipotent_fixing(f2, f1, f3)
            nil = np.linalg.matrix_power(u - np.eye(d), d)
            assert np.linalg.norm(nil) < 1e-8
            assert abs(np.linalg.det(u) - 1.0) < 1e-8
            for k in range(1, d):
                assert subspaces_match(u @ f2.cols(k), f2.cols(k), 1e-8)
                assert subspaces_match(u @ f1.cols(k), f3.cols(k), 1e-8)

    def test_formula_on_seeded_triples(self):
        # fifty triples per dimension, up to the largest d the matrix benchmark
        # runs; the linear solve is the oracle and the sign-and-exponential
        # expression is the claim under test
        rng = random.Random(17)
        for d in range(2, 9):
            tables = al.index_tables(d)
            for _ in range(50):
                f1, f2, f3 = fl.random_flag_triple(d, rng)
                u = fl.unipotent_fixing(f2, f1, f3)
                f = fl.adapted_basis((f2, f3, f1))
                fp0 = fl.adapted_basis((f3, f1, f2))
                fp = fp0 * fl._vector_ratio(f[:, 0], fp0[:, d - 1])
                ratios = {j: fl.triple_ratio((f1, f2, f3), j) for j in tables.B}
                for m in range(1, d + 1):
                    prod = 1.0 + 0j
                    for j, x in ratios.items():
                        if j[1] < m:
                            prod *= x
                    lhs = u @ f[:, m - 1]
                    rhs = (-1) ** (m - 1) * prod * fp[:, d - m]
                    scale = max(np.max(np.abs(rhs)), 1e-30)
                    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


class TestCompatibleTriple:
    @staticmethod
    def cube_root(triple, d):
        total = fl.log_ratio_sum(triple, d)
        re, ang = total.value
        return al.cylinder(re / 3.0, ang / 3.0)

    def test_closure(self):
        rng = random.Random(18)
        for d in (2, 3, 4, 5):
            triple = fl.random_flag_triple(d, rng)
            r = self.cube_root(triple, d)
            f, g, h = fl.compatible_triple(triple, r)
            s2 = fl.exp_value(r) ** 2
            assert np.allclose(s2 * f[:, 0], g[:, d - 1], atol=1e-8)
            assert np.allclose(s2 * g[:, 0], h[:, d - 1], atol=1e-8)
            ref = np.linalg.norm(f[:, d - 1])
            assert np.linalg.norm(s2 * h[:, 0] - f[:, d - 1]) < 1e-8 * ref

    def test_unit_ratio_triple_chains_without_scaling(self):
        lines = (0.5 + 0.1j, -0.9 + 0.6j, 1.4 - 0.3j)
        for d in (2, 3, 4):
            triple = tuple(veronese_flag(d, b) for b in lines)
            f, g, h = fl.compatible_triple(triple, al.cylinder(0.0, 0.0))
            assert np.allclose(f[:, 0], g[:, d - 1], atol=1e-9)
            assert np.allclose(g[:, 0], h[:, d - 1], atol=1e-9)
            assert np.allclose(h[:, 0], f[:, d - 1], atol=1e-9)

    def test_other_cube_roots_still_close(self):
        rng = random.Random(19)
        triple = fl.random_flag_triple(3, rng)
        r = self.cube_root(triple, 3)
        shifted = al.group_add(r, al.cylinder(0.0, 2.0 * math.pi / 3.0))
        f, g, h = fl.compatible_triple(triple, shifted)
        s2 = fl.exp_value(shifted) ** 2
        ref = np.linalg.norm(f[:, 2])
        assert np.linalg.norm(s2 * h[:, 0] - f[:, 2]) < 1e-8 * ref

    def test_wrong_r_rejected(self):
        rng = random.Random(20)
        triple = fl.random_flag_triple(3, rng)
        r = self.cube_root(triple, 3)
        bad = al.group_add(r, al.cylinder(0.31, 0.0))
        with pytest.raises(ValueError):
            fl.compatible_triple(triple, bad)

    def test_stacked_bases_are_the_single_triple_bases(self):
        """g is adapted_basis(triple) bit for bit, and f, h are the bases of
        the two rotations scaled as the docstring says."""
        rng = random.Random(22)
        for d in range(2, 9):
            t1, t2, t3 = triple = fl.random_flag_triple(d, rng)
            r = self.cube_root(triple, d)
            f, g, h = fl.compatible_triple(triple, r)
            s2 = fl.exp_value(r) ** 2
            g0, f0, h0 = (fl.adapted_basis(t) for t in (triple, (t3, t1, t2), (t2, t3, t1)))
            assert np.array_equal(g, g0)
            assert np.array_equal(f, f0 * (fl._vector_ratio(g0[:, d - 1], f0[:, 0]) / s2))
            assert np.array_equal(h, h0 * (s2 * fl._vector_ratio(g0[:, 0], h0[:, d - 1])))

    def test_degenerate_triple_in_a_stack_raises(self):
        rng = random.Random(23)
        for d in (2, 3, 5, 8):
            good = fl.random_flag_triple(d, rng)
            bad = (good[0], good[1], good[0])
            for at in range(3):
                stack = [good, good]
                stack.insert(at, bad)
                with pytest.raises(fl.DegenerateFlagError):
                    fl._adapted_bases(stack)
            assert fl._adapted_bases([good, good]).shape == (2, d, d)


class TestStackedCalls:
    """Each family of small matrices is one LAPACK call, whatever d is."""

    def test_unipotent_fixing_takes_one_qr(self, lapack_calls):
        for d in (2, 5, 8):
            f1, f2, f3 = fl.random_flag_triple(d, random.Random(d))
            lapack_calls.clear()
            fl.unipotent_fixing(f2, f1, f3)
            assert (lapack_calls["qr"], lapack_calls["svd"]) == (1, 0)

    def test_compatible_triple_takes_two_svds(self, lapack_calls):
        for d in (2, 5, 8):
            triple = fl.random_flag_triple(d, random.Random(d))
            r = TestCompatibleTriple.cube_root(triple, d)
            lapack_calls.clear()
            fl.compatible_triple(triple, r)
            assert lapack_calls["svd"] == 2

    def test_guarded_triple_keeps_every_minor(self, lapack_calls):
        # the guard of random_flag_triple fills the triple's minor table, so
        # every ratio, the log sum and the cube-root check are lookups
        d = 8
        triple = fl.random_flag_triple(d, random.Random(8))
        lapack_calls.clear()
        for j in al.index_tables(d).B:
            fl.triple_ratio(triple, j)
        total = fl.log_ratio_sum(triple, d)
        fl.compatible_triple(triple, al.cylinder(total.value[0] / 3.0, total.value[1] / 3.0))
        assert lapack_calls["det"] == 0

    def test_one_off_ratio_takes_six_minors(self, lapack_calls):
        # unitary flags: a gaussian 64 x 64 matrix fails Flag's dependence test
        rng = np.random.default_rng(64)
        triple = [fl.Flag(np.linalg.qr(rng.standard_normal((64, 64)))[0]) for _ in range(3)]
        lapack_calls.clear()
        fl.triple_ratio(triple, (1, 1, 62))
        assert lapack_calls.shapes["det"] == [(6, 64, 64)]

    def test_log_ratio_sum_stacks_distinct_minors(self, lapack_calls):
        rng = random.Random(8)
        triple = [fl.random_flag(8, rng) for _ in range(3)]
        lapack_calls.clear()
        fl.log_ratio_sum(triple, 8)
        assert lapack_calls.shapes["det"] == [(42, 8, 8)]
        # 6|B| = 126 minors, each kept once
        assert len(triple[0]._memo["minors", triple[1], triple[2]]) == 42

    def test_kept_minors_match_fresh_flags(self):
        # a lookup returns the bits a fresh computation would
        for d in (3, 5, 8):
            triple = fl.random_flag_triple(d, random.Random(d))
            for j in al.index_tables(d).B:
                fresh = [fl.Flag(f.mat) for f in triple]
                assert fl.triple_ratio(triple, j) == fl.triple_ratio(fresh, j)
            fresh = [fl.Flag(f.mat) for f in triple]
            assert fl.log_ratio_sum(triple, d) == fl.log_ratio_sum(fresh, d)


class TestProjectiveInvariance:
    def test_fifty_transforms(self):
        rng = random.Random(21)
        d = 4
        tables = al.index_tables(d)
        f1, f2, f3 = fl.random_flag_triple(d, rng)
        h2 = fl.random_flag(d, rng)
        base_t = {j: fl.triple_ratio((f1, f2, f3), j) for j in tables.B}
        base_d = {i: fl.double_ratio(f1, f2, f3, h2, i) for i in tables.A}
        for _ in range(50):
            q = fl.random_flag(d, rng).mat
            scales = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
            if any(abs(s) < 1e-3 for s in scales):
                continue
            moved = [fl.Flag(q @ f.mat * s) for f, s in
                     zip((f1, f2, f3, h2), scales)]
            for j, val in base_t.items():
                got = fl.triple_ratio(moved[:3], j)
                assert abs(got - val) <= 1e-8 * max(1.0, abs(val))
            for i, val in base_d.items():
                got = fl.double_ratio(*moved, i)
                assert abs(got - val) <= 1e-8 * max(1.0, abs(val))


class TestCompleteness:
    def test_equal_ratios_imply_explicit_equivalence(self):
        rng = random.Random(22)
        for d in (2, 3, 4):
            triple = fl.random_flag_triple(d, rng)
            q = fl.random_flag(d, rng).mat
            moved = tuple(fl.Flag(q @ f.mat) for f in triple)
            for j in al.index_tables(d).B:
                a = fl.triple_ratio(triple, j)
                b = fl.triple_ratio(moved, j)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
            m = fl.adapted_basis(moved) @ np.linalg.inv(fl.adapted_basis(triple))
            for f, g in zip(triple, moved):
                for k in range(1, d):
                    assert subspaces_match(m @ f.cols(k), g.cols(k), 1e-6)


class TestSerialization:
    def test_flag_roundtrip(self):
        rng = random.Random(23)
        f = fl.random_flag(4, rng)
        back = fl.Flag(io.matrix_from_json(io.matrix_to_json(f.mat)))
        assert np.allclose(back.mat, f.mat, atol=0.0)

    def test_column_major_shape(self):
        f = fl.Flag([[1, 3], [2, 4]])
        doc = io.matrix_to_json(f.mat)
        assert doc == [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [4.0, 0.0]]]

    def test_matrix_roundtrip_complex(self):
        m = np.array([[1 + 2j, 3 - 1j], [0.5j, -2.0 + 0j]])
        assert np.allclose(io.matrix_from_json(io.matrix_to_json(m)), m, atol=0.0)
