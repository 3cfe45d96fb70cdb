import cmath
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchyard
from switchyard import algebra as al
from switchyard import flags as fl
from switchyard import io
from switchyard import obstruction as ob


def random_unimodular(rng, scale=1.0):
    m = np.array([[complex(rng.gauss(0, scale), rng.gauss(0, scale)) for _ in range(2)]
                  for _ in range(2)])
    return ob.unit_determinant(m)


class TestRelatorWord:
    def test_standard_genus2(self):
        rel = ob.standard_relator(2)
        assert len(rel) == 8
        assert rel.symbols == (("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1),
                               ("a2", 1), ("b2", 1), ("a2", -1), ("b2", -1))

    def test_each_generator_twice_once_inverted(self):
        for g in (2, 3, 4):
            rel = ob.standard_relator(g)
            assert len(rel) == 4 * g
            assert len(rel.generators()) == 2 * g
            for name in rel.generators():
                exps = [e for n, e in rel.symbols if n == name]
                assert sorted(exps) == [-1, 1]

    def test_invalid_words_rejected(self):
        with pytest.raises(ValueError):
            ob.RelatorWord((("a", 1), ("a", 1)))
        with pytest.raises(ValueError):
            ob.RelatorWord((("a", 1), ("a", -1), ("a", 1)))
        with pytest.raises(ValueError):
            ob.RelatorWord((("a", 2), ("a", -1)))
        with pytest.raises(ValueError):
            ob.standard_relator(1)

    def test_rotation(self):
        rel = ob.standard_relator(2)
        rot = rel.rotated(3)
        assert rot.symbols == rel.symbols[3:] + rel.symbols[:3]
        assert rel.rotated(8).symbols == rel.symbols


class TestLiftedRep:
    def test_determinant_violation_rejected(self):
        rel = ob.standard_relator(2)
        mats = {n: np.eye(3, dtype=complex) for n in rel.generators()}
        mats["a1"] = 2.0 * np.eye(3)
        with pytest.raises(ValueError):
            ob.lifted_rep(rel, mats)

    def test_first_bad_determinant_named(self, lapack_calls):
        # every determinant is one stacked call, and the error names the
        # first generator in relator order whose determinant is off
        rel = ob.standard_relator(2)
        mats = {n: np.eye(3, dtype=complex) for n in rel.generators()}
        mats["b2"] = 2.0 * np.eye(3)
        mats["b1"] = 3.0 * np.eye(3)
        with pytest.raises(ValueError, match="matrix for b1 does not"):
            ob.lifted_rep(rel, mats)
        assert lapack_calls.shapes["det"] == [(4, 3, 3)]

    def test_non_finite_generator_named(self, lapack_calls):
        # a nan determinant fails no comparison, so a non-finite entry is
        # refused before any determinant is taken, naming its generator
        rel = ob.standard_relator(2)
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            mats = {n: np.eye(2, dtype=complex) for n in rel.generators()}
            mats["a2"] = np.array([[bad, 0], [0, 1]])
            mats["b2"] = 2.0 * np.eye(2)
            with pytest.raises(ValueError, match="^matrix for a2 has a non-finite entry$"):
                ob.lifted_rep(rel, mats)
        assert lapack_calls.shapes["det"] == []

    def test_missing_generator_rejected(self):
        rel = ob.standard_relator(2)
        mats = {n: np.eye(2, dtype=complex) for n in rel.generators() if n != "b2"}
        with pytest.raises(ValueError):
            ob.lifted_rep(rel, mats)


class TestOb:
    def test_identity_rep_is_zero(self):
        for d in (2, 3, 5):
            v = ob.ob(ob.identity_rep(d))
            assert v.residue == 0
            assert al.is_zero(v.value, 0.0)

    def test_non_scalar_product_rejected(self):
        rng = random.Random(1)
        rel = ob.standard_relator(2)
        mats = {n: np.eye(2, dtype=complex) for n in rel.generators()}
        mats["a1"] = random_unimodular(rng)
        mats["b1"] = random_unimodular(rng)
        rep = ob.lifted_rep(rel, mats)
        with pytest.raises(ValueError):
            ob.ob(rep)

    def test_overflowed_product_rejected(self):
        # a unit-determinant entry near the float limit overflows the product
        # to inf, so the off-scalar residual is nan
        mats = dict(ob.clock_shift_rep(3).matrices)
        mats["b1"] = mats["b1"].copy()
        mats["b1"][2, 0] = 1e300
        rep = ob.lifted_rep(ob.standard_relator(2), mats)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not scalar"):
            ob.ob(rep)

    def test_clock_shift_all_d(self):
        for d in range(2, 8):
            rep = ob.clock_shift_rep(d)
            for m in rep.matrices.values():
                assert abs(np.linalg.det(m) - 1.0) < 1e-9
            v = ob.ob(rep)
            assert v.residue in (1, d - 1)
            target = al.torsion_element("cylinder", d, v.residue)
            assert al.elements_equal(v.value, target, 1e-9)
            assert v.residual <= 1e-9

    def test_clock_shift_product_is_root_of_unity(self):
        for d in (2, 3, 4):
            p = ob.clock_shift_rep(d).product()
            s = p[0, 0]
            assert abs(abs(s) - 1.0) < 1e-12
            assert abs(s ** d - 1.0) < 1e-10
            assert np.linalg.norm(p - s * np.eye(d)) < 1e-10

    @staticmethod
    def _phase_snap(s: complex, d: int):
        """Reference snapping of a scalar: nearest d-th root of unity by phase."""
        phase = cmath.phase(s)
        k = round(d * phase / al.TWO_PI) % d
        err = abs((phase - al.TWO_PI * k / d + math.pi) % al.TWO_PI - math.pi)
        return k, max(abs(math.log(abs(s))), err)

    def test_clock_shift_snap_matches_phase_reference(self):
        for d in range(2, 8):
            rep = ob.clock_shift_rep(d)
            p = rep.product()
            s = complex(np.trace(p) / d)
            off = np.linalg.norm(p - s * np.eye(d)) / np.linalg.norm(p)
            k, residual = al.snap_torsion(al.cylinder(math.log(abs(s)), cmath.phase(s)), d)
            k_ref, residual_ref = self._phase_snap(s, d)
            assert k == k_ref
            assert abs(residual - residual_ref) <= 1e-15
            v = ob.ob(rep)
            assert (v.residue, v.residual) == (k, max(residual, off))

    def test_perturbed_scalars_snap_like_phase_reference(self):
        rng = random.Random(6)
        for d in range(2, 9):
            for k in range(d):
                for _ in range(20):
                    s = cmath.exp(complex(rng.uniform(-1e-3, 1e-3),
                                          al.TWO_PI * k / d + rng.uniform(-1e-3, 1e-3)))
                    got = al.snap_torsion(al.cylinder(math.log(abs(s)), cmath.phase(s)), d)
                    ref = self._phase_snap(s, d)
                    assert got[0] == ref[0] == k
                    assert got[1] == pytest.approx(ref[1], rel=1e-9, abs=1e-15)

    def test_d2_clock_shift_is_half_turn(self):
        v = ob.ob(ob.clock_shift_rep(2))
        assert v.residue == 1
        assert al.elements_equal(v.value, al.cylinder(0.0, math.pi), 1e-12)

    def test_ob_value_is_its_lattice_point(self):
        # the value is the lattice point of its residue, built once and kept as is
        assert ob.ObValue._fields == ("value", "residue", "residual")
        for d in range(2, 6):
            v = ob.ob(ob.clock_shift_rep(d))
            assert v.value == al.torsion_element("cylinder", d, v.residue)

    def test_abelian_reps_are_zero(self):
        rng = random.Random(2)
        for d in (2, 3, 5):
            for g in (2, 3):
                v = ob.ob(ob.diagonal_rep(d, g, rng))
                assert v.residue == 0

    def test_conjugation_invariance(self):
        rng = random.Random(3)
        for d in (2, 3, 4):
            rep = ob.clock_shift_rep(d)
            q = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
                          for _ in range(d)])
            qi = np.linalg.inv(q)
            conj = ob.LiftedRep(rep.relator, d,
                                {n: q @ m @ qi for n, m in rep.matrices.items()})
            assert ob.ob(conj).residue == ob.ob(rep).residue

    def test_lift_independence(self):
        rng = random.Random(4)
        assert ob.lift_independence(ob.identity_rep(3), rng)
        for d in (2, 3, 5):
            assert ob.lift_independence(ob.clock_shift_rep(d), rng)
        assert ob.lift_independence(ob.fuchsian_octagon(3), rng)

    def test_non_scalar_variant_raises(self):
        """At d = 5 the octagon's own product is scalar to 1e-6 but a rotated
        one is not: the stacked variants raise rather than return False."""
        rep = ob.fuchsian_octagon(5)
        assert ob.ob(rep).residue == 0
        with pytest.raises(ValueError, match="relator product is not scalar"):
            ob.lift_independence(rep, random.Random(5))

    def test_lift_independence_takes_one_inverse(self, lapack_calls):
        for rep in (ob.clock_shift_rep(3), ob.diagonal_rep(8, 3, random.Random(8))):
            lapack_calls.clear()
            assert ob.lift_independence(rep, random.Random(0))
            assert lapack_calls["inv"] == 1

    def test_explicit_root_rescale_and_rotation(self):
        d = 5
        rep = ob.clock_shift_rep(d)
        base = ob.ob(rep)
        zeta = cmath.exp(2j * math.pi / d)
        mats = dict(rep.matrices)
        mats["a1"] = mats["a1"] * zeta
        assert ob.ob(ob.LiftedRep(rep.relator, d, mats)).residue == base.residue
        assert ob.ob(ob.LiftedRep(rep.relator.rotated(4), d, rep.matrices)).residue == base.residue


class TestSymmetricPower:
    def test_degree_one_is_identity_map(self):
        rng = random.Random(5)
        m = random_unimodular(rng)
        assert np.allclose(ob.symmetric_power(m, 2), m, atol=1e-14)

    def test_diagonal_weights(self):
        a = 1.7 - 0.3j
        m = np.diag([a, 1.0 / a])
        for d in (3, 4, 6):
            got = np.diag(ob.symmetric_power(m, d))
            want = np.array([a ** (d - 1 - 2 * k) for k in range(d)])
            assert np.allclose(got, want, atol=1e-12)

    def test_identity_maps_to_identity(self):
        for d in (2, 5):
            assert np.allclose(ob.symmetric_power(np.eye(2), d), np.eye(d), atol=0.0)

    def test_multiplicativity(self):
        rng = random.Random(6)
        for d in (3, 4, 5, 6):
            for _ in range(10):
                m1, m2 = random_unimodular(rng), random_unimodular(rng)
                lhs = ob.symmetric_power(m1 @ m2, d)
                rhs = ob.symmetric_power(m1, d) @ ob.symmetric_power(m2, d)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_preserves_unit_determinant(self):
        rng = random.Random(7)
        m = random_unimodular(rng)
        for d in (3, 5):
            assert abs(np.linalg.det(ob.symmetric_power(m, d)) - 1.0) < 1e-9

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ob.symmetric_power(2.0 * np.eye(2), 3)
        with pytest.raises(ValueError):
            ob.symmetric_power(np.eye(3), 3)

    def test_power_flags_have_unit_triple_ratios(self):
        rng = random.Random(8)
        for d in (3, 4, 5):
            flags = tuple(fl.Flag(ob.symmetric_power(random_unimodular(rng), d))
                          for _ in range(3))
            for j in al.index_tables(d).B:
                assert abs(fl.triple_ratio(flags, j) - 1.0) <= 1e-8


class TestFuchsianOctagon:
    def test_base_relator_closes(self):
        rep = ob.fuchsian_octagon(2)
        assert np.linalg.norm(rep.product() - np.eye(2)) < 1e-8
        for m in rep.matrices.values():
            assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_symmetric_power_lifts_are_unobstructed(self):
        for d in range(2, ob.OCTAGON_MAX_D + 1):
            v = ob.ob(ob.fuchsian_octagon(d))
            assert v.residue == 0
            assert v.residual <= 1e-6

    def test_precision_failure_is_loud(self):
        for d in (6, 7, 8):
            with pytest.raises(ob.OctagonPrecisionError, match=f"depth {d} exceeds 5"):
                ob.fuchsian_octagon(d)

    def test_residual_check_raises_the_same_error(self, monkeypatch):
        """Past the bound, the relator residual is what fails (1.2e-4 at d=6, 0.18 at d=7)."""
        monkeypatch.setattr(ob, "OCTAGON_MAX_D", 7)
        for d in (6, 7):
            with pytest.raises(ob.OctagonPrecisionError, match="residual degraded"):
                ob.fuchsian_octagon(d)


class TestSerialization:
    def test_roundtrip(self):
        rep = ob.clock_shift_rep(3)
        doc = io.rep_to_json(rep)
        assert doc["d"] == 3 and doc["genus"] == 2
        back = io.rep_from_json(doc)
        assert ob.ob(back).residue == ob.ob(rep).residue
        for name in rep.matrices:
            assert np.allclose(back.matrices[name], rep.matrices[name], atol=0.0)

    def test_size_mismatch_rejected(self):
        doc = io.rep_to_json(ob.clock_shift_rep(3))
        doc["d"] = 4
        with pytest.raises(ValueError):
            io.rep_from_json(doc)

    @pytest.mark.parametrize("rep", [ob.fuchsian_octagon(5), ob.LiftedRep(
        ob.standard_relator(2).rotated(1), 2, ob.clock_shift_rep(2).matrices)])
    def test_a_relator_rep_from_json_does_not_rebuild_is_refused(self, rep):
        # the reader always rebuilds standard_relator(genus), so the file would not
        # read back or would read back as another representation
        with pytest.raises(ValueError, match=r"^relator \S+ .* is not a standard relator"):
            io.rep_to_json(rep)

    def test_nonstandard_names_rejected(self):
        doc = io.rep_to_json(ob.clock_shift_rep(2))
        doc["matrices"]["q7"] = doc["matrices"].pop("a1")
        with pytest.raises(ValueError):
            io.rep_from_json(doc)


def test_import_loads_no_chart_layer():
    code = ("import sys, switchyard.obstruction\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('switchyard.'))\n"
            "assert 'switchyard.cocyclic' not in loaded, loaded\n")
    src = str(Path(switchyard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
