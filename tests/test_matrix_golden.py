"""Pinned outputs of the numpy layer: flag invariants and the obstruction.

The digest pins every float to its `float.hex`: triple ratios, double ratios,
log-ratio sums, the seeded flags themselves and `ob` of the three builders
must stay bit-identical when their minors or relator products are evaluated
differently.  The digest holds for one numpy/LAPACK build on one CPU family,
whose kernels fix the rounding of every determinant.  Bases and unipotent
matrices are compared within a bound against outputs stored from the
earlier one-matrix-per-call evaluation (`data/matrix_outputs.json`).
"""
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

from switchyard import algebra as al
from switchyard import flags as fl
from switchyard import obstruction as obs

DATA = Path(__file__).parent / "data" / "matrix_outputs.json"

DIGEST = "04915bfca07a2305591de910b8341ccbc327fef1bbd59d2ee42dd5a6516ad61d"

# Largest entry-wise difference from the stored outputs, relative to the
# largest entry of the stored matrix.  Forming each adapted-basis column from
# a triangular product instead of a leading block moves the compatible bases
# by at most 1.0e-13 over 360 seeded triples at d = 3..8.  Taking the
# unipotent system's annihilators from one complete QR instead of one SVD per
# carried subspace moves the unipotent matrices by at most 1.1e-12 from the
# SVD ones over 360 seeded triples (random.Random(43), 60 per d = 3..8),
# rounding scaled by the condition number of the solve; on the stored triples
# it is at most 6.2e-14, against 1.1e-13 for the SVD rows.
BASIS_RTOL = 2e-13


def cbits(z) -> str:
    z = complex(z)
    return z.real.hex() + "," + z.imag.hex()


def ebits(e) -> str:
    return e.kind + ":" + ",".join(x.hex() if isinstance(x, float) else str(x)
                                   for x in e.value)


def digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(41)
    for d in range(2, 9):
        tables = al.index_tables(d)
        for _ in range(2):
            triple = fl.random_flag_triple(d, rng)
            h2 = fl.random_flag(d, rng)
            outs = [cbits(z) for f in (*triple, h2) for z in f.mat.flat]
            outs += [cbits(fl.triple_ratio(triple, j)) for j in tables.B]
            outs += [cbits(fl.double_ratio(*triple, h2, i)) for i in tables.A]
            outs.append(ebits(fl.log_ratio_sum(triple, d)))
            h.update(";".join(outs).encode())
    # lift_independence on the octagon stops at d = 4: at d = 5 a rotated
    # relator product is no longer scalar to 1e-6 and `ob` raises
    reps = [(obs.clock_shift_rep(d), True) for d in range(2, 9)]
    reps += [(obs.diagonal_rep(d, 2, random.Random(d)), True) for d in range(2, 9)]
    reps += [(obs.fuchsian_octagon(d), d <= 4) for d in range(2, 6)]
    for rep, lift in reps:
        v = obs.ob(rep)
        outs = [ebits(v.value), str(v.residue), v.residual.hex()]
        if lift:
            outs.append(str(obs.lift_independence(rep, random.Random(rep.d))))
        h.update(";".join(outs).encode())
    return h.hexdigest()


def matrix_outputs() -> dict:
    """compatible_triple and unipotent_fixing on two seeded triples per d."""
    rng = random.Random(43)
    out = {}
    for d in range(3, 9):
        for n in range(2):
            triple = fl.random_flag_triple(d, rng)
            total = fl.log_ratio_sum(triple, d)
            r = al.cylinder(total.value[0] / 3.0, total.value[1] / 3.0)
            f1, f2, f3 = triple
            mats = [*fl.compatible_triple(triple, r), fl.unipotent_fixing(f2, f1, f3)]
            out[f"{d}/{n}"] = [[[z.real, z.imag] for z in m.flat] for m in mats]
    return out


def test_invariants_are_bit_identical():
    assert digest() == DIGEST


def test_bases_and_unipotents_match_stored_outputs():
    stored = json.loads(DATA.read_text())
    got = matrix_outputs()
    assert got.keys() == stored.keys()
    worst = 0.0
    for key, mats in got.items():
        for m, ref in zip(mats, stored[key]):
            a, b = np.array(m), np.array(ref)
            worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(b)))
    assert worst <= BASIS_RTOL


if __name__ == "__main__":
    # python tests/test_matrix_golden.py write: store the current outputs
    if sys.argv[1:] == ["write"]:
        DATA.write_text(json.dumps(matrix_outputs()) + "\n")
    print(digest())
