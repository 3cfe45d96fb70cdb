"""Bit-exact outputs of the chart, the ledger and the tree solver on one tree.

The digests pin every float to its `float.hex`: a change to how a sum is
evaluated must leave each output bit-identical, not merely close.
"""
import hashlib
import json
import random
from pathlib import Path

from switchyard import cocyclic as cc
from switchyard import homology as hm
from switchyard import io
from switchyard import slither as sl
from switchyard.traintrack import maximal_tree, orientation_cover

DATA = Path(__file__).parent / "data"

CASES = [("cylinder", 3), ("cylinder", 6), ("cylinder", 8), ("zd:12", 6), ("real", 5),
         ("circle", 4)]
# long rows: at d = 32 the inverse's rows run to 484 terms
LONG_CASES = [("cylinder", 32), ("zd:12", 16)]

SAMPLE_DIGEST = "ea77bf14c0aeca3a626a370422dc962b5cc99a64016cabf2a901d15d2b0d259a"
FULL_DIGEST = "cf899cb5c1947c68e9e51fa34315a89cda4cffe851ce6c671ca97b848644b7a4"
LONG_DIGEST = "a7b96ad8bc20ecd4305386c8410cd6252f32f0afcfd654a0f2aed6073983f2fd"


def bits(e) -> str:
    """The exact value of an element: each float part's `float.hex`, or the residue."""
    parts = e.value if isinstance(e.value, tuple) else (e.value,)
    return e.kind + ":" + ",".join(x.hex() if isinstance(x, float) else str(x) for x in parts)


def free_bits(free) -> list:
    out = [bits(e) for r in sorted(free.v_other) for e in free.v_other[r]]
    out += [bits(free.v_anchor[i]) for i in sorted(free.v_anchor)]
    out += [bits(free.z_other[p][j]) for p in sorted(free.z_other) for j in sorted(free.z_other[p])]
    return out + [bits(free.z_anchor[j]) for j in sorted(free.z_anchor)]


def digests(cases=CASES):
    (track, _), _ = io.load(DATA / "track_g2_s1.json", io.track_from_json)
    tree = cc.ensure_right_unorientable(maximal_tree(track, seed=1))
    lifts = orientation_cover(tree)
    rects = sorted(set(r.id for r in track.rects) - tree.edges)
    sample, full = hashlib.sha256(), hashlib.sha256()
    for kind, d in cases:
        rng = random.Random(5)
        for _ in range(2):
            c = cc.sample_y(tree, d, kind, rng)
            doc = json.dumps(io.coords_to_json(c), sort_keys=True).encode()
            sample.update(doc)
            full.update(doc)
            free, eps = cc.i2_forward(tree, c)
            outs = [bits(cc.tor_prime(tree, c).value), bits(sl.total_mid_log(tree, c)),
                    bits(sl.closed_form_total(tree, c)), bits(eps.value)] + free_bits(free)
            full.update(";".join(outs).encode())
        v = {r: hm.ga_random(kind, d, rng) for r in rects}
        w = {s: hm.ga_random(kind, d, rng) for s in track.switch_ids}
        w[track.switch_ids[0]] = hm.ga_zero(kind, d)
        w[track.switch_ids[0]] = hm.balance_defect(tree, v, w, kind, d)
        u = hm.solve_tree(lifts, v, w, kind, d)
        full.update(";".join(bits(e) for r in sorted(u) for e in u[r]).encode())
    return sample.hexdigest(), full.hexdigest()


def test_chart_outputs_are_bit_identical():
    assert digests() == (SAMPLE_DIGEST, FULL_DIGEST)


def test_long_rows_are_bit_identical():
    assert digests(LONG_CASES)[1] == LONG_DIGEST
