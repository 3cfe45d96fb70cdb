"""chart: coordinate points on the committed genus-4 track, in-process.

One op charts one point: `random_free`, `i2_inverse`, `is_member`,
`tor_prime`, `i2_forward`, then the ledger `total_mid_log` against
`closed_form_total`, plus one `homology.solve_tree` on balanced (v, w).
The chart, the ledger and the tree solver do almost all the work, over many
points on one tree, so caching tree-derived data shows here.  Fixture search
and numpy are never called.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

from switchyard import algebra as al
from switchyard import cocyclic as cc
from switchyard import homology as hm
from switchyard import slither as sl
from switchyard import traintrack as tt

TRACK_FILE = Path(__file__).resolve().parent.parent / "data" / "g4_track.json"

# Points rotate through these (group, d); the cylinder at d=6 is the slow tail.
MIX = [("cylinder", d) for d in (2, 3, 4, 5, 6)] + [("zd:12", d) for d in (2, 3, 4, 6)]

# Tolerances of the acceptance battery: exact over zd:<n>, 1e-9 otherwise.
FLOAT_TOL = 1e-9
MEMBER_TOL = 1e-7


@dataclass(frozen=True)
class Point:
    kind: str
    d: int
    k: int            # torsion residue handed to i2_inverse
    expect_k: int     # residue the oracle expects tor_prime to return
    point_seed: int   # seeds random_free inside the op
    v: Dict[int, hm.GA]
    w: Dict[int, hm.GA]


def load_track(path: Path) -> Tuple[tt.TrainTrack, tt.OrientedTree]:
    """Load the committed track and tree, checking the census identities."""
    track, tree = tt.track_from_json(json.loads(path.read_text()))
    g = track.genus
    census = {
        "switches": (len(track.switch_ids), 12 * g - 12),
        "rectangles": (len(track.rects), 18 * g - 18),
        "plaques": (len(track.plaques), 4 * g - 4),
        "tree edges": (len(tree.edges) if tree else -1, 12 * g - 13),
    }
    bad = [f"{k} {got} != {want}" for k, (got, want) in census.items() if got != want]
    if bad:
        raise ValueError(f"{path.name}: census identities fail: {', '.join(bad)}")
    if not tt.classify(tree).u_right:
        raise ValueError(f"{path.name}: stored tree has no right-exiting unorientable rectangle")
    return track, tree


class Workload:
    ROUND_CYCLES = 5   # a multiple of run.PARTS
    RSS_OF_CHILDREN = False

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed = seed
        self.track, self.tree = load_track(TRACK_FILE)
        self.lifts = tt.orientation_cover(self.tree)
        self.anchors = {d: cc.default_anchors(self.tree, d) for d in {d for _, d in MIX}}
        self.free_rects = sorted(set(r.id for r in self.track.rects) - self.tree.edges)
        start = seed % len(MIX)
        self.mix = MIX[start:] + MIX[:start]

    def _point(self, kind: str, d: int, stream: int) -> Point:
        rng = random.Random(self.seed * 1_000_003 + stream)
        k = rng.randrange(al.torsion_order(kind, d))
        v = {rid: hm.ga_random(kind, d, rng) for rid in self.free_rects}
        w = {s: hm.ga_random(kind, d, rng) for s in self.track.switch_ids}
        t_star = self.track.switch_ids[0]
        w[t_star] = hm.ga_zero(kind, d)
        w[t_star] = hm.balance_defect(self.tree, v, w, kind, d)
        return Point(kind, d, k, k, rng.getrandbits(63), v, w)

    def warmup(self) -> List[Point]:
        return [self._point(kind, d, -1 - n) for n, (kind, d) in enumerate(self.mix)]

    def inputs(self, cycle: int) -> List[Point]:
        n = len(self.mix)
        return [self._point(kind, d, cycle * n + i) for i, (kind, d) in enumerate(self.mix)]

    def run(self, p: Point, rec):
        tree, anchors = self.tree, self.anchors[p.d]
        eps = al.torsion_element(p.kind, p.d, p.k)
        free = rec.call("cocyclic.random_free", cc.random_free,
                        tree, p.d, p.kind, random.Random(p.point_seed), anchors)
        c = rec.call("cocyclic.i2_inverse", cc.i2_inverse, tree, free, eps, anchors)
        member = rec.call("cocyclic.is_member", cc.is_member, tree, c, MEMBER_TOL)
        tor = rec.call("cocyclic.tor_prime", cc.tor_prime, tree, c, anchors)
        back, back_eps = rec.call("cocyclic.i2_forward", cc.i2_forward, tree, c, anchors)
        total = rec.call("slither.total_mid_log", sl.total_mid_log, tree, c)
        closed = rec.call("slither.closed_form_total", sl.closed_form_total, tree, c)
        u = rec.call("homology.solve_tree", hm.solve_tree, self.lifts, p.v, p.w, p.kind, p.d)
        return free, member, tor, back, back_eps, total, closed, u

    def check(self, p: Point, out) -> List[str]:
        free, member, tor, back, back_eps, total, closed, u = out
        tol = 0.0 if p.kind.startswith("zd:") else FLOAT_TOL
        eps = al.torsion_element(p.kind, p.d, p.expect_k)
        bad = []
        if not member:
            bad.append("is_member rejected the i2_inverse point")
        if not _free_equal(free, back, tol) or not al.elements_equal(back_eps.value, eps, tol):
            bad.append("i2_forward roundtrip lost the free slots or epsilon")
        if not al.elements_equal(tor.value, eps, tol):
            bad.append(f"tor_prime is not epsilon (residue {p.expect_k})")
        if not al.elements_equal(total, closed, FLOAT_TOL):
            bad.append("ledger total differs from the closed form")
        if not al.elements_equal(sl.ob_from_product(total, p.d).value,
                                 sl.to_cylinder(tor.value), FLOAT_TOL):
            bad.append("negated ledger total differs from tor_prime")
        resid = hm.boundary(self.lifts, hm.beta(self.lifts, u, p.v, p.kind, p.d)).sub(
            hm.delta(self.tree, p.w, p.kind, p.d))
        if not resid.is_zero(FLOAT_TOL):
            bad.append("solve_tree boundary residual is not zero")
        return bad

    def close(self) -> None:
        pass


def off_by_one(p: Point) -> Point:
    return replace(p, expect_k=(p.expect_k + 1) % al.torsion_order(p.kind, p.d))


def _free_equal(a: cc.FreeCoords, b: cc.FreeCoords, tol: float) -> bool:
    if (set(a.v_other) != set(b.v_other) or set(a.v_anchor) != set(b.v_anchor)
            or set(a.z_other) != set(b.z_other) or set(a.z_anchor) != set(b.z_anchor)):
        return False
    pairs = [(x, y) for r in a.v_other for x, y in zip(a.v_other[r], b.v_other[r])]
    pairs += [(a.v_anchor[i], b.v_anchor[i]) for i in a.v_anchor]
    pairs += [(a.z_other[t][j], b.z_other[t][j]) for t in a.z_other for j in a.z_other[t]]
    pairs += [(a.z_anchor[j], b.z_anchor[j]) for j in a.z_anchor]
    return all(al.elements_equal(x, y, tol) for x, y in pairs)
