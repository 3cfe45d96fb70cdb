"""Build a trivalent track fixture, pick a maximal tree, and read the census.

The counts below are forced by the genus: 12g-12 switches, 18g-18
rectangles, 4g-4 triangular plaques, and a spanning tree with 12g-13 edges.
On each tree the solver `homology.solve_tree` then solves one seeded,
balanced problem; the demo exits non-zero unless its boundary residual is zero.
"""

import random

from switchyard import cocyclic as cc
from switchyard import homology as hm
from switchyard import traintrack as tt

for g in (2, 3):
    track = tt.generate_fixture(g, seed=1 if g == 2 else 2)
    print(f"genus {g}: switches={len(track.switch_ids)} "
          f"rectangles={len(track.rects)} plaques={len(track.plaques)}")

    tree = cc.ensure_right_unorientable(tt.maximal_tree(track, seed=1))
    cls = tt.classify(tree)
    print(f"  tree edges={len(tree.edges)} root={tree.root}")
    print(f"  free rectangles: orientable={len(cls.orientable)} "
          f"u_left={len(cls.u_left)} u_right={len(cls.u_right)}")
    print(f"  tree rectangles: s_left={len(cls.s_left)} s_right={len(cls.s_right)} "
          f"e_left={len(cls.e_left)} e_right={len(cls.e_right)}")

    # two structural identities that hold for every tree and orientation
    assert len(cls.e_right) == 1 + len(cls.s_right)
    assert (len(cls.unorientable) + len(cls.s_right)) % 2 == 0
    print("  crossing count and parity identities hold")

    # the tree solver at d=3 over the cylinder: w at one switch is chosen to
    # balance random (v, w), so the boundary of the solution is delta(w)
    kind, d, rng = "cylinder", 3, random.Random(g)
    lifts = tt.orientation_cover(tree)
    v = {r.id: hm.ga_random(kind, d, rng) for r in track.rects if r.id not in tree.edges}
    w = {s: hm.ga_random(kind, d, rng) for s in track.switch_ids}
    w[track.switch_ids[0]] = hm.ga_zero(kind, d)
    w[track.switch_ids[0]] = hm.balance_defect(tree, v, w, kind, d)
    u = hm.solve_tree(lifts, v, w, kind, d)
    resid = hm.boundary(lifts, hm.beta(lifts, u, v, kind, d)).sub(hm.delta(tree, w, kind, d))
    if not resid.is_zero(1e-9):
        raise SystemExit(f"genus {g}: solve_tree boundary residual is not zero")
    print(f"  tree solver: {len(u)} edges solved, boundary residual zero to 1e-9")
