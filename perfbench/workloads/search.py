"""search: fixture search and the tree pipeline on its result, in-process.

One op is `generate_fixture(g, s)` followed by `maximal_tree`, `validate`,
`classify`, `boundary_walk` and `orientation_cover` on the result.  The
traintrack search does almost all the work, and its heavy tail (seeds whose
search restarts after hitting the node cap, such as g=4 seed 3) is kept in.

The cost of one seed ranges over three orders of magnitude, so a window of
seeds that moved with the workload seed would make throughput depend on which
seeds it happened to cover.  Each genus therefore uses a fixed window of
contiguous seeds; the workload seed picks where in the window the walk
starts, wrapping round, and every round covers the whole window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List

from switchyard import traintrack as tt

# (genus, window size).  g=4 seeds 1..16 include seed 3, whose search
# restarts after hitting the node cap.  They make a sixth of the ops, so p90
# falls among the g=4 ops of half a second to a second, where op times are
# dense and steadier than in the sparse tail of the g=3 ops.
WINDOWS = ((3, 84), (4, 16))
TINY_WINDOWS = ((3, 3), (4, 1))


@dataclass(frozen=True)
class Search:
    genus: int
    seed: int
    expect_genus: int


class Workload:
    # A round is the whole window, cut into this many cycles (a multiple of
    # run.PARTS), so that every round runs each seed once.
    ROUND_CYCLES = 10
    RSS_OF_CHILDREN = False

    def __init__(self, root: Path, seed: int, tiny: bool):
        runs = []
        for genus, size in (TINY_WINDOWS if tiny else WINDOWS):
            seeds = [1 + (seed - 1 + n) % size for n in range(size)]
            # spread each genus evenly over the window
            runs += [((n + 0.5) / size, Search(genus, s, genus)) for n, s in enumerate(seeds)]
        self.window = [op for _, op in sorted(runs, key=lambda pair: pair[0])]

    def warmup(self) -> List[Search]:
        # A process's first few searches run slow; with one warm-up op, which
        # ops were cold moved the run's median by 10%.
        return [Search(g, s, g) for g, s in ((3, 1), (3, 2), (3, 3), (3, 4), (4, 1))]

    def inputs(self, cycle: int) -> List[Search]:
        k, n = cycle % self.ROUND_CYCLES, len(self.window)
        return self.window[k * n // self.ROUND_CYCLES:(k + 1) * n // self.ROUND_CYCLES]

    def run(self, op: Search, rec):
        track = rec.call("traintrack.generate_fixture", tt.generate_fixture, op.genus, op.seed)
        tree = rec.call("traintrack.maximal_tree", tt.maximal_tree, track, seed=op.seed)
        report = rec.call("traintrack.validate", tt.validate, track)
        cls = rec.call("traintrack.classify", tt.classify, tree)
        walk = rec.call("traintrack.boundary_walk", tt.boundary_walk, tree)
        rec.call("traintrack.orientation_cover", tt.orientation_cover, tree)
        return track, tree, report, cls, walk

    def check(self, op: Search, out) -> List[str]:
        track, tree, report, cls, walk = out
        g = op.expect_genus
        census = {
            "switches": (len(track.switch_ids), 12 * g - 12),
            "rectangles": (len(track.rects), 18 * g - 18),
            "plaques": (len(track.plaques), 4 * g - 4),
            "tree edges": (len(tree.edges), 12 * g - 13),
            "free rectangles": (len(cls.orientable) + len(cls.unorientable), 6 * g - 5),
            "right crossings": (len(cls.e_right), 1 + len(cls.s_right)),
        }
        bad = [f"{k} {got} != {want}" for k, (got, want) in census.items() if got != want]
        if (len(cls.unorientable) + len(cls.s_right)) % 2:
            bad.append("sign parity is odd")
        if not report.valid:
            bad.append(f"validate rejected the track: {report.errors}")
        if not walk:
            bad.append("boundary walk is empty")
        return bad

    def close(self) -> None:
        pass


def off_by_one(op: Search) -> Search:
    return replace(op, expect_genus=op.expect_genus + 1)
