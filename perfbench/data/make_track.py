"""Regenerate g4_track.json, the chart workload's committed track and tree.

The file was made once with the call below and is committed, so that fixture
search never runs inside the chart workload's set-up.  Run from the
repository root:

    PYTHONPATH=src python3 perfbench/data/make_track.py
"""

import json
from pathlib import Path

from switchyard import cocyclic as cc
from switchyard import traintrack as tt

GENUS, FIXTURE_SEED, TREE_SEED = 4, 1, 1


def main() -> None:
    track = tt.generate_fixture(GENUS, FIXTURE_SEED)
    tree = cc.ensure_right_unorientable(tt.maximal_tree(track, seed=TREE_SEED))
    doc = tt.track_to_json(track, tree)
    out = Path(__file__).resolve().parent / "g4_track.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
