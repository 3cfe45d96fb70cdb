"""cli: the `switchyard` command line, one child process per op.

A pipeline runs `gen-fixture --genus 2`, `tree`, `sample-y`, `torsion`,
`corfinal`, `ob --clock-shift` and `flags` on matrices made from the seed,
with d and group from the same mix as the chart workload.  One op is one
command, run as `python -m switchyard.cli` with PYTHONPATH=src, one process
at a time.  This is the per-process latency users pay: interpreter start-up
and imports dominate, and the chart layer runs cold, one point per process,
so work moved into per-tree set-up shows here as a cost.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

MIX = [("cylinder", d) for d in (2, 3, 4, 5, 6)] + [("zd:12", d) for d in (2, 3, 4, 6)]
FLAG_DS = (3, 4, 5, 6, 7, 8)
COMMAND_TIMEOUT_S = 60


@dataclass(frozen=True)
class Command:
    name: str
    argv: Tuple[str, ...]
    expect_residue: Optional[int] = None   # checked against the report's residue


def _matrices_doc(d: int, rng: random.Random) -> dict:
    """Three random complex d x d matrices, column-major [re, im] entries."""
    return {"matrices": [[[[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(d)]
                          for _ in range(d)] for _ in range(3)]}


class Workload:
    # peak_rss_mb is the largest child process's
    ROUND_CYCLES = 5   # a multiple of run.PARTS
    RSS_OF_CHILDREN = True

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-cli-", dir=root))

    def warmup(self) -> List[Command]:
        return [Command("ob", ("--d", "3", "--json", "ob", "--clock-shift"))]

    def inputs(self, cycle: int) -> List[Command]:
        """One pipeline; writes the matrices file the `flags` command reads."""
        rng = random.Random(self.seed * 1_000_003 + cycle)
        kind, d = MIX[(self.seed + cycle) % len(MIX)]
        flag_d = FLAG_DS[(self.seed + cycle) % len(FLAG_DS)]
        fixture_seed = str(rng.randrange(1, 1_000_000))
        k = rng.randrange(d)
        w = self.work
        track, tree, pts, mats = (str(w / f) for f in ("track.json", "tree.json",
                                                        "pts.json", "mats.json"))
        (w / "mats.json").write_text(json.dumps(_matrices_doc(flag_d, rng)))
        point = ("--seed", fixture_seed, "--d", str(d), "--group", kind, "--json")
        return [
            Command("gen-fixture", ("--seed", fixture_seed, "--json", "gen-fixture",
                                    "--genus", "2", "--out", track)),
            Command("tree", ("--seed", fixture_seed, "--json", "tree", track, "--out", tree)),
            Command("sample-y", point + ("sample-y", tree, "--count", "2",
                                         "--torsion", str(k), "--out", pts)),
            Command("torsion", point + ("torsion", tree, pts), expect_residue=k),
            Command("corfinal", point + ("corfinal", tree, pts)),
            Command("ob", ("--d", str(d), "--json", "ob", "--clock-shift")),
            Command("flags", ("--json", "flags", mats)),
        ]

    def run(self, cmd: Command, rec):
        proc = rec.call(f"cli.{cmd.name}", subprocess.run,
                        [sys.executable, "-m", "switchyard.cli", *cmd.argv],
                        cwd=self.work, env=self.env, capture_output=True, text=True,
                        timeout=COMMAND_TIMEOUT_S)
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            report = None
        if isinstance(report, dict) and isinstance(report.get("wall_time_ms"), (int, float)):
            rec.tag(work_ms=float(report["wall_time_ms"]))
        return proc, report

    def check(self, cmd: Command, out) -> List[str]:
        proc, report = out
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return [f"{cmd.name}: exit code {proc.returncode} {tail[0]}"]
        if not isinstance(report, dict):
            return [f"{cmd.name}: no JSON report on stdout"]
        bad = []
        if report.get("ok") is not True:
            bad.append(f"{cmd.name}: report says ok={report.get('ok')}")
        if report.get("command") != cmd.name:
            bad.append(f"{cmd.name}: report is for {report.get('command')}")
        if cmd.expect_residue is not None:
            got = report.get("values", {}).get("residue")
            if got != cmd.expect_residue:
                bad.append(f"{cmd.name}: residue {got} != requested {cmd.expect_residue}")
        return bad

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def off_by_one(cmd: Command) -> Command:
    if cmd.expect_residue is None:
        return cmd
    return replace(cmd, expect_residue=cmd.expect_residue + 1)
