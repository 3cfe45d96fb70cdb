import json
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchyard
from switchyard import algebra as al
from switchyard import cocyclic as cc
from switchyard import obstruction as obs
from switchyard import io
from switchyard import traintrack as tt

from conftest import as_member

TRACK_G2 = str(Path(__file__).parent / "data" / "track_g2_s1.json")  # no stored tree
TRACK_G3 = str(Path(__file__).parent / "data" / "track_g3_s2.json")  # no stored tree


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, run_cli):
    base = tmp_path_factory.mktemp("cli")
    r = run_cli(["--seed", "5", "gen-fixture", "--genus", "2",
                 "--out", str(base / "track.json")])
    assert r.exit_code == 0, r.output
    r = run_cli(["--seed", "5", "tree", str(base / "track.json"),
                 "--out", str(base / "tree.json")])
    assert r.exit_code == 0, r.output
    r = run_cli(["--seed", "5", "--d", "3", "sample-y", str(base / "tree.json"),
                 "--count", "2", "--torsion", "1", "--out", str(base / "pts.json")])
    assert r.exit_code == 0, r.output
    return base


class TestValidate:
    def test_valid_fixture_exits_zero(self, run_cli, workdir):
        r = run_cli(["validate", str(workdir / "track.json")])
        assert r.exit_code == 0
        assert "check structure: pass" in r.output
        assert "switches: 12" in r.output

    def test_malformed_json_exits_two_with_location(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"genus": 2, "switches": [')
        r = run_cli(["validate", str(bad)])
        assert r.exit_code == 2
        assert "line 1" in r.stderr

    def test_missing_file_exits_two(self, run_cli, tmp_path):
        r = run_cli(["validate", str(tmp_path / "nope.json")])
        assert r.exit_code == 2

    @pytest.mark.parametrize("command", ["validate", "tree"])
    def test_track_without_rectangles_names_the_key(self, run_cli, workdir, tmp_path, command):
        doc = json.loads((workdir / "track.json").read_text())
        del doc["rectangles"]
        bad = tmp_path / "no_rectangles.json"
        bad.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "out.json")] if command == "tree" else []
        for path in (bad, workdir / "pts.json"):  # a points file has no rectangles either
            r = run_cli([command, str(path), *out])
            assert isinstance(r.exception, SystemExit), r.exception
            assert r.exit_code == 2
            assert r.stderr == f"input error: {path}: missing key 'rectangles'\n"

    def test_genus_mismatch_exits_one(self, run_cli, workdir, tmp_path):
        doc = json.loads((workdir / "track.json").read_text())
        doc["genus"] = 3
        bad = tmp_path / "wrong_genus.json"
        bad.write_text(json.dumps(doc))
        r = run_cli(["validate", str(bad)])
        assert r.exit_code == 1
        assert "check structure: FAIL" in r.output


def _mutate_track(doc, mutation):
    if mutation == "bogus port":
        doc["rectangles"][0]["end0"]["port"] = "bogus"
    elif mutation == "wrong genus":
        doc["genus"] = 3
    elif mutation == "dropped rectangle":
        doc["rectangles"].pop()
    elif mutation == "duplicate rectangle id":
        doc["rectangles"][1]["id"] = doc["rectangles"][0]["id"]
    else:
        doc["genus"] = "abc"
    return doc


class TestMalformedTrack:
    MUTATIONS = ["bogus port", "wrong genus", "dropped rectangle", "non-integer genus",
                 "duplicate rectangle id"]

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("command", ["validate", "tree", "sample-y", "torsion", "corfinal"])
    def test_exit_code_without_traceback(self, run_cli, workdir, tmp_path, mutation, command):
        doc = _mutate_track(json.loads((workdir / "track.json").read_text()), mutation)
        bad = tmp_path / "mutated.json"
        bad.write_text(json.dumps(doc))
        out = str(tmp_path / "out.json")
        args = {
            "validate": ["validate", str(bad)],
            "tree": ["tree", str(bad), "--out", out],
            "sample-y": ["sample-y", str(bad), "--out", out],
            "torsion": ["torsion", str(bad), str(workdir / "pts.json")],
            "corfinal": ["corfinal", str(bad), str(workdir / "pts.json")],
        }[command]
        r = run_cli(args)
        assert isinstance(r.exception, SystemExit), r.exception
        if command == "validate" and mutation != "non-integer genus":
            assert r.exit_code == 1
            assert "check structure: FAIL" in r.output
        else:
            assert r.exit_code == 2
            assert r.stderr.startswith("input error:")

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_validate_tree_file_like_track_file(self, run_cli, workdir, tmp_path, mutation):
        """The stored tree is built only on a valid track, so it cannot turn a
        structural defect into an input error."""
        codes = []
        for name in ("track.json", "tree.json"):
            bad = tmp_path / name
            bad.write_text(json.dumps(_mutate_track(json.loads((workdir / name).read_text()),
                                                    mutation)))
            r = run_cli(["validate", str(bad)])
            assert isinstance(r.exception, SystemExit), r.exception
            codes.append(r.exit_code)
        assert codes[0] == codes[1] == (2 if mutation == "non-integer genus" else 1)


def _read(workdir, name):
    return json.loads((workdir / name).read_text())


def _put(doc, path, value):
    """Set ``doc[path[0]][path[1]]...`` to ``value``; returns ``doc``."""
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


def _pair_slot_renamed(workdir, new):
    doc = _read(workdir, "pts.json")
    v = doc["points"][0]["coords"]["v"]
    slots = v[next(iter(v))]
    slots[new] = slots.pop("2")  # d=3: pair slots are "1" and "2"
    return doc


def _matrices(*sizes):
    rng = random.Random(len(sizes))
    return {"matrices": [[[[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(d)]
                          for _ in range(d)] for d in sizes]}


COORDS_ARGS = ["torsion", "TREE", "BAD"]
MALFORMED = {
    "coords pair slot 5 at d=3": (COORDS_ARGS, lambda w: _pair_slot_renamed(w, "5")),
    "coords pair slot 0": (COORDS_ARGS, lambda w: _pair_slot_renamed(w, "0")),
    "coords d 1": (COORDS_ARGS, lambda w: _put(_read(w, "pts.json"),
                                               ("points", 0, "coords", "d"), 1)),
    "points is an object": (COORDS_ARGS, lambda w: _put(
        _read(w, "pts.json"), ("points",), {"0": _read(w, "pts.json")["points"][0]})),
    "flags matrix entry [1.0]": (["flags", "BAD"], lambda w: _put(
        _matrices(3, 3, 3), ("matrices", 0, 0, 0), [1.0])),
    "ob matrix entry [1.0]": (["ob", "BAD"], lambda w: _put(
        io.rep_to_json(obs.clock_shift_rep(3)), ("matrices", "a1", 0, 0), [1.0])),
    "flags non-square matrix": (["flags", "BAD"], lambda w: _put(
        _matrices(3, 3, 3), ("matrices", 0), _matrices(3)["matrices"][0][:2])),
    "flags empty matrix": (["flags", "BAD"], lambda w: _put(
        _matrices(3, 3, 3), ("matrices", 0), [])),
    "flags matrix sizes 3 3 4": (["flags", "BAD"], lambda w: _matrices(3, 3, 4)),
    "flags matrix size 1": (["flags", "BAD"], lambda w: _matrices(1, 1, 1)),
    "flags matrix size 65": (["flags", "BAD"], lambda w: _matrices(65, 65, 65)),
    "tree root_bit 7": (["classify", "BAD"], lambda w: _put(
        _read(w, "tree.json"), ("tree", "root_bit"), 7)),
    "rep d 1": (["ob", "BAD"], lambda w: {
        "d": 1, "genus": 2, "matrices": {n: [[[1.0, 0.0]]] for n in ("a1", "b1", "a2", "b2")}}),
    # refused on the size before any entry is decoded, not on a determinant
    "rep d 3 of 200x200 matrices": (["ob", "BAD"], lambda w: {
        "d": 3, "genus": 2, "matrices": dict.fromkeys(("a1", "b1", "a2", "b2"),
                                                      [[[0.5, 0.25]] * 200] * 200)},
        "matrix size 200 does not match declared d=3"),
    "genus 2.7": (["validate", "BAD"], lambda w: _put(_read(w, "track.json"), ("genus",), 2.7)),
    "points seed 5.0": (COORDS_ARGS, lambda w: _put(_read(w, "pts.json"), ("seed",), 5.0)),
    "points seed '5'": (COORDS_ARGS, lambda w: _put(_read(w, "pts.json"), ("seed",), "5")),
    "points count 99": (COORDS_ARGS, lambda w: _put(_read(w, "pts.json"), ("count",), 99)),
    "second point torsion 'x'": (COORDS_ARGS, lambda w: _put(
        _read(w, "pts.json"), ("points", 1, "torsion"), "x")),
    "second point coords d 1": (COORDS_ARGS, lambda w: _put(
        _read(w, "pts.json"), ("points", 1, "coords"), {"d": 1})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two(run_cli, workdir, tmp_path, case):
    """Each document here gave a traceback, a math-failure exit or a silent
    exit 0 before the decoders checked types, ranges and slot keys."""
    args, build, *message = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(build(workdir)))
    subst = {"BAD": str(bad), "TREE": str(workdir / "tree.json")}
    r = run_cli([subst.get(a, a) for a in args])
    assert isinstance(r.exception, SystemExit), r.exception
    assert r.exit_code == 2, r.output
    assert r.stderr.startswith("input error:")
    assert all(m in r.stderr for m in message), r.stderr


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("args", [["torsion", "TREE", "PTS"], ["ob", "--clock-shift"]])
def test_tolerance_outside_range_exits_two(run_cli, workdir, tolerance, args):
    """nan failed every check, -1 failed valid input and inf passed anything."""
    subst = {"PTS": str(workdir / "pts.json"), "TREE": str(workdir / "tree.json")}
    r = run_cli(["--tolerance", tolerance, *[subst.get(a, a) for a in args]])
    assert isinstance(r.exception, SystemExit), r.exception
    assert r.exit_code == 2, r.output
    assert r.stderr.startswith("input error: tolerance")


# global options, valid and not: abbreviations and unknown names are usage errors
GLOBALS = [["--seed", "3"], ["--seed", "-2"], ["--seed", "x"], ["--seed"], ["--d", "2"],
           ["--d", "4"], ["--d", "1"], ["--d", "65"], ["--d", "x"], ["--group", "zd:12"],
           ["--group", "real"], ["--group", "quaternion"], ["--tolerance", "1e-6"],
           ["--tolerance", "-1"], ["--tolerance", "nan"], ["--json"], ["--se", "1"],
           ["--tol", "1e-3"], ["--bogus"]]
# per command: argument lists with good, bad, missing, extra and abbreviated entries
COMMAND_ARGS = {
    "validate": [["TRACK"], ["TREE"], [], ["TRACK", "TREE"], ["NOPE"]],
    "gen-fixture": [["--genus", "2", "--out", "OUT"], ["--genus", "1", "--out", "OUT"],
                    ["--genus", "x", "--out", "OUT"], ["--gen", "2", "--out", "OUT"],
                    ["--genus", "2"], ["--genus", str(tt.MAX_GENUS + 1), "--out", "OUT"]],
    "tree": [["TRACK", "--out", "OUT"], ["TRACK"], ["--out", "OUT"]],
    "classify": [["TREE"], ["TRACK"], []],
    "sample-y": [["TREE", "--out", "OUT"], ["TREE", "--count", "2", "--torsion", "1",
                                              "--out", "OUT"],
                 ["TREE", "--count", "-1", "--out", "OUT"],
                 ["TREE", "--torsion", "9", "--out", "OUT"], ["TREE", "--cou", "2", "--out", "OUT"],
                 ["TREE"]],
    "torsion": [["TREE", "PTS"], ["TRACK", "PTS"], ["TREE"], ["TREE", "PTS", "--json"]],
    "corfinal": [["TREE", "PTS"], ["TRACK", "PTS"], ["PTS", "TREE"], []],
    "ob": [["--clock-shift"], ["--identity"], [], ["--clock-shift", "--identity"], ["--clock"],
           ["MATS"]],
    "flags": [["MATS"], ["MATS", "--which", "double"], ["MATS", "--which", "quad"],
              ["MATS", "--index", "1,1,1"], ["MATS", "--ind", "1,1,1"], []],
    "selftest": [[], ["--seed", "1"]],
    "nosuch": [[]],
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_argv_keeps_exit_code_contract(run_cli, workdir, tmp_path_factory, data):
    """Any command line exits 0, 1 or 2 without a traceback, and a usage or
    input error prints nothing on stdout."""
    mats = workdir / "argv_mats.json"
    mats.write_text(json.dumps(_matrices(3, 3, 3)))
    subst = {"TRACK": str(workdir / "track.json"), "TREE": str(workdir / "tree.json"),
             "PTS": str(workdir / "pts.json"), "MATS": str(mats),
             "NOPE": str(workdir / "nope.json"),
             "OUT": str(tmp_path_factory.mktemp("argv") / "out.json")}
    argv = [a for opt in data.draw(st.lists(st.sampled_from(GLOBALS), max_size=2)) for a in opt]
    name = data.draw(st.sampled_from(sorted(COMMAND_ARGS) + [None]), label="command")
    if name is not None:
        argv += [name, *data.draw(st.sampled_from(COMMAND_ARGS[name]), label="args")]
    r = run_cli([subst.get(a, a) for a in argv])
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code in (0, 1, 2)
    assert "Traceback" not in r.output
    if r.exit_code == 2:
        assert r.stdout == ""
        assert r.stderr.startswith(("usage: switchyard", "input error:")), r.stderr


class TestOneCheckPerPoint:
    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_command_checks_its_point_once(self, run_cli, workdir, tmp_path, member_checks,
                                           command):
        doc = _read(workdir, "pts.json")
        doc["points"], doc["count"] = doc["points"][:1], 1
        one = tmp_path / "one.json"
        one.write_text(json.dumps(doc))
        r = run_cli([command, str(workdir / "tree.json"), str(one)])
        assert r.exit_code == 0, r.output
        assert len(member_checks) == 1

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_command_checks_every_point_once(self, run_cli, workdir, member_checks, command):
        count = _read(workdir, "pts.json")["count"]
        assert count == 2
        r = run_cli([command, str(workdir / "tree.json"), str(workdir / "pts.json")])
        assert r.exit_code == 0, r.output
        assert len(member_checks) == count

    def test_sample_y_checks_each_point_once(self, run_cli, workdir, tmp_path, member_checks):
        r = run_cli(["--seed", "5", "--d", "4", "sample-y", str(workdir / "tree.json"),
                     "--count", "3", "--out", str(tmp_path / "pts.json")])
        assert r.exit_code == 0, r.output
        assert len(member_checks) == 3


class TestFixtureAndTree:
    def test_gen_fixture_rejects_small_genus(self, run_cli, tmp_path):
        r = run_cli(["gen-fixture", "--genus", "1",
                     "--out", str(tmp_path / "x.json")])
        assert r.exit_code == 2

    @pytest.mark.parametrize("genus", [tt.MAX_GENUS + 1, 10**9])
    def test_gen_fixture_rejects_genus_above_bound(self, run_cli, tmp_path, genus):
        r = run_cli(["gen-fixture", "--genus", str(genus), "--out", str(tmp_path / "x.json")])
        assert r.exit_code == 2
        assert r.stderr == f"input error: genus {genus} outside 2..{tt.MAX_GENUS}\n"
        assert not (tmp_path / "x.json").exists()

    def test_tree_reports_edge_count(self, run_cli, workdir):
        r = run_cli(["validate", str(workdir / "tree.json")])
        assert r.exit_code == 0
        assert "tree edges: 11" in r.output

    def test_classify_counts(self, run_cli, workdir):
        r = run_cli(["--json", "classify", str(workdir / "tree.json")])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert all(c["pass"] for c in doc["checks"])
        vals = doc["values"]
        free = vals["orientable"] + vals["u_left"] + vals["u_right"]
        assert free == 7

    def test_tree_edge_off_the_track_is_named(self, run_cli, workdir, tmp_path):
        doc = json.loads((workdir / "tree.json").read_text())
        doc["tree"]["edges"][0] = 999
        bad = tmp_path / "bad_edge.json"
        bad.write_text(json.dumps(doc))
        r = run_cli(["classify", str(bad)])
        assert isinstance(r.exception, SystemExit), r.exception
        assert r.exit_code == 2
        assert r.stderr == f"input error: {bad}: edges [999] are not rectangles\n"

    def test_classify_needs_tree(self, run_cli, workdir):
        r = run_cli(["classify", str(workdir / "track.json")])
        assert r.exit_code == 2


class TestSampleAndTorsion:
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_refused(self, run_cli, workdir, tmp_path, count):
        # `torsion` and `corfinal` refuse a file without points
        out = tmp_path / "empty.json"
        r = run_cli(["sample-y", str(workdir / "tree.json"), "--count", count,
                     "--out", str(out)])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert r.stderr == f"input error: count {count} < 1\n"
        assert not out.exists()

    # (global options, sample-y options): the real group reaches only residue 0, and
    # zd:12 at d = 8 only the even residues
    LABELLED = [(["--d", "3", "--group", "real"], ["--count", "3"]),
                (["--d", "8", "--group", "zd:12"], ["--count", "3"]),
                (["--d", "8", "--group", "zd:12"], ["--torsion", "6"]),
                (["--d", "3", "--group", "real"], ["--torsion", "0"]),
                (["--d", "4", "--group", "cylinder"], ["--count", "3"]),
                (["--d", "4", "--group", "cylinder"], ["--torsion", "3"])]

    @pytest.mark.parametrize("opts,args", LABELLED)
    def test_each_label_is_the_residue_torsion_reads(self, run_cli, workdir, tmp_path,
                                                     opts, args):
        out = tmp_path / "pts.json"
        r = run_cli(["--seed", "5", *opts, "sample-y", str(workdir / "tree.json"), *args,
                     "--out", str(out)])
        assert r.exit_code == 0, r.output
        doc = json.loads(out.read_text())
        if "--torsion" in args:
            assert {p["torsion"] for p in doc["points"]} == {int(args[1])}
        for n, point in enumerate(doc["points"]):
            one = tmp_path / f"one{n}.json"
            one.write_text(json.dumps(dict(doc, count=1, points=[point])))
            r = run_cli(["--json", "torsion", str(workdir / "tree.json"), str(one)])
            assert r.exit_code == 0, r.output
            assert json.loads(r.output)["values"]["residue"] == point["torsion"], (opts, n)

    @pytest.mark.parametrize("d", ["2", "3", "6"])
    def test_zd_ledger_and_closed_form_agree_exactly(self, run_cli, workdir, tmp_path, d):
        # over zd:12 both totals are integer sums, embedded in the cylinder once
        out = tmp_path / "zd.json"
        r = run_cli(["--seed", "5", "--d", d, "--group", "zd:12", "sample-y",
                     str(workdir / "tree.json"), "--count", "2", "--out", str(out)])
        assert r.exit_code == 0, r.output
        r = run_cli(["--json", "corfinal", str(workdir / "tree.json"), str(out)])
        assert r.exit_code == 0, r.output
        checks = {c["name"]: c for c in json.loads(r.output)["checks"]}
        assert checks["ledger vs closed form"]["residual"] == 0.0

    @pytest.mark.parametrize("opts,k,reachable", [
        (["--d", "3", "--group", "real"], "2", "0"),
        (["--d", "8", "--group", "zd:12"], "1", "0, 2, 4, 6"),
        (["--d", "8", "--group", "zd:12"], "5", "0, 2, 4, 6")])
    def test_unreachable_torsion_residue_is_refused(self, run_cli, workdir, tmp_path, opts, k,
                                                    reachable):
        out = tmp_path / "x.json"
        r = run_cli([*opts, "sample-y", str(workdir / "tree.json"), "--torsion", k,
                     "--out", str(out)])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert r.stderr == (f"input error: torsion residue {k} is not reached by group "
                            f"{opts[3]} at d={opts[1]}; reachable residues: {reachable}\n")
        assert not out.exists()

    @pytest.mark.parametrize("as_json", [False, True])
    def test_single_sided_tree_fails_the_anchors_check_at_d4(self, run_cli, tmp_path, as_json):
        # seed 36's fixture under tree seed 2: every plaque exits on one side
        track, tree = tmp_path / "t.json", tmp_path / "tt.json"
        assert run_cli(["--seed", "36", "gen-fixture", "--genus", "2", "--out", str(track)]).exit_code == 0
        assert run_cli(["--seed", "2", "tree", str(track), "--out", str(tree)]).exit_code == 0
        r = run_cli(["--d", "4", *(["--json"] if as_json else []), "sample-y", str(tree),
                     "--out", str(tmp_path / "p.json")])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert "Traceback" not in r.output and r.stderr == ""
        error = "every plaque is single-sided; no valid anchor for d=4"
        if as_json:
            doc = json.loads(r.output)
            assert doc["checks"] == [{"name": "anchors", "pass": False, "residual": None}]
            assert doc["values"] == {"error": error}
        else:
            assert "check anchors: FAIL" in r.output and f"error: {error}" in r.output
        assert not (tmp_path / "p.json").exists()

    def test_bad_torsion_residue_rejected(self, run_cli, workdir, tmp_path):
        r = run_cli(["--d", "3", "sample-y", str(workdir / "tree.json"),
                     "--torsion", "3", "--out", str(tmp_path / "x.json")])
        assert r.exit_code == 2

    def test_bad_group_rejected(self, run_cli, workdir, tmp_path):
        r = run_cli(["--group", "quaternion", "sample-y",
                     str(workdir / "tree.json"),
                     "--out", str(tmp_path / "x.json")])
        assert r.exit_code == 2

    def test_bad_cyclic_modulus_rejected(self, run_cli, workdir, tmp_path):
        for tag in ("zd:abc", "zd:+3", "zd: 3", "zd:03", "zd:\u0663"):
            r = run_cli(["--group", tag, "sample-y",
                         str(workdir / "tree.json"),
                         "--out", str(tmp_path / "x.json")])
            assert r.exit_code == 2, tag
            assert isinstance(r.exception, SystemExit)
            assert r.stderr.startswith("input error:")

    @pytest.mark.parametrize("args", [["sample-y", "TREE", "--out", "OUT"],
                                      ["ob", "--clock-shift"], ["ob", "--identity"]])
    @pytest.mark.parametrize("d", ["1", "65"])
    def test_d_outside_range_rejected(self, run_cli, workdir, tmp_path, args, d):
        subst = {"TREE": str(workdir / "tree.json"), "OUT": str(tmp_path / "x.json")}
        r = run_cli(["--d", d, *(subst.get(a, a) for a in args)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.stderr == f"input error: d {d} outside 2..64\n"

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    @pytest.mark.parametrize("shift,tolerance", [(5e-8, None), (1e-5, "1e-4")])
    def test_near_tolerance_point_fails_cleanly(self, run_cli, workdir, tmp_path,
                                                command, shift, tolerance):
        """A point inside the CLI's membership tolerance but off the exact chart
        is reported, passing or failing, never with a traceback."""
        doc = json.loads((workdir / "pts.json").read_text())
        coords = doc["points"][0]["coords"]
        switch = next(iter(coords["z"]))
        slot = next(iter(coords["z"][switch]))
        coords["z"][switch][slot][0] += shift
        bad = tmp_path / "near.json"
        bad.write_text(json.dumps(coords))
        opts = [] if tolerance is None else ["--tolerance", tolerance]
        r = run_cli([*opts, command, str(workdir / "tree.json"), str(bad)])
        assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code in (0, 1) and "Traceback" not in r.output

    def test_near_tolerance_point_is_measured_by_the_lattice_rule(self, run_cli, workdir,
                                                                  tmp_path):
        # 5e-8 on one z real part: tor' is 5e-8 from the lattice, inside the member
        # tolerance, so `torsion` passes; the ledger and the closed form then differ
        # by 1e-7, above the default tolerance, so `corfinal` fails
        doc = json.loads((workdir / "pts.json").read_text())
        coords = doc["points"][0]["coords"]
        z = coords["z"][next(iter(coords["z"]))]
        z[next(iter(z))][0] += 5e-8
        near = tmp_path / "near.json"
        near.write_text(json.dumps(coords))
        r = run_cli(["torsion", str(workdir / "tree.json"), str(near)])
        assert r.exit_code == 0 and r.exception is None, r.output
        assert "check torsion lattice: pass residual=5e-08\n" in r.stdout
        assert "FAIL" not in r.output
        r = run_cli(["corfinal", str(workdir / "tree.json"), str(near)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
        assert "check ledger vs closed form: FAIL residual=1e-07\n" in r.stdout
        assert "error: residual 1e-07 is above the tolerance 1e-09\n" in r.stdout
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_huge_finite_point_fails_cleanly(self, run_cli, workdir, tmp_path, command):
        """Finite values that the decoder accepts but whose sums overflow a float
        fail the membership check, never raise out of the command."""
        doc = json.loads((workdir / "pts.json").read_text())
        for vec in doc["points"][0]["coords"]["v"].values():
            for value in vec.values():
                value[0] = 1e308
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        r = run_cli([command, str(workdir / "tree.json"), str(big)])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 1
        assert "check membership: FAIL" in r.output
        assert "error: balance equation overflows at pair index" in r.output

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_coords_missing_switch_exits_two(self, run_cli, workdir, tmp_path, command):
        doc = json.loads((workdir / "pts.json").read_text())
        del doc["points"][0]["coords"]["z"]["0"]
        bad = tmp_path / "missing_switch.json"
        bad.write_text(json.dumps(doc))
        r = run_cli([command, str(workdir / "tree.json"), str(bad)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.stderr.startswith("input error:")
        assert "missing [0]" in r.stderr

    def test_coords_missing_triple_index_exits_two(self, run_cli, workdir, tmp_path):
        doc = json.loads((workdir / "pts.json").read_text())
        slots = doc["points"][0]["coords"]["z"]["0"]
        del slots[next(iter(slots))]
        bad = tmp_path / "missing_triple.json"
        bad.write_text(json.dumps(doc))
        r = run_cli(["torsion", str(workdir / "tree.json"), str(bad)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "switch 0 does not carry" in r.stderr

    def test_torsion_residue_matches_request(self, run_cli, workdir):
        r = run_cli(["--json", "torsion", str(workdir / "tree.json"),
                     str(workdir / "pts.json")])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["values"]["residue"] == 1
        assert all(c["pass"] for c in doc["checks"])

    def test_non_member_exits_one(self, run_cli, workdir, tmp_path):
        doc = json.loads((workdir / "pts.json").read_text())
        coords = doc["points"][0]["coords"]
        rect = next(iter(coords["v"]))
        slot = next(iter(coords["v"][rect]))
        coords["v"][rect][slot][0] += 0.75
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(coords))
        r = run_cli(["torsion", str(workdir / "tree.json"), str(bad)])
        assert r.exit_code == 1
        assert "membership: FAIL" in r.output


@pytest.fixture(scope="module")
def off_chart(tmp_path_factory, run_cli, workdir):
    """A three-point file on the workdir tree, its point 1 moved 0.5 off the chart, beside
    the unmoved `pts.json`."""
    base = tmp_path_factory.mktemp("every")
    r = run_cli(["--seed", "5", "--d", "3", "sample-y", str(workdir / "tree.json"),
                 "--count", "3", "--out", str(base / "pts.json")])
    assert r.exit_code == 0, r.output
    doc = json.loads((base / "pts.json").read_text())
    z = doc["points"][1]["coords"]["z"]
    z[next(iter(z))]["1,1,1"][0] += 0.5
    (base / "off.json").write_text(json.dumps(doc))
    return base / "off.json"


class TestEveryPointGated:
    """A points file is gated point by point: a later point off the chart fails
    the membership check by its index, as the first point would."""

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_later_point_off_the_chart_exits_one(self, run_cli, workdir, off_chart, command):
        r = run_cli([command, str(workdir / "tree.json"), str(off_chart)])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 1, r.output
        assert "check membership: FAIL" in r.stdout
        assert "error: point 1: " in r.stdout
        assert "Traceback" not in r.output


class TestEveryPointChecked:
    """Each point of a points file is checked whole: a later point that breaks only
    the rotation relations, or whose `torsion` label is not its residue, fails by
    its index."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory, run_cli, workdir):
        base, tree = tmp_path_factory.mktemp("checked"), str(workdir / "tree.json")
        for d, count in (("4", "2"), ("3", "3")):
            r = run_cli(["--seed", "5", "--d", d, "sample-y", tree, "--count", count,
                         "--torsion", "1", "--out", str(base / f"d{d}.json")])
            assert r.exit_code == 0, r.output
        # (1, 1, 2) and (2, 1, 1) share the middle index every balance sum filters on
        doc = json.loads((base / "d4.json").read_text())
        z = doc["points"][1]["coords"]["z"]
        s = z[next(iter(z))]
        s["1,1,2"][0] += 0.5
        s["2,1,1"][0] -= 0.5
        (base / "rotation.json").write_text(json.dumps(doc))
        doc = json.loads((base / "d3.json").read_text())
        assert doc["points"][2]["torsion"] == 1
        doc["points"][2]["torsion"] = 2
        (base / "label.json").write_text(json.dumps(doc))
        return base

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_rotation_only_violation_of_a_later_point_exits_one(self, run_cli, workdir,
                                                                files, command):
        r = run_cli(["--d", "4", command, str(workdir / "tree.json"),
                     str(files / "rotation.json")])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 1, r.output
        assert "check membership: FAIL" in r.stdout
        assert "error: point 1: rotation relations fail\n" in r.stdout
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_wrong_label_of_a_later_point_exits_one(self, run_cli, workdir, files, command):
        r = run_cli([command, str(workdir / "tree.json"), str(files / "label.json")])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 1, r.output
        assert "check torsion labels: FAIL" in r.stdout
        assert "error: point 2: torsion label 2 is not the residue 1 of tor_prime\n" in r.stdout
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_honest_labels_add_no_report_line(self, run_cli, workdir, files, command):
        r = run_cli([command, str(workdir / "tree.json"), str(files / "d3.json")])
        assert r.exit_code == 0, r.output
        assert "label" not in r.stdout

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_failing_tor_prime_of_a_later_point_names_it(self, run_cli, workdir, monkeypatch,
                                                          command):
        real, calls = cc.tor_prime, []

        def tor_prime(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise ValueError("tor_prime failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(cc, "tor_prime", tor_prime)
        r = run_cli([command, str(workdir / "tree.json"), str(workdir / "pts.json")])
        assert r.exit_code == 1, r.output
        assert "error: point 1: tor_prime failed\n" in r.stdout
        assert "Traceback" not in r.output

    def test_failing_gate_of_a_later_sampled_point_names_it(self, run_cli, workdir, tmp_path,
                                                            monkeypatch):
        real, calls = cc._gate, []

        def gate(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise cc.MembershipError("gate failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(cc, "_gate", gate)
        r = run_cli(["--seed", "5", "sample-y", str(workdir / "tree.json"), "--count", "3",
                     "--out", str(tmp_path / "pts.json")])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 1, r.output
        assert "check membership: FAIL\n" in r.stdout
        assert "error: point 1: gate failed\n" in r.stdout
        assert "Traceback" not in r.output
        assert not (tmp_path / "pts.json").exists()

    def test_sample_y_stops_at_the_first_point_off_its_torsion(self, run_cli, workdir, tmp_path,
                                                               monkeypatch):
        # point 1's tor′ reads 1e-6 off its ε: the torsion check fails there, by its
        # index, and no points file is written
        real, calls = cc.tor_prime, []

        def tor_prime(*args, **kwargs):
            tor = real(*args, **kwargs)
            calls.append(args)
            if len(calls) != 2:
                return tor
            return types.SimpleNamespace(value=al.group_add(
                tor.value, al.GroupElement("cylinder", (1e-6, 0.0))))

        monkeypatch.setattr(cc, "tor_prime", tor_prime)
        out = tmp_path / "pts.json"
        r = run_cli(["--seed", "5", "sample-y", str(workdir / "tree.json"), "--count", "3",
                     "--out", str(out)])
        assert r.exit_code == 1, r.output
        assert len(calls) == 2
        assert "check torsion: FAIL residual=1e-06\n" in r.stdout
        assert "error: point 1: residual 1e-06 is above the tolerance 1e-07\n" in r.stdout
        assert "Traceback" not in r.output
        assert not out.exists()


class TestOneTorsionRule:
    """tor′ is d-torsion when its `algebra.snap_torsion` distance is within the
    tolerance the CLI passes, and `torsion` and `corfinal` run every check on every
    point, each reporting its worst residual over the file."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory, workdir):
        base = tmp_path_factory.mktemp("rule")
        # every z angle of point 0 turned by 1e-7: tor' is 4e-7 from the lattice,
        # 3 * tor' 1.2e-6 from zero
        doc = json.loads((workdir / "pts.json").read_text())
        for vec in doc["points"][0]["coords"]["z"].values():
            for value in vec.values():
                value[1] += 1e-7
        (base / "turned.json").write_text(json.dumps(doc))
        # point 1's first z real part moved by 5e-8: a member whose ledger is off
        doc = json.loads((workdir / "pts.json").read_text())
        z = doc["points"][1]["coords"]["z"]
        s = z[next(iter(z))]
        s[next(iter(s))][0] += 5e-8
        (base / "later.json").write_text(json.dumps(doc))
        return base

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_torsion_is_checked_at_the_tolerance_passed(self, run_cli, workdir, files,
                                                        command):
        r = run_cli(["--tolerance", "1e-5", command, str(workdir / "tree.json"),
                     str(files / "turned.json")])
        assert r.exit_code == 0 and r.exception is None, r.output
        assert "FAIL" not in r.output
        if command == "torsion":
            assert "check torsion lattice: pass residual=4e-07\n" in r.stdout
            assert "residue: 1\n" in r.stdout
        # at the default tolerance the turned point is not a member
        r = run_cli([command, str(workdir / "tree.json"), str(files / "turned.json")])
        assert r.exit_code == 1, r.output
        assert "check membership: FAIL" in r.stdout and "Traceback" not in r.output

    def test_a_later_point_fails_the_ledger_by_its_index(self, run_cli, workdir, files):
        r = run_cli(["corfinal", str(workdir / "tree.json"), str(files / "later.json")])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 1, r.output
        assert "check ledger vs closed form: FAIL residual=1e-07\n" in r.stdout
        assert "error: point 1: residual 1e-07 is above the tolerance 1e-09\n" in r.stdout
        assert "Traceback" not in r.output

    def test_torsion_reports_the_worst_residual_of_the_file(self, run_cli, workdir, files):
        # point 0's tor' is on the lattice to rounding, point 1's 5e-8 off it; the
        # values printed are point 0's
        r = run_cli(["torsion", str(workdir / "tree.json"), str(files / "later.json")])
        assert r.exit_code == 0, r.output
        assert "check torsion lattice: pass residual=5e-08\n" in r.stdout
        one = run_cli(["torsion", str(workdir / "tree.json"), str(workdir / "pts.json")])
        values = [[line for line in out.stdout.splitlines()
                   if line.startswith(("tor_prime: ", "residue: "))] for out in (one, r)]
        assert values[0] == values[1] and len(values[0]) == 2

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_every_point_is_measured(self, run_cli, workdir, monkeypatch, command):
        from switchyard import slither as sl

        calls = []
        for mod, name in ((cc, "tor_prime"), (sl, "total_mid_log"), (sl, "closed_form_total")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *args, real=real, name=name, **kwargs:
                                calls.append(name) or real(*args, **kwargs))
        r = run_cli([command, str(workdir / "tree.json"), str(workdir / "pts.json")])
        assert r.exit_code == 0, r.output
        want = ["tor_prime"] if command == "torsion" else [
            "total_mid_log", "tor_prime", "closed_form_total"]
        assert sorted(calls) == sorted(want * 2)


class TestCorfinal:
    def test_sampled_point_passes(self, run_cli, workdir):
        r = run_cli(["corfinal", str(workdir / "tree.json"),
                     str(workdir / "pts.json")])
        assert r.exit_code == 0
        assert "ledger vs closed form: pass" in r.output
        assert "negated total vs tor_prime: pass" in r.output

    def test_corrupted_point_exits_one(self, run_cli, workdir, tmp_path):
        doc = json.loads((workdir / "pts.json").read_text())
        coords = doc["points"][0]["coords"]
        switch = next(iter(coords["z"]))
        slot = next(iter(coords["z"][switch]))
        coords["z"][switch][slot][0] -= 1.25
        bad = tmp_path / "corrupt2.json"
        bad.write_text(json.dumps(coords))
        r = run_cli(["corfinal", str(workdir / "tree.json"), str(bad)])
        assert r.exit_code == 1


class TestPointsBindTree:
    """On a track without a stored tree, a points file's recorded seed picks
    the tree; --seed picks it only for a bare coords document."""

    @pytest.fixture(scope="class")
    def points(self, tmp_path_factory, run_cli):
        out = tmp_path_factory.mktemp("bind") / "pts.json"
        r = run_cli(["--seed", "3", "--d", "3", "sample-y", TRACK_G3,
                     "--torsion", "1", "--out", str(out)])
        assert r.exit_code == 0, r.output
        return out

    def test_torsion_under_another_seed_reads_the_sampled_tree(self, run_cli, points):
        r = run_cli(["--json", "torsion", TRACK_G3, str(points)])
        assert r.exit_code == 0, r.stderr
        doc = json.loads(r.output)
        assert doc["values"]["residue"] == 1
        assert all(c["pass"] for c in doc["checks"])

    def test_corfinal_under_another_seed_reads_the_sampled_tree(self, run_cli, points):
        r = run_cli(["--seed", "8", "corfinal", TRACK_G3, str(points)])
        assert r.exit_code == 0, r.stderr
        assert "FAIL" not in r.output

    def test_bare_coords_use_the_command_seed(self, run_cli, points, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(points.read_text())["points"][0]["coords"]))
        r = run_cli(["--seed", "3", "torsion", TRACK_G3, str(bare)])
        assert r.exit_code == 0, r.stderr
        r = run_cli(["torsion", TRACK_G3, str(bare)])
        assert r.exit_code == 2
        assert "free rectangle ids do not match the track" in r.stderr

    @pytest.mark.parametrize("command", ["torsion", "corfinal"])
    def test_negative_recorded_seed_is_refused(self, run_cli, points, tmp_path, command):
        # a recorded seed of -3 would pick the tree of seed 3, as --seed -3 would
        doc = json.loads(points.read_text())
        doc["seed"] = -3
        neg = tmp_path / "neg.json"
        neg.write_text(json.dumps(doc))
        r = run_cli([command, TRACK_G3, str(neg)])
        assert r.exit_code == 2
        assert (r.stdout, r.stderr) == ("", f"input error: {neg}: seed -3 is outside 0..inf\n")


class TestClosedStdout:
    """A stdout closed before the report is written keeps the report's exit code and
    prints no traceback.  The in-process `run_cli` has no pipe to close, so each run
    is its own process."""

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    @pytest.mark.parametrize("points, code", [("pts", 0), ("off", 1)])
    def test_exit_code_survives_a_closed_stdout(self, workdir, off_chart, as_json, points,
                                                code):
        src = str(Path(switchyard.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        path = off_chart.with_name(f"{points}.json")
        with subprocess.Popen([sys.executable, "-m", "switchyard.cli", *as_json, "torsion",
                               str(workdir / "tree.json"), str(path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == code, err
        assert "Traceback" not in err


def _run_in_fresh_process(code, cwd):
    src = str(Path(switchyard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _main_exits_zero(argvs):
    """Source that runs each argv through ``main`` and requires exit code 0."""
    return "\n".join([
        "import sys",
        "from switchyard.cli import main",
        f"for argv in {argvs!r}:",
        "    try:",
        "        main(argv)",
        "    except SystemExit as done:",
        "        assert done.code == 0, (argv, done.code)",
    ])


# (d, kind, sample seed, rectangle, shift, residue): sampled on TRACK_G2's seed-0 tree,
# the middle v entry of one unorientable rectangle moved by the shift, and the residue
# of its tor′
PARITY_CASES = [(4, "circle", 22, 6, 7e-8, 2), (6, "real", 7, 6, 6.6e-8, 0)]


class TestParityForms:
    """At even d tor′ is the left parity form alone; the right form differs from it by
    the i0 balance equation, which the gate checks (`test_cocyclic`'s
    `test_parity_forms_differ_by_the_i0_balance_row`).  A point moved off that one
    equation is refused below its i0 residual and accepted at it, where tor′ answers."""

    @staticmethod
    def off_chart(tmp_path, d, kind, seed, rect, shift, residue):
        """Write the moved point as a bare coords file; return the tree, the
        decoded point, the file and its i0 balance residual."""
        (track, _), _ = io.load(TRACK_G2, io.track_from_json)
        otree = cc.ensure_right_unorientable(tt.maximal_tree(track, seed=0))
        c = cc.sample_y(otree, d, kind, random.Random(seed))
        mid = al.index_tables(d).i_zero[0] - 1
        v = {r: list(vec) for r, vec in c.v.items()}
        v[rect][mid] = al.group_add(v[rect][mid], al.GroupElement(kind, shift))
        path = tmp_path / "off_chart.json"
        path.write_text(json.dumps(io.coords_to_json(as_member(otree, d, kind, v, c.z))))
        [(point, _)] = io.coords_from_json(json.loads(path.read_text()), otree)
        residual = al.lane_distance(kind, *cc._club_sides(otree, point, al.index_tables(d).i_zero))
        return otree, point, path, residual

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_tor_prime_raises_a_value_error(self, tmp_path, case):
        # below the i0 residual the gate refuses the point at i0
        otree, point, _, residual = self.off_chart(tmp_path, *case)
        i0 = al.index_tables(case[0]).i_zero
        with pytest.raises(cc.MembershipError, match=re.escape(f"fails at pair index {i0}")):
            cc.tor_prime(otree, point, tol=residual / 2)
        assert issubclass(cc.MembershipError, ValueError)

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_torsion_reports_the_failed_check(self, tmp_path, case):
        # the CLI's member tolerance, max(--tolerance, MEMBER_TOL), is under the residual
        _, _, path, residual = self.off_chart(tmp_path, *case)
        assert max(residual / 2, al.MEMBER_TOL) < residual
        argv = ["--tolerance", repr(residual / 2), "torsion", TRACK_G2, str(path)]
        r = _run_in_fresh_process(f"from switchyard.cli import main\nmain({argv!r})", tmp_path)
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr
        assert "check membership: FAIL" in r.stdout
        i0 = al.index_tables(case[0]).i_zero
        assert f"error: balance equation fails at pair index {i0}\n" in r.stdout

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_tor_prime_answers_at_the_residual(self, tmp_path, case):
        otree, point, _, residual = self.off_chart(tmp_path, *case)
        shift, residue = case[4:]
        tor = cc.tor_prime(otree, cc.require_member(otree, point, residual), tol=residual)
        assert isinstance(tor, al.TorsionValue)
        assert tor.residue == residue
        # the moved entry enters the left form once and the i0 equation twice
        assert tor.residual == pytest.approx(shift, rel=1e-6)
        assert residual == pytest.approx(2 * shift, rel=1e-6)

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_torsion_passes_at_the_residual(self, tmp_path, case):
        _, _, path, residual = self.off_chart(tmp_path, *case)
        argv = ["--tolerance", repr(residual), "torsion", TRACK_G2, str(path)]
        r = _run_in_fresh_process(f"from switchyard.cli import main\nmain({argv!r})", tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "check membership: pass" in r.stdout
        assert "check torsion lattice: pass" in r.stdout
        assert f"residue: {case[5]}\n" in r.stdout


# the names of the switchyard modules a process has loaded, as Python source
_LAYERS = "sorted(m[len('switchyard.'):] for m in sys.modules if m.startswith('switchyard.'))"
# source asserting that the process has loaded neither click nor dataclasses
_NO_CLICK = "\nheavy = {'click', 'dataclasses'} & set(sys.modules)\nassert not heavy, heavy"


class TestLeanProcess:
    """Each command imports the layers it runs; only ob, flags and selftest load numpy,
    and no command loads click or dataclasses."""

    def test_chart_commands_leave_numpy_unloaded(self, tmp_path):
        # the chart commands in pipeline order, grouped with the modules loaded
        # once each group has run; sys.modules only grows, so one process
        # checks every group, the bare import first
        groups = [
            ([], ["algebra", "cli", "io"]),
            ([["gen-fixture", "--genus", "2", "--out", "track.json"],
              ["tree", "track.json", "--out", "tree.json"],
              ["validate", "tree.json"],
              ["classify", "tree.json"]], ["algebra", "cli", "io", "traintrack"]),
            ([["sample-y", "tree.json", "--count", "2", "--out", "pts.json"],
              ["torsion", "tree.json", "pts.json"]],
             ["algebra", "cli", "cocyclic", "io", "traintrack"]),
            ([["corfinal", "tree.json", "pts.json"]],
             ["algebra", "cli", "cocyclic", "io", "slither", "traintrack"]),
        ]
        code = "\n".join(
            _main_exits_zero([["--seed", "5", *argv] for argv in argvs])
            + f"\nassert {_LAYERS} == {loaded!r}, {_LAYERS}"
            + "\nassert 'numpy' not in sys.modules, 'numpy loaded'" + _NO_CLICK
            for argvs, loaded in groups)
        r = _run_in_fresh_process(code, tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout.count("command: ") == sum(len(argvs) for argvs, _ in groups)

    @pytest.mark.parametrize("argv", [["ob", "--clock-shift"], ["flags", "mats.json"],
                                      ["selftest"]])
    def test_matrix_command_runs_first_in_a_process(self, tmp_path, argv):
        (tmp_path / "mats.json").write_text(json.dumps(_matrices(3, 3, 3)))
        code = _main_exits_zero([argv]) + "\nassert 'numpy' in sys.modules" + _NO_CLICK
        if argv != ["selftest"]:  # selftest runs every layer
            chart = ["cocyclic", "homology", "slither", "traintrack"]
            code += f"\nassert not set({chart!r}) & set({_LAYERS}), {_LAYERS}"
        r = _run_in_fresh_process(code, tmp_path)
        assert r.returncode == 0, r.stderr
        assert "FAIL" not in r.stdout


class TestOb:
    def test_help_states_the_tolerances_in_use(self, run_cli):
        r = run_cli(["--help"])
        assert r.exit_code == 0
        text = " ".join(r.stdout.split())
        assert f"(default {al.DEFAULT_TOL:g})" in text
        assert "each check uses max(--tolerance, its floor)" in text
        assert (f"{al.DEFAULT_TOL:g} for the ledger, {al.MEMBER_TOL:g} for the chart's "
                f"membership and torsion, {obs.SCALAR_TOL:g} for ob") in text

    def test_clock_shift_builder(self, run_cli):
        r = run_cli(["--json", "--d", "5", "ob", "--clock-shift"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["values"]["residue"] in (1, 4)

    def test_largest_d_accepted(self, run_cli):
        r = run_cli(["--d", "64", "ob", "--clock-shift"])
        assert r.exit_code == 0, r.output

    def test_identity_builder(self, run_cli):
        r = run_cli(["--d", "4", "ob", "--identity"])
        assert r.exit_code == 0
        assert "residue: 0" in r.output

    def test_rep_file_roundtrip(self, run_cli, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(io.rep_to_json(obs.clock_shift_rep(3))))
        r = run_cli(["ob", str(path)])
        assert r.exit_code == 0

    def test_non_scalar_product_exits_one(self, run_cli, tmp_path):
        rng = random.Random(3)
        rel = obs.standard_relator(2)
        mats = {n: np.eye(2, dtype=complex) for n in rel.generators()}
        mats["a1"] = obs.unit_determinant(np.array([[1.0, 2.0], [0.5, 3.0]]))
        mats["b1"] = obs.unit_determinant(np.array([[2.0, 0.0], [1.5, 1.0]]))
        path = tmp_path / "nonscalar.json"
        path.write_text(json.dumps(io.rep_to_json(obs.LiftedRep(rel, 2, mats))))
        r = run_cli(["ob", str(path)])
        assert r.exit_code == 1
        assert "scalar relator product: FAIL" in r.output

    def test_builder_flags_are_exclusive(self, run_cli):
        r = run_cli(["ob", "--clock-shift", "--identity"])
        assert r.exit_code == 2
        r = run_cli(["ob"])
        assert r.exit_code == 2


def _near_scalar_rep():
    """The d=3 genus-2 standard relator, every generator the identity except
    a1 = I + 3e-4 E12 and b1 = I + 3e-4 E21, both exactly unimodular: its relator
    product is 7.35e-8 off a scalar, between DEFAULT_TOL and SCALAR_TOL."""
    rel = obs.standard_relator(2)
    mats = {n: np.eye(3, dtype=complex) for n in rel.generators()}
    mats["a1"][0, 1] = mats["b1"][1, 0] = 3e-4
    return obs.lifted_rep(rel, mats)


def _without_wall_time(text):
    return re.sub(r'wall time: [0-9.]+ ms|"wall_time_ms": [0-9.]+', "", text)


class TestOneToleranceRule:
    """Each check runs at max(--tolerance, its floor), the floor one of DEFAULT_TOL,
    MEMBER_TOL and SCALAR_TOL, so no --tolerance below a floor tightens a check."""

    @pytest.fixture(scope="class")
    def files(self, workdir, tmp_path_factory):
        near = tmp_path_factory.mktemp("near") / "near.json"
        near.write_text(json.dumps(io.rep_to_json(_near_scalar_rep())))
        return {"TREE": str(workdir / "tree.json"), "PTS": str(workdir / "pts.json"),
                "NEAR": str(near)}

    def test_the_near_scalar_rep_lies_between_the_floors(self):
        residual = obs.ob(_near_scalar_rep()).residual
        assert al.DEFAULT_TOL < residual < al.SCALAR_TOL
        assert residual == pytest.approx(7.35e-8, rel=1e-3)

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    @pytest.mark.parametrize("command", [["torsion", "TREE", "PTS"], ["corfinal", "TREE", "PTS"],
                                         ["ob", "--clock-shift"], ["ob", "NEAR"], ["selftest"]])
    def test_restating_the_default_changes_no_report(self, run_cli, files, command, as_json):
        argv = [*as_json, *(files.get(a, a) for a in command)]
        plain, restated = run_cli(argv), run_cli(["--tolerance", "1e-09", *argv])
        assert plain.exit_code == restated.exit_code == 0, restated.output
        assert _without_wall_time(restated.stdout) == _without_wall_time(plain.stdout)

    @pytest.mark.parametrize("command", [["--d", "3", "ob", "--clock-shift"], ["ob", "NEAR"],
                                         ["selftest"]])
    def test_a_tolerance_below_every_floor_fails_no_exact_input(self, run_cli, files, command):
        r = run_cli(["--tolerance", "0", *(files.get(a, a) for a in command)])
        assert r.exit_code == 0, r.output
        assert "FAIL" not in r.stdout


class TestFlags:
    def _power_matrices(self, d):
        rng = random.Random(11)
        mats = []
        for _ in range(3):
            m = np.array([[rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(2)]
                          for _ in range(2)])
            mats.append(obs.symmetric_power(obs.unit_determinant(m), d))
        return mats

    def test_power_triple_has_unit_ratio(self, run_cli, tmp_path):
        path = tmp_path / "mats.json"
        path.write_text(json.dumps(
            {"matrices": [io.matrix_to_json(m) for m in self._power_matrices(4)]}))
        r = run_cli(["--json", "flags", str(path),
                     "--which", "triple", "--index", "1,2,1"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["values"]["value"].startswith("1")
        assert all(c["pass"] for c in doc["checks"])

    def test_degenerate_triple_exits_one(self, run_cli, tmp_path):
        m = np.eye(3)
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"matrices": [io.matrix_to_json(m)] * 3}))
        r = run_cli(["flags", str(path), "--which", "triple"])
        assert r.exit_code == 1

    def test_bad_index_rejected(self, run_cli, tmp_path):
        path = tmp_path / "mats3.json"
        path.write_text(json.dumps(
            {"matrices": [io.matrix_to_json(m) for m in self._power_matrices(3)]}))
        for index in ("1,1,7", "\uff11,\uff11,\uff11", "1,\u0661,1", "+1,1,1"):
            r = run_cli(["flags", str(path), "--index", index])
            assert r.exit_code == 2, index
            assert isinstance(r.exception, SystemExit) and r.stderr.startswith("input error:")


class TestDeterminism:
    def test_sample_files_reproduce_byte_identically(self, run_cli, workdir, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            r = run_cli(["--seed", "9", "--d", "4", "--group", "zd:12",
                         "sample-y", str(workdir / "tree.json"),
                         "--count", "3", "--out", str(out)])
            assert r.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_json_reports_identical_up_to_wall_time(self, run_cli, workdir):
        docs = []
        for _ in range(2):
            r = run_cli(["--json", "--seed", "7", "torsion",
                         str(workdir / "tree.json"), str(workdir / "pts.json")])
            assert r.exit_code == 0
            doc = json.loads(r.output)
            doc.pop("wall_time_ms")
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("command", [["gen-fixture", "--genus", "2"], ["tree", "TRACK"],
                                         ["sample-y", "TREE"]])
    def test_negative_seed_is_refused(self, run_cli, workdir, tmp_path, command):
        # random.Random seeds an int by its absolute value, so -5 would write the
        # bytes of 5; it is refused before any file is written
        paths = {"TRACK": str(workdir / "track.json"), "TREE": str(workdir / "tree.json")}
        out = tmp_path / "neg.json"
        r = run_cli(["--seed", "-5", *(paths.get(a, a) for a in command), "--out", str(out)])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 2
        assert (r.stdout, r.stderr) == ("", "input error: seed -5 < 0\n")
        assert not out.exists()


class TestSelftest:
    def test_selftest_passes(self, run_cli):
        r = run_cli(["--seed", "3", "selftest"])
        assert r.exit_code == 0, r.output
        assert "FAIL" not in r.output

    def test_refused_samples_fail_their_checks(self, run_cli, monkeypatch):
        def gate(*args, **kwargs):
            raise cc.MembershipError("gate failed")

        monkeypatch.setattr(cc, "_gate", gate)
        r = run_cli(["--seed", "3", "selftest"])
        assert isinstance(r.exception, SystemExit), repr(r.exception)
        assert r.exit_code == 1, r.output
        assert "check sample and torsion: FAIL residual=inf\n" in r.stdout
        assert "check boundary product: FAIL residual=inf\n" in r.stdout
        assert "check clock-shift obstruction: pass" in r.stdout
