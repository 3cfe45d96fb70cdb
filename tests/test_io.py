"""The input boundary: mutated documents keep the CLI's exit-code contract
(0 ok, 1 math failure, 2 input error), flag entries of any finite magnitude
are accepted, and decoding stays numpy-free."""

import copy
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchyard
from switchyard import algebra as al
from switchyard import cocyclic as cc
from switchyard import io
from switchyard import obstruction as obs


@pytest.fixture(scope="module")
def base(tmp_path_factory, run_cli):
    base = tmp_path_factory.mktemp("io")
    for args in (["gen-fixture", "--genus", "2", "--out", "track.json"],
                 ["tree", "track.json", "--out", "tree.json"],
                 ["sample-y", "tree.json", "--count", "1", "--out", "pts.json"]):
        r = run_cli(["--seed", "5", *(str(base / a) if a.endswith(".json") else a
                                      for a in args)])
        assert r.exit_code == 0, r.output
    io.write(str(base / "rep.json"), io.rep_to_json(obs.clock_shift_rep(3)))
    rng = random.Random(2)
    io.write(str(base / "mats.json"), {"matrices": [
        [[[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(3)] for _ in range(3)]
        for _ in range(3)]})
    return base


# Per mutated document: the commands that read it, and the decoder (with
# extra arguments) each command reads it with.  TREE is the intact tree file.
COMMANDS = {
    "tree.json": [
        (["validate", "BAD"], lambda b: (io.track_from_json, False)),
        (["classify", "BAD"], lambda b: (io.track_from_json,)),
        (["tree", "BAD", "--out", "OUT"], lambda b: (io.track_from_json,)),
        (["sample-y", "BAD", "--out", "OUT"], lambda b: (io.track_from_json,)),
    ],
    "pts.json": [
        (["torsion", "TREE", "BAD"], lambda b: (io.coords_from_json, _oriented_tree(b))),
        (["corfinal", "TREE", "BAD"], lambda b: (io.coords_from_json, _oriented_tree(b))),
    ],
    "rep.json": [(["ob", "BAD"], lambda b: (io.rep_from_json,))],
    "mats.json": [(["flags", "BAD"], lambda b: (io.matrices_from_json,))],
}

VALUES = [None, True, "x", "zd:12", -1, 0, 1, 2, 7, 2.7, 1e300, 10 ** 30, [], {}, [1.0],
          [0.5, 0.25], {"0": 0}]


def _oriented_tree(base):
    (_, tree), _ = io.load(base / "tree.json", io.track_from_json)
    return cc.ensure_right_unorientable(tree)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    """Drop a key, swap a value's type or range, or add or duplicate an entry."""
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]), label="path")
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    op = data.draw(st.sampled_from(["drop", "replace", "add"]), label="op")
    if op == "drop":
        del parent[last]
    elif op == "replace":
        parent[last] = copy.deepcopy(data.draw(st.sampled_from(VALUES), label="value"))
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(parent[last]))
    else:
        new = data.draw(st.sampled_from(["99", "0", "-1", "01", "a1", "x"]), label="key")
        parent[new] = copy.deepcopy(parent[last])
    return doc


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_document_keeps_exit_code_contract(base, tmp_path_factory, run_cli, name, data):
    work = tmp_path_factory.mktemp("mut")
    doc = _mutate(json.loads((base / name).read_text()), data)
    bad = work / name
    bad.write_text(json.dumps(doc))
    args, decoder = data.draw(st.sampled_from(COMMANDS[name]), label="command")
    subst = {"BAD": str(bad), "TREE": str(base / "tree.json"), "OUT": str(work / "out.json")}
    r = run_cli([subst.get(a, a) for a in args])
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code in (0, 1, 2)
    if r.exit_code == 2:
        assert r.stderr.startswith("input error:"), r.stderr
    if r.exit_code == 1:
        io.load(bad, *decoder(base))  # a math failure only on a document the loader accepts


def test_decoding_track_and_coords_leaves_numpy_unloaded(base):
    code = "\n".join([
        "import sys",
        "from switchyard import cocyclic as cc, io",
        f"(_, tree), _ = io.load({str(base / 'tree.json')!r}, io.track_from_json)",
        f"io.load({str(base / 'pts.json')!r}, io.coords_from_json, cc.ensure_right_unorientable(tree))",
        "assert 'numpy' not in sys.modules, 'decoding imported numpy'",
    ])
    src = str(Path(switchyard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("kind,d", [("cylinder", 3), ("zd:12", 4), ("real", 6)])
def test_points_file_round_trips(base, kind, d):
    tree, rng, eps = _oriented_tree(base), random.Random(d), al.torsion_element(kind, d, 0)
    points = [(cc.sample_y(tree, d, kind, rng, eps=eps), 0) for _ in range(2)]
    doc = json.loads(io.dumps(io.points_to_json(d, kind, 7, points)))
    assert (doc["d"], doc["group"], doc["count"], io.points_seed(doc)) == (d, kind, 2, 7)
    back = io.coords_from_json(doc, tree)
    assert [(c.lanes, label) for c, label in back] == [(c.lanes, 0) for c, _ in points]
    assert all((c.d, c.kind, c.tree) == (d, kind, tree) for c, _ in back)


@pytest.mark.parametrize("size", [1, 65])
def test_matrix_size_outside_2_to_max_d_is_refused_before_any_entry(size):
    doc = {"matrices": [[[None] * size for _ in range(size)]]}  # no entry decodes
    with pytest.raises(ValueError, match=f"^matrix size {size} is outside 2..64$"):
        io.matrices_from_json(doc)


def test_rep_matrix_size_is_checked_against_d_before_any_entry():
    doc = {"d": 3, "genus": 2, "matrices": dict.fromkeys(  # no entry decodes
        ("a1", "b1", "a2", "b2"), [[None] * 200 for _ in range(200)])}
    with pytest.raises(ValueError, match="^matrix size 200 does not match declared d=3$"):
        io.rep_from_json(doc)


def test_matrix_of_size_max_d_decodes():
    rng = random.Random(64)
    cols = [[[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(64)] for _ in range(64)]
    mats = io.matrices_from_json({"matrices": [cols, cols]})
    assert [m.shape for m in mats] == [(64, 64), (64, 64)]
    assert mats[0][3, 5] == complex(*cols[5][3])


def _triple_ratio(run_cli, path):
    """The `flags` command's triple ratio; any numpy warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run_cli(["--json", "flags", str(path)])
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code == 0, r.output
    return complex(json.loads(r.output)["values"]["value"].replace("i", "j"))


MAGNITUDES = st.builds(lambda sign, exp: sign * 10.0 ** exp,
                       st.sampled_from([1, -1]), st.integers(-300, 300))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flag=st.integers(0, 2), col=st.integers(0, 2), scale=MAGNITUDES)
def test_flag_column_magnitude_leaves_triple_ratio(base, tmp_path_factory, run_cli, flag, col,
                                                   scale):
    """A rescaled column spans the same line, so the invariant must not move."""
    doc = json.loads((base / "mats.json").read_text())
    doc["matrices"][flag][col] = [[re * scale, im * scale] for re, im in doc["matrices"][flag][col]]
    path = tmp_path_factory.mktemp("mag") / "mats.json"
    path.write_text(json.dumps(doc))
    want = _triple_ratio(run_cli, base / "mats.json")
    assert abs(_triple_ratio(run_cli, path) - want) <= 1e-9 * abs(want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flag=st.integers(0, 2), col=st.integers(0, 2), row=st.integers(0, 2),
       part=st.integers(0, 1), entry=MAGNITUDES)
def test_flag_entry_of_any_magnitude_is_accepted(base, tmp_path_factory, run_cli, flag, col,
                                                 row, part, entry):
    doc = json.loads((base / "mats.json").read_text())
    doc["matrices"][flag][col][row][part] = entry
    path = tmp_path_factory.mktemp("mag") / "mats.json"
    path.write_text(json.dumps(doc))
    assert math.isfinite(abs(_triple_ratio(run_cli, path)))
