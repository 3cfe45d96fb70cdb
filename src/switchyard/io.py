"""The input boundary: every JSON document format, and the one place that
decides an input is malformed (`load` raises `InputError`).  Ids, counts and
indices must be JSON integers and numbers finite: nothing is truncated or
reinterpreted.  Other modules and numpy are imported inside the decoders; that
avoids import cycles, and decoding a track or a coords document loads no numpy.
"""

from __future__ import annotations

import json
import math

from . import algebra as al


class InputError(ValueError):
    """A file or argument that is not a valid input; the CLI exits 2 on it."""


def load(path, decode, *args):
    """Read and parse ``path``; returns ``(decode(doc, *args), raw bytes)``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return decode(json.loads(raw), *args), raw
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    except KeyError as err:  # str(err) is the key's repr alone
        raise InputError(f"{path}: missing key {err}") from None
    except (IndexError, TypeError, ValueError, AttributeError, OverflowError,
            RecursionError) as err:  # RecursionError: JSON nested too deep
        raise InputError(f"{path}: {err}") from None


def dumps(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def write(path, doc) -> bytes:
    """Write ``doc`` to ``path``; returns the bytes written."""
    data = dumps(doc)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    return data


def group_kind(tag: str) -> str:
    try:
        return al.check_kind(tag)
    except al.GroupKindError as err:
        raise InputError(str(err)) from None


def depth(d: int) -> int:
    """A depth argument ``d``, which must lie in 2..MAX_D."""
    if not 2 <= d <= al.MAX_D:
        raise InputError(f"d {d} outside 2..{al.MAX_D}")
    return d


def tolerance(tol: float) -> float:
    """A tolerance argument ``tol``, which must be a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tolerance {tol} is not a finite number >= 0")
    return tol


def _int(x, what: str, lo=-math.inf, hi=math.inf) -> int:
    if type(x) is not int:  # rejects bool and float: 2.7 must not become 2
        raise TypeError(f"{what} {x!r} is not an integer")
    if not lo <= x <= hi:
        raise ValueError(f"{what} {x} is outside {lo}..{hi}")
    return x


def _key(key: str, what: str, lo=-math.inf, hi=math.inf) -> int:
    """An integer written as an object key, in canonical decimal form."""
    if str(int(key)) != key:
        raise ValueError(f"{what} {key!r} is not a canonical integer")
    return _int(int(key), what, lo, hi)


def _real(x) -> float:
    if type(x) not in (int, float) or not math.isfinite(x):
        raise ValueError(f"{x!r} is not a finite number")
    return float(x)


def _pair(x, what: str) -> tuple:
    if type(x) is not list or len(x) != 2:
        raise ValueError(f"{what} {x!r} is not a pair of numbers")
    return _real(x[0]), _real(x[1])


def lane_to_json(x):  # a cylinder's (re, angle) lane is written as a list
    return list(x) if type(x) is tuple else x


def lane_from_json(kind: str, data):
    """The lane of ``data``, a JSON value of the checked kind ``kind``, by `al.normalize`."""
    if kind == "cylinder":
        return al.normalize(kind, _pair(data, "cylinder value"))
    return al.normalize(kind, _int(data, "residue") if kind.startswith("zd:") else _real(data))


def track_to_json(track, tree=None) -> dict:
    doc = {"genus": track.genus, "switches": [{"id": s} for s in track.switch_ids],
           "rectangles": [{"id": r.id, "end0": {"switch": r.end0[0], "port": r.end0[1]},
                           "end1": {"switch": r.end1[0], "port": r.end1[1]}} for r in track.rects]}
    if tree is not None:
        doc["tree"] = {"edges": sorted(tree.edges), "root": tree.root, "root_bit": tree.root_bit}
    return doc


def _end(doc) -> tuple:
    return _int(doc["switch"], "switch"), doc["port"]  # slot_map checks the port


def track_from_json(doc, check: bool = True):
    """Decode a track document into ``(track, stored tree or None)``.  Unless
    ``check``, an invalid track is returned for `validate` to report, treeless."""
    from . import traintrack as tt

    rects = [tt.Rect(_int(r["id"], "rectangle id"), _end(r["end0"]), _end(r["end1"]))
             for r in doc["rectangles"]]
    track = tt.TrainTrack(_int(doc["genus"], "genus"),
                          [_int(s["id"], "switch id") for s in doc["switches"]], rects)
    if check:
        track.finalize()
    elif not tt.validate(track).valid:
        return track, None
    if "tree" not in doc:
        return track, None
    t = doc["tree"]
    root, root_bit = t.get("root"), _int(t.get("root_bit", 0), "root_bit", 0, 1)
    edges = [_int(e, "tree edge") for e in t["edges"]]
    return track, tt.maximal_tree(track, edges=edges, root_bit=root_bit,
                                  root=None if root is None else _int(root, "root"))


def coords_to_json(c) -> dict:
    """A `cocyclic.Member`'s lanes, written under the decoder's keys (`_key_table`)."""
    lanes, table = c.lanes, al.memo(c.tree, "key_table", _key_table, c.d)
    return {"d": c.d, "group": c.kind, **{
        part: {at: {k: lane_to_json(lanes[start + q]) for k, q in offsets.items()}
               for at, start in starts.items()} for part, (starts, offsets) in table.items()}}


def points_to_json(d: int, kind: str, seed: int, points) -> dict:
    """The points file of ``points``, the (`cocyclic.Member`, torsion label) pairs of one d
    and group that ``seed`` drew: the document `coords_from_json` and `points_seed` read."""
    return {"d": d, "group": kind, "seed": seed, "count": len(points),
            "points": [{"torsion": label, "coords": coords_to_json(c)} for c, label in points]}


def points_seed(doc):
    """The seed a points file records, which chose the tree its points were drawn
    on, >= 0 as --seed is; None for a bare coords document."""
    return _int(doc["seed"], "seed", 0) if "points" in doc else None


def coords_from_json(doc, tree) -> list:
    """Decode a coords document checked against ``tree`` into its points, each a pair of
    a `cocyclic.Member` of lanes at tol = inf, built without an element, and its
    `torsion` label: a bare document's one point, labelled None, or every point of a
    points file, checked against its count, d and group."""
    if "points" not in doc:
        return [(_coords(doc, tree), None)]
    points = doc["points"]
    if type(points) is not list or not points:
        raise ValueError("points is not a non-empty list")
    if _int(doc["count"], "count") != len(points):
        raise ValueError(f"count {doc['count']} does not match the {len(points)} points")
    d, kind = _int(doc["d"], "d", 2, al.MAX_D), al.check_kind(doc["group"])
    coords = []
    for n, p in enumerate(points):
        label = _int(p["torsion"], f"point {n} torsion", 0, d - 1)
        c = _coords(p["coords"], tree)
        if (c.d, c.kind) != (d, kind):
            raise ValueError(f"point {n} has d={c.d} group {c.kind}, the file d={d} group {kind}")
        coords.append((c, label))
    return coords


def _key_table(tree, d: int) -> dict:
    """For "v" and "z" of a coords document on ``tree`` at ``d``, each canonical id key's
    first slot in `cocyclic.chart`, and each canonical index key's offset from it."""
    from .cocyclic import chart

    ch = chart(tree, d)
    return {"v": ({str(r): s for r, s in ch.v_start.items()},
                  {str(i[0]): k for k, i in enumerate(al.index_tables(d).A)}),
            "z": ({str(t): s for t, s in ch.z_start.items()},
                  {",".join(map(str, j)): q for j, q in ch.z_offset.items()})}


def _refuse(part: str, key: str, d: int):
    """Raise the parse error of ``key``, a "v" pair or "z" triple index with no slot."""
    if part == "v":
        _key(key, "pair index", 1, d - 1)
    for p in key.split(","):
        _key(p, "triple index part", 1, d)
    raise ValueError(f"triple index {key!r} is not three positive parts summing to {d}")


def _coords(doc, tree):
    from .cocyclic import Member, chart

    d, kind = _int(doc["d"], "d", 2, al.MAX_D), al.check_kind(doc["group"])
    table = al.memo(tree, "key_table", _key_table, d)
    for label, got, part in (("switch", doc["z"], "z"), ("free rectangle", doc["v"], "v")):
        got, want = {_key(k, f"{label} id") for k in got}, set(map(int, table[part][0]))
        if got != want:
            raise ValueError(f"{label} ids do not match the track: "
                             f"missing {sorted(want - got)}, unknown {sorted(got - want)}")
    lanes = [None] * chart(tree, d).size
    for part, label, index in (("v", "rectangle", "pair"), ("z", "switch", "triple")):
        starts, offsets = table[part]
        for at, vec in doc[part].items():
            start = starts[at]
            for k, e in vec.items():
                if k not in offsets:
                    _refuse(part, k, d)
                lanes[start + offsets[k]] = lane_from_json(kind, e)
            if len(vec) != len(offsets):
                raise ValueError(f"{label} {at} does not carry the d={d} {index} indices")
    return Member(d, kind, tree, math.inf, tuple(lanes))


def matrix_to_json(mat) -> list:
    return [[[float(mat[r, c].real), float(mat[r, c].imag)] for r in range(mat.shape[0])]
            for c in range(mat.shape[1])]


def matrix_from_json(cols):
    """A non-empty square complex matrix from its list of columns."""
    import numpy as np

    if type(cols) is not list or not cols or any(type(c) is not list or len(c) != len(cols)
                                                 for c in cols):
        raise ValueError("matrix is not a non-empty square list of columns")
    return np.array([[complex(*_pair(e, "matrix entry")) for e in col] for col in cols], dtype=complex).T


def matrices_from_json(doc) -> list:
    """Square complex matrices of one size in 2..MAX_D, the size checked before any entry
    is decoded."""
    for m in doc["matrices"]:
        if type(m) is list and m:
            _int(len(m), "matrix size", 2, al.MAX_D)
    mats = [matrix_from_json(m) for m in doc["matrices"]]
    if len({m.shape for m in mats}) > 1:
        raise ValueError(f"matrices have mixed sizes {sorted({m.shape[0] for m in mats})}")
    return mats


def rep_to_json(rep) -> dict:
    """The document of ``rep``, whose relator must be the standard one `rep_from_json` rebuilds."""
    from . import obstruction as obs

    genus, word = len(rep.relator) // 4, rep.relator.symbols
    if genus < 2 or word != obs.standard_relator(genus).symbols:
        raise ValueError(f"relator {' '.join(n if e == 1 else n + '^-1' for n, e in word)} "
                         "is not a standard relator a1 b1 a1^-1 b1^-1 ...")
    return {"d": rep.d, "genus": genus,
            "matrices": {name: matrix_to_json(m) for name, m in sorted(rep.matrices.items())}}


def rep_from_json(doc):
    from . import obstruction as obs

    d, genus, named = _int(doc["d"], "d", 2, al.MAX_D), _int(doc["genus"], "genus"), doc["matrices"]
    if len(named) != 2 * genus:  # before the relator is built: genus comes from the file
        raise ValueError(f"genus {genus} needs {2 * genus} matrices, got {len(named)}")
    for cols in named.values():  # each size checked before any entry is decoded
        if type(cols) is list and cols and len(cols) != d:
            raise ValueError(f"matrix size {len(cols)} does not match declared d={d}")
    mats = {name: matrix_from_json(cols) for name, cols in named.items()}
    return obs.lifted_rep(obs.standard_relator(genus), mats)
