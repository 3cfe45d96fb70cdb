"""Abelian coefficient groups and the index tables shared by every coordinate module.

Four group kinds are supported, selected by a runtime string tag:

    "real"      additive reals
    "circle"    reals mod 2*pi
    "cylinder"  a real part plus an angle mod 2*pi (complex numbers mod 2*pi*i)
    "zd:<n>"    integers mod n

Mixed-kind arithmetic is an error, never a coercion.  An element's raw value is
its "lane": the one lane runner `run` evaluates the chart's recorded `Row`s on
lanes, a plan at a time, and the one residual rule `lane_distance` compares two.
"""
from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

TWO_PI = 2.0 * math.pi

# Default tolerances, one per family of checks; the CLI checks each family at
# max(--tolerance, its default), so no --tolerance tightens a check below it.
# Float comparisons by `lane_distance` (the gate's checks, `elements_equal`, the
# ledger): sums of a few hundred O(1) terms carry rounding near 1e-13, and 1e-9
# stays far below the smallest torsion lattice spacing 2*pi/MAX_D.
DEFAULT_TOL = 1e-9

# The chart's float membership and torsion checks: points rebuilt by the
# explicit inverse, and torsion values summed from them, carry the rounding of
# long chains of additions and angle wraps.
MEMBER_TOL = 1e-7

# `obstruction.ob`, a relator product's distance from a scalar d-th root of
# unity: 5.0e-7 for the octagon at d = 5, its largest depth, and at most 8.9e-16
# for the clock-and-shift reps up to MAX_D.
SCALAR_TOL = 1e-6

# Largest supported depth d: index_tables(d) builds (d-1)(d-2)/2 triples per
# switch and obstruction builds d x d matrices, so work and file size grow as
# d^2 to d^3 (a genus-2 sample-y takes about 1 s at d=64, 6 s at d=128).
MAX_D = 64

PairIndex = Tuple[int, int]
TripleIndex = Tuple[int, int, int]
Row = Tuple[Tuple[int, int], ...]  # ((n, s), ...): the sum of n times lane s of a vector


class GroupKindError(ValueError):
    pass


class SumOverflow(ValueError):
    """A float sum left the range of a float (`math.fsum`'s intermediate overflow)."""


def _norm_angle(a: float) -> float:
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    # fmod can land exactly on 2*pi after the correction
    if a >= TWO_PI:
        a -= TWO_PI
    return a


@lru_cache(maxsize=256)
def _modulus(kind: str) -> Optional[int]:
    """The kind parser: n for "zd:<n>" (n a canonical decimal >= 1), None for a float kind."""
    if kind in ("real", "circle", "cylinder"):
        return None
    if not kind.startswith("zd:"):
        raise GroupKindError(f"unknown group kind {kind!r}")
    digits = kind[3:]
    if not (digits.isascii() and digits.isdigit()) or digits != str(int(digits)) or digits == "0":
        raise GroupKindError(f"bad cyclic modulus in kind {kind!r}")
    return int(digits)


def check_kind(kind: str) -> str:
    """Return ``kind`` if it names a coefficient group, else raise GroupKindError."""
    if type(kind) is not str:  # a decoded document may carry any JSON value here
        raise GroupKindError(f"unknown group kind {kind!r}")
    _modulus(kind)
    return kind


def frozen_attribute(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a read-only class: raise
    `dataclasses.FrozenInstanceError`, whose module loads only here."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def memo(obj, key: str, build, *args):
    """``build(obj, *args)``, kept in the one store of ``obj`` under ``(key, *args)``.

    Everything derived from a track, a tree, a cover or a flag tuple is kept
    this way, once per object and ``args`` (hashed by value, a flag by
    identity); a build that raises keeps nothing.
    """
    k = (key, *args)
    try:
        return obj._memo[k]
    except AttributeError:
        vars(obj)["_memo"] = {}
    except KeyError:
        pass
    value = obj._memo[k] = build(obj, *args)
    return value


def normalize(kind: str, value):
    """The lane of ``value`` in ``kind``: the one rule of `GroupElement` and of `io`."""
    # the float kinds are named first: `_modulus` is a cache lookup
    if kind == "cylinder":
        re, ang = value
        return (float(re), _norm_angle(float(ang)))
    if kind == "circle":
        return _norm_angle(float(value))
    if kind == "real":
        return float(value)
    return int(value) % _modulus(kind)


class GroupElement:
    """A value in one of the supported coefficient groups, normalized by `normalize`.

    value is a float for "real" and "circle", a (real, angle) pair for
    "cylinder", and an int residue for "zd:<n>".  Immutable, equal and
    hashed by (kind, value), and slotted: the chart builds hundreds per point.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: object):
        _set_kind(self, kind)
        _set_value(self, normalize(kind, value))

    __setattr__ = __delattr__ = frozen_attribute

    def __eq__(self, other):
        if other.__class__ is not GroupElement:
            return NotImplemented
        return (self.kind, self.value) == (other.kind, other.value)

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        return f"GroupElement(kind={self.kind!r}, value={self.value!r})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return GroupElement, (self.kind, self.value)


_new = GroupElement.__new__
_set_kind, _set_value = GroupElement.kind.__set__, GroupElement.value.__set__

GA = Tuple[GroupElement, ...]  # an A-indexed vector: entry k for the pair index (k+1, d-k-1)


def real(x: float) -> GroupElement:
    return GroupElement("real", x)


def circle(angle: float) -> GroupElement:
    return GroupElement("circle", angle)


def cylinder(re: float, angle: float) -> GroupElement:
    return GroupElement("cylinder", (re, angle))


def cyclic(n: int, residue: int) -> GroupElement:
    return GroupElement(f"zd:{n}", residue)


def zero_lane(kind: str):
    return (0.0, 0.0) if kind == "cylinder" else normalize(kind, 0)


def zero(kind: str) -> GroupElement:
    return GroupElement(kind, zero_lane(kind))


def _require_same_kind(a: GroupElement, b: GroupElement):
    if a.kind != b.kind:
        raise GroupKindError(f"kind mismatch: {a.kind!r} vs {b.kind!r}")


def group_add(a: GroupElement, b: GroupElement) -> GroupElement:
    return combine(a.kind, ((1, a), (1, b)))


def group_neg(a: GroupElement) -> GroupElement:
    return combine(a.kind, ((-1, a),))


def group_sub(a: GroupElement, b: GroupElement) -> GroupElement:
    return combine(a.kind, ((1, a), (-1, b)))


def int_scale(n: int, a: GroupElement) -> GroupElement:
    return combine(a.kind, ((n, a),))


def group_sum(kind: str, elements) -> GroupElement:
    """The sum of ``elements``: `combine` with unit coefficients."""
    return combine(kind, ((1, e) for e in elements))


def _fsum(parts) -> float:
    try:
        return math.fsum(parts)
    except ValueError:  # fsum refuses -inf + inf
        return math.nan


def combine(kind: str, terms) -> GroupElement:
    """The sum of n * x over ``terms``, pairs of an int n and an element x of ``kind``:
    `evaluate` on the elements' lanes."""
    row, lanes = [], []
    for n, x in terms:
        if x.kind != kind:
            raise GroupKindError(f"kind mismatch: {kind!r} vs {x.kind!r}")
        row.append((n, len(lanes)))
        lanes.append(x.value)
    return GroupElement(kind, evaluate(kind, row, lanes))


def evaluate(kind: str, row: Row, lanes):
    """The lane of the sum of n * lanes[s] over ``row``: `run` of a one-row plan."""
    return run(kind, (row,), lanes)[0]


def run(kind: str, rows, lanes) -> list:
    """The lanes of ``rows``, a sequence of `Row`s over lanes of ``kind``, in turn:
    row q reads ``lanes`` and, from lane number len(lanes) on, the lanes of the
    rows before it.

    Each row's lane is the sum of n * lane s over its terms (n, s): an exact
    integer sum for "zd:<n>", else a correctly rounded `math.fsum` of each float
    part (nan where it sums -inf and +inf), normalized once as by `GroupElement`,
    so it does not depend on the order of the terms.  A float sum that overflows
    raises `SumOverflow`, but a term's product n * x that overflows is not checked:
    it enters the sum as an infinity, so ``run("real", (((2, 0),),), [1e308])`` is
    ``[inf]`` and the terms ((2, 0), (-2, 0)) give ``[nan]``.  No row is checked
    here, in the loop every row takes: a caller checks the lanes it reads, as
    `cocyclic._gate` refuses a non-finite slot of `i2_inverse`'s point by name.
    The kind is dispatched once per plan, not per row.
    """
    out = list(lanes)
    first = len(out)
    try:
        _run(kind, rows, out, math.fsum)
    except (ValueError, OverflowError):
        # fsum refused a row (-inf + inf, or an overflow): that row and the rest
        # again, each float part summed by `_fsum`
        try:
            _run(kind, rows[len(out) - first:], out, _fsum)
        except OverflowError as err:
            row = rows[len(out) - first]
            raise SumOverflow(f"a {kind} sum of {len(row)} terms overflows a float") from err
    return out[first:]


def _run(kind: str, rows, out: list, fsum) -> None:
    """Append the lane of each row of ``rows``, over ``out``, to ``out``: the one lane
    arithmetic, float parts summed by ``fsum``.

    Each row's products are gathered by a plain loop in this frame: a comprehension
    is a function call of its own (before Python 3.12), which costs more than the
    sum of a row of a few terms.  A term of coefficient 1 or -1, nearly every term
    of a chart plan, takes its lane or the lane's negation, the bits of ``n * x``
    for every x but a nan's sign (an int times a float is an unspecialized multiply
    on Python 3.11).  The cylinder angle is normalized inline, by `_norm_angle`'s
    body.  A row is appended only once its sums succeed.
    """
    put = out.append
    if kind == "cylinder":
        fmod = math.fmod
        for row in rows:
            re, ang = [], []
            for n, s in row:
                x0, x1 = out[s]
                if n == 1:
                    re.append(x0)
                    ang.append(x1)
                elif n == -1:
                    re.append(-x0)
                    ang.append(-x1)
                else:
                    re.append(n * x0)
                    ang.append(n * x1)
            x0 = fsum(re)
            x1 = fmod(fsum(ang), TWO_PI)
            if x1 < 0.0:
                x1 += TWO_PI
            if x1 >= TWO_PI:
                x1 -= TWO_PI
            put((x0, x1))
    elif kind in ("real", "circle"):
        circle = kind == "circle"
        for row in rows:
            parts = []
            for n, s in row:
                if n == 1:
                    parts.append(out[s])
                elif n == -1:
                    parts.append(-out[s])
                else:
                    parts.append(n * out[s])
            put(_norm_angle(fsum(parts)) if circle else fsum(parts))
    else:
        m = _modulus(kind)
        for row in rows:
            total = 0
            for n, s in row:
                if n == 1:
                    total += out[s]
                elif n == -1:
                    total -= out[s]
                else:
                    total += n * out[s]
            put(total % m)


def _from_lanes(kind: str, lanes) -> tuple:
    """The elements of ``kind`` whose lanes are ``lanes``, normalized already (by `run`,
    a draw or `normalize`): built without `GroupElement.__init__`'s second pass."""
    out = []
    for x in lanes:
        e = _new(GroupElement)
        _set_kind(e, kind)
        _set_value(e, x)
        out.append(e)
    return tuple(out)


def unpack(kind: str, elements, name) -> list:
    """The lanes of ``elements``, each checked to be of ``kind``: the error names the
    first that is not by ``name(q)``, q its position."""
    lanes = [x.value for x in elements if x.kind == kind]
    if len(lanes) != len(elements):
        bad = next(q for q, x in enumerate(elements) if x.kind != kind)
        raise GroupKindError(f"kind mismatch: {kind!r} vs {elements[bad].kind!r} at {name(bad)}")
    return lanes


def _angle_dist(a: float, b: float) -> float:
    # callers pass normalized angles: lanes, or elements' values
    d = abs(a - b)
    return min(d, TWO_PI - d)


def lane_distance(kind: str, x, y) -> float:
    """The one residual rule, on lanes: |x - y| for "real", the wrapped angle for "circle",
    the larger of both for "cylinder"; for "zd:<n>" 0.0 if x == y, else inf (exact at any tol)."""
    if kind == "cylinder":
        ang = _angle_dist(x[1], y[1])
        # max(x, nan) is x: a nan angle must not be dropped
        return ang if math.isnan(ang) else max(abs(x[0] - y[0]), ang)
    if kind in ("real", "circle"):
        return abs(x - y) if kind == "real" else _angle_dist(x, y)
    return 0.0 if x == y else math.inf


def distance(a: GroupElement, b: GroupElement) -> float:
    _require_same_kind(a, b)
    return lane_distance(a.kind, a.value, b.value)


def elements_equal(a: GroupElement, b: GroupElement, tol: float = DEFAULT_TOL) -> bool:
    """``distance(a, b) <= tol``, for a finite tol >= 0."""
    return distance(a, b) <= tol


def is_zero(a: GroupElement, tol: float = DEFAULT_TOL) -> bool:
    return elements_equal(a, zero(a.kind), tol)


def is_d_torsion(a: GroupElement, d: int, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``a`` is d-torsion at ``tol``, by the rule of `_torsion_snap`."""
    return _torsion_snap(a, d, tol) is not None


def _torsion_snap(a: GroupElement, d: int, tol: float) -> Optional[Tuple[int, float]]:
    """The one d-torsion rule: ``a``'s `snap_torsion` if ``a`` lies within ``tol`` of
    the lattice (for "zd:<n>" exactly, d * a = 0 mod n), else None."""
    if d < 1:
        raise ValueError("d must be >= 1")
    snap = snap_torsion(a, d)
    n = _modulus(a.kind)
    return snap if (snap[1] <= tol if n is None else d * a.value % n == 0) else None


def torsion_element(kind: str, d: int, k: int = 1) -> GroupElement:
    """The k-th multiple of the canonical generator of the d-torsion subgroup.

    For "real" only the identity exists.  For "zd:<n>" the d-torsion is
    generated by n/gcd(n,d).
    """
    if kind == "real":
        return zero(kind)
    if kind == "circle":
        return circle(TWO_PI * k / d)
    if kind == "cylinder":
        return cylinder(0.0, TWO_PI * k / d)
    n = _modulus(kind)
    g = math.gcd(n, d)
    return cyclic(n, (n // g) * k)


def torsion_order(kind: str, d: int) -> int:
    """Number of d-torsion elements reachable as multiples of the canonical generator."""
    if kind == "real":
        return 1
    if kind in ("circle", "cylinder"):
        return d
    return math.gcd(_modulus(kind), d)


def random_element(kind: str, rng: random.Random) -> GroupElement:
    """One draw of `random_lanes`, as an element."""
    return _from_lanes(kind, random_lanes(kind, rng, 1))[0]


def random_lanes(kind: str, rng: random.Random, count: int) -> list:
    """The lanes of ``count`` draws of the one draw rule: a gaussian real part, a
    uniform angle, a uniform residue.

    Each lane and the generator's final state are the stdlib calls': the gaussian
    is ``rng.gauss(0.0, 1.0)``'s Box-Muller pair, run in this loop, its second
    value kept in ``rng.gauss_next`` as ``gauss`` keeps it, and ``0.0 + z`` as
    ``gauss`` returns ``mu + z * sigma``; ``TWO_PI * rng.random()`` is
    ``_norm_angle(rng.uniform(0.0, TWO_PI))``, since ``uniform`` adds it to 0.0
    and the largest ``random()`` gives 2*pi less one ulp; and the residue loop is
    ``randrange(n)``'s own, ``getrandbits`` of n's bit length drawn again while it
    is n or more."""
    rand = rng.random
    if kind == "circle":
        return [TWO_PI * rand() for _ in range(count)]
    if kind in ("real", "cylinder"):
        cos, sin, log, sqrt = math.cos, math.sin, math.log, math.sqrt
        cyl, lanes, z = kind == "cylinder", [], rng.gauss_next
        put = lanes.append
        for _ in range(count):
            if z is None:
                x2pi = rand() * TWO_PI
                g2rad = sqrt(-2.0 * log(1.0 - rand()))
                x = 0.0 + cos(x2pi) * g2rad
                z = sin(x2pi) * g2rad
            else:
                x, z = 0.0 + z, None
            put((x, TWO_PI * rand()) if cyl else x)
        rng.gauss_next = z
        return lanes
    n = _modulus(kind)
    getrandbits, k = rng.getrandbits, n.bit_length()
    lanes = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        lanes.append(r)
    return lanes


# ---------------------------------------------------------------------------
# the cylinder: common target of every kind, home of the d-torsion lattice

def cylinder_lane(kind: str, x):
    """The cylinder lane of the lane ``x`` of ``kind``: `to_cylinder` on lanes."""
    if kind == "cylinder":
        return x
    if kind == "real":
        return (x, 0.0)
    if kind == "circle":
        return (0.0, x)
    return (0.0, _norm_angle(TWO_PI * x / _modulus(kind)))


def to_cylinder(e: GroupElement) -> GroupElement:
    """Embed a coefficient-group element into the cylinder group (a homomorphism)."""
    return e if e.kind == "cylinder" else GroupElement("cylinder", cylinder_lane(e.kind, e.value))


# `format_log` prints angles to 12 significant digits, so 2*pi prints as
# 6.28318530718 and half a unit in its last digit is 5e-12.  An angle that
# close to 0 mod 2*pi prints as 0: rounding on either side of 0 then gives one
# printed form instead of +0, +1.8e-15 or +6.28318530718.
PRINT_ZERO_ANGLE = 5e-12


def format_log(e: GroupElement) -> str:
    """The report form of an element, via its cylinder image: ``log=<re><+angle>i``."""
    re, ang = to_cylinder(e).value
    if _angle_dist(ang, 0.0) <= PRINT_ZERO_ANGLE:
        ang = 0.0
    return f"log={re:.12g}{ang % TWO_PI:+.12g}i"


def snap_torsion(e: GroupElement, d: int) -> Tuple[int, float]:
    """Snap ``e`` to the d-torsion lattice point 2*pi*k/d i nearest its cylinder image;
    returns ``(k, distance to that point)``, on lanes."""
    c = cylinder_lane(e.kind, e.value)
    k = round(d * c[1] / TWO_PI) % d
    return k, lane_distance("cylinder", c, (0.0, _norm_angle(TWO_PI * k / d)))


class TorsionValue:
    """An element checked to be d-torsion at ``tol`` by the rule of `is_d_torsion`, with
    ``residue`` and ``residual``, its lattice point's k and distance by `snap_torsion`,
    snapped once; read-only."""

    __setattr__ = __delattr__ = frozen_attribute

    def __init__(self, value: GroupElement, d: int, tol: float = MEMBER_TOL):
        snap = _torsion_snap(value, d, tol)
        if snap is None:
            raise ValueError(f"element is not {d}-torsion: {value}")
        vars(self).update(value=value, d=d, residue=snap[0], residual=snap[1])


# ---------------------------------------------------------------------------
# index tables

def hat_pair(i: PairIndex) -> PairIndex:
    return (i[1], i[0])


def rot_plus(j: TripleIndex) -> TripleIndex:
    return (j[1], j[2], j[0])


def rot_minus(j: TripleIndex) -> TripleIndex:
    return (j[2], j[0], j[1])


class IndexTables(NamedTuple):
    """Enumerations of the pair/triple index sets for a fixed dimension d.

    All lists are in lexicographic order.  B_zero, i_zero and j_zero are
    populated only for even d; j_prime requires d >= 3.
    """

    d: int
    A: Tuple[PairIndex, ...] = ()
    B: Tuple[TripleIndex, ...] = ()
    A_prime: Tuple[PairIndex, ...] = ()
    A_dprime: Tuple[PairIndex, ...] = ()
    B_prime: Tuple[TripleIndex, ...] = ()
    B_dprime: Tuple[TripleIndex, ...] = ()
    B_star: Tuple[TripleIndex, ...] = ()
    B_zero: Tuple[TripleIndex, ...] = ()
    i_zero: Optional[PairIndex] = None
    j_zero: Optional[TripleIndex] = None
    j_prime: Optional[TripleIndex] = None


@lru_cache(maxsize=None)
def index_tables(d: int) -> IndexTables:
    if d < 2:
        raise ValueError("d must be >= 2")
    A = [(i1, d - i1) for i1 in range(1, d)]
    B = [
        (j1, j2, d - j1 - j2)
        for j1 in range(1, d - 1)
        for j2 in range(1, d - j1)
    ]
    half_lo = (d - 1) // 2
    half_hi = -(-(d - 1) // 2)  # ceil
    A_prime = [i for i in A if i[0] <= half_lo]
    A_dprime = [i for i in A if i[0] <= half_hi]
    cut_lo = (d - 3) // 2 if d >= 3 else 0
    cut_hi = -(-(d - 3) // 2) if d >= 3 else 0
    B_prime = [j for j in B if j[1] == 1 and j[2] <= cut_lo]
    B_dprime = [j for j in B if j[1] == 1 and j[2] <= cut_hi]
    B_star = [j for j in B if max(j) <= half_lo]
    even = d % 2 == 0
    B_zero = [j for j in B if j[1] == d // 2] if even else []
    i_zero = (d // 2, d // 2) if even else None
    j_zero = (d // 2, 1, (d - 2) // 2) if even and d >= 4 else None
    j_prime: Optional[TripleIndex] = None
    if d >= 3:
        if even:
            j_prime = ((d - 2) // 2, 2, (d - 2) // 2)
        else:
            j_prime = ((d - 1) // 2, 1, (d - 1) // 2)
    return IndexTables(
        d=d,
        A=tuple(A),
        B=tuple(B),
        A_prime=tuple(A_prime),
        A_dprime=tuple(A_dprime),
        B_prime=tuple(B_prime),
        B_dprime=tuple(B_dprime),
        B_star=tuple(B_star),
        B_zero=tuple(B_zero),
        i_zero=i_zero,
        j_zero=j_zero,
        j_prime=j_prime,
    )


def dimension_count(d: int, g: int) -> int:
    """Free coordinate count |A|(6g-5) + |B|(4g-4) - (|A'|+|B''|) - 1.

    Asserts agreement with (d^2-1)(2g-2); a mismatch means the index
    enumerations are wrong.
    """
    if d < 2 or g < 2:
        raise ValueError("need d >= 2 and g >= 2")
    t = index_tables(d)
    count = len(t.A) * (6 * g - 5) + len(t.B) * (4 * g - 4) - (len(t.A_prime) + len(t.B_dprime)) - 1
    expected = (d * d - 1) * (2 * g - 2)
    if count != expected:
        raise AssertionError(f"dimension count {count} != (d^2-1)(2g-2) = {expected}")
    return count
