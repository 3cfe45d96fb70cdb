"""Numerical complete flags in C^d with their projective invariants.

A flag is stored as an invertible matrix of column vectors; its k-dimensional
subspace is the span of the first k columns.  Wedge powers are evaluated as
determinants of assembled square matrices, so every ratio below is invariant
under both projective transformations and per-flag rescaling.  The module
also builds bases adapted to flag triples, the unipotent transformation
matching two flags of a transverse triple, and chained compatible bases.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import algebra as al
from .algebra import GroupElement, PairIndex, TripleIndex


class DegenerateFlagError(ValueError):
    pass


# A flag whose column-normalized determinant is at most this is dependent, and
# `general_position` fails a minor at most this size relative to its Hadamard
# bound: exactly dependent unit columns give |det| <= 2.3e-16 at d = 3..8.
FLAG_TOL = 1e-10

# `random_flag_triple` redraws a triple until every minor clears this, 100x
# FLAG_TOL, so the ratios built from it stay well conditioned.
GUARD_TOL = 1e-8

# `triple_ratio` and `double_ratio` divide by minors; one below this fraction
# of its Hadamard bound is zero up to rounding, and dividing by it is refused.
MINOR_FLOOR = 1e-12

# A rank drop in double precision: a smallest singular value, a line's
# spanning vector or an adapted scale below this fraction of the largest one
# is rounding, not a direction, so the solution is not unique.
RANK_TOL = 1e-10

# An entry below this fraction of a vector's largest entry counts as zero when
# adapted scales are checked and the leading coordinate of g_1 is chosen.
ENTRY_FLOOR = 1e-12

# Residual allowed, relative to max(1, |rhs|), for the unipotent system; it is
# at most 7.1e-14 over 360 random triples at d = 3..8, and a larger one means
# the configuration has no unipotent solution.
UNIPOTENT_TOL = 1e-6

# Two vectors are parallel when |y - c x| is at most this relative to
# max(1, |y|); the adapted-basis columns `compatible_triple` compares stay
# within 2.7e-14 over 360 random triples at d = 3..8.
PARALLEL_TOL = 1e-8

# `compatible_triple` accepts r as a cube root of the log triple-ratio sum to
# this tolerance: r may come from another route to that sum of |B| logs, each
# of a ratio of six minors, so the two agree only to rounding.
CUBE_ROOT_TOL = 1e-8


class Flag:
    """Complete flag: span of the first k columns is the k-dimensional piece.

    ``mat`` is the matrix as given.  Computations read ``unit``: each column
    divided by the power of two that puts its largest real or imaginary part
    in [1, 2).  That leaves every span unchanged, is exact in floating point,
    and keeps norms and minors finite for any finite entries.
    """

    def __init__(self, mat) -> None:
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("flag matrix must be square")
        _, exp = np.frexp(np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=0))
        unit = m / np.ldexp(0.5, exp)
        norms = np.linalg.norm(unit, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateFlagError("flag has a zero column")
        if abs(np.linalg.det(unit / norms)) <= FLAG_TOL:
            raise DegenerateFlagError("flag columns are linearly dependent")
        self.mat = m
        self.unit = unit

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    def cols(self, k: int) -> np.ndarray:
        return self.unit[:, :k]


def standard_flag(d: int) -> Flag:
    return Flag(np.eye(d))


def reversed_standard_flag(d: int) -> Flag:
    return Flag(np.fliplr(np.eye(d)))


def _det_rel(mat: np.ndarray) -> Tuple[complex, float]:
    """Determinant together with its size relative to the Hadamard bound."""
    det = complex(np.linalg.det(mat))
    scale = float(np.prod(np.linalg.norm(mat, axis=0)))
    if scale == 0.0:
        return det, 0.0
    return det, abs(det) / scale


def _assemble(parts: Sequence[Tuple[Flag, int]]) -> np.ndarray:
    return np.hstack([f.cols(k) for f, k in parts if k > 0])


def _minor(parts: Sequence[Tuple[Flag, int]]) -> complex:
    det, rel = _det_rel(_assemble(parts))
    if rel < MINOR_FLOOR:
        raise DegenerateFlagError("degenerate minor")
    return det


def _compositions(total: int, m: int):
    if m == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, m - 1):
            yield (head,) + rest


def general_position(flags: Sequence[Flag], pattern: Optional[Sequence[int]] = None,
                     tol: float = FLAG_TOL) -> bool:
    d = flags[0].d
    if pattern is not None:
        if sum(pattern) != d:
            raise ValueError("pattern must sum to the ambient dimension")
        patterns: Iterable[Sequence[int]] = [pattern]
    else:
        patterns = _compositions(d, len(flags))
    for ks in patterns:
        if any(k > 0 for k in ks):
            _, rel = _det_rel(_assemble(list(zip(flags, ks))))
            if rel <= tol:
                return False
    return True


def triple_ratio(triple: Sequence[Flag], j: TripleIndex) -> complex:
    f1, f2, f3 = triple
    j1, j2, j3 = j

    def w(a: int, b: int, c: int) -> complex:
        return _minor([(f1, a), (f2, b), (f3, c)])

    return (w(j1 + 1, j2, j3 - 1) / w(j1 - 1, j2, j3 + 1)
            * w(j1, j2 - 1, j3 + 1) / w(j1, j2 + 1, j3 - 1)
            * w(j1 - 1, j2 + 1, j3) / w(j1 + 1, j2 - 1, j3))


def double_ratio(g1: Flag, g2: Flag, h1: Flag, h2: Flag, i: PairIndex) -> complex:
    i1, i2 = i

    def w(a: int, b: int, h: Flag) -> complex:
        return _minor([(g1, a), (g2, b), (h, 1)])

    return -(w(i1, i2 - 1, h1) / w(i1, i2 - 1, h2)
             * w(i1 - 1, i2, h2) / w(i1 - 1, i2, h1))


def log_invariant(x: complex) -> GroupElement:
    if x == 0:
        raise ValueError("log of zero")
    return al.cylinder(math.log(abs(x)), cmath.phase(x))


def log_ratio_sum(triple: Sequence[Flag], d: int) -> GroupElement:
    """Sum of the logarithms of all triple ratios, in C mod 2 pi i."""
    tables = al.index_tables(d)
    return al.group_sum("cylinder",
                        (log_invariant(triple_ratio(triple, j)) for j in tables.B))


def exp_value(e: GroupElement) -> complex:
    """A cylinder class exponentiates to a well-defined nonzero complex number."""
    if e.kind != "cylinder":
        raise al.GroupKindError(f"expected a cylinder element, got {e.kind}")
    re, ang = e.value
    return cmath.exp(complex(re, ang))


def _null_vector(mat: np.ndarray) -> np.ndarray:
    """Null direction of a matrix with one more column than row.

    The extra column guarantees a null vector; a second small singular value
    would mean the solution is not unique, which is rejected.
    """
    rows, cols = mat.shape
    assert cols == rows + 1
    _, s, vh = np.linalg.svd(mat)
    if s[0] == 0.0 or s[-1] / s[0] < RANK_TOL:
        raise DegenerateFlagError("solution space is not one-dimensional")
    return vh[-1].conj()


def _line_intersection(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Spanning vector of span(u) meeting span(w) in one dimension."""
    x = _null_vector(np.hstack([u, -w]))
    g = u @ x[: u.shape[1]]
    if np.linalg.norm(g) < RANK_TOL * np.linalg.norm(x):
        raise DegenerateFlagError("subspaces meet non-transversally")
    return g


def adapted_basis(triple: Sequence[Flag]) -> np.ndarray:
    """Columns g_1..g_d with g_m spanning F1^m meet F3^(d-m+1) and sum in F2^1.

    The global scalar is pinned so the first nonzero coordinate of g_1 is 1.
    """
    f1, f2, f3 = triple
    d = f1.d
    cols = [_line_intersection(f1.cols(m), f3.cols(d - m + 1)) for m in range(1, d + 1)]
    g = np.column_stack(cols)
    x = _null_vector(np.hstack([g, -f2.cols(1)]))
    c, t = x[:d], x[d]
    if abs(t) < RANK_TOL or np.min(np.abs(c)) < ENTRY_FLOOR * np.max(np.abs(c)):
        raise DegenerateFlagError("no adapted scaling exists")
    g = g * c
    lead = g[:, 0]
    k = next(idx for idx in range(d) if abs(lead[idx]) > ENTRY_FLOOR * np.max(np.abs(lead)))
    return g / lead[k]


def unipotent_fixing(f2: Flag, f1: Flag, f3: Flag) -> np.ndarray:
    """The unipotent matrix fixing the first flag and carrying f1^k onto f3^k.

    Solved as a linear system for the strict upper triangle in a basis listing
    the fixed flag, with one annihilator condition per carried subspace.
    """
    d = f2.d
    p = f2.unit
    y = np.linalg.solve(p, f1.unit)

    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    pos = {ab: n for n, ab in enumerate(pairs)}
    n_unknown = len(pairs)
    rows: List[np.ndarray] = []
    rhs: List[complex] = []
    for k in range(1, d):
        left = np.linalg.svd(f3.cols(k), full_matrices=True)[0]
        ann = left[:, k:].conj().T
        m = ann @ p
        base = m @ y[:, k - 1]
        for r in range(d - k):
            row = np.zeros(n_unknown, dtype=complex)
            for (a, b), n in pos.items():
                row[n] = m[r, a] * y[b, k - 1]
            rows.append(row)
            rhs.append(-base[r])
    sys_mat = np.array(rows)
    sys_rhs = np.array(rhs)
    try:
        sol = np.linalg.solve(sys_mat, sys_rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFlagError("flag configuration gives a singular system") from exc
    if np.linalg.norm(sys_mat @ sol - sys_rhs) > UNIPOTENT_TOL * max(1.0, np.linalg.norm(sys_rhs)):
        raise DegenerateFlagError("flag configuration gives an inconsistent system")
    n = np.zeros((d, d), dtype=complex)
    for (a, b), idx in pos.items():
        n[a, b] = sol[idx]
    return p @ (np.eye(d) + n) @ np.linalg.inv(p)


def _vector_ratio(y: np.ndarray, x: np.ndarray) -> complex:
    """Scalar c with y = c x, for parallel vectors."""
    k = int(np.argmax(np.abs(x)))
    if abs(x[k]) == 0.0:
        raise DegenerateFlagError("ratio against the zero vector")
    c = y[k] / x[k]
    if np.linalg.norm(y - c * x) > PARALLEL_TOL * max(1.0, np.linalg.norm(y)):
        raise DegenerateFlagError("vectors are not parallel")
    return c


def compatible_triple(triple: Sequence[Flag], r: GroupElement,
                      tol: float = CUBE_ROOT_TOL) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chained bases (f, g, h) adapted to the rotations of the triple.

    The scalar r must satisfy 3r = sum of the log triple ratios; the bases
    are scaled so exp(2r) f_1 = g_d and exp(2r) g_1 = h_d.
    """
    d = triple[0].d
    total = log_ratio_sum(triple, d)
    if not al.elements_equal(al.int_scale(3, r), total, tol):
        raise ValueError("r is not a cube root of the triple-ratio sum")
    s = exp_value(r)
    g = adapted_basis((triple[0], triple[1], triple[2]))
    f0 = adapted_basis((triple[2], triple[0], triple[1]))
    h0 = adapted_basis((triple[1], triple[2], triple[0]))
    f = f0 * (_vector_ratio(g[:, d - 1], f0[:, 0]) / (s * s))
    h = h0 * (s * s * _vector_ratio(g[:, 0], h0[:, d - 1]))
    return f, g, h


def random_flag(d: int, rng) -> Flag:
    while True:
        mat = np.array([[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                         for _ in range(d)] for _ in range(d)])
        try:
            return Flag(mat)
        except DegenerateFlagError:
            continue


def random_flag_triple(d: int, rng, guard: float = GUARD_TOL,
                       attempts: int = 200) -> Tuple[Flag, Flag, Flag]:
    """Three flags passing every general-position minor above the guard."""
    for _ in range(attempts):
        flags = (random_flag(d, rng), random_flag(d, rng), random_flag(d, rng))
        if general_position(list(flags), tol=guard):
            return flags
    raise DegenerateFlagError("could not sample a well-conditioned flag triple")
