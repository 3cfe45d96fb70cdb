"""Numerical complete flags in C^d with their projective invariants.

A flag is stored as an invertible matrix of column vectors; its k-dimensional
subspace is the span of the first k columns.  Wedge powers are determinants
of leading columns, so every ratio below is invariant under both projective
transformations and per-flag rescaling.  Each minor of a flag tuple is
computed once: the tuple's minors, and its log-ratio sum, are kept in the
memo of its first flag, keyed by the partner flags (so they hold references
to them), and the minors an invariant still lacks go into one stacked
determinant.  The line intersections and then the scalings of every adapted
basis a compatible triple needs are one stacked numpy call each.  The module
also builds bases adapted to flag triples, the unipotent transformation
matching two flags of a transverse triple (its annihilators all come from
one complete QR), and chained compatible bases.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Optional, Sequence, Tuple

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

# Redraws `random_flag_triple` makes before giving up.  Gaussian triples
# almost never need one: over seeds 0..1999 at each d = 2..8 every first draw
# passed, its smallest relative minor 6.8e-5, so the cap only stops a
# generator that cannot draw flags in general position.
MAX_TRIPLE_ATTEMPTS = 200

# Draws `random_flag` makes before giving up.  A gaussian matrix almost never
# fails `Flag`'s dependence test at small d: over seeds 0..1999 at each
# d = 2..8, and 0..99 at d = 16 and 32, every first draw passed, and so did
# 50 draws at d = 40.  Past that it fails more and more often (38 of 50 draws
# at d = 48, about all at d = 64), so without a cap the redraws never end
# there; at d = 48 all 100 fail with probability about 0.76**100, 1e-12.
MAX_FLAG_ATTEMPTS = 100

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
    and keeps norms and minors finite for any finite entries.  ``unit`` is
    read-only, since the minors kept in the memo are computed from it.
    """

    def __init__(self, mat) -> None:
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("flag matrix must be square")
        if not np.all(np.isfinite(m)):
            raise DegenerateFlagError("flag has a non-finite entry")
        _, exp = np.frexp(np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=0))
        unit = m / np.ldexp(0.5, exp)
        norms = np.linalg.norm(unit, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateFlagError("flag has a zero column")
        if abs(np.linalg.det(unit / norms)) <= FLAG_TOL:
            raise DegenerateFlagError("flag columns are linearly dependent")
        unit.setflags(write=False)
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


def _minors(flags: Sequence[Flag], patterns: Sequence[Tuple[int, ...]]
            ) -> List[Tuple[complex, float]]:
    """Each pattern's minor of the flags' leading columns, with its size
    relative to the Hadamard bound: pattern (k_1, .., k_n) takes the first
    k_i columns of flag i.  A minor is computed once per flag tuple and kept
    in the first flag's memo, keyed by the others; the distinct patterns not
    yet kept go into one stacked determinant."""
    table = al.memo(flags[0], "minors", _minor_table, *flags[1:])
    missing = [p for p in dict.fromkeys(patterns) if p not in table]
    if missing:
        det, rel = _stacked_minors(flags, missing)
        table.update(zip(missing, zip(det.tolist(), rel.tolist())))
    return [table[p] for p in patterns]


def _minor_table(*flags: Flag) -> dict:
    return {}


def _stacked_minors(flags: Sequence[Flag], patterns: Sequence[Tuple[int, ...]]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The minors of `_minors` from one stacked determinant.  Unit columns
    have norm at least 1, so the Hadamard bound is never zero."""
    d = flags[0].d
    ks = np.asarray(patterns, dtype=np.intp)
    # row r of `cols` numbers the columns of pattern r within the flags'
    # columns laid end to end: column c of flag i is i*d + c, taken if c < k_i
    taken = np.arange(d) < ks[:, :, None]
    cols = np.nonzero(taken.reshape(len(ks), len(flags) * d))[1].reshape(len(ks), d)
    columns = np.vstack([f.unit.T for f in flags])
    det = np.linalg.det(columns[cols].transpose(0, 2, 1))
    return det, np.abs(det) / np.prod(np.linalg.norm(columns, axis=1)[cols], axis=1)


def _ratio_minors(flags: Sequence[Flag], patterns: Sequence[Tuple[int, ...]]) -> List[complex]:
    """Minors an invariant divides by; any at rounding level is refused."""
    minors = _minors(flags, patterns)
    if not all(rel >= MINOR_FLOOR for _, rel in minors):  # a nan minor is refused
        raise DegenerateFlagError("degenerate minor")
    return [det for det, _ in minors]


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
    if pattern is not None and sum(pattern) != d:
        raise ValueError("pattern must sum to the ambient dimension")
    patterns = [tuple(pattern)] if pattern is not None else list(_compositions(d, len(flags)))
    # a nan minor is not in general position
    return all(rel > tol for _, rel in _minors(flags, patterns))


# Offsets from j of the six minors of the triple ratio at j, in the order
# `_six_ratio` takes them: numerator, denominator, numerator, ...
_TRIPLE_OFFSETS = ((1, 0, -1), (-1, 0, 1), (0, -1, 1), (0, 1, -1), (-1, 1, 0), (1, -1, 0))


def _triple_patterns(j: TripleIndex) -> List[TripleIndex]:
    return [(j[0] + a, j[1] + b, j[2] + c) for a, b, c in _TRIPLE_OFFSETS]


def _six_ratio(w: Sequence[complex]) -> complex:
    return w[0] / w[1] * w[2] / w[3] * w[4] / w[5]


def triple_ratio(triple: Sequence[Flag], j: TripleIndex) -> complex:
    return _six_ratio(_ratio_minors(triple, _triple_patterns(j)))


def double_ratio(g1: Flag, g2: Flag, h1: Flag, h2: Flag, i: PairIndex) -> complex:
    i1, i2 = i
    w = _ratio_minors((g1, g2, h1, h2), [(i1, i2 - 1, 1, 0), (i1, i2 - 1, 0, 1),
                                         (i1 - 1, i2, 0, 1), (i1 - 1, i2, 1, 0)])
    return -(w[0] / w[1] * w[2] / w[3])


def log_invariant(x: complex) -> GroupElement:
    if x == 0:
        raise ValueError("log of zero")
    return al.cylinder(math.log(abs(x)), cmath.phase(x))


def log_ratio_sum(triple: Sequence[Flag], d: int) -> GroupElement:
    """Sum of the logarithms of all triple ratios, in C mod 2 pi i, kept in
    the first flag's memo beside the triple's minors."""
    return al.memo(triple[0], "log_ratio_sum", _sum_logs, d, *triple[1:])


def _sum_logs(first: Flag, d: int, *partners: Flag) -> GroupElement:
    index = al.index_tables(d).B
    w = _ratio_minors((first, *partners), [p for j in index for p in _triple_patterns(j)])
    return al.group_sum("cylinder", (log_invariant(_six_ratio(w[6 * n:6 * n + 6]))
                                     for n in range(len(index))))


def exp_value(e: GroupElement) -> complex:
    """A cylinder class exponentiates to a well-defined nonzero complex number."""
    if e.kind != "cylinder":
        raise al.GroupKindError(f"expected a cylinder element, got {e.kind}")
    re, ang = e.value
    return cmath.exp(complex(re, ang))


def _null_vector(mat: np.ndarray) -> np.ndarray:
    """Null direction of a matrix, or of each in a stack, with one more
    column than row.

    The extra column guarantees a null vector; a second small singular value
    would mean the solution is not unique, which is rejected.
    """
    assert mat.shape[-1] == mat.shape[-2] + 1
    _, s, vh = np.linalg.svd(mat)
    if not np.all(s[..., -1] > RANK_TOL * s[..., 0]):
        raise DegenerateFlagError("solution space is not one-dimensional")
    return vh[..., -1, :].conj()


def adapted_basis(triple: Sequence[Flag]) -> np.ndarray:
    """Columns g_1..g_d with g_m spanning F1^m meet F3^(d-m+1) and sum in F2^1.

    The global scalar is pinned so the first nonzero coordinate of g_1 is 1.
    """
    return _adapted_bases([triple])[0]


def _adapted_bases(triples: Sequence[Sequence[Flag]]) -> np.ndarray:
    """`adapted_basis` of each triple, as one (n, d, d) stack from one stacked
    SVD of every line intersection and one of every scaling."""
    f1, f2, f3 = np.array([[f.unit for f in t] for t in triples]).swapaxes(0, 1)
    d = f1.shape[-1]
    # column m of g spans F1^m meet F3^(d-m+1): the null vector x_m of
    # [F1^m | -F3^(d-m+1)] gives g_m = F1^m x_m[:m]
    both = np.concatenate([f1, -f3], axis=2)
    idx = np.array([[*range(m), *range(d, 2 * d - m + 1)] for m in range(1, d + 1)])
    x = _null_vector(np.moveaxis(both[:, :, idx], 2, 1))
    g = f1 @ np.triu(x[..., :d].transpose(0, 2, 1))
    if not np.all(np.linalg.norm(g, axis=1) >= RANK_TOL * np.linalg.norm(x, axis=2)):
        raise DegenerateFlagError("subspaces meet non-transversally")
    x = _null_vector(np.concatenate([g, -f2[:, :, :1]], axis=2))
    c = np.abs(x[:, :d])
    if np.any(np.abs(x[:, d]) < RANK_TOL) or np.any(c.min(axis=1) < ENTRY_FLOOR * c.max(axis=1)):
        raise DegenerateFlagError("no adapted scaling exists")
    g = g * x[:, None, :d]
    # pin the first coordinate of g_1 above ENTRY_FLOOR of its largest to 1
    lead = np.abs(g[:, :, 0])
    k = np.argmax(lead > ENTRY_FLOOR * lead.max(axis=1, keepdims=True), axis=1)
    return g / g[np.arange(len(g)), k, 0][:, None, None]


def unipotent_fixing(f2: Flag, f1: Flag, f3: Flag) -> np.ndarray:
    """The unipotent matrix fixing the first flag and carrying f1^k onto f3^k.

    Solved as a linear system for the strict upper triangle in a basis listing
    the fixed flag, with one annihilator condition per carried subspace.  One
    complete QR of f3 gives every annihilator: rows k.. of Q^H vanish on F3^k.
    """
    d = f2.d
    p = f2.unit
    y = np.linalg.solve(p, f1.unit)
    qp = np.linalg.qr(f3.unit, mode="complete")[0].conj().T @ p
    # unknown i is the entry (a[i], b[i]) of the strict upper triangle N, and
    # equation i asks row b[i] of Q^H p to vanish on (1 + N) y[:, a[i]]
    a, b = np.triu_indices(d, 1)
    sys_mat = qp[np.ix_(b, a)] * y.T[np.ix_(a, b)]
    sys_rhs = -(qp @ y)[b, a]
    try:
        sol = np.linalg.solve(sys_mat, sys_rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFlagError("flag configuration gives a singular system") from exc
    if np.linalg.norm(sys_mat @ sol - sys_rhs) > UNIPOTENT_TOL * max(1.0, np.linalg.norm(sys_rhs)):
        raise DegenerateFlagError("flag configuration gives an inconsistent system")
    n = np.zeros((d, d), dtype=complex)
    n[a, b] = sol
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
    g, f0, h0 = _adapted_bases([(*triple[i:], *triple[:i]) for i in (0, 2, 1)])
    f = f0 * (_vector_ratio(g[:, d - 1], f0[:, 0]) / (s * s))
    h = h0 * (s * s * _vector_ratio(g[:, 0], h0[:, d - 1]))
    return f, g, h


def random_flag(d: int, rng) -> Flag:
    """A flag of gaussian columns, redrawn until `Flag` accepts it."""
    for _ in range(MAX_FLAG_ATTEMPTS):
        # entries row by row, each a real then an imaginary gaussian
        mat = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d * d)]).view(complex).reshape(d, d)
        try:
            return Flag(mat)
        except DegenerateFlagError:
            continue
    raise DegenerateFlagError(f"could not draw a flag with independent columns at d = {d} "
                              f"in {MAX_FLAG_ATTEMPTS} attempts")


def random_flag_triple(d: int, rng) -> Tuple[Flag, Flag, Flag]:
    """Three flags passing every general-position minor above GUARD_TOL."""
    for _ in range(MAX_TRIPLE_ATTEMPTS):
        flags = (random_flag(d, rng), random_flag(d, rng), random_flag(d, rng))
        if general_position(flags, tol=GUARD_TOL):
            return flags
    raise DegenerateFlagError("could not sample a well-conditioned flag triple")
