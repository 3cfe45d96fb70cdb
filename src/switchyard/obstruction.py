"""Lifting obstruction for projective surface-group representations.

A closed genus-g surface group has one-relator presentations whose relator
word uses each generator exactly twice, once inverted.  Given unit
determinant matrix lifts of the generator images, the product along the
relator is a scalar matrix, and the scalar is a d-th root of unity whose
log is independent of every choice made (lifts, ordering, conjugation).
That log is the obstruction to lifting the representation from the
projective group to the special linear group.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from . import algebra as al
from .algebra import SCALAR_TOL

# `lifted_rep` refuses a determinant further than this from one: the builders
# here reach 1.2e-12 (the octagon at d = 5), 8.7e-15 (clock-and-shift) and 4.7e-15
# (diagonal) up to MAX_D, so a matrix further off is a wrong matrix, not rounding.
DET_TOL = 1e-8

# `unit_determinant` treats a determinant below this as zero: rescaling by
# det**(-1/d) would multiply the entries, and their rounding, by more than
# 1e12**(1/d), past what DET_TOL can vouch for.
SINGULAR_DET = 1e-12

# Floor of the off-scalar residual's denominator, so a zero product cannot
# divide by zero; a product of unit-determinant matrices has a singular value
# >= 1, so its norm is never near the floor.
NORM_FLOOR = 1e-30

# `symmetric_power` needs an SL(2) input: generators rescaled by
# `unit_determinant` are unimodular to within 2e-15, and an input further off
# than this is refused as a wrong matrix rather than rounding.
UNIMODULAR_TOL = 1e-10

# The octagon's symmetric powers lose two to three digits per step of d: its
# relator residual is 2e-9 at d = 4, 5e-7 at d = 5, 1.2e-4 at d = 6 and 0.18
# at d = 7, and at d = 8 the generators miss unit determinant.  Depths above
# the bound are refused; up to it the residual must stay within OCTAGON_TOL.
OCTAGON_MAX_D = 5
OCTAGON_TOL = 1e-6


class OctagonPrecisionError(ValueError):
    """The octagon builder cannot reach the requested depth in double precision."""


class RelatorWord:
    """Cyclic word of signed generators; each generator occurs twice, once
    inverted.  Read-only."""

    __setattr__ = __delattr__ = al.frozen_attribute

    def __init__(self, symbols: Tuple[Tuple[str, int], ...]):
        seen: Dict[str, List[int]] = {}
        for name, exp in symbols:
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {exp}")
            seen.setdefault(name, []).append(exp)
        for name, exps in seen.items():
            if sorted(exps) != [-1, 1]:
                raise ValueError(f"generator {name} must occur exactly twice, once inverted")
        vars(self).update(symbols=symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def generators(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(name for name, _ in self.symbols))

    def rotated(self, k: int) -> "RelatorWord":
        k %= len(self.symbols)
        return RelatorWord(self.symbols[k:] + self.symbols[:k])


def standard_relator(g: int) -> RelatorWord:
    if g < 2:
        raise ValueError(f"genus {g} < 2")
    syms: List[Tuple[str, int]] = []
    for i in range(1, g + 1):
        syms += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
    return RelatorWord(tuple(syms))


def unit_determinant(m: np.ndarray) -> np.ndarray:
    """Rescale to determinant one by a principal d-th root."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    det = np.linalg.det(m)
    if abs(det) < SINGULAR_DET:
        raise ValueError("matrix is singular")
    return m / det ** (1.0 / d)


class LiftedRep(NamedTuple):
    """One unit-determinant lift per generator; inverted occurrences use the
    matrix inverse, so paired positions agree by construction."""

    relator: RelatorWord
    d: int
    matrices: Mapping[str, np.ndarray]

    def product(self) -> np.ndarray:
        syms = self.relator.symbols
        inverses = iter(np.linalg.inv(np.stack([self.matrices[n] for n, e in syms if e == -1])))
        return functools.reduce(np.matmul, [self.matrices[n] if e == 1 else next(inverses)
                                            for n, e in syms], np.eye(self.d, dtype=complex))


def lifted_rep(relator: RelatorWord, matrices: Mapping[str, np.ndarray],
               tol: float = DET_TOL) -> LiftedRep:
    mats: Dict[str, np.ndarray] = {}
    d = None
    for name in relator.generators():
        if name not in matrices:
            raise ValueError(f"missing matrix for generator {name}")
        m = np.asarray(matrices[name], dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix for {name} is not square")
        if d is None:
            d = m.shape[0]
        elif m.shape[0] != d:
            raise ValueError("generator matrices have mixed sizes")
        mats[name] = m
    assert d is not None
    # every check in one stacked call; the first bad generator is named.  A
    # non-finite entry is refused first: its nan determinant fails no comparison
    stack = np.array(list(mats.values()))
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"matrix for {list(mats)[finite.argmin()]} has a non-finite entry")
    bad = np.abs(np.linalg.det(stack) - 1.0) > tol
    if bad.any():
        raise ValueError(f"matrix for {list(mats)[bad.argmax()]} does not have unit determinant")
    return LiftedRep(relator=relator, d=d, matrices=mats)


class ObValue(NamedTuple):
    value: al.GroupElement
    residue: int
    residual: float


def ob(rep: LiftedRep, scalar_tol: float = SCALAR_TOL) -> ObValue:
    return _scalar_classes(rep.product()[None], scalar_tol)[0]


def _scalar_classes(products: np.ndarray, scalar_tol: float) -> List[ObValue]:
    """ob of each relator product in a stack; the first that is not a scalar
    d-th root of unity raises.  A norm is summed as `np.linalg.norm` sums one
    matrix (two dot products, real and imaginary parts): a stack of one is ob."""
    n, d, _ = products.shape
    scalars = np.trace(products, axis1=1, axis2=2) / d
    flat = np.concatenate([products - scalars[:, None, None] * np.eye(d), products])
    re, im = (x.reshape(2 * n, 1, -1) for x in (flat.real, flat.imag))
    norm = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel()
    out = []
    for s, off in zip(scalars.tolist(), (norm[:n] / np.maximum(norm[n:], NORM_FLOOR)).tolist()):
        if not off <= scalar_tol:  # an overflowed product gives nan, which must not pass
            raise ValueError(f"relator product is not scalar (off-scalar residual {off:.3e})")
        k, residual = al.snap_torsion(al.cylinder(math.log(abs(s)), cmath.phase(s)), d)
        if residual > scalar_tol:
            raise ValueError(f"scalar {s} is not a {d}-th root of unity (residual {residual:.3e})")
        out.append(ObValue(al.torsion_element("cylinder", d, k), k, max(residual, off)))
    return out


# -- builders -----------------------------------------------------------------


def identity_rep(d: int, g: int = 2) -> LiftedRep:
    rel = standard_relator(g)
    eye = np.eye(d, dtype=complex)
    return lifted_rep(rel, {name: eye for name in rel.generators()})


def clock_shift_rep(d: int, g: int = 2) -> LiftedRep:
    if d < 2:
        raise ValueError(f"d={d} < 2")
    rel = standard_relator(g)
    omega = cmath.exp(2j * math.pi / d)
    shift = unit_determinant(np.roll(np.eye(d, dtype=complex), 1, axis=0))
    clock = unit_determinant(np.diag([omega ** k for k in range(d)]))
    mats = {name: np.eye(d, dtype=complex) for name in rel.generators()}
    return lifted_rep(rel, {**mats, "a1": shift, "b1": clock})


def diagonal_rep(d: int, g: int, rng: random.Random) -> LiftedRep:
    rel = standard_relator(g)
    mats = {}
    for name in rel.generators():
        entries = [cmath.exp(complex(rng.gauss(0, 0.5), rng.uniform(0, al.TWO_PI)))
                   for _ in range(d - 1)]
        entries.append(1.0 / np.prod(entries))
        mats[name] = np.diag(entries)
    return lifted_rep(rel, mats)


def symmetric_power(m: np.ndarray, d: int) -> np.ndarray:
    """Induced action on degree d-1 binary forms, in the binomial-weighted
    monomial basis."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if abs(np.linalg.det(m) - 1.0) > UNIMODULAR_TOL:
        raise ValueError("determinant violation: input must be unimodular")
    a, b = m[0, 0], m[0, 1]
    c, e = m[1, 0], m[1, 1]
    out = np.zeros((d, d), dtype=complex)
    for col in range(1, d + 1):
        first = np.array([math.comb(d - col, p) * a ** (d - col - p) * c ** p
                          for p in range(d - col + 1)])
        second = np.array([math.comb(col - 1, q) * b ** (col - 1 - q) * e ** q
                           for q in range(col)])
        weights = [math.comb(d - 1, col - 1) / math.comb(d - 1, t) for t in range(d)]
        out[:, col - 1] = np.multiply(weights, np.convolve(first, second))
    return out


_OCTAGON_WORD = RelatorWord((("g0", 1), ("g1", -1), ("g2", 1), ("g3", -1),
                             ("g0", -1), ("g1", 1), ("g2", -1), ("g3", 1)))


def fuchsian_octagon(d: int = 2) -> LiftedRep:
    """Hyperbolic-translation generators of a regular-octagon genus-2 group,
    optionally pushed through the degree d-1 symmetric power.

    The relator product is verified to be the identity before returning.
    Raises `OctagonPrecisionError` for d > OCTAGON_MAX_D, or if the relator
    residual exceeds OCTAGON_TOL.
    """
    if d > OCTAGON_MAX_D:
        raise OctagonPrecisionError(
            f"octagon depth {d} exceeds {OCTAGON_MAX_D}, the limit of double precision")
    s2 = math.sqrt(2.0)
    base = np.array([[1 + s2, math.sqrt(2 + 2 * s2)],
                     [math.sqrt(2 + 2 * s2), 1 + s2]], dtype=complex)

    def rot(phi: float) -> np.ndarray:
        ch, sh = math.cos(phi / 2), math.sin(phi / 2)
        return np.array([[ch, sh], [-sh, ch]], dtype=complex)

    gens = {}
    for k in range(4):
        r = rot(k * math.pi / 4)
        m = unit_determinant(r @ base @ r.T)
        gens[f"g{k}"] = m if d == 2 else symmetric_power(m, d)
    rep = lifted_rep(_OCTAGON_WORD, gens)
    resid = np.linalg.norm(rep.product() - np.eye(d)) / math.sqrt(d)
    if resid > OCTAGON_TOL:
        raise OctagonPrecisionError(f"octagon relator residual degraded to {resid:.3e}")
    return rep


# -- invariance checks ----------------------------------------------------------


def lift_independence(rep: LiftedRep, rng: Optional[random.Random] = None,
                      tol: float = al.DEFAULT_TOL) -> bool:
    """ob is unchanged by rescaling each generator by a random d-th root of
    unity and by rotating the relator 1, 4 and len - 1 places."""
    rng = rng or random.Random(0)
    d, n, names = rep.d, len(rep.relator), list(rep.matrices)
    plain = np.stack(list(rep.matrices.values()))
    roots = np.array([cmath.exp(2j * math.pi * rng.randrange(d) / d) for _ in names])
    gens = np.concatenate([plain, plain * roots[:, None, None]])
    table = np.concatenate([gens, np.linalg.inv(gens)])
    # rows of `table`: plain generators, rescaled ones, then their inverses;
    # row i of `factors` holds position i of each of the five relator words
    at = [names.index(name) + (0 if exp == 1 else len(gens)) for name, exp in rep.relator.symbols]
    factors = table[[(at[i], at[i] + len(names), at[(i + 1) % n], at[(i + 4) % n], at[i - 1])
                     for i in range(n)]]
    reference, *variants = _scalar_classes(functools.reduce(np.matmul, factors), SCALAR_TOL)
    return all(x.residue == reference.residue
               and al.elements_equal(x.value, reference.value, tol) for x in variants)
