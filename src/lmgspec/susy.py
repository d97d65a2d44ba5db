"""Supercharges, superalgebra verification, and spectrum classification.

Supercharges are built in the SUSY-sorted basis: the zero sector
{m : m == J (mod 2)} of size J+1 first, the gap sector of size J second
(models.susy_sector_blocks).  There they are purely off-block-diagonal and
Q1^2 reproduces the sorted Hamiltonian, the block diagonal of the two sector
blocks.  Q2 is purely imaginary; its real content is r2 with Q2 = i*r2.

verify_superalgebra checks the identities on the dense matrices and is the
oracle; verify_superalgebra_bands checks them on O(J) bands, between the
supercharge chain and the closed-form sector blocks.  The module needs numpy
alone, so susy-check runs without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, EmptySpectrum, NonFiniteInput, NotIntegerSpin, OverflowRisk
from .models import supercharge_chain, susy_sector_blocks
from .spin import SpinJ, build_spin_operators

__all__ = [
    "Supercharges",
    "SuperalgebraResiduals",
    "SpectrumReport",
    "build_supercharges",
    "susy_sorted_hamiltonian",
    "verify_superalgebra",
    "verify_superalgebra_bands",
    "classify_spectrum",
]


@dataclass(frozen=True)
class Supercharges:
    """q1 (symmetric) and r2 (antisymmetric, Q2 = i*r2) in the sorted basis."""

    q1: np.ndarray
    r2: np.ndarray


def susy_sorted_hamiltonian(j: SpinJ, gamma: float) -> np.ndarray:
    """Rotated SUSY Hamiltonian in the supercharge basis, integer J: the
    block diagonal of the zero and gap sector blocks, each ascending in m,
    written into a zero matrix of size 2J+1."""
    zero_sector, gap_sector = susy_sector_blocks(j, gamma)
    k = zero_sector.n
    h = np.zeros((j.dim, j.dim))
    h[:k, :k] = zero_sector.to_dense()
    h[k:, k:] = gap_sector.to_dense()
    return h


@np.errstate(over="raise")
def build_supercharges(j: SpinJ, gamma: float) -> Supercharges:
    """Supercharge pair for integer J.

    Let M = Jx cosh(g) + Ky sinh(g) (the real image of Jx cosh(g) +
    i Jy sinh(g)).  The coupling block is M restricted to (zero-sector rows,
    gap-sector columns), i.e. the even basis indices i = m + J against the
    odd ones, with the gap-sector columns taken in reversed m order; the
    reversal is what makes q1^2 equal the sorted Hamiltonian in both sectors
    simultaneously.  NonFiniteInput for a NaN or infinite gamma, OverflowRisk past float64.
    """
    if not j.is_integer_spin():
        raise NotIntegerSpin("supercharges require integer J (even particle number)")
    if not math.isfinite(gamma):
        raise NonFiniteInput(f"gamma must be finite, got {gamma!r}")
    s = build_spin_operators(j)
    try:
        m1t = math.cosh(gamma) * s.jx + math.sinh(gamma) * s.ky
    except (OverflowError, FloatingPointError):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the supercharges overflow float64") from None
    dim = j.dim
    x = m1t[np.ix_(np.arange(0, dim, 2), np.arange(dim - 2, 0, -2))]
    k = x.shape[0]
    q1 = np.zeros((dim, dim))
    q1[:k, k:] = x
    q1[k:, :k] = x.T
    r2 = np.zeros((dim, dim))
    r2[:k, k:] = -x
    r2[k:, :k] = x.T
    return Supercharges(q1=q1, r2=r2)


@dataclass(frozen=True)
class SuperalgebraResiduals:
    """Max-norm residuals of the four superalgebra identities.

    r_q1_sq   : ||q1^2 - H||
    r_q2_sq   : ||r2^T r2 - H||          (Q2^2 = -r2^2 = r2^T r2)
    r_anti    : ||q1 r2 + r2 q1||        ({Q1, Q2} = 0 in real form)
    r_comm    : max(||[q1, H]||, ||[r2, H]||)
    """

    r_q1_sq: float
    r_q2_sq: float
    r_anti: float
    r_comm: float
    h_norm: float

    def bound(self, tol: float = 1e-10) -> float:
        """The largest residual that passes: tol * max(1, ||H||)."""
        return tol * max(1.0, self.h_norm)

    def passed(self, tol: float = 1e-10) -> bool:
        bound = self.bound(tol)
        return all(
            r <= bound for r in (self.r_q1_sq, self.r_q2_sq, self.r_anti, self.r_comm)
        )


def verify_superalgebra(s: Supercharges, h_sorted: np.ndarray) -> SuperalgebraResiduals:
    """Residuals of the superalgebra against the sector-sorted Hamiltonian."""
    h = np.asarray(h_sorted, dtype=float)
    if s.q1.shape != h.shape or s.r2.shape != h.shape:
        raise DimensionMismatch(
            f"supercharges {s.q1.shape} vs hamiltonian {h.shape}"
        )
    norm = lambda a: float(np.max(np.abs(a))) if a.size else 0.0
    r1 = norm(s.q1 @ s.q1 - h)
    r2 = norm(s.r2.T @ s.r2 - h)
    r3 = norm(s.q1 @ s.r2 + s.r2 @ s.q1)
    r4 = max(norm(s.q1 @ h - h @ s.q1), norm(s.r2 @ h - h @ s.r2))
    return SuperalgebraResiduals(
        r_q1_sq=r1, r_q2_sq=r2, r_anti=r3, r_comm=r4, h_norm=norm(h)
    )


def _max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def verify_superalgebra_bands(j: SpinJ, gamma: float) -> SuperalgebraResiduals:
    """The residuals of verify_superalgebra from O(J) bands, for integer J.

    The Q side is the chain e = models.supercharge_chain (length 2J); the H
    side is the closed-form blocks (Z, G) = models.susy_sector_blocks.  In
    chain order (index i of the size-2J+1 basis walked by e) Q1 is the
    zero-diagonal tridiagonal T with off-diagonal e, and H has diagonal d and
    second off-diagonal s: Z on the even indices and G reversed (G') on the
    odd ones, the reversal of build_supercharges.

    r_q1_sq : T^2 has diagonal e_{i-1}^2 + e_i^2 and second off-diagonal
              e_i e_{i+1} (e_{-1} = e_{2J} = 0); compared with d and s.
    r_comm  : max |[T / 2^k, H]|, whose even-row, odd-column block is
              X'G' - Z X' with X' the (J+1) x J lower bidiagonal with diagonal
              e[0::2] and subdiagonal e[1::2]; the other block is minus its
              transpose.  [T, H] rounds at eps*|T|*|H|, so T is scaled by the
              exact power of two that puts max(e) / 2^k in [1, 2): the
              residual then rounds at eps*|H|, the level of bound(), and no
              product overflows inside the gamma guard.
    r_q2_sq, r_anti : r2 = diag(-I, I) Q1, and Q1 anticommutes with
              D = diag(-I, I), so r2^T r2 = Q1 D D Q1 = Q1^2 and
              Q1 r2 + r2 Q1 = (Q1 D + D Q1) Q1 = 0; likewise
              [r2, H] = D [Q1, H].  Hence r_q2_sq = r_q1_sq and r_anti = 0.
    h_norm  : the largest |entry| of the bands d and s.

    NotIntegerSpin for half-integer J; OverflowRisk where the blocks would
    leave float64 (models' gamma guard).
    """
    z, g = susy_sector_blocks(j, gamma)      # raises past the float64 range
    e = supercharge_chain(j, gamma)
    d = np.empty(j.dim)
    d[0::2], d[1::2] = z.diag, g.diag[::-1]
    s = np.empty(max(j.dim - 2, 0))
    s[0::2], s[1::2] = z.off, g.off[::-1]
    ep = np.concatenate(([0.0], e, [0.0]))      # ep[i + 1] = e_i
    sp = np.concatenate(([0.0], s, [0.0]))      # sp[i + 1] = s_i
    r_sq = _max_abs(ep[:-1] ** 2 + ep[1:] ** 2 - d, e[:-1] * e[1:] - s)
    # [T, H] = TH - HT on its first and third superdiagonals, with T / 2^k
    k = math.frexp(float(np.max(e, initial=0.0)))[1] - 1
    t, tp = np.ldexp(e, -k), np.ldexp(ep, -k)
    first = (t * d[1:] + tp[:-2] * sp[:-1]) - (d[:-1] * t + sp[1:] * tp[2:])
    third = t[:-2] * s[1:] - s[:-1] * t[2:]
    r_comm = _max_abs(first, third)
    return SuperalgebraResiduals(
        r_q1_sq=r_sq, r_q2_sq=r_sq, r_anti=0.0, r_comm=r_comm, h_norm=_max_abs(d, s)
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted spectrum with its SUSY-pattern decomposition."""

    eigenvalues: np.ndarray
    zero_mode: Optional[tuple]          # (value, |value|) or None
    doublets: list = field(default_factory=list)   # (e_lo, e_hi, split)
    unpaired: list = field(default_factory=list)
    verdict: str = "SusyBroken"         # "SusyPattern" | "SusyBroken"
    pair_index: tuple = ()              # per level: doublet id, -1 zero, -2 unpaired


def classify_spectrum(eigs, j: SpinJ, tol: float = 1e-8) -> SpectrumReport:
    """Decompose a sorted spectrum into zero mode + doublets, or report why not.

    SusyPattern requires integer J, exactly one eigenvalue within the scaled
    zero tolerance, and every remaining eigenvalue paired with relative split
    <= tol.  Half-integer spectra pair completely (time-reversal doublets)
    but have no zero mode, hence SusyBroken.  NonFiniteInput on a NaN or inf
    eigenvalue; ValueError unless 0 < tol < inf.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise EmptySpectrum("no eigenvalues to classify")
    if not np.isfinite(eigs).all():
        raise NonFiniteInput("eigenvalues must be finite")
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if np.any(np.diff(eigs) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    scale = max(1.0, float(np.max(np.abs(eigs))))
    zero_tol = tol * scale
    pair_index = np.full(eigs.size, -2, dtype=int)
    zeros = [i for i in range(eigs.size) if abs(eigs[i]) <= zero_tol]
    pair_index[zeros] = -1
    rest = [i for i in range(eigs.size) if abs(eigs[i]) > zero_tol]
    doublets = []
    unpaired = []
    i = 0
    while i < len(rest):
        if i + 1 < len(rest):
            lo, hi = eigs[rest[i]], eigs[rest[i + 1]]
            if abs(hi - lo) <= tol * max(1.0, abs(hi)):
                pair_index[rest[i]] = pair_index[rest[i + 1]] = len(doublets)
                doublets.append((lo, hi, abs(hi - lo)))
                i += 2
                continue
        unpaired.append(eigs[rest[i]])
        i += 1
    pattern = (
        j.is_integer_spin()
        and len(zeros) == 1
        and not unpaired
        and len(doublets) * 2 + 1 == eigs.size
    )
    zero_mode = (eigs[zeros[0]], abs(eigs[zeros[0]])) if len(zeros) == 1 else None
    return SpectrumReport(
        eigenvalues=eigs,
        zero_mode=zero_mode,
        doublets=doublets,
        unpaired=unpaired,
        verdict="SusyPattern" if pattern else "SusyBroken",
        pair_index=tuple(int(p) for p in pair_index),
    )
