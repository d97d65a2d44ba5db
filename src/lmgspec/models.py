"""Hamiltonian builders for the antiferromagnetic LMG collective-spin model.

Four equivalent forms (all with identical spectra at the SUSY point):

* general form          xi * (chi1^2 Jz^2 + chi2^2 Jy^2 + lambda chi1 chi2 Jx)
* rotated SUSY form     Jx^2 cosh^2(g) + Jy^2 sinh^2(g) + Jz cosh(g) sinh(g)
* factorized form       exp(-g Jx) Jz exp(2 g Jx) Jz exp(-g Jx)
* non-Hermitian form    Jz^2 cosh(2g) + Ky Jz sinh(2g)

plus the SUSY-sector blocks, from the same closed-form bands as the rotated
form, and the H+/H- blocks of the non-Hermitian form.  Real arithmetic
(Jy^2 = -Ky@Ky).  The SUSY forms are in units of chi1^2 - chi2^2 = 1: that
scale only multiplies H, so the spectrum, the gap and cosh(2g) scale together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NotIntegerSpin, OverflowRisk
from .spin import SpinJ, build_spin_operators
from .tridiag import GeneralTridiag, SymTridiag

__all__ = [
    "ModelParams",
    "HnBlocks",
    "build_lmg_general",
    "build_susy_rotated",
    "build_factorized",
    "build_nonhermitian",
    "extract_hn_blocks",
    "h_minus_elements",
    "susy_sector_blocks",
    "gap_sector_tridiag",
    "supercharge_chain",
]


@dataclass(frozen=True)
class ModelParams:
    """LMG couplings (xi, chi1, chi2, lam) of the general model; xi = lam = 1,
    chi1 = cosh(g), chi2 = sinh(g) is the SUSY point."""

    xi: float
    chi1: float
    chi2: float
    lam: float


def build_lmg_general(j: SpinJ, p: ModelParams) -> np.ndarray:
    """General LMG Hamiltonian xi*(chi1^2 Jz^2 + chi2^2 Jy^2 + lam chi1 chi2 Jx).

    Raises OverflowRisk unless 8 (1 + |xi|) (chi1^2 + chi2^2 +
    |lam chi1 chi2|) J(J+1), which bounds 8x every entry before and after
    the scaling by xi, is finite: a NaN or infinite coupling fails it too.
    """
    jj = j.two_j / 2.0
    bound = 8.0 * (1.0 + abs(p.xi)) * (
        p.chi1 * p.chi1 + p.chi2 * p.chi2 + abs(p.lam * p.chi1 * p.chi2))
    if not math.isfinite(bound * jj * (jj + 1.0)):
        raise OverflowRisk(f"J={j}, {p}: the Hamiltonian's entries are not finite in float64")
    s = build_spin_operators(j)
    jy2 = -(s.ky @ s.ky)
    return p.xi * (
        p.chi1**2 * (s.jz @ s.jz) + p.chi2**2 * jy2 + p.lam * p.chi1 * p.chi2 * s.jx
    )


def _check_gamma(j: SpinJ, gamma: float) -> None:
    """Raise unless 2 cosh^2(g) J(J+1) is finite in float64.

    That product bounds every entry of the Hamiltonian forms below and of the
    sector blocks (cosh 2g < 2 cosh^2 g), and every entry of the m + m.T that
    eig_dense_symmetric forms from the rotated one.  NonFiniteInput for a NaN
    or infinite gamma; OverflowRisk past the bound (from |gamma| ~ 354 at
    J = 2).
    """
    if not math.isfinite(gamma):
        raise NonFiniteInput(f"gamma must be finite, got {gamma!r}")
    jj = j.two_j / 2.0
    try:
        c = math.cosh(gamma)
    except OverflowError:
        c = math.inf
    if not math.isfinite(2.0 * c * c * jj * (jj + 1.0)):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the Hamiltonian's entries overflow float64")


def build_susy_rotated(j: SpinJ, gamma: float) -> np.ndarray:
    """Rotated SUSY Hamiltonian Jx^2 cosh^2(g) + Jy^2 sinh^2(g) + Jz cosh(g)sinh(g),
    any J, filled from its closed-form diagonal and +-2 off-diagonals."""
    _check_gamma(j, gamma)
    band = _sym_block(j, gamma, j.m_values())
    h = np.diag(band.diag)
    i = np.arange(j.dim - 2)
    h[i, i + 2] = h[i + 2, i] = band.off[:-1]
    return h


def build_factorized(j: SpinJ, gamma: float) -> np.ndarray:
    """Factorized Hamiltonian exp(-g Jx) Jz exp(2 g Jx) Jz exp(-g Jx).

    Evaluated through the equivalent first-order product F^T F with
    F = Jz cosh(g) - Ky sinh(g): the hyperbolic rotation identity collapses
    the exponential chain to this form exactly, and the product form avoids
    the e^(4gJ) intermediate blow-up of the exponential chain (which loses
    all significant digits already around g*J ~ 15).  Symmetric positive
    semidefinite by construction; same spectrum as the other forms, and the
    frame in which the closed-form zero mode lives.
    """
    _check_gamma(j, gamma)
    s = build_spin_operators(j)
    f = math.cosh(gamma) * s.jz - math.sinh(gamma) * s.ky
    return f.T @ f


def build_nonhermitian(j: SpinJ, gamma: float) -> np.ndarray:
    """Non-Hermitian similar Hamiltonian Jz^2 cosh(2g) + Ky Jz sinh(2g).

    For integer J the m=0 column vanishes identically, exposing |m_z=0> as a
    null state.
    """
    _check_gamma(j, gamma)
    s = build_spin_operators(j)
    return math.cosh(2.0 * gamma) * (s.jz @ s.jz) + math.sinh(2.0 * gamma) * (s.ky @ s.jz)


def _general_from_dense(block: np.ndarray) -> GeneralTridiag:
    return GeneralTridiag(
        alpha=np.diag(block).copy(),
        beta=-np.diag(block, 1).copy(),
        gamma_sub=np.diag(block, -1).copy(),
    )


@dataclass(frozen=True)
class HnBlocks:
    """H-, H+ and the m=0 coupling row of the non-Hermitian Hamiltonian.

    ``a_vec`` is the m=0 row over the negative-m columns ordered outward from
    m=-1 (nearest-neighbour coupling first); by the reflection symmetry of
    the model the positive-m half of the row is the same vector.
    """

    h_minus: GeneralTridiag
    h_plus: GeneralTridiag
    a_vec: np.ndarray


def extract_hn_blocks(hn: np.ndarray, j: SpinJ) -> HnBlocks:
    """Slice the non-Hermitian Hamiltonian into H- (m<0), H+ (m>0) and <a|."""
    if not j.is_integer_spin():
        raise NotIntegerSpin("block extraction needs the m=0 row, i.e. integer J")
    jj = j.two_j // 2
    h_minus = _general_from_dense(hn[:jj, :jj])
    h_plus = _general_from_dense(hn[jj + 1:, jj + 1:])
    a_vec = hn[jj, :jj][::-1].copy()
    return HnBlocks(h_minus=h_minus, h_plus=h_plus, a_vec=a_vec)


def h_minus_elements(j: SpinJ, gamma: float) -> GeneralTridiag:
    """H- built directly from its closed-form matrix elements.

    Indices m, m' = -J .. -1 ascending; diagonal m^2 cosh(2g), off-diagonals
    proportional to sinh(2g) with opposite signs above and below.  Must agree
    entrywise with extract_hn_blocks' slice, so it takes build_nonhermitian's guard.
    """
    if not j.is_integer_spin():
        raise NotIntegerSpin("H- is defined for integer J")
    jj = j.two_j // 2
    if jj < 1:
        raise NotIntegerSpin("H- needs J >= 1")
    _check_gamma(j, gamma)
    c2, s2 = math.cosh(2.0 * gamma), math.sinh(2.0 * gamma)
    m = np.arange(-jj, 0, dtype=float)
    alpha = m * m * c2
    # superdiagonal (row m, col m+1): -(m'/2)sqrt((J+m')(J-m'+1)) sinh(2g), m' = m+1
    mp = m[1:]
    sup = -(mp / 2.0) * np.sqrt((jj + mp) * (jj - mp + 1.0)) * s2
    # subdiagonal (row m, col m-1): +(m'/2)sqrt((J-m')(J+m'+1)) sinh(2g), m' = m-1
    mq = m[:-1]
    sub = (mq / 2.0) * np.sqrt((jj - mq) * (jj + mq + 1.0)) * s2
    return GeneralTridiag(alpha=alpha, beta=-sup, gamma_sub=sub)


def _sym_block(j: SpinJ, gamma: float, m: np.ndarray) -> SymTridiag:
    """Symmetric tridiagonal block of the rotated Hamiltonian on the float
    m-range m: diag is <m|H|m> and off[i] is <m_i + 2|H|m_i>, the coupling of
    neighbours where consecutive entries of m differ by 2."""
    jj = j.two_j / 2.0
    c2, s2 = math.cosh(2.0 * gamma), math.sinh(2.0 * gamma)
    diag = 0.5 * (jj * (jj + 1.0) - m * m) * c2 + 0.5 * m * s2
    mm = m[:-1]
    off = 0.25 * np.sqrt((jj - mm) * (jj + mm + 1.0) * (jj - mm - 1.0) * (jj + mm + 2.0))
    return SymTridiag(diag=diag, off=off)


def susy_sector_blocks(j: SpinJ, gamma: float) -> tuple:
    """(zero_sector, gap_sector) blocks of the rotated SUSY Hamiltonian.

    The zero sector {m : m == J (mod 2)} has size J+1 and contains the zero
    mode plus one member of each excited doublet; the gap sector has size J
    and its smallest eigenvalue is the spectral gap.  For even J these are
    the (even, odd) m-parity blocks; for odd J the labels swap.  At J = 0 the
    zero sector is the 1x1 zero block and the gap sector is empty.
    """
    if not j.is_integer_spin():
        raise NotIntegerSpin("SUSY sector blocks need integer J")
    _check_gamma(j, gamma)
    jj = j.two_j // 2
    zero_sector = _sym_block(j, gamma, np.arange(-jj, jj + 1, 2, dtype=float))
    gap_sector = _sym_block(j, gamma, np.arange(-jj + 1, jj, 2, dtype=float))
    return zero_sector, gap_sector


def gap_sector_tridiag(j: SpinJ, gamma: float) -> SymTridiag:
    """The gap sector block of susy_sector_blocks, {m = -J+1, ..., J-1}: size
    J, for integer J >= 1."""
    if j.two_j < 2:
        raise NotIntegerSpin("gap sector needs J >= 1")
    return susy_sector_blocks(j, gamma)[1]


def chain_magnitudes(j: SpinJ, start: int = 0, stop=None) -> np.ndarray:
    """supercharge_chain at gamma = 0: v_m = sqrt((J-m)(J+m+1))/2 with
    m = i - J for i = start .. stop-1 (default: all, i < 2J)."""
    jj = j.two_j / 2.0
    m = np.arange(start, j.two_j if stop is None else stop) - jj
    return 0.5 * np.sqrt((jj - m) * (jj + m + 1.0))


@np.errstate(over="raise")
def supercharge_chain(j: SpinJ, gamma: float) -> np.ndarray:
    """Off-diagonal chain of the supercharge M = Jx cosh(g) + Ky sinh(g), m order.

    e_i = v_m e^(-g) for even i and v_m e^(+g) for odd i, with m = i - J,
    v_m = sqrt((J-m)(J+m+1))/2 and i = 0 .. 2J-1: the entries of M that
    couple the m = -J (mod 2) rows to the other columns, i.e. the bidiagonal
    block build_supercharges slices, walked in Golub-Kahan order.
    The zero-diagonal tridiagonal with this off-diagonal has eigenvalues
    +-sigma_k of that block (and 0 for integer J).
    NonFiniteInput for a NaN or infinite gamma, OverflowRisk past float64.
    """
    if not math.isfinite(gamma):
        raise NonFiniteInput(f"gamma must be finite, got {gamma!r}")
    e = chain_magnitudes(j)
    try:
        e[0::2] *= math.exp(-gamma)
        e[1::2] *= math.exp(gamma)
    except (OverflowError, FloatingPointError):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the chain overflows float64") from None
    return e
