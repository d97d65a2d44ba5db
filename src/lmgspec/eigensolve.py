"""Eigenvalue machinery.

* The spectral gap as sigma_min^2 of the supercharge's bidiagonal block: one
  LAPACK dstebz bisection on its zero-diagonal Golub-Kahan form, with high
  relative accuracy (|gap(J, 0) - 1| measured 6.7e-15 at J = 1000 and
  5.7e-14 at J = 20000; within 9.3e-16 relative of a 30-digit mpmath gap for
  J <= 30, |gamma| <= 3).  Used up to J = 20000.
* Above that, the smallest eigenvalue of the gap-sector block by bisection
  with LAPACK dpttrf as the step: faster at large J, absolute error
  ~eps*||block|| ~ eps*J^2.
* A dense symmetric oracle (LAPACK eigvalsh) for desk-scale cross-checks.
* Characteristic polynomials: a three-term recurrence for tridiagonal
  matrices and a Faddeev-LeVerrier trace recursion for small dense matrices,
  used to verify the determinant factorization of the non-Hermitian form.
* The similarity symmetrizer for sign-split tridiagonals and the resulting
  diagonal lower bound, which yields the gap bound cosh(2*gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dpttrf

from .errors import (
    DimensionTooLarge,
    MethodUnavailable,
    NonFiniteInput,
    NotIntegerSpin,
    NotSymmetric,
    OverflowRisk,
    SignViolation,
)
from .models import gap_sector_tridiag, supercharge_chain
from .spin import SpinJ
from .tridiag import GeneralTridiag, SymTridiag

__all__ = [
    "CharPoly",
    "GapResult",
    "eig_symtridiag",
    "supercharge_sigma_min",
    "eig_dense_symmetric",
    "charpoly_tridiag",
    "charpoly_dense",
    "symmetrize_tridiag",
    "diagonal_lower_bound",
    "spectral_gap",
]

_EPS = np.finfo(float).eps


def _guard_scale(t: SymTridiag) -> float:
    hi = max(
        float(np.max(np.abs(t.diag))) if t.n else 0.0,
        float(np.max(np.abs(t.off))) if t.n > 1 else 0.0,
    )
    return _EPS * max(1.0, hi)


def _gershgorin(t: SymTridiag) -> tuple:
    radius = np.zeros(t.n)
    if t.n > 1:
        a = np.abs(t.off)
        radius[:-1] += a
        radius[1:] += a
    lo = float(np.min(t.diag - radius))
    hi = float(np.max(t.diag + radius))
    return lo, hi


_BISECT_ABS_TOL = 1e-12


def eig_symtridiag(t: SymTridiag) -> np.ndarray:
    """Smallest eigenvalue of a symmetric tridiagonal matrix, as a length-1
    array (empty for an empty matrix).

    Bisection from the Gershgorin bounds.  Each step asks LAPACK dpttrf whether
    t - x*I is positive definite: dpttrf runs the LDL^T pivot recurrence of a
    Sturm count and reports a nonzero info at the first pivot <= 0.  The
    bracket stops at width 1e-12 or a few ulps of its ends, so the absolute
    error is ~eps*||t||.  O(n) workspace beyond the two input arrays; a
    block with a non-finite Gershgorin bound returns NaN.
    """
    if t.n == 0:
        return np.empty(0)
    lo, hi = _gershgorin(t)
    hi = hi + _guard_scale(t)  # ensure hi is above the spectrum
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return np.array([math.nan])
    shifted = np.empty(t.n)
    while hi - lo > max(_BISECT_ABS_TOL, 4.0 * _EPS * max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # interval no longer splittable in floats
            break
        np.subtract(t.diag, mid, out=shifted)
        if dpttrf(shifted, t.off, overwrite_d=1)[2] != 0:
            hi = mid
        else:
            lo = mid
    return np.array([0.5 * (lo + hi)])


_STEBZ_ABS_TOL = 2.0 * np.finfo(float).tiny


def supercharge_sigma_min(j: SpinJ, gamma: float) -> float:
    """Smallest positive singular value of the supercharge's bidiagonal block.

    One LAPACK dstebz bisection for the smallest positive eigenvalue of the
    zero-diagonal (Golub-Kahan) tridiagonal of size 2J+1 whose off-diagonal is
    models.supercharge_chain; its eigenvalues are +-sigma_k, plus 0 for
    integer J.  With the absolute tolerance 2*tiny, bisection returns sigma to
    high relative accuracy (Demmel & Kahan 1990).  Squared, it is the spectral
    gap for integer J >= 1 and, for gamma >= 0, the ground energy for
    half-integer J.  Raises OverflowRisk where the squared chain entries,
    which dstebz forms, are not finite in float64.
    """
    k = j.two_j // 2 + 1
    chain = supercharge_chain(j, gamma)
    top = float(np.max(chain, initial=0.0))
    if not math.isfinite(top * top):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the squared supercharge chain overflows")
    return float(eigvalsh_tridiagonal(
        np.zeros(j.dim), chain, select="i",
        select_range=(k, k), lapack_driver="stebz", tol=_STEBZ_ABS_TOL,
    )[0])


def eig_dense_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted ascending.

    Desk-scale oracle (dimension up to a few hundred).  Rejects inputs whose
    asymmetry exceeds 1e-12 of their norm.
    """
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    return np.sort(np.linalg.eigvalsh(0.5 * (m + m.T)))


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial, coefficients stored ascending-degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        return float(np.polynomial.polynomial.polyval(x, self.coeffs))

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        return CharPoly(np.polynomial.polynomial.polymul(self.coeffs, other.coeffs))

    def times_lambda(self) -> "CharPoly":
        """Multiply by the spectral variable (append a zero root)."""
        return CharPoly(np.concatenate([[0.0], self.coeffs]))


_CHARPOLY_TRIDIAG_MAX = 60
_CHARPOLY_DENSE_MAX = 25


def charpoly_tridiag(a: Union[GeneralTridiag, SymTridiag]) -> CharPoly:
    """Characteristic polynomial of a tridiagonal matrix via the three-term
    recurrence p_k = (lam - alpha_k) p_{k-1} - (super_{k-1} sub_{k-1}) p_{k-2}.

    Depends only on the off-diagonal products, so permutation-equivalent and
    similarity-symmetrized matrices give bit-identical coefficients.
    """
    if isinstance(a, SymTridiag):
        a = a.to_general()
    n = a.n
    if n > _CHARPOLY_TRIDIAG_MAX:
        raise DimensionTooLarge(f"dimension {n} exceeds {_CHARPOLY_TRIDIAG_MAX}")
    prod = a.offdiag_products
    p_prev = np.array([1.0])                      # p_0
    p = np.array([-a.alpha[0], 1.0]) if n else np.array([1.0])
    for k in range(1, n):
        # (lam - alpha_k) * p
        term = np.concatenate([[0.0], p]) - a.alpha[k] * np.concatenate([p, [0.0]])
        term[: len(p_prev)] -= prod[k - 1] * p_prev
        p_prev, p = p, term
    return CharPoly(p)


def charpoly_dense(m: np.ndarray) -> CharPoly:
    """Characteristic polynomial of a small dense matrix via the
    Faddeev-LeVerrier trace recursion (conditioning guard: dimension <= 25)."""
    m = np.asarray(m, dtype=np.longdouble)
    n = m.shape[0]
    if n > _CHARPOLY_DENSE_MAX:
        raise DimensionTooLarge(f"dimension {n} exceeds {_CHARPOLY_DENSE_MAX}")
    coeffs = np.zeros(n + 1, dtype=np.longdouble)
    coeffs[n] = 1.0
    work = np.eye(n, dtype=np.longdouble)
    for k in range(1, n + 1):
        work = m @ work
        c = -np.trace(work) / k
        coeffs[n - k] = c
        work = work + c * np.eye(n, dtype=np.longdouble)
    return CharPoly(coeffs.astype(float))


def symmetrize_tridiag(a: GeneralTridiag) -> tuple:
    """Similarity-balance a sign-split tridiagonal: off-diagonal pairs
    (-beta_k, +gamma_k) become (-sqrt(beta_k gamma_k), +sqrt(beta_k gamma_k)).

    Returns (aprime, t_diag) where t_diag is the diagonal of the similarity
    T (t_1 = 1, t_{i+1} = t_i * sqrt(beta_i/gamma_i)) with T A T^-1 = aprime.
    The symmetric part of aprime is exactly its diagonal, which is what makes
    the diagonal lower bound valid.  Requires beta_k, gamma_k > 0 strictly.
    """
    if a.n > 1 and (np.any(a.beta <= 0) or np.any(a.gamma_sub <= 0)):
        raise SignViolation("symmetrizer requires beta_k > 0 and gamma_k > 0")
    w = np.sqrt(a.beta * a.gamma_sub)
    aprime = GeneralTridiag(alpha=a.alpha.copy(), beta=w, gamma_sub=w.copy())
    t_diag = np.ones(a.n)
    if a.n > 1:
        ratios = np.sqrt(a.beta / a.gamma_sub)   # t_{i+1} = t_i * sqrt(beta_i/gamma_i)
        t_diag[1:] = np.cumprod(ratios)
    return aprime, t_diag


def diagonal_lower_bound(aprime: GeneralTridiag) -> float:
    """min over the diagonal of a balanced sign-split tridiagonal; a lower
    bound on its smallest (real) eigenvalue because the symmetric part is
    diagonal and the antisymmetric part has zero Rayleigh quotient."""
    return float(np.min(aprime.alpha))


@dataclass(frozen=True)
class GapResult:
    gap: float
    bound: float
    satisfied: bool


_DENSE_GAP_MAX_J = 200
# Up to this J the gap comes from the chain, to a few ulps relative.  Above
# it the dpttrf bisection is used: 3-4x faster (39 ms against 136 ms at
# J = 1e5), with absolute error ~eps*J^2.
_CHAIN_MAX_J = 20000


def spectral_gap(j: SpinJ, gamma: float, method: str = "tridiag") -> GapResult:
    """Spectral gap of the SUSY LMG Hamiltonian and its analytic lower bound.

    method="tridiag": for J <= 20000 the gap is supercharge_sigma_min squared,
    one LAPACK dstebz call accurate to a few ulps relative; above that it is
    the smallest eigenvalue of the size-J gap-sector block by dpttrf
    bisection (eig_symtridiag), with absolute error ~eps*J^2.  Both use O(J)
    memory.  method="dense" diagonalizes the block densely (J <= 200 only).
    The bound is cosh(2*gamma); satisfied allows a 1e-9 slack.
    Raises OverflowRisk where the bound, the squared chain or the gap is not
    finite in float64 (from |gamma| ~ 354 at J = 5, earlier at larger J).
    """
    if not math.isfinite(gamma):
        raise NonFiniteInput(f"gamma must be finite, got {gamma!r}")
    if not j.is_integer_spin() or j.two_j < 2:
        raise NotIntegerSpin("the spectral gap is defined for integer J >= 1")
    jj = j.two_j // 2
    try:
        bound = math.cosh(2.0 * gamma)
    except OverflowError:
        bound = math.inf
    # The block's entries, sums of two squared chain entries, and the
    # intermediates that build them stay below bound * J(J+2).
    if not math.isfinite(bound * jj * (jj + 2.0)):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the bound or the squared chain overflows")
    if method == "tridiag":
        if jj <= _CHAIN_MAX_J:
            gap = supercharge_sigma_min(j, gamma) ** 2
        else:
            t = gap_sector_tridiag(j, gamma)
            gap = float(eig_symtridiag(t)[0])
    elif method == "dense":
        if jj > _DENSE_GAP_MAX_J:
            raise MethodUnavailable(f"dense gap path limited to J <= {_DENSE_GAP_MAX_J}")
        gap = float(eig_dense_symmetric(gap_sector_tridiag(j, gamma).to_dense())[0])
    else:
        raise MethodUnavailable(f"unknown method {method!r}")
    if not math.isfinite(gap):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the gap is not finite in float64")
    satisfied = gap >= bound - 1e-9 * max(1.0, bound)
    return GapResult(gap=gap, bound=bound, satisfied=satisfied)
