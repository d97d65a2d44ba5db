"""Eigenvalue machinery.

* The spectral gap as sigma_min^2 of the supercharge's bidiagonal block: one
  LAPACK dstebz bisection on its zero-diagonal Golub-Kahan form, with high
  relative accuracy (|gap(J, 0) - 1| measured 6.7e-15 at J = 1000 and
  5.7e-14 at J = 20000; within 9.3e-16 relative of a 30-digit mpmath gap for
  J <= 30, |gamma| <= 3).  Used up to J = 20000.
* Above that, inverse iteration on LDL^T factors of the gap-sector block
  X^T X (X the same bidiagonal block) that are built from the chain with
  positive terms only, so the gap keeps high relative accuracy and each step
  is one LAPACK dpttrs solve (|gap(J, 0) - 1| measured 1.7e-13 at J = 1e6
  and 5.5e-12 at J = 1e7).
* The smallest eigenvalue of a symmetric tridiagonal by dpttrf bisection
  (eig_symtridiag), absolute error ~eps*||t||; no longer on the gap path.
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
from scipy.linalg.lapack import dpttrf, dpttrs, dtbtrs

from .errors import (
    DimensionTooLarge,
    MethodUnavailable,
    NonFiniteInput,
    NotConverged,
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


_LDL_CHUNK = 1 << 16


def _gap_ldl_factors(j: SpinJ, gamma: float) -> tuple:
    """(d, l): the LDL^T factors of the gap-sector block X^T X at -|gamma|,
    similarity-signed so that every d_k > 0 and every l_k < 0.

    X is the (J+1) x J bidiagonal block of the supercharge, with diagonal
    a_k = e_2k and subdiagonal b_k = e_(2k+1) of supercharge_chain; m -> -m
    maps gamma to -gamma, so the spectrum is that of the block at gamma.  With
    c_k = (b_k/a_k)^2 and u_-1 = 0,
        u_k = c_k (1 + u_(k-1)),   d_k = b_k^2 + a_k^2 / (1 + u_(k-1)),
        l_k = -b_k a_(k+1) / d_k.
    u_k = S_k / psi_(k+1)^2, where S_k are the partial squared norms of the
    zero mode X^T psi = 0; at -|gamma| the zero mode grows along k, so u
    stays bounded.  Every operation adds or multiplies positive numbers, so
    each factor is accurate to a few ulps relative.  The recurrence for u is
    a unit lower bidiagonal solve (LAPACK dtbtrs), run on chunks of the
    chain that carry u_(k-1) across chunk boundaries.  l has length
    max(J-1, 1): the dpttrs wrapper wants a length-1 l at J = 1.
    """
    n = j.two_j // 2
    d = np.empty(n)
    l = np.zeros(max(n - 1, 1))
    band = np.empty((2, min(n, _LDL_CHUNK)), order="F")  # row 0 (unit diagonal) is unread
    u_prev = 0.0
    for s in range(0, n, _LDL_CHUNK):
        t = min(n, s + _LDL_CHUNK)
        size = t - s
        e = supercharge_chain(j, -abs(gamma), 2 * s, min(2 * t + 1, 2 * n))
        a, b = e[0::2], e[1::2]        # a_s .. a_t (a_t only if t < n), b_s .. b_(t-1)
        u = np.square(b / a[:size])    # c_k
        np.negative(u[1:], out=band[1, :size - 1])
        u[0] += u[0] * u_prev          # u_(s-1) from the previous chunk
        dtbtrs(band[:, :size], u, uplo="L", diag="U", overwrite_b=1)
        one_plus = np.empty(size)
        one_plus[0] = u_prev
        one_plus[1:] = u[:-1]
        one_plus += 1.0
        u_prev = float(u[-1])
        dk = d[s:t]
        np.square(a[:size], out=dk)
        dk /= one_plus
        dk += np.square(b)
        k = a.size - 1                 # l_s .. l_(s+k-1) need a_(s+1) .. a_(s+k)
        lk = l[s:s + k]
        np.multiply(b[:k], a[1:], out=lk)
        lk /= dk[:k]
        np.negative(lk, out=lk)
    return d, l


_INVIT_MAX_STEPS = 100


def _gap_inverse_iteration(j: SpinJ, gamma: float) -> float:
    """Spectral gap for integer J >= 1 by inverse iteration on the LDL^T
    factors of _gap_ldl_factors.

    Each step is one LAPACK dpttrs solve y = A^-1 x on a positive vector
    (the signed block's inverse is entrywise positive, so y stays positive
    and every sum in the solve and in the dot products adds positive terms),
    followed by the Rayleigh quotient rho = x.y / y.y of y.  rho never rises
    in exact arithmetic; the iteration stops once it falls by at most 2 eps
    relative.  d is first scaled by an exact power of two so that its
    smallest entry, an upper bound on the smallest eigenvalue, lies in
    [1/2, 1): y.y then stays in float64 range.  It takes 8-11 steps at
    gamma = 0 and about 27 at large J and gamma != 0, where lambda_1/lambda_0
    is about 2.  Raises NotConverged after _INVIT_MAX_STEPS steps.
    """
    d, l = _gap_ldl_factors(j, gamma)
    k = math.frexp(float(np.min(d)))[1]
    np.ldexp(d, -k, out=d)
    x = np.ones(d.size)
    y = np.empty(d.size)
    scale = 1.0 / math.sqrt(d.size)    # x * scale has unit norm
    rho_old = math.inf
    for _ in range(_INVIT_MAX_STEPS):
        np.multiply(x, scale, out=y)
        y = dpttrs(d, l, y, overwrite_b=1)[0]
        yy = float(y @ y)
        rho = scale * float(x @ y) / yy
        if rho_old - rho <= 2.0 * _EPS * rho:
            return math.ldexp(rho, k)
        rho_old = rho
        x, y = y, x
        scale = 1.0 / math.sqrt(yy)
    raise NotConverged(
        f"J={j}, gamma={gamma!r}: inverse iteration did not settle in {_INVIT_MAX_STEPS} steps")


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
# Up to this J the gap comes from the chain; above it from inverse iteration
# on the LDL^T factors.  Both are accurate to a few ulps relative.
_CHAIN_MAX_J = 20000


def spectral_gap(j: SpinJ, gamma: float, method: str = "tridiag") -> GapResult:
    """Spectral gap of the SUSY LMG Hamiltonian and its analytic lower bound.

    method="tridiag": for J <= 20000 the gap is supercharge_sigma_min squared,
    one LAPACK dstebz call accurate to a few ulps relative; above that it is
    the smallest eigenvalue of the size-J gap-sector block by inverse
    iteration on its relatively accurate LDL^T factors
    (_gap_inverse_iteration), one dpttrs solve per step, with relative error
    measured at 1.7e-13 at J = 1e6 and 5.5e-12 at J = 1e7 (gamma = 0).  Both
    use O(J) memory.  method="dense" diagonalizes the block densely
    (J <= 200 only).
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
            gap = _gap_inverse_iteration(j, gamma)
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
