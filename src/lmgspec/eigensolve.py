"""Eigenvalue machinery.

* The spectral gap, at every integer J, by inverse iteration on LDL^T
  factors of the gap-sector block X^T X (X the supercharge's bidiagonal
  block) that are built from the chain with positive terms only, so the gap
  keeps high relative accuracy (Demmel & Kahan 1990): |gap(J, 0) - 1|
  measured 3.3e-15 at J = 1000, 8.9e-14 at J = 1e6 and 5.6e-12 at J = 1e7.
  The iteration starts from the Holstein-Primakoff one-quasiparticle state,
  which at gamma = 0 is the gap vector itself.
  The cells of one J run as one batch: their factors are built together,
  one array operation for all cells, and stacked into one block-diagonal
  matrix, so each step is one LAPACK dpttrs solve for all cells.
* The smallest eigenvalue of a symmetric tridiagonal by one LAPACK dstebz
  call (eig_symtridiag), absolute error a few ulps of ||t||.
* All eigenvalues of a dense symmetric matrix (LAPACK eigvalsh), for the
  spectra that spectrum and susy-check classify and for cross-checks.
* Characteristic polynomials by a three-term recurrence for tridiagonal
  matrices, used to verify the determinant factorization of the
  non-Hermitian form.

scipy's LAPACK wrappers (dtbtrs, dpttrs, eigvalsh_tridiagonal) are imported
inside the functions that call them, on their first call: importing scipy.linalg
takes about 0.2 s, and nothing else in the package needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    MethodUnavailable,
    NonFiniteInput,
    NotConverged,
    NotIntegerSpin,
    NotSymmetric,
    OverflowRisk,
)
from .models import gap_sector_tridiag
from .spin import SpinJ, ladder
from .tridiag import GeneralTridiag, SymTridiag

__all__ = [
    "CharPoly",
    "GapResult",
    "eig_symtridiag",
    "eig_dense_symmetric",
    "charpoly_tridiag",
    "spectral_gap",
    "spectral_gaps",
]

_EPS = np.finfo(float).eps


def eig_symtridiag(t: SymTridiag) -> np.ndarray:
    """Smallest eigenvalue of a symmetric tridiagonal matrix, as a length-1
    array (empty for an empty matrix, NaN for a non-finite entry).

    One LAPACK dstebz bisection with the absolute tolerance 2*tiny, its most
    accurate setting: the error is a few ulps of ||t||.  scipy's default
    tolerance leaves 2.2e-12 relative at J = 20000, gamma = 0.5 on the gap
    sector block.  No longer on the gap path.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    if t.n == 0:
        return np.empty(0)
    if not (np.isfinite(t.diag).all() and np.isfinite(t.off).all()):
        return np.array([math.nan])
    return eigvalsh_tridiagonal(t.diag, t.off, select="i", select_range=(0, 0),
                                tol=2.0 * np.finfo(float).tiny)


_LDL_CHUNK = 1 << 16


def _gap_ldl_factors(j: SpinJ, gammas: list) -> tuple:
    """(d, l, x), (nb, J) arrays whose row r holds the LDL^T factors of the
    gap-sector block X^T X at -|gammas[r]|, similarity-signed so that every
    d_k > 0 and every l_k < 0, and l[r, J-1] = 0, and the start vector of
    that row's inverse iteration.

    X is the (J+1) x J bidiagonal block of the supercharge, with diagonal
    a_k = e_2k and subdiagonal b_k = e_(2k+1) of supercharge_chain; m -> -m
    maps gamma to -gamma, so the spectrum is that of the block at gamma.  With
    c_k = (b_k/a_k)^2 and u_-1 = 0,
        u_k = c_k (1 + u_(k-1)),   d_k = b_k^2 + a_k^2 / (1 + u_(k-1)),
        l_k = -b_k a_(k+1) / d_k.
    u_k = S_k / psi_(k+1)^2, where S_k are the partial squared norms of the
    zero mode X^T psi = 0; at -|gamma| the zero mode grows along k, so u
    stays bounded.  Every operation adds or multiplies positive numbers, so
    each factor is accurate to a few ulps relative.

    The start vector is x_0 = 1, x_(k+1) = x_k e^(-2|gamma|) v_(2k+2) /
    v_(2k+1), floored at eps, with v the spin ladder.  Each ratio is
    rounded as (v_(2k+2) e^-|gamma|) / (v_(2k+1) e^|gamma|), the ratio of
    two entries of the chain at +|gamma|.  Since v_i^2 - v_(i-1)^2 =
    (J - i)/2, this x satisfies
        (A x)_k = ((J - 2k) sinh 2|gamma| + e^(-2|gamma|)) x_k
    for the sign-flipped block A factored here.  At gamma = 0 every row
    reads 1, so x > 0 is the gap eigenvector; at gamma != 0 it is the
    Holstein-Primakoff one-quasiparticle state, 1.3e-3 in angle from the
    gap vector at J = 400, gamma = 0.5.  The floor keeps subnormals out of
    the solves, which they slow several-fold.

    All rows are built at once.  The chain at -|gamma| is the gamma-free
    chain v (spin.ladder) times e^|gamma| on a and e^-|gamma|
    on b, so v is built once per chunk and each array operation covers
    every row.  The recurrence for u is one unit lower bidiagonal solve
    (LAPACK dtbtrs) over the stacked rows, with coupling 0 at each row
    start, so it rounds each row as it would alone.  One row goes in column
    chunks of _LDL_CHUNK that carry u_(k-1) and x_k across chunk
    boundaries, so that x is one running product, as an unchunked cumprod
    rounds it.  Each chunk after the first starts its solve one column
    early, at the carried u_(s-1), so that dtbtrs rounds u_s as well:
    OpenBLAS rounds c + c u unlike numpy, and a carry added in numpy would
    make the factors depend on _LDL_CHUNK.  A batch of several rows is one
    chunk, at most _LDL_CHUNK wide in all through _batch_rows.  a and b are recomputed from v where
    they are needed rather than stored: apart from d, l and x, the only
    buffer the size of the batch is the dtbtrs band, whose row 0, the unit
    diagonal that dtbtrs does not read, holds a_(k+1) for l.  So the build
    holds at most _LDL_CHUNK doubles more than the iteration that follows.
    """
    from scipy.linalg.lapack import dtbtrs

    n, nb = j.two_j // 2, len(gammas)
    d = np.empty((nb, n))
    l = np.empty((nb, n))
    x = np.empty((nb, n))
    up = np.array([[math.exp(abs(g))] for g in gammas])     # a = v_2k e^|gamma|
    down = np.array([[math.exp(-abs(g))] for g in gammas])  # b = v_(2k+1) e^-|gamma|
    width = min(n, _LDL_CHUNK) if nb == 1 else n  # so each chunk of d and l is contiguous
    band = np.empty((2, nb * width + 1), order="F")
    u_prev = np.zeros(nb)
    x_next = np.ones(nb)
    for s in range(0, n, width):
        t = min(n, s + width)
        size = t - s
        v = ladder(j, 2 * s, min(2 * t + 1, 2 * n))
        # a_s .. a_t (a_t only if t < n) and b_s .. b_(t-1) at gamma = 0,
        # copied once to contiguous arrays since each is read several times
        va, vb = v[0::2].copy(), v[1::2].copy()
        dk, lk = d[:, s:t], l[:, s:t]
        w = d[:, max(s - 1, 0):t]  # the columns the dtbtrs solve runs over
        ab = band[:, :w.size]
        a_next, sub = band[0, :nb * size].reshape(nb, size), ab[1].reshape(w.shape)
        # x_(s+1) .. x_(s+k) and l_s .. l_(s+k-1) need v_(2s+2) .. v_(2s+2k);
        # x_(s+k) is the next chunk's x_t when t < n
        k = va.size - 1
        ratio = x[:, s + 1:s + 1 + k]  # x_(k+1) / x_k until the cumprod
        np.multiply(va[1:], down, out=ratio)    # e_(2k+2) at +|gamma|
        np.multiply(vb[:k], up, out=lk[:, :k])  # e_(2k+1) at +|gamma|
        ratio /= lk[:, :k]
        xk = x[:, s:t]
        xk[:, 0] = x_next
        np.cumprod(xk, axis=1, out=xk)
        if t < n:
            x_next = xk[:, -1] * x[:, t]
        np.maximum(xk, _EPS, out=xk)
        np.multiply(vb, down, out=lk)
        np.multiply(va[:size], up, out=dk)
        np.divide(lk, dk, out=dk)      # b_k / a_k
        np.square(dk, out=dk)          # c_k
        np.negative(w[:, 1:], out=sub[:, :-1])
        sub[:, -1] = 0.0               # rows do not couple
        if s:  # one row: the solve starts at u_(s-1), in d_(s-1)'s place
            d_last, w[0, 0] = w[0, 0], u_prev[0]
        dtbtrs(ab, w.reshape(-1), uplo="L", diag="U", overwrite_b=1)
        if s:
            w[0, 0] = d_last
        lk[:, 0] = u_prev
        lk[:, 1:] = dk[:, :-1]
        lk += 1.0                      # 1 + u_(k-1)
        u_prev = dk[:, -1].copy()
        np.multiply(va[:size], up, out=dk)
        np.square(dk, out=dk)
        dk /= lk
        np.multiply(vb, down, out=lk)
        np.square(lk, out=lk)
        dk += lk
        np.multiply(va[1:], up, out=a_next[:, :k])
        np.multiply(vb[:k], down, out=lk[:, :k])
        lk[:, :k] *= a_next[:, :k]
        lk[:, :k] /= dk[:, :k]
        np.negative(lk[:, :k], out=lk[:, :k])
    l[:, -1] = 0.0
    return d, l, x


_INVIT_MAX_STEPS = 100
_DOT_CHUNK = 8192


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_r . y_r for each row r of two (nb, n) arrays.

    Rows longer than _DOT_CHUNK are summed as np.vecdot over fixed
    _DOT_CHUNK-wide column chunks, each row chunked from its own start, and
    the chunk sums are added by np.add.reduce along the row.  A chunk is one
    short OpenBLAS ddot call, which OpenBLAS runs on one thread, so the bits
    do not depend on the BLAS thread count: measured identical at 1 and 2
    threads at shapes (1, 10^6), (1, 10^7), (1, 65536) and (3, 20001),
    where np.vecdot over whole rows is not.  A batch rounds each row as a
    one-row call does.
    """
    nb, n = x.shape
    if n <= _DOT_CHUNK:
        return np.vecdot(x, y)
    full = n - n % _DOT_CHUNK
    parts = np.vecdot(x[:, :full].reshape(nb, -1, _DOT_CHUNK),
                      y[:, :full].reshape(nb, -1, _DOT_CHUNK))
    if full < n:
        parts = np.column_stack([parts, np.vecdot(x[:, full:], y[:, full:])])
    return np.add.reduce(parts, axis=1)


def _batch_rows(n: int) -> int:
    """Cells per batch of _gap_inverse_iteration at block size n: each row
    array holds at most _LDL_CHUNK doubles, or one row."""
    return max(1, _LDL_CHUNK // n)


def _gap_inverse_iteration(j: SpinJ, gammas: list) -> np.ndarray:
    """Spectral gaps for integer J >= 1, one per gamma, by inverse iteration
    on the LDL^T factors of _gap_ldl_factors, from its start vectors x.

    The cells' factors are the rows of (nb, J) arrays d and l, with l = 0
    at the end of each row, so the stacked block-diagonal matrix decouples
    and each step is one LAPACK dpttrs solve y = A^-1 x for all cells; the
    solve rounds each block exactly as it would alone.  Each block's inverse
    is entrywise positive and x > 0, so y stays positive and every sum in
    the solve and in the dot products (_row_dots) adds positive terms.  Per
    row, the Rayleigh quotient rho = x.y / y.y of y is an upper bound on
    the smallest eigenvalue that never rises in exact arithmetic; the row
    settles at the first step where rho falls by at most 2 eps relative,
    and its gap is the smaller of that step's rho and the one before.  A
    settled row stays in the solve until the last row settles.  Each row of
    d is first scaled by an exact power of two so that its smallest entry,
    an upper bound on the smallest eigenvalue, lies in [1/2, 1): y.y then
    stays in float64 range.  From the one-quasiparticle start a row takes
    2-5 steps at J = 10^6 and |gamma| >= 0.2, where lambda_1/lambda_0 is
    about 2 (12-15 from the zero mode's reciprocal, 27-28 from a flat
    vector), and 2 at gamma = 0, where the start is the gap vector (3 at
    J = 10^7, where the quotient moves by 6e-15 relative between steps 1
    and 2).  At 1e-8 <= |gamma| <= 0.1 the start is further from the gap
    vector and a row takes 7-16 steps at J = 10^6 (10-16 before).
    Raises NotConverged, naming the first unsettled gamma, after
    _INVIT_MAX_STEPS steps.
    """
    from scipy.linalg.lapack import dpttrs

    d, l, x = _gap_ldl_factors(j, gammas)
    nb, n = d.shape
    if n == 1:  # a 1x1 block is its eigenvalue; a lone dpttrs solve rounds unlike a batch
        return d[:, 0]
    k = np.frexp(np.min(d, axis=1))[1]
    np.ldexp(d, -k[:, None], out=d)
    y = np.empty((nb, n))
    scale = 1.0 / np.sqrt(_row_dots(x, x))  # each row of x * scale has unit norm
    gaps = rho_old = np.full(nb, math.inf)
    done = np.zeros(nb, dtype=bool)
    d_flat, l_flat = d.ravel(), l.ravel()[:-1]
    for _ in range(_INVIT_MAX_STEPS):
        np.multiply(x, scale[:, None], out=y)
        y = dpttrs(d_flat, l_flat, y.reshape(-1), overwrite_b=1)[0].reshape(nb, n)
        yy = _row_dots(y, y)
        rho = scale * _row_dots(x, y) / yy
        gaps = np.where(done, gaps, np.minimum(rho, rho_old))
        done |= rho_old - rho <= 2.0 * _EPS * rho
        if done.all():
            return np.ldexp(gaps, k)
        rho_old, x, y = rho, y, x
        scale = 1.0 / np.sqrt(yy)
    raise NotConverged(f"J={j}, gamma={gammas[int(np.argmin(done))]!r}: "
                       f"inverse iteration did not settle in {_INVIT_MAX_STEPS} steps")


def eig_dense_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted ascending.

    LAPACK eigvalsh, O(n^3): susy-check calls it up to dimension 4001.
    Raises DimensionMismatch unless m is a square 2-D matrix (a 0 x 0 one
    has no eigenvalues), NonFiniteInput on a NaN or infinite entry, and
    NotSymmetric where the asymmetry exceeds 1e-12 of the largest entry.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"need a square 2-D matrix, got shape {m.shape}")
    top = float(np.max(np.abs(m), initial=0.0))  # NaN if any entry is NaN
    if not math.isfinite(top):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-12 * max(1.0, top):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    return np.linalg.eigvalsh(0.5 * (m + m.T))


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


@dataclass(frozen=True)
class GapResult:
    gap: float
    bound: float
    satisfied: bool


_DENSE_GAP_MAX_J = 200


def _gap_bound(j: SpinJ, gamma: float) -> float:
    """cosh(2*gamma), after the checks every gap solve makes on (j, gamma)."""
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
    return bound


def _gap_result(j: SpinJ, gamma: float, gap: float, bound: float) -> GapResult:
    if not math.isfinite(gap):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the gap is not finite in float64")
    satisfied = gap >= bound - 1e-9 * max(1.0, bound)
    return GapResult(gap=gap, bound=bound, satisfied=satisfied)


def spectral_gaps(j: SpinJ, gammas) -> list:
    """spectral_gap(j, gamma) for each gamma in gammas, as a list of
    GapResult, bit-identical to the one-gamma calls.

    The cells share J, so they run in batches of _gap_inverse_iteration,
    each holding at most max(1, 2^16 // J) cells: one cell at a time from
    J = 2^16 up, so the memory is that of one spectral_gap call.  Every
    gamma is checked, in order, before any is solved.
    """
    gammas = list(gammas)
    bounds = [_gap_bound(j, g) for g in gammas]
    gaps = []
    if gammas:
        rows = _batch_rows(j.two_j // 2)
        for s in range(0, len(gammas), rows):
            gaps += _gap_inverse_iteration(j, gammas[s:s + rows]).tolist()
    return [_gap_result(j, g, gap, b) for g, gap, b in zip(gammas, gaps, bounds)]


def spectral_gap(j: SpinJ, gamma: float, method: str = "tridiag") -> GapResult:
    """Spectral gap of the SUSY LMG Hamiltonian and its analytic lower bound.

    method="tridiag" (spectral_gaps with one gamma): the smallest eigenvalue
    of the size-J gap-sector block X^T X, X the supercharge's bidiagonal
    block, by inverse iteration on its relatively accurate LDL^T factors
    (_gap_inverse_iteration), one dpttrs solve per step and O(J) memory,
    from the Holstein-Primakoff one-quasiparticle state: 2-6 steps at
    J >= 10^5 for gamma = 0 and |gamma| >= 0.5, up to 16 at small
    |gamma|.  |gap(J, 0) - 1| measured 3.3e-15 at J = 1000, 8.9e-14 at
    J = 1e6 and 5.6e-12 at J = 1e7.  method="dense" diagonalizes the
    block densely (J <= 200 only).
    The bound is cosh(2*gamma); satisfied allows a 1e-9 slack.
    Raises OverflowRisk where the bound, the squared chain or the gap is not
    finite in float64 (from |gamma| ~ 354 at J = 5, earlier at larger J).
    """
    if method == "tridiag":
        return spectral_gaps(j, [gamma])[0]
    bound = _gap_bound(j, gamma)
    if method != "dense":
        raise MethodUnavailable(f"unknown method {method!r}")
    if j.two_j // 2 > _DENSE_GAP_MAX_J:
        raise MethodUnavailable(f"dense gap path limited to J <= {_DENSE_GAP_MAX_J}")
    gap = float(eig_dense_symmetric(gap_sector_tridiag(j, gamma).to_dense())[0])
    return _gap_result(j, gamma, gap, bound)
