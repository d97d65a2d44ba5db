"""Eigenvalue machinery.

* The spectral gap, at every integer J, by inverse iteration on LDL^T
  factors of the gap-sector block X^T X (X the supercharge's bidiagonal
  block) that are built from the chain with positive terms only, so the gap
  keeps high relative accuracy (Demmel & Kahan 1990): |gap(J, 0) - 1|
  measured 3.3e-15 at J = 1000, 8.9e-14 at J = 1e6 and 5.6e-12 at J = 1e7.
  The iteration starts from the Holstein-Primakoff one-quasiparticle state,
  which at gamma = 0 is the gap vector itself.  At gamma != 0 that state
  falls like e^(-2|gamma| k) from the m = -J edge, and the solve reads only
  the leading _gap_window(J, gamma) columns of the block, about
  40/|gamma| rounded up to a power of two: O(1/|gamma|) time and memory,
  not O(J), with every gap bit-identical to the full-length solve.
  A list of (J, gamma) cells, such as a gap-scan's whole grid, runs as
  batches of at most 2^16 doubles per row array, counting each row's
  window (or one cell): the factors of each run of cells with one J and
  window are built together, one array operation for all of them, and all
  rows of a batch form one block-diagonal matrix, so each step is one
  LAPACK dpttrs solve for the batch.  A row leaves the batch once it
  settles.
* The smallest eigenvalue of a symmetric tridiagonal by one LAPACK dstebz
  call (eig_symtridiag), absolute error a few ulps of ||t||.
* All eigenvalues of a dense symmetric matrix (LAPACK eigvalsh), for the
  spectra that spectrum and susy-check classify and for cross-checks.
* Characteristic polynomials by a three-term recurrence for tridiagonal
  matrices, with which acceptance criterion 6 and the tests verify the
  determinant factorization of the non-Hermitian form.

scipy's LAPACK wrappers (dtbtrs, dpttrs, eigvalsh_tridiagonal) are imported
inside the functions that call them, on their first call: importing scipy.linalg
takes about 0.2 s, and nothing else in the package needs scipy.
"""

from __future__ import annotations

import itertools
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
    "spectral_gap_cells",
]

_EPS = np.finfo(float).eps


def eig_symtridiag(t: SymTridiag) -> np.ndarray:
    """Smallest eigenvalue of a symmetric tridiagonal matrix, as a length-1
    array (empty for an empty matrix, NaN for a non-finite entry).

    One LAPACK dstebz bisection with the absolute tolerance 2*tiny, its most
    accurate setting: the error is a few ulps of ||t||.  scipy's default
    tolerance leaves 2.2e-12 relative at J = 20000, gamma = 0.5 on the gap
    sector block.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    if t.n == 0:
        return np.empty(0)
    if not (np.isfinite(t.diag).all() and np.isfinite(t.off).all()):
        return np.array([math.nan])
    return eigvalsh_tridiagonal(t.diag, t.off, select="i", select_range=(0, 0),
                                tol=2.0 * np.finfo(float).tiny)


_LDL_CHUNK = 1 << 16
_ROW_CHUNK = 1 << 14


def _gap_window(j: SpinJ, gamma: float) -> int:
    """The number K of leading columns of the J x J gap-sector block that
    the gap solve of cell (j, gamma) reads: J at gamma = 0, else the
    smallest power of two >= 2 K0, with
        K0 = ceil((ln(1/eps) + ln(e J) / 4) / (2 |gamma|)),
    or J where that power of two exceeds J/2.

    The start vector falls off from the m = -J edge as x_k <= (e k)^(1/4)
    e^(-2|gamma| k), since the ladder ratios v_(2k+2)/v_(2k+1) multiply to
    at most (e k)^(1/4); so x is below eps from column K0 on.  The gap
    moves by less than rounding: by Cauchy interlacing lambda_0(A) <=
    lambda_0(A_K) for the leading K x K block A_K, and for the exact gap
    vector v, lambda_0(A_K) - lambda_0(A) <= o_K v_K v_(K+1) /
    ||v_(1:K)||^2, o_K the block's K-th off-diagonal entry: second order in
    a tail that the factor 2 puts near eps^2 of the peak.  Measured, every
    gap and step count equals the full-length solve's on 3652 cells up to
    J = 10^7; with K0 columns instead of 2 K0, 2 of 49 gaps moved.  The
    power of two gives nearby gammas of one J the same window, so that they
    form one block of their batch.  The comparison with J runs in floats
    before any ceil, so a subnormal gamma gives J.
    """
    n = j.two_j // 2
    if not gamma:
        return n
    k0 = (math.log(1.0 / _EPS) + 0.25 * math.log(math.e * n)) / (2.0 * abs(gamma))
    if 4.0 * k0 > n:  # 2 K0 > J/2; k0 is inf at a subnormal gamma
        return n
    window = 1 << (2 * math.ceil(k0) - 1).bit_length()
    return n if 2 * window > n else window


def _gap_ldl_factors(j: SpinJ, gammas: list, d: np.ndarray, l: np.ndarray,
                     x: np.ndarray) -> None:
    """Write into the (nb, K) arrays d, l and x, K <= J: row r of d and l
    the LDL^T factors of the leading K x K block A_K of the gap-sector block
    X^T X at -|gammas[r]|, similarity-signed so that every d_k > 0 and every
    l_k < 0, and l[r, K-1] = 0; row r of x the start vector of that row's
    inverse iteration, in its first K entries.  The build runs from column
    0 down, so these are, bit for bit, the leading K columns of the
    full-length build (K = J), whose l_(K-1) couples A_K to the rest.

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
    chain v (spin.ladder) times e^|gamma| on a and e^-|gamma| on b, so v is
    built once per chunk, into two reused buffers at even and odd i, and
    each array operation covers every row.  The recurrence for u is one unit
    lower bidiagonal solve (LAPACK dtbtrs) over the stacked rows, with
    coupling 0 at each row start, so it rounds each row as it would alone.
    One row goes in column chunks of _ROW_CHUNK = 2^14, whose working arrays
    stay in a 2 MB L2 cache (at J = 10^7, 2^13 and 2^15 measured alike, 2^12
    and 2^16 8-20% slower), carrying u_(k-1) and x_k across chunk
    boundaries, so that x is one running product, as an unchunked cumprod
    rounds it.  Each chunk after the first starts its solve one column
    early, at the carried u_(s-1), so that dtbtrs rounds u_s as well:
    OpenBLAS rounds c + c u unlike numpy, and a carry added in numpy would
    make the factors depend on _ROW_CHUNK.  Several rows are one chunk, at
    most _LDL_CHUNK = 2^16 doubles in all, since their batch is (_batches).

    Each chunk forms a, in x's place until the start vector takes it, and
    -b, in l's place, once; -b because (-b) a / d rounds as -(b a / d), so
    l needs no negation.  Besides dtbtrs, the ladder and the cumprod, that
    leaves 16 elementwise passes, and each element is rounded by the same
    operations in the same order as in the formulas above.  Apart from d, l
    and x, the buffers the size of a chunk are the dtbtrs band, two doubles
    per element, and one scratch array for 1 + u_(k-1), b^2 and the
    ratios' denominators: at most 3 x 2^16 doubles, against the one array
    y that the iteration adds.
    """
    from scipy.linalg.lapack import dtbtrs

    nb, n = d.shape
    up = np.array([[math.exp(abs(g))] for g in gammas])     # a = v_2k e^|gamma|
    down = np.array([[math.exp(-abs(g))] for g in gammas])  # b = v_(2k+1) e^-|gamma|
    width = min(n, _ROW_CHUNK) if nb == 1 else n  # so each chunk of d and l is contiguous
    band = np.empty((2, nb * width + 1), order="F")
    va, vb, tmp = np.empty(width + 1), np.empty(width), np.empty((nb, width))
    minus_down = -down
    u_prev = np.zeros(nb)
    x_next = np.ones(nb)
    for s in range(0, n, width):
        t = min(n, s + width)
        size = t - s
        # l_s .. l_(s+k-1) and x_(s+1) .. x_(s+k) need v_(2s+2) .. v_(2s+2k);
        # x_(s+k) is the next chunk's x_t when t < n
        k = min(size, n - 1 - s)
        ea = ladder(j, 2 * s, 2 * (s + k) + 1, 2, out=va[:k + 1])  # v_2s .. v_(2s+2k)
        eb = ladder(j, 2 * s + 1, 2 * t, 2, out=vb[:size])         # v_(2s+1) .. v_(2t-1)
        dk, lk, q = d[:, s:t], l[:, s:t], tmp[:, :size]
        a = x[:, s:s + k + 1]  # a_s .. a_(s+k), until the start vector takes their place
        np.multiply(ea, up, out=a)
        np.multiply(eb, minus_down, out=lk)  # -b_s .. -b_(t-1)
        np.divide(lk, a[:, :size], out=dk)
        np.square(dk, out=dk)          # c_k
        w = d[:, max(s - 1, 0):t]  # the columns the dtbtrs solve runs over
        ab = band[:, :w.size]
        sub = ab[1].reshape(w.shape)
        np.negative(w[:, 1:], out=sub[:, :-1])
        sub[:, -1] = 0.0               # rows do not couple
        if s:  # one row: the solve starts at u_(s-1), in d_(s-1)'s place
            d_last, w[0, 0] = w[0, 0], u_prev[0]
        dtbtrs(ab, w.reshape(-1), uplo="L", diag="U", overwrite_b=1)
        if s:
            w[0, 0] = d_last
        np.add(u_prev[:, None], 1.0, out=q[:, :1])
        np.add(dk[:, :-1], 1.0, out=q[:, 1:])  # 1 + u_(k-1)
        u_prev = dk[:, -1].copy()
        np.square(a[:, :size], out=dk)
        dk /= q
        np.square(lk, out=q)
        dk += q
        lk[:, :k] *= a[:, 1:]
        lk[:, :k] /= dk[:, :k]
        ratio = x[:, s + 1:s + 1 + k]  # x_(k+1) / x_k until the cumprod
        np.multiply(ea[1:], down, out=ratio)       # e_(2k+2) at +|gamma|
        np.multiply(eb[:k], up, out=q[:, :k])      # e_(2k+1) at +|gamma|
        ratio /= q[:, :k]
        xk = x[:, s:t]
        xk[:, 0] = x_next
        np.cumprod(xk, axis=1, out=xk)
        if t < n:
            x_next = xk[:, -1] * x[:, t]
        np.maximum(xk, _EPS, out=xk)
    l[:, -1] = 0.0


_INVIT_MAX_STEPS = 100
_DOT_CHUNK = 8192
_SETTLE_LENGTH = 1 << 19


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


def _settle_tol(x: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """The settle tolerance tau of each row of the (nb, n) start vectors
    x, xx = _row_dots(x, x): 2 eps max(1, L / 2^19), with L = (sum x)^2 /
    x.x the row's participation ratio, its effective length.  L <= n, so
    rows of at most 2^19 columns get exactly 2 eps and L is not computed."""
    if x.shape[1] <= _SETTLE_LENGTH:
        return np.full(x.shape[0], 2.0 * _EPS)
    return 2.0 * _EPS * np.maximum(1.0, np.sum(x, axis=1) ** 2 / xx / _SETTLE_LENGTH)


def _batches(cells: list):
    """The (J, gamma) cells in grid order, cut into the batches of
    _gap_inverse_iteration: each row array holds at most _LDL_CHUNK
    doubles, counting each row's _gap_window, or one row, so a cell whose
    window is 2^16 or more runs alone."""
    batch, size = [], 0
    for cell in cells:
        n = _gap_window(*cell)
        if batch and size + n > _LDL_CHUNK:
            yield batch
            batch, size = [], 0
        batch.append(cell)
        size += n
    if batch:
        yield batch


def _blocks(buf: np.ndarray, groups: list) -> list:
    """The (rows, J) block of each group in the flat buffer buf; groups
    lists (first row, rows, J, first element) of each block."""
    return [buf[p:p + m * n].reshape(m, n) for _, m, n, p in groups]


def _compact(bufs: tuple, groups: list, keep: np.ndarray) -> list:
    """Move the kept rows of the flat buffers forward in place, in order, over
    the rows that leave, and return the groups of the kept rows.

    Each run of kept rows is one slice assignment, which numpy copies front
    to back without a temporary: a run that overlaps its new place is read
    before it is overwritten.
    """
    kept = np.add.reduceat(keep, [r for r, _, _, _ in groups]).tolist()
    runs = [0, *(np.flatnonzero(keep[1:] != keep[:-1]) + 1).tolist(), keep.size]
    edges, g = [], 0
    for i in runs:  # each run's first row as an element offset
        while g + 1 < len(groups) and groups[g + 1][0] <= i:
            g += 1
        r, _, n, p = groups[g]
        edges.append(p + (i - r) * n)
    to = 0
    for a, b in zip(edges[1 - keep[0]::2], edges[2 - keep[0]::2]):
        if a > to:
            for buf in bufs:
                buf[to:to + b - a] = buf[a:b]
        to += b - a
    out, r, p = [], 0, 0
    for (_, _, n, _), m in zip(groups, kept):
        if m:
            out.append((r, m, n, p))
            r, p = r + m, p + m * n
    return out


def _gap_inverse_iteration(cells: list) -> np.ndarray:
    """Spectral gaps of one batch of (J, gamma) cells, integer J >= 1, by
    inverse iteration on the LDL^T factors of _gap_ldl_factors, from its
    start vectors x, each row on the leading _gap_window(J, gamma) columns.

    The factors are the rows of flat buffers d and l, each run of cells with
    one J and one window K a (rows, K) block, with l = 0 at the end of each
    row, so the block-diagonal matrix decouples and each step is one LAPACK
    dpttrs solve y = A^-1 x for all rows; the solve rounds each block
    exactly as it would alone.  Each block's inverse is entrywise positive
    and x > 0, so y stays positive and every sum in the solve and in the
    dot products (_row_dots, over each block) adds positive terms.  Per
    row, the Rayleigh quotient rho = x.y / y.y of y is an upper bound on
    the smallest eigenvalue that never rises in exact arithmetic; the row
    settles at the first step where rho falls by at most tau rho, and its
    gap is the smaller of that step's rho and the one before.  The
    quotient's rounding grows with the number of entries that carry its
    sums: from the exact gap vector at J = 10^7, gamma = 0 it falls by 26
    eps relative and then rises by 5, and a settled row at J = 5 10^6,
    gamma = 1e-6 moves by up to 640 eps between steps.  So tau =
    _settle_tol(x) = 2 eps max(1, L / 2^19) grows with the start vector's
    participation ratio L = (sum x)^2 / x.x, about J at gamma = 0 and
    O(1/|gamma|) otherwise: a property of the cell, the same to rounding
    whichever window the solve reads, since x is below eps beyond it.
    Every row of at most 2^19 columns keeps exactly 2 eps.  A settled row
    leaves the batch: the rows after it move forward in the same buffers
    (_compact), so each step solves only unsettled rows.  Each row of d is
    first scaled by an exact power of two so that its smallest entry, an
    upper bound on the smallest eigenvalue, lies in [1/2, 1): y.y then
    stays in float64 range.  A 1x1 block is its own eigenvalue and never
    enters a solve, whose Rayleigh quotient would round it.  From the
    one-quasiparticle start a row takes 2-5 steps at J = 10^6 and
    |gamma| >= 0.2, where lambda_1/lambda_0 is about 2, and 2 at gamma = 0,
    where the start is the gap vector, also at J = 10^7, where tau is 37
    eps (2 eps took a third step there).  At 1e-8 <= |gamma| <= 0.1 the
    start is further from the gap vector and a row takes 7-16 steps at
    J = 10^6, 27 at J = 2 10^6 and gamma = 1e-6.  Raises NotConverged,
    naming the first unsettled cell in grid order, after _INVIT_MAX_STEPS
    steps.
    """
    from scipy.linalg.lapack import dpttrs

    groups, r, p = [], 0, 0
    for (_, n), run in itertools.groupby(cells, key=lambda cell: (cell[0], _gap_window(*cell))):
        m = len(list(run))
        groups.append((r, m, n, p))
        r, p = r + m, p + m * n
    d, l, x = (np.empty(p) for _ in range(3))
    gaps = np.empty(len(cells))
    for (r, m, n, _), dk, lk, xk in zip(groups, *(_blocks(a, groups) for a in (d, l, x))):
        _gap_ldl_factors(cells[r][0], [g for _, g in cells[r:r + m]], dk, lk, xk)
        if n == 1:  # a 1x1 block is its own eigenvalue
            gaps[r:r + m] = dk[:, 0]
    cell = np.arange(len(cells))
    lone = np.repeat([n == 1 for _, _, n, _ in groups], [m for _, m, _, _ in groups])
    if lone.all():
        return gaps
    if lone.any():
        groups, cell = _compact((d, l, x), groups, ~lone), cell[~lone]
    k = np.empty(cell.size, dtype=np.intc)  # frexp's type: ldexp is 17x slower on int64
    scale = np.empty(cell.size)  # each row of x * scale has unit norm
    tol = np.empty(cell.size)
    for (r, m, _, _), dk, xk in zip(groups, _blocks(d, groups), _blocks(x, groups)):
        k[r:r + m] = np.frexp(np.min(dk, axis=1))[1]
        np.ldexp(dk, -k[r:r + m, None], out=dk)
        xx = _row_dots(xk, xk)
        scale[r:r + m] = 1.0 / np.sqrt(xx)
        tol[r:r + m] = _settle_tol(xk, xx)
    size = sum(m * n for _, m, n, _ in groups)
    y = np.empty(size)
    xb, yb = _blocks(x, groups), _blocks(y, groups)
    rho = np.full(cell.size, math.inf)
    for _ in range(_INVIT_MAX_STEPS):
        for (r, m, _, _), xk, yk in zip(groups, xb, yb):
            np.multiply(xk, scale[r:r + m, None], out=yk)
        dpttrs(d[:size], l[:size - 1], y[:size], overwrite_b=1)
        yy = np.concatenate(list(map(_row_dots, yb, yb)))
        rho_old, rho = rho, scale * np.concatenate(list(map(_row_dots, xb, yb))) / yy
        x, y, xb, yb = y, x, yb, xb
        scale = 1.0 / np.sqrt(yy)
        settled = rho_old - rho <= tol * rho
        if settled.any():
            gaps[cell[settled]] = np.ldexp(np.minimum(rho, rho_old)[settled], k[settled])
            keep = ~settled
            if not keep.any():
                return gaps
            groups = _compact((d, l, x), groups, keep)
            cell, k, scale, rho, tol = cell[keep], k[keep], scale[keep], rho[keep], tol[keep]
            size = sum(m * n for _, m, n, _ in groups)
            xb, yb = _blocks(x, groups), _blocks(y, groups)
    j, g = cells[cell[0]]
    raise NotConverged(f"J={j}, gamma={g!r}: "
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


def spectral_gap_cells(cells) -> list:
    """spectral_gap(j, gamma) for each (j, gamma) cell, as a list of
    GapResult, bit-identical to the one-cell calls.

    The cells run in grid order in batches of _gap_inverse_iteration, each
    holding at most 2^16 doubles per row array, each row counted at its
    _gap_window, or one cell: a gamma = 0 cell from J = 2^16 up runs alone,
    with the memory of one spectral_gap call.  Every cell is checked, in
    order, before any is solved.
    """
    cells = list(cells)
    bounds = [_gap_bound(j, g) for j, g in cells]
    gaps = []
    for batch in _batches(cells):
        gaps += _gap_inverse_iteration(batch).tolist()
    return [_gap_result(j, g, gap, b) for (j, g), gap, b in zip(cells, gaps, bounds)]


def spectral_gap(j: SpinJ, gamma: float, method: str = "tridiag") -> GapResult:
    """Spectral gap of the SUSY LMG Hamiltonian and its analytic lower bound.

    method="tridiag" (spectral_gap_cells with one cell): the smallest eigenvalue
    of the size-J gap-sector block X^T X, X the supercharge's bidiagonal
    block, by inverse iteration on its relatively accurate LDL^T factors
    (_gap_inverse_iteration), one dpttrs solve per step, from the
    Holstein-Primakoff one-quasiparticle state, until the quotient falls
    by at most tau = 2 eps max(1, L / 2^19) relative, L the start vector's
    effective length (_settle_tol): 2-6 steps at J >= 10^5 for gamma = 0
    and |gamma| >= 0.5 (2 at gamma = 0 up to J = 10^7), up to 16 at
    J = 10^6 and small |gamma|, 27 at J = 2 10^6, gamma = 1e-6.  Time and
    memory are O(J) at gamma = 0 and O(min(J, 1/|gamma|)) otherwise, since
    the solve reads only the block's leading _gap_window columns.
    |gap(J, 0) - 1| measured 3.3e-15 at J = 1000, 8.9e-14 at J = 1e6 and
    5.6e-12 at J = 1e7.  method="dense" diagonalizes the block densely
    (J <= 200 only).
    The bound is cosh(2*gamma); satisfied allows a 1e-9 slack.
    Raises OverflowRisk where the bound, the squared chain or the gap is not
    finite in float64 (from |gamma| ~ 354 at J = 5, earlier at larger J).
    """
    if method == "tridiag":
        return spectral_gap_cells([(j, gamma)])[0]
    bound = _gap_bound(j, gamma)
    if method != "dense":
        raise MethodUnavailable(f"unknown method {method!r}")
    if j.two_j // 2 > _DENSE_GAP_MAX_J:
        raise MethodUnavailable(f"dense gap path limited to J <= {_DENSE_GAP_MAX_J}")
    gap = float(eig_dense_symmetric(gap_sector_tridiag(j, gamma).to_dense())[0])
    return _gap_result(j, gamma, gap, bound)
