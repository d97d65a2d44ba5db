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
  window (or one cell), each cell's window computed once.  One factor
  build per batch fills every run of cells with one J and window: each run
  fills its ladder once, and every array operation but the run's ladder
  products and cumprod covers the whole batch.  All rows of a batch form
  one block-diagonal matrix, so each step is one LAPACK dpttrs solve for
  the batch.  A row leaves the batch once it settles.
* The smallest eigenvalue of a symmetric tridiagonal by one LAPACK dstebz
  call (eig_symtridiag), absolute error a few ulps of ||t||.
* All eigenvalues of a dense symmetric matrix (LAPACK eigvalsh), for the
  spectra that spectrum and susy-check classify and for cross-checks.
* Characteristic polynomials of tridiagonal matrices as numpy Polynomials,
  by a three-term recurrence, with which acceptance criterion 6 and the
  tests verify the determinant factorization of the non-Hermitian form.

scipy's LAPACK wrappers and numpy.polynomial are imported inside the functions
that call them, on their first call: they take about 0.2 s and 13 ms to import,
and nothing else in the package needs them.
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
    NonFiniteInput,
    NotConverged,
    NotIntegerSpin,
    NotSymmetric,
    OverflowRisk,
)
from .spin import SpinJ, ladder
from .tridiag import GeneralTridiag, SymTridiag

__all__ = [
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


def _gap_ldl_factors(cells: list, windows: list) -> tuple:
    """Flat buffers d, l and x for a batch of cells, row i of each on the
    leading K = windows[i] columns of cell i, the rows in order: d and l the
    LDL^T factors of the leading K x K block A_K of the gap-sector block
    X^T X of the cell at -|gamma|, similarity-signed so that every d_k > 0
    and every l_k < 0, with l_(K-1) = 0, and x the start vector of that
    row's inverse iteration.  Each run of cells with one J and one window
    is a (rows, K) block of the buffers.  The build runs from column 0
    down, so these are, bit for bit, the leading K columns of the
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

    The whole batch is built in one call.  The chain at -|gamma| is the
    gamma-free chain v (spin.ladder) times e^|gamma| on a and e^-|gamma| on
    b, so each run's ladder is filled once, its even and odd entries into
    two reused halves of one buffer, and four products give every row of the
    run its a (in d's place), -b (in l's; -b because (-b) a / d rounds as
    -(b a / d), so l needs no negation) and the numerators (in x's) and
    denominators (in a scratch array) of its start vector's ratios.  One
    cumprod per run then runs the start vector along its rows.  Every
    other array operation covers the whole batch at once.  The recurrence
    for u is one unit lower bidiagonal solve (LAPACK dtbtrs) over the flat
    buffer, with coupling 0 at each row start, so it rounds each row as it
    would alone.  A batch of several rows, at most _LDL_CHUNK = 2^16 doubles
    in all (_batches), is one chunk.  One row goes in column chunks of
    _ROW_CHUNK = 2^14, whose working arrays stay in a 2 MB L2 cache (at J =
    10^7, 2^13 and 2^15 measured alike, 2^12 and 2^16 8-20% slower),
    carrying u_(k-1) and x_k across chunk boundaries, so that x is one
    running product, as an unchunked cumprod rounds it.  Each chunk after
    the first starts its solve one column early, at the carried u_(s-1), so
    that dtbtrs rounds u_s as well: OpenBLAS rounds c + c u unlike numpy,
    and a carry added in numpy would make the factors depend on _ROW_CHUNK.

    Each element is rounded by the same operations in the same order as in
    the formulas above.  Apart from d, l and x, the build holds three
    doubles per element of a chunk: the dtbtrs band during the solve, and
    the ladder or b^2 between solves, in one buffer, and a scratch array for
    the ratios' denominators, c and 1 + u.  That is at most 3 x 2^16
    doubles, against the one array y that the iteration adds, and
    spin.ladder's index array of one run's row.  The scratch array is the
    size of a chunk, not of the batch, so that one row's chunks reuse it in
    the L2 cache: with the iteration's y as scratch J = 10^7 measured 4.5%
    slower.
    """
    from scipy.linalg.lapack import dtbtrs

    groups, size = _groups(windows, zip([j.two_j for j, _ in cells], windows))
    d, l, x = (np.empty(size) for _ in range(3))
    up = np.array([math.exp(abs(g)) for _, g in cells])[:, None]     # a = v_2k e^|gamma|
    down = np.array([math.exp(-abs(g)) for _, g in cells])[:, None]  # b = v_(2k+1) e^-|gamma|
    minus_down = -down
    ends = np.cumsum(windows) - 1  # each row's last element
    cut = ends[:-1]  # the last element of each row but the last
    heads = cut + 1  # the first element of each row but the first
    q_heads = heads + 1  # their places in q: several rows are one chunk, at s = 0
    width = min(size, _ROW_CHUNK) if ends.size == 1 else size
    mem = np.empty(2 * width + 2)
    band = mem.reshape(2, -1, order="F")
    q = np.empty(width + 2)  # q[i] holds element s - 1 + i of the chunk at s
    u_prev, x_next = 0.0, 1.0
    for s in range(0, size, width):
        t = min(size, s + width)
        kk = min(t, size - 1) - s  # [s, s + kk) have a next element: a_(k+1), x_(k+1)
        cols = []
        for r, m, n, p in groups:
            cs, ct = max(s - p, 0), min(t - p, n)  # the chunk's columns of this group
            k = min(ct, n - 1) - cs  # columns with a next one in the row
            j, h = cells[r][0], ct - cs
            even = ladder(j, 2 * cs, 2 * ct + 1, 2, out=mem[:h + 1])  # v_2cs .. v_2ct
            odd = ladder(j, 2 * cs + 1, 2 * ct, 2, out=mem[h + 1:2 * h + 1])  # .. v_(2ct-1)
            dk, lk, xk = (buf[p:p + m * n].reshape(m, n) for buf in (d, l, x))
            qk = q[p + cs - s + 1:][:m * n].reshape(m, -1)  # from column cs
            rows = slice(r, r + m)
            np.multiply(even[:k + 1], up[rows], out=dk[:, cs:cs + k + 1])  # a_cs .. a_(cs+k)
            np.multiply(odd, minus_down[rows], out=lk[:, cs:ct])           # -b
            # the ratios' e_(2k+2) and e_(2k+1) at +|gamma|
            np.multiply(even[1:k + 1], down[rows], out=xk[:, cs + 1:cs + k + 1])
            np.multiply(odd[:k], up[rows], out=qk[:, 1:k + 1])
            cols.append(xk[:, cs:ct])
        x[s] = x_next  # x_0 = 1; one row carries x_s across chunks
        x[heads] = q[q_heads] = 1.0
        x[s + 1:s + 1 + kk] /= q[2:2 + kk]  # x_(k+1) / x_k until the cumprod
        for xk in cols:
            np.cumprod(xk, axis=1, out=xk)
        if t < size:
            x_next = x[t - 1] * x[t]
        np.maximum(x[s:t], _EPS, out=x[s:t])

        c = q[1:t - s + 1]
        np.divide(l[s:t], d[s:t], out=c)
        np.square(c, out=c)               # c_k
        w = q[0 if s else 1:t - s + 1]  # the elements the dtbtrs solve runs over
        ab = band[:, :w.size]
        np.negative(w[1:], out=ab[1, :-1])
        ab[1, -1] = 0.0
        ab[1, cut] = 0.0                  # rows do not couple
        if s:  # one row: the solve starts at the carried u_(s-1)
            w[0] = u_prev
        dtbtrs(ab, w, uplo="L", diag="U", overwrite_b=1)
        u_prev = w[-1]
        w += 1.0                          # 1 + u_k
        q[heads] = 1.0                    # q[cut + 1]: 1 + u_-1 at each later row's start
        b2 = mem[:t - s]  # the band is free until the next chunk
        np.square(l[s:t], out=b2)
        if t == size:
            l[ends] = 0.0  # l_(K-1) = 0, and 0 times the next row's a_0
        l[s:s + kk] *= d[s + 1:s + 1 + kk]  # -b_k a_(k+1)
        dk = d[s:t]
        np.square(dk, out=dk)
        lo = max(s, 1)
        d[lo:t] /= q[lo - s:t - s]        # a_k^2 / (1 + u_(k-1))
        dk += b2
        l[s:t] /= dk
    return d, l, x


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


def _batches(windows: list):
    """(start, stop) of each batch of _gap_inverse_iteration, in grid order,
    for the cells of these _gap_window values: each row array holds at most
    _LDL_CHUNK doubles, counting each row's window, or one row, so a cell
    whose window is 2^16 or more runs alone."""
    start, size = 0, 0
    for i, n in enumerate(windows):
        if i > start and size + n > _LDL_CHUNK:
            yield start, i
            start, size = i, 0
        size += n
    if windows:
        yield start, len(windows)


def _groups(lengths: list, keys=None) -> tuple:
    """The groups of flat buffers whose rows have these lengths, one per run
    of rows of one length K, or of one key given keys, each (first row,
    rows, K, first element), and the buffers' size."""
    groups, r, p = [], 0, 0
    for _, run in itertools.groupby(lengths if keys is None else keys):
        m, n = len(list(run)), lengths[r]
        groups.append((r, m, n, p))
        r, p = r + m, p + m * n
    return groups, p


def _blocks(buf: np.ndarray, groups: list) -> list:
    """The (rows, K) block of each group in the flat buffer buf; groups
    lists (first row, rows, K, first element) of each block."""
    return [buf[p:p + m * n].reshape(m, n) for _, m, n, p in groups]


def _compact(bufs: tuple, lengths: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the kept rows of the flat buffers, whose rows have these
    lengths, forward in place, in order, over the rows that leave, and
    return the kept rows' lengths.  One element mask gathers each buffer,
    so the copy holds one buffer's kept elements at a time."""
    mask = np.repeat(keep, lengths)
    for buf in bufs:
        kept = buf[:mask.size][mask]
        buf[:kept.size] = kept
    return lengths[keep]


def _gap_inverse_iteration(cells: list, windows: list) -> np.ndarray:
    """Spectral gaps of one batch of (J, gamma) cells, integer J >= 1, by
    inverse iteration on the LDL^T factors of _gap_ldl_factors, from its
    start vectors x, each row on the leading windows[i] = _gap_window(J,
    gamma) columns.

    The factors are the rows of flat buffers d and l, each run of cells with
    one J and one window K a (rows, K) block, all built by one
    _gap_ldl_factors call, with l = 0 at the end of each row, so the
    block-diagonal matrix decouples and each step is one LAPACK dpttrs
    solve y = A^-1 x for all rows; the solve rounds each block
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
    Every row of at most 2^19 columns keeps exactly 2 eps.  One array of
    row lengths, from windows, keeps the rows' bookkeeping: a settled row
    leaves the batch by one element mask over the buffers (_compact), so
    each step solves only unsettled rows, scales all of x in one multiply
    and reads each run of rows of one length as a (rows, K) block.  Each
    row of d is first scaled by an exact power of two so that its smallest
    entry, an upper bound on the smallest eigenvalue, lies in [1/2, 1): y.y
    then stays in float64 range.  A 1x1 block is its own eigenvalue and never
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

    d, l, x = _gap_ldl_factors(cells, windows)
    gaps = np.empty(len(cells))
    cell = np.arange(len(cells))
    lengths = np.array(windows)
    if 1 in windows:  # a 1x1 block is its own eigenvalue
        keep = lengths > 1
        gaps[~keep] = d[np.cumsum(lengths)[~keep] - 1]
        if not keep.any():
            return gaps
        lengths, cell = _compact((d, l, x), lengths, keep), cell[keep]
    groups, size = _groups(lengths.tolist())
    k = np.empty(cell.size, dtype=np.intc)  # frexp's type: ldexp is 17x slower on int64
    scale = np.empty(cell.size)  # each row of x * scale has unit norm
    tol = np.empty(cell.size)
    for (r, m, _, _), dk, xk in zip(groups, _blocks(d, groups), _blocks(x, groups)):
        k[r:r + m] = np.frexp(np.min(dk, axis=1))[1]
        np.ldexp(dk, -k[r:r + m, None], out=dk)
        xx = _row_dots(xk, xk)
        scale[r:r + m] = 1.0 / np.sqrt(xx)
        tol[r:r + m] = _settle_tol(xk, xx)
    y = np.empty(size)
    xb, yb = _blocks(x, groups), _blocks(y, groups)
    rho = np.full(cell.size, math.inf)
    for _ in range(_INVIT_MAX_STEPS):
        # one row multiplies by its scale alone, without a row-long repeat
        np.multiply(x[:size], scale if scale.size == 1 else np.repeat(scale, lengths),
                    out=y[:size])
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
            lengths = _compact((d, l, x), lengths, keep)
            cell, k, scale, rho, tol = cell[keep], k[keep], scale[keep], rho[keep], tol[keep]
            groups, size = _groups(lengths.tolist())
            xb, yb = _blocks(x, groups), _blocks(y, groups)
    j, g = cells[cell[0]]
    raise NotConverged(f"J={j}, gamma={g!r}: "
                       f"inverse iteration did not settle in {_INVIT_MAX_STEPS} steps")


def eig_dense_symmetric(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted ascending.

    LAPACK eigvalsh, O(n^3): susy-check calls it up to dimension 4001.
    Raises DimensionMismatch unless m is a square 2-D matrix (a 0 x 0 one
    has no eigenvalues), NonFiniteInput on a NaN or infinite entry, and
    NotSymmetric on a complex m or where the asymmetry exceeds 1e-12 of the
    largest entry.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise NotSymmetric("matrix is complex; need a real symmetric matrix")
    m = m.astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"need a square 2-D matrix, got shape {m.shape}")
    top = float(np.max(np.abs(m), initial=0.0))  # NaN if any entry is NaN
    if not math.isfinite(top):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-12 * max(1.0, top):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    return np.linalg.eigvalsh(0.5 * (m + m.T))


_CHARPOLY_TRIDIAG_MAX = 60


def charpoly_tridiag(a: Union[GeneralTridiag, SymTridiag]) -> np.polynomial.Polynomial:
    """Characteristic polynomial of a tridiagonal matrix via the three-term
    recurrence p_k = (lam - alpha_k) p_{k-1} - (super_{k-1} sub_{k-1}) p_{k-2},
    run on arrays and returned as a numpy.polynomial.Polynomial.

    Depends only on the off-diagonal products, so permutation-equivalent and
    similarity-symmetrized matrices give bit-identical coefficients.
    """
    from numpy.polynomial import Polynomial

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
    return Polynomial(p)


@dataclass(frozen=True)
class GapResult:
    gap: float
    bound: float
    satisfied: bool


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


def _satisfied(j: SpinJ, gamma: float, gap: float, bound: float) -> bool:
    """gap >= bound, within a 1e-9 slack; OverflowRisk where the gap is not
    finite."""
    if not math.isfinite(gap):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the gap is not finite in float64")
    return gap >= bound - 1e-9 * max(1.0, bound)


def _gap_cells(cells: list) -> tuple:
    """The solve of spectral_gap_cells, as three lists, bounds, gaps and
    satisfied, rather than one GapResult per cell: gap-scan formats them
    without building those objects."""
    bounds = [_gap_bound(j, g) for j, g in cells]
    windows = [_gap_window(j, g) for j, g in cells]
    gaps = []
    for a, b in _batches(windows):
        gaps += _gap_inverse_iteration(cells[a:b], windows[a:b]).tolist()
    return bounds, gaps, [_satisfied(j, g, gap, b) for (j, g), gap, b in zip(cells, gaps, bounds)]


def spectral_gap_cells(cells) -> list:
    """spectral_gap(j, gamma) for each (j, gamma) cell, as a list of
    GapResult, bit-identical to the one-cell calls.

    The cells run in grid order in batches of _gap_inverse_iteration, each
    holding at most 2^16 doubles per row array, each row counted at its
    _gap_window, or one cell: a gamma = 0 cell from J = 2^16 up runs alone,
    with the memory of one spectral_gap call.  Each cell's window is
    computed once, and each batch's factors are one _gap_ldl_factors call.
    Every cell is checked, in order, before any is solved.
    """
    bounds, gaps, satisfied = _gap_cells(list(cells))
    return list(map(GapResult, gaps, bounds, satisfied))


def spectral_gap(j: SpinJ, gamma: float) -> GapResult:
    """Spectral gap of the SUSY LMG Hamiltonian and its analytic lower bound:
    spectral_gap_cells with one cell.

    The gap is the smallest eigenvalue of the size-J gap-sector block
    X^T X, X the supercharge's bidiagonal block, by inverse iteration on
    its relatively accurate LDL^T factors (_gap_inverse_iteration), one
    dpttrs solve per step, from the Holstein-Primakoff one-quasiparticle
    state, until the quotient falls by at most tau = 2 eps max(1, L / 2^19)
    relative, L the start vector's effective length (_settle_tol): 2-6
    steps at J >= 10^5 for gamma = 0 and |gamma| >= 0.5 (2 at gamma = 0 up
    to J = 10^7), up to 16 at J = 10^6 and small |gamma|, 27 at J = 2 10^6,
    gamma = 1e-6.  Time and memory are O(J) at gamma = 0 and
    O(min(J, 1/|gamma|)) otherwise, since the solve reads only the block's
    leading _gap_window columns.  |gap(J, 0) - 1| measured 3.3e-15 at
    J = 1000, 8.9e-14 at J = 1e6 and 5.6e-12 at J = 1e7.
    The bound is cosh(2*gamma); satisfied allows a 1e-9 slack.
    Raises OverflowRisk where the bound, the squared chain or the gap is not
    finite in float64 (from |gamma| ~ 354 at J = 5, earlier at larger J).
    """
    return spectral_gap_cells([(j, gamma)])[0]
