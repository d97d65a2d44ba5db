"""References and output checks, written apart from lmgspec.

Nothing here imports lmgspec.  The Hamiltonian is rebuilt from the spin
ladder operators J+|m> = sqrt(J(J+1) - m(m+1)) |m+1>:

    H = cosh^2(g) Jx^2 + sinh^2(g) Jy^2 + cosh(g) sinh(g) Jz

Its gap sector (m = -J+1, -J+3, ..., J-1) is tridiagonal with
    diag_m      = (J(J+1) - m^2) cosh(2g)/2 + m sinh(2g)/2
    off_m^2     = (J-m)(J+m+1)(J-m-1)(J+m+2)/16.

Every check returns a list of messages; an empty list means the output
passed.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

EPS = float(np.finfo(float).eps)
DIGITS_CAP = 16.0
# A float64 bisection on T is accurate to a few eps*||T||; allow 8 of them.
GAP_TOL_EPS = 8.0
# Two float64 eigensolvers on the same T each err by a few eps*||T||.
CROSS_TOL_EPS = 16.0
ZERO_MODE_TOL = 1e-9
# Dense float64 eigensolvers agree to a small multiple of eps*||H||*dim.
SPECTRUM_TOL_EPS = 64.0
PAIR_TOL = 1e-8
# Cells with an extended-precision gap reference; larger J use a
# float64 cross-check with a different LAPACK bisection (dstebz).
MP_GAP_MAX_J = 30
MP_DPS = 30


def digits(rel_err: float) -> float:
    """Correct significant digits for a relative error, capped at 16."""
    return DIGITS_CAP if rel_err == 0.0 else min(DIGITS_CAP, -math.log10(rel_err))


# ------------------------------------------------------------------ gap


def gap_block(j: int, gamma: float) -> tuple:
    """(diag, off) of the float64 gap-sector block, and its inf-norm."""
    m = np.arange(-j + 1, j, 2, dtype=float)
    jj = j * (j + 1.0)
    diag = 0.5 * (jj - m * m) * math.cosh(2.0 * gamma) + 0.5 * m * math.sinh(2.0 * gamma)
    lower = m[:-1]
    ladder = lambda k: np.sqrt(jj - k * (k + 1.0))  # <k+1|J+|k>
    off = 0.25 * ladder(lower) * ladder(lower + 1.0)
    rows = np.abs(diag)
    rows[:-1] += off
    rows[1:] += off
    return diag, off, float(rows.max())


def smallest_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    """Smallest eigenvalue of a float64 tridiagonal by LAPACK dstebz."""
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


def gap_mp(j: int, gamma: float) -> float:
    """Extended-precision gap: Sturm bisection of the exact block in mpmath.

    The bracket starts from a float64 guess and is confirmed by Sturm counts
    before the bisection, so the result does not rest on the guess.
    """
    diag64, off64, norm = gap_block(j, gamma)
    with mpmath.workdps(MP_DPS):
        g2 = 2 * mpmath.mpf(gamma)
        c2, s2 = mpmath.cosh(g2), mpmath.sinh(g2)
        ms = range(-j + 1, j, 2)
        diag = [((j * (j + 1) - m * m) * c2 + m * s2) / 2 for m in ms]
        off2 = [mpmath.mpf((j - m) * (j + m + 1) * (j - m - 1) * (j + m + 2)) / 16
                for m in ms][:-1]
        tiny = mpmath.mpf(10) ** (-2 * MP_DPS)

        def count_below(x):
            count, d = 0, diag[0] - x
            for i in range(len(diag)):
                if i:
                    d = diag[i] - x - off2[i - 1] / d
                if d == 0:
                    d = -tiny
                if d < 0:
                    count += 1
            return count

        guess = mpmath.mpf(smallest_eigenvalue(diag64, off64))
        half = mpmath.mpf(64 * EPS * norm)
        while count_below(guess - half) != 0 or count_below(guess + half) < 1:
            half *= 2
        lo, hi = guess - half, guess + half
        target = mpmath.mpf(10) ** (6 - MP_DPS) * max(1, abs(hi))
        while hi - lo > target:
            mid = (lo + hi) / 2
            if count_below(mid) >= 1:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


class GapOracle:
    """Per-run cache of (reference, cross-check, ||T||) keyed by cell.

    The reference is exact at gamma = 0 (gap 1) and extended-precision for
    J <= MP_GAP_MAX_J; elsewhere it is None and a dstebz cross-check on the
    benchmark's own block stands in for it.
    """

    def __init__(self):
        self._cache = {}

    def __call__(self, j: int, gamma: float) -> tuple:
        key = (j, gamma)
        if key not in self._cache:
            diag, off, norm = gap_block(j, gamma)
            ref = cross = None
            if gamma == 0.0:
                ref = 1.0
            elif j <= MP_GAP_MAX_J:
                ref = gap_mp(j, gamma)
            else:
                cross = smallest_eigenvalue(diag, off)
            self._cache[key] = (ref, cross, norm)
        return self._cache[key]


def check_gap(j: int, gamma: float, gap: float, oracle) -> tuple:
    """(messages, digits or None) for one spectral-gap output."""
    ref, cross, norm = oracle(j, gamma)
    slack = GAP_TOL_EPS * EPS * norm
    errs = []
    if not math.isfinite(gap):
        return [f"J={j} gamma={gamma!r}: gap {gap!r} is not finite"], None
    bound = math.cosh(2.0 * gamma)
    if gap < bound - slack:
        errs.append(f"J={j} gamma={gamma!r}: gap {gap!r} below cosh(2 gamma) = {bound!r}")
    if ref is not None and abs(gap - ref) > slack:
        errs.append(f"J={j} gamma={gamma!r}: gap {gap!r} off reference {ref!r} by more than {slack:.3g}")
    if cross is not None and abs(gap - cross) > CROSS_TOL_EPS * EPS * norm:
        errs.append(f"J={j} gamma={gamma!r}: gap {gap!r} disagrees with dstebz {cross!r}")
    return errs, (digits(abs(gap - ref) / ref) if ref is not None else None)


def check_scan_csv(text: str, j_list: list, gammas: list, oracle) -> tuple:
    """(messages, digits_min) for one `lmg gap-scan` CSV output."""
    lines = text.splitlines()
    if not lines or lines[0] != "j,gamma,gap,bound,satisfied":
        return ["gap-scan: unexpected header"], None
    rows = [line.split(",") for line in lines[1:]]
    cells = [(j, g) for j in j_list for g in gammas]
    if len(rows) != len(cells):
        return [f"gap-scan: {len(rows)} rows for {len(cells)} cells"], None
    errs, best = [], []
    for row, (j, g) in zip(rows, cells):
        if row[0] != str(j) or float(row[1]) != g:
            errs.append(f"gap-scan: row {row[:2]} is not cell ({j}, {g!r})")
            continue
        gap, bound = float(row[2]), float(row[3])
        if abs(bound - math.cosh(2.0 * g)) > 4 * EPS * bound:
            errs.append(f"gap-scan: J={j} gamma={g!r}: bound {bound!r} is not cosh(2 gamma)")
        if row[4] != "true":
            errs.append(f"gap-scan: J={j} gamma={g!r}: satisfied={row[4]}")
        cell_errs, d = check_gap(j, g, gap, oracle)
        errs += cell_errs
        if d is not None:
            best.append(d)
    return errs, (min(best) if best else None)


# ------------------------------------------------------------------ zero mode


def legendre_mp(j: int, x) -> mpmath.mpf:
    """Legendre polynomial P_j(x) in mpmath."""
    with mpmath.workdps(MP_DPS):
        return mpmath.legendre(j, x)


def ladder_matrices(two_j: int) -> tuple:
    """Real (Jz, J+) for spin two_j/2 in the ascending-m basis."""
    jj = two_j / 2.0
    m = np.arange(two_j + 1) - jj
    jp = np.diag(np.sqrt(jj * (jj + 1.0) - m[:-1] * (m[:-1] + 1.0)), -1)
    return np.diag(m), jp


def check_zero_mode(j: int, gamma: float, out: dict) -> tuple:
    """(messages, digits or None) for one ground_state output.

    The zero mode a of the factorized form satisfies F a = 0 with
    F = Jz cosh(g) - Ky sinh(g) and Ky = i Jy = (J+ - J-)/2; its
    unnormalized norm squared is P_J(cosh 2g).
    """
    amps = np.asarray(out["amplitudes"], dtype=float)
    if amps.shape != (2 * j + 1,):
        return [f"J={j} gamma={gamma!r}: {amps.size} amplitudes"], None
    if not np.all(np.isfinite(amps)) or not np.any(amps):
        return [f"J={j} gamma={gamma!r}: amplitudes not finite or all zero"], None
    errs = []
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > ZERO_MODE_TOL:
        errs.append(f"J={j} gamma={gamma!r}: |a| = {norm!r}, not 1")
    jz, jp = ladder_matrices(2 * j)
    f = math.cosh(gamma) * jz - math.sinh(gamma) * 0.5 * (jp - jp.T)
    resid = float(np.linalg.norm(f @ amps))
    f_norm = float(np.abs(f).sum(axis=1).max())
    if resid > ZERO_MODE_TOL * f_norm:
        errs.append(f"J={j} gamma={gamma!r}: |F a| = {resid:.3g} > 1e-9 |F| = {f_norm:.3g}")
    d = None
    norm_direct = out["norm_direct"]
    if math.isfinite(norm_direct):
        with mpmath.workdps(MP_DPS):
            p = legendre_mp(j, mpmath.cosh(2 * mpmath.mpf(gamma)))
            rel = float(abs(mpmath.mpf(norm_direct) ** 2 - p) / p)
        if rel > ZERO_MODE_TOL:
            errs.append(f"J={j} gamma={gamma!r}: norm_direct^2 off P_J(cosh 2g) by {rel:.3g}")
        d = digits(rel)
    else:
        errs.append(f"J={j} gamma={gamma!r}: norm_direct = {norm_direct!r}")
    return errs, d


def zero_mode_overflowed(out: dict) -> bool:
    """The overflow signature of ground_state: a non-finite norm, or
    amplitudes that are not finite or all zero."""
    amps = np.asarray(out["amplitudes"], dtype=float)
    finite = all(math.isfinite(out[k]) for k in ("norm_direct", "norm_legendre", "energy_residual"))
    return not finite or not np.all(np.isfinite(amps)) or not np.any(amps)


# ------------------------------------------------------------------ SUSY


def susy_spectrum(two_j: int, gamma: float) -> np.ndarray:
    """Spectrum of the rotated SUSY Hamiltonian from complex ladder operators."""
    jz, jp = ladder_matrices(two_j)
    jp = jp.astype(complex)
    jx = 0.5 * (jp + jp.T)
    jy = -0.5j * (jp - jp.T)
    c, s = math.cosh(gamma), math.sinh(gamma)
    h = c * c * (jx @ jx) + s * s * (jy @ jy) + c * s * jz
    return np.linalg.eigvalsh(h)


def check_susy(two_j: int, gamma: float, out: dict, ref: np.ndarray) -> tuple:
    """(messages, digits or None) for one `lmg susy-check` run.

    out holds the exit code, the text and the spectrum the check computed.
    Integer J: one zero mode and J doublets.  Half-integer J: SUSY broken,
    with a positive ground energy (its levels need not pair).
    """
    label = f"J={two_j}/2 gamma={gamma!r}"
    errs = []
    if out["code"] != 0:
        errs.append(f"{label}: susy-check exited {out['code']}")
    integer = two_j % 2 == 0
    verdict = "SusyPattern" if integer else "SusyBroken"
    if not out["text"].rstrip().endswith(f"verdict: {verdict}"):
        errs.append(f"{label}: verdict is not {verdict}")
    eigs = np.asarray(out["spectrum"], dtype=float)
    if eigs.shape != ref.shape or not np.all(np.isfinite(eigs)):
        return errs + [f"{label}: spectrum has {eigs.size} values, want {ref.size}"], None
    scale = max(1.0, float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(eigs - ref)))
    if err > SPECTRUM_TOL_EPS * EPS * scale * ref.size:
        errs.append(f"{label}: spectrum off the reference by {err:.3g}")
    if integer:
        if abs(eigs[0]) > PAIR_TOL * scale or abs(eigs[1]) <= PAIR_TOL * scale:
            errs.append(f"{label}: not exactly one zero mode")
        lo, hi = eigs[1::2], eigs[2::2]
        if np.any(np.abs(hi - lo) > PAIR_TOL * np.maximum(1.0, np.abs(hi))):
            errs.append(f"{label}: excited levels do not pair into doublets")
    elif not (eigs[0] > 0.0 and ref[0] > 0.0):
        errs.append(f"{label}: ground energy {eigs[0]!r} is not positive")
    return errs, digits(err / scale)
