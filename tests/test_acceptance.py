"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints exactly one PASS/FAIL line (visible even under pytest's
output capture) and then asserts.  Tolerances are the contract of the
package; see the README for the criterion list.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    dense_gap,
    ref_a_vec_j2,
    ref_h_minus_j2,
    ref_h_plus_j2,
    ref_hn_j2,
    ref_q1_j2,
    ref_r2_j2,
    ref_sorted_h_j2,
)
from lmgspec import (
    GeneralTridiag,
    SpinJ,
    build_nonhermitian,
    build_supercharges,
    build_susy_rotated,
    build_factorized,
    charpoly_tridiag,
    classify_spectrum,
    eig_dense_symmetric,
    extract_hn_blocks,
    ground_state,
    spectral_gap,
    susy_sorted_hamiltonian,
    verify_superalgebra,
)
from lmgspec.cli import main as cli_main

P_J2 = np.eye(5)
P_J2[3:, 3:] = [[0.0, 1.0], [1.0, 0.0]]


def report(capsys, number, label, ok, elapsed, detail=""):
    line = f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s"
    line += f"; {detail})" if detail else ")"
    with capsys.disabled():
        print(line)
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_01_j2_reference_matrices(capsys):
    start = time.perf_counter()
    jv = SpinJ(4)
    worst = 0.0
    ok = True
    for g in (0.3, 0.7, 1.1):
        scale = math.exp(2 * g)
        hn = build_nonhermitian(jv, g)
        blocks = extract_hn_blocks(hn, jv)
        diffs = [
            np.max(np.abs(hn - ref_hn_j2(g))),
            np.max(np.abs(blocks.h_minus.to_dense() - ref_h_minus_j2(g))),
            np.max(np.abs(blocks.h_plus.to_dense() - ref_h_plus_j2(g))),
            np.max(np.abs(blocks.a_vec - ref_a_vec_j2(g))),
            np.max(np.abs(P_J2 @ susy_sorted_hamiltonian(jv, g) @ P_J2 - ref_sorted_h_j2(g))),
        ]
        charges = build_supercharges(jv, g)
        diffs.append(np.max(np.abs(P_J2 @ charges.q1 @ P_J2 - ref_q1_j2(g))))
        diffs.append(np.max(np.abs(P_J2 @ charges.r2 @ P_J2 - ref_r2_j2(g))))
        worst = max(worst, max(diffs) / scale)
        ok = ok and max(diffs) <= 1e-13 * scale
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(capsys, 1, "J=2 reference matrices entrywise", ok, elapsed,
           f"worst scaled diff {worst:.2e}")


def test_criterion_02_superalgebra(capsys):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for jj in range(1, 13):
        jv = SpinJ(2 * jj)
        for g in (0.0, 0.3, 0.7, 1.5, -0.7):
            res = verify_superalgebra(
                build_supercharges(jv, g), susy_sorted_hamiltonian(jv, g)
            )
            bound = 1e-10 * max(1.0, res.h_norm)
            peak = max(res.r_q1_sq, res.r_q2_sq, res.r_anti, res.r_comm)
            worst = max(worst, peak / bound)
            ok = ok and peak <= bound
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(capsys, 2, "superalgebra residuals J<=12", ok, elapsed,
           f"worst residual {worst:.2e} of tolerance")


def test_criterion_03_spectrum_pattern(capsys):
    start = time.perf_counter()
    ok = True
    for jj in range(1, 31):
        jv = SpinJ(2 * jj)
        for g in np.linspace(-2.0, 2.0, 21):
            eigs = eig_dense_symmetric(build_susy_rotated(jv, float(g)))
            rep = classify_spectrum(eigs, jv, tol=1e-8)
            ok = ok and rep.verdict == "SusyPattern" and len(rep.doublets) == jj
    # Half-integer J: no zero mode.  The ground energy is strictly positive
    # but decays roughly like exp(-4*gamma*J), dropping below the float64
    # certification floor near gamma ~ 2, so the quantitative 1e-6 floor is
    # checked on |gamma| <= 0.8 and the broken verdict on the full grid.
    min_half = math.inf
    for two_j in (3, 5, 7):
        jv = SpinJ(two_j)
        for g in np.linspace(-2.0, 2.0, 21):
            eigs = eig_dense_symmetric(build_susy_rotated(jv, float(g)))
            ok = ok and classify_spectrum(eigs, jv).verdict == "SusyBroken"
            if abs(g) <= 0.8:
                min_half = min(min_half, eigs[0])
                ok = ok and eigs[0] > 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(capsys, 3, "SUSY spectrum pattern / broken at half-integer", ok, elapsed,
           f"min half-integer ground energy {min_half:.2e}")


def test_criterion_04_gap_bound(capsys):
    start = time.perf_counter()
    ok = True
    worst_zero = 0.0
    for jj in (5, 10, 15, 25, 30, 100, 1000):
        jv = SpinJ(2 * jj)
        for g in np.linspace(0.0, 3.0, 50):
            res = spectral_gap(jv, float(g))
            ok = ok and res.gap >= res.bound - 1e-9
        err = abs(spectral_gap(jv, 0.0).gap - 1.0)
        worst_zero = max(worst_zero, err)
        ok = ok and err <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(capsys, 4, "gap bound cosh(2*gamma) and gap(J,0)=1", ok, elapsed,
           f"worst |gap(J,0)-1| {worst_zero:.2e}")


def test_criterion_05_small_gamma_tightness(capsys):
    # The gap exceeds the cosh(2*gamma) bound by ~(2/3)*gamma^2*J(J+1), so
    # "small gamma" is relative to the collective scale: the 5% window is
    # |gamma| <= 0.25 / sqrt(J(J+1)).
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for jj in (5, 15, 30):
        jv = SpinJ(2 * jj)
        g_max = 0.25 / math.sqrt(jj * (jj + 1))
        for g in np.linspace(-g_max, g_max, 11):
            res = spectral_gap(jv, float(g))
            rel = (res.gap - res.bound) / res.bound
            worst = max(worst, rel)
            ok = ok and -1e-12 <= rel <= 0.05
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(capsys, 5, "small-gamma tightness of the bound", ok, elapsed,
           f"worst relative excess {worst:.3f}")


def test_criterion_06_charpoly_factorization(capsys):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    worst_pm = 0.0
    for jj in range(2, 11):
        jv = SpinJ(2 * jj)
        for g in (0.3, 0.8, 1.4):
            hn = build_nonhermitian(jv, g)
            blocks = extract_hn_blocks(hn, jv)
            lhs = charpoly_tridiag(GeneralTridiag(
                alpha=np.diag(hn), beta=-np.diag(hn, 1), gamma_sub=np.diag(hn, -1),
            ))
            cp = charpoly_tridiag(blocks.h_plus)
            cm = charpoly_tridiag(blocks.h_minus)
            rhs = (cp * cm).times_lambda()
            scale = np.maximum(1.0, np.abs(rhs.coeffs))
            resid = float(np.max(np.abs(lhs.coeffs - rhs.coeffs) / scale))
            worst = max(worst, resid)
            ok = ok and resid <= 1e-8
            pm_scale = np.maximum(1.0, np.abs(cm.coeffs))
            pm = float(np.max(np.abs(cp.coeffs - cm.coeffs) / pm_scale))
            worst_pm = max(worst_pm, pm)
            ok = ok and pm <= 1e-13  # identical up to summation-order rounding
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(capsys, 6, "characteristic polynomial factorization", ok, elapsed,
           f"worst residual {worst:.2e}, H+ vs H- {worst_pm:.2e}")


def test_criterion_07_ground_state(capsys):
    start = time.perf_counter()
    ok = True
    worst_res, worst_norm = 0.0, 0.0
    for jj in range(1, 31):
        jv = SpinJ(2 * jj)
        for g in np.linspace(-2.0, 2.0, 9):
            gs = ground_state(jv, float(g))
            h_norm = np.linalg.norm(build_factorized(jv, float(g)), 2)
            rel_res = gs.energy_residual / max(1.0, h_norm)
            rel_norm = abs(gs.norm_direct / gs.norm_legendre - 1.0)
            worst_res = max(worst_res, rel_res)
            worst_norm = max(worst_norm, rel_norm)
            ok = ok and rel_res <= 1e-9 and rel_norm <= 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(capsys, 7, "zero mode residual and Legendre normalization", ok, elapsed,
           f"worst residual {worst_res:.2e}, worst norm mismatch {worst_norm:.2e}")


def test_criterion_08_oracle_equivalence(capsys):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for jj in range(1, 41):
        jv = SpinJ(2 * jj)
        for g in (-2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0):
            a = spectral_gap(jv, g).gap
            b = dense_gap(jv, g)
            worst = max(worst, abs(a - b))
            ok = ok and abs(a - b) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(capsys, 8, "tridiagonal vs dense gap oracle", ok, elapsed,
           f"worst |diff| {worst:.2e}")


def test_criterion_09_performance(capsys):
    spectral_gap(SpinJ(20), 0.1)  # first call outside the timing: one-off set-up costs
    times = {}
    for jj in (10**5, 10**6, 10**7):
        start = time.perf_counter()
        res = spectral_gap(SpinJ(2 * jj), 0.5)
        times[jj] = time.perf_counter() - start
        assert res.satisfied
    ratio = times[10**7] / times[10**5]
    ok = times[10**6] <= 10.0 and ratio <= 3.0 * 100.0
    report(capsys, 9, "large-J performance and linear scaling", ok,
           sum(times.values()),
           f"t(1e6)={times[10**6]:.2f}s, t(1e7)/t(1e5)={ratio:.0f}x")


def test_criterion_10_determinism(capsys, tmp_path):
    start = time.perf_counter()
    args = [
        "gap-scan", "--j-list", "5,10,15,25,30,100,1000",
        "--gamma-min", "0", "--gamma-max", "3", "--steps", "50",
    ]
    blobs = []
    for i, threads in enumerate(("1", "4", "4")):
        path = tmp_path / f"scan{i}.csv"
        code = cli_main(args + ["--out", str(path), "--threads", threads])
        assert code == 0
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - start
    report(capsys, 10, "byte-identical scans across runs and threads", ok, elapsed)
