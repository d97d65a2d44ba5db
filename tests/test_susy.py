"""Supercharges, superalgebra residuals, spectrum classification."""

import math

import numpy as np
import pytest

from conftest import ref_q1_j2, ref_r2_j2, ref_sorted_h_j2
from lmgspec import (
    DimensionMismatch,
    EmptySpectrum,
    NonFiniteInput,
    NotIntegerSpin,
    OverflowRisk,
    SpinJ,
    SymTridiag,
    build_supercharges,
    build_susy_rotated,
    classify_spectrum,
    eig_dense_symmetric,
    susy_sorted_hamiltonian,
    verify_superalgebra,
    verify_superalgebra_bands,
)
from lmgspec import susy

#: signed permutation relating the library's sorted basis (both sectors
#: ascending in m) to the reference J=2 matrices (second sector descending).
P_J2 = np.eye(5)
P_J2[3:, 3:] = [[0.0, 1.0], [1.0, 0.0]]


class TestSupercharges:
    @pytest.mark.parametrize("g", [0.0, 0.3, 0.7, 1.1, -0.6])
    def test_j2_reference_matrices(self, g):
        ch = build_supercharges(SpinJ(4), g)
        assert np.allclose(P_J2 @ ch.q1 @ P_J2, ref_q1_j2(g), atol=2e-15 * np.exp(abs(g)))
        assert np.allclose(P_J2 @ ch.r2 @ P_J2, ref_r2_j2(g), atol=2e-15 * np.exp(abs(g)))
        assert np.allclose(
            P_J2 @ susy_sorted_hamiltonian(SpinJ(4), g) @ P_J2,
            ref_sorted_h_j2(g),
            atol=1e-13 * np.exp(2 * abs(g)),
        )

    @pytest.mark.parametrize("two_j", [2, 4, 6, 10, 16])
    def test_structure(self, two_j):
        ch = build_supercharges(SpinJ(two_j), 0.8)
        k = two_j // 2 + 1
        assert np.array_equal(ch.q1, ch.q1.T)            # Q1 Hermitian
        assert np.array_equal(ch.r2, -ch.r2.T)           # Q2 = i*r2 Hermitian
        assert np.max(np.abs(ch.q1[:k, :k])) == 0.0      # off-block-diagonal
        assert np.max(np.abs(ch.q1[k:, k:])) == 0.0

    @pytest.mark.parametrize("g", [0.0, 0.3, 0.7, 1.5, -0.7])
    @pytest.mark.parametrize("two_j", [2, 6, 12, 20])
    def test_superalgebra_residuals(self, two_j, g):
        jv = SpinJ(two_j)
        res = verify_superalgebra(build_supercharges(jv, g), susy_sorted_hamiltonian(jv, g))
        assert res.passed(1e-10)
        bound = 1e-12 * max(1.0, res.h_norm)
        assert res.r_q1_sq <= bound
        assert res.r_q2_sq <= bound
        assert res.r_anti <= bound
        assert res.r_comm <= 10 * bound

    def test_half_integer_rejected(self):
        with pytest.raises(NotIntegerSpin):
            build_supercharges(SpinJ(3), 0.5)

    def test_dimension_mismatch(self):
        ch = build_supercharges(SpinJ(4), 0.5)
        with pytest.raises(DimensionMismatch):
            verify_superalgebra(ch, np.zeros((3, 3)))


class TestSuperalgebraBands:
    @pytest.mark.parametrize("g", np.linspace(-2.9, 2.9, 9).tolist() + [0.7, -1.3])
    def test_against_dense(self, g):
        for jj in range(41):
            jv = SpinJ(2 * jj)
            bands = verify_superalgebra_bands(jv, g)
            dense = verify_superalgebra(build_supercharges(jv, g), susy_sorted_hamiltonian(jv, g))
            # the closed-form blocks and the dense products round differently
            assert bands.h_norm == pytest.approx(dense.h_norm, rel=8 * np.finfo(float).eps)
            assert bands.passed(1e-10) and dense.passed(1e-10)
            assert bands.r_q2_sq == bands.r_q1_sq and bands.r_anti == 0.0

    def test_mutated_chain_fails(self, monkeypatch):
        chain = susy.supercharge_chain

        def mutant(j, gamma):
            e = chain(j, gamma)
            e[len(e) // 2] *= 1.0 + 1e-6
            return e

        jv, g = SpinJ(20), 0.7
        assert verify_superalgebra_bands(jv, g).passed(1e-10)
        monkeypatch.setattr(susy, "supercharge_chain", mutant)
        res = verify_superalgebra_bands(jv, g)
        assert not res.passed(1e-10)
        assert res.r_q1_sq > 1e-10 * res.h_norm and res.r_comm > 1e-10 * res.h_norm

    def test_dropped_gap_reversal_fails(self, monkeypatch):
        # Handing over G already reversed undoes the reversal inside.
        blocks = susy.susy_sector_blocks

        def mutant(j, gamma):
            z, g = blocks(j, gamma)
            return z, SymTridiag(diag=g.diag[::-1], off=g.off[::-1])

        monkeypatch.setattr(susy, "susy_sector_blocks", mutant)
        res = verify_superalgebra_bands(SpinJ(20), 0.7)
        assert not res.passed(1e-10)

    def test_j_zero(self):
        res = verify_superalgebra_bands(SpinJ(0), 0.5)
        assert (res.r_q1_sq, res.r_comm, res.h_norm) == (0.0, 0.0, 0.0)

    def test_half_integer_rejected(self):
        with pytest.raises(NotIntegerSpin):
            verify_superalgebra_bands(SpinJ(3), 0.5)

    @pytest.mark.parametrize("g", [354.5, -400.0, 800.0])
    def test_overflow(self, g):
        with pytest.raises(OverflowRisk):
            verify_superalgebra_bands(SpinJ(4), g)


class TestClassifySpectrum:
    def test_perfect_pattern(self):
        eigs = np.array([0.0, 1.0, 1.0, 4.0, 4.0])
        rep = classify_spectrum(eigs, SpinJ(4))
        assert rep.verdict == "SusyPattern"
        assert rep.zero_mode == (0.0, 0.0)
        assert rep.pair_index == (-1, 0, 0, 1, 1)
        assert len(rep.doublets) == 2 and not rep.unpaired

    def test_broken_no_zero(self):
        eigs = np.array([0.5, 1.0, 1.0, 4.0, 4.0])
        rep = classify_spectrum(eigs, SpinJ(4))
        assert rep.verdict == "SusyBroken"
        assert rep.zero_mode is None
        assert rep.pair_index == (-2, 0, 0, 1, 1)  # 0.5 left unpaired
        assert rep.unpaired == [0.5]

    def test_unpaired_detected(self):
        eigs = np.array([0.0, 1.0, 2.0, 2.0])
        rep = classify_spectrum(eigs, SpinJ(4))
        assert rep.verdict == "SusyBroken"
        assert 1.0 in rep.unpaired
        assert rep.pair_index == (-1, -2, 0, 0)

    def test_split_tolerance_is_relative(self):
        eigs = np.array([0.0, 100.0, 100.0 + 5e-7])
        assert classify_spectrum(eigs, SpinJ(2), tol=1e-8).verdict == "SusyPattern"
        assert classify_spectrum(eigs, SpinJ(2), tol=1e-12).verdict == "SusyBroken"

    def test_two_zeros_is_broken(self):
        eigs = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        assert classify_spectrum(eigs, SpinJ(4)).verdict == "SusyBroken"

    def test_input_validation(self):
        with pytest.raises(EmptySpectrum):
            classify_spectrum(np.array([]), SpinJ(2))
        with pytest.raises(ValueError):
            classify_spectrum(np.array([1.0, 0.0]), SpinJ(2))
        with pytest.raises(ValueError):
            classify_spectrum(np.array([0.0, 1.0]), SpinJ(2), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_raises(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            classify_spectrum(np.array([0.0, 1.0, 1.0]), SpinJ(2), tol=tol)

    @pytest.mark.parametrize("eigs", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
    def test_non_finite_eigenvalue_raises(self, eigs):
        with pytest.raises(NonFiniteInput):
            classify_spectrum(eigs, SpinJ(2))

    @pytest.mark.parametrize("two_j", [2, 6, 10, 20])
    def test_real_integer_spectra(self, two_j):
        jv = SpinJ(two_j)
        eigs = eig_dense_symmetric(build_susy_rotated(jv, 0.9))
        rep = classify_spectrum(eigs, jv)
        assert rep.verdict == "SusyPattern"
        assert len(rep.doublets) == two_j // 2

    @pytest.mark.parametrize("two_j", [3, 5, 7])
    def test_real_half_integer_spectra(self, two_j):
        jv = SpinJ(two_j)
        eigs = eig_dense_symmetric(build_susy_rotated(jv, 0.9))
        rep = classify_spectrum(eigs, jv)
        assert rep.verdict == "SusyBroken"
        assert eigs[0] > 1e-6  # strictly positive ground state: no zero mode
