"""Hamiltonian builders: the four model forms and their block structure."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    complex_spin_ops,
    oracle_h_susy,
    ref_a_vec_j2,
    ref_h_minus_j2,
    ref_h_plus_j2,
    ref_hn_j2,
)
from lmgspec import (
    ModelParams,
    NonFiniteInput,
    NotIntegerSpin,
    OverflowRisk,
    SpinJ,
    build_factorized,
    build_lmg_general,
    build_nonhermitian,
    build_supercharges,
    build_susy_rotated,
    eig_dense_symmetric,
    extract_hn_blocks,
    gap_sector_tridiag,
    h_minus_elements,
    supercharge_chain,
    susy_sector_blocks,
    susy_sorted_hamiltonian,
)
from lmgspec import models
from lmgspec.cli import main
from lmgspec.models import chain_magnitudes

GAMMAS = [0.0, 0.3, -0.7, 1.5]


class TestBuilders:
    @pytest.mark.parametrize("g", GAMMAS)
    @pytest.mark.parametrize("two_j", [2, 4, 7, 12, 101, 200])
    def test_rotated_matches_complex_oracle(self, two_j, g):
        h = build_susy_rotated(SpinJ(two_j), g)
        ref = oracle_h_susy(two_j, g)
        assert np.allclose(h, ref, atol=1e-13 * max(1.0, np.max(np.abs(ref))))
        assert np.array_equal(h, h.T)

    def test_rotated_forms_need_no_spin_matrices(self, monkeypatch, capsys):
        # The rotated H and its sector-sorted form come from closed-form bands.
        def fail(j):
            raise AssertionError("build_spin_operators called")
        monkeypatch.setattr(models, "build_spin_operators", fail)
        assert build_susy_rotated(SpinJ(7), 0.4).shape == (8, 8)
        assert susy_sorted_hamiltonian(SpinJ(12), 0.4).shape == (13, 13)
        assert main(["spectrum", "--j", "7/2,6", "--gamma", "0.4"]) == 0
        assert capsys.readouterr().out.count("\n") == 1 + 8 + 13

    @pytest.mark.parametrize("g", GAMMAS)
    def test_general_matches_complex_oracle(self, g):
        two_j = 8
        p = ModelParams(xi=0.9, chi1=1.2 * math.cosh(g), chi2=1.2 * math.sinh(g), lam=0.7)
        jx, jy, jz = complex_spin_ops(two_j)
        ref = p.xi * (
            p.chi1**2 * (jz @ jz) + p.chi2**2 * (jy @ jy) + p.lam * p.chi1 * p.chi2 * jx
        )
        h = build_lmg_general(SpinJ(two_j), p)
        assert np.allclose(h, ref.real, atol=1e-13 * max(1.0, np.max(np.abs(h))))

    @pytest.mark.parametrize("xi, chi1, chi2, lam", [
        (math.nan, 1.0, 1.0, 1.0), (1.0, math.inf, 1.0, 1.0), (0.0, math.inf, 1.0, 1.0),
        (1.0, 1e200, 1.0, 1.0), (1e300, 1e10, 0.0, 0.0), (1.0, 1e10, 1e10, 1e308),
    ])
    def test_general_entries_not_finite_raise(self, xi, chi1, chi2, lam):
        # Each ended in an OverflowError or a LinAlgError from eigvalsh.
        with pytest.raises(OverflowRisk):
            build_lmg_general(SpinJ(4), ModelParams(xi=xi, chi1=chi1, chi2=chi2, lam=lam))

    @pytest.mark.parametrize("g", GAMMAS)
    @pytest.mark.parametrize("two_j", [2, 6, 11])
    def test_all_susy_forms_isospectral(self, two_j, g):
        jv = SpinJ(two_j)
        e_rot = eig_dense_symmetric(build_susy_rotated(jv, g))
        scale = max(1.0, np.max(np.abs(e_rot)))
        e_fac = eig_dense_symmetric(build_factorized(jv, g))
        assert np.allclose(e_rot, e_fac, atol=1e-11 * scale)
        p = ModelParams(xi=1.0, chi1=math.cosh(g), chi2=math.sinh(g), lam=1.0)
        e_gen = eig_dense_symmetric(build_lmg_general(jv, p))
        assert np.allclose(e_rot, e_gen, atol=1e-11 * scale)
        e_non = np.sort(np.linalg.eigvals(build_nonhermitian(jv, g)).real)
        assert np.allclose(e_rot, e_non, atol=1e-9 * scale)

    @pytest.mark.parametrize("g", [0.0, 0.4, -1.1])
    def test_factorized_equals_exponential_chain(self, g):
        # product form F^T F must equal exp(-gJx) Jz exp(2gJx) Jz exp(-gJx)
        two_j = 8
        jx, _, jz = complex_spin_ops(two_j)
        jx, jz = jx.real, jz.real
        chain = expm(-g * jx) @ jz @ expm(2 * g * jx) @ jz @ expm(-g * jx)
        h = build_factorized(SpinJ(two_j), g)
        assert np.allclose(h, chain, atol=1e-11 * max(1.0, np.max(np.abs(chain))))

    def test_factorized_stable_at_large_gamma_j(self):
        # the exponential-chain intermediates overflow float64 digits here;
        # the product form must stay symmetric PSD with tiny smallest eigenvalue
        jv = SpinJ(60)
        h = build_factorized(jv, 2.0)
        assert np.array_equal(h, h.T)
        eigs = eig_dense_symmetric(h)
        assert eigs[0] > -1e-9 * np.max(np.abs(eigs))


class TestNonHermitianBlocks:
    @pytest.mark.parametrize("g", [0.3, 0.7, 1.1])
    def test_j2_reference_matrices(self, g):
        jv = SpinJ(4)
        hn = build_nonhermitian(jv, g)
        assert np.array_equal(hn, ref_hn_j2(g))
        b = extract_hn_blocks(hn, jv)
        assert np.array_equal(b.h_minus.to_dense(), ref_h_minus_j2(g))
        assert np.array_equal(b.h_plus.to_dense(), ref_h_plus_j2(g))
        assert np.array_equal(b.a_vec, ref_a_vec_j2(g))
        # reflection symmetry: the positive-m half of the m=0 row is a_vec too
        assert np.array_equal(b.a_vec, hn[2, 3:])

    @pytest.mark.parametrize("two_j", [2, 4, 6, 10, 16])
    def test_zero_column_at_m0(self, two_j):
        jj = two_j // 2
        hn = build_nonhermitian(SpinJ(two_j), 0.9)
        assert np.array_equal(hn[:, jj], np.zeros(two_j + 1))

    @pytest.mark.parametrize("g", [0.5, -0.8])
    @pytest.mark.parametrize("two_j", [2, 6, 12, 20])
    def test_h_minus_elements_match_slice(self, two_j, g):
        jv = SpinJ(two_j)
        sliced = extract_hn_blocks(build_nonhermitian(jv, g), jv).h_minus
        direct = h_minus_elements(jv, g)
        assert np.array_equal(direct.to_dense(), sliced.to_dense())

    @pytest.mark.parametrize("two_j", [2, 6, 12, 20])
    def test_h_plus_is_reversed_h_minus(self, two_j):
        jv = SpinJ(two_j)
        b = extract_hn_blocks(build_nonhermitian(jv, 0.7), jv)
        assert np.array_equal(
            b.h_plus.reversed_conjugate().to_dense(), b.h_minus.to_dense()
        )

    def test_half_integer_rejected(self):
        with pytest.raises(NotIntegerSpin):
            extract_hn_blocks(np.zeros((4, 4)), SpinJ(3))
        with pytest.raises(NotIntegerSpin):
            h_minus_elements(SpinJ(3), 0.5)


class TestSectorBlocks:
    @pytest.mark.parametrize("g", GAMMAS)
    @pytest.mark.parametrize("two_j", [2, 6, 8, 14])
    def test_parity_blocks_reembed_exactly(self, two_j, g):
        # the SUSY sectors are the m-parity sectors (swapped for odd J):
        # the even basis indices i = m + J, then the odd ones
        jv = SpinJ(two_j)
        zero_sec, gap_sec = susy_sector_blocks(jv, g)
        perm = np.r_[0:two_j + 1:2, 1:two_j + 1:2]
        sorted_h = oracle_h_susy(two_j, g)[np.ix_(perm, perm)]
        k = zero_sec.n
        dense = np.zeros_like(sorted_h)
        dense[:k, :k] = zero_sec.to_dense()
        dense[k:, k:] = gap_sec.to_dense()
        assert np.allclose(dense, sorted_h, atol=1e-13 * max(1.0, np.max(np.abs(sorted_h))))
        # the coupling blocks of the sorted Hamiltonian vanish identically
        assert np.max(np.abs(sorted_h[:k, k:])) == 0.0

    @pytest.mark.parametrize("g", GAMMAS)
    @pytest.mark.parametrize("two_j", [2, 6, 8, 14])
    def test_block_spectra_union_is_full_spectrum(self, two_j, g):
        jv = SpinJ(two_j)
        zero_sec, gap_sec = susy_sector_blocks(jv, g)
        union = np.sort(
            np.concatenate(
                [eig_dense_symmetric(zero_sec.to_dense()), eig_dense_symmetric(gap_sec.to_dense())]
            )
        )
        full = eig_dense_symmetric(oracle_h_susy(two_j, g))
        assert np.allclose(union, full, atol=1e-10 * max(1.0, np.max(np.abs(full))))

    @pytest.mark.parametrize("two_j", [2, 4, 6, 10, 14])
    def test_sector_sizes(self, two_j):
        jj = two_j // 2
        zero_sec, gap_sec = susy_sector_blocks(SpinJ(two_j), 0.6)
        assert (zero_sec.n, gap_sec.n) == (jj + 1, jj)

    @pytest.mark.parametrize("two_j", [2, 6, 8, 14])
    def test_gap_sector_tridiag_matches_block(self, two_j):
        g = 0.6
        jv = SpinJ(two_j)
        _, gap_sec = susy_sector_blocks(jv, g)
        fast = gap_sector_tridiag(jv, g)
        assert np.array_equal(fast.diag, gap_sec.diag)
        assert np.array_equal(fast.off, gap_sec.off)
        assert fast.n == two_j // 2

    @pytest.mark.parametrize("g", GAMMAS)
    @pytest.mark.parametrize("two_j", [1, 2, 5, 8])
    def test_supercharge_chain_walks_m(self, two_j, g):
        # e_i is M[i, i+1] for even i and M[i+1, i] for odd i, where
        # M = Jx cosh(g) + i Jy sinh(g) in complex ladder-operator form.
        jx, jy, _ = complex_spin_ops(two_j)
        m = (math.cosh(g) * jx + 1j * math.sinh(g) * jy).real
        i = np.arange(two_j)
        expect = np.where(i % 2 == 0, m[i, i + 1], m[i + 1, i])
        got = supercharge_chain(SpinJ(two_j), g)
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("two_j", [3, 8, 21])
    def test_chain_magnitudes_range(self, two_j):
        jv = SpinJ(two_j)
        full = chain_magnitudes(jv)
        assert np.array_equal(full, supercharge_chain(jv, 0.0))
        for start, stop in ((0, two_j), (1, 3), (2, 3), (two_j - 1, two_j)):
            assert np.array_equal(chain_magnitudes(jv, start, stop), full[start:stop])

    def test_zero_sector_holds_zero_mode(self):
        jv = SpinJ(10)
        zero_sec, gap_sec = susy_sector_blocks(jv, 0.8)
        e0 = eig_dense_symmetric(zero_sec.to_dense())
        e1 = eig_dense_symmetric(gap_sec.to_dense())
        scale = np.max(np.abs(e0))
        assert abs(e0[0]) <= 1e-12 * scale
        assert e1[0] > 1.0  # the gap sector is bounded away from zero

    def test_errors(self):
        with pytest.raises(NotIntegerSpin):
            susy_sector_blocks(SpinJ(5), 0.5)
        with pytest.raises(NotIntegerSpin):
            gap_sector_tridiag(SpinJ(0), 0.5)


# name: (builder, the arrays of its output)
GUARDED = {
    "supercharge_chain": (supercharge_chain, lambda e: [e]),
    "build_supercharges": (build_supercharges, lambda s: [s.q1, s.r2]),
    "h_minus_elements": (h_minus_elements, lambda t: [t.to_dense()]),
}


class TestGammaGuard:
    """The (J, gamma) builders answer a gamma they cannot represent with an
    LmgError, never a NaN, an inf or a bare OverflowError."""

    @pytest.mark.parametrize("name, two_j, g, error", [
        *[(name, 2, g, NonFiniteInput)
          for name in GUARDED for g in (math.nan, math.inf, -math.inf)],
        *[(name, 2, g, OverflowRisk) for name in GUARDED for g in (800.0, -800.0)],
        ("h_minus_elements", 2 * 10**6, 345.0, OverflowRisk),
        ("supercharge_chain", 2 * 10**6, 705.0, OverflowRisk),
    ])
    def test_raises(self, name, two_j, g, error):
        with pytest.raises(error):
            GUARDED[name][0](SpinJ(two_j), g)

    # A gamma just inside each builder's range, and one 0.01 past it: the
    # chain and the supercharges stop where an entry overflows, and
    # h_minus_elements where build_nonhermitian, of which it is a slice, does.
    @pytest.mark.parametrize("name, two_j, edge", [
        ("supercharge_chain", 2, 709.78),
        ("supercharge_chain", 2 * 10**6, 696.66),
        ("build_supercharges", 2, 710.12),
        ("build_supercharges", 20, 708.12),
        ("h_minus_elements", 2, 354.89),
    ])
    def test_edge(self, name, two_j, edge):
        build, arrays = GUARDED[name]
        for g in (edge, -edge):
            assert all(np.isfinite(a).all() for a in arrays(build(SpinJ(two_j), g)))
            with pytest.raises(OverflowRisk):
                build(SpinJ(two_j), g + math.copysign(0.01, g))
