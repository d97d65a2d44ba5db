"""Spin operators, the matrix exponential and the SUSY basis ordering."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import complex_spin_ops
from lmgspec import (
    DimensionMismatch,
    NonFiniteInput,
    NotIntegerSpin,
    OverflowRisk,
    SpinJ,
    build_spin_operators,
    mat_exp_scaled,
    supercharge_chain,
    susy_sector_blocks,
    susy_sorted_hamiltonian,
)
from lmgspec.spin import ladder


def condon_shortley(two_j, start, stop):
    """(1/2)sqrt(J(J+1) - m(m+1)) at m = i - J for i = start .. stop-1."""
    jj = two_j / 2.0
    m = np.arange(start, stop) - jj
    return 0.5 * np.sqrt(jj * (jj + 1.0) - m * (m + 1.0))


class TestSpinJ:
    @pytest.mark.parametrize(
        "text,two_j", [("2", 4), ("1.5", 3), ("3/2", 3), ("0", 0), ("10", 20), ("5/2", 5)]
    )
    def test_from_j_parses(self, text, two_j):
        assert SpinJ.from_j(text).two_j == two_j

    def test_from_j_numeric(self):
        assert SpinJ.from_j(2).two_j == 4
        assert SpinJ.from_j(2.5).two_j == 5

    @pytest.mark.parametrize("bad", ["0.3", "-1", "2/3", 2.7, pytest.param(0.3, id="float-0.3"),
                                     7.25, 1e-9])
    def test_from_j_rejects(self, bad):
        with pytest.raises(ValueError):
            SpinJ.from_j(bad)

    @pytest.mark.parametrize("bad", ["1/0", math.inf, -math.inf, math.nan])
    def test_from_j_rejects_unrepresentable(self, bad):
        with pytest.raises(ValueError):
            SpinJ.from_j(bad)

    def test_rejects_negative_two_j(self):
        with pytest.raises(ValueError):
            SpinJ(-2)

    @pytest.mark.parametrize("bad", [True, "3", None, 3.0])
    def test_rejects_a_two_j_that_is_not_an_int(self, bad):
        with pytest.raises(ValueError):
            SpinJ(bad)

    def test_basic_properties(self):
        j = SpinJ(4)
        assert j.j == 2.0 and j.dim == 5
        assert j.is_integer_spin()
        assert str(j) == "2"
        assert np.array_equal(j.m_values(), [-2, -1, 0, 1, 2])

    def test_half_integer(self):
        j = SpinJ(3)
        assert not j.is_integer_spin()
        assert str(j) == "1.5"
        assert np.array_equal(j.m_values(), [-1.5, -0.5, 0.5, 1.5])
        # (2^53 + 1) / 2 as a float rounds to 4503599627370496.0
        assert str(SpinJ(2**53 + 1)) == "4503599627370496.5"


class TestOperators:
    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7, 12])
    def test_matches_complex_ladder_oracle(self, two_j):
        s = build_spin_operators(SpinJ(two_j))
        jx, jy, jz = complex_spin_ops(two_j)
        assert np.allclose(s.jx, jx.real, atol=1e-14)
        assert np.allclose(s.ky, (1j * jy).real, atol=1e-14)
        assert np.allclose(s.jz, jz.real, atol=1e-14)
        assert np.max(np.abs((1j * jy).imag)) == 0.0

    @pytest.mark.parametrize("two_j", [1, 2, 5, 10])
    def test_algebra(self, two_j):
        # [Jx, Ky] = -Jz, [Ky, Jz] = -Jx, [Jz, Jx] = i Jy = Ky (real images)
        s = build_spin_operators(SpinJ(two_j))
        comm = lambda a, b: a @ b - b @ a
        assert np.allclose(comm(s.jx, s.ky), -s.jz, atol=1e-13)
        assert np.allclose(comm(s.ky, s.jz), -s.jx, atol=1e-13)
        assert np.allclose(comm(s.jz, s.jx), s.ky, atol=1e-13)

    @pytest.mark.parametrize("two_j", [1, 2, 5, 10])
    def test_casimir(self, two_j):
        s = build_spin_operators(SpinJ(two_j))
        jj = two_j / 2.0
        casimir = s.jx @ s.jx - s.ky @ s.ky + s.jz @ s.jz
        assert np.allclose(casimir, jj * (jj + 1) * np.eye(two_j + 1), atol=1e-12)

    def test_symmetry_structure(self):
        s = build_spin_operators(SpinJ(6))
        assert np.array_equal(s.jx, s.jx.T)
        assert np.array_equal(s.ky, -s.ky.T)
        assert np.count_nonzero(s.jz - np.diag(np.diag(s.jz))) == 0


class TestLadder:
    @pytest.mark.parametrize("two_j", [3, 8, 21])
    def test_range(self, two_j):
        jv = SpinJ(two_j)
        full = ladder(jv)
        assert np.array_equal(full, supercharge_chain(jv, 0.0))
        for start, stop in ((0, two_j), (1, 3), (2, 3), (two_j - 1, two_j)):
            assert np.array_equal(ladder(jv, start, stop), full[start:stop])

    def test_bits_equal_condon_shortley(self):
        for two_j in range(301):
            got = ladder(SpinJ(two_j))
            assert got.tobytes() == condon_shortley(two_j, 0, two_j).tobytes()

    @pytest.mark.parametrize("two_j", [2 * 10**7, 9 * 10**7])
    def test_bits_on_large_j_windows(self, two_j):
        # Chunk-sized windows at both ends and across the peak at i = J;
        # the products (2J - i)(i + 1) are exact while (J + 1/2)^2 < 2^53.
        w, jj = 1 << 17, two_j // 2
        for start, stop in ((0, w + 1), (jj - w // 2, jj + w // 2 + 1), (two_j - w, two_j)):
            got = ladder(SpinJ(two_j), start, stop)
            assert got.tobytes() == condon_shortley(two_j, start, stop).tobytes()


class TestMatExp:
    def test_identity_at_zero(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(mat_exp_scaled(m, 0.0), np.eye(3))

    @pytest.mark.parametrize("t", [0.3, -1.7, 4.0])
    def test_against_scipy(self, rng, t):
        m = rng.standard_normal((6, 6))
        ours, ref = mat_exp_scaled(m, t), expm(t * m)
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_group_property(self):
        s = build_spin_operators(SpinJ(8))
        a = mat_exp_scaled(s.jx, 0.4) @ mat_exp_scaled(s.jx, 0.6)
        b = mat_exp_scaled(s.jx, 1.0)
        assert np.allclose(a, b, rtol=1e-12)

    def test_overflow_guard(self):
        s = build_spin_operators(SpinJ(40))
        with pytest.raises(OverflowRisk):
            mat_exp_scaled(s.jx, 1e3)

    @pytest.mark.parametrize("m,t", [(np.array([[math.nan]]), 1.0), (np.eye(2), math.nan),
                                     (np.eye(2), math.inf), (np.zeros((2, 2)), math.inf),
                                     (np.array([[1.0, -math.inf], [0.0, 1.0]]), 0.5)])
    def test_non_finite_input(self, m, t):
        with pytest.raises(NonFiniteInput):
            mat_exp_scaled(m, t)

    @pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))])
    def test_not_a_square_matrix(self, m):
        with pytest.raises(DimensionMismatch):
            mat_exp_scaled(m, 1.0)

    def test_empty_matrix(self):
        assert mat_exp_scaled(np.zeros((0, 0)), 1.0).shape == (0, 0)

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(-3, 3), seed=st.integers(0, 2**16))
    @example(t=3.0, seed=113)  # off by 1.5e-9 here, by 2.0e-9 with scipy's expm
    def test_inverse_property(self, t, seed):
        # The rounding error of the product grows with the norms of both
        # factors: error / (eps * |a|_inf * |b|_inf) stayed below 10 over
        # 28k sampled (seed, t) cases.
        m = np.random.default_rng(seed).standard_normal((4, 4))
        a, b = mat_exp_scaled(m, t), mat_exp_scaled(m, -t)
        tol = 64 * np.finfo(float).eps * np.linalg.norm(a, np.inf) * np.linalg.norm(b, np.inf)
        assert np.max(np.abs(a @ b - np.eye(4))) <= tol


class TestSorting:
    def test_half_integer_rejected(self):
        # the SUSY sector ordering splits the m-parity sectors, which needs integer J
        for two_j in (3, 5):
            with pytest.raises(NotIntegerSpin):
                susy_sector_blocks(SpinJ(two_j), 0.5)
            with pytest.raises(NotIntegerSpin):
                susy_sorted_hamiltonian(SpinJ(two_j), 0.5)
