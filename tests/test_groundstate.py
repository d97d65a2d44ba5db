"""Zero mode: Legendre normalization, amplitudes, residuals."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal

from conftest import complex_spin_ops, legendre_rodrigues
from lmgspec import (
    NonFiniteInput,
    NotIntegerSpin,
    OverflowRisk,
    SpinJ,
    build_factorized,
    build_spin_operators,
    build_susy_rotated,
    ground_state,
    legendre_p,
    mat_exp_scaled,
    susy_sector_blocks,
)


def f_oracle(jj: int, g: float) -> np.ndarray:
    """F = Jz cosh(g) - i Jy sinh(g) from the complex ladder operators."""
    _, jy, jz = complex_spin_ops(2 * jj)
    f = math.cosh(g) * jz - 1j * math.sinh(g) * jy
    assert np.max(np.abs(f.imag)) == 0.0
    return f.real


def f_columns_max_sq(jj: int, g: float) -> float:
    """max_i ||F e_i||^2 = max diag(F^T F), a lower bound on ||H||_2, in O(J)."""
    m = np.arange(-jj, jj + 1.0)
    v2 = 0.25 * (jj * (jj + 1.0) - m * (m + 1.0))        # v_m^2, zero at m = J
    w2 = np.concatenate(([0.0], v2[:-1])) + v2           # v_{m-1}^2 + v_m^2
    return float(np.max((math.cosh(g) * m) ** 2 + math.sinh(g) ** 2 * w2))


class TestLegendre:
    def test_seeds(self):
        assert legendre_p(0, 3.7) == 1.0
        assert legendre_p(1, 3.7) == 3.7

    def test_p2_closed_form(self):
        assert math.isclose(legendre_p(2, 1.5), 2.875, rel_tol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 9, 14])
    @pytest.mark.parametrize("x", [1.0, 1.3, math.cosh(2.0), 7.5])
    def test_against_rodrigues_sum(self, n, x):
        assert math.isclose(legendre_p(n, x), legendre_rodrigues(n, x), rel_tol=1e-12)

    def test_at_one(self):
        for n in range(12):
            assert math.isclose(legendre_p(n, 1.0), 1.0, rel_tol=1e-14)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            legendre_p(-1, 0.5)

    def test_past_the_rescale_point(self):
        # P_250(3) ~ 1e187 passes 2**500 ~ 3e150 on the way
        assert math.isclose(legendre_p(250, 3.0), legendre_rodrigues(250, 3.0), rel_tol=1e-12)

    def test_unrepresentable_raises(self):
        with pytest.raises(OverflowRisk):
            legendre_p(400, math.cosh(4.0))


class TestGroundState:
    def test_gamma_zero_is_indicator(self):
        gs = ground_state(SpinJ(8), 0.0)
        expect = np.zeros(9)
        expect[4] = 1.0
        assert np.array_equal(gs.amplitudes, expect)
        assert gs.energy_residual == 0.0
        assert gs.norm_legendre == 1.0

    def test_j1_norm_identity(self):
        # <0|exp(2 g Jx)|0> = cosh(2g) = P_1(cosh 2g) analytically
        g = 0.9
        gs = ground_state(SpinJ(2), g)
        assert math.isclose(gs.norm_direct, math.sqrt(math.cosh(2 * g)), rel_tol=1e-12)
        assert math.isclose(gs.norm_direct, gs.norm_legendre, rel_tol=1e-12)

    @pytest.mark.parametrize("g", [-2.0, -0.5, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("jj", [1, 4, 10, 22, 30])
    def test_norm_identity_and_residual(self, jj, g):
        jv = SpinJ(2 * jj)
        gs = ground_state(jv, g)
        assert math.isclose(gs.norm_direct, gs.norm_legendre, rel_tol=1e-10)
        h = build_factorized(jv, g)
        h_norm = np.linalg.norm(h, 2)
        assert gs.energy_residual <= 1e-9 * max(1.0, h_norm)
        assert math.isclose(float(np.linalg.norm(gs.amplitudes)), 1.0, rel_tol=1e-9)

    @pytest.mark.parametrize("jj, g, pins", [
        (10, 0.7, {0: "0x1.dac3f12c2b77bp-15", 5: "0x1.ea2dd3d5f45bdp-5",
                   10: "0x1.eb7a656a91528p-2", 13: "0x1.d0779b0f09aefp-3"}),
        (41, -1.1, {0: "-0x1.08da99fac0d8ep-48", 20: "-0x1.4a366913ec57ap-12",
                    41: "0x1.41182c160d6c7p-2", 44: "-0x1.182edba702e21p-2"}),
        (250, 0.9, {0: "0x1.c4d9675ffae42p-316", 125: "0x1.26f4ef8c9961cp-67",
                    250: "0x1.a47d6dc45275fp-3", 253: "0x1.9a0fbb335997bp-3"}),
    ])
    def test_pinned_hex(self, jj, g, pins):
        # The factorized recurrence's amplitudes, bit for bit
        amps = ground_state(SpinJ(2 * jj), g).amplitudes
        assert {i: float(amps[i]).hex() for i in pins} == pins

    @pytest.mark.parametrize("g", [0.4, 1.7, -1.1])
    def test_reflection_symmetry(self, g):
        gs = ground_state(SpinJ(20), g)
        assert np.allclose(gs.amplitudes, gs.amplitudes[::-1], atol=1e-12)

    def test_amplitudes_positive_for_positive_gamma(self):
        # exp(g Jx) has nonnegative entries for g > 0, so does the zero mode
        gs = ground_state(SpinJ(12), 0.8)
        assert np.all(gs.amplitudes > 0)

    def test_continuity_small_gamma(self):
        gs = ground_state(SpinJ(10), 1e-8)
        assert abs(gs.amplitudes[5] - 1.0) < 1e-7

    def test_rotated_frame(self):
        jv = SpinJ(12)
        g = 0.7
        gs = ground_state(jv, g, frame="rotated")
        h = build_susy_rotated(jv, g)
        assert gs.energy_residual <= 1e-9 * np.linalg.norm(h, 2)
        assert gs.norm_legendre is None
        # zero mode lives in the J+1 sector: odd-m amplitudes vanish (even J)
        assert np.max(np.abs(gs.amplitudes[1::2])) == 0.0

    def test_rotated_j0(self):
        gs = ground_state(SpinJ(0), 1.3, frame="rotated")
        assert np.array_equal(gs.amplitudes, [1.0])

    def test_large_gamma_j_spectral_path(self):
        # sqrt(P_200(cosh 8)) ~ e^800 is beyond float64: an error, not a NaN norm
        with pytest.raises(OverflowRisk):
            ground_state(SpinJ(400), 4.0)

    @pytest.mark.parametrize("g", [400.0, -400.0])
    def test_overflowing_cosh_raises(self, g):
        # math.cosh(2 gamma) = cosh(800) raises OverflowError in the
        # factorized frame; the handler turns it into OverflowRisk
        with pytest.raises(OverflowRisk, match="out of the float64 range") as err:
            ground_state(SpinJ(4), g)
        assert err.value.__suppress_context__

    @pytest.mark.parametrize("g", [2.0, -2.0])
    def test_j200_gamma2_finite(self, g):
        # sqrt(P_200(cosh 4)) ~ 1e173, though P_200(cosh 4) itself overflows
        gs = ground_state(SpinJ(400), g)
        assert math.isfinite(gs.norm_direct) and math.isfinite(gs.norm_legendre)
        assert abs(gs.norm_direct / gs.norm_legendre - 1.0) <= 1e-12
        f = f_oracle(200, g)
        assert np.linalg.norm(f @ gs.amplitudes) <= 1e-13 * np.linalg.norm(f, 2)

    @pytest.mark.parametrize("g", [0.05, -0.05])
    def test_j10000_both_frames(self, g):
        # criterion 7's bounds, against a lower bound on ||H||_2 (so stricter)
        jj = 10**4
        gs = ground_state(SpinJ(2 * jj), g)
        assert abs(gs.norm_direct / gs.norm_legendre - 1.0) <= 1e-10
        assert gs.energy_residual <= 1e-9 * f_columns_max_sq(jj, g)
        rot = ground_state(SpinJ(2 * jj), g, frame="rotated")
        zero, _ = susy_sector_blocks(SpinJ(2 * jj), g)
        assert rot.energy_residual <= 1e-9 * float(np.max(zero.diag))
        assert math.isclose(float(np.linalg.norm(rot.amplitudes)), 1.0, rel_tol=1e-12)

    def test_factorized_frame_peak_memory(self):
        # Measured 7.5 doubles per basis entry (5.5 in the rotated frame)
        jj = 2 * 10**5
        tracemalloc.start()
        try:
            ground_state(SpinJ(2 * jj), 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8.0 * (2 * jj + 1)

    @pytest.mark.parametrize("g", [-2.0, -0.4, 0.7, 1.9])
    @pytest.mark.parametrize("jj", [1, 2, 5, 13, 27, 40])
    def test_against_matrix_exponential(self, jj, g):
        col = mat_exp_scaled(build_spin_operators(SpinJ(2 * jj)).jx, g)[:, jj]
        gs = ground_state(SpinJ(2 * jj), g)
        assert np.max(np.abs(gs.amplitudes - col / np.linalg.norm(col))) <= 1e-13
        assert math.isclose(gs.norm_direct, float(np.linalg.norm(col)), rel_tol=1e-12)

    @pytest.mark.parametrize("g", [-1.2, -0.3, 0.6, 1.5])
    @pytest.mark.parametrize("jj", [1, 3, 4, 7, 15])
    def test_rotated_against_zero_sector_eigenvector(self, jj, g):
        jv = SpinJ(2 * jj)
        gs = ground_state(jv, g, frame="rotated")
        zero, _ = susy_sector_blocks(jv, g)
        w, vecs = eigh_tridiagonal(zero.diag, zero.off)
        vec = vecs[:, int(np.argmin(w))]
        sector = gs.amplitudes[0::2]          # m = -J, -J+2, ..., J
        assert np.max(np.abs(gs.amplitudes[1::2])) == 0.0
        assert np.max(np.abs(sector - np.sign(sector @ vec) * vec)) <= 1e-10
        h = build_susy_rotated(jv, g)
        dense = float(np.linalg.norm(h @ gs.amplitudes))
        assert abs(gs.energy_residual - dense) <= 1e-13 * np.linalg.norm(h, 2)

    @pytest.mark.parametrize("frame", ["factorized", "rotated"])
    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma(self, frame, g):
        with pytest.raises(NonFiniteInput):
            ground_state(SpinJ(4), g, frame=frame)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            ground_state(SpinJ(4), 0.5, frame="bogus")

    def test_half_integer_rejected(self):
        with pytest.raises(NotIntegerSpin):
            ground_state(SpinJ(5), 0.5)


class TestGroundStateBits:
    """The zero mode's exact bits at large J: the sha256 of the amplitudes,
    and norm_direct and energy_residual in hex.  Every norm sums its squares
    in the gap's fixed chunks (eigensolve._row_dots), so these are the same
    at 1 and 2 BLAS threads; recorded at one thread."""

    PINS = {  # (J, gamma, frame): (sha256 of the amplitudes, norm_direct, energy_residual)
        (20000, 0.01, "factorized"): (
            "bea115037ed12a70d6f81d616f96c21bc1465ca82ea53c133ede9a7030071cae",
            "0x1.a66ea94bc1385p+285", "0x1.7102a60df70a4p-39"),
        (10**5, 1e-4, "factorized"): (
            "623ba5ca0f45ce7a0770f3d8a6d765f4acb1f1c215eccccfbe20b64aabd4b231",
            "0x1.9c830f96435c4p+12", "0x1.a7badd63eb89cp-48"),
        (10**5, -2e-4, "factorized"): (
            "15e92692ae3871630bf689033fc6ec1352b9753747f649b7d2bad68a5036bd3d",
            "0x1.d19b82eba41eep+26", "0x1.3e652a0a1e2bfp-46"),
        (10**6, 0.0, "rotated"): (
            "85639588a9fc4e3997a02587ec4525fc5f9935bd68e429afef2335290377f7a9",
            "0x1.0000000000000p+0", "0x1.4ec1b80fd8d00p-13"),
        (10**6, 0.3, "rotated"): (
            "839d425186e01b3cbe66abddb25b8fe9f9e618cad9850b4ec691a906a9c9ab22",
            "0x1.0000000000000p+0", "0x1.8550ad4918320p-32"),
        (10**6, -1.2, "rotated"): (
            "850d195ca407517721d56fec9d3eda35c427fca7885eb6308070213b32992342",
            "0x1.0000000000000p+0", "0x1.9c9bcc5aa7f98p-14"),
    }

    @pytest.mark.parametrize("jj, g, frame", list(PINS))
    def test_pinned(self, jj, g, frame):
        gs = ground_state(SpinJ(2 * jj), g, frame=frame)
        got = (hashlib.sha256(gs.amplitudes.tobytes()).hexdigest(),
               gs.norm_direct.hex(), gs.energy_residual.hex())
        assert got == self.PINS[jj, g, frame]
