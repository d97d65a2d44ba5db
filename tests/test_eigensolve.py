"""Gap solvers, dense oracle, characteristic polynomials, gap machinery."""

import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
from numpy.polynomial import Polynomial
from scipy.linalg import eigh_tridiagonal

from conftest import (
    CRITERION_10_J,
    GRID_GAMMAS,
    charpoly_dense,
    circle_gap,
    dense_gap,
    diagonal_lower_bound,
    gap_closed_form_j2,
    h_minus_elements,
    invit_one_row,
    invit_start_one_row,
    ldl_factors_one_row,
    sign_canonical,
    supercharge_sigma_min,
    symmetrize_tridiag,
)
from lmgspec import eigensolve
from lmgspec.cli import main as cli_main
from lmgspec.eigensolve import (
    _batches,
    _gap_inverse_iteration,
    _gap_ldl_factors,
    _gap_window,
)
from lmgspec import (
    DimensionMismatch,
    DimensionTooLarge,
    NonFiniteInput,
    NotConverged,
    NotIntegerSpin,
    NotSymmetric,
    OverflowRisk,
    SpinJ,
    SymTridiag,
    GeneralTridiag,
    build_nonhermitian,
    build_susy_rotated,
    charpoly_tridiag,
    eig_dense_symmetric,
    eig_symtridiag,
    extract_hn_blocks,
    gap_sector_tridiag,
    spectral_gap,
    spectral_gap_cells,
    supercharge_chain,
)


def windows_of(cells):
    return [_gap_window(*cell) for cell in cells]


def batches(cells):
    """The batches of spectral_gap_cells, each a list of cells."""
    return [cells[a:b] for a, b in _batches(windows_of(cells))]


def invit(cells):
    """_gap_inverse_iteration on one batch of cells, each on its window."""
    return _gap_inverse_iteration(cells, windows_of(cells))


def ldl_factors(cells, windows=None):
    """One _gap_ldl_factors call on a batch of cells, each row on its
    window (default: all J columns): the rows (d, l, x) of each cell."""
    windows = windows or [j.two_j // 2 for j, _ in cells]
    bufs = _gap_ldl_factors(cells, windows)
    ends = np.cumsum(windows)
    return [tuple(a[q - n:q] for a in bufs) for q, n in zip(ends, windows)]


def runs(cells, windows):
    """The number of runs of cells with one J and one window."""
    return len(list(itertools.groupby(zip([j.two_j for j, _ in cells], windows))))


def random_tridiag(rng, n=12):
    return SymTridiag(diag=rng.standard_normal(n), off=rng.standard_normal(n - 1))


class TestEigSymtridiag:
    @pytest.mark.parametrize("which", ["smallest"])
    def test_against_lapack(self, rng, which):
        for t in (SymTridiag(diag=[0.1], off=[]), random_tridiag(rng, n=2),
                  random_tridiag(rng, n=15)):
            ref = eigh_tridiagonal(t.diag, t.off, eigvals_only=True)
            got = eig_symtridiag(t)
            assert got.shape == (1,) and abs(got[0] - ref[0]) < 1e-11

    def test_empty(self):
        assert eig_symtridiag(SymTridiag(diag=[], off=[])).size == 0

    def test_non_finite_input_returns(self):
        # NaN, without a RuntimeWarning (CI runs tier-1 with -W error::RuntimeWarning)
        for bad in (math.nan, math.inf, -math.inf):
            for t in (SymTridiag(diag=[1.0, bad, 2.0], off=[0.5, 0.5]),
                      SymTridiag(diag=[1.0, 1.5, 2.0], off=[bad, 0.5])):
                assert math.isnan(eig_symtridiag(t)[0])

    @pytest.mark.parametrize("g", [0.5, -1.0])
    def test_relative_accuracy_on_gap_block(self, g):
        # dstebz at its finest tolerance (2*tiny) resolves the gap of the
        # formed block to a few ulps; scipy's default tol leaves 2.2e-12 here.
        jv = SpinJ.from_j("20000")
        got = eig_symtridiag(gap_sector_tridiag(jv, g))[0]
        ref = spectral_gap(jv, g).gap
        assert abs(got - ref) <= 4 * np.finfo(float).eps * ref


class TestSuperchargeSigmaMin:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("two_j", [1, 3, 5, 7, 15, 31])
    def test_half_integer_ground_energy(self, two_j, sign):
        # Where |gamma|(2J+1) <= 4 the ground energy is far above the
        # rounding error of the dense spectrum.
        jv = SpinJ(two_j)
        for g in np.linspace(0.0, 4.0 / (two_j + 1), 5):
            eigs = eig_dense_symmetric(build_susy_rotated(jv, sign * g))
            got = supercharge_sigma_min(jv, g) ** 2
            assert abs(got - eigs[0]) <= 64 * np.finfo(float).eps * eigs[-1]

    def test_half_integer_below_dense_rounding(self):
        # 30-digit mpmath value 2.845208557464931e-24; the dense eigs[0] is
        # -1.1e-15 here.
        got = supercharge_sigma_min(SpinJ(31), 0.9) ** 2
        assert math.isclose(got, 2.845208557464931e-24, rel_tol=1e-14)

    @pytest.mark.parametrize("g", [-1.0, 0.5, 2.0])
    def test_agrees_with_bisection_at_large_j(self, g):
        # One kernel on two matrices: dstebz on the chain's Golub-Kahan form
        # and on the formed gap-sector block, whose error is ~eps*||T||.
        jv = SpinJ(40000)
        t = gap_sector_tridiag(jv, g)
        norm = np.max(np.abs(t.diag) + np.abs(np.r_[t.off, 0.0]) + np.abs(np.r_[0.0, t.off]))
        chain = supercharge_sigma_min(jv, g) ** 2
        assert abs(chain - eig_symtridiag(t)[0]) <= 8 * np.finfo(float).eps * norm


class TestDenseOracle:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((12, 12))
        m = a + a.T
        assert np.allclose(eig_dense_symmetric(m), np.linalg.eigvalsh(m), atol=1e-12)

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(NotSymmetric):
            eig_dense_symmetric(rng.standard_normal((5, 5)))

    def test_rejects_complex(self):
        # Hermitian, with eigenvalues 0 and 2; a cast to float would drop
        # the imaginary part and return [1, 1].
        with pytest.raises(NotSymmetric):
            eig_dense_symmetric(np.array([[1, 1j], [-1j, 1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_input_raises(self, bad, where):
        # Caught before the symmetry test, which a NaN passes.
        m = np.eye(2)
        m[where] = m[where[::-1]] = bad
        with pytest.raises(NonFiniteInput):
            eig_dense_symmetric(m)

    @pytest.mark.parametrize("shape", [(0, 0), (3,), (2, 3), (1, 1, 1)])
    def test_shape(self, shape):
        # A 0 x 0 matrix has no eigenvalues; the rest are not square 2-D.
        m = np.ones(shape)
        if shape == (0, 0):
            assert eig_dense_symmetric(m).shape == (0,)
        else:
            with pytest.raises(DimensionMismatch):
                eig_dense_symmetric(m)


class TestCharPoly:
    def test_tridiag_vs_dense_vs_numpy(self, rng):
        t = random_tridiag(rng, n=7)
        ct = charpoly_tridiag(t)
        cd = charpoly_dense(t.to_dense())
        # numpy convention: descending coefficients
        cn = np.poly(t.to_dense())[::-1]
        scale = np.maximum(1.0, np.abs(cn))
        assert np.max(np.abs(ct.coef - cn) / scale) < 1e-12
        assert np.max(np.abs(cd.coef - cn) / scale) < 1e-12
        assert ct.degree() == 7

    def test_general_tridiag_sign_split(self):
        g = GeneralTridiag(alpha=[1.0, 2.0, 3.0], beta=[1.0, 2.0], gamma_sub=[3.0, 1.0])
        cp = charpoly_tridiag(g)
        cn = np.poly(g.to_dense())[::-1]
        assert np.allclose(cp.coef, cn, atol=1e-12)

    def test_roots_are_eigenvalues(self, rng):
        t = random_tridiag(rng, n=6)
        cp = charpoly_tridiag(t)
        for e in eigh_tridiagonal(t.diag, t.off, eigvals_only=True):
            # |p(e)| small relative to the polynomial scale at e
            scale = sum(abs(c) * abs(e) ** k for k, c in enumerate(cp.coef))
            assert abs(cp(e)) < 1e-10 * max(1.0, scale)

    def test_criterion_6_coefficient_bits(self):
        # One sha256 over the coefficients of Hn, H+ and H- on criterion 6's
        # grid, so that a change in rounding or in a sign of zero shows.
        digest = hashlib.sha256()
        for jj in range(2, 11):
            for g in (0.3, 0.8, 1.4):
                hn = build_nonhermitian(SpinJ(2 * jj), g)
                blocks = extract_hn_blocks(hn, SpinJ(2 * jj))
                hn_t = GeneralTridiag(alpha=np.diag(hn), beta=-np.diag(hn, 1),
                                      gamma_sub=np.diag(hn, -1))
                for t in (hn_t, blocks.h_plus, blocks.h_minus):
                    cp = charpoly_tridiag(t)
                    assert isinstance(cp, Polynomial) and cp.coef.dtype == np.float64
                    digest.update(cp.coef.tobytes())
        assert digest.hexdigest() == (
            "279c7c7a0b149d88149201928902a4c493ed577012d6f356eb8dc17852b58c4f")

    def test_dimension_guards(self, rng):
        big = SymTridiag(diag=np.zeros(61), off=np.zeros(60))
        with pytest.raises(DimensionTooLarge):
            charpoly_tridiag(big)
        with pytest.raises(DimensionTooLarge):
            charpoly_dense(np.zeros((26, 26)))


class TestSymmetrize:
    def _balanced_h_minus(self, two_j, g):
        """Sign-split H- brought to symmetrizable orientation."""
        hm = h_minus_elements(SpinJ(two_j), g)
        return sign_canonical(hm) if np.any(hm.beta < 0) else hm

    @pytest.mark.parametrize("g", [0.5, -0.5, 1.2])
    def test_similarity_identity(self, g):
        a = self._balanced_h_minus(12, g)
        aprime, t_diag = symmetrize_tridiag(a)
        t = np.diag(t_diag)
        lhs = t @ a.to_dense() @ np.linalg.inv(t)
        assert np.allclose(lhs, aprime.to_dense(), rtol=1e-12, atol=1e-12)
        # balanced: super- and subdiagonal agree up to sign convention
        assert np.array_equal(aprime.beta, aprime.gamma_sub)

    def test_charpoly_preserved(self):
        a = self._balanced_h_minus(10, 0.8)
        aprime, _ = symmetrize_tridiag(a)
        ca, cb = charpoly_tridiag(a), charpoly_tridiag(aprime)
        # same off-diagonal products up to the sqrt/square rounding of balancing
        scale = np.maximum(1.0, np.abs(ca.coef))
        assert np.max(np.abs(ca.coef - cb.coef) / scale) < 1e-13

    def test_sign_violation(self):
        bad = GeneralTridiag(alpha=[1.0, 2.0], beta=[-1.0], gamma_sub=[1.0])
        with pytest.raises(ValueError):
            symmetrize_tridiag(bad)

    @pytest.mark.parametrize("g", [0.3, 0.9, 1.6])
    @pytest.mark.parametrize("two_j", [4, 10, 20])
    def test_diagonal_lower_bound_is_cosh2g(self, two_j, g):
        a = self._balanced_h_minus(two_j, g)
        aprime, _ = symmetrize_tridiag(a)
        bound = diagonal_lower_bound(aprime)
        assert math.isclose(bound, math.cosh(2 * g), rel_tol=1e-14)
        # and it really bounds the smallest eigenvalue of H-
        eigs = np.sort(np.linalg.eigvals(a.to_dense()).real)
        assert eigs[0] >= bound - 1e-9 * max(1.0, bound)


class TestSpectralGap:
    @pytest.mark.parametrize("two_j", [2, 8, 20, 60, 200, 4000, 40000])
    def test_gap_is_one_at_gamma_zero(self, two_j):
        res = spectral_gap(SpinJ(two_j), 0.0)
        assert abs(res.gap - 1.0) < 1e-13
        assert res.bound == 1.0 and res.satisfied

    @pytest.mark.parametrize("g", [0.2, 0.7, 1.5, -1.0])
    def test_j2_closed_form(self, g):
        res = spectral_gap(SpinJ(4), g)
        assert math.isclose(res.gap, gap_closed_form_j2(g), rel_tol=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.4, 1.3, -0.9])
    @pytest.mark.parametrize("two_j", [2, 14, 40, 80])
    def test_tridiag_vs_dense(self, two_j, g):
        assert abs(spectral_gap(SpinJ(two_j), g).gap - dense_gap(SpinJ(two_j), g)) < 1e-9

    @pytest.mark.parametrize("g", [0.0, 0.5, 2.0])
    def test_gap_equals_first_excited_level(self, g):
        jv = SpinJ(16)
        eigs = eig_dense_symmetric(build_susy_rotated(jv, g))
        res = spectral_gap(jv, g)
        assert math.isclose(res.gap, eigs[1], rel_tol=1e-10)

    def test_gamma_symmetry(self):
        # spectra at +gamma and -gamma coincide (reflection symmetry)
        a = spectral_gap(SpinJ(24), 0.7).gap
        b = spectral_gap(SpinJ(24), -0.7).gap
        assert math.isclose(a, b, rel_tol=1e-11)

    def test_bound_always_satisfied(self):
        for jj in (1, 3, 7, 30, 101):
            for g in (0.0, 0.5, 1.5, 3.0):
                assert spectral_gap(SpinJ(2 * jj), g).satisfied

    def test_errors(self):
        with pytest.raises(NotIntegerSpin):
            spectral_gap(SpinJ(3), 0.5)
        with pytest.raises(NotIntegerSpin):
            spectral_gap(SpinJ(0), 0.5)

    @pytest.mark.parametrize("two_j", [8, 40002])  # one batch row, several rows per batch
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises(self, two_j, gamma):
        with pytest.raises(NonFiniteInput):
            spectral_gap(SpinJ(two_j), gamma)

    @pytest.mark.parametrize("jj, gamma", [
        (5, 354.5),       # the squared chain overflows
        (5, 400.0),       # cosh(2 gamma) overflows
        (10**6, 345.0),   # the squared chain overflows at J = 1e6
    ])
    def test_overflow_raises(self, jj, gamma):
        with pytest.raises(OverflowRisk):
            spectral_gap(SpinJ(2 * jj), gamma)

    def test_largest_finite_gamma_still_solves(self):
        res = spectral_gap(SpinJ(10), 353.0)
        assert math.isfinite(res.gap) and res.satisfied

    def test_time_is_near_linear_in_j_at_gamma_zero(self):
        # gamma = 0 reads every column (no window), so this times the O(J)
        # path.  Best of 5 calls, Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
        # 2-CPU Intel Xeon, one BLAS thread: 5.7-7.1 ms at J = 1e5 and
        # 64-65 ms at J = 1e6, a ratio of 9.0-11.6 (7.3-12.1 at two threads).
        def best_of_5(jj):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                spectral_gap(SpinJ(2 * jj), 0.0)
                times.append(time.perf_counter() - start)
            return min(times)

        small = best_of_5(10**5)
        assert best_of_5(10**6) / small <= 25.0


TWO_KERNEL_GAMMAS = [0.0, 1e-8, -1e-8, 0.5, -0.5, 3.0, -3.0, 30.0, -30.0,
                     200.0, -200.0, 300.0, -300.0]


class TestGapInverseIteration:
    """The gap kernel: inverse iteration on relatively accurate LDL^T
    factors of the gap-sector block, checked against the chain oracle."""

    @pytest.mark.parametrize("g", TWO_KERNEL_GAMMAS)
    def test_agrees_with_chain_directly(self, g):
        for jj in list(range(1, 41)) + [1000]:
            jv = SpinJ(2 * jj)
            chain = supercharge_sigma_min(jv, g) ** 2
            assert abs(invit([(jv, g)])[0] - chain) <= 1e-12 * chain

    @pytest.mark.parametrize("g", TWO_KERNEL_GAMMAS)
    @pytest.mark.parametrize("jj", [20001, 50000])
    def test_agrees_with_chain_through_spectral_gap(self, jj, g):
        jv = SpinJ(2 * jj)
        chain = supercharge_sigma_min(jv, g) ** 2
        res = spectral_gap(jv, g)
        assert abs(res.gap - chain) <= 1e-12 * chain
        assert res.satisfied

    @pytest.mark.parametrize("jj, tol", [(10**6, 1e-11), (10**7, 1e-10)])
    def test_gap_is_one_at_gamma_zero(self, jj, tol):
        assert abs(spectral_gap(SpinJ(2 * jj), 0.0).gap - 1.0) <= tol

    @pytest.mark.parametrize("g", [0.5, -0.5, 1.3, -1.3])
    def test_large_j_asymptote(self, g):
        """gap(J, g) = J sinh 2|g| - e^(-2|g|)/2 + O(1/J) for g != 0.

        Holstein-Primakoff derivation.  H = cosh^2 g Jx^2 + sinh^2 g Jy^2
        + (sinh 2g / 2) Jz, and H(-g) is H(g) under m -> -m, so take g > 0,
        c = cosh 2g, s = sinh 2g.  With Jx^2 + Jy^2 = J(J+1) - Jz^2,
            H = (c/2)(J(J+1) - Jz^2) + (J+^2 + J-^2)/4 + (s/2) Jz,
        whose classical minimum is Jz = -J.  Expand about it with
        Jz = -J + n, n = a^+ a, J+ = a^+ sqrt(2J - n), so that
        J+^2 = a^+^2 sqrt((2J-n)(2J-n-1)) = a^+^2 (2J - n - 1/2) + O(1/J):
            H = J h1 + h0 + O(1/J),
            h1 = (c - s)/2 + c n + (a^+^2 + a^2)/2,
            h0 = (s/2) n - (c/2) n^2 - (a^+^2 (n + 1/2) + h.c.)/4.
        The Bogoliubov map a = u b - v b^+, u = cosh t, v = sinh t,
        tanh 2t = 1/c gives h1 = s b^+b: the zero energy of the SUSY ground
        state at this order, and a first level J s.  First-order perturbation
        in h0 between the b-vacuum and the one-quasiparticle state, with
        u^2 + v^2 = c/s and uv = 1/(2s), adds c/2 from (s/2) n,
        -(c/2)(2c^2/s^2 - c/s + 1/s^2) from -(c/2) n^2 and (3c/s - 1)/(2s)
        from the a^+^2 term; their sum is (s - c)/2 = -e^(-2g)/2.  The next
        terms, second order in h0 over level spacings J s and the 1/J part
        of the square root, are O(1/J).
        """
        jj = 10**6
        asymptote = jj * math.sinh(2 * abs(g)) - 0.5 * math.exp(-2 * abs(g))
        assert abs(spectral_gap(SpinJ(2 * jj), g).gap - asymptote) <= 1.0 / jj

    @staticmethod
    def steps(monkeypatch, jj, gammas):
        """dpttrs solves, one per step, that one batch takes to settle.
        The kernel imports dpttrs from scipy when it runs, so the spy
        replaces scipy's own attribute."""
        calls = []
        inner = scipy.linalg.lapack.dpttrs
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrs",
                            lambda *a, **k: calls.append(1) or inner(*a, **k))
        invit([(SpinJ(2 * jj), g) for g in gammas])
        return len(calls)

    @pytest.mark.parametrize("g, most", [(0.8, 6), (-1.5, 6), (0.0, 2)])
    def test_steps_at_large_j(self, monkeypatch, g, most):
        # From the one-quasiparticle start (15, 13 and 7 steps from the zero
        # mode's reciprocal, 27, 27 and 9 from the all-ones vector)
        assert self.steps(monkeypatch, 10**5, [g]) <= most

    @pytest.mark.parametrize("g, most", [(0.5, 5), (-0.5, 5), (2.0, 2), (-2.0, 2)])
    def test_steps_at_j_1e6(self, monkeypatch, g, most):
        # 15, 15, 12 and 12 steps from the zero mode's reciprocal
        assert self.steps(monkeypatch, 10**6, [g]) <= most

    def test_steps_of_a_batch(self, monkeypatch):
        # 14 steps (16 from the zero mode's reciprocal, 28 from the all-ones
        # vector), all 50 cells in one batch
        gammas = np.linspace(0.05, 3.0, 50).tolist()
        assert len(batches([(SpinJ(2000), g) for g in gammas])) == 1
        assert self.steps(monkeypatch, 1000, gammas) <= 20

    @pytest.mark.parametrize("jj", [1, 2, 3, 10, 25, 40])
    def test_start_satisfies_the_identity(self, jj):
        """(A x)_k = ((J - 2k) sinh 2|g| + e^(-2|g|)) x_k for the start x.

        A is the sign-flipped gap block X^T X at -|g|: diagonal
        a_k^2 + b_k^2, off-diagonal -b_k a_(k+1), with a_k = v_2k e^|g|,
        b_k = v_(2k+1) e^-|g| and v the spin ladder.  x_(k+1) / x_k =
        e^(-2|g|) v_(2k+2) / v_(2k+1) turns the row into
        e^(2|g|) (v_2k^2 - v_(2k-1)^2) - e^(-2|g|) (v_(2k+2)^2 - v_(2k+1)^2),
        and v_i^2 - v_(i-1)^2 = (J - i)/2.  At g = 0 every row reads 1, and
        x > 0 is then the Perron vector of A^-1, the gap eigenvector.  The
        float64 start agrees with the 40-digit x to a few ulps per step.
        """
        mp = pytest.importorskip("mpmath")
        jv = SpinJ(2 * jj)
        with mp.workdps(40):
            for g in (0.0, 1e-8, 0.3, -0.5, 1.3, -2.0):
                t = abs(mp.mpf(g))
                v = [mp.sqrt((2 * jj - i) * (i + 1)) / 2 for i in range(2 * jj)] + [0]
                a = [v[2 * k] * mp.exp(t) for k in range(jj)] + [0]
                b = [v[2 * k + 1] * mp.exp(-t) for k in range(jj)]
                x = [mp.mpf(1)]
                for k in range(jj - 1):
                    x.append(x[-1] * mp.exp(-2 * t) * v[2 * k + 2] / v[2 * k + 1])
                x.append(0)
                for k in range(jj):
                    diag = (a[k] ** 2 + b[k] ** 2) * x[k]
                    ax = diag - b[k] * a[k + 1] * x[k + 1]
                    if k:
                        ax -= b[k - 1] * a[k] * x[k - 1]
                    lam = (jj - 2 * k) * mp.sinh(2 * t) + mp.exp(-2 * t)
                    assert abs(ax - lam * x[k]) <= mp.mpf(10) ** -35 * diag
                start = ldl_factors([(jv, g)])[0][2]
                want = np.array([max(float(xk), np.finfo(float).eps) for xk in x[:-1]])
                assert np.allclose(start, want, rtol=4 * jj * np.finfo(float).eps, atol=0.0)
            assert abs(spectral_gap(jv, 0.0).gap - 1.0) <= 64 * np.finfo(float).eps

    @pytest.mark.parametrize("jj", [2, 1000, 65537])
    def test_start_row(self, jj):
        # At J = 65537 a row spans five column chunks; at |gamma| = 300 the
        # running product of the ratios e^(-600) v_(2k+2) / v_(2k+1) leaves
        # float64 after two factors.
        jv = SpinJ(2 * jj)
        for g in (0.0, 0.5, -0.5, 300.0, -300.0):
            x = ldl_factors([(jv, g)])[0][2]
            assert x[0] == 1.0 and np.isfinite(x).all() and x.min() >= np.finfo(float).eps
            assert np.array_equal(x, invit_start_one_row(jv, g))

    def test_j1(self):
        jv = SpinJ(2)
        for g in (0.0, 0.4, -2.0):
            expect = math.cosh(2 * g)      # the 1x1 block a_0^2 + b_0^2
            assert math.isclose(invit([(jv, g)])[0], expect, rel_tol=4e-16)
            assert math.isclose(spectral_gap(jv, g).gap, expect, rel_tol=4e-16)

    def test_one_long_row_holds_four_row_arrays(self):
        # d, l and the two iterates x and y: measured 4.002 row arrays.  A
        # row-long temporary, such as the row's scale repeated over its
        # length, would read 5.
        jj = 2**20
        spectral_gap(SpinJ(10), 0.5)  # scipy's first-call allocations
        tracemalloc.start()
        try:
            spectral_gap(SpinJ(2 * jj), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.05 * 8 * jj

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "_INVIT_MAX_STEPS", 2)
        with pytest.raises(NotConverged):
            spectral_gap(SpinJ(2 * 20001), 0.5)

    @pytest.mark.parametrize("jj", [20001, 10**6])
    def test_near_the_overflow_guard(self, jj):
        # gamma_max is where cosh(2 gamma) * J * (J + 2) leaves float64
        gamma_max = 0.5 * (math.log(2.0) + math.log(np.finfo(float).max / (jj * (jj + 2.0))))
        for g in (gamma_max - 1e-3, -(gamma_max - 1e-3), gamma_max - 1.0):
            res = spectral_gap(SpinJ(2 * jj), g)
            assert math.isfinite(res.gap) and res.gap >= res.bound
        with pytest.raises(OverflowRisk):
            spectral_gap(SpinJ(2 * jj), gamma_max + 1e-3)


class TestSpectralGaps:
    """spectral_gap_cells on the cells of one J; every result bit-identical
    to the one-gamma spectral_gap call."""

    GAMMAS = [0.0, 1e-8, -1e-8, 0.5, -0.5, 3.0, -3.0, 30.0, -30.0, 300.0, -300.0]

    @pytest.mark.parametrize("jj", [1, 2, 5, 30, 1000, 20001])
    def test_bitwise_equal_to_spectral_gap(self, jj):
        jv = SpinJ(2 * jj)
        many = spectral_gap_cells([(jv, g) for g in self.GAMMAS])
        one = [spectral_gap(jv, g) for g in self.GAMMAS]
        assert many == one
        assert [r.gap.hex() for r in many] == [r.gap.hex() for r in one]

    def test_empty_gamma_list(self):
        assert spectral_gap_cells([]) == []

    def test_overflow_in_a_row_raises_the_per_cell_error(self):
        jv = SpinJ(10)
        with pytest.raises(OverflowRisk) as single:
            spectral_gap(jv, 400.0)
        with pytest.raises(OverflowRisk) as batch:
            spectral_gap_cells([(jv, 0.5), (jv, 400.0), (jv, 1.0)])
        assert str(batch.value) == str(single.value)

    def test_first_error_in_gamma_order(self):
        jv = SpinJ(10)
        with pytest.raises(NonFiniteInput):
            spectral_gap_cells([(jv, 0.5), (jv, math.nan), (jv, 400.0)])
        with pytest.raises(OverflowRisk):
            spectral_gap_cells([(jv, 0.5), (jv, 400.0), (jv, math.nan)])
        with pytest.raises(NotIntegerSpin):
            spectral_gap_cells([(SpinJ(3), 0.5), (SpinJ(3), 1.0)])

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "_INVIT_MAX_STEPS", 1)
        with pytest.raises(NotConverged, match="gamma=0.0"):
            spectral_gap_cells([(SpinJ(10), 0.0), (SpinJ(10), 0.5)])
        jv = SpinJ(20)
        # At J = 20, gamma = 0 settles at step 2, 0.7 at step 15 and 0.5 at
        # step 16: after 13 steps the error names the first gamma not yet
        # settled.
        monkeypatch.setattr(eigensolve, "_INVIT_MAX_STEPS", 13)
        with pytest.raises(NotConverged, match="gamma=0.5"):
            spectral_gap_cells([(jv, 0.0), (jv, 0.5)])
        with pytest.raises(NotConverged, match="gamma=0.7"):
            spectral_gap_cells([(jv, 0.0), (jv, 0.7), (jv, 0.0), (jv, 0.5)])

    def test_step_cap_names_the_first_unsettled_cell_in_grid_order(self, monkeypatch):
        # Steps to settle: 15 at (J, gamma) = (20, 0.7), 21 at (10, 0.5) and
        # 27 at (40, 0.05); all three cells share one batch.
        monkeypatch.setattr(eigensolve, "_INVIT_MAX_STEPS", 15)
        cells = [(SpinJ(40), 0.7), (SpinJ(20), 0.5), (SpinJ(80), 0.05)]
        with pytest.raises(NotConverged, match=r"^J=10, gamma=0\.5: "):
            spectral_gap_cells(cells)
        with pytest.raises(NotConverged, match=r"^J=40, gamma=0\.05: "):
            spectral_gap_cells(cells[::-1])

    def test_large_j_batch_holds_one_cell(self, monkeypatch):
        # Two rules.  A batch's rows hold at most _LDL_CHUNK doubles in all,
        # each row counted at its _gap_window, unless the batch is one cell;
        # so a gamma = 0 cell, whose window is J, runs alone from J = 2^16
        # up, with the memory of one solve.  At J = 1000, 65 rows fill a
        # batch.
        assert [len(b) for b in batches([(SpinJ(2000), 0.0)] * 66)] == [65, 1]
        assert [len(b) for b in batches([(SpinJ(2 * 10**5), 0.0), (SpinJ(10), 0.0)])] == [1, 1]
        assert [len(b) for b in batches([(SpinJ(2 * 2**16), 0.0)] * 2)] == [1, 1]
        cells = [(SpinJ(2 * jj), g) for jj in (1000, 2 * 10**5, 10**7)
                 for g in np.linspace(-3.0, 3.0, 61).tolist() + [1e-3, 0.02]]
        assert [c for b in batches(cells) for c in b] == cells
        for batch in batches(cells):
            assert len(batch) == 1 or sum(_gap_window(*c) for c in batch) <= eigensolve._LDL_CHUNK
        sizes = []

        def spy(cells, windows):
            sizes.append(len(cells))
            return _gap_inverse_iteration(cells, windows)

        monkeypatch.setattr(eigensolve, "_gap_inverse_iteration", spy)
        jv = SpinJ(2 * 10**5)
        res = spectral_gap_cells([(jv, 0.0), (jv, 0.5), (jv, -1.0), (jv, 2.0)])
        assert sizes == [1, 3]
        assert abs(res[0].gap - 1.0) < 1e-11 and all(r.satisfied for r in res)


# One batch of eleven runs: one J in separate runs, and J = 1 rows amid the
# batch.
INTERLEAVED = [(SpinJ(2 * jj), g) for jj, g in [
    (5, 0.3), (10, 0.0), (5, 1e-3), (1, 0.7), (10, 2.0), (5, 0.3), (1000, 0.05),
    (5, -1.0), (1, 0.0), (30, 0.2), (1000, 0.0)]]


class TestGapGrid:
    """spectral_gap_cells on a whole (J, gamma) grid: one batch where the
    rows fit in _LDL_CHUNK doubles, each row leaving it once it settles."""

    CELLS = [(SpinJ(2 * jj), g) for jj in CRITERION_10_J for g in GRID_GAMMAS]

    def test_grid_is_bitwise_equal_to_spectral_gap(self):
        grid = spectral_gap_cells(self.CELLS)
        assert [r.gap.hex() for r in grid] == [spectral_gap(j, g).gap.hex()
                                               for j, g in self.CELLS]
        assert spectral_gap_cells([]) == []

    def test_interleaved_j_is_bitwise_equal_to_spectral_gap(self):
        # The rows compact across non-adjacent groups, and the 1x1 blocks
        # never solve.
        cells = INTERLEAVED
        assert len(batches(cells)) == 1
        assert [r.gap.hex() for r in spectral_gap_cells(cells)] == [
            spectral_gap(j, g).gap.hex() for j, g in cells]

    def test_one_build_per_batch(self, monkeypatch, tmp_path):
        # Each batch is one _gap_ldl_factors call for all its runs of one J
        # and window, and each cell's window is computed once: on this grid
        # (one batch of 26 runs) and on the criterion-10 gap-scan (one
        # batch of 14 runs).
        builds, windows = [], []
        build, window = eigensolve._gap_ldl_factors, eigensolve._gap_window
        monkeypatch.setattr(eigensolve, "_gap_ldl_factors", lambda cells, ks: (
            builds.append((len(cells), runs(cells, ks))) or build(cells, ks)))
        monkeypatch.setattr(eigensolve, "_gap_window",
                            lambda j, g: windows.append((j, g)) or window(j, g))
        spectral_gap_cells(self.CELLS)
        assert windows == self.CELLS and builds == [(len(self.CELLS), 26)]
        builds.clear()
        windows.clear()
        assert cli_main(["gap-scan", "--j-list", ",".join(map(str, CRITERION_10_J)),
                         "--gamma-min", "0", "--gamma-max", "3", "--steps", "50",
                         "--out", str(tmp_path / "scan.csv")]) == 0
        assert [(str(j), g) for j, g in windows] == [
            (str(jj), i * 3.0 / 49) for jj in CRITERION_10_J for i in range(50)]
        assert builds == [(len(windows), 14)]
        for cells, n in ((self.CELLS, 26), (windows, 14)):
            assert len(batches(cells)) == 1 and runs(cells, windows_of(cells)) == n

    def test_dpttrs_calls_and_elements(self, monkeypatch):
        # The grid is one batch of 59250 doubles.  Measured: 30 dpttrs
        # solves of 605900 elements in all; one batch per J, each running
        # until its slowest row settled, took 190 solves of 1651250.
        assert len(batches(self.CELLS)) == 1
        sizes = []
        inner = scipy.linalg.lapack.dpttrs
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrs",
                            lambda d, *a, **k: sizes.append(len(d)) or inner(d, *a, **k))
        spectral_gap_cells(self.CELLS)
        assert len(sizes) <= 32 and sum(sizes) <= 620000

    def test_peak_memory(self):
        # Measured: 1.09 MB for the grid, whose one build sizes its scratch
        # to the batch (0.83 MB when each run of one J and window was built
        # alone); 0.69 MB for the J = 1000 row alone (50 cells).
        spectral_gap_cells([(SpinJ(10), 0.5)])  # scipy's first-call allocations
        tracemalloc.start()
        try:
            peaks = []
            for cells in [self.CELLS] + [[(j, g) for j, g in self.CELLS if j == jv]
                                         for jv in {j for j, _ in self.CELLS}]:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                spectral_gap_cells(cells)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= max(peaks[1:]) + 8 * eigensolve._LDL_CHUNK


# The gamma != 0 cells of the gap_large benchmark rounds at seeds 1-3, all
# at J = 10^6.
GAP_LARGE_GAMMAS = [-0.7015463661686019, -1.771150605405849, 1.645661928464921,
                    0.8826035386091325, -1.934051407833874, -1.921741230589024,
                    0.584827051590213, 0.6273079927383824, -0.856946940637837,
                    -1.3163438379439278, 1.0549327498221188, 1.4058800578942918]


def window_cells(jj):
    """Cells at J |gamma| in {5, ..., 2000}, both signs, |gamma| <= 3, or
    with jj = "gap_large" the cells of GAP_LARGE_GAMMAS."""
    if jj == "gap_large":
        return [(SpinJ(2 * 10**6), g) for g in GAP_LARGE_GAMMAS]
    return [(SpinJ(2 * jj), s * jg / jj) for jg in (5, 10, 20, 40, 80, 160, 500, 2000)
            for s in (1, -1) if jg / jj <= 3.0]


class TestGapWindow:
    """A gamma != 0 solve reads only the leading _gap_window columns of the
    gap block.  The full-length solve, window = J, gives the same bits in
    the same number of steps."""

    @staticmethod
    def solve(monkeypatch, cells):
        """(gap hex, dpttrs solves) of each cell, each solved alone."""
        calls = []
        inner = scipy.linalg.lapack.dpttrs
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrs",
                            lambda *a, **k: calls.append(1) or inner(*a, **k))
        out = []
        for cell in cells:
            calls.clear()
            out.append((spectral_gap_cells([cell])[0].gap.hex(), len(calls)))
        return out

    @pytest.mark.parametrize("jj", [200, 10**3, 10**4, 10**5, 10**6, "gap_large"])
    def test_windowed_solve_equals_the_full_solve(self, monkeypatch, jj):
        cells = window_cells(jj)
        assert any(_gap_window(j, g) < j.two_j // 2 for j, g in cells)
        windowed = self.solve(monkeypatch, cells)
        monkeypatch.setattr(eigensolve, "_gap_window", lambda j, g: j.two_j // 2)
        assert self.solve(monkeypatch, cells) == windowed

    @pytest.mark.parametrize("jj", [200, 10**3, 10**4, 10**5, 10**6, "gap_large"])
    def test_settled_vector_vanishes_at_the_window_end(self, jj):
        # Measured on the J |gamma| cells: 4e-43 to 2e-29 of the largest
        # entry.  The gap_large cells settle in 2-5 steps, too few to wash
        # out the eps floor of the start vector's tail: 2e-27 to 6e-20 (at 2
        # steps).  Either is second order in the gap, (6e-20)^2 ~ 4e-39.
        limit = 1e-18 if jj == "gap_large" else 1e-20
        cells = [(j, g) for j, g in window_cells(jj) if _gap_window(j, g) < j.two_j // 2]
        assert cells
        for j, g in cells:
            d, l, x = ldl_factors([(j, g)], [_gap_window(j, g)])[0]
            v = invit_one_row(d, l, x)
            assert abs(v[-1]) <= limit * np.max(np.abs(v))

    @pytest.mark.parametrize("jj", [2, 1000, 10**6])
    def test_start_vector_bound(self, jj):
        # x_k <= (e k)^(1/4) e^(-2|gamma| k) for the unfloored start vector,
        # the bound _gap_window's K0 rests on; compared in logs, where x is
        # a normal number.
        jv = SpinJ(2 * jj)
        k = np.arange(1, min(jj, 4096))
        for g in (0.01, 0.5, -2.0):
            e = supercharge_chain(jv, abs(g))
            x = np.cumprod(e[2::2] / e[1::2][:-1])[:k.size]
            normal = x >= np.finfo(float).tiny
            assert normal[:30].all()
            bound = 0.25 * np.log(math.e * k) - 2 * abs(g) * k
            assert np.all(np.log(x[normal]) <= bound[normal] + 1e-12 * np.abs(bound[normal]))

    def test_window_values(self):
        eps = np.finfo(float).eps
        for jj in (1, 2, 5, 200, 1000, 10**6, 10**9):
            jv = SpinJ(2 * jj)
            assert _gap_window(jv, 0.0) == jj
            for g in (1e-8, 0.01, 0.5, -0.5, 2.0, 30.0, -300.0):
                n = _gap_window(jv, g)
                k0 = math.ceil((math.log(1 / eps) + math.log(math.e * jj) / 4) / (2 * abs(g)))
                power = 1 << (2 * k0 - 1).bit_length()  # the smallest >= 2 K0
                assert power // 2 < 2 * k0 <= power
                assert n == (power if 2 * power <= jj else jj)
        assert [_gap_window(SpinJ(2 * 10**6), g) for g in (0.5, -1.0, 2.0, 1e-3, 1e-5)] == [
            128, 64, 32, 65536, 10**6]

    @pytest.mark.parametrize("g", [5e-324, 1e-300, -1e-300])
    def test_tiny_gamma_keeps_every_column(self, g):
        for jj in (1, 2, 1000, 10**9):
            assert _gap_window(SpinJ(2 * jj), g) == jj

    # c(|gamma|) = J (asymptote - gap), measured at J = 10^4 and 10^5, where
    # it dwarfs the rounding: 0.3192/0.3191, 0.1034/0.1034, 0.01374/0.01369.
    HP_REMAINDER = {0.5: 0.3192, 1.0: 0.1034, 2.0: 0.01374}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("g", list(HP_REMAINDER))
    @pytest.mark.parametrize("jj", [10**6, 10**7, 10**9])
    def test_large_j_reference(self, jj, g, sign):
        """gap = J sinh 2|g| - e^(-2|g|)/2 - c(|g|)/J + O(1/J^2), the
        Holstein-Primakoff asymptote of TestGapInverseIteration.
        test_large_j_asymptote.  The tolerance is 1.5 c/J, the measured c
        with a 50% margin, plus 8 ulps of the gap for the rounding of the
        asymptote and of the solve; the rounding measured at most 15 ulps
        at J = 10^7 (where c/J is 14 of them) and 3 at J = 10^9."""
        res = spectral_gap(SpinJ(2 * jj), sign * g)
        asymptote = jj * math.sinh(2 * g) - 0.5 * math.exp(-2 * g)
        tol = 1.5 * self.HP_REMAINDER[g] / jj + 8 * math.ulp(res.gap)
        assert abs(res.gap - asymptote) <= tol and res.satisfied


class TestCircleLimit:
    X = (0.1, 1.0, 3.0, 10.0)

    def test_gap_at_fixed_j_gamma(self):
        """At gamma = x/J the gap tends to the SUSY circle's f(x)
        (conftest.circle_gap) with a 1/J term, which the Richardson value
        (10 g(10^6) - g(10^5)) / 9 removes.  These cells take the O(J)
        path, where J |gamma| = O(1) and the Holstein-Primakoff asymptote
        does not hold.  Measured relative errors: 7.6e-12, 2.8e-11, 6.2e-11
        and 6.4e-10 at x = 0.1, 1, 3 and 10.  The tolerance 2e-9 is that
        measured remainder times about 3, not a derived bound."""
        cells = [(SpinJ(2 * jj), x / jj) for jj in (10**5, 10**6) for x in self.X]
        gaps = [r.gap for r in spectral_gap_cells(cells)]
        n = len(self.X)
        for x, g5, g6 in zip(self.X, gaps[:n], gaps[n:]):
            f = circle_gap(x)
            assert abs((10.0 * g6 - g5) / 9.0 - f) <= 2e-9 * f


class TestGapBits:
    """The gaps' exact bits: a change in rounding shows here even where
    batch and single calls still agree with each other.  Recorded from
    inverse iteration started at the Holstein-Primakoff one-quasiparticle
    state (the gap vector itself at gamma = 0) at one BLAS thread, and the
    same at two, since no dot product depends on the thread count
    (eigensolve._row_dots).  gamma = 0.45 and -2.1 are values where
    the array np.exp is an ulp off math.exp."""

    GAMMAS = [0.0, 1e-8, -1e-8, 0.5, -0.5, 3.0, -3.0, 300.0, -300.0, 0.45, -2.1]
    HEX = {
        1: (
            "0x1.0000000000001p+0", "0x1.0000000000001p+0", "0x1.0000000000001p+0",
            "0x1.8b07551d9f552p+0", "0x1.8b07551d9f552p+0", "0x1.936e67db9b91bp+7",
            "0x1.936e67db9b91bp+7", "0x1.88a122d234b39p+864", "0x1.88a122d234b39p+864",
            "0x1.6edebfd5d8680p+0", "0x1.0ace28909c20bp+5",
        ),
        2: (
            "0x1.0000000000000p+0", "0x1.0000000000002p+0", "0x1.0000000000002p+0",
            "0x1.1f946412861cfp+1", "0x1.1f946412861cfp+1", "0x1.936bde1a90079p+8",
            "0x1.936bde1a90079p+8", "0x1.88a122d234b39p+865", "0x1.88a122d234b39p+865",
            "0x1.ff515197449c8p+0", "0x1.0a90dc43a1463p+6",
        ),
        5: (
            "0x1.0000000000000p+0", "0x1.0000000000009p+0", "0x1.0000000000009p+0",
            "0x1.642e5d081d437p+2", "0x1.642e5d081d437p+2", "0x1.f84831afaf32ap+9",
            "0x1.f84831afaf32ap+9", "0x1.eac96b86c1e08p+866", "0x1.eac96b86c1e08p+866",
            "0x1.3224d96f0f3eap+2", "0x1.4d55d2ff5be1cp+7",
        ),
        30: (
            "0x1.0000000000001p+0", "0x1.0000000000118p+0", "0x1.0000000000118p+0",
            "0x1.187c2b2d09884p+5", "0x1.187c2b2d09884p+5", "0x1.7a364b6f19fadp+12",
            "0x1.7a364b6f19fadp+12", "0x1.701710a511685p+869", "0x1.701710a511685p+869",
            "0x1.e94398cfab87bp+4", "0x1.f407f42f7e57cp+9",
        ),
        1000: (
            "0x1.000000000000fp+0", "0x1.000000004960ap+0", "0x1.000000004960ap+0",
            "0x1.25c11572f7ac4p+10", "0x1.25c11572f7ac4p+10", "0x1.89f893fc09532p+17",
            "0x1.89f893fc09532p+17", "0x1.7f6d5c0147775p+874", "0x1.7f6d5c0147775p+874",
            "0x1.0094096a92a5cp+10", "0x1.046f5208bfaf4p+15",
        ),
        65536: (
            "0x1.0000000000023p+0", "0x1.000004cdcd3fdp+0", "0x1.000004cdcd3fdp+0",
            "0x1.2cd9cd2ded7b1p+16", "0x1.2cd9cd2ded7b1p+16", "0x1.936d22f5da0d0p+23",
            "0x1.936d22f5da0d0p+23", "0x1.88a122d234b39p+880", "0x1.88a122d234b39p+880",
            "0x1.06c998cadfa98p+16", "0x1.0aaf728100cefp+21",
        ),
        65537: (
            "0x1.0000000000016p+0", "0x1.000004cdd6d8ap+0", "0x1.000004cdd6d8ap+0",
            "0x1.2cdafa07e9c03p+16", "0x1.2cdafa07e9c03p+16", "0x1.936eb662fd034p+23",
            "0x1.936eb662fd034p+23", "0x1.88a2ab735785ep+880", "0x1.88a2ab735785ep+880",
            "0x1.06ca9f94ac7f8p+16", "0x1.0ab07d30735f3p+21",
        ),
    }

    @pytest.mark.parametrize("jj", list(HEX))
    def test_pinned_hex(self, jj):
        jv = SpinJ(2 * jj)
        got = [r.gap.hex() for r in spectral_gap_cells([(jv, g) for g in self.GAMMAS])]
        assert got == list(self.HEX[jj])
        assert spectral_gap(jv, self.GAMMAS[3]).gap.hex() == self.HEX[jj][3]

    @pytest.mark.parametrize("jj", [1, 2, 5, 30, 1000, 65536, 2 * 10**5, 10**6, "interleaved"])
    def test_factors_equal_the_one_row_build(self, jj):
        # Past J = 2^14 a row is built in column chunks, whose carries must
        # round as one unchunked solve does.  Each batch is one build of all
        # its runs of one J and window: at J = 1000 five windows of one J,
        # and "interleaved" eleven runs, J = 1 rows and non-adjacent runs of
        # one J among them.
        # A row built on its _gap_window holds the leading columns of the
        # full-length build, with l = 0 in its last column.
        cells = INTERLEAVED if jj == "interleaved" else [(SpinJ(2 * jj), g) for g in self.GAMMAS]
        for batch in batches(cells):
            windows = windows_of(batch)
            for (jv, g), n, (d, l, x) in zip(batch, windows, ldl_factors(batch, windows)):
                d1, l1 = ldl_factors_one_row(jv, g)
                assert np.array_equal(d, d1[:n]) and l[-1] == 0.0
                assert np.array_equal(l[:-1], l1[:n - 1])
                assert np.array_equal(x, invit_start_one_row(jv, g)[:n])

    def test_factors_do_not_depend_on_the_chunk_width(self, monkeypatch):
        # Batches of at most 2^12 doubles, and one row in column chunks of
        # 2^12, 2^14 (the kernel's) and 2^16.
        monkeypatch.setattr(eigensolve, "_LDL_CHUNK", 1 << 12)
        for width in (1 << 12, 1 << 14, 1 << 16):
            monkeypatch.setattr(eigensolve, "_ROW_CHUNK", width)
            self.test_factors_equal_the_one_row_build(2 * 10**5)


class TestSettleTol:
    """The settle tolerance tau = 2 eps max(1, L / 2^19), L the start
    vector's participation ratio (eigensolve._settle_tol).  A row of at most
    2^19 columns keeps exactly 2 eps, so its bits and steps cannot move; a
    longer row stops spending solves on the quotient's rounding."""

    @staticmethod
    def tols(monkeypatch, cells):
        """The tau of every row that the solves of these cells iterate."""
        got = []
        inner = eigensolve._settle_tol
        monkeypatch.setattr(eigensolve, "_settle_tol",
                            lambda x, xx: got.append(inner(x, xx)) or got[-1])
        spectral_gap_cells(cells)
        return np.concatenate(got)

    def test_two_eps_up_to_2_19_columns(self, monkeypatch):
        # The criterion-10 grid, the windowed gap_large cells and every
        # TestGapBits J; a 1x1 block (J = 1) never iterates.
        cells = ([(SpinJ(2 * jj), g) for jj in CRITERION_10_J for g in GRID_GAMMAS]
                 + window_cells("gap_large")
                 + [(SpinJ(2 * jj), g) for jj in TestGapBits.HEX for g in TestGapBits.GAMMAS])
        tol = self.tols(monkeypatch, cells)
        assert tol.size == sum(_gap_window(*cell) > 1 for cell in cells)
        assert (tol == 2 * np.finfo(float).eps).all()

    def test_tol_grows_with_the_effective_length(self, monkeypatch):
        # L is J at gamma = 0 (0.97 J measured) and O(1/|gamma|) otherwise.
        eps = np.finfo(float).eps
        tol = self.tols(monkeypatch, [(SpinJ(2 * 10**6), g) for g in (0.0, 1e-6, 1e-5)])
        assert 1.8 * 2 * eps < tol[0] < 1.9 * 2 * eps
        assert 1.5 * 2 * eps < tol[1] < 1.6 * 2 * eps
        assert tol[2] == 2 * eps

    def test_j_1e7_settles_in_two_solves(self, monkeypatch):
        # From the exact gamma = 0 gap vector the quotient falls by 26 eps
        # relative at step 2 and rises by 5 at step 3.  tau = 37 eps settles
        # the row at step 2, where the 2 eps rule took a third solve; the gap,
        # the smaller of the last two quotients, is step 2's either way.
        calls = []
        inner = scipy.linalg.lapack.dpttrs
        monkeypatch.setattr(scipy.linalg.lapack, "dpttrs",
                            lambda *a, **k: calls.append(1) or inner(*a, **k))
        gap = invit([(SpinJ(2 * 10**7), 0.0)])[0]
        assert (gap.hex(), len(calls)) == ("0x1.00000000061e3p+0", 2)

    @pytest.mark.parametrize("jj", [10**6, 2 * 10**6, 5 * 10**6])
    def test_long_rows_against_the_two_eps_rule(self, monkeypatch, jj):
        """tau against the 2 eps rule at gamma in {1e-6, 1e-5, 1e-4}: the
        same steps or fewer, and the gap within 16 ulps.  tau is at most
        4.9 eps on these cells, so a row that settles one step earlier
        moves its gap by at most tau rho, under 10 ulps; the settled
        quotient itself wobbles by up to 640 eps between steps at J = 5e6,
        gamma = 1e-6.  Measured: the same bits and steps on all 9 cells."""
        cells = [(SpinJ(2 * jj), g) for g in (1e-6, 1e-5, 1e-4)]
        new = TestGapWindow.solve(monkeypatch, cells)
        monkeypatch.setattr(eigensolve, "_settle_tol",
                            lambda x, xx: np.full(x.shape[0], 2 * np.finfo(float).eps))
        old = TestGapWindow.solve(monkeypatch, cells)
        for (new_hex, new_steps), (old_hex, old_steps) in zip(new, old):
            gap, old_gap = float.fromhex(new_hex), float.fromhex(old_hex)
            assert new_steps <= old_steps
            assert abs(gap - old_gap) <= 16 * math.ulp(old_gap)
