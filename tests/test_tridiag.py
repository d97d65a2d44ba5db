"""Tridiagonal containers: layout, permutation conjugation, sign canonicalization."""

import numpy as np
import pytest

from conftest import reversed_conjugate, sign_canonical
from lmgspec import GeneralTridiag, SymTridiag


def random_general(rng, n=6):
    return GeneralTridiag(
        alpha=rng.standard_normal(n),
        beta=rng.standard_normal(n - 1),
        gamma_sub=rng.standard_normal(n - 1),
    )


class TestSymTridiag:
    def test_to_dense(self):
        t = SymTridiag(diag=[1.0, 2.0, 3.0], off=[4.0, 5.0])
        expect = np.array([[1, 4, 0], [4, 2, 5], [0, 5, 3]], dtype=float)
        assert np.array_equal(t.to_dense(), expect)
        assert t.n == 3

    def test_to_general_roundtrip(self):
        t = SymTridiag(diag=[1.0, 2.0], off=[3.0])
        g = t.to_general()
        assert np.array_equal(g.to_dense(), t.to_dense())
        assert np.array_equal(-g.beta, [3.0])       # superdiagonal
        assert np.array_equal(g.gamma_sub, [3.0])   # subdiagonal

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SymTridiag(diag=[1.0, 2.0], off=[1.0, 2.0])

    def test_empty(self):
        t = SymTridiag(diag=[], off=[])
        assert t.n == 0 and t.to_dense().shape == (0, 0)


class TestGeneralTridiag:
    def test_layout_sign_convention(self):
        g = GeneralTridiag(alpha=[1.0, 2.0], beta=[3.0], gamma_sub=[4.0])
        expect = np.array([[1, -3], [4, 2]], dtype=float)
        assert np.array_equal(g.to_dense(), expect)
        assert np.array_equal(g.offdiag_products, [-12.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GeneralTridiag(alpha=[1.0, 2.0], beta=[], gamma_sub=[3.0])

    def test_reversed_conjugate_is_permutation_similarity(self, rng):
        g = random_general(rng)
        r = reversed_conjugate(g)
        n = g.n
        p = np.eye(n)[::-1]
        assert np.allclose(r.to_dense(), p @ g.to_dense() @ p, atol=0)

    def test_reversed_conjugate_involution(self, rng):
        g = random_general(rng)
        rr = reversed_conjugate(reversed_conjugate(g))
        assert np.array_equal(rr.to_dense(), g.to_dense())

    def test_sign_canonical_makes_beta_nonnegative(self, rng):
        g = random_general(rng, n=9)
        c = sign_canonical(g)
        assert np.all(c.beta >= 0)
        # off-diagonal products (hence the spectrum) are preserved exactly
        assert np.array_equal(c.offdiag_products, g.offdiag_products)
        assert np.array_equal(c.alpha, g.alpha)

    def test_sign_canonical_is_diagonal_similarity(self, rng):
        g = random_general(rng, n=7)
        c = sign_canonical(g)
        ev_g = np.sort(np.linalg.eigvals(g.to_dense()).real)
        ev_c = np.sort(np.linalg.eigvals(c.to_dense()).real)
        assert np.allclose(ev_g, ev_c, atol=1e-10)
