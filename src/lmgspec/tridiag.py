"""Tridiagonal matrix containers.

Two layouts appear in the model:

* ``SymTridiag`` — real symmetric tridiagonal; the parity blocks of the
  rotated Hamiltonian and the input of eig_symtridiag (LAPACK dstebz).
* ``GeneralTridiag`` — real tridiagonal with independently signed
  sub/superdiagonals.  Sign convention: the superdiagonal is stored negated
  (entry (k, k+1) = -beta[k]) and the subdiagonal directly
  (entry (k+1, k) = +gamma_sub[k]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SymTridiag", "GeneralTridiag"]


@dataclass(frozen=True)
class SymTridiag:
    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        if self.off.shape != (max(len(self.diag) - 1, 0),):
            raise ValueError("off must have length n-1")

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def to_general(self) -> "GeneralTridiag":
        """View as a GeneralTridiag (superdiagonal = off means beta = -off)."""
        return GeneralTridiag(alpha=self.diag, beta=-self.off, gamma_sub=self.off)


@dataclass(frozen=True)
class GeneralTridiag:
    alpha: np.ndarray       # diagonal
    beta: np.ndarray        # negated superdiagonal
    gamma_sub: np.ndarray   # subdiagonal

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "gamma_sub", np.asarray(self.gamma_sub, dtype=float))
        k = max(len(self.alpha) - 1, 0)
        if self.beta.shape != (k,) or self.gamma_sub.shape != (k,):
            raise ValueError("beta and gamma_sub must have length n-1")

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def offdiag_products(self) -> np.ndarray:
        """Products superdiagonal*subdiagonal; the only off-diagonal data the
        characteristic polynomial and the spectrum depend on."""
        return -self.beta * self.gamma_sub

    def to_dense(self) -> np.ndarray:
        return np.diag(self.alpha) + np.diag(-self.beta, 1) + np.diag(self.gamma_sub, -1)
