"""Collective spin operators in the Jz eigenbasis and a matrix exponential.

All matrices are real.  Complex structure is carried by ``Ky = i*Jy``, which
is real antisymmetric; identities involving Jy are restated accordingly
(e.g. ``Jy**2 = -Ky @ Ky``).  Basis convention: index ``i`` corresponds to
magnetic quantum number ``m = i - J``, ascending from -J to +J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OverflowRisk

__all__ = [
    "SpinJ",
    "SpinOperators",
    "build_spin_operators",
    "ladder",
    "mat_exp_scaled",
]

#: largest allowed value of |t| * ||M||_1 in mat_exp_scaled; exp(700) is near
#: the double-precision overflow threshold.
MATEXP_ARG_LIMIT = 700.0


@dataclass(frozen=True)
class SpinJ:
    """Total spin J stored as the integer 2J (so half-integers are exact)."""

    two_j: int

    def __post_init__(self):
        if type(self.two_j) is not int or self.two_j < 0:
            raise ValueError(f"two_j must be a non-negative integer, got {self.two_j!r}")

    @classmethod
    def from_j(cls, j) -> "SpinJ":
        """Build from a numeric or string J ("2", "1.5", "3/2" all work),
        parsed exactly: a number that is not an integer or half-integer,
        such as 2.7 or 1e-9, is rejected rather than rounded."""
        try:
            two_j = 2 * Fraction(j)
        except (ZeroDivisionError, OverflowError):    # "1/0", float inf
            two_j = None
        if two_j is None or two_j.denominator != 1:
            raise ValueError(f"j must be integer or half-integer, got {j!r}")
        return cls(int(two_j))

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def is_integer_spin(self) -> bool:
        return self.two_j % 2 == 0

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers -J .. +J, ascending."""
        return np.arange(self.dim) - self.j

    def __str__(self) -> str:
        return str(self.two_j // 2) if self.is_integer_spin() else str(self.two_j / 2)


@dataclass(frozen=True)
class SpinOperators:
    """Real matrix images of Jx, Ky = i*Jy, Jz for total spin j."""

    j: SpinJ
    jx: np.ndarray   # real symmetric
    ky: np.ndarray   # real antisymmetric
    jz: np.ndarray   # diagonal, entries m


def ladder(j: SpinJ, start: int = 0, stop=None, step: int = 1, out=None) -> np.ndarray:
    """Condon-Shortley ladder v_i = <m+1|Jx|m> = (1/2)sqrt(J(J+1) - m(m+1))
    = (1/2)sqrt((2J - i)(i + 1)) for basis index i = m + J, i = start,
    start + step, .. < stop (default: all, i < 2J), written into out if
    given.  Each product is an exact integer while (J + 1/2)^2 < 2^53, so
    every entry is its correctly rounded value."""
    i = np.arange(start, j.two_j if stop is None else stop, step, dtype=float)
    v = np.subtract(j.two_j, i, out=out)
    v *= np.add(i, 1.0, out=i)
    return np.multiply(np.sqrt(v, out=v), 0.5, out=v)


def build_spin_operators(j: SpinJ) -> SpinOperators:
    """Exact matrix representations of Jx, Ky, Jz for total spin j.

    <m+1|Jx|m> = <m|Jx|m+1> = v_i of ladder, all real nonnegative;
    <m+1|Ky|m> = +v_i and Ky is antisymmetric.
    """
    v = ladder(j)
    jx = np.diag(v, -1) + np.diag(v, 1)
    ky = np.diag(v, -1) - np.diag(v, 1)
    jz = np.diag(j.m_values())
    return SpinOperators(j=j, jx=jx, ky=ky, jz=jz)


def mat_exp_scaled(m: np.ndarray, t: float) -> np.ndarray:
    """exp(t*m) by scaling-and-squaring with a truncated Taylor series.

    Series terms are added until their max-norm drops below 1e-18 relative;
    squaring count is s = max(0, ceil(log2(||t*m||_1))).  Raises OverflowRisk
    when |t|*||m||_1 exceeds the exp(700) representability guard.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    norm1 = float(np.max(np.sum(np.abs(m), axis=0))) if n else 0.0
    if abs(t) * norm1 > MATEXP_ARG_LIMIT:
        raise OverflowRisk(
            f"|t|*||m||_1 = {abs(t) * norm1:.3g} exceeds the {MATEXP_ARG_LIMIT:g} guard"
        )
    scaled_norm = abs(t) * norm1
    s = max(0, math.ceil(math.log2(scaled_norm))) if scaled_norm > 1.0 else 0
    a = (t / (1 << s)) * m
    result = np.eye(n)
    term = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for k in range(1, 60):
        term = term @ a / k
        result = result + term
        if np.max(np.abs(term)) < 1e-18 * scale:
            break
    for _ in range(s):
        result = result @ result
    return result
