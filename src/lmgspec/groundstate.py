"""Exact zero-energy ground state and its Legendre normalization, by O(J) recurrences.

For integer J, H = F^T F with F = Jz cosh(g) - Ky sinh(g) annihilates
exp(g*Jx)|m_z=0>, whose squared norm is P_J(cosh 2g).  F c = 0 runs downward
from m = J through the ratios of its minimal solution (Gautschi 1967); the
rotated frame solves X^T psi = 0, X the supercharge's bidiagonal block.
Each norm sums its squares in the gap's fixed chunks, whatever the BLAS thread count.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .eigensolve import _row_dots
from .errors import NonFiniteInput, NotIntegerSpin, OverflowRisk
from .models import supercharge_chain
from .spin import SpinJ, ladder

__all__ = ["GroundState", "legendre_p", "ground_state"]


def _bonnet(n: int, x: float) -> tuple:
    """(p, e) with P_n(x) = p * 2**e, by the Bonnet three-term recurrence.
    Past |P_k| = 2**500 both carried terms shift by one exact power of two."""
    if n < 0:
        raise ValueError("n must be non-negative")
    p_prev, p, e = 0.0, 1.0, 0
    for k in range(n):
        if abs(p) > 2.0**500:
            p, shift = math.frexp(p)
            p_prev, e = math.ldexp(p_prev, -shift), e + shift
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, e


def _ldexp(p: float, e: int, what: str) -> float:
    """p * 2**e; OverflowRisk where that is not finite in float64."""
    if not (math.isfinite(p) and math.frexp(p)[1] + e <= 1024):
        raise OverflowRisk(f"{what} is not finite in float64")
    return math.ldexp(p, e)


def _norm(x: np.ndarray) -> float:
    """||x|| by the gap's fixed-chunk _row_dots, with x first scaled by the
    exact power of two that puts max|x| in [1/2, 1), so that no square overflows."""
    k = math.frexp(float(np.max(np.abs(x))))[1]
    xs = np.ldexp(x, -k)[None]
    return math.ldexp(math.sqrt(_row_dots(xs, xs)[0]), k)


def legendre_p(n: int, x: float) -> float:
    """Legendre polynomial P_n(x) by the Bonnet loop, kept finite wherever it is."""
    return _ldexp(*_bonnet(n, x), f"P_{n}({x!r})")


@dataclass(frozen=True)
class GroundState:
    """Zero-mode amplitudes over |m>, ascending m, normalized to 1.

    norm_direct = ||exp(gamma*Jx)|0>|| and norm_legendre = sqrt(P_J(cosh 2
    gamma)) agree by the Legendre identity; energy_residual = ||H amplitudes||.
    """

    j: SpinJ
    gamma: float
    amplitudes: np.ndarray
    norm_direct: float
    norm_legendre: float | None
    energy_residual: float
    frame: str = "factorized"


def _tridiag_apply(x: np.ndarray, diag, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A @ x for the tridiagonal A with these diagonal, sub- and superdiagonal."""
    y = diag * x
    y[1:] += lower * x[:-1]
    y[:-1] += upper * x[1:]
    return y


def ground_state(j: SpinJ, gamma: float, frame: str = "factorized") -> GroundState:
    """The exact E=0 ground state for integer J, in O(J) time and memory.

    frame="factorized": exp(gamma*Jx)|m_z=0>, with norm_direct = P_J(cosh g)
    ||c|| / c_0 as c_0 = <0|exp(g Jx)|0>.  frame="rotated": the rotated form's
    zero mode, without Legendre norm.  OverflowRisk where a norm or the residual
    is not finite in float64 (factorized: 2|gamma|J >~ 1419 or |gamma| > 355).
    """
    if not math.isfinite(gamma):
        raise NonFiniteInput(f"gamma must be finite, got {gamma!r}")
    if not j.is_integer_spin():
        raise NotIntegerSpin("the zero mode needs |m_z=0>, i.e. integer J")
    if frame not in ("factorized", "rotated"):
        raise ValueError(f"unknown frame {frame!r}")
    jj = j.two_j // 2
    try:
        if frame == "rotated":
            # X^T psi = 0 is T a = 0 for T the chain's tridiagonal; H = T^2 here
            e = supercharge_chain(j, gamma)
            logs = np.concatenate(([0.0], np.cumsum(np.log(e[0::2]) - np.log(e[1::2]))))
            amps = np.zeros(j.dim)
            amps[0::2] = np.exp(logs - logs.max())
            amps[2::4] *= -1.0
            diag, lower, upper = 0.0, e, e
            norm_legendre = None
        else:
            # c_{m-1} = (m coth(g) c_m + v_m c_{m+1}) / v_{m-1} from c_{J+1} = 0,
            # run as the ratios rho_m = c_m / c_{m-1}, which cannot overflow
            v = ladder(j)
            tv = (math.tanh(gamma) * v[jj:]).tolist() + [0.0]
            rho = accumulate(range(jj, 0, -1), initial=0.0,
                             func=lambda r, k: tv[k - 1] / (k + tv[k] * r))
            half = np.cumprod(np.fromiter(rho, float, jj + 1)[:0:-1])
            del tv  # a list of Python floats, 32 bytes an entry
            amps = np.concatenate((half[::-1], [1.0], half))
            p, e2 = _bonnet(jj, math.cosh(2.0 * gamma))
            norm_legendre = _ldexp(math.sqrt(math.ldexp(p, e2 & 1)), e2 >> 1,
                                   f"sqrt(P_{jj}(cosh 2 gamma)) at gamma={gamma!r}")
            p, e1 = _bonnet(jj, math.cosh(gamma))
            w = np.multiply(v, math.sinh(gamma), out=v)
            diag, lower, upper = math.cosh(gamma) * np.arange(-jj, jj + 1.0), -w, w
        c_norm = _norm(amps)
        norm_direct = 1.0 if frame == "rotated" else _ldexp(p * c_norm, e1, "norm_direct")
        amps = amps / c_norm
        h_amps = _tridiag_apply(_tridiag_apply(amps, diag, lower, upper), diag, upper, lower)
        resid = _ldexp(_norm(h_amps), 0, "the residual")
    except OverflowError:  # cosh, sinh or exp of gamma
        raise OverflowRisk(f"J={jj}, gamma={gamma!r} is out of the float64 range") from None
    return GroundState(
        j=j, gamma=gamma, amplitudes=amps, norm_direct=norm_direct,
        norm_legendre=norm_legendre, energy_residual=resid, frame=frame,
    )
