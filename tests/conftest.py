"""Shared oracles and reference fixtures for the test suite.

Everything here is built independently of the package internals: complex
ladder-operator matrices, a Rodrigues-sum Legendre evaluator, the explicit
J=2 reference matrices (analytic closed forms over cosh/sinh of 2*gamma)
and circle_gap, the gap's limit at fixed J*gamma from a Fourier matrix of
the SUSY circle problem, so that library results are checked against
constructions that share no code with the implementation.  The exceptions are independent
kernels rather than independent constructions: supercharge_sigma_min
(LAPACK dstebz) takes the supercharge chain from lmgspec.models,
charpoly_dense (Faddeev-LeVerrier) returns lmgspec's CharPoly,
charpoly_factorization_residual compares lmgspec's charpoly_tridiag
polynomials, dense_gap diagonalizes lmgspec's formed gap-sector block with
its eig_dense_symmetric, and h_minus_elements, reversed_conjugate,
symmetrize_tridiag and diagonal_lower_bound, the similarity argument for
the gap bound cosh(2*gamma), build or act on lmgspec's GeneralTridiag, and
ldl_factors_one_row repeats the gap kernel's factor arithmetic one gamma
at a time, and invit_one_row its inverse iteration on one row of factors.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dpttrs, dtbtrs

from lmgspec import (
    CharPoly,
    DimensionTooLarge,
    GeneralTridiag,
    OverflowRisk,
    SpinJ,
    charpoly_tridiag,
    eig_dense_symmetric,
    gap_sector_tridiag,
    supercharge_chain,
)


# ---------------------------------------------------------------- oracles

def complex_spin_ops(two_j: int):
    """Complex (Jx, Jy, Jz) from the raw ladder-operator definition."""
    jj = two_j / 2.0
    dim = two_j + 1
    m = np.arange(dim) - jj
    jp = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        jp[i + 1, i] = math.sqrt(jj * (jj + 1) - m[i] * (m[i] + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2j
    jz = np.diag(m.astype(complex))
    return jx, jy, jz


def oracle_h_susy(two_j: int, gamma: float) -> np.ndarray:
    """Dense SUSY Hamiltonian assembled in complex arithmetic."""
    jx, jy, jz = complex_spin_ops(two_j)
    c, s = math.cosh(gamma), math.sinh(gamma)
    h = c * c * (jx @ jx) + s * s * (jy @ jy) + c * s * jz
    assert np.max(np.abs(h.imag)) < 1e-13 * max(1.0, np.max(np.abs(h.real)))
    return h.real


def legendre_rodrigues(n: int, x: float) -> float:
    """P_n(x) by the finite Rodrigues sum
    P_n(x) = 2^-n sum_k C(n,k)^2 (x-1)^(n-k) (x+1)^k  — independent of the
    Bonnet recurrence used by the library."""
    total = 0.0
    for k in range(n + 1):
        total += math.comb(n, k) ** 2 * (x - 1.0) ** (n - k) * (x + 1.0) ** k
    return total / 2.0**n


def supercharge_sigma_min(j: SpinJ, gamma: float) -> float:
    """Smallest positive singular value of the supercharge's bidiagonal block.

    One LAPACK dstebz bisection for the smallest positive eigenvalue of the
    zero-diagonal (Golub-Kahan) tridiagonal of size 2J+1 whose off-diagonal is
    models.supercharge_chain; its eigenvalues are +-sigma_k, plus 0 for
    integer J.  With the absolute tolerance 2*tiny, bisection returns sigma to
    high relative accuracy (Demmel & Kahan 1990).  Squared, it is the spectral
    gap for integer J >= 1 and, for gamma >= 0, the ground energy for
    half-integer J.  Raises OverflowRisk where the squared chain entries,
    which dstebz forms, are not finite in float64.
    """
    k = j.two_j // 2 + 1
    chain = supercharge_chain(j, gamma)
    top = float(np.max(chain, initial=0.0))
    if not math.isfinite(top * top):
        raise OverflowRisk(f"J={j}, gamma={gamma!r}: the squared supercharge chain overflows")
    return float(eigvalsh_tridiagonal(
        np.zeros(j.dim), chain, select="i", select_range=(k, k),
        lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny,
    )[0])


def dense_gap(j: SpinJ, gamma: float) -> float:
    """The spectral gap at integer J >= 1 as the smallest eigenvalue of the
    formed J x J gap-sector block, by one dense LAPACK eigvalsh call."""
    return float(eig_dense_symmetric(gap_sector_tridiag(j, gamma).to_dense())[0])


def circle_gap(x: float) -> float:
    """f(x), the limit of the spectral gap at fixed x = J gamma as J grows.

    Near m_x = 0 with gamma = x/J the rotated Hamiltonian tends to SUSY
    quantum mechanics on a circle, p^2 + x^2 sin^2 phi +- x cos phi
    (Witten 1981), with integer p at integer J.  In the Fourier basis
    e^(i n phi), n = -80 .. 80, that is a pentadiagonal matrix with
    n^2 + x^2/2 on the diagonal, x/2 at distance 1 and -x^2/4 at distance
    2; n up to 40 agrees to 2e-12 at x <= 10.  Its lowest eigenvalue is
    the zero mode, and f(x) is its second; f(0) = 1, the gap at gamma = 0.
    """
    n = np.arange(-80, 81, dtype=float)
    h = np.diag(n * n + x * x / 2.0)
    for k, v in ((1, x / 2.0), (2, -x * x / 4.0)):
        h += np.diag(np.full(n.size - k, v), k) + np.diag(np.full(n.size - k, v), -k)
    return float(np.linalg.eigvalsh(h)[1])


def charpoly_dense(m: np.ndarray) -> CharPoly:
    """Characteristic polynomial of a small dense matrix via the
    Faddeev-LeVerrier trace recursion (conditioning guard: dimension <= 25)."""
    m = np.asarray(m, dtype=np.longdouble)
    n = m.shape[0]
    if n > 25:
        raise DimensionTooLarge(f"dimension {n} exceeds 25")
    coeffs = np.zeros(n + 1, dtype=np.longdouble)
    coeffs[n] = 1.0
    work = np.eye(n, dtype=np.longdouble)
    for k in range(1, n + 1):
        work = m @ work
        c = -np.trace(work) / k
        coeffs[n - k] = c
        work = work + c * np.eye(n, dtype=np.longdouble)
    return CharPoly(coeffs.astype(float))


def charpoly_factorization_residual(hn: np.ndarray, blocks) -> float:
    """Largest coefficient residual of det(x - hn) = x det(x - H+) det(x - H-)
    for the non-Hermitian form hn and its extract_hn_blocks, relative to
    max(1, |coefficient|).

    The coefficients grow like max|hn|^dim, so every matrix is first scaled
    by the same exact power of two 2^-k, with max|hn| / 2^k in [1/2, 1): the
    identity is unchanged and the coefficients stay in float64 up to
    gamma = 300.
    """
    k = math.frexp(float(np.max(np.abs(hn))))[1]

    def scaled_charpoly(t: GeneralTridiag) -> CharPoly:
        return charpoly_tridiag(GeneralTridiag(
            alpha=np.ldexp(t.alpha, -k), beta=np.ldexp(t.beta, -k),
            gamma_sub=np.ldexp(t.gamma_sub, -k)))

    lhs = scaled_charpoly(GeneralTridiag(
        alpha=np.diag(hn), beta=-np.diag(hn, 1), gamma_sub=np.diag(hn, -1)))
    rhs = (scaled_charpoly(blocks.h_plus) * scaled_charpoly(blocks.h_minus)).times_lambda()
    scale = np.maximum(1.0, np.abs(rhs.coeffs))
    return float(np.max(np.abs(lhs.coeffs - rhs.coeffs) / scale))


def h_minus_elements(j: SpinJ, gamma: float) -> GeneralTridiag:
    """H- of the non-Hermitian form, from its closed-form matrix elements,
    for integer J >= 1.

    Indices m, m' = -J .. -1 ascending; diagonal m^2 cosh(2g), off-diagonals
    proportional to sinh(2g) with opposite signs above and below.
    """
    jj = j.two_j // 2
    c2, s2 = math.cosh(2.0 * gamma), math.sinh(2.0 * gamma)
    m = np.arange(-jj, 0, dtype=float)
    # superdiagonal (row m, col m+1): -(m'/2)sqrt((J+m')(J-m'+1)) sinh(2g), m' = m+1
    mp = m[1:]
    sup = -(mp / 2.0) * np.sqrt((jj + mp) * (jj - mp + 1.0)) * s2
    # subdiagonal (row m, col m-1): +(m'/2)sqrt((J-m')(J+m'+1)) sinh(2g), m' = m-1
    mq = m[:-1]
    sub = (mq / 2.0) * np.sqrt((jj - mq) * (jj + mq + 1.0)) * s2
    return GeneralTridiag(alpha=m * m * c2, beta=-sup, gamma_sub=sub)


def reversed_conjugate(g: GeneralTridiag) -> GeneralTridiag:
    """g conjugated by the index-reversal permutation."""
    return GeneralTridiag(alpha=g.alpha[::-1].copy(), beta=-g.gamma_sub[::-1].copy(),
                          gamma_sub=-g.beta[::-1].copy())


def symmetrize_tridiag(a: GeneralTridiag) -> tuple:
    """Similarity-balance a sign-split tridiagonal: off-diagonal pairs
    (-beta_k, +gamma_k) become (-sqrt(beta_k gamma_k), +sqrt(beta_k gamma_k)).

    Returns (aprime, t_diag) where t_diag is the diagonal of the similarity
    T (t_1 = 1, t_{i+1} = t_i * sqrt(beta_i/gamma_i)) with T A T^-1 = aprime.
    The symmetric part of aprime is exactly its diagonal, which is what makes
    the diagonal lower bound valid.  Requires beta_k, gamma_k > 0 strictly.
    """
    if a.n > 1 and (np.any(a.beta <= 0) or np.any(a.gamma_sub <= 0)):
        raise ValueError("symmetrizer requires beta_k > 0 and gamma_k > 0")
    w = np.sqrt(a.beta * a.gamma_sub)
    aprime = GeneralTridiag(alpha=a.alpha.copy(), beta=w, gamma_sub=w.copy())
    t_diag = np.ones(a.n)
    if a.n > 1:
        ratios = np.sqrt(a.beta / a.gamma_sub)   # t_{i+1} = t_i * sqrt(beta_i/gamma_i)
        t_diag[1:] = np.cumprod(ratios)
    return aprime, t_diag


def diagonal_lower_bound(aprime: GeneralTridiag) -> float:
    """min over the diagonal of a balanced sign-split tridiagonal; a lower
    bound on its smallest (real) eigenvalue because the symmetric part is
    diagonal and the antisymmetric part has zero Rayleigh quotient."""
    return float(np.min(aprime.alpha))


def sign_canonical(g: GeneralTridiag) -> GeneralTridiag:
    """g conjugated by diag(+1,-1,+1,...) where needed so that beta >= 0.

    Flipping the sign of basis vector k+1 negates both off-diagonal entries
    at position k; off-diagonal products and the spectrum are unchanged.
    """
    signs = np.ones(g.n)
    for k in range(g.n - 1):
        signs[k + 1] = -signs[k] if g.beta[k] < 0 else signs[k]
    scale = signs[:-1] * signs[1:]
    return GeneralTridiag(alpha=g.alpha.copy(), beta=g.beta * scale, gamma_sub=g.gamma_sub * scale)


def ldl_factors_one_row(j: SpinJ, gamma: float) -> tuple:
    """(d, l) of the gap-sector block's LDL^T factors at -|gamma|, one gamma
    at a time and in one unchunked dtbtrs solve: the construction that
    eigensolve._gap_ldl_factors runs for a whole batch, with the same
    arithmetic, so the two agree bit for bit at every J, also where the
    kernel builds one row in column chunks.  l[-1] = 0."""
    e = supercharge_chain(j, -abs(gamma))
    a, b = e[0::2], e[1::2]
    c = np.square(b / a)
    band = np.zeros((2, c.size), order="F")
    band[1, :-1] = -c[1:]
    u = dtbtrs(band, c, uplo="L", diag="U")[0]
    d = np.square(a) / (1.0 + np.concatenate([[0.0], u[:-1]])) + np.square(b)
    l = np.zeros(a.size)
    l[:-1] = -(b[:-1] * a[1:]) / d[:-1]
    return d, l


def invit_start_one_row(j: SpinJ, gamma: float) -> np.ndarray:
    """The start vector that eigensolve._gap_ldl_factors builds for the gap's
    inverse iteration at one gamma, in one unchunked cumprod: x_0 = 1,
    x_(k+1) = x_k e_(2k+2) / e_(2k+1) with e the supercharge chain at
    +|gamma|, floored at eps.  This is the gap vector at gamma = 0 and the
    Holstein-Primakoff one-quasiparticle state otherwise."""
    e = supercharge_chain(j, abs(gamma))
    x = np.cumprod(np.concatenate([[1.0], e[2::2] / e[1::2][:-1]]))
    return np.maximum(x, np.finfo(float).eps)


def invit_one_row(d: np.ndarray, l: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The settled iterate, of unit norm, of inverse iteration on one row of
    LDL^T factors (d, l) from the start x, with the gap kernel's stopping
    rule for rows of at most 2^19 columns: the first step at which the
    Rayleigh quotient x.y / y.y falls by at most 2 eps relative.  d is first scaled by the power of two that
    puts its smallest entry in [1/2, 1), as in the kernel, so y.y stays in
    float64 range."""
    d = np.ldexp(d, -np.frexp(d.min())[1])
    x = x / math.sqrt(x @ x)
    rho = math.inf
    for _ in range(100):
        y = dpttrs(d, l[:-1], x)[0]
        rho_old, rho = rho, (x @ y) / (y @ y)
        x = y / math.sqrt(y @ y)
        if rho_old - rho <= 2.0 * np.finfo(float).eps * rho:
            return x
    raise AssertionError("inverse iteration did not settle in 100 steps")



# The criterion-10 J list, and 50 gammas that hold 0, +-1e-8 and the
# slowest rows of the gap's inverse iteration, J |gamma| ~ 3-6 at every J of
# the list.
CRITERION_10_J = (5, 10, 15, 25, 30, 100, 1000)
GRID_GAMMAS = ([0.0, 1e-8, -1e-8, 0.003, -0.004, 0.006, 0.12, -0.2, 0.3, 0.6, -1.0]
               + np.linspace(-3.0, 3.0, 39).tolist())

# ------------------------------------------------- J=2 reference matrices

def ref_sorted_h_j2(g: float) -> np.ndarray:
    """Sector-sorted J=2 Hamiltonian: even block over m = (-2, 0, 2), odd
    block over m = (+1, -1)."""
    c2, s2 = math.cosh(2 * g), math.sinh(2 * g)
    r32 = math.sqrt(1.5)
    h = np.zeros((5, 5))
    h[:3, :3] = [
        [math.exp(-2 * g), r32, 0.0],
        [r32, 3 * c2, r32],
        [0.0, r32, math.exp(2 * g)],
    ]
    h[3:, 3:] = [
        [0.5 * (5 * c2 + s2), 1.5],
        [1.5, 0.5 * (5 * c2 - s2)],
    ]
    return h


def ref_q1_j2(g: float) -> np.ndarray:
    """J=2 first supercharge in the same sorted basis as ref_sorted_h_j2."""
    r32 = math.sqrt(1.5)
    em, ep = math.exp(-g), math.exp(g)
    x = np.array([
        [em, 0.0],
        [r32 * ep, r32 * em],
        [0.0, ep],
    ])
    q = np.zeros((5, 5))
    q[:3, 3:] = x
    q[3:, :3] = x.T
    return q


def ref_r2_j2(g: float) -> np.ndarray:
    """J=2 second supercharge divided by i (a real antisymmetric matrix)."""
    q = ref_q1_j2(g)
    r = q.copy()
    r[:3, 3:] *= -1.0
    return r


def ref_hn_j2(g: float) -> np.ndarray:
    """J=2 non-Hermitian similar Hamiltonian (m ascending -2..2)."""
    c2, s2 = math.cosh(2 * g), math.sinh(2 * g)
    r6h = math.sqrt(6.0) / 2.0
    return np.array([
        [4 * c2, s2, 0.0, 0.0, 0.0],
        [-2 * s2, c2, 0.0, 0.0, 0.0],
        [0.0, -r6h * s2, 0.0, -r6h * s2, 0.0],
        [0.0, 0.0, 0.0, c2, -2 * s2],
        [0.0, 0.0, 0.0, s2, 4 * c2],
    ])


def ref_h_minus_j2(g: float) -> np.ndarray:
    c2, s2 = math.cosh(2 * g), math.sinh(2 * g)
    return np.array([[4 * c2, s2], [-2 * s2, c2]])


def ref_h_plus_j2(g: float) -> np.ndarray:
    c2, s2 = math.cosh(2 * g), math.sinh(2 * g)
    return np.array([[c2, -2 * s2], [s2, 4 * c2]])


def ref_a_vec_j2(g: float) -> np.ndarray:
    """m=0 coupling row over (m=-1, m=-2), outward order."""
    s2 = math.sinh(2 * g)
    return np.array([-math.sqrt(6.0) / 2.0 * s2, 0.0])


def gap_closed_form_j2(g: float) -> float:
    """Smallest eigenvalue of the 2x2 odd block: the exact J=2 gap."""
    c2, s2 = math.cosh(2 * g), math.sinh(2 * g)
    return 0.5 * (5 * c2 - math.sqrt(s2 * s2 + 9.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
