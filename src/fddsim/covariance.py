"""Covariance pipeline: angular power estimation from a UL covariance
column by weighted NNLS, and UL-to-DL extrapolation. The fit runs on one
grid of 2M angles, where the NNLS is an exact active set on the system's
circulant Gram, certified by its KKT conditions; on the inputs that active
set cannot decide it is SciPy's Lawson-Hanson.

Everything is a plain array. The covariance of a uniform linear array is
Hermitian Toeplitz, so it is carried as its complex first column
(``numerics.toeplitz_from_column`` builds the matrix where one is needed).
The angular estimate is the vector z of NNLS weights on the grid
``asf_grid(z.size)``; its measure has point masses z / sqrt(M). One
array-response table, ``steering``, maps that measure to its covariance
column on either band. The DL covariance is PSD by construction and its
beam spectrum is one FFT of its column.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.optimize import nnls as _scipy_nnls

from .errors import InvalidArgumentError, NumericalError


def asf_grid(g: int) -> np.ndarray:
    """Uniform xi grid of size g."""
    return -1.0 + 2.0 * np.arange(g) / g


@functools.lru_cache(maxsize=8)
def steering(m: int, g: int, alpha: float) -> np.ndarray:
    """M x G array response exp(j pi alpha d xi_i), d = 0..M-1, on
    ``asf_grid(g)``: the grid measure with point masses z / sqrt(M) has
    the covariance first column ``steering(M, G, alpha) @ (z / sqrt(M))``
    on the band of carrier ratio alpha (alpha = 1 is the UL). Built once
    per (m, g, alpha) and shared read-only."""
    exps = np.exp(1j * np.pi * alpha * np.outer(np.arange(m), asf_grid(g)))
    exps.flags.writeable = False
    return exps


def estimate_asf(c_ul: np.ndarray) -> np.ndarray:
    """Nonnegative weights z on ``asf_grid(2M)`` whose UL covariance column
    ``steering(M, 2M, 1) @ (z / sqrt(M))`` best matches c_ul.

    Solves min sum_d n_d |c(z)_d - c_ul[d]|^2 over z >= 0, with c(z) that
    column and n_0 = M, n_d = 2(M - d) the number of entries on diagonal
    offset +-d, so the fit is in the Frobenius norm of the Toeplitz matrices.
    Given the Toeplitz average of a sample covariance S this is, up to a
    constant, the projection of S onto the Toeplitz-PSD cone restricted
    to the grid's nonnegative measures.

    The complex system is stacked into real form on its 2M - 1 informative
    rows, Re c_0..c_{M-1} and Im c_1..c_{M-1}. The row Im c_0 is dropped:
    it is zero in the design (sin 0 = 0), so it only adds the constant
    n_0 (Im c_ul[0])^2 to the objective and leaves the minimizer unchanged;
    the pipeline's c_ul[0] is real anyway.

    Why 2M: the real design is then (2M - 1) x 2M, close to square. A finer
    grid adds columns but no information, since A^T A keeps rank 2M - 1 (at
    G = 4M, 2M - 1 of 4M), so only z >= 0 picks among the many z that fit
    equally well, and the solver pays for the extra columns. The DL
    spectrum moves by less than the sampling error of n_ul = 500 pilots
    (``test_default_grid_dl_spectrum_tolerance``). The grid is not a
    tunable: at G = 2M, A^T A is a circulant with the one null vector
    (-1)^i and, with these row weights, zeros at every even lag, which
    ``_gram_fit``'s certificate, parity test and per-parity block solve
    assume. It solves the NNLS by an active set on that Gram; where it
    returns None, SciPy's ``nnls`` runs.
    """
    c_ul = np.asarray(c_ul, dtype=complex)
    a, b = _asf_problem(c_ul, 2 * c_ul.size)
    z = _gram_fit(a, b)
    return nnls(a, b) if z is None else z


def _gram_fit(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """NNLS of estimate_asf's system on its circulant Gram, or None where
    SciPy must decide.

    A^T A has entry (i, j) = h[(j - i) % G] = h[|j - i|] with h = A^T A e_0,
    for any row weighting by offset d, and at G = 2M its one null vector
    is (-1)^i, so only the full grid has a singular H_SS. With the
    Frobenius weights h is the Fejer kernel sin^2(pi k/2) / (M sin^2(pi k/2M)):
    h[0] = M and h = 0 at every even lag k != 0. So H_SS is M I within each
    grid parity, [[M I, C], [C^T, M I]] with the cross block C = h[|e - o|],
    and each round solves the Schur complement
    (M^2 I - C C^T) z_p = M c_p - C c_q on the smaller parity p, then sets
    z_q = (c_q - C^T z_p) / M, with c = A^T b.

    The support S starts as the positive entries of the FFT pseudo-inverse
    solution. Each round solves H_SS z_S = c_S and drops the entries <= 0;
    once all are positive it adds every grid point whose gradient
    w = A^T (b - A z) exceeds tau = 1e-12 ||A||_2 ||b||, and it returns z
    when there is none and |w| <= tau on S. None when h is not zero at even
    lags (within 1e-12 h[0]), a support repeats, a solve is singular, or
    the optimal z has zeros at one parity at most: then z + t(-1)^i is
    optimal too, and SciPy's pick is kept.
    """
    g = a.shape[1]
    h = a.T @ a[:, 0]
    d = h[0]
    if (np.abs(h[2::2]) > 1e-12 * d).any():
        return None
    lam = np.fft.rfft(h).real
    c = a.T @ b
    tau = 1e-12 * np.sqrt(lam.max()) * np.linalg.norm(b)
    u = np.fft.rfft(c)
    u[:-1] /= lam[:-1]
    u[-1] = 0.0  # the null eigenvalue, of (-1)^i
    s = np.flatnonzero(np.fft.irfft(u, g) > 0.0)
    seen = set()
    while True:
        key = s.tobytes()
        if key in seen or s.size == g:
            return None
        seen.add(key)
        odd = (s & 1).astype(bool)
        p, q = s[odd], s[~odd]
        if p.size > q.size:
            p, q = q, p
        cross = h[np.abs(p[:, None] - q)]
        # the Schur system negated, (C C^T - d^2 I) z_p = C c_q - d c_p with
        # d = h[0] = M, so its diagonal shift is one subtraction
        schur = cross @ cross.T
        schur.flat[::p.size + 1] -= d * d
        z = np.zeros(g)
        try:
            z[p] = np.linalg.solve(schur, cross @ c[q] - d * c[p])
        except np.linalg.LinAlgError:
            return None
        z[q] = (c[q] - z[p] @ cross) / d
        z_s = z[s]
        if (z_s <= 0.0).any():
            s = s[z_s > 0.0]
            continue
        w = a.T @ (b - a @ z)
        if (w <= tau).all() and (np.abs(w[s]) <= tau).all():
            zero = z == 0.0
            return z if zero[0::2].any() and zero[1::2].any() else None
        s = np.flatnonzero((w > tau) | (z > 0.0))


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||A z - b|| over z >= 0 (SciPy's Lawson-Hanson active set).

    The active-set iterations are capped at 10 * n for n columns (SciPy's
    default of 3 * n is too few for fine angle grids); reaching the cap
    raises NumericalError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1] < 1:
        raise InvalidArgumentError("nnls: A must be a matrix with at least one column")
    if b.shape != (a.shape[0],):
        raise InvalidArgumentError("nnls: b length must match the rows of A")

    max_iter = 10 * a.shape[1]
    try:
        z, _ = _scipy_nnls(a, b, maxiter=max_iter)
    except RuntimeError as exc:
        raise NumericalError(f"nnls: iteration cap {max_iter} exceeded") from exc
    return z


@functools.lru_cache(maxsize=4)
def _asf_system(m: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """estimate_asf's weighted real design matrix on the rows Re c_0..c_{M-1},
    Im c_1..c_{M-1} and their row weights, built once per (m, g) and
    shared read-only."""
    gm = steering(m, g, 1.0) / np.sqrt(m)
    n_d = 2.0 * (m - np.arange(m))
    n_d[0] = m
    row_w = np.sqrt(np.concatenate([n_d, n_d[1:]]))
    a = np.vstack([gm.real, gm.imag[1:]]) * row_w[:, None]
    a.flags.writeable = False
    row_w.flags.writeable = False
    return a, row_w


def _asf_problem(c_ul: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_asf``'s weighted real system (A, b) for c_ul on ``asf_grid(g)``."""
    a, row_w = _asf_system(c_ul.size, g)
    return a, np.concatenate([c_ul.real, c_ul.imag[1:]]) * row_w


def extrapolate_dl(z: np.ndarray, m: int, alpha: float) -> np.ndarray:
    """Covariance first column of the angular estimate z (grid
    ``asf_grid(z.size)``) on an array of M antennas at carrier ratio
    alpha: ``steering(M, G, alpha) @ (z / sqrt(M))``, the DL covariance,
    or at alpha = 1 the fitted UL one. It is PSD because the measure
    weights are nonnegative, which is checked."""
    w = np.asarray(z, dtype=float) / np.sqrt(m)
    if np.any(w < 0.0):
        raise InvalidArgumentError("extrapolate_dl: angular measure weights must be nonnegative")
    return steering(m, w.size, alpha) @ w.astype(complex)


def circulant_eigenvalues(col: np.ndarray) -> np.ndarray:
    """Beam-space powers diag(F^H C F) of the Hermitian Toeplitz C with
    first column c, real with negative round-off clipped:
    lambda_m = 2 Re(sum_d (1 - d/M) c_d e^{j 2 pi d m/M}) - c_0, one FFT."""
    c = np.asarray(col, dtype=complex)
    m = c.size
    lam = 2.0 * (m * np.fft.ifft((1.0 - np.arange(m) / m) * c)).real - c[0].real
    return np.maximum(lam, 0.0)


def export_covariance_csv(col: np.ndarray, path) -> None:
    """A covariance first column as index, real, imag rows, CRLF-terminated
    as the csv module writes them."""
    rows = (f"{i},{v.real:.12g},{v.imag:.12g}\r\n"
            for i, v in enumerate(np.asarray(col).tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("index,real,imag\r\n" + "".join(rows))


def export_spectrum_csv(lam: np.ndarray, path) -> None:
    rows = (f"{i},{v:.12g}\r\n" for i, v in enumerate(np.asarray(lam).tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("index,lambda\r\n" + "".join(rows))
