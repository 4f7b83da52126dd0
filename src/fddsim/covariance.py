"""Covariance pipeline: UL sample covariance, angular power estimation by
weighted NNLS (SciPy's Lawson-Hanson), and UL-to-DL extrapolation.

The covariance of a uniform linear array is Hermitian Toeplitz, so it is
carried around as its first column. The DL covariance is PSD by
construction and its beam spectrum is one FFT of that column.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls as _scipy_nnls

from .errors import InvalidArgumentError, NumericalError
from .numerics import toeplitz_from_column


@dataclass
class ToeplitzCovariance:
    """Hermitian PSD Toeplitz covariance, stored as its first column."""

    first_column: np.ndarray

    def __post_init__(self):
        self.first_column = np.asarray(self.first_column, dtype=complex)
        if self.first_column.real[0] < -1e-12 * max(abs(self.first_column[0]), 1.0):
            raise InvalidArgumentError("covariance diagonal entry must be nonnegative")

    @property
    def m(self) -> int:
        return self.first_column.size

    @property
    def trace(self) -> float:
        return float(self.first_column[0].real * self.m)

    def matrix(self) -> np.ndarray:
        return toeplitz_from_column(self.first_column)


def sample_covariance(y: np.ndarray, sigma2: float) -> np.ndarray:
    """Noise-corrected sample covariance (1/N) sum y_i y_i^H - sigma2*I.

    The result may be indefinite; the nonnegative angular fit repairs it.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[1] < 1:
        raise InvalidArgumentError("sample_covariance: Y must be M x N with N >= 1")
    if sigma2 < 0:
        raise InvalidArgumentError("sample_covariance: sigma2 must be nonnegative")
    n = y.shape[1]
    c = (y @ y.conj().T) / n
    return c - sigma2 * np.eye(y.shape[0])


@dataclass
class AsfEstimate:
    """Discrete angular power estimate on a uniform grid in the normalized angle xi."""

    xi: np.ndarray       # grid points, strictly increasing in [-1, 1)
    weights: np.ndarray  # NNLS solution w.r.t. the 1/sqrt(M)-normalized grid matrix
    m: int               # antenna count of the originating array

    @property
    def measure_weights(self) -> np.ndarray:
        """Point masses of the estimated angular measure."""
        return self.weights / np.sqrt(self.m)


def asf_grid(g: int) -> np.ndarray:
    """Uniform xi grid of size g."""
    return -1.0 + 2.0 * np.arange(g) / g


def grid_matrix(m: int, xi: np.ndarray) -> np.ndarray:
    """M x G matrix with columns a_ul(theta_i)/sqrt(M) expressed in xi."""
    return np.exp(1j * np.pi * np.outer(np.arange(m), xi)) / np.sqrt(m)


def estimate_asf(c_ul: np.ndarray, grid_size: int | None = None) -> AsfEstimate:
    """Nonnegative grid weights whose UL covariance column best matches c_ul.

    Solves min sum_d n_d |(G z)_d - c_ul[d]|^2 over z >= 0, with
    n_0 = M and n_d = 2(M - d) the number of entries on diagonal offset
    +-d, so the fit is in the Frobenius norm of the Toeplitz matrices.
    Given the Toeplitz average of a sample covariance S this is, up to a
    constant, the projection of S onto the Toeplitz-PSD cone restricted
    to the grid's nonnegative measures. The complex system is stacked
    into real form. Default grid size is 4*M.
    """
    c_ul = np.asarray(c_ul, dtype=complex)
    m = c_ul.size
    g = 4 * m if grid_size is None else int(grid_size)
    if g < m:
        raise InvalidArgumentError(f"grid size {g} must be at least M={m}")
    xi = asf_grid(g)
    a, row_w = _asf_system(m, xi.tobytes())
    b = np.concatenate([c_ul.real, c_ul.imag]) * row_w
    z = nnls(a, b)
    return AsfEstimate(xi=xi, weights=z, m=m)


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


# The estimator's fixed matrices depend only on the array size, the grid
# (passed as its raw float64 bytes, so it can be a cache key) and alpha.
# Each is built once per process and shared read-only.

@functools.lru_cache(maxsize=4)
def _asf_system(m: int, xi: bytes) -> tuple[np.ndarray, np.ndarray]:
    """estimate_asf's weighted real design matrix and its row weights."""
    gm = grid_matrix(m, np.frombuffer(xi))
    n_d = 2.0 * (m - np.arange(m))
    n_d[0] = m
    row_w = np.tile(np.sqrt(n_d), 2)
    a = np.vstack([gm.real, gm.imag]) * row_w[:, None]
    a.flags.writeable = False
    row_w.flags.writeable = False
    return a, row_w


def extrapolate_dl(asf: AsfEstimate, cfg) -> ToeplitzCovariance:
    """Resample the Fourier transform of the estimated angular measure on
    the scaled grid {alpha*m} to get the DL covariance first column; it is
    PSD because the measure weights are nonnegative, which is checked."""
    w = asf.measure_weights
    if np.any(w < 0.0):
        raise InvalidArgumentError("extrapolate_dl: angular measure weights must be nonnegative")
    exps = _dl_resampling(asf.m, np.ascontiguousarray(asf.xi, dtype=float).tobytes(),
                          cfg.alpha)
    return ToeplitzCovariance(first_column=exps @ w.astype(complex))


@functools.lru_cache(maxsize=4)
def _dl_resampling(m: int, xi: bytes, alpha: float) -> np.ndarray:
    """extrapolate_dl's M x G resampling matrix exp(j pi alpha d xi_i)."""
    exps = np.exp(1j * np.pi * alpha * np.outer(np.arange(m), np.frombuffer(xi)))
    exps.flags.writeable = False
    return exps


def circulant_eigenvalues(cov: ToeplitzCovariance) -> np.ndarray:
    """Beam-space powers diag(F^H C F), real with negative round-off clipped:
    lambda_m = 2 Re(sum_d (1 - d/M) c_d e^{j 2 pi d m/M}) - c_0, one FFT."""
    m, c = cov.m, cov.first_column
    lam = 2.0 * (m * np.fft.ifft((1.0 - np.arange(m) / m) * c)).real - c[0].real
    return np.maximum(lam, 0.0)


def export_covariance_csv(cov: ToeplitzCovariance, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "real", "imag"])
        for i, v in enumerate(cov.first_column):
            w.writerow([i, f"{v.real:.12g}", f"{v.imag:.12g}"])


def export_spectrum_csv(lam: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "lambda"])
        for i, v in enumerate(lam):
            w.writerow([i, f"{v:.12g}"])
