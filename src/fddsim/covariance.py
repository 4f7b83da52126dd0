"""Covariance pipeline: UL sample covariance, angular power estimation by
weighted NNLS, and UL-to-DL extrapolation.

The covariance of a uniform linear array is Hermitian Toeplitz, so it is
carried around as its first column plus a band tag. The DL covariance is PSD
by construction and its beam spectrum is one FFT of that column. The
Dykstra Toeplitz-PSD projection is kept as a reference for the estimator.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .numerics import psd_project, toeplitz_average, toeplitz_from_column
from .opt import nnls

DYKSTRA_TOL = 1e-8
DYKSTRA_MAX_ITER = 5000


@dataclass
class ToeplitzCovariance:
    """Hermitian PSD Toeplitz covariance, stored as its first column."""

    first_column: np.ndarray
    band: str  # "ul" or "dl"

    def __post_init__(self):
        self.first_column = np.asarray(self.first_column, dtype=complex)
        if self.band not in ("ul", "dl"):
            raise InvalidArgumentError(f"band must be 'ul' or 'dl', got {self.band!r}")
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


def project_toeplitz_psd(a: np.ndarray, band: str = "ul",
                         tol: float = DYKSTRA_TOL,
                         max_iter: int = DYKSTRA_MAX_ITER) -> ToeplitzCovariance:
    """Frobenius projection onto the Toeplitz Hermitian PSD cone.

    Dykstra's alternating projections between the Hermitian Toeplitz
    subspace and the PSD cone; this converges to the exact projection onto
    their intersection. Stops when the successive-iterate change drops
    below tol * ||A||_F.
    """
    a = np.asarray(a, dtype=complex)
    scale = max(np.linalg.norm(a), 1e-300)
    x = 0.5 * (a + a.conj().T)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    converged = False
    for _ in range(max_iter):
        y = toeplitz_from_column(toeplitz_average(x + p))
        p = x + p - y
        x_prev = x
        x = psd_project(y + q)
        q = y + q - x
        if (np.linalg.norm(x - x_prev) < tol * scale
                and np.linalg.norm(x - y) < tol * scale):
            converged = True
            break
    if not converged:
        warnings.warn("project_toeplitz_psd: iteration cap reached before the "
                      "residual tolerance; returning the last iterate",
                      RuntimeWarning)
    col = toeplitz_average(x)
    col[0] = max(col[0].real, 0.0)
    return ToeplitzCovariance(first_column=col, band=band)


@dataclass
class AsfEstimate:
    """Discrete angular power estimate on a uniform grid in xi = sin(theta)/sin(theta_max)."""

    xi: np.ndarray       # grid points, strictly increasing in [-1, 1)
    theta: np.ndarray    # corresponding angles
    weights: np.ndarray  # NNLS solution w.r.t. the 1/sqrt(M)-normalized grid matrix
    m: int               # antenna count of the originating array

    @property
    def measure_weights(self) -> np.ndarray:
        """Point masses of the estimated angular measure."""
        return self.weights / np.sqrt(self.m)


def asf_grid(g: int, theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform xi grid of size g and the matching angle grid."""
    xi = -1.0 + 2.0 * np.arange(g) / g
    theta = np.arcsin(xi * np.sin(theta_max))
    return xi, theta


def grid_matrix(m: int, xi: np.ndarray) -> np.ndarray:
    """M x G matrix with columns a_ul(theta_i)/sqrt(M) expressed in xi."""
    return np.exp(1j * np.pi * np.outer(np.arange(m), xi)) / np.sqrt(m)


def estimate_asf(c_ul: np.ndarray, cfg, grid_size: int | None = None) -> AsfEstimate:
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
    xi, theta = asf_grid(g, cfg.theta_max)
    gm = grid_matrix(m, xi)
    n_d = 2.0 * (m - np.arange(m))
    n_d[0] = m
    row_w = np.tile(np.sqrt(n_d), 2)
    a = np.vstack([gm.real, gm.imag]) * row_w[:, None]
    b = np.concatenate([c_ul.real, c_ul.imag]) * row_w
    z = nnls(a, b)
    return AsfEstimate(xi=xi, theta=theta, weights=z, m=m)


def extrapolate_dl(asf: AsfEstimate, cfg) -> ToeplitzCovariance:
    """Resample the Fourier transform of the estimated angular measure on
    the scaled grid {alpha*m} to get the DL covariance first column; it is
    PSD because the measure weights are nonnegative, which is checked."""
    w = asf.measure_weights
    if np.any(w < 0.0):
        raise InvalidArgumentError("extrapolate_dl: angular measure weights must be nonnegative")
    exps = np.exp(1j * np.pi * cfg.alpha * np.outer(np.arange(asf.m), asf.xi))
    return ToeplitzCovariance(first_column=exps @ w.astype(complex), band="dl")


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
