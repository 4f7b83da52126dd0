"""Dykstra's Toeplitz-PSD projection: the reference the pipeline's angular
fit is checked against (``test_fused_estimator_matches_dykstra_path``).

The pipeline never runs it; the tests import it as a sibling module.
"""

import warnings

import numpy as np

from fddsim.numerics import toeplitz_average, toeplitz_from_column

DYKSTRA_TOL = 1e-8
DYKSTRA_MAX_ITER = 5000


def psd_project(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues at zero."""
    w, u = np.linalg.eigh(a)
    out = (u * np.maximum(w, 0.0)) @ u.conj().T
    return 0.5 * (out + out.conj().T)


def project_toeplitz_psd(a: np.ndarray, tol: float = DYKSTRA_TOL,
                         max_iter: int = DYKSTRA_MAX_ITER) -> np.ndarray:
    """Frobenius projection onto the Toeplitz Hermitian PSD cone, returned
    as the first column of the projected matrix.

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
    return col
