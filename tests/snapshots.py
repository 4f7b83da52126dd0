"""The explicit-snapshot UL pilot draw: n channel draws plus n noise
draws and their sample covariance. It is the reference the pipeline's
complex-Wishart draw (``channel.sample_pilot_covariance``) is checked
against in distribution, and on the stream path (seed, trial, k) it
rebuilds bit for bit the UL covariance the pipeline estimated from before
it drew the Wishart law: channels on stream (seed, trial, k, 1), noise on
(seed, trial, k, 2).

Its channels come from ``kl_channels``, an ``eigh`` Karhunen-Loeve
coloring independent of the pipeline's pivoted-Cholesky factor, so a law
test compares the pipeline's factor with another one, not with itself.

The pipeline never runs it; the tests import it as a sibling module.
"""

import numpy as np

from fddsim.errors import InvalidArgumentError
from fddsim.numerics import gaussian_complex, toeplitz_from_column


def kl_channels(col: np.ndarray, n: int, seed, *path: int) -> np.ndarray:
    """M x n channels U sqrt(max(w, 0)) g of covariance T(col) = U diag(w) U^H
    (``np.linalg.eigh``), g the stream's first M*n unit normals in
    row-major order."""
    w, u = np.linalg.eigh(toeplitz_from_column(col))
    g = gaussian_complex(w.size * n, seed, *path).reshape(w.size, n)
    return u @ (np.sqrt(np.maximum(w, 0.0))[:, None] * g)


def sample_covariance(y: np.ndarray, sigma2: float) -> np.ndarray:
    """Noise-corrected sample covariance (1/N) sum y_i y_i^H - sigma2*I.

    The result may be indefinite.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[1] < 1:
        raise InvalidArgumentError("sample_covariance: Y must be M x N with N >= 1")
    if sigma2 < 0:
        raise InvalidArgumentError("sample_covariance: sigma2 must be nonnegative")
    n = y.shape[1]
    c = (y @ y.conj().T) / n
    return c - sigma2 * np.eye(y.shape[0])


def snapshot_covariance(col: np.ndarray, n: int, sigma2: float, seed,
                        *path: int) -> np.ndarray:
    """``sample_covariance`` of the n pilots h + e, h drawn by
    ``kl_channels(col, n, seed, *path, 1)`` and e = sqrt(sigma2) times
    the unit draws of stream (seed, *path, 2), summed in the noise array."""
    h = kl_channels(col, n, seed, *path, 1)
    y = gaussian_complex(col.size * n, seed, *path, 2).reshape(col.size, n)
    y *= np.sqrt(sigma2)
    y += h
    return sample_covariance(y, sigma2)
