"""Two explicit M x M references for the pipeline's UL pilot draw
(``channel.sample_pilot_covariance``), which returns only the Toeplitz
average of the pilots' noise-corrected sample covariance S.

``bartlett_covariance`` forms S from the draw's own stream: the M x M
matrix whose Toeplitz average the draw's column is checked against.

``snapshot_covariance`` draws n channels plus n noise vectors and takes
their sample covariance. It is the reference the complex-Wishart draw is
checked against in distribution, and on the stream path (seed, trial, k)
it rebuilds bit for bit the UL covariance the pipeline estimated from
before it drew the Wishart law: channels on stream (seed, trial, k, 1),
noise on (seed, trial, k, 2). Its channels come from ``kl_channels``, an
``eigh`` Karhunen-Loeve coloring independent of the pipeline's
pivoted-Cholesky factor, so a law test compares the pipeline's factor with
another one, not with itself.

``dft_matrix`` is the dense unitary DFT matrix, the explicit oracle for
the pipeline's FFT-based beam maps (``beam_coefficients``, the pilots and
the beam-space channels).

The pipeline never runs them; the tests import them as a sibling module.
"""

import numpy as np

from fddsim.errors import InvalidArgumentError
from fddsim.numerics import gaussian_complex, rng_stream, toeplitz_from_column


def bartlett_covariance(f: np.ndarray, n: int, sigma2: float, seed,
                        *path: int) -> np.ndarray:
    """S = B B^H / n - sigma2*I with B = F A, for the M x r factor F of
    ``psd_factor(col, sigma2)`` and the r x min(r, n) Bartlett factor A that
    ``sample_pilot_covariance(f, n, sigma2, seed, *path)`` draws from the
    same stream: sqrt(Gamma(n - j, 1)) on the diagonal, then CN(0, 1) below
    it in row-major order."""
    m, r = f.shape
    q = min(r, n)
    rng = rng_stream(seed, *path)
    a = np.zeros((r, q), dtype=complex)
    a[np.diag_indices(q)] = np.sqrt(rng.standard_gamma(n - np.arange(q)))
    below = np.tril_indices(r, -1, q)
    a[below] = gaussian_complex(below[0].size, rng)
    b = f @ a
    s = b @ b.conj().T / n
    s[np.diag_indices(m)] -= sigma2
    return s


def dft_matrix(m: int) -> np.ndarray:
    """Unitary M x M DFT matrix, entry (p,q) = exp(-j 2 pi p q / M) / sqrt(M)."""
    if m < 1:
        raise InvalidArgumentError(f"dft_matrix requires M >= 1, got {m}")
    idx = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


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
