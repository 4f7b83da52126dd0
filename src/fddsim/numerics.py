"""Dense complex linear algebra and seeded random sampling.

Everything here is a pure function of its inputs and returns plain
arrays; ``hermitian_eig`` returns the pair (w, u) in the order of
``np.linalg.eigh``.  Random draws are reproducible: a stream is identified
by the master seed plus an arbitrary path of integers (e.g.
``(trial, user, purpose)``), and the same stream id always yields the same
values, independent of call order or thread count.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import toeplitz

from .errors import InvalidArgumentError, NumericalError

HERMITIAN_RTOL = 1e-10
RANK_RTOL = 1e-10


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the stream (seed, *path).

    Built on Philox so that streams derived from the same master seed are
    statistically independent and cheap to construct on the fly.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def gaussian_complex(n: int, seed, *path: int) -> np.ndarray:
    """n i.i.d. circularly-symmetric complex Gaussian samples, unit variance.

    ``seed`` may be an int (with optional extra path components) or an
    already-built Generator.
    """
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = rng_stream(seed, *path)
    # built in place: the same draws and the same complex division as
    # (x + 1j*y) / sqrt(2), without the temporaries
    out = np.empty(n, dtype=complex)
    out.real = rng.standard_normal(n)
    out.imag = rng.standard_normal(n)
    out /= np.sqrt(2.0)
    return out


def dft_matrix(m: int) -> np.ndarray:
    """Unitary M x M DFT matrix, entry (p,q) = exp(-j 2 pi p q / M) / sqrt(M)."""
    if m < 1:
        raise InvalidArgumentError(f"dft_matrix requires M >= 1, got {m}")
    idx = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


def _check_hermitian(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"{what}: expected a square matrix, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > HERMITIAN_RTOL * max(scale, 1e-300):
        raise InvalidArgumentError(f"{what}: input is not Hermitian within tolerance")
    return a


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending) and unitary eigenvectors u (columns) of a
    Hermitian matrix, as ``np.linalg.eigh`` returns them."""
    a = _check_hermitian(a, "hermitian_eig")
    # Symmetrize first so round-off in the input cannot leak into LAPACK.
    h = 0.5 * (a + a.conj().T)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalError(f"hermitian_eig did not converge: {exc}") from exc
    return w, u


def toeplitz_average(a: np.ndarray) -> np.ndarray:
    """First column of the Frobenius-nearest Hermitian Toeplitz matrix.

    Entry k is the average of the Hermitian part of ``a`` over diagonal
    offset -k (rows below the main diagonal).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"toeplitz_average: expected square matrix, got {a.shape}")
    m = a.shape[0]
    h = 0.5 * (a + a.conj().T)
    # Sum every diagonal in one pass: bucket entries by (row - col) offset.
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :] + m - 1).ravel()
    flat = h.ravel()
    sums = (np.bincount(idx, weights=flat.real, minlength=2 * m - 1)
            + 1j * np.bincount(idx, weights=flat.imag, minlength=2 * m - 1))
    counts = m - np.abs(np.arange(2 * m - 1) - (m - 1))
    return (sums / counts)[m - 1:]


def toeplitz_from_column(col: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with the given first column."""
    col = np.asarray(col, dtype=complex)
    return toeplitz(col, col.conj())


def numerical_rank(a: np.ndarray) -> int:
    """Scale-invariant rank: eigenvalues of A^H A above max eigenvalue * 1e-10."""
    a = np.asarray(a, dtype=complex)
    gram = a.conj().T @ a
    w, _ = hermitian_eig(gram)
    top = w[-1] if w.size else 0.0
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(w > top * RANK_RTOL))
