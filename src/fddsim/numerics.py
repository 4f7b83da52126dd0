"""Hermitian Toeplitz helpers and seeded random sampling.

Everything here is a pure function of its inputs and returns plain
arrays. Random draws are reproducible: a stream is identified by the
master seed plus a path of integers, and the same stream id always yields
the same values, independent of call order or thread count. A path ends in
a purpose tag unique to its kind of draw (e.g. ``(trial, user, purpose)``),
so two kinds of draw never read the same stream. Nothing here factors
a matrix: the channel draws take pivoted Cholesky factors in ``channel``,
and callers that need eigenvalues run ``np.linalg.eigvalsh`` themselves.
Nothing here caches. ``toeplitz_average`` serves the validation suites
and the tests; the pipeline draws its UL column in ``channel``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import toeplitz

from .errors import InvalidArgumentError


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
    # built in place, with the values of (x + 1j*y) / sqrt(2): NumPy divides
    # complex by real as a multiply by the reciprocal, done here on the
    # float view without complex arithmetic
    out = np.empty(n, dtype=complex)
    out.real = rng.standard_normal(n)
    out.imag = rng.standard_normal(n)
    out.view(float)[...] *= 1.0 / np.sqrt(2.0)
    return out


def toeplitz_average(a: np.ndarray) -> np.ndarray:
    """First column of the Frobenius-nearest Hermitian Toeplitz matrix.

    Entry k is the average of the Hermitian part of ``a`` over diagonal
    offset -k (rows below the main diagonal).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"toeplitz_average: expected square matrix, got {a.shape}")
    m = a.shape[0]
    h = (0.5 * (a + a.conj().T)).ravel()
    # Sum every diagonal in one pass: bucket entries by (row - col) offset.
    idx = (np.arange(m)[:, None] - np.arange(m) + m - 1).ravel()
    sums = np.bincount(idx, h.real, 2 * m - 1) + 1j * np.bincount(idx, h.imag, 2 * m - 1)
    return sums[m - 1:] / (m - np.arange(m))


def toeplitz_from_column(col: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with the given first column."""
    col = np.asarray(col, dtype=complex)
    return toeplitz(col, col.conj())

