"""Synthetic channel geometry for a uniform linear array.

The geometry is defined in the normalized angle xi in [-1, 1) alone. An
angular scattering function is a union of weighted xi-intervals plus
optional point masses; UL and DL share the same scattering function but
see array responses whose phases differ by the carrier ratio alpha. A
covariance is returned as the complex first column of its Hermitian
Toeplitz matrix. Draws from a covariance are channels (``sample_channels``)
or the Toeplitz column of the noise-corrected sample covariance of noisy
pilots, from its complex-Wishart law (``sample_pilot_covariance``). Both
take the M x r factor F of ``psd_factor``, F F^H = T(col) + sigma2 I from
LAPACK's pivoted Cholesky of the Toeplitz matrix, r the numerical rank it
reports, and color r rows of unit normals by it. A draw does not factor:
users with the same ASF share their factor on each band, so a trial
factors once per distinct ASF and band. The module keeps no state between
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidArgumentError
from .numerics import gaussian_complex, rng_stream, toeplitz_from_column

DEFAULT_ALPHA = 2140.0 / 1950.0  # LTE-IMT UL/DL carrier pair


@dataclass
class AngularScatteringFunction:
    """Density over xi as weighted intervals plus optional point masses."""

    intervals: list = field(default_factory=list)     # (a, b, density)
    point_masses: list = field(default_factory=list)  # (xi0, mass)
    normalized: bool = False

    def __post_init__(self):
        for (a, b, rho) in self.intervals:
            if not (-1.0 <= a < b <= 1.0):
                raise InvalidArgumentError(f"interval [{a},{b}] must satisfy -1 <= a < b <= 1")
            if rho < 0:
                raise InvalidArgumentError("interval density must be nonnegative")
        for (x0, mass) in self.point_masses:
            if not (-1.0 <= x0 <= 1.0):
                raise InvalidArgumentError("point mass location outside [-1, 1]")
            if mass < 0:
                raise InvalidArgumentError("point mass must be nonnegative")
        if self.normalized and abs(self.total_mass() - 1.0) > 1e-12:
            raise InvalidArgumentError("normalized ASF must integrate to 1")

    def total_mass(self) -> float:
        mass = sum(rho * (b - a) for (a, b, rho) in self.intervals)
        mass += sum(m for (_, m) in self.point_masses)
        return float(mass)

    def fourier(self, x: np.ndarray) -> np.ndarray:
        """Closed-form transform int gamma(d xi) exp(j x pi xi) at points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        nz = x != 0.0
        for (a, b, rho) in self.intervals:
            out[~nz] += rho * (b - a)
            c = 1j * x[nz] * np.pi
            out[nz] += rho * (np.exp(c * b) - np.exp(c * a)) / c
        for (x0, mass) in self.point_masses:
            out += mass * np.exp(1j * x * np.pi * x0)
        return out


@dataclass
class UserGeometry:
    cluster_indices: tuple
    asf: AngularScatteringFunction

    def __post_init__(self):
        if len(set(self.cluster_indices)) != len(self.cluster_indices):
            raise InvalidArgumentError("user cluster indices must be distinct")


def true_covariance(asf: AngularScatteringFunction, m: int,
                    alpha: float) -> np.ndarray:
    """First column of the exact covariance of an M-antenna array on the
    band of carrier ratio alpha (1 for the UL): the ASF transform sampled
    at {alpha*d}, d = 0..M-1."""
    return asf.fourier(alpha * np.arange(m))


def psd_factor(col: np.ndarray, sigma2: float = 0.0) -> np.ndarray:
    """M x r factor F = P L[:, :r] with F F^H = T(col) + sigma2 I, T(col) the
    Hermitian Toeplitz matrix of first column col, from the pivoted Cholesky
    P^T (T + sigma2 I) P = L L^H (LAPACK zpstrf, its default tolerance;
    Lucas, LAWN 161, 2004), r the rank it reports. A rank-deficient matrix
    stops the factorization early, so F has r < M columns; info > 0 only
    says so. The factor is a function of (col, sigma2) alone: draws that
    share both may share it."""
    if sigma2 < 0:
        raise InvalidArgumentError("psd_factor: sigma2 must be nonnegative")
    t = toeplitz_from_column(col)
    if sigma2:
        t[np.diag_indices(t.shape[0])] += sigma2
    c, piv, r, _ = lapack.zpstrf(t, lower=1)
    f = np.empty((t.shape[0], r), dtype=complex)
    f[piv - 1] = np.tril(c[:, :r])
    return f


def sample_channels(f: np.ndarray, n: int, seed, *path: int) -> np.ndarray:
    """M x n matrix of i.i.d. zero-mean Gaussian channels of covariance
    F F^H, for the M x r factor F of ``psd_factor(col)``: F g for r x n unit
    normals g, the stream's first r*n draws in row-major order."""
    if n < 1:
        raise InvalidArgumentError("sample_channels: n must be >= 1")
    if np.ndim(f) != 2:
        raise InvalidArgumentError("sample_channels: need an M x r factor (see psd_factor)")
    return f @ gaussian_complex(f.shape[1] * n, seed, *path).reshape(-1, n)


def sample_pilot_covariance(f: np.ndarray, n: int, sigma2: float, seed,
                            *path: int) -> np.ndarray:
    """First column of the Toeplitz average of the noise-corrected sample
    covariance S = (1/n) sum_i y_i y_i^H - sigma2*I of n i.i.d. pilots
    y = h + e, h ~ CN(0, T(col)), e ~ CN(0, sigma2*I), drawn from its exact
    law without drawing the pilots; entry d is the mean of S over diagonal
    offset -d. F is the M x r factor ``psd_factor(col, sigma2)`` of
    T(col) + sigma2*I, the pilots' covariance, with the same sigma2.

    sum_i y_i y_i^H is B B^H with B = F A, A the r x min(r, n)
    lower-trapezoidal Bartlett factor of a complex Wishart matrix (Goodman
    1963): |A_jj|^2 ~ Gamma(n - j, 1) on the diagonal and CN(0, 1) below
    it, all from the stream (seed, *path). That is about r^2 / 2 draws
    whatever n is, against 2 M n for the pilots. S is not formed: its sum
    over offset -d is the lag-d autocorrelation of B's columns, summed, by
    one zero-padded FFT of B^T's rows. c[0] is exactly real. The column may
    be indefinite; the nonnegative angular fit repairs it.
    """
    if n < 1:
        raise InvalidArgumentError("sample_pilot_covariance: n must be >= 1")
    if sigma2 < 0:
        raise InvalidArgumentError("sample_pilot_covariance: sigma2 must be nonnegative")
    if np.ndim(f) != 2:
        raise InvalidArgumentError(
            "sample_pilot_covariance: need an M x r factor (see psd_factor)")
    m, r = f.shape
    q = min(r, n)
    rng = rng_stream(seed, *path)
    a = np.zeros((r, q), dtype=complex)
    a[np.diag_indices(q)] = np.sqrt(rng.standard_gamma(n - np.arange(q)))
    below = np.tri(r, q, -1, dtype=bool)
    a[below] = gaussian_complex(np.count_nonzero(below), rng)
    x = np.fft.fft(a.T @ f.T, 2 * m)  # along the contiguous rows of B^T
    c = np.fft.ifft((x.real ** 2 + x.imag ** 2).sum(axis=0))[:m] / (n * (m - np.arange(m)))
    c[0] = c[0].real - sigma2
    return c


def make_scenario(n_clusters: int, cluster_width: float, k: int, seed: int,
                  *path: int):
    """Random non-overlapping clusters in xi plus per-user two-cluster ASFs.

    Each user picks two distinct clusters uniformly at random; its ASF has
    uniform density on both and integrates to 1. The pair is stored in
    ascending position, in its intervals and its ``cluster_indices`` alike,
    whichever order it was picked in: the users of one cluster pair have one
    ASF, equal bit for bit, and so one covariance on each band.
    """
    if n_clusters < 2:
        raise InvalidArgumentError("make_scenario: need at least 2 clusters")
    if cluster_width <= 0 or cluster_width * n_clusters > 2.0:
        raise InvalidArgumentError("make_scenario: clusters do not fit in [-1, 1]")
    rng = rng_stream(seed, *path)
    w = cluster_width
    # Place non-overlapping clusters by distributing the free space among
    # the n+1 gaps; exact even when the clusters tile [-1, 1] completely.
    free = 2.0 - w * n_clusters
    gaps = rng.dirichlet(np.ones(n_clusters + 1)) * free
    left = -1.0 + np.cumsum(gaps[:-1]) + w * np.arange(n_clusters)
    clusters = [(float(a), float(min(a + w, 1.0))) for a in left]

    density = 1.0 / (2.0 * w)
    users = []
    for _ in range(k):
        i1, i2 = sorted(rng.choice(n_clusters, size=2, replace=False))
        asf = AngularScatteringFunction(
            intervals=[clusters[i1] + (density,), clusters[i2] + (density,)],
            normalized=True)
        users.append(UserGeometry(cluster_indices=(int(i1), int(i2)), asf=asf))
    return clusters, users

