"""Synthetic channel geometry for a uniform linear array.

The geometry is defined in the normalized angle xi in [-1, 1) alone. An
angular scattering function is a union of weighted xi-intervals plus
optional point masses; UL and DL share the same scattering function but
see array responses whose phases differ by the carrier ratio alpha. A
covariance is returned as the complex first column of its Hermitian
Toeplitz matrix. Draws from a covariance column are channels
(``sample_channels``) or the noise-corrected sample covariance of noisy
pilots, taken from its complex-Wishart law (``sample_pilot_covariance``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

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


def sample_channels(col: np.ndarray, n: int, seed, *path: int) -> np.ndarray:
    """M x n matrix of i.i.d. zero-mean Gaussian channels whose covariance
    is the Hermitian Toeplitz matrix of first column col, M = col.size
    (Karhunen-Loeve coloring by the cached factor of that column)."""
    if n < 1:
        raise InvalidArgumentError("sample_channels: n must be >= 1")
    col = np.asarray(col, dtype=complex)
    w, u = _kl_factor(col.tobytes())
    g = gaussian_complex(col.size * n, seed, *path).reshape(col.size, n)
    g *= np.sqrt(w)[:, None]  # in place: no M x n temporary
    return u @ g


def sample_pilot_covariance(col: np.ndarray, n: int, sigma2: float, seed,
                            *path: int) -> np.ndarray:
    """Noise-corrected sample covariance (1/n) sum_i y_i y_i^H - sigma2*I
    of n i.i.d. pilots y = h + e, h ~ CN(0, T(col)), e ~ CN(0, sigma2*I),
    drawn from its exact law without drawing the pilots.

    With F = U diag(sqrt(w + sigma2)) from the cached factor (w, U) of
    T(col), sum_i y_i y_i^H is F A A^H F^H for the M x min(M, n)
    lower-trapezoidal Bartlett factor A of a complex Wishart matrix
    (Goodman 1963): |A_jj|^2 ~ Gamma(n - j, 1) on the diagonal and CN(0, 1)
    below it, all from the stream (seed, *path). That is about M^2 / 2
    draws whatever n is, against 2 M n for the pilots. The result may be
    indefinite; the nonnegative angular fit repairs it.
    """
    if n < 1:
        raise InvalidArgumentError("sample_pilot_covariance: n must be >= 1")
    if sigma2 < 0:
        raise InvalidArgumentError("sample_pilot_covariance: sigma2 must be nonnegative")
    col = np.asarray(col, dtype=complex)
    m, r = col.size, min(col.size, n)
    w, u = _kl_factor(col.tobytes())
    rng = rng_stream(seed, *path)
    a = np.zeros((m, r), dtype=complex)
    a[np.diag_indices(r)] = np.sqrt(rng.standard_gamma(n - np.arange(r)))
    below = np.tril_indices(m, -1, r)
    a[below] = gaussian_complex(below[0].size, rng)
    b = (u * np.sqrt(w + sigma2)) @ a
    s = b @ b.conj().T / n
    s[np.diag_indices(m)] -= sigma2
    return s


@functools.lru_cache(maxsize=8)
def _kl_factor(col: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Karhunen-Loeve factor (max(w, 0), U) of eigh(T(c)) for the
    covariance column c given by its complex bytes. A covariance depends
    only on the user's scattering function and the band, so the users of a
    trial share a few columns: each is factored once and shared read-only
    (8 entries cost 8 MB at M = 256)."""
    w, u = np.linalg.eigh(toeplitz_from_column(np.frombuffer(col, dtype=complex)))
    w = np.maximum(w, 0.0)
    w.flags.writeable = False
    u.flags.writeable = False
    return w, u


def make_scenario(n_clusters: int, cluster_width: float, k: int, seed: int,
                  *path: int):
    """Random non-overlapping clusters in xi plus per-user two-cluster ASFs.

    Each user picks two distinct clusters uniformly at random; its ASF has
    uniform density on both and integrates to 1.
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
        i1, i2 = rng.choice(n_clusters, size=2, replace=False)
        asf = AngularScatteringFunction(
            intervals=[clusters[i1] + (density,), clusters[i2] + (density,)],
            normalized=True)
        users.append(UserGeometry(cluster_indices=(int(i1), int(i2)), asf=asf))
    return clusters, users

