"""Synthetic channel geometry for a uniform linear array.

Angles are parametrized by xi = sin(theta)/sin(theta_max) in [-1, 1). An
angular scattering function is a union of weighted xi-intervals plus
optional point masses; UL and DL share the same scattering function but
see array responses whose phases differ by the carrier ratio alpha.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .covariance import ToeplitzCovariance
from .errors import InvalidArgumentError
from .numerics import gaussian_complex, hermitian_eig, rng_stream

DEFAULT_ALPHA = 2140.0 / 1950.0  # LTE-IMT UL/DL carrier pair
DEFAULT_THETA_MAX = np.pi / 3.0


@dataclass
class ArrayConfig:
    m: int
    theta_max: float = DEFAULT_THETA_MAX
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError("ArrayConfig: M must be >= 1")
        if not (0.0 < self.theta_max <= np.pi / 2):
            raise InvalidArgumentError("ArrayConfig: theta_max must be in (0, pi/2]")
        if self.alpha < 1.0:
            raise InvalidArgumentError("ArrayConfig: alpha must be >= 1")


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


def array_response(cfg: ArrayConfig, theta: float, band: str) -> np.ndarray:
    """Length-M steering vector; DL phases are the UL ones scaled by alpha."""
    if abs(theta) > cfg.theta_max + 1e-12:
        raise InvalidArgumentError(f"theta {theta} outside +-theta_max {cfg.theta_max}")
    xi = np.sin(theta) / np.sin(cfg.theta_max)
    scale = 1.0 if band == "ul" else cfg.alpha
    if band not in ("ul", "dl"):
        raise InvalidArgumentError(f"band must be 'ul' or 'dl', got {band!r}")
    return np.exp(1j * np.pi * scale * xi * np.arange(cfg.m))


def true_covariance(cfg: ArrayConfig, asf: AngularScatteringFunction,
                    band: str) -> ToeplitzCovariance:
    """Exact covariance: first column is the ASF transform sampled at
    {m} (UL) or {alpha*m} (DL)."""
    if band not in ("ul", "dl"):
        raise InvalidArgumentError(f"band must be 'ul' or 'dl', got {band!r}")
    scale = 1.0 if band == "ul" else cfg.alpha
    col = asf.fourier(scale * np.arange(cfg.m))
    return ToeplitzCovariance(first_column=col, band=band)


def sample_channels(cfg: ArrayConfig, asf: AngularScatteringFunction,
                    band: str, n: int, seed, *path: int) -> np.ndarray:
    """M x n matrix of i.i.d. zero-mean Gaussian channels with the exact
    covariance of the given ASF (Karhunen-Loeve coloring)."""
    if n < 1:
        raise InvalidArgumentError("sample_channels: n must be >= 1")
    cov = true_covariance(cfg, asf, band)
    eig = hermitian_eig(cov.matrix())
    lam = np.maximum(eig.eigenvalues, 0.0)
    g = gaussian_complex(cfg.m * n, seed, *path).reshape(cfg.m, n)
    return eig.eigenvectors @ (np.sqrt(lam)[:, None] * g)


def make_scenario(n_clusters: int, cluster_width: float, k: int, seed,
                  *path: int, normalized: bool = True):
    """Random non-overlapping clusters in xi plus per-user two-cluster ASFs.

    Each user picks two distinct clusters uniformly at random. With
    ``normalized`` the per-user ASF integrates to 1; otherwise the density
    per cluster is held fixed so that wider scattering carries more power.
    """
    if n_clusters < 2:
        raise InvalidArgumentError("make_scenario: need at least 2 clusters")
    if cluster_width <= 0 or cluster_width * n_clusters > 2.0:
        raise InvalidArgumentError("make_scenario: clusters do not fit in [-1, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else rng_stream(seed, *path)
    w = cluster_width
    # Place non-overlapping clusters by distributing the free space among
    # the n+1 gaps; exact even when the clusters tile [-1, 1] completely.
    free = 2.0 - w * n_clusters
    gaps = rng.dirichlet(np.ones(n_clusters + 1)) * free
    left = -1.0 + np.cumsum(gaps[:-1]) + w * np.arange(n_clusters)
    clusters = [(float(a), float(min(a + w, 1.0))) for a in left]

    users = []
    for _ in range(k):
        i1, i2 = rng.choice(n_clusters, size=2, replace=False)
        density = 1.0 / (2.0 * w) if normalized else 1.0
        asf = AngularScatteringFunction(
            intervals=[clusters[i1] + (density,), clusters[i2] + (density,)],
            normalized=normalized)
        users.append(UserGeometry(cluster_indices=(int(i1), int(i2)), asf=asf))
    return clusters, users


def scenario_to_json(clusters, users, seed: int, cluster_width: float,
                     normalized: bool) -> str:
    return json.dumps({
        "clusters": [[a, b] for (a, b) in clusters],
        "users": [list(u.cluster_indices) for u in users],
        "seed": seed,
        "cluster_width": cluster_width,
        "normalized": normalized,
    }, indent=2)


def scenario_from_json(text: str):
    data = json.loads(text)
    clusters = [tuple(c) for c in data["clusters"]]
    w = data["cluster_width"]
    density = 1.0 / (2.0 * w) if data["normalized"] else 1.0
    users = []
    for idx in data["users"]:
        asf = AngularScatteringFunction(
            intervals=[clusters[i] + (density,) for i in idx],
            normalized=data["normalized"])
        users.append(UserGeometry(cluster_indices=tuple(idx), asf=asf))
    return clusters, users
