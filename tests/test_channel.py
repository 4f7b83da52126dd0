"""Tests for the array/channel geometry model."""

import numpy as np
import pytest
from scipy.linalg import lapack

from fddsim.channel import (DEFAULT_ALPHA, AngularScatteringFunction,
                            UserGeometry, make_scenario, psd_factor, sample_channels,
                            sample_pilot_covariance, true_covariance)
from fddsim.covariance import circulant_eigenvalues
from fddsim.errors import InvalidArgumentError
from fddsim.numerics import gaussian_complex, rng_stream, toeplitz_average, toeplitz_from_column
from snapshots import bartlett_covariance, kl_channels, snapshot_covariance


def riemann_fourier(asf, x, n_points=10**5):
    """Quadrature oracle for the ASF transform at a single real x."""
    xi = np.linspace(-1.0, 1.0, n_points, endpoint=False) + 1.0 / n_points
    dx = 2.0 / n_points
    density = np.zeros(n_points)
    for (a, b, rho) in asf.intervals:
        density[(xi >= a) & (xi < b)] += rho
    val = np.sum(density * np.exp(1j * x * np.pi * xi)) * dx
    for (x0, mass) in asf.point_masses:
        val += mass * np.exp(1j * x * np.pi * x0)
    return val


# ----------------------------------------------------------------- ASF basics

def test_asf_total_mass():
    asf = AngularScatteringFunction(intervals=[(-0.5, 0.0, 2.0)],
                                    point_masses=[(0.3, 0.5)])
    assert abs(asf.total_mass() - 1.5) < 1e-14


def test_asf_normalized_flag_enforced():
    with pytest.raises(InvalidArgumentError):
        AngularScatteringFunction(intervals=[(-0.5, 0.5, 2.0)], normalized=True)


def test_asf_rejects_bad_interval():
    with pytest.raises(InvalidArgumentError):
        AngularScatteringFunction(intervals=[(0.5, 0.2, 1.0)])
    with pytest.raises(InvalidArgumentError):
        AngularScatteringFunction(intervals=[(-2.0, 0.0, 1.0)])
    with pytest.raises(InvalidArgumentError):
        AngularScatteringFunction(point_masses=[(0.0, -1.0)])


def test_asf_fourier_matches_quadrature():
    asf = AngularScatteringFunction(
        intervals=[(-0.6, -0.4, 2.5), (0.2, 0.4, 2.5)])
    for x in [0.0, 1.0, 3.7, 15.0]:
        assert abs(asf.fourier(x)[0] - riemann_fourier(asf, x)) < 1e-6


def test_asf_fourier_point_mass():
    asf = AngularScatteringFunction(point_masses=[(0.25, 2.0)])
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(asf.fourier(x), 2.0 * np.exp(1j * np.pi * 0.25 * x),
                               atol=1e-14)


# ------------------------------------------------------------- true covariance

def test_true_covariance_uniform_is_identity():
    asf = AngularScatteringFunction(intervals=[(-1.0, 1.0, 0.5)], normalized=True)
    np.testing.assert_allclose(toeplitz_from_column(true_covariance(asf, 8, 1.0)),
                               np.eye(8), atol=1e-12)


def test_true_covariance_point_mass_rank_one():
    xi0 = 0.4
    asf = AngularScatteringFunction(point_masses=[(xi0, 1.0)], normalized=True)
    col = true_covariance(asf, 8, 1.0)
    a = np.exp(1j * np.pi * xi0 * np.arange(8))
    np.testing.assert_allclose(toeplitz_from_column(col), np.outer(a, a.conj()), atol=1e-12)
    np.testing.assert_allclose(col,
                               np.exp(-1j * np.pi * xi0 * np.arange(8)).conj(),
                               atol=1e-12)


def test_true_covariance_matches_quadrature():
    asf = AngularScatteringFunction(
        intervals=[(-0.5, -0.3, 2.5), (0.1, 0.3, 2.5)], normalized=True)
    for alpha in (1.0, 1.1):
        col = true_covariance(asf, 16, alpha)
        ref = np.array([riemann_fourier(asf, alpha * m) for m in range(16)])
        np.testing.assert_allclose(col, ref, atol=1e-6)


def test_true_covariance_psd_and_trace():
    asf = AngularScatteringFunction(intervals=[(-0.4, 0.0, 1.5)])
    col = true_covariance(asf, 12, 1.0)
    w = np.linalg.eigvalsh(toeplitz_from_column(col))
    assert w[0] > -1e-10
    assert abs(12 * col[0].real - 12 * asf.total_mass()) < 1e-10


# -------------------------------------------------------------------- sampling

def test_sample_channels_zero_asf():
    asf = AngularScatteringFunction(intervals=[(-0.5, 0.5, 0.0)])
    h = sample_channels(psd_factor(true_covariance(asf, 4, 1.0)), 3, 1)
    np.testing.assert_array_equal(h, np.zeros((4, 3)))


def test_sample_channels_identity_covariance():
    asf = AngularScatteringFunction(intervals=[(-1.0, 1.0, 0.5)], normalized=True)
    h = sample_channels(psd_factor(true_covariance(asf, 6, 1.0)), 10**4, 2)
    c = h @ h.conj().T / 10**4
    assert np.linalg.norm(c - np.eye(6)) / np.linalg.norm(np.eye(6)) < 0.05


def test_sample_channels_point_mass_rank_one():
    asf = AngularScatteringFunction(point_masses=[(0.2, 1.0)], normalized=True)
    h = sample_channels(psd_factor(true_covariance(asf, 8, 1.0)), 5, 3)
    a = np.exp(1j * np.pi * 0.2 * np.arange(8))
    for col in h.T:
        ratio = col / a
        assert np.max(np.abs(ratio - ratio[0])) < 1e-6


def test_sample_channels_deterministic():
    col = true_covariance(AngularScatteringFunction(intervals=[(-0.3, 0.3, 1.0)]), 4, 1.0)
    np.testing.assert_array_equal(sample_channels(psd_factor(col), 2, 9, 1, 2),
                                  sample_channels(psd_factor(col), 2, 9, 1, 2))


NARROW_16 = AngularScatteringFunction(intervals=[(-0.5, -0.4, 5.0), (0.2, 0.3, 5.0)],
                                      normalized=True)


def _reference_factor(col, sigma2):
    """P L_r written out: L_r the first r columns of the pivoted Cholesky
    factor of T(col) + sigma2 I, P its pivot."""
    t = toeplitz_from_column(col) + sigma2 * np.eye(col.size)
    c, piv, r, _ = lapack.zpstrf(t, lower=1)
    f = np.zeros((col.size, r), dtype=complex)
    f[piv - 1] = np.tril(c)[:, :r]
    return f


@pytest.mark.parametrize("sigma2, rank", [(0.0, 15), (0.01, 16)])
def test_psd_factor_equals_reference(sigma2, rank):
    """psd_factor is P L_r of T + sigma2 I bit for bit, and F F^H = T + sigma2 I."""
    col = true_covariance(NARROW_16, 16, DEFAULT_ALPHA)
    f = psd_factor(col, sigma2)
    assert f.shape == (16, rank)
    np.testing.assert_array_equal(f, _reference_factor(col, sigma2))
    t = toeplitz_from_column(col) + sigma2 * np.eye(16)
    np.testing.assert_allclose(f @ f.conj().T, t, rtol=0.0, atol=1e-12)


def test_psd_factor_rejects_negative_noise():
    with pytest.raises(InvalidArgumentError):
        psd_factor(TWO_CLUSTER_16, -1e-3)


def test_sample_channels_equals_reference_coloring():
    """Bit for bit P L_r g: P L_r the reference factor of T (rank r < M),
    and g the stream's first r*n unit normals as r x n (a draw of M*n
    normals would differ: their imaginary parts start later in the
    stream)."""
    col = true_covariance(NARROW_16, 16, DEFAULT_ALPHA)
    f = _reference_factor(col, 0.0)
    r = f.shape[1]
    assert r == 15
    g = gaussian_complex(r * 5, 9, 1, 2).reshape(r, 5)
    np.testing.assert_array_equal(sample_channels(psd_factor(col), 5, 9, 1, 2), f @ g)


def test_sample_channels_matches_eigh_law():
    """2 000 draws of 4 channels each against 2 000 draws of the eigh
    Karhunen-Loeve coloring (tests/snapshots.py) of the same rank-15 M=16
    two-cluster DL covariance, compared per real component of the upper
    triangle of h h^H / 4: the means differ by at most 4 combined standard
    errors and the variance ratios lie in [0.8, 1.25]. Observed |z| <= 2.17,
    ratios 0.871-1.151."""
    col = true_covariance(NARROW_16, 16, DEFAULT_ALPHA)
    draws, n = 2000, 4
    upper, strict = np.triu_indices(16), np.triu_indices(16, 1)

    def components(draw, source, seed):
        out = []
        for i in range(draws):
            h = draw(source, n, seed, i)
            c = h @ h.conj().T / n
            out.append(np.concatenate([c[upper].real, c[strict].imag]))
        return np.array(out)

    new = components(sample_channels, psd_factor(col), 5)
    ref = components(kl_channels, col, 6)
    z = (new.mean(0) - ref.mean(0)) / np.sqrt((new.var(0, ddof=1) + ref.var(0, ddof=1)) / draws)
    ratio = new.var(0, ddof=1) / ref.var(0, ddof=1)
    assert np.abs(z).max() <= 4.0
    assert 0.8 <= ratio.min() and ratio.max() <= 1.25


# ------------------------------------------------ pilot sample covariance

TWO_CLUSTER_16 = true_covariance(AngularScatteringFunction(
    intervals=[(-0.55, -0.35, 2.5), (0.25, 0.45, 2.5)], normalized=True), 16, 1.0)


@pytest.mark.parametrize("n, sigma2", [(200, 0.01), (16, 0.01), (8, 0.01), (8, 0.0),
                                       (1, 0.01), (1, 0.0)])
def test_sample_pilot_covariance_rank(n, sigma2):
    """S + sigma2 I is the Gram matrix of n pilots: rank min(M, n), on the
    explicit S of the draw's stream (tests/snapshots.py). The draw's column
    is that S's Toeplitz average within 1e-14 of its largest entry (observed
    at most 2.5e-15 over 50 streams per case), with c[0] exactly real."""
    f = psd_factor(TWO_CLUSTER_16, sigma2)
    s = bartlett_covariance(f, n, sigma2, 3, n)
    assert np.linalg.matrix_rank(s + sigma2 * np.eye(16)) == min(16, n)
    c = sample_pilot_covariance(f, n, sigma2, 3, n)
    ref = toeplitz_average(s)
    assert c.shape == (16,) and c[0].imag == 0.0
    assert np.abs(c - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n, sigma2", [(200, 0.01), (8, 0.01), (8, 0.0)])
def test_sample_pilot_covariance_matches_snapshot_law(n, sigma2):
    """2 000 Wishart draws against 2 000 explicit-snapshot draws
    (tests/snapshots.py) of the same M=16 two-cluster covariance, compared
    per real component of the Toeplitz average the estimator reads (the
    draw's column against the snapshots' average) and of the upper
    triangle of S (the draw stream's explicit S, ``bartlett_covariance``,
    against the snapshots' S): the means differ by at most 4 combined
    standard errors and the variance ratios lie in [0.8, 1.25]. Observed
    over the three cases: Toeplitz average |z| <= 2.90, ratios
    0.870-1.121; S |z| <= 2.41, ratios 0.847-1.158."""
    draws = 2000
    upper, strict = np.triu_indices(16), np.triu_indices(16, 1)

    def components(draw, seed):
        out = []
        for i in range(draws):
            c, s = draw(seed, i)
            out.append(np.concatenate([c.real, c[1:].imag, s[upper].real,
                                       s[strict].imag]))
        return np.array(out)

    def snapshots(*path):
        s = snapshot_covariance(TWO_CLUSTER_16, n, sigma2, *path)
        return toeplitz_average(s), s

    f = psd_factor(TWO_CLUSTER_16, sigma2)
    new = components(lambda *path: (sample_pilot_covariance(f, n, sigma2, *path),
                                    bartlett_covariance(f, n, sigma2, *path)), 5)
    ref = components(snapshots, 6)
    z = (new.mean(0) - ref.mean(0)) / np.sqrt((new.var(0, ddof=1) + ref.var(0, ddof=1)) / draws)
    ratio = new.var(0, ddof=1) / ref.var(0, ddof=1)
    assert np.abs(z).max() <= 4.0
    assert 0.8 <= ratio.min() and ratio.max() <= 1.25


def test_sample_pilot_covariance_rejects_bad_input():
    f = psd_factor(TWO_CLUSTER_16, 0.01)
    with pytest.raises(InvalidArgumentError):
        sample_pilot_covariance(f, 0, 0.01, 1)
    with pytest.raises(InvalidArgumentError):
        sample_pilot_covariance(f, 8, -1e-3, 1)
    with pytest.raises(InvalidArgumentError):  # a column, not its factor
        sample_pilot_covariance(TWO_CLUSTER_16, 8, 0.01, 1)
    with pytest.raises(InvalidArgumentError):
        sample_channels(TWO_CLUSTER_16, 8, 1)


# -------------------------------------------------------------------- scenario

def test_make_scenario_geometry():
    clusters, users = make_scenario(3, 0.2, 5, 42, 0)
    assert len(clusters) == 3 and len(users) == 5
    for (a, b) in clusters:
        assert -1.0 <= a < b <= 1.0
        assert abs((b - a) - 0.2) < 1e-12
    for (a1, b1), (a2, b2) in zip(clusters, clusters[1:]):
        assert b1 <= a2 + 1e-12  # non-overlapping, sorted
    for u in users:
        assert len(set(u.cluster_indices)) == 2
        assert abs(u.asf.total_mass() - 1.0) < 1e-12


def test_make_scenario_deterministic():
    c1, u1 = make_scenario(3, 0.2, 3, 7, 5)
    c2, u2 = make_scenario(3, 0.2, 3, 7, 5)
    assert c1 == c2
    assert [u.cluster_indices for u in u1] == [u.cluster_indices for u in u2]


# make_scenario arguments -> (clusters, each user's cluster pair): the
# clusters and the unordered pairs drawn before pairs were stored in
# ascending order, which draws the same values
PINNED_SCENARIOS = {
    (3, 0.2, 8, 1, 0, 0): (
        [(-0.8915354091518906, -0.6915354091518906), (0.3891102111694063, 0.5891102111694063),
         (0.6498616088809893, 0.8498616088809894)],
        [(0, 1), (1, 2), (0, 1), (1, 2), (1, 2), (0, 1), (0, 1), (0, 2)]),
    (8, 0.1, 8, 1, 1, 0): (
        [(-0.9633161265480347, -0.8633161265480347), (-0.8553410855753057, -0.7553410855753058),
         (-0.5724300518304863, -0.47243005183048636), (-0.2818281390728452, -0.1818281390728452),
         (0.08493061493957266, 0.18493061493957266), (0.24437048512724013, 0.3443704851272401),
         (0.43129119000539473, 0.5312911900053947), (0.7656896622782646, 0.8656896622782646)],
        [(4, 5), (4, 6), (3, 5), (5, 6), (1, 3), (4, 6), (0, 4), (2, 4)]),
}


@pytest.mark.parametrize("args", list(PINNED_SCENARIOS))
def test_make_scenario_stores_each_pair_ascending(args):
    """The pinned draws come back unchanged, with each user's pair, in its
    cluster_indices and its intervals alike, in ascending position."""
    clusters, users = make_scenario(*args)
    pinned_clusters, pinned_pairs = PINNED_SCENARIOS[args]
    assert clusters == pinned_clusters
    assert [u.cluster_indices for u in users] == pinned_pairs
    for u in users:
        i, j = u.cluster_indices
        assert [iv[:2] for iv in u.asf.intervals] == [clusters[i], clusters[j]]


def test_users_of_one_cluster_pair_share_one_asf():
    """Users 1 and 4 of the first pinned scenario picked clusters 1 and 2
    in opposite orders (the picks below replay its stream); they get one
    ASF and bit-identical covariance columns on both bands."""
    rng = rng_stream(1, 0, 0)
    rng.dirichlet(np.ones(4))
    picks = [tuple(rng.choice(3, size=2, replace=False).tolist()) for _ in range(8)]
    assert picks[1] == (1, 2) and picks[4] == (2, 1)
    _, users = make_scenario(3, 0.2, 8, 1, 0, 0)
    assert users[1].asf == users[4].asf
    for alpha in (1.0, DEFAULT_ALPHA):
        np.testing.assert_array_equal(true_covariance(users[1].asf, 64, alpha),
                                      true_covariance(users[4].asf, 64, alpha))


def test_make_scenario_full_coverage_identity():
    # Two width-1 clusters tile [-1,1]; every two-cluster user sees C = I.
    _, users = make_scenario(2, 1.0, 2, 11, 0)
    for u in users:
        np.testing.assert_allclose(toeplitz_from_column(true_covariance(u.asf, 8, 1.0)),
                                   np.eye(8), atol=1e-9)


def test_make_scenario_sparsity_scale():
    # Width-0.2 two-cluster users at M=128 occupy roughly 0.2*M = 26 beams.
    _, users = make_scenario(3, 0.2, 4, 13, 0)
    for u in users:
        lam = np.sort(circulant_eigenvalues(true_covariance(u.asf, 128, 1.0)))[::-1]
        cum = np.cumsum(lam) / lam.sum()
        s95 = int(np.searchsorted(cum, 0.95) + 1)  # beams holding 95% energy
        assert 22 <= s95 <= 30


def test_make_scenario_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        make_scenario(1, 0.2, 3, 1)
    with pytest.raises(InvalidArgumentError):
        make_scenario(3, 0.8, 3, 1)


def test_user_geometry_distinct_clusters():
    asf = AngularScatteringFunction(intervals=[(-0.1, 0.1, 1.0)])
    with pytest.raises(InvalidArgumentError):
        UserGeometry(cluster_indices=(1, 1), asf=asf)
