"""Tests for the covariance estimation and extrapolation pipeline."""

import csv
import warnings

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls
from hypothesis import given, settings, strategies as st

from dykstra import project_toeplitz_psd
from fddsim import covariance, evaluation
from snapshots import bartlett_covariance, dft_matrix, sample_covariance
from fddsim.channel import DEFAULT_ALPHA, AngularScatteringFunction, true_covariance
from fddsim.config import ExperimentConfig
from fddsim.covariance import (asf_grid, circulant_eigenvalues, estimate_asf,
                               export_covariance_csv, export_spectrum_csv,
                               extrapolate_dl, nnls, steering)
from fddsim.errors import InvalidArgumentError
from fddsim.evaluation import estimate_user_pipeline, trial_scenario, ul_source
from fddsim.numerics import gaussian_complex, rng_stream, toeplitz_from_column
from fddsim.validate import suite_projection

TWO_CLUSTER = AngularScatteringFunction(
    intervals=[(-0.55, -0.35, 2.5), (0.25, 0.45, 2.5)], normalized=True)


def _ul_response(m, g):
    """a_ul(xi_i) / sqrt(M) on ``asf_grid(g)``, written out: the reference
    for the cached ``steering`` table."""
    return np.exp(1j * np.pi * np.outer(np.arange(m), asf_grid(g))) / np.sqrt(m)


# ------------------------------------ sample covariance (test-side reference)

def test_sample_covariance_single_snapshot():
    y = np.array([[1.0 + 1j], [2.0]])
    expected = y @ y.conj().T - 0.5 * np.eye(2)
    np.testing.assert_allclose(sample_covariance(y, 0.5), expected, atol=1e-14)


def test_sample_covariance_identity_monte_carlo():
    y = gaussian_complex(6 * 10**4, 31).reshape(6, 10**4)
    c = sample_covariance(y, 0.0)
    assert np.linalg.norm(c - np.eye(6)) / np.linalg.norm(np.eye(6)) < 0.05


def test_sample_covariance_indefinite_accepted():
    y = gaussian_complex(8, 32).reshape(4, 2)
    c = sample_covariance(y, 100.0)
    assert np.linalg.eigvalsh(c)[0] < 0  # indefinite is fine here


def test_sample_covariance_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        sample_covariance(np.zeros((3, 0)), 0.0)
    with pytest.raises(InvalidArgumentError):
        sample_covariance(np.zeros((3, 2)), -1.0)


# -------------------------------------------------------- Toeplitz-PSD project

def test_project_fixed_point():
    col = true_covariance(TWO_CLUSTER, 6, 1.0)
    out = project_toeplitz_psd(toeplitz_from_column(col))
    np.testing.assert_allclose(out, col, atol=1e-9)


def test_project_2x2_against_grid_oracle():
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    out = toeplitz_from_column(project_toeplitz_psd(a))
    # Oracle: 2x2 Hermitian Toeplitz PSD is [[c0, conj(c1)], [c1, c0]] with
    # c0 >= |c1|; minimize distance by grid search then local refinement.
    best, best_d = None, np.inf
    for c0 in np.linspace(0.0, 2.0, 401):
        for c1 in np.linspace(-1.0, 1.0, 401):
            if c0 < abs(c1):
                continue
            t = np.array([[c0, c1], [c1, c0]])
            d = np.linalg.norm(a - t)
            if d < best_d:
                best, best_d = t, d
    assert np.linalg.norm(a - out) <= best_d + 1e-3
    np.testing.assert_allclose(out, best, atol=1e-2)


def test_project_output_in_cone():
    rng = rng_stream(33, 0)
    g = gaussian_complex(64, rng).reshape(8, 8)
    a = 0.5 * (g + g.conj().T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = project_toeplitz_psd(a)
    assert out.shape == (8,)
    # PSD up to the Dykstra stopping tolerance (1e-8 relative to ||A||).
    assert np.linalg.eigvalsh(toeplitz_from_column(out))[0] >= -1e-7 * np.linalg.norm(a)


def test_project_variational_characterization():
    """<A - P(A), X - P(A)> <= 0 for any cone member X."""
    rng = rng_stream(34, 0)
    g = gaussian_complex(36, rng).reshape(6, 6)
    a = 0.5 * (g + g.conj().T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        p = toeplitz_from_column(project_toeplitz_psd(a))
    for _ in range(200):
        xi = rng.uniform(-1, 1, size=4)
        w = rng.random(4) * 2.0
        col = (np.exp(1j * np.pi * np.outer(np.arange(6), xi)) @ w.astype(complex))
        x = toeplitz_from_column(col)
        inner = np.real(np.trace((a - p).conj().T @ (x - p)))
        assert inner <= 1e-6 * max(np.linalg.norm(a - p) * np.linalg.norm(x - p), 1.0)


# --------------------------------------------------------------- ASF estimation

def test_estimate_asf_point_source_at_zero():
    c_ul = np.ones(16, dtype=complex)  # point source at xi = 0
    z = estimate_asf(c_ul)
    # the grid is 2M points: the real design, 2M - 1 rows by 2M
    # columns, is then close to square (see estimate_asf)
    assert z.shape == (2 * 16,)
    center = np.argmin(np.abs(asf_grid(z.size)))
    total = z.sum()
    window = z[max(0, center - 2):center + 3].sum()
    assert window >= 0.9 * total > 0


def test_estimate_asf_uniform_residual():
    c_ul = np.zeros(12, dtype=complex)
    c_ul[0] = 1.0
    z = estimate_asf(c_ul)
    fit = extrapolate_dl(z, 12, 1.0)
    assert np.linalg.norm(fit - c_ul) <= 1e-6


def test_estimate_asf_residual_decreases_with_grid():
    c_ul = true_covariance(TWO_CLUSTER, 16, 1.0)
    residuals = []
    for z in (estimate_asf(c_ul), nnls(*covariance._asf_problem(c_ul, 4 * 16)),
              nnls(*covariance._asf_problem(c_ul, 8 * 16))):
        fit = extrapolate_dl(z, 16, 1.0)
        residuals.append(np.linalg.norm(fit - c_ul))
    assert residuals[0] >= residuals[1] - 1e-12
    assert residuals[1] >= residuals[2] - 1e-12


def test_asf_grid_shape():
    xi = asf_grid(8)
    assert xi.shape == (8,) and xi[0] == -1.0 and xi[-1] < 1.0
    np.testing.assert_allclose(np.diff(xi), 0.25, atol=1e-15)


@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("seed", range(1, 6))
def test_fused_estimator_matches_dykstra_path(m, seed, monkeypatch):
    """The pipeline's weighted NNLS on its UL draw, the Toeplitz average of
    the sample covariance, gives the DL beam spectrum of the Dykstra
    projection of that draw's explicit sample covariance (tests/snapshots.py)
    followed by the same NNLS, within 5e-3 relative L1 (observed at most
    1.0e-3 on the default 2M grid, 2.7e-4 on a 4M one)."""
    cfg = ExperimentConfig(m=m, k=1, t=32, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=seed, n_ul=500)
    ul = ul_source(cfg, trial_scenario(cfg, 0)[0].asf)
    _, _, fused = estimate_user_pipeline(cfg, ul, 0, 0)
    projected = []
    monkeypatch.setattr(evaluation, "sample_pilot_covariance",
                        lambda *args: projected.append(args) or project_toeplitz_psd(
                            bartlett_covariance(*args)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no Dykstra cap hit
        _, _, ref = estimate_user_pipeline(cfg, ul, 0, 0)
    assert len(projected) == 1  # the reference path did run Dykstra
    assert np.abs(fused - ref).sum() <= 5e-3 * np.abs(ref).sum()


@pytest.mark.parametrize("seed", [1, 8])
def test_nnls_kkt_on_pipeline_inputs(seed, monkeypatch):
    """The angular fit of every user of trial 0 (M=64, n_ul=500) meets the
    NNLS optimality conditions on the Toeplitz average it is given: with
    the gradient w = A^T (b - A z) of estimate_asf's weighted system,
    z >= 0, w <= tau where z = 0 and |w| <= tau where z > 0, for
    tau = 1e-12 ||A|| ||b|| (observed on the default 2M grid:
    |w| <= 3e-16 ||A|| ||b|| on the support, w < 0 off it)."""
    cfg = ExperimentConfig(m=64, k=8, t=64, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=seed, n_ul=500)
    fitted = []

    def fit(c_ul):
        z = estimate_asf(c_ul)
        fitted.append((c_ul, z))
        return z

    monkeypatch.setattr(evaluation, "estimate_asf", fit)
    for k, user in enumerate(trial_scenario(cfg, 0)):
        estimate_user_pipeline(cfg, ul_source(cfg, user.asf), 0, k)
    assert len(fitted) == cfg.k
    a, row_w = covariance._asf_system(cfg.m, 2 * cfg.m)
    norm_a = np.linalg.norm(a, 2)
    for c_ul, z in fitted:
        b = np.concatenate([c_ul.real, c_ul.imag[1:]]) * row_w
        w = a.T @ (b - a @ z)
        tau = 1e-12 * norm_a * np.linalg.norm(b)
        assert np.all(z >= 0)
        assert np.all(w[z == 0] <= tau)
        assert np.all(np.abs(w[z > 0]) <= tau)


def _count_scipy_nnls(monkeypatch):
    """Route covariance's SciPy NNLS through a call log."""
    calls = []

    def logged(*args, **kwargs):
        calls.append(args)
        return scipy_nnls(*args, **kwargs)

    monkeypatch.setattr(covariance, "_scipy_nnls", logged)
    return calls


@pytest.mark.parametrize("n_clusters, width", [(3, 0.2), (8, 0.1)])
@pytest.mark.parametrize("m, k", [(16, 8), (64, 8), (256, 3), (512, 2)])
def test_gram_fit_matches_scipy_on_pipeline_inputs(m, k, n_clusters, width, monkeypatch):
    """On the users of trial 0 (seed 1) the fit comes from the
    circulant-Gram active set, with no SciPy call, and equals SciPy's NNLS
    on the same system within 1e-12 max z (observed at most 4.3e-14 at
    M=256 and 9.2e-14 at M=512, over trials 0-4 at M=16 and 64, trial 0
    at M=256, K=32 and trial 0 at M=512, K=4)."""
    cfg = ExperimentConfig(m=m, k=k, t=m, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=1, n_ul=500, n_clusters=n_clusters,
                           cluster_width=width)
    inputs = _pipeline_inputs(cfg, monkeypatch)
    assert len(inputs) == k
    calls = _count_scipy_nnls(monkeypatch)
    for c_ul in inputs:
        a, b = covariance._asf_problem(c_ul, 2 * m)
        ref = scipy_nnls(a, b, maxiter=10 * a.shape[1])[0]
        assert np.abs(estimate_asf(c_ul) - ref).max() <= 1e-12 * ref.max()
    assert calls == []


@pytest.mark.parametrize("m", [1, 2, 3, 16, 64, 256])
def test_asf_gram_is_the_fejer_kernel(m):
    """The block solve of ``_gram_fit`` rests on this: with the Frobenius
    row weights on the 2M grid, h = A^T A e_0 is the Fejer kernel
    sin^2(pi k / 2) / (M sin^2(pi k / 2M)), so h[0] = M, h vanishes at
    every even lag k != 0 and H_SS is M I within each grid parity."""
    a, _ = covariance._asf_system(m, 2 * m)
    h = a.T @ a[:, 0]
    assert h[0] == pytest.approx(m, rel=1e-12)
    assert np.abs(h[2::2]).max(initial=0.0) <= 1e-13 * m
    k = np.arange(1, 2 * m, 2)
    # within 1e-12 of h[0]: h carries the rounding of its M-term sums, up to
    # 2.6e-14 M at M=256, which is 8e-11 of the smallest odd-lag entry
    np.testing.assert_allclose(h[1::2], 1.0 / (m * np.sin(np.pi * k / (2 * m)) ** 2),
                               rtol=0.0, atol=1e-12 * m)


def test_gram_fit_decides_an_even_measure(monkeypatch):
    """A measure z0 on even grid points only, with zeros at both parities,
    is the unique optimum for b = A z0 - y with A^T y = v >= 0, v = 0 on
    the support of z0 and v > 0 off it. The active set finds it, its last
    support empty at the odd parity, with no SciPy call. (For b = A z0
    alone every odd gradient is 0, and rounding decides whether the fit
    ends with 1e-15 weights at every odd point, which the parity test
    leaves to SciPy.)"""
    m = 16
    z0 = np.zeros(2 * m)
    z0[[0, 4, 6, 12, 14, 16, 22, 26, 30]] = np.random.default_rng(5).uniform(0.5, 2.0, 9)
    v = np.where(z0 > 0.0, 0.0, 1.0)
    v[1::2] = 7 / 16  # v is orthogonal to the null vector (-1)^i
    a, row_w = covariance._asf_system(m, 2 * m)
    b = (a @ z0 - np.linalg.pinv(a).T @ v) / row_w
    c_ul = b[:m] + 1j * np.concatenate([[0.0], b[m:]])
    calls = _count_scipy_nnls(monkeypatch)
    z = estimate_asf(c_ul)
    assert np.abs(z - z0).max() <= 1e-12 * z0.max() and not z[1::2].any()
    assert calls == []


def test_gram_fit_leaves_a_non_fejer_gram_to_scipy(monkeypatch):
    """Random positive weights per offset keep A^T A circulant but not zero
    at even lags, so H_SS has no M I blocks: the active set declines before
    its first solve, and the fit is SciPy's NNLS bit for bit, from one
    call."""
    weight = np.random.default_rng(3).uniform(0.5, 2.0, 16)

    def reweighted(m, g):
        gm = steering(m, g, 1.0) / np.sqrt(m)
        row_w = np.sqrt(np.concatenate([weight, weight[1:]]))
        return np.vstack([gm.real, gm.imag[1:]]) * row_w[:, None], row_w

    monkeypatch.setattr(covariance, "_asf_system", reweighted)
    c_ul = true_covariance(TWO_CLUSTER, 16, 1.0)
    a, b = covariance._asf_problem(c_ul, 32)
    h = a.T @ a[:, 0]
    assert np.abs(h[2::2]).max() > 1e-12 * h[0]
    ref = scipy_nnls(a, b, maxiter=10 * a.shape[1])[0]
    calls = _count_scipy_nnls(monkeypatch)
    np.testing.assert_array_equal(estimate_asf(c_ul), ref)
    assert len(calls) == 1
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
    assert covariance._gram_fit(a, b) is None and solves == []


def _odd_measure_column():
    """UL column of a measure on the odd grid points of G = 2M = 8: its
    optimum z + t(-1)^i, 0 <= t <= 0.05, is not unique."""
    z = np.zeros(8)
    z[1::2] = [1.0, 1.0, 1.0, 0.05]
    return extrapolate_dl(z, 4, 1.0)


@pytest.mark.parametrize("c_ul", [
    np.eye(12, 1, dtype=complex)[:, 0],  # white: full support
    np.ones(1, dtype=complex),           # M = 1: singular Gram
    _odd_measure_column(),               # zeros at one parity only
], ids=["white", "m1", "one-parity"])
def test_gram_fit_leaves_to_scipy(c_ul, monkeypatch):
    """Where the active set cannot decide, the fit is SciPy's NNLS bit for
    bit, from one call."""
    a, b = covariance._asf_problem(c_ul, 2 * c_ul.size)
    ref = scipy_nnls(a, b, maxiter=10 * a.shape[1])[0]
    calls = _count_scipy_nnls(monkeypatch)
    np.testing.assert_array_equal(estimate_asf(c_ul), ref)
    assert len(calls) == 1


def _full_design(m, g):
    """The weighted real system on all 2M rows Re c_d, Im c_d, with the
    row Im c_0 that estimate_asf drops."""
    gm = _ul_response(m, g)
    n_d = 2.0 * (m - np.arange(m))
    n_d[0] = m
    row_w = np.tile(np.sqrt(n_d), 2)
    return np.vstack([gm.real, gm.imag]) * row_w[:, None], row_w


@pytest.mark.parametrize("m", [8, 64])
def test_asf_system_has_no_zero_row(m):
    """The design has the 2M - 1 rows Re c_0..c_{M-1}, Im c_1..c_{M-1}:
    the one row that is zero in the full stack, Im c_0, is gone."""
    g = 2 * m
    a, row_w = covariance._asf_system(m, g)
    assert a.shape == (2 * m - 1, g) and row_w.shape == (2 * m - 1,)
    assert np.all(np.abs(a).max(axis=1) > 0)
    full, _ = _full_design(m, g)
    assert not np.any(full[m])  # Im c_0: sin(0) = 0 on every grid point


def _pipeline_inputs(cfg, monkeypatch):
    """The UL columns estimate_user_pipeline fits for the users of trial 0."""
    seen = []
    monkeypatch.setattr(evaluation, "estimate_asf",
                        lambda c_ul: seen.append(c_ul) or estimate_asf(c_ul))
    for k, user in enumerate(trial_scenario(cfg, 0)):
        estimate_user_pipeline(cfg, ul_source(cfg, user.asf), 0, k)
    return seen


@pytest.mark.parametrize("m, k", [(64, 8), (128, 2)])
def test_row_drop_matches_full_design(m, k, monkeypatch):
    """On the users of trial 0 (seed 1; at M=64 the acceptance config's 8),
    the fit on 2M - 1 rows is SciPy's NNLS on all 2M rows within
    1e-8 max z, and it meets the KKT conditions of the 2M-row objective
    at tau = 1e-12 ||A|| ||b||."""
    cfg = ExperimentConfig(m=m, k=k, t=m, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=1, n_ul=500)
    a, row_w = _full_design(m, 2 * m)
    norm_a = np.linalg.norm(a, 2)
    inputs = _pipeline_inputs(cfg, monkeypatch)
    assert len(inputs) == k
    for c_ul in inputs:
        b = np.concatenate([c_ul.real, c_ul.imag]) * row_w
        z = estimate_asf(c_ul)
        z_full = scipy_nnls(a, b, maxiter=10 * a.shape[1])[0]
        assert np.abs(z - z_full).max() <= 1e-8 * z_full.max()
        w = a.T @ (b - a @ z)
        tau = 1e-12 * norm_a * np.linalg.norm(b)
        assert np.all(z >= 0)
        assert np.all(w[z == 0] <= tau)
        assert np.all(np.abs(w[z > 0]) <= tau)


@pytest.mark.parametrize("m, n_clusters, width", [(64, 3, 0.2), (64, 8, 0.1),
                                                   (256, 3, 0.2), (256, 8, 0.1)])
def test_default_grid_dl_spectrum_tolerance(m, n_clusters, width, monkeypatch):
    """The DL beam spectrum of the 2M-grid fit (estimate_asf) stays within a
    stated relative L1 of (a) the true DL spectrum, when fitted to the exact
    UL covariance, bound 2.5e-2, and (b) the 4M-grid fit of the same
    n_ul=500 Wishart draw, bound 5e-2, below the draw's own sampling error
    (median L1 gap to the true spectrum about 4%). Users of trial 0,
    seed 1, K=8. Observed maxima here, (a) / (b): M=64 3cl 1.2% / 1.6%,
    8cl 1.8% / 1.7%; M=256 3cl 0.3% / 3.6%, 8cl 0.7% / 1.7%. Over more
    users (M=64 trials 0-9; M=256 trials 0-1, K=32) they are at most
    1.2% / 1.9% and 1.8% / 2.6% at M=64, 0.3% / 3.9% and 0.7% / 2.5% at
    M=256. The 4M grid fits the exact covariance to 0.03% at M=64 and to
    1.2% at M=256 3cl."""
    cfg = ExperimentConfig(m=m, k=8, t=m, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=1, n_ul=500, n_clusters=n_clusters,
                           cluster_width=width)

    def spectrum(z):
        return circulant_eigenvalues(extrapolate_dl(z, m, cfg.alpha))

    def l1(x, ref):
        return np.abs(x - ref).sum() / ref.sum()

    for user in trial_scenario(cfg, 0):
        true = circulant_eigenvalues(true_covariance(user.asf, m, cfg.alpha))
        assert l1(spectrum(estimate_asf(true_covariance(user.asf, m, 1.0))), true) <= 2.5e-2
    inputs = _pipeline_inputs(cfg, monkeypatch)
    assert len(inputs) == cfg.k
    for c_ul in inputs:
        fine = spectrum(nnls(*covariance._asf_problem(c_ul, 4 * m)))
        assert l1(spectrum(estimate_asf(c_ul)), fine) <= 5e-2


def test_estimate_asf_ignores_imag_c0():
    """Im c_0 is outside every grid measure's covariance (c_0 is the real
    total power), so the fit does not read it: bit-identical weights."""
    c_ul = true_covariance(TWO_CLUSTER, 16, 1.0)
    e0 = np.zeros(16)
    e0[0] = 1.0
    np.testing.assert_array_equal(estimate_asf(c_ul + 1j * e0), estimate_asf(c_ul))


def test_projection_suite_catches_unweighted_fit(monkeypatch):
    """The projection suite checks the estimator itself: with unit row
    weights, i.e. the unweighted column fit, it fails."""
    def unweighted(m, g):
        gm = steering(m, g, 1.0) / np.sqrt(m)
        return np.vstack([gm.real, gm.imag[1:]]), np.ones(2 * m - 1)
    monkeypatch.setattr(covariance, "_asf_system", unweighted)
    assert suite_projection().passed is False


def _uncached_estimate(c_ul, alpha, g):
    """estimate_asf and extrapolate_dl with their fixed matrices rebuilt."""
    m = c_ul.size
    gm = _ul_response(m, g)
    n_d = 2.0 * (m - np.arange(m))
    n_d[0] = m
    row_w = np.sqrt(np.concatenate([n_d, n_d[1:]]))
    z = nnls(np.vstack([gm.real, gm.imag[1:]]) * row_w[:, None],
             np.concatenate([c_ul.real, c_ul.imag[1:]]) * row_w)
    exps = np.exp(1j * np.pi * alpha * np.outer(np.arange(m), asf_grid(g)))
    return z, exps @ (z / np.sqrt(m)).astype(complex)


def test_cached_estimator_matches_uncached_across_sizes():
    """Alternating array sizes and grids hit and miss the caches; every
    result equals a from-scratch computation bit for bit."""
    cases = [(8, 1.1, 32), (12, 1.1, 48), (8, 1.3, 24), (12, 1.1, 48)]
    for _ in range(3):
        for m, alpha, g in cases:
            c_ul = true_covariance(TWO_CLUSTER, m, 1.0)
            z_ref, c_dl = _uncached_estimate(c_ul, alpha, g)
            z = nnls(*covariance._asf_problem(c_ul, g))
            np.testing.assert_array_equal(z, z_ref)
            np.testing.assert_array_equal(extrapolate_dl(z, m, alpha), c_dl)


def test_cached_estimator_matrices_are_read_only():
    extrapolate_dl(estimate_asf(np.ones(8, dtype=complex)), 8, DEFAULT_ALPHA)
    a, row_w = covariance._asf_system(8, 32)
    ul, dl = steering(8, 32, 1.0), steering(8, 32, DEFAULT_ALPHA)
    for arr in (a, row_w, ul, dl):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert covariance._asf_system(8, 32)[0] is a
    assert steering(8, 32, 1.0) is ul and steering(8, 32, DEFAULT_ALPHA) is dl
    np.testing.assert_array_equal(ul / np.sqrt(8), _ul_response(8, 32))
    np.testing.assert_array_equal(
        dl, np.exp(1j * np.pi * DEFAULT_ALPHA * np.outer(np.arange(8), asf_grid(32))))


# ----------------------------------------------------------------- extrapolation

def test_extrapolate_alpha_one_reproduces_fit():
    z = estimate_asf(true_covariance(TWO_CLUSTER, 24, 1.0))
    fit = _ul_response(24, z.size) @ z
    np.testing.assert_allclose(extrapolate_dl(z, 24, 1.0), fit, atol=1e-10)


@pytest.mark.parametrize("alpha", [1.0, DEFAULT_ALPHA])
@pytest.mark.parametrize("m, g", [(8, 32), (16, 64), (64, 256)])
def test_steering_matches_channel_model(m, g, alpha):
    """The table's covariance column of a grid measure z / sqrt(M) is the
    channel model's exact covariance of the same point masses, on the UL
    (alpha = 1) and the DL band alike."""
    rng = rng_stream(35, m)
    for n_atoms in (1, 3, g):
        z = np.zeros(g)
        z[rng.choice(g, size=n_atoms, replace=False)] = rng.random(n_atoms) + 0.1
        measure = AngularScatteringFunction(
            point_masses=list(zip(asf_grid(g), z / np.sqrt(m))))
        exact = true_covariance(measure, m, alpha)
        np.testing.assert_allclose(extrapolate_dl(z, m, alpha), exact,
                                   rtol=0, atol=1e-12 * np.abs(exact).max())


def test_extrapolate_point_mass_at_zero():
    c_ul = np.ones(8, dtype=complex)
    vals = extrapolate_dl(estimate_asf(c_ul), 8, 1.2)
    assert np.all(vals.real > 0.5)
    assert np.max(np.abs(vals - vals[0])) < 0.05  # zero-phase resampling


def test_extrapolate_two_cluster_accuracy():
    c_ul = true_covariance(TWO_CLUSTER, 64, 1.0)
    c_dl = toeplitz_from_column(true_covariance(TWO_CLUSTER, 64, 1.1))
    z = nnls(*covariance._asf_problem(c_ul, 8 * 64))
    out = toeplitz_from_column(extrapolate_dl(z, 64, 1.1))
    assert np.linalg.norm(out - c_dl) / np.linalg.norm(c_dl) <= 0.05


def test_extrapolate_rejects_negative_weight():
    z = estimate_asf(np.ones(8, dtype=complex))
    z[3] = -1e-9
    with pytest.raises(InvalidArgumentError):
        extrapolate_dl(z, 8, 1.1)


def test_estimator_path_does_no_eigendecomposition(monkeypatch):
    """With the true UL covariance the estimator path is NNLS, resampling
    and FFT only: the DL covariance is PSD because the measure is."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigendecomposition on the estimator path")

    cfg = ExperimentConfig(m=16, k=1, t=32, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=1, exact_covariance=True)
    users = trial_scenario(cfg, 0)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    _, c_dl, lam = estimate_user_pipeline(cfg, ul_source(cfg, users[0].asf), 0, 0)
    assert c_dl.shape == (16,) and np.all(lam >= 0.0) and lam.sum() > 0.0


def test_extrapolate_output_psd():
    out = extrapolate_dl(estimate_asf(true_covariance(TWO_CLUSTER, 16, 1.0)), 16, 1.15)
    assert np.linalg.eigvalsh(toeplitz_from_column(out))[0] >= -1e-10


# ------------------------------------------------------- estimator properties
# Random atomic UL measures (unit total mass), optionally with a Hermitian
# perturbation of the Toeplitz column, M in [2, 32] and alpha in [1, 1.2].

def _atomic_ul_case(data):
    m = data.draw(st.integers(2, 32), label="m")
    n_atoms = data.draw(st.integers(1, 4), label="atoms")
    xi = np.array(data.draw(st.lists(st.floats(-1.0, 0.999), min_size=n_atoms,
                                     max_size=n_atoms), label="xi"))
    mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_atoms,
                                       max_size=n_atoms), label="mass"))
    c_ul = np.exp(1j * np.pi * np.outer(np.arange(m), xi)) @ (mass / mass.sum())
    noise = data.draw(st.sampled_from([0.0, 0.01, 0.1]), label="noise")
    if noise:
        c_ul = c_ul + noise * gaussian_complex(m, data.draw(st.integers(0, 999), label="seed"))
        c_ul[0] = c_ul[0].real
    alpha = data.draw(st.floats(1.0, 1.2), label="alpha")
    return m, alpha, c_ul


PROPERTY = settings(max_examples=75, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(data=st.data())
def test_extrapolate_psd_property(data):
    m, alpha, c_ul = _atomic_ul_case(data)
    out = extrapolate_dl(estimate_asf(c_ul), m, alpha)
    assert np.linalg.eigvalsh(toeplitz_from_column(out))[0] >= -1e-12 * m * out[0].real


@PROPERTY
@given(data=st.data())
def test_spectrum_nonnegative_and_sums_to_trace_property(data):
    m, alpha, c_ul = _atomic_ul_case(data)
    out = extrapolate_dl(estimate_asf(c_ul), m, alpha)
    lam = circulant_eigenvalues(out)
    trace = m * out[0].real
    assert np.all(lam >= 0.0)
    assert abs(lam.sum() - trace) <= 1e-12 * trace


@PROPERTY
@given(data=st.data())
def test_extrapolate_alpha_one_returns_fit_property(data):
    m, _, c_ul = _atomic_ul_case(data)
    z = estimate_asf(c_ul)
    fit = _ul_response(m, z.size) @ z
    np.testing.assert_allclose(extrapolate_dl(z, m, 1.0), fit, rtol=0, atol=1e-12)


@PROPERTY
@given(data=st.data(), log_s=st.floats(-3.0, 3.0))
def test_estimate_asf_scale_equivariant_property(data, log_s):
    _, _, c_ul = _atomic_ul_case(data)
    s = 10.0 ** log_s
    w = estimate_asf(c_ul)
    w_s = estimate_asf(s * c_ul)
    assert np.abs(w_s - s * w).max() <= 1e-10 * s * w.max()


# ----------------------------------------------------------- beam-space spectrum

def test_circulant_eigenvalues_identity():
    np.testing.assert_allclose(circulant_eigenvalues(np.eye(6)[:, 0]), np.ones(6),
                               atol=1e-12)


def test_circulant_eigenvalues_recover_circulant():
    m = 8
    f = dft_matrix(m)
    lam = np.arange(1.0, m + 1.0)
    c = (f * lam) @ f.conj().T
    np.testing.assert_allclose(circulant_eigenvalues(c[:, 0]), lam, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 7, 10, 64, 256])
def test_circulant_eigenvalues_match_direct_diagonal(m):
    col = true_covariance(TWO_CLUSTER, m, 1.0)
    f = dft_matrix(m)
    direct = np.maximum(np.real(np.diag(f.conj().T @ toeplitz_from_column(col) @ f)), 0.0)
    atol = 1e-12 if m == 10 else 1e-12 * direct.max()
    np.testing.assert_allclose(circulant_eigenvalues(col), direct, atol=atol)


# ------------------------------------------------------------------ CSV exports

def test_export_covariance_csv_roundtrip(tmp_path):
    col = true_covariance(TWO_CLUSTER, 5, 1.0)
    path = tmp_path / "c.csv"
    export_covariance_csv(col, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    back = np.array([float(r["real"]) + 1j * float(r["imag"]) for r in rows])
    np.testing.assert_allclose(back, col, rtol=1e-10)


def test_export_spectrum_csv_roundtrip(tmp_path):
    lam = np.array([0.5, 1.25, 0.0])
    path = tmp_path / "s.csv"
    export_spectrum_csv(lam, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    np.testing.assert_allclose([float(r["lambda"]) for r in rows], lam)


# Exact bytes of both exports: header, CRLF terminators (as the csv module
# writes them) and %.12g numbers, with a negative value, a zero and a
# negative-zero imaginary part, and values that need exponent notation.
GOLDEN_COVARIANCE_CSV = (b"index,real,imag\r\n"
                         b"0,1.5,-2\r\n"
                         b"1,-0.25,0\r\n"
                         b"2,1.23456789012e-07,3e+20\r\n"
                         b"3,2,-0\r\n")
GOLDEN_SPECTRUM_CSV = (b"index,lambda\r\n"
                       b"0,0.5\r\n"
                       b"1,1e-13\r\n"
                       b"2,1.23456789012e+14\r\n"
                       b"3,0\r\n")


def test_export_csv_golden_bytes(tmp_path):
    col = np.array([1.5 - 2j, -0.25 + 0j, 1.23456789012345e-7 + 3e20j, complex(2.0, -0.0)])
    export_covariance_csv(col, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == GOLDEN_COVARIANCE_CSV
    export_spectrum_csv(np.array([0.5, 1e-13, 123456789012345.0, 0.0]), tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == GOLDEN_SPECTRUM_CSV
