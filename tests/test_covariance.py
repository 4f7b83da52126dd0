"""Tests for the covariance estimation and extrapolation pipeline."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fddsim import evaluation
from fddsim.channel import AngularScatteringFunction, ArrayConfig, true_covariance
from fddsim.config import ExperimentConfig
from fddsim.covariance import (ToeplitzCovariance, asf_grid,
                               circulant_eigenvalues, estimate_asf,
                               export_covariance_csv, export_spectrum_csv,
                               extrapolate_dl, grid_matrix,
                               project_toeplitz_psd, sample_covariance)
from fddsim.errors import InvalidArgumentError
from fddsim.evaluation import estimate_user_pipeline, trial_scenario
from fddsim.numerics import (dft_matrix, gaussian_complex, rng_stream,
                             toeplitz_from_column)

TWO_CLUSTER = AngularScatteringFunction(
    intervals=[(-0.55, -0.35, 2.5), (0.25, 0.45, 2.5)], normalized=True)


# ------------------------------------------------------------ sample covariance

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
    cov = true_covariance(ArrayConfig(m=6), TWO_CLUSTER, "ul")
    out = project_toeplitz_psd(cov.matrix())
    np.testing.assert_allclose(out.first_column, cov.first_column, atol=1e-9)


def test_project_2x2_against_grid_oracle():
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    out = project_toeplitz_psd(a).matrix()
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
    mat = out.matrix()
    # PSD up to the Dykstra stopping tolerance (1e-8 relative to ||A||).
    assert np.linalg.eigvalsh(mat)[0] >= -1e-7 * np.linalg.norm(a)
    # Toeplitz structure holds by construction of the returned column.
    np.testing.assert_allclose(mat, toeplitz_from_column(out.first_column))


def test_project_variational_characterization():
    """<A - P(A), X - P(A)> <= 0 for any cone member X."""
    rng = rng_stream(34, 0)
    g = gaussian_complex(36, rng).reshape(6, 6)
    a = 0.5 * (g + g.conj().T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        p = project_toeplitz_psd(a).matrix()
    for _ in range(200):
        xi = rng.uniform(-1, 1, size=4)
        w = rng.random(4) * 2.0
        col = (np.exp(1j * np.pi * np.outer(np.arange(6), xi)) @ w.astype(complex))
        x = toeplitz_from_column(col)
        inner = np.real(np.trace((a - p).conj().T @ (x - p)))
        assert inner <= 1e-6 * max(np.linalg.norm(a - p) * np.linalg.norm(x - p), 1.0)


def test_toeplitz_covariance_invariants():
    with pytest.raises(InvalidArgumentError):
        ToeplitzCovariance(first_column=np.array([-1.0, 0.0]), band="ul")
    with pytest.raises(InvalidArgumentError):
        ToeplitzCovariance(first_column=np.array([1.0]), band="sideways")
    cov = ToeplitzCovariance(first_column=np.array([2.0, 1.0]), band="ul")
    assert cov.m == 2 and abs(cov.trace - 4.0) < 1e-14


# --------------------------------------------------------------- ASF estimation

def test_estimate_asf_point_source_at_zero():
    cfg = ArrayConfig(m=16)
    c_ul = np.ones(16, dtype=complex)  # point source at xi = 0
    est = estimate_asf(c_ul, cfg)
    total = est.measure_weights.sum()
    center = np.argmin(np.abs(est.xi))
    window = est.measure_weights[max(0, center - 2):center + 3].sum()
    assert window >= 0.9 * total > 0


def test_estimate_asf_uniform_residual():
    cfg = ArrayConfig(m=12)
    c_ul = np.zeros(12, dtype=complex)
    c_ul[0] = 1.0
    est = estimate_asf(c_ul, cfg)
    gm = grid_matrix(12, est.xi)
    assert np.linalg.norm(gm @ est.weights - c_ul) <= 1e-6


def test_estimate_asf_grid_too_small():
    cfg = ArrayConfig(m=8)
    with pytest.raises(InvalidArgumentError):
        estimate_asf(np.ones(8, dtype=complex), cfg, grid_size=4)


def test_estimate_asf_residual_decreases_with_grid():
    cfg = ArrayConfig(m=16)
    c_ul = true_covariance(cfg, TWO_CLUSTER, "ul").first_column
    residuals = []
    for factor in (2, 4, 8):
        est = estimate_asf(c_ul, cfg, grid_size=factor * 16)
        gm = grid_matrix(16, est.xi)
        residuals.append(np.linalg.norm(gm @ est.weights - c_ul))
    assert residuals[0] >= residuals[1] - 1e-12
    assert residuals[1] >= residuals[2] - 1e-12


def test_asf_grid_shape():
    xi, theta = asf_grid(8, np.pi / 3)
    assert xi[0] == -1.0 and xi[-1] < 1.0
    np.testing.assert_allclose(np.sin(theta), xi * np.sin(np.pi / 3), atol=1e-14)


@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("seed", range(1, 6))
def test_fused_estimator_matches_dykstra_path(m, seed, monkeypatch):
    """The pipeline's weighted NNLS on the Toeplitz average of the sample
    covariance gives the DL beam spectrum of the Dykstra projection
    followed by the same NNLS, within 5e-3 relative L1 (observed at most
    4.7e-4)."""
    cfg = ExperimentConfig(m=m, k=1, t=32, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=seed, n_ul=500)
    arr, users = trial_scenario(cfg, 0)
    _, _, fused = estimate_user_pipeline(cfg, arr, users[0].asf, 0, 0)
    monkeypatch.setattr(evaluation, "sample_covariance",
                        lambda y, sigma2: project_toeplitz_psd(
                            sample_covariance(y, sigma2)).matrix())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no Dykstra cap hit
        _, _, ref = estimate_user_pipeline(cfg, arr, users[0].asf, 0, 0)
    assert np.abs(fused - ref).sum() <= 5e-3 * np.abs(ref).sum()


# ----------------------------------------------------------------- extrapolation

def test_extrapolate_alpha_one_reproduces_fit():
    cfg = ArrayConfig(m=24, alpha=1.0)
    c_ul = true_covariance(cfg, TWO_CLUSTER, "ul").first_column
    est = estimate_asf(c_ul, cfg)
    gm = grid_matrix(24, est.xi)
    fit = gm @ est.weights
    out = extrapolate_dl(est, cfg)
    np.testing.assert_allclose(out.first_column, fit, atol=1e-10)


def test_extrapolate_point_mass_at_zero():
    cfg = ArrayConfig(m=8, alpha=1.2)
    c_ul = np.ones(8, dtype=complex)
    est = estimate_asf(c_ul, cfg)
    out = extrapolate_dl(est, cfg)
    vals = out.first_column
    assert np.all(vals.real > 0.5)
    assert np.max(np.abs(vals - vals[0])) < 0.05  # zero-phase resampling


def test_extrapolate_two_cluster_accuracy():
    cfg = ArrayConfig(m=64, alpha=1.1)
    c_ul = true_covariance(cfg, TWO_CLUSTER, "ul").first_column
    c_dl = true_covariance(cfg, TWO_CLUSTER, "dl").matrix()
    est = estimate_asf(c_ul, cfg, grid_size=8 * 64)
    out = extrapolate_dl(est, cfg).matrix()
    assert np.linalg.norm(out - c_dl) / np.linalg.norm(c_dl) <= 0.05


def test_extrapolate_rejects_negative_weight():
    est = estimate_asf(np.ones(8, dtype=complex), ArrayConfig(m=8))
    est.weights[3] = -1e-9
    with pytest.raises(InvalidArgumentError):
        extrapolate_dl(est, ArrayConfig(m=8, alpha=1.1))


def test_estimator_path_does_no_eigendecomposition(monkeypatch):
    """With the true UL covariance the estimator path is NNLS, resampling
    and FFT only: the DL covariance is PSD because the measure is."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigendecomposition on the estimator path")

    cfg = ExperimentConfig(m=16, k=1, t=32, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=1, seed=1, exact_covariance=True)
    arr, users = trial_scenario(cfg, 0)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    _, c_dl, lam = estimate_user_pipeline(cfg, arr, users[0].asf, 0, 0)
    assert c_dl.m == 16 and np.all(lam >= 0.0) and lam.sum() > 0.0


def test_extrapolate_output_psd():
    cfg = ArrayConfig(m=16, alpha=1.15)
    c_ul = true_covariance(cfg, TWO_CLUSTER, "ul").first_column
    out = extrapolate_dl(estimate_asf(c_ul, cfg), cfg)
    assert np.linalg.eigvalsh(out.matrix())[0] >= -1e-10


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
    return ArrayConfig(m=m, alpha=alpha), c_ul


PROPERTY = settings(max_examples=75, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(data=st.data())
def test_extrapolate_psd_property(data):
    cfg, c_ul = _atomic_ul_case(data)
    out = extrapolate_dl(estimate_asf(c_ul, cfg), cfg)
    assert np.linalg.eigvalsh(out.matrix())[0] >= -1e-12 * out.trace


@PROPERTY
@given(data=st.data())
def test_spectrum_nonnegative_and_sums_to_trace_property(data):
    cfg, c_ul = _atomic_ul_case(data)
    out = extrapolate_dl(estimate_asf(c_ul, cfg), cfg)
    lam = circulant_eigenvalues(out)
    assert np.all(lam >= 0.0)
    assert abs(lam.sum() - out.trace) <= 1e-12 * out.trace


@PROPERTY
@given(data=st.data())
def test_extrapolate_alpha_one_returns_fit_property(data):
    cfg, c_ul = _atomic_ul_case(data)
    cfg = ArrayConfig(m=cfg.m, alpha=1.0)
    est = estimate_asf(c_ul, cfg)
    fit = grid_matrix(cfg.m, est.xi) @ est.weights
    np.testing.assert_allclose(extrapolate_dl(est, cfg).first_column, fit,
                               rtol=0, atol=1e-12)


@PROPERTY
@given(data=st.data(), log_s=st.floats(-3.0, 3.0))
def test_estimate_asf_scale_equivariant_property(data, log_s):
    cfg, c_ul = _atomic_ul_case(data)
    s = 10.0 ** log_s
    w = estimate_asf(c_ul, cfg).weights
    w_s = estimate_asf(s * c_ul, cfg).weights
    assert np.abs(w_s - s * w).max() <= 1e-10 * s * w.max()


# ----------------------------------------------------------- beam-space spectrum

def test_circulant_eigenvalues_identity():
    cov = ToeplitzCovariance(first_column=np.eye(6)[:, 0].astype(complex), band="ul")
    np.testing.assert_allclose(circulant_eigenvalues(cov), np.ones(6), atol=1e-12)


def test_circulant_eigenvalues_recover_circulant():
    m = 8
    f = dft_matrix(m)
    lam = np.arange(1.0, m + 1.0)
    c = (f * lam) @ f.conj().T
    cov = ToeplitzCovariance(first_column=c[:, 0], band="ul")
    np.testing.assert_allclose(circulant_eigenvalues(cov), lam, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 7, 10, 64, 256])
def test_circulant_eigenvalues_match_direct_diagonal(m):
    cov = true_covariance(ArrayConfig(m=m), TWO_CLUSTER, "ul")
    f = dft_matrix(m)
    direct = np.maximum(np.real(np.diag(f.conj().T @ cov.matrix() @ f)), 0.0)
    atol = 1e-12 if m == 10 else 1e-12 * direct.max()
    np.testing.assert_allclose(circulant_eigenvalues(cov), direct, atol=atol)


# ------------------------------------------------------------------ CSV exports

def test_export_covariance_csv_roundtrip(tmp_path):
    cov = true_covariance(ArrayConfig(m=5), TWO_CLUSTER, "ul")
    path = tmp_path / "c.csv"
    export_covariance_csv(cov, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    back = np.array([float(r["real"]) + 1j * float(r["imag"]) for r in rows])
    np.testing.assert_allclose(back, cov.first_column, rtol=1e-10)


def test_export_spectrum_csv_roundtrip(tmp_path):
    lam = np.array([0.5, 1.25, 0.0])
    path = tmp_path / "s.csv"
    export_spectrum_csv(lam, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    np.testing.assert_allclose([float(r["lambda"]) for r in rows], lam)
