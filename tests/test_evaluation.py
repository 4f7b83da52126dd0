"""Tests for ZF evaluation and the Monte Carlo driver."""

import itertools
import math

import numpy as np
import pytest

from fddsim.config import ExperimentConfig
from fddsim.errors import InvalidArgumentError, NumericalError
from fddsim.evaluation import (CSV_HEADER, ExperimentRecord, effective_gains,
                               greedy_user_selection, normalized_error,
                               run_experiment, run_trial, sum_rate, summarize,
                               write_records_csv, zf_precoder)
from fddsim.numerics import dft_matrix, gaussian_complex, rng_stream
from fddsim.sparsifier import SparsifyingPrecoder


# ---------------------------------------------------------------- zf_precoder

def test_zf_orthonormal_channels():
    h = dft_matrix(6)[:, :3]
    zf = zf_precoder(h, p_dl=3.0)
    np.testing.assert_allclose(zf.v, h, atol=1e-10)
    np.testing.assert_allclose(zf.j, np.ones(3), atol=1e-10)
    np.testing.assert_allclose(zf.p, np.ones(3), atol=1e-12)


def test_zf_single_user_matched_filter():
    h = np.array([[1.0 + 1j], [2.0], [0.5j]])
    zf = zf_precoder(h, p_dl=1.0)
    np.testing.assert_allclose(zf.v[:, 0], h[:, 0] / np.linalg.norm(h), atol=1e-12)
    assert abs(zf.j[0] - np.linalg.norm(h) ** 2) < 1e-10


def test_zf_diagonalizes_estimated_channel():
    h = gaussian_complex(32, 71, 0).reshape(8, 4)
    zf = zf_precoder(h, p_dl=2.0)
    prod = h.conj().T @ zf.v
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) < 1e-8
    np.testing.assert_allclose(np.linalg.norm(zf.v, axis=0), np.ones(4), atol=1e-10)
    assert abs(zf.p.sum() - 2.0) < 1e-10


def test_zf_rank_deficient_raises():
    h = np.ones((4, 2), dtype=complex)
    with pytest.raises(NumericalError):
        zf_precoder(h, p_dl=1.0)
    with pytest.raises(InvalidArgumentError):
        zf_precoder(np.ones((2, 3), dtype=complex), p_dl=1.0)


# ------------------------------------------------------------ effective gains

def test_effective_gains_perfect_csi_interference_free():
    m = 8
    pre = SparsifyingPrecoder(beams=list(range(m)), m=m)
    h_true = gaussian_complex(m * 3, 72, 0).reshape(m, 3)
    h_eff = pre.apply(h_true)
    zf = zf_precoder(h_eff, p_dl=3.0)
    b = effective_gains(h_true, pre, zf)
    off = b - np.diag(np.diag(b))
    assert np.max(np.abs(off)) <= 1e-8 * np.linalg.norm(b)
    np.testing.assert_allclose(np.abs(np.diag(b)), np.sqrt(zf.j * zf.p), atol=1e-8)


def test_effective_gains_zero_channel_row():
    pre = SparsifyingPrecoder(beams=[0, 1, 2], m=4)
    h_eff = gaussian_complex(6, 73, 0).reshape(3, 2)
    zf = zf_precoder(h_eff, p_dl=1.0)
    h_true = np.zeros((4, 2), dtype=complex)
    b = effective_gains(h_true, pre, zf)
    np.testing.assert_array_equal(b, np.zeros((2, 2)))


# ------------------------------------------------------------------- sum rate

def test_sum_rate_zero_when_tdl_equals_t():
    b = np.array([[2.0]], dtype=complex)
    assert sum_rate(b, 10, 10) == 0.0


def test_sum_rate_single_user_closed_form():
    b = np.array([[np.sqrt(3.0)]], dtype=complex)
    assert abs(sum_rate(b, 0, 10) - 2.0) < 1e-12  # log2(1+3) = 2


def test_sum_rate_prefactor_scaling():
    b = gaussian_complex(9, 74, 0).reshape(3, 3)
    r1 = sum_rate(b, 0, 100)
    r2 = sum_rate(b, 50, 100)
    assert abs(r2 - 0.5 * r1) < 1e-12


def test_sum_rate_interference_free_k_users():
    g = 4.0
    b = np.sqrt(g) * np.eye(3, dtype=complex)
    expected = 3 * (1 - 8 / 32) * math.log2(1 + g)
    assert abs(sum_rate(b, 8, 32) - expected) < 1e-12


def test_sum_rate_rejects_tdl_above_t():
    with pytest.raises(InvalidArgumentError):
        sum_rate(np.eye(2, dtype=complex), 33, 32)


# ------------------------------------------------------------ greedy selection

def test_greedy_orthogonal_users_all_selected():
    h = dft_matrix(8)[:, :4]
    sel = greedy_user_selection(h, p_dl=4.0, t_dl=8, t=64)
    assert sorted(sel) == [0, 1, 2, 3]


def test_greedy_duplicate_user_selected_once():
    col = gaussian_complex(6, 75, 0)
    h = np.column_stack([col, col])
    sel = greedy_user_selection(h, p_dl=2.0, t_dl=8, t=64)
    assert len(sel) == 1


def test_greedy_near_optimal_on_random_instances():
    """Greedy lands in the top-3 subsets by estimated ZF rate almost always."""

    def est_rate(h, idx, p_dl, pre):
        try:
            zf = zf_precoder(h[:, idx], p_dl)
        except (NumericalError, InvalidArgumentError):
            return -np.inf
        return pre * float(np.sum(np.log2(1.0 + zf.j * zf.p)))

    rng = rng_stream(76, 0)
    hits = 0
    n_trials = 200
    for _ in range(n_trials):
        h = gaussian_complex(40, rng).reshape(8, 5)
        p_dl, t_dl, t = 10.0, 8, 64
        pre = 1 - t_dl / t
        sel = frozenset(greedy_user_selection(h, p_dl, t_dl, t))
        scored = []
        for r in range(1, 6):
            for combo in itertools.combinations(range(5), r):
                scored.append((est_rate(h, list(combo), p_dl, pre),
                               frozenset(combo)))
        scored.sort(key=lambda s: -s[0])
        if sel in {s for _, s in scored[:3]}:
            hits += 1
    assert hits >= 0.95 * n_trials


# ------------------------------------------------------------ normalized error

def test_normalized_error_basics():
    h = gaussian_complex(12, 77, 0).reshape(4, 3)
    assert normalized_error(h, h) == 0.0
    assert abs(normalized_error(h, np.zeros_like(h)) - 1.0) < 1e-12
    with pytest.raises(InvalidArgumentError):
        normalized_error(np.zeros((2, 2)), np.zeros((2, 2)))


def test_normalized_error_half_support():
    h = np.zeros((4, 1), dtype=complex)
    h[0, 0] = 1.0
    h[1, 0] = 1.0
    h_hat = h.copy()
    h_hat[1, 0] = 0.0  # misses half the energy
    assert abs(normalized_error(h, h_hat) - 0.5) < 1e-12


# ----------------------------------------------------------------- driver runs

SMALL = dict(m=16, k=3, t=32, tdl_list=[4, 8], snr_db_list=[10.0, 20.0],
             n_trials=2, seed=7, n_ul=200)


def test_run_experiment_deterministic_and_sorted():
    cfg = ExperimentConfig(**SMALL)
    r1 = run_experiment(cfg, threads=1)
    r2 = run_experiment(cfg, threads=1)
    assert [rec.csv_row() for rec in r1] == [rec.csv_row() for rec in r2]
    keys = [(rec.trial, rec.tdl, rec.snr_db) for rec in r1]
    assert keys == sorted(keys)
    assert len(r1) == 2 * 2 * 2


def test_run_experiment_thread_invariant():
    cfg = ExperimentConfig(**SMALL)
    r1 = run_experiment(cfg, threads=1)
    r4 = run_experiment(cfg, threads=4)
    assert [rec.csv_row() for rec in r1] == [rec.csv_row() for rec in r4]


def test_run_experiment_zero_trials():
    cfg = ExperimentConfig(**{**SMALL, "n_trials": 0})
    assert run_experiment(cfg) == []


def test_run_trial_record_invariants():
    cfg = ExperimentConfig(**SMALL)
    for rec in run_trial(cfg, 0):
        assert rec.sum_rate_bits >= 0.0
        assert 0 <= rec.served <= cfg.k
        assert rec.served <= max(rec.matching_size, 0) or rec.matching_size == 0


def test_run_experiment_near_perfect_csi():
    """Exact covariance, full pilot budget, high SNR: tiny estimation error."""
    cfg = ExperimentConfig(m=16, k=2, t=32, tdl_list=[16], snr_db_list=[40.0],
                           n_trials=2, seed=11, exact_covariance=True,
                           th_rel=1e-4)
    recs = run_experiment(cfg)
    errs = [r.err_norm for r in recs if np.isfinite(r.err_norm)]
    assert errs and max(errs) < 1e-2


def test_write_records_csv_schema(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    records = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_records_csv(records, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(records) + 1
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        int(parts[0]); int(parts[1]); float(parts[2])
        int(parts[3]); int(parts[4]); float(parts[5]); float(parts[6])


def test_summarize_grid_stats():
    recs = [ExperimentRecord(t, 1, 8, 10.0, 2, 2, 0.1, float(t + 1))
            for t in range(4)]
    out = summarize(recs)["grid"]
    assert len(out) == 1
    row = out[0]
    assert row["tdl"] == 8 and row["n_trials"] == 4
    assert abs(row["sum_rate_mean"] - 2.5) < 1e-12
    expected_se = np.std([1, 2, 3, 4], ddof=1) / 2
    assert abs(row["sum_rate_se"] - expected_se) < 1e-12


# Per-cell (sum_rate_mean, served_mean) of SMALL run for 3 trials. The
# tolerance (1e-6 relative) absorbs BLAS round-off but not an estimator
# change: moving the UL estimator from Dykstra + NNLS to the weighted NNLS
# on the Toeplitz average shifted these means by up to 1.8e-4 relative.
GOLDEN = {
    (4, 10.0): (7.002724655506616, 2.0),
    (4, 20.0): (12.226155898681988, 8.0 / 3.0),
    (8, 10.0): (7.824116308849729, 8.0 / 3.0),
    (8, 20.0): (14.025943546447602, 3.0),
}


def test_summary_golden_cells():
    cfg = ExperimentConfig(**{**SMALL, "n_trials": 3})
    grid = {(row["tdl"], row["snr_db"]): row
            for row in summarize(run_experiment(cfg))["grid"]}
    assert set(grid) == set(GOLDEN)
    for cell, (rate, served) in GOLDEN.items():
        assert grid[cell]["sum_rate_mean"] == pytest.approx(rate, rel=1e-6), cell
        assert grid[cell]["served_mean"] == pytest.approx(served, abs=1e-12), cell
