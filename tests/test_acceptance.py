"""End-to-end acceptance checks for the whole pipeline.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to
see them all; failures also carry the detail in the assertion message).
The Monte Carlo checks share a single 50-trial experiment computed once
per session.
"""

import time

import numpy as np
import pytest

from fddsim.channel import AngularScatteringFunction, true_covariance
from fddsim.cli import main
from fddsim.config import ExperimentConfig
from fddsim.covariance import _asf_problem, extrapolate_dl, nnls
from fddsim.evaluation import run_experiment, summarize
from fddsim.numerics import toeplitz_from_column
from fddsim.validate import (mmse_empirical_vs_oracle, suite_estimation_stability,
                             milp_oracle, suite_nnls,
                             suite_projection, suite_rank_matching, szego_errors)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num} ({name}): {detail}"
    print(line)
    assert ok, line


# Shared Monte Carlo scenario: scaled-down array, combined pilot-dimension
# and SNR grids so one run feeds both trend checks. The adjacency/prior
# threshold is set low enough that the estimators model essentially all of
# the energy landing on the selected beams; with the coarser default
# threshold, each user's unmodeled spectral tail lies exactly on the beams
# serving the other users and the resulting residual interference caps the
# SINR near 20 dB, masking the multiplexing-gain slope.
_MC_TDL = [8, 16, 24, 32, 48]
_MC_SNR = [10.0, 20.0, 30.0]
_MC_CFG = ExperimentConfig(m=64, k=8, t=64, tdl_list=_MC_TDL,
                           snr_db_list=_MC_SNR, n_trials=50, seed=1,
                           n_ul=500, th_rel=1e-3)


@pytest.fixture(scope="module")
def monte_carlo():
    start = time.perf_counter()
    records = run_experiment(_MC_CFG, threads=1)
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def oracle_run():
    """One run of the MILP oracle checks, shared by criteria 02 and 03."""
    start = time.perf_counter()
    hits, z_dev, n_lps = milp_oracle(200, 77, collect_z=True)
    elapsed = time.perf_counter() - start
    return hits, z_dev, n_lps, elapsed


def test_acceptance_01_rank_equals_matching():
    start = time.perf_counter()
    res = suite_rank_matching(1000, 8)
    elapsed = time.perf_counter() - start
    _report(1, "rank = matching", res.passed and elapsed < 10.0,
            f"{res.detail}; {elapsed:.1f}s (limit 10s)")


def test_acceptance_02_selection_vs_bruteforce(oracle_run):
    hits, _, n_lps, elapsed = oracle_run
    _report(2, "MILP vs brute force", hits == 200 and elapsed < 60.0,
            f"{hits}/200 instances match the enumeration oracle; "
            f"{n_lps} fixed-selector LPs solved; {elapsed:.1f}s (limit 60s)")


def test_acceptance_03_node_lp_integrality(oracle_run):
    _, z_dev, _, _ = oracle_run
    _report(3, "node-LP matching integrality", z_dev <= 1e-6,
            f"max matching-variable deviation from binary at "
            f"binary-selector nodes: {z_dev:.3g} (limit 1e-6)")


def test_acceptance_04_estimation_stability():
    res = suite_estimation_stability()
    emp, oracle = mmse_empirical_vs_oracle(2000)
    rel = abs(emp - oracle) / oracle
    _report(4, "estimation stability", res.passed and rel <= 0.03,
            f"{res.detail}; empirical vs closed-form error trace "
            f"{emp:.4f} vs {oracle:.4f} (rel {rel:.3f}, limit 0.03)")


def test_acceptance_05_dl_extrapolation_fidelity():
    asf = AngularScatteringFunction(
        intervals=[(-0.55, -0.35, 2.5), (0.25, 0.45, 2.5)], normalized=True)
    # an 8M grid, finer than the pipeline's 2M, fitted by SciPy's NNLS
    z = nnls(*_asf_problem(true_covariance(asf, 64, 1.0), 8 * 64))
    c_dl_hat = toeplitz_from_column(extrapolate_dl(z, 64, 1.1))
    c_dl = toeplitz_from_column(true_covariance(asf, 64, 1.1))
    rel = float(np.linalg.norm(c_dl_hat - c_dl) / np.linalg.norm(c_dl))
    _report(5, "DL extrapolation fidelity", rel <= 0.05,
            f"relative Frobenius error {rel:.2e} (limit 0.05)")


def test_acceptance_06_rate_vs_pilot_dimension(monte_carlo):
    records, elapsed = monte_carlo
    grid = {(g["tdl"], g["snr_db"]): g for g in summarize(records)["grid"]}
    means = [grid[(tdl, 20.0)]["sum_rate_mean"] for tdl in _MC_TDL]
    ses = [grid[(tdl, 20.0)]["sum_rate_se"] for tdl in _MC_TDL]
    i_max = int(np.argmax(means))
    interior = 0 < i_max < len(_MC_TDL) - 1
    gaps_ok = all(
        means[i_max] - means[i] >= np.hypot(ses[i_max], ses[i])
        for i in (0, len(_MC_TDL) - 1))
    curve = ", ".join(f"Tdl={t}: {m:.2f}+-{s:.2f}"
                      for t, m, s in zip(_MC_TDL, means, ses))
    _report(6, "interior optimum over pilot dimension",
            interior and gaps_ok and elapsed < 900.0,
            f"{curve}; max at Tdl={_MC_TDL[i_max]}; "
            f"runtime {elapsed:.0f}s (limit 900s)")


def test_acceptance_07_multiplexing_gain_slope(monte_carlo):
    records, _ = monte_carlo
    t_dl = 24
    rates, served = [], []
    for snr in _MC_SNR:
        sel = [r for r in records if r.tdl == t_dl and r.snr_db == snr]
        rates.append(np.mean([r.sum_rate_bits for r in sel]))
        served.append(np.mean([r.served for r in sel]))
    x = np.array([s / 10.0 * np.log2(10.0) for s in _MC_SNR])  # log2(SNR)
    slope = float(np.polyfit(x, rates, 1)[0])
    expected = float(np.mean(served)) * (1.0 - t_dl / _MC_CFG.t)
    rel = abs(slope - expected) / expected
    _report(7, "sum-rate slope vs log2(SNR)", rel <= 0.20,
            f"LS slope {slope:.3f} vs (mean served){np.mean(served):.2f} x "
            f"(1 - Tdl/T) = {expected:.3f} (rel {rel:.3f}, limit 0.20)")


def test_acceptance_08_beamspace_eigenvalue_convergence():
    m_values = (16, 32, 64, 128)
    errs = szego_errors(m_values)
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    _report(8, "beam-space spectrum convergence", ok,
            "strictly decreasing relative eigenvalue gap: "
            + ", ".join(f"M={m}: {e:.4f}" for m, e in zip(m_values, errs)))


def test_acceptance_09_projection_and_nnls_oracles():
    proj = suite_projection()
    nn = suite_nnls()
    _report(9, "projection/NNLS oracles", proj.passed and nn.passed,
            f"{proj.detail}; {nn.detail}")


def test_acceptance_10_deterministic_csv(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("M = 16\nK = 3\nT = 32\ntdl_list = 4, 8\n"
                   "snr_db_list = 10, 20\nn_trials = 3\nn_ul = 200\nseed = 7\n")
    out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    rc1 = main(["simulate", str(cfg), "-o", str(out1), "--threads", "1"])
    rc4 = main(["simulate", str(cfg), "-o", str(out4), "--threads", "4"])
    same = out1.read_bytes() == out4.read_bytes()
    _report(10, "deterministic CSV across thread counts",
            rc1 == 0 and rc4 == 0 and same,
            f"thread counts 1 and 4 byte-identical: {same}")
