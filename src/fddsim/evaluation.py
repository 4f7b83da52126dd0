"""Zero-forcing evaluation and the Monte Carlo experiment driver.

SNR convention: unit noise power, so P_dl = SNR. Rates are in bits/s/Hz
(log base 2) and include the DL training overhead prefactor (1 - T_dl/T).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ArrayConfig, make_scenario, sample_channels, true_covariance
from .config import ExperimentConfig
from .covariance import (AsfEstimate, ToeplitzCovariance, circulant_eigenvalues,
                         estimate_asf, extrapolate_dl, sample_covariance)
from .errors import FddsimError, InvalidArgumentError, NumericalError
from .numerics import gaussian_complex, hermitian_eig, toeplitz_average
from .probing import EffectiveChannelModel, dl_observe, make_pilot, mmse_effective
from .sparsifier import (SparsifyingPrecoder, build_beam_graph, solve_sparsification,
                         sparsifying_precoder)

ZF_COND_TOL = 1e-12

# stream purpose tags
_SCENARIO, _UL_CHAN, _UL_NOISE, _DL_CHAN, _PILOT, _OBS_NOISE = range(6)


@dataclass
class ZfPrecoder:
    """Column-normalized pseudoinverse beamformer with per-stream powers."""

    v: np.ndarray       # M' x K'', unit-norm columns
    j: np.ndarray       # beamforming gains J_k (real)
    p: np.ndarray       # per-stream powers, sum = P_dl


def zf_precoder(h_hat_eff: np.ndarray, p_dl: float) -> ZfPrecoder:
    """ZF beamformer from estimated effective channels (columns).

    V = H (H^H H)^-1 J^(1/2) with J normalizing columns to unit norm and
    uniform power P_dl / K'' per stream.
    """
    h = np.asarray(h_hat_eff, dtype=complex)
    if h.ndim != 2 or h.shape[1] < 1:
        raise InvalidArgumentError("zf_precoder: need an M' x K'' matrix")
    m_prime, k2 = h.shape
    if k2 > m_prime:
        raise InvalidArgumentError("zf_precoder: more streams than beams")
    gram = h.conj().T @ h
    w = hermitian_eig(gram).eigenvalues
    if w[0] <= ZF_COND_TOL * max(w[-1], 1e-300):
        raise NumericalError("zf_precoder: estimated channel matrix is rank deficient")
    pinv_t = h @ np.linalg.inv(gram)
    norms = np.linalg.norm(pinv_t, axis=0)
    v = pinv_t / norms
    j = 1.0 / norms**2
    p = np.full(k2, p_dl / k2)
    return ZfPrecoder(v=v, j=j, p=p)


def effective_gains(h_true_cols: np.ndarray, precoder: SparsifyingPrecoder,
                    zf: ZfPrecoder) -> np.ndarray:
    """Received-symbol coefficient matrix b: row k is
    (h^(k))^H B^H V P^(1/2) for the k-th served user's true channel."""
    h = np.asarray(h_true_cols, dtype=complex)
    return h.conj().T @ precoder.matrix().conj().T @ zf.v @ np.diag(np.sqrt(zf.p))


def sum_rate(b: np.ndarray, t_dl: int, t: int) -> float:
    """Sum rate with training overhead: (1 - T_dl/T) * sum_k log2(1 + SINR_k)."""
    if t_dl > t:
        raise InvalidArgumentError("sum_rate: T_dl must not exceed T")
    b = np.asarray(b, dtype=complex)
    if b.size == 0:
        return 0.0
    pre = 1.0 - t_dl / t
    mags = np.abs(b) ** 2
    sig = np.diag(mags)
    interf = mags.sum(axis=1) - sig
    return float(pre * np.sum(np.log2(1.0 + sig / (1.0 + interf))))


def greedy_user_selection(h_hat_eff: np.ndarray, p_dl: float, t_dl: int,
                          t: int) -> list:
    """Greedy ZF user selection: repeatedly add the candidate maximizing the
    estimated sum rate (perfect ZF on the estimates, uniform power); stop
    when no addition improves it."""
    h = np.asarray(h_hat_eff, dtype=complex)
    if h.ndim != 2 or h.shape[1] < 1:
        raise InvalidArgumentError("greedy_user_selection: no candidates")
    n_cand = h.shape[1]
    pre = max(0.0, 1.0 - t_dl / t)

    def est_rate(idx: list) -> float:
        try:
            zf = zf_precoder(h[:, idx], p_dl)
        except (NumericalError, InvalidArgumentError):
            return -math.inf
        return pre * float(np.sum(np.log2(1.0 + zf.j * zf.p)))

    selected: list = []
    best = 0.0
    while len(selected) < n_cand:
        gains = [(est_rate(selected + [c]), c)
                 for c in range(n_cand) if c not in selected]
        rate, cand = max(gains, key=lambda g: (g[0], -g[1]))
        if rate <= best:
            break
        selected.append(cand)
        best = rate
    return selected


def normalized_error(h_true: np.ndarray, h_hat: np.ndarray) -> float:
    """||H - H_hat||_F^2 / ||H||_F^2."""
    h_true = np.asarray(h_true, dtype=complex)
    h_hat = np.asarray(h_hat, dtype=complex)
    if h_true.shape != h_hat.shape:
        raise InvalidArgumentError("normalized_error: shape mismatch")
    denom = np.linalg.norm(h_true) ** 2
    if denom == 0.0:
        raise InvalidArgumentError("normalized_error: all-zero reference")
    return float(np.linalg.norm(h_true - h_hat) ** 2 / denom)


@dataclass
class ExperimentRecord:
    trial: int
    seed: int
    tdl: int
    snr_db: float
    served: int
    matching_size: int
    err_norm: float
    sum_rate_bits: float

    def csv_row(self) -> str:
        return (f"{self.trial},{self.tdl},{self.snr_db:.12g},{self.served},"
                f"{self.matching_size},{self.err_norm:.12g},{self.sum_rate_bits:.12g}")


CSV_HEADER = "trial,Tdl,snr_db,served,matching_size,err_norm,sum_rate_bits"


def estimate_user_pipeline(cfg: ExperimentConfig, arr: ArrayConfig, user_asf,
                           trial: int, k: int
                           ) -> tuple[AsfEstimate, ToeplitzCovariance, np.ndarray]:
    """UL covariance -> angular estimate -> DL covariance -> beam powers.

    The angular measure is fitted to the Toeplitz average of the sample
    covariance of user k's UL pilots in the given trial (or to the true UL
    covariance with ``exact_covariance``). Returns the angular estimate,
    the DL covariance and its beam-space spectrum.
    """
    if cfg.exact_covariance:
        c_ul_hat = true_covariance(arr, user_asf, "ul").first_column
    else:
        h_ul = sample_channels(arr, user_asf, "ul", cfg.n_ul, cfg.seed, trial, k, _UL_CHAN)
        noise = np.sqrt(cfg.ul_sigma2) * gaussian_complex(
            arr.m * cfg.n_ul, cfg.seed, trial, k, _UL_NOISE).reshape(arr.m, cfg.n_ul)
        c_ul_hat = toeplitz_average(sample_covariance(h_ul + noise, cfg.ul_sigma2))
    asf_est = estimate_asf(c_ul_hat, arr, grid_size=cfg.grid_factor * arr.m)
    c_dl_hat = extrapolate_dl(asf_est, arr)
    return asf_est, c_dl_hat, circulant_eigenvalues(c_dl_hat)


def trial_scenario(cfg: ExperimentConfig, trial: int) -> tuple[ArrayConfig, list]:
    """The array and the K users of one trial."""
    arr = ArrayConfig(m=cfg.m, theta_max=np.deg2rad(cfg.theta_max_deg), alpha=cfg.alpha)
    _, users = make_scenario(cfg.n_clusters, cfg.cluster_width, cfg.k,
                             cfg.seed, trial, _SCENARIO)
    return arr, users


def run_trial(cfg: ExperimentConfig, trial: int) -> list:
    """All grid-point records for one Monte Carlo trial."""
    arr, users = trial_scenario(cfg, trial)

    spectra = []
    h_true = np.empty((cfg.m, cfg.k), dtype=complex)
    for k, user in enumerate(users):
        spectra.append(estimate_user_pipeline(cfg, arr, user.asf, trial, k)[2])
        h_true[:, k] = sample_channels(arr, user.asf, "dl", 1,
                                       cfg.seed, trial, k, _DL_CHAN)[:, 0]

    graph = build_beam_graph(spectra, th_rel=cfg.th_rel)
    records = []
    for i_tdl, t_dl in enumerate(cfg.tdl_list):
        try:
            plan = solve_sparsification(graph, t_dl, p0=cfg.p0,
                                        epsilon=cfg.epsilon_factor / cfg.m)
        except FddsimError:
            plan = None
        if plan is None or not plan.beams or not plan.users:
            for snr_db in cfg.snr_db_list:
                records.append(ExperimentRecord(trial, cfg.seed, t_dl, snr_db, 0,
                                                0, float("nan"), 0.0))
            continue
        precoder = sparsifying_precoder(plan, cfg.m)
        m_prime = precoder.m_prime
        t_eff = min(t_dl, m_prime)  # a pilot never needs more dims than beams
        models = {}
        for k in plan.users:
            support = [i for i, bm in enumerate(plan.beams) if graph.adjacency[bm, k]]
            variances = [spectra[k][plan.beams[i]] for i in support]
            models[k] = (support, variances)

        for snr_db in cfg.snr_db_list:
            try:
                records.append(_grid_point(cfg, trial, t_dl, i_tdl, t_eff, snr_db,
                                           plan, precoder, models, h_true))
            except FddsimError:
                records.append(ExperimentRecord(trial, cfg.seed, t_dl, snr_db, 0,
                                                plan.matching_size, float("nan"), 0.0))
    return records


def _grid_point(cfg, trial, t_dl, i_tdl, t_eff, snr_db, plan, precoder, models,
                h_true) -> ExperimentRecord:
    p_dl = 10.0 ** (snr_db / 10.0)
    n0 = 1.0
    pilot = make_pilot(t_eff, precoder.m_prime, p_dl, cfg.seed, trial, _PILOT, i_tdl)

    h_hat_eff = np.zeros((precoder.m_prime, len(plan.users)), dtype=complex)
    for col, k in enumerate(plan.users):
        support, variances = models[k]
        y = dl_observe(pilot, precoder, h_true[:, k], n0,
                       cfg.seed, trial, k, _OBS_NOISE, i_tdl)
        model = EffectiveChannelModel(m_prime=precoder.m_prime, support=support,
                                      variances=variances, n0=n0)
        h_hat_eff[:, col] = mmse_effective(y, pilot, model)

    order = greedy_user_selection(h_hat_eff, p_dl, t_dl, cfg.t)
    served_cols = sorted(order)
    if not served_cols:
        return ExperimentRecord(trial, cfg.seed, t_dl, snr_db, 0,
                                plan.matching_size, float("nan"), 0.0)
    served_users = [plan.users[c] for c in served_cols]
    # greedy selection admitted this set only after zf_precoder succeeded on it
    zf = zf_precoder(h_hat_eff[:, served_cols], p_dl)
    b = effective_gains(h_true[:, served_users], precoder, zf)
    rate = sum_rate(b, t_dl, cfg.t)
    h_hat_full = precoder.expand(h_hat_eff[:, served_cols])
    err = normalized_error(h_true[:, served_users], h_hat_full)
    return ExperimentRecord(trial, cfg.seed, t_dl, snr_db, len(served_users),
                            plan.matching_size, err, rate)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Monte Carlo driver. Trials are independent (derived seeds), so the
    records are identical for any thread count; they are merged in trial
    order."""
    trials = list(range(cfg.n_trials))
    if threads <= 1 or cfg.n_trials <= 1:
        batches = [run_trial(cfg, t) for t in trials]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(run_trial, [cfg] * len(trials), trials))
    records = [rec for batch in batches for rec in batch]
    records.sort(key=lambda r: (r.trial, r.tdl, r.snr_db))
    return records


def write_records_csv(records: list, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def summarize(records: list) -> dict:
    """Per-(T_dl, SNR) means and standard errors, accumulated in record
    order so results do not depend on how trials were scheduled."""
    grid = {}
    for rec in records:
        grid.setdefault((rec.tdl, rec.snr_db), []).append(rec)
    out = []
    for (tdl, snr_db) in sorted(grid):
        recs = grid[(tdl, snr_db)]
        rates = np.array([r.sum_rate_bits for r in recs])
        errs = np.array([r.err_norm for r in recs])
        served = np.array([r.served for r in recs])
        n = len(recs)
        out.append({
            "tdl": tdl,
            "snr_db": snr_db,
            "n_trials": n,
            "sum_rate_mean": float(rates.mean()),
            "sum_rate_se": float(rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            "err_norm_mean": float(np.nanmean(errs)) if np.any(np.isfinite(errs)) else float("nan"),
            "served_mean": float(served.mean()),
        })
    return {"grid": out}


def write_summary_json(records: list, path) -> None:
    with open(path, "w") as fh:
        json.dump(summarize(records), fh, indent=2, allow_nan=True)
        fh.write("\n")
