"""Zero-forcing evaluation and the Monte Carlo experiment driver.

A trial is two stages. ``trial_state`` runs the per-user estimator
``estimate_user_pipeline`` for every user into one beam graph and takes
the beam coefficients F^H h of the true DL channels once; ``evaluate_tdl``
turns them into the records of one T_dl. The DL stage runs in the beam
domain on plain arrays: the probing input, the true effective channels
and the estimation error read the selected beams' rows of F^H h.

SNR convention: unit noise power, so P_dl = SNR, at most 2^53/M (config
rejects higher SNRs, since rounding would erase the unit noise term of the
MMSE system p G + I). Rates are in bits/s/Hz (log base 2). ``evaluate_tdl``
alone charges the DL training overhead (1 - t_eff/T), for the
t_eff = min(T_dl, M') pilot dimensions actually sent.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (make_scenario, sample_channels, sample_pilot_covariance,
                      true_covariance)
from .config import ExperimentConfig
from .covariance import circulant_eigenvalues, estimate_asf, extrapolate_dl
from .errors import FddsimError, InvalidArgumentError, NumericalError
from .numerics import gaussian_complex, toeplitz_average
from .probing import dl_observe, make_pilot, mmse_effective
from .sparsifier import beam_coefficients, build_beam_graph, solve_sparsification

ZF_COND_TOL = 1e-12

# (served, err_norm, rate) of a grid point that serves no one
_NO_ONE_SERVED = (0, math.nan, 0.0)

# stream purpose tags, the last entry of every stream path (see ``numerics``)
_SCENARIO, _UL_COV, _DL_CHAN, _PILOT, _OBS_NOISE = 0, 1, 3, 4, 5


def zf_precoder(h_hat_eff: np.ndarray) -> np.ndarray:
    """Unit-norm ZF beamformer V = H (H^H H)^-1 J^(1/2) (M' x K'') from
    estimated effective channels H (columns), J normalizing the columns of
    H (H^H H)^-1 to unit norm."""
    h = np.asarray(h_hat_eff, dtype=complex)
    if h.ndim != 2 or h.shape[1] < 1:
        raise InvalidArgumentError("zf_precoder: need an M' x K'' matrix")
    if h.shape[1] > h.shape[0]:
        raise InvalidArgumentError("zf_precoder: more streams than beams")
    gram = h.conj().T @ h
    w = np.linalg.eigvalsh(gram)
    if w[0] <= ZF_COND_TOL * max(w[-1], 1e-300):
        raise NumericalError("zf_precoder: estimated channel matrix is rank deficient")
    pinv_t = h @ np.linalg.inv(gram)
    return pinv_t / np.linalg.norm(pinv_t, axis=0)


def effective_gains(h_eff_true: np.ndarray, v: np.ndarray, p_dl: float) -> np.ndarray:
    """Received-symbol coefficient matrix b under uniform power P_dl / K''
    per stream: row k is (B h^(k))^H V sqrt(P_dl / K''), with B h^(k) the
    k-th served user's true effective channel (column k of h_eff_true)."""
    h = np.asarray(h_eff_true, dtype=complex)
    return (h.conj().T @ v) * np.sqrt(p_dl / v.shape[1])


def sum_rate(b: np.ndarray) -> float:
    """Sum rate sum_k log2(1 + SINR_k) of received-symbol coefficients b
    (see ``effective_gains``), without the training overhead."""
    b = np.asarray(b, dtype=complex)
    if b.size == 0:
        return 0.0
    mags = np.abs(b) ** 2
    sig = np.diag(mags)
    interf = mags.sum(axis=1) - sig
    return float(np.sum(np.log2(1.0 + sig / (1.0 + interf))))


def greedy_user_selection(h_hat_eff: np.ndarray, p_dl: np.ndarray) -> list:
    """Greedy ZF user selection for a stack of P estimates of one T_dl
    (``h_hat_eff`` is P x M' x n, one estimate per pilot power ``p_dl``):
    repeatedly add the candidate maximizing the estimated sum rate (perfect
    ZF on the estimates, uniform power; the training overhead, one positive
    factor per T_dl, does not change the ranking); stop when no addition
    improves it. Ties go to the lowest column index. Returns P selections.

    The P greedy loops run in lockstep. Each step scores every remaining
    candidate c of every unfinished member at once on the Gram submatrices
    G of ``selected + [c]``, stacked: a candidate whose G has
    w_min <= ZF_COND_TOL * w_max is rank deficient (rate -inf), as in
    zf_precoder, and otherwise J_k = 1 / (G^-1)_kk, the inverse squared
    column norm of H G^-1. The stacked eigenvalue and inverse calls run
    the same per-matrix LAPACK routines as one member alone would, so a
    member's selection does not depend on the others.
    """
    h = np.asarray(h_hat_eff, dtype=complex)
    p_dl = np.asarray(p_dl, dtype=float)
    if h.ndim != 3 or h.shape[2] < 1 or p_dl.shape != h.shape[:1]:
        raise InvalidArgumentError("greedy_user_selection: need P x M' x n estimates "
                                   "with n >= 1 candidates and P powers")
    n_inst, m_prime, n_cand = h.shape
    # einsum rounds every entry alike; one gemm rounds by column position, so
    # two equal columns could get unequal Gram entries and break their tie
    gram = np.einsum("pmi,pmj->pij", h.conj(), h)

    selected = [[] for _ in range(n_inst)]
    best = np.zeros(n_inst)
    live = list(range(n_inst))
    for size in range(1, min(n_cand, m_prime) + 1):
        if not live:
            break
        # every live member holds size - 1 users: stack its candidate sets
        cands = [[c for c in range(n_cand) if c not in selected[p]] for p in live]
        idx = np.array([[selected[p] + [c] for c in cs] for p, cs in zip(live, cands)])
        sub = gram[np.array(live)[:, None, None, None], idx[..., :, None], idx[..., None, :]]
        w = np.linalg.eigvalsh(sub)
        full_rank = w[..., 0] > ZF_COND_TOL * np.maximum(w[..., -1], 1e-300)
        rates = np.full(full_rank.shape, -math.inf)
        if full_rank.any():
            j = 1.0 / np.diagonal(np.linalg.inv(sub[full_rank]), axis1=1, axis2=2).real
            p_user = (p_dl[live] / size)[np.nonzero(full_rank)[0]]
            rates[full_rank] = np.sum(np.log2(1.0 + j * p_user[:, None]), axis=1)
        still = []
        for row, p in enumerate(live):
            i = int(np.argmax(rates[row]))  # the first maximum: ties go to the lowest index
            if rates[row, i] > best[p]:
                selected[p].append(cands[row][i])
                best[p] = rates[row, i]
                still.append(p)
        live = still
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
    """The outcome of one grid point (trial, T_dl, SNR), a function of that
    grid point alone; ``evaluate_tdl`` builds every record."""

    trial: int
    tdl: int
    snr_db: float
    served: int
    matching_size: int
    err_norm: float
    sum_rate_bits: float
    # why the grid point failed (a solver or estimator error, or an overflow;
    # a failed sparsify or DL stage fails every SNR of its T_dl), "" if it
    # did not; a failed point has zero rate. Not written to the records CSV.
    failure: str = ""

    def csv_row(self) -> str:
        return (f"{self.trial},{self.tdl},{self.snr_db:.12g},{self.served},"
                f"{self.matching_size},{self.err_norm:.12g},{self.sum_rate_bits:.12g}")


CSV_HEADER = "trial,Tdl,snr_db,served,matching_size,err_norm,sum_rate_bits"


def estimate_user_pipeline(cfg: ExperimentConfig, user_asf, trial: int, k: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """UL covariance -> angular estimate -> DL covariance -> beam powers.

    The one per-user estimator: ``trial_state`` reads its spectrum and
    ``fddsim extrapolate`` exports all three outputs. The angular measure
    is fitted to the Toeplitz average of the sample covariance of user k's
    n_ul UL pilots in the given trial, drawn from its complex-Wishart law
    (or to the true UL covariance with ``exact_covariance``). Returns the
    fitted measure's UL covariance first column (its covariance at
    alpha = 1), its DL covariance first column (at ``cfg.alpha``) and the
    DL beam-space spectrum.
    """
    c_ul = true_covariance(user_asf, cfg.m, 1.0)
    if not cfg.exact_covariance:
        c_ul = toeplitz_average(sample_pilot_covariance(
            c_ul, cfg.n_ul, cfg.ul_sigma2, cfg.seed, trial, k, _UL_COV))
    z = estimate_asf(c_ul)
    c_dl_hat = extrapolate_dl(z, cfg.m, cfg.alpha)
    return (extrapolate_dl(z, cfg.m, 1.0), c_dl_hat,
            circulant_eigenvalues(c_dl_hat))


def trial_scenario(cfg: ExperimentConfig, trial: int) -> list:
    """The K users of one trial."""
    return make_scenario(cfg.n_clusters, cfg.cluster_width, cfg.k,
                         cfg.seed, trial, _SCENARIO)[1]


def run_trial(cfg: ExperimentConfig, trial: int) -> list:
    """All grid-point records for one Monte Carlo trial, T_dl by T_dl."""
    graph, h_beam = trial_state(cfg, trial)
    return [rec for t_dl in cfg.tdl_list for rec in evaluate_tdl(cfg, trial, t_dl, graph, h_beam)]


def trial_state(cfg: ExperimentConfig, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """What every grid point of a trial reads: the beam graph of the users'
    estimated DL spectra, and F^H h of their true DL channels."""
    spectra = np.empty((cfg.m, cfg.k))
    h_true = np.empty((cfg.m, cfg.k), dtype=complex)
    for k, user in enumerate(trial_scenario(cfg, trial)):
        spectra[:, k] = estimate_user_pipeline(cfg, user.asf, trial, k)[2]
        h_true[:, k] = sample_channels(true_covariance(user.asf, cfg.m, cfg.alpha), 1,
                                       cfg.seed, trial, k, _DL_CHAN)[:, 0]
    return build_beam_graph(spectra, th_rel=cfg.th_rel), beam_coefficients(h_true)


def evaluate_tdl(cfg: ExperimentConfig, trial: int, t_dl: int, graph: np.ndarray,
                 h_beam: np.ndarray) -> list:
    """The records of one T_dl of a trial, one per SNR: sparsify, then probe
    with t_eff = min(T_dl, M') pilot dimensions, estimate and serve
    (``_serve``). A row serves no one (served 0, err_norm nan, rate 0) when
    the plan has no user, when t_eff = T leaves no symbol for data (nothing
    is probed then), or when the sparsify or DL stage fails, which fails
    every SNR of the T_dl with its stage and error as the reason.

    A row depends only on its own (trial, T_dl, SNR): the pilot stream is
    keyed by (trial, t_eff) and each user's noise stream by
    (trial, user, t_eff), so T_dl values with the same t_eff share them."""
    rows = [_NO_ONE_SERVED] * len(cfg.snr_db_list)
    plan, failure = None, ""
    try:
        plan = solve_sparsification(graph, t_dl, p0=cfg.p0)
        t_eff = min(t_dl, len(plan.beams))  # a pilot never needs more dims than beams
        if plan.users and t_eff < cfg.t:
            rows = _serve(cfg, trial, t_eff, plan, graph, h_beam)
    except (FddsimError, FloatingPointError) as exc:
        failure = f"{'sparsify' if plan is None else 'grid point'}: {type(exc).__name__}: {exc}"
    return [ExperimentRecord(trial=trial, tdl=t_dl, snr_db=snr_db, served=served,
                             matching_size=plan.matching_size if plan else 0,
                             err_norm=err_norm, sum_rate_bits=rate, failure=failure)
            for snr_db, (served, err_norm, rate) in zip(cfg.snr_db_list, rows)]


def _serve(cfg, trial, t_eff, plan, graph, h_beam) -> list:
    """(served, err_norm, rate) at each SNR of a plan probed with t_eff pilot
    dimensions. The estimates and the greedy selections of all SNRs are each
    made in one stacked call. Only here is the training overhead charged:
    (1 - t_eff/T) on each rate, for the pilot dimensions actually sent."""
    powers = np.array([10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_db_list])
    # The pilot directions Q^H (unit power), and per selected user B h, the unit
    # observation-noise draw and the MMSE prior (its beam powers on its edges; unit
    # noise power) do not depend on the SNR: observe at every SNR, estimate at once.
    q_h = make_pilot(t_eff, len(plan.beams), cfg.seed, trial, t_eff, _PILOT)
    h_eff = h_beam[np.ix_(plan.beams, plan.users)]
    noise = np.stack([gaussian_complex(t_eff, cfg.seed, trial, k, t_eff, _OBS_NOISE)
                      for k in plan.users])
    prior = graph[np.ix_(plan.beams, plan.users)].T
    ys = np.stack([dl_observe(np.sqrt(p_dl) * q_h, h_eff.T, noise) for p_dl in powers])
    rows = []
    with np.errstate(over="raise", invalid="raise"):  # an overflowed rate fails too
        h_hats = np.swapaxes(mmse_effective(ys, q_h, prior, powers), 1, 2)
        for p_dl, h_hat, order in zip(powers, h_hats, greedy_user_selection(h_hats, powers)):
            cols = sorted(order)
            if not cols:
                rows.append(_NO_ONE_SERVED)
                continue
            # greedy selection admitted this set only after its ZF rank test passed
            v = zf_precoder(h_hat[:, cols])
            rate = (1.0 - t_eff / cfg.t) * sum_rate(effective_gains(h_eff[:, cols], v, p_dl))
            # F is unitary, so ||h - B^H h_hat|| = ||F^H h - h_hat zero-filled||
            h_hat_beam = np.zeros((cfg.m, len(cols)), dtype=complex)
            h_hat_beam[plan.beams] = h_hat[:, cols]
            served = [plan.users[c] for c in cols]
            rows.append((len(cols), normalized_error(h_beam[:, served], h_hat_beam), rate))
    return rows


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Monte Carlo driver. Trials are independent (derived seeds), so the
    records are identical for any thread count; they are merged in trial
    order."""
    trials = list(range(cfg.n_trials))
    if threads <= 1 or cfg.n_trials <= 1:
        batches = [run_trial(cfg, t) for t in trials]
    else:
        # fork starts every worker at the first submit: never more than trials
        with ProcessPoolExecutor(max_workers=min(threads, cfg.n_trials)) as pool:
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
    order so results do not depend on how trials were scheduled.

    A failed grid point (see ``ExperimentRecord.failure``) counts as zero
    rate in ``sum_rate_mean``; ``n_failed`` counts them per cell.
    """
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
            "n_failed": sum(bool(r.failure) for r in recs),
        })
    return {"grid": out}


def write_summary_json(records: list, path) -> None:
    with open(path, "w") as fh:
        json.dump(summarize(records), fh, indent=2, allow_nan=True)
        fh.write("\n")
