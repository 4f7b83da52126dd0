"""Zero-forcing evaluation and the Monte Carlo experiment driver.

A trial is two stages. ``trial_state`` runs the per-user estimator
``estimate_user_pipeline`` for every user into one beam graph and takes
the beam coefficients F^H h of the true DL channels once, factoring each
distinct ASF's covariance once per band; ``evaluate_tdls``
turns them into the records of every T_dl. It sparsifies, probes and
estimates T_dl by T_dl, runs one greedy user selection over the estimates
of every T_dl at every SNR, and then precodes and rates each T_dl's SNRs
in stacked calls.
The DL stage runs in the beam domain on plain arrays: the probing input,
the true effective channels and the estimation error read the selected
beams' rows of F^H h.

SNR convention: unit noise power, so P_dl = SNR, at most 2^53/M (config
rejects higher SNRs, since rounding would erase the unit noise term of the
MMSE system p G + I). Rates are in bits/s/Hz (log base 2). ``evaluate_tdls``
alone charges the DL training overhead (1 - t_eff/T), for the
t_eff = min(T_dl, M') pilot dimensions actually sent.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (make_scenario, psd_factor, sample_channels,
                      sample_pilot_covariance, true_covariance)
from .config import ExperimentConfig
from .covariance import circulant_eigenvalues, estimate_asf, extrapolate_dl
from .errors import InvalidArgumentError, NumericalError
from .numerics import gaussian_complex
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
    H (H^H H)^-1 to unit norm. Raises NumericalError when H^H H fails the
    rank test of ``_full_rank_inverse``.

    Leading axes stack independent members (... x M' x K''): each gets the
    beamformer it would get alone, bit for bit, and one rank-deficient
    member raises for the stack."""
    h = np.asarray(h_hat_eff, dtype=complex)
    if h.ndim < 2 or h.shape[-1] < 1:
        raise InvalidArgumentError("zf_precoder: need an M' x K'' matrix")
    if h.shape[-1] > h.shape[-2]:
        raise InvalidArgumentError("zf_precoder: more streams than beams")
    s = h.shape[-1]
    full_rank, inv = _full_rank_inverse((np.swapaxes(h.conj(), -1, -2) @ h).reshape(-1, s, s))
    if not full_rank.all():
        raise NumericalError("zf_precoder: estimated channel matrix is rank deficient")
    pinv_t = h @ inv.reshape(h.shape[:-2] + (s, s))
    return pinv_t / np.linalg.norm(pinv_t, axis=-2, keepdims=True)


def _full_rank_inverse(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ZF rank test on a stack of Gram matrices G = H^H H (... x s x s),
    and the inverses of the members that pass: (full_rank, inv(G[full_rank])).

    A member is rank deficient when ``eigvalsh`` gives w_min <= ZF_COND_TOL
    * w_max. One batched ``inv`` screens first, and ``eigvalsh`` runs only on
    the members whose screen does not clear (on all of them when ``inv``
    raises LinAlgError, which an exactly singular member can cause). The
    screen clears G when ||G||_F * ||G^-1||_F < 1 / (1e3 * ZF_COND_TOL) =
    1e9, and then ``eigvalsh`` would have passed it too:
    - kappa_2(G) = ||G||_2 ||G^-1||_2 <= ||G||_F ||G^-1||_F for any
      nonsingular G, positive definite or not. The computed inverse X
      solves G X = I + R with ||R|| = O(s eps ||G|| ||X||) = O(s eps 1e9),
      so the true inverse is within a factor 1 + O(1e-6) of X and
      kappa(G) <= 1e9 (1 + O(1e-6)): every |w| >= ~1e-9 w_max.
    - G is a computed Gram: it lies within O(M s eps) w_max of the positive
      semidefinite H^H H, so it has no eigenvalue below -O(M s eps) w_max,
      far above -1e-9 w_max. With the first point, G is positive definite
      with w_min >= ~1e-9 w_max.
    - ``eigvalsh`` is backward stable: each computed eigenvalue lies within
      O(s eps) w_max of the true one, so it would return w_min >=
      (1e-9 - O(s eps)) w_max > ZF_COND_TOL * w_max.
    The decision is therefore exactly the ``eigvalsh`` test's. For a
    positive definite G the Frobenius norms are at most the traces, so this
    screen clears every member that tr(G) * tr(G^-1) < 1e9 would; the trace
    form alone would also need G positive definite, which a positive
    diagonal of G^-1 does not imply. The inverse of each member is the same
    per-matrix LAPACK result whether it is computed in this stack or alone.
    """
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv, cleared = None, np.zeros(gram.shape[:-2], dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan bound does not clear
            cleared = (np.linalg.norm(gram, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
                       < 1.0 / (1e3 * ZF_COND_TOL))
    full_rank = cleared.copy()
    if not cleared.all():
        w = np.linalg.eigvalsh(gram[~cleared])
        full_rank[~cleared] = w[..., 0] > ZF_COND_TOL * np.maximum(w[..., -1], 1e-300)
    return full_rank, np.linalg.inv(gram[full_rank]) if inv is None else inv[full_rank]


def effective_gains(h_eff_true: np.ndarray, v: np.ndarray, p_dl) -> np.ndarray:
    """Received-symbol coefficient matrix b under uniform power P_dl / K''
    per stream: row k is (B h^(k))^H V sqrt(P_dl / K''), with B h^(k) the
    k-th served user's true effective channel (column k of h_eff_true).
    Leading axes stack members, one power each (``p_dl`` has the stack's
    shape), and each gets its own matrix bit for bit."""
    h = np.asarray(h_eff_true, dtype=complex)
    scale = np.sqrt(np.asarray(p_dl, dtype=float) / v.shape[-1])
    return (np.swapaxes(h.conj(), -1, -2) @ v) * scale[..., None, None]


def sum_rate(b: np.ndarray):
    """Sum rate sum_k log2(1 + SINR_k) of received-symbol coefficients b
    (see ``effective_gains``), without the training overhead: a float for
    one K'' x K'' matrix, and an array of one rate per member for a stack
    (... x K'' x K''), each the member's own rate bit for bit."""
    b = np.asarray(b, dtype=complex)
    mags = np.abs(b) ** 2
    sig = np.diagonal(mags, axis1=-2, axis2=-1)
    interf = mags.sum(axis=-1) - sig
    return np.sum(np.log2(1.0 + sig / (1.0 + interf)), axis=-1)


def greedy_user_selection(gram: np.ndarray, p_dl: np.ndarray, m_prime: np.ndarray) -> list:
    """Greedy ZF user selection (Dimic & Sidiropoulos, IEEE TSP 2005) for a
    stack of P members, each an estimate H_p (M'_p x n) at pilot power
    ``p_dl[p]``, given as its Gram matrix G_p = H_p^H H_p (``gram`` is
    P x n x n) and its beam count M'_p (``m_prime``): repeatedly add the
    candidate maximizing the estimated sum rate (perfect ZF on the
    estimates, uniform power; the training overhead, one positive factor
    per T_dl, does not change the ranking); stop when no addition improves
    it or after min(n, M'_p) users. Ties go to the lowest column index, so
    form the Grams by ``einsum``, which rounds every entry alike: one gemm
    rounds by column position, so two equal columns could get unequal
    entries and break their tie. Returns P selections.

    The P greedy loops run in lockstep on arrays: a taken mask (P x n), an
    order matrix whose row p lists member p's users in the order they were
    added, and a live mask of the members still adding. Each step scores
    every remaining candidate c of every live member at once on the Gram
    submatrices G of ``order[p] + [c]``, stacked member by member with the
    candidates in ascending order: a candidate whose G fails the rank test
    of ``_full_rank_inverse`` (that of zf_precoder) is rank deficient (rate
    -inf), and otherwise J_k = 1 / (G^-1)_kk, the inverse squared column
    norm of H G^-1, from the same inverse as the test. One row-wise
    ``argmax`` then picks each member's candidate. The test and the inverse
    run per-matrix LAPACK routines, so a member's selection does not depend
    on the others.
    """
    gram = np.asarray(gram, dtype=complex)
    p_dl = np.asarray(p_dl, dtype=float)
    m_prime = np.asarray(m_prime)
    if (gram.ndim != 3 or gram.shape[1] != gram.shape[2] or gram.shape[2] < 1
            or p_dl.shape != gram.shape[:1] or m_prime.shape != gram.shape[:1]
            or np.any(m_prime < 1)):
        raise InvalidArgumentError("greedy_user_selection: need P n x n Grams with n >= 1 "
                                   "candidates, P powers and P beam counts >= 1")
    n_inst, n_cand = gram.shape[:2]
    cap = np.minimum(m_prime, n_cand)

    order = np.zeros((n_inst, int(cap.max(initial=0))), dtype=np.intp)
    taken = np.zeros((n_inst, n_cand), dtype=bool)
    best = np.zeros(n_inst)
    live = np.ones(n_inst, dtype=bool)
    for size in range(1, order.shape[1] + 1):
        live &= cap >= size
        members = np.flatnonzero(live)
        if members.size == 0:
            break
        # every live member holds size - 1 users: stack its n - size + 1 candidate sets
        cands = np.nonzero(~taken[members])[1].reshape(members.size, -1)
        idx = np.concatenate([np.broadcast_to(order[members, None, :size - 1],
                                              cands.shape + (size - 1,)),
                              cands[..., None]], axis=2)
        sub = gram[members[:, None, None, None], idx[..., :, None], idx[..., None, :]]
        full_rank, inv = _full_rank_inverse(sub)
        rates = np.full(full_rank.shape, -math.inf)
        j = 1.0 / np.diagonal(inv, axis1=1, axis2=2).real
        p_user = (p_dl[members] / size)[np.nonzero(full_rank)[0]]
        rates[full_rank] = np.sum(np.log2(1.0 + j * p_user[:, None]), axis=1)
        i = np.argmax(rates, axis=1)  # the first maximum: ties go to the lowest index
        rate = rates[np.arange(members.size), i]
        adds = rate > best[members]
        p, c = members[adds], cands[adds, i[adds]]
        order[p, size - 1] = c
        taken[p, c] = True
        best[p] = rate[adds]
        live[members[~adds]] = False
    return [row[:n].tolist() for row, n in zip(order, taken.sum(axis=1))]


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
    grid point alone; ``evaluate_tdls`` builds every record."""

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


def ul_source(cfg: ExperimentConfig, user_asf) -> np.ndarray:
    """What ``estimate_user_pipeline`` fits a user of this ASF from: the
    factor ``psd_factor`` of its UL covariance plus the UL pilot noise
    sigma2 I, from which each trial draws the Toeplitz column of the user's
    sample covariance, or with ``exact_covariance`` its exact UL covariance
    column. Users with the same ASF share it."""
    c_ul = true_covariance(user_asf, cfg.m, 1.0)
    return c_ul if cfg.exact_covariance else psd_factor(c_ul, cfg.ul_sigma2)


def estimate_user_pipeline(cfg: ExperimentConfig, ul: np.ndarray, trial: int, k: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """UL covariance -> angular estimate -> DL covariance -> beam powers.

    The one per-user estimator: ``trial_state`` reads its spectrum and
    ``fddsim extrapolate`` exports all three outputs. ``ul`` is the user's
    ``ul_source``. The angular measure is fitted to the Toeplitz average of
    the sample covariance of user k's n_ul UL pilots in the given trial, a
    column drawn from the complex-Wishart law with the factor ``ul`` (with
    ``exact_covariance``, to the true UL covariance column ``ul``). Returns
    the fitted measure (``estimate_asf``'s grid weights), its DL covariance
    first column (at ``cfg.alpha``) and the DL beam-space spectrum. Its UL
    covariance column, ``extrapolate_dl(z, cfg.m, 1.0)``, is left to
    ``fddsim extrapolate``, the one caller that exports it.
    """
    c_ul = ul
    if not cfg.exact_covariance:
        c_ul = sample_pilot_covariance(ul, cfg.n_ul, cfg.ul_sigma2,
                                       cfg.seed, trial, k, _UL_COV)
    z = estimate_asf(c_ul)
    c_dl_hat = extrapolate_dl(z, cfg.m, cfg.alpha)
    return z, c_dl_hat, circulant_eigenvalues(c_dl_hat)


def trial_scenario(cfg: ExperimentConfig, trial: int) -> list:
    """The K users of one trial."""
    return make_scenario(cfg.n_clusters, cfg.cluster_width, cfg.k,
                         cfg.seed, trial, _SCENARIO)[1]


def run_trial(cfg: ExperimentConfig, trial: int) -> list:
    """All grid-point records for one Monte Carlo trial."""
    return evaluate_tdls(cfg, trial, *trial_state(cfg, trial))


def trial_state(cfg: ExperimentConfig, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """What every grid point of a trial reads: the beam graph of the users'
    estimated DL spectra, and F^H h of their true DL channels.

    ``make_scenario`` builds a user's ASF from its cluster pair alone,
    stored in ascending order, so the users of one pair share its
    ``ul_source`` and DL factor, computed once per pair: a 3-cluster trial
    factors at most 3 pairs per band. Each user still draws from its own
    streams."""
    spectra = np.empty((cfg.m, cfg.k))
    h_true = np.empty((cfg.m, cfg.k), dtype=complex)
    shared = {}
    for k, user in enumerate(trial_scenario(cfg, trial)):
        pair = user.cluster_indices
        if pair not in shared:
            shared[pair] = (ul_source(cfg, user.asf),
                            psd_factor(true_covariance(user.asf, cfg.m, cfg.alpha)))
        ul, f_dl = shared[pair]
        spectra[:, k] = estimate_user_pipeline(cfg, ul, trial, k)[2]
        h_true[:, k] = sample_channels(f_dl, 1, cfg.seed, trial, k, _DL_CHAN)[:, 0]
    return build_beam_graph(spectra, th_rel=cfg.th_rel), beam_coefficients(h_true)


# the errors that fail a grid point rather than the run. An
# InvalidArgumentError there is a bug, since config validates T_dl, P0 and
# the SNRs and every plan fits its pilots and picks to its M' beams: it
# stops the run.
_GRID_POINT_ERRORS = (NumericalError, FloatingPointError)


def _failure(step: str, exc: Exception) -> str:
    return f"{step}: {type(exc).__name__}: {exc}"


@np.errstate(over="raise", invalid="raise")  # an overflowed estimate, Gram or rate fails too
def evaluate_tdls(cfg: ExperimentConfig, trial: int, graph: np.ndarray,
                  h_beam: np.ndarray) -> list:
    """The records of a trial, one per (T_dl, SNR) of ``cfg``, T_dl by
    T_dl, in three steps:
    - per T_dl, sparsify, then probe with t_eff = min(T_dl, M') pilot
      dimensions and estimate at every SNR (``_estimate``);
    - one greedy selection over the estimates of every T_dl at every SNR
      (``_select``);
    - per (T_dl, SNR), ZF, rate and err_norm (``_serve``).
    A row serves no one (served 0, err_norm nan, rate 0) when the plan has
    no user, when t_eff = T leaves no symbol for data (nothing is probed
    then), or when the sparsify step or a DL step of its T_dl fails, which
    fails every SNR of that T_dl, and no other T_dl, with its step and
    error as the reason.

    A row depends only on its own (trial, T_dl, SNR): the pilot and the
    observation-noise block are each one stream keyed by (trial, t_eff),
    and user k's noise is row k of the block whichever users a plan serves,
    so a user's noise depends only on (trial, user, t_eff), T_dl values
    with the same t_eff share both, and a selection does not depend on the
    other members of its stack."""
    powers = np.array([10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_db_list])
    plans, estimates, failures = [], [], []
    for t_dl in cfg.tdl_list:
        plan, estimate, failure = None, None, ""
        try:
            plan = solve_sparsification(graph, t_dl, p0=cfg.p0)
            t_eff = min(t_dl, len(plan.beams))  # a pilot never needs more dims than beams
            if plan.users and t_eff < cfg.t:
                estimate = (t_eff, *_estimate(cfg, trial, t_eff, plan, graph, h_beam, powers))
        except _GRID_POINT_ERRORS as exc:
            failure = _failure("sparsify" if plan is None else "grid point", exc)
        plans.append(plan)
        estimates.append(estimate)
        failures.append(failure)
    orders = _select([e[2] if e else None for e in estimates], powers, failures)
    records = []
    for t_dl, plan, estimate, order, failure in zip(
            cfg.tdl_list, plans, estimates, orders, failures):
        rows = [_NO_ONE_SERVED] * len(powers)
        if order is not None:
            try:
                rows = _serve(cfg, plan, h_beam, *estimate, order, powers)
            except _GRID_POINT_ERRORS as exc:
                failure = _failure("grid point", exc)
        records += [ExperimentRecord(trial=trial, tdl=t_dl, snr_db=snr_db, served=served,
                                     matching_size=plan.matching_size if plan else 0,
                                     err_norm=err_norm, sum_rate_bits=rate, failure=failure)
                    for snr_db, (served, err_norm, rate) in zip(cfg.snr_db_list, rows)]
    return records


def _estimate(cfg, trial, t_eff, plan, graph, h_beam, powers) -> tuple:
    """(B h, h_hats) of a plan probed with t_eff pilot dimensions: the true
    effective channels B h (M' x K'') and their MMSE estimates at every
    pilot power (P x M' x K''), made in one stacked call.

    The observation noise of a t_eff is one draw of K t_eff unit-variance
    values from the stream keyed by (trial, t_eff), the pilot's key with
    its own purpose tag, read as a K x t_eff block: user k's noise is row
    k, whichever users the plan serves."""
    # The pilot directions Q^H (unit power), and per selected user B h, the unit
    # observation-noise draw and the MMSE prior (its beam powers on its edges; unit
    # noise power) do not depend on the SNR: observe at every SNR, estimate at once.
    q_h = make_pilot(t_eff, len(plan.beams), cfg.seed, trial, t_eff, _PILOT)
    h_eff = h_beam[np.ix_(plan.beams, plan.users)]
    noise = gaussian_complex(cfg.k * t_eff, cfg.seed, trial, t_eff, _OBS_NOISE
                             ).reshape(cfg.k, t_eff)[plan.users]
    prior = graph[np.ix_(plan.beams, plan.users)].T
    ys = np.stack([dl_observe(np.sqrt(p_dl) * q_h, h_eff.T, noise) for p_dl in powers])
    return h_eff, np.swapaxes(mmse_effective(ys, q_h, prior, powers), 1, 2)


def _select(h_hats: list, powers: np.ndarray, failures: list) -> list:
    """The greedy selections of each T_dl's estimates (P x M' x n, or None
    where the T_dl serves no one), one per pilot power, or None. The
    members of all T_dl values with the same candidate count n go into one
    ``greedy_user_selection`` call. If it raises, each of those T_dl values
    is selected again alone, and only one whose own members raise fails:
    its reason goes into ``failures``. The members are independent, so the
    others get the same selections as in the stack."""
    orders = [None] * len(h_hats)
    groups = {}
    for i, h_hat in enumerate(h_hats):
        if h_hat is not None:
            groups.setdefault(h_hat.shape[2], []).append(i)
    for group in groups.values():
        try:
            for i, order in zip(group, _select_stack([h_hats[i] for i in group], powers)):
                orders[i] = order
        except _GRID_POINT_ERRORS:
            for i in group:
                try:
                    [orders[i]] = _select_stack([h_hats[i]], powers)
                except _GRID_POINT_ERRORS as exc:
                    failures[i] = _failure("grid point", exc)
    return orders


def _select_stack(h_hats: list, powers: np.ndarray) -> list:
    """One ``greedy_user_selection`` call on the Gram matrices of every
    member of the estimate stacks ``h_hats``; their selections, stack by
    stack."""
    grams = np.concatenate([np.einsum("pmi,pmj->pij", h.conj(), h) for h in h_hats])
    flat = greedy_user_selection(grams, np.tile(powers, len(h_hats)),
                                 np.repeat([h.shape[1] for h in h_hats], len(powers)))
    return [flat[k:k + len(powers)] for k in range(0, len(flat), len(powers))]


def _serve(cfg, plan, h_beam, t_eff, h_eff, h_hats, orders, powers) -> list:
    """(served, err_norm, rate) at each pilot power of a plan probed with
    t_eff pilot dimensions, from its true effective channels ``h_eff``, the
    estimates ``h_hats`` and their greedy selections. Only here is the
    training overhead charged: (1 - t_eff/T) on each rate, for the pilot
    dimensions actually sent.

    The powers that serve the same number of users are precoded and rated
    in one stacked call each; a member's row is the one it would get alone."""
    rows = [_NO_ONE_SERVED] * len(powers)
    stacks = {}
    for j, order in enumerate(orders):
        if order:
            stacks.setdefault(len(order), []).append(j)
    for n, js in stacks.items():
        cols = [sorted(orders[j]) for j in js]
        h_hat = np.stack([h_hats[j][:, c] for j, c in zip(js, cols)])
        # greedy selection admitted these sets only after their ZF rank test passed
        v = zf_precoder(h_hat)
        rates = (1.0 - t_eff / cfg.t) * sum_rate(
            effective_gains(np.stack([h_eff[:, c] for c in cols]), v, powers[js]))
        # F is unitary, so ||h - B^H h_hat|| = ||F^H h - h_hat zero-filled||
        h_hat_beam = np.zeros((len(js), cfg.m, n), dtype=complex)
        h_hat_beam[:, plan.beams] = h_hat
        for j, c, h_hat_j, rate in zip(js, cols, h_hat_beam, rates):
            served = [plan.users[i] for i in c]
            rows[j] = (n, normalized_error(h_beam[:, served], h_hat_j), float(rate))
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
    ``err_norm_mean`` is None in a cell where no row serves anyone.
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
            "err_norm_mean": float(np.nanmean(errs)) if np.any(np.isfinite(errs)) else None,
            "served_mean": float(served.mean()),
            "n_failed": sum(bool(r.failure) for r in recs),
        })
    return {"grid": out}


def write_summary_json(summary: dict, path) -> None:
    """Write a ``summarize`` result as indented, strict JSON (no NaN)."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")
