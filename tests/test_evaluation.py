"""Tests for ZF evaluation and the Monte Carlo driver."""

import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fddsim.channel import psd_factor, sample_channels, true_covariance
from fddsim.config import ExperimentConfig
from fddsim.errors import InvalidArgumentError, NumericalError
from fddsim.evaluation import (CSV_HEADER, ZF_COND_TOL, ExperimentRecord, _full_rank_inverse,
                               effective_gains, estimate_user_pipeline,
                               evaluate_tdls, greedy_user_selection, normalized_error,
                               run_experiment, run_trial, sum_rate, summarize,
                               trial_scenario, trial_state, ul_source,
                               write_records_csv, zf_precoder)
from fddsim.numerics import gaussian_complex, rng_stream, toeplitz_average
from fddsim.sparsifier import SparsificationPlan, beam_coefficients, solve_sparsification
from snapshots import bartlett_covariance, dft_matrix


# ---------------------------------------------------------------- zf_precoder

def _zf_gains(h, v):
    """The ZF beamforming gains J_k = |h_k^H v_k|^2 of a beamformer V."""
    return np.abs(np.diag(h.conj().T @ v)) ** 2


def test_zf_orthonormal_channels():
    h = dft_matrix(6)[:, :3]
    v = zf_precoder(h)
    np.testing.assert_allclose(v, h, atol=1e-10)
    np.testing.assert_allclose(_zf_gains(h, v), np.ones(3), atol=1e-10)


def test_zf_single_user_matched_filter():
    h = np.array([[1.0 + 1j], [2.0], [0.5j]])
    v = zf_precoder(h)
    np.testing.assert_allclose(v[:, 0], h[:, 0] / np.linalg.norm(h), atol=1e-12)
    assert abs(_zf_gains(h, v)[0] - np.linalg.norm(h) ** 2) < 1e-10


def test_zf_diagonalizes_estimated_channel():
    h = gaussian_complex(32, 71, 0).reshape(8, 4)
    v = zf_precoder(h)
    prod = h.conj().T @ v
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) < 1e-8
    np.testing.assert_allclose(np.linalg.norm(v, axis=0), np.ones(4), atol=1e-10)


def test_zf_rank_deficient_raises():
    h = np.ones((4, 2), dtype=complex)
    with pytest.raises(NumericalError):
        zf_precoder(h)
    with pytest.raises(InvalidArgumentError):
        zf_precoder(np.ones((2, 3), dtype=complex))


def test_zf_input_errors_keep_their_messages():
    """A 2-D call raises as it always did, and a stack is checked on its
    trailing M' x K'' axes; an empty 2-D sum_rate is still 0.0."""
    with pytest.raises(InvalidArgumentError, match="need an M' x K'' matrix"):
        zf_precoder(np.ones(3, dtype=complex))
    with pytest.raises(InvalidArgumentError, match="need an M' x K'' matrix"):
        zf_precoder(np.ones((3, 0), dtype=complex))
    with pytest.raises(InvalidArgumentError, match="more streams than beams"):
        zf_precoder(np.ones((2, 3), dtype=complex))
    with pytest.raises(InvalidArgumentError, match="more streams than beams"):
        zf_precoder(np.ones((4, 2, 3), dtype=complex))
    h = gaussian_complex(16, 74, 0).reshape(2, 4, 2)
    h[1, :, 1] = h[1, :, 0]  # one rank-deficient member fails the stack
    with pytest.raises(NumericalError, match="estimated channel matrix is rank deficient"):
        zf_precoder(h)
    assert sum_rate(np.zeros((0, 0), dtype=complex)) == 0.0


def _eigvalsh_full_rank(gram):
    """The rank test by eigenvalues alone: w_min > ZF_COND_TOL * w_max."""
    w = np.linalg.eigvalsh(gram)
    return w[0] > ZF_COND_TOL * max(w[-1], 1e-300)


def _near_collinear(m_prime, n_cand, rng):
    """An M' x n estimate whose last column is another one plus a
    perturbation 10^-(4..7) as large, so that Grams holding both columns
    have condition numbers from about 1e8 to 1e14: across both the 1e9
    bound of the inverse screen and the 1e12 rank limit."""
    h = gaussian_complex(m_prime * n_cand, rng).reshape(m_prime, n_cand)
    h[:, -1] = (h[:, int(rng.integers(0, n_cand - 1))]
                + 10.0 ** -rng.uniform(4.0, 7.0) * gaussian_complex(m_prime, rng))
    return h


def _count_eigvalsh(monkeypatch):
    """Record the eigenvalue ratios w_min / w_max of every matrix that
    np.linalg.eigvalsh is called on."""
    ratios = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        w = eigvalsh(a)
        ratios.extend(np.ravel(w[..., 0] / np.maximum(w[..., -1], 1e-300)))
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return ratios


def test_zf_rank_test_screens_by_the_inverse_first(monkeypatch):
    """zf_precoder raises exactly when eigvalsh finds its Gram rank
    deficient, and returns H G^-1 with unit-norm columns; it runs eigvalsh
    only on near-collinear estimates, whose bound ||G||_F ||G^-1||_F does
    not clear 1e9, and never on well-conditioned ones."""
    rng = rng_stream(79, 0)
    ratios = _count_eigvalsh(monkeypatch)
    outcomes = set()
    for collinear in [False, True] * 100:
        m_prime = int(rng.integers(2, 9))
        n_cand = int(rng.integers(2, m_prime + 1))
        h = (_near_collinear(m_prime, n_cand, rng) if collinear
             else gaussian_complex(m_prime * n_cand, rng).reshape(m_prime, n_cand))
        gram = h.conj().T @ h
        full_rank = _eigvalsh_full_rank(gram)
        n_calls = len(ratios)
        try:
            v = zf_precoder(h)
        except NumericalError:
            assert not full_rank and len(ratios) == n_calls + 1
            outcomes.add("deficient")
            continue
        assert full_rank
        screened = len(ratios) > n_calls
        outcomes.add(("full", screened))
        assert collinear or not screened
        pinv_t = h @ np.linalg.inv(gram)
        np.testing.assert_array_equal(v, pinv_t / np.linalg.norm(pinv_t, axis=0))
    assert outcomes == {"deficient", ("full", False), ("full", True)}


# ------------------------------------------------------------ effective gains

def test_effective_gains_perfect_csi_interference_free():
    m = 8
    h_true = gaussian_complex(m * 3, 72, 0).reshape(m, 3)
    h_eff = beam_coefficients(h_true)  # every beam selected: B = F^H
    np.testing.assert_allclose(h_eff, dft_matrix(m).conj().T @ h_true, atol=1e-12)
    v = zf_precoder(h_eff)
    b = effective_gains(h_eff, v, 3.0)
    off = b - np.diag(np.diag(b))
    assert np.max(np.abs(off)) <= 1e-8 * np.linalg.norm(b)
    # uniform power 3 / 3 per stream
    np.testing.assert_allclose(np.abs(np.diag(b)), np.sqrt(_zf_gains(h_eff, v)), atol=1e-8)


def test_effective_gains_zero_channel_row():
    h_eff = gaussian_complex(6, 73, 0).reshape(3, 2)
    v = zf_precoder(h_eff)
    b = effective_gains(np.zeros((3, 2), dtype=complex), v, 1.0)
    np.testing.assert_array_equal(b, np.zeros((2, 2)))


# ------------------------------------------------------------------- sum rate

def test_sum_rate_single_user_closed_form():
    b = np.array([[np.sqrt(3.0)]], dtype=complex)
    assert abs(sum_rate(b) - 2.0) < 1e-12  # log2(1+3) = 2


def test_sum_rate_interference_free_k_users():
    g = 4.0
    b = np.sqrt(g) * np.eye(3, dtype=complex)
    expected = 3 * math.log2(1 + g)
    assert abs(sum_rate(b) - expected) < 1e-12


# ------------------------------------------------------------ greedy selection

def _greedy(estimates, powers):
    """greedy_user_selection on a stack of estimates (M'_p x n each, M'_p
    free per member): their einsum Grams and beam counts."""
    grams = np.stack([np.einsum("mi,mj->ij", h.conj(), h) for h in estimates])
    return greedy_user_selection(grams, np.asarray(powers, dtype=float),
                                 [h.shape[0] for h in estimates])


def test_greedy_orthogonal_users_all_selected():
    h = dft_matrix(8)[:, :4]
    [sel] = _greedy([h], [4.0])
    assert sorted(sel) == [0, 1, 2, 3]


def test_greedy_duplicate_user_selected_once():
    col = gaussian_complex(6, 75, 0)
    h = np.column_stack([col, col])
    [sel] = _greedy([h], [2.0])
    assert len(sel) == 1


def test_greedy_equal_columns_tie_to_the_lowest_index():
    """Two equal strongest columns tie at the first step wherever they sit,
    and the tie goes to the lower index."""
    rng = rng_stream(75, 2)
    for m_prime, n_cand in itertools.product(range(1, 9), range(2, 11)):
        for a, b in itertools.combinations(range(n_cand), 2):
            h = gaussian_complex(m_prime * n_cand, rng).reshape(m_prime, n_cand)
            h[:, a] *= 100.0
            h[:, b] = h[:, a]
            [sel] = _greedy([h], [100.0])
            assert sel[0] == a, (m_prime, n_cand, a, b)


def test_greedy_near_optimal_on_random_instances():
    """Greedy lands in the top-3 subsets by estimated ZF rate almost always."""

    def est_rate(h, idx, p_dl):
        try:
            v = zf_precoder(h[:, idx])
        except (NumericalError, InvalidArgumentError):
            return -np.inf
        return float(np.sum(np.log2(1.0 + _zf_gains(h[:, idx], v) * (p_dl / len(idx)))))

    rng = rng_stream(76, 0)
    hits = 0
    n_trials = 200
    for _ in range(n_trials):
        h = gaussian_complex(40, rng).reshape(8, 5)
        p_dl = 10.0
        sel = frozenset(_greedy([h], [p_dl])[0])
        scored = []
        for r in range(1, 6):
            for combo in itertools.combinations(range(5), r):
                scored.append((est_rate(h, list(combo), p_dl), frozenset(combo)))
        scored.sort(key=lambda s: -s[0])
        if sel in {s for _, s in scored[:3]}:
            hits += 1
    assert hits >= 0.95 * n_trials


def _greedy_per_candidate(h, p_dl):
    """Reference greedy selection: per candidate and step, the rank test by
    eigvalsh alone and then one zf_precoder call, scored by its gains
    J = |diag(H^H V)|^2 at uniform power; the batched selection must match
    it."""
    n_cand = h.shape[1]

    def est_rate(idx):
        if len(idx) > h.shape[0] or not _eigvalsh_full_rank(h[:, idx].conj().T @ h[:, idx]):
            return -math.inf
        v = zf_precoder(h[:, idx])
        return float(np.sum(np.log2(1.0 + _zf_gains(h[:, idx], v) * (p_dl / len(idx)))))

    selected = []
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


def test_greedy_matches_per_candidate_reference(monkeypatch):
    """Every member of a stack of P in {1, 3, 5, 15} estimates at different
    powers gets the reference's selection, including duplicate and zero
    columns, more candidates than beams, column scales 1e-3..1e3, members
    that stop at different steps, members with different beam counts M'
    (so different step caps min(n, M')), as the T_dl values of a trial
    have, and near-collinear columns whose Grams have condition numbers
    of about 1e8..1e14. These reach the eigvalsh fallback of the rank
    test, which both accepts and rejects candidates there."""
    rng = rng_stream(78, 0)
    kinds = set()
    ratios = _count_eigvalsh(monkeypatch)
    fallback = []
    for n_inst in [1, 3, 5, 15] * 75:
        n_cand = int(rng.integers(1, 11))
        if rng.random() < 0.5:
            m_primes = [int(rng.integers(1, 9))] * n_inst
        else:
            m_primes = [int(m) for m in rng.integers(1, 9, n_inst)]
            kinds.add("mixed caps")
        stack = [gaussian_complex(m_prime * n_cand, rng).reshape(m_prime, n_cand)
                 for m_prime in m_primes]
        for p, h in enumerate(stack):
            if n_cand > 1 and rng.random() < 0.2:
                stack[p] = h = _near_collinear(h.shape[0], n_cand, rng)
                kinds.add("near-collinear")
            if rng.random() < 0.3:
                h *= 10.0 ** rng.uniform(-3.0, 3.0, n_cand)
                kinds.add("scaled")
            if n_cand > 1 and rng.random() < 0.2:
                h[:, n_cand - 1] = h[:, int(rng.integers(0, n_cand - 1))]
                kinds.add("duplicate")
            if rng.random() < 0.15:
                h[:, int(rng.integers(0, n_cand))] = 0.0
                kinds.add("zero")
            if h.shape[0] < n_cand:
                kinds.add("wide")
        powers = 10.0 ** rng.uniform(-1.0, 3.0, n_inst)
        n_calls = len(ratios)
        got = _greedy(stack, powers)
        fallback += ratios[n_calls:]
        assert got == [_greedy_per_candidate(h, p_dl) for h, p_dl in zip(stack, powers)]
        if len({len(sel) for sel in got}) > 1:
            kinds.add("staggered")
    assert kinds == {"scaled", "duplicate", "zero", "wide", "staggered", "mixed caps",
                     "near-collinear"}
    fallback = np.array(fallback)
    assert np.any(fallback > ZF_COND_TOL) and np.any((fallback > 0) & (fallback <= ZF_COND_TOL))


def _greedy_lists(gram, p_dl, m_prime):
    """Reference: the lockstep greedy loop on per-member Python lists, which
    the array-driven greedy_user_selection replaced; its selections must be
    equal. Each step stacks the same Gram submatrices, member by member and
    candidate by candidate, and picks by one argmax per member."""
    n_inst, n_cand = gram.shape[:2]
    cap = np.minimum(m_prime, n_cand)
    selected = [[] for _ in range(n_inst)]
    best = np.zeros(n_inst)
    live = list(range(n_inst))
    for size in range(1, int(cap.max(initial=0)) + 1):
        live = [p for p in live if cap[p] >= size]
        if not live:
            break
        cands = [[c for c in range(n_cand) if c not in selected[p]] for p in live]
        idx = np.array([[selected[p] + [c] for c in cs] for p, cs in zip(live, cands)])
        sub = gram[np.array(live)[:, None, None, None], idx[..., :, None], idx[..., None, :]]
        full_rank, inv = _full_rank_inverse(sub)
        rates = np.full(full_rank.shape, -math.inf)
        j = 1.0 / np.diagonal(inv, axis1=1, axis2=2).real
        p_user = (p_dl[live] / size)[np.nonzero(full_rank)[0]]
        rates[full_rank] = np.sum(np.log2(1.0 + j * p_user[:, None]), axis=1)
        still = []
        for row, p in enumerate(live):
            i = int(np.argmax(rates[row]))
            if rates[row, i] > best[p]:
                selected[p].append(cands[row][i])
                best[p] = rates[row, i]
                still.append(p)
        live = still
    return selected


def test_greedy_arrays_match_the_list_loop():
    """The array-driven greedy gives the list-based loop's selections on
    random stacks of einsum Grams: with duplicate columns (ties), zero and
    linearly dependent columns (rank-deficient candidates), beam counts
    below the candidate count (caps m_prime < n), members that stop at
    different steps, and a single candidate (n = 1)."""
    rng = rng_stream(79, 0)
    kinds = set()
    for _ in range(400):
        n_inst = int(rng.integers(1, 16))
        n_cand = int(rng.integers(1, 9))
        m_prime = rng.integers(1, 9, n_inst)
        grams = []
        for p in range(n_inst):
            h = gaussian_complex(8 * n_cand, rng).reshape(8, n_cand)
            h[int(m_prime[p]):] = 0.0  # rank at most M'_p
            if n_cand > 1 and rng.random() < 0.3:
                a, b = rng.choice(n_cand, 2, replace=False)
                h[:, b] = h[:, a]
                kinds.add("duplicate")
            if n_cand > 2 and rng.random() < 0.2:
                h[:, -1] = h[:, 0] - 2.0 * h[:, 1]
                kinds.add("dependent")
            if rng.random() < 0.15:
                h[:, int(rng.integers(0, n_cand))] = 0.0
                kinds.add("zero")
            grams.append(np.einsum("mi,mj->ij", h.conj(), h))
        grams = np.stack(grams)
        powers = 10.0 ** rng.uniform(-1.0, 3.0, n_inst)
        got = greedy_user_selection(grams, powers, m_prime)
        assert got == _greedy_lists(grams, powers, m_prime)
        assert all(type(c) is int for sel in got for c in sel)
        if np.any(m_prime < n_cand):
            kinds.add("capped")
        if len({len(sel) for sel in got}) > 1:
            kinds.add("staggered")
        if n_cand == 1:
            kinds.add("n = 1")
    assert kinds == {"duplicate", "dependent", "zero", "capped", "staggered", "n = 1"}


def test_greedy_rejects_an_unstacked_estimate():
    gram = np.eye(2, dtype=complex)
    with pytest.raises(InvalidArgumentError):
        greedy_user_selection(gram, 2.0, 3)
    with pytest.raises(InvalidArgumentError):
        greedy_user_selection(gram[None], np.array([2.0, 4.0]), [3])
    with pytest.raises(InvalidArgumentError):
        greedy_user_selection(gram[None], np.array([2.0]), [3, 3])
    with pytest.raises(InvalidArgumentError):
        greedy_user_selection(gram[None], np.array([2.0]), [0])
    with pytest.raises(InvalidArgumentError):
        greedy_user_selection(np.ones((1, 2, 3), dtype=complex), np.array([2.0]), [3])


def test_run_trial_selects_each_tdl_in_one_stacked_call(monkeypatch):
    """On the acceptance config a trial makes one greedy call, on the stack
    of every T_dl's estimates at every SNR: 15 members at powers
    10/100/1000 per T_dl, each the einsum Gram of its own estimate with
    that estimate's beam count M'."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(m=64, k=8, t=64, tdl_list=[8, 16, 24, 32, 48],
                           snr_db_list=[10.0, 20.0, 30.0], n_trials=1, seed=1,
                           n_ul=500, th_rel=1e-3)
    calls, estimates = [], []
    greedy, mmse = ev.greedy_user_selection, ev.mmse_effective

    def recording(gram, p_dl, m_prime):
        calls.append((gram, list(p_dl), list(m_prime)))
        return greedy(gram, p_dl, m_prime)

    monkeypatch.setattr(ev, "greedy_user_selection", recording)
    monkeypatch.setattr(ev, "mmse_effective",
                        lambda *args: estimates.append(np.swapaxes(mmse(*args), 1, 2))
                        or np.swapaxes(estimates[-1], 1, 2))
    records = run_trial(cfg, 0)
    assert len(records) == 15 and not any(r.failure for r in records)
    assert len(estimates) == len(cfg.tdl_list)
    [(gram, powers, m_prime)] = calls
    assert powers == [10.0, 100.0, 1000.0] * len(cfg.tdl_list)
    assert m_prime == [h.shape[1] for h in estimates for _ in cfg.snr_db_list]
    np.testing.assert_array_equal(
        gram, np.concatenate([np.einsum("pmi,pmj->pij", h.conj(), h) for h in estimates]))


def test_serve_stacks_each_tdls_powers_bit_for_bit(monkeypatch):
    """A T_dl's SNR members that serve the same number of users are
    precoded and rated in one stacked call each. On trial 0 of the
    acceptance config T_dl 8 serves 6, 7 and 7 users at 10, 20 and 30 dB,
    so it makes stacks of 1 and 2 members, and each other T_dl one stack of
    3. Every member of a stacked zf_precoder, effective_gains and sum_rate
    call gets the bits of its own 2-D call."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(m=64, k=8, t=64, tdl_list=[8, 16, 24, 32, 48],
                           snr_db_list=[10.0, 20.0, 30.0], n_trials=1, seed=1,
                           n_ul=500, th_rel=1e-3)
    calls = {"zf_precoder": [], "effective_gains": [], "sum_rate": []}
    for name in calls:
        def recording(*args, f=getattr(ev, name), name=name):
            calls[name].append((args, f(*args)))
            return calls[name][-1][1]
        monkeypatch.setattr(ev, name, recording)
    records = run_trial(cfg, 0)
    monkeypatch.undo()
    assert [r.served for r in records if r.tdl == 8] == [6, 7, 7]
    assert not any(r.failure for r in records)
    assert [len(h) for (h,), _ in calls["zf_precoder"]] == [1, 2, 3, 3, 3, 3]
    for (h,), v in calls["zf_precoder"]:
        for h_p, v_p in zip(h, v):
            assert v_p.tobytes() == zf_precoder(h_p).tobytes()
    for (h, v, p_dl), b in calls["effective_gains"]:
        for h_p, v_p, p_p, b_p in zip(h, v, p_dl, b):
            assert b_p.tobytes() == effective_gains(h_p, v_p, p_p).tobytes()
    for (b,), rates in calls["sum_rate"]:
        assert rates.tolist() == [sum_rate(b_p) for b_p in b]


def test_rank_deficient_member_fails_its_whole_tdl(monkeypatch):
    """When ZF finds one SNR member of a T_dl rank deficient (here T_dl 8
    at 20 dB, whose selection is made to hold one user twice), every SNR of
    that T_dl is a zero-rate row with the plan's matching size and the
    reason ZF gives, and T_dl 4 keeps its records."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**SMALL)
    ref = run_trial(cfg, 0)
    select = ev._select

    def repeating(h_hats, powers, failures):
        orders = select(h_hats, powers, failures)
        orders[1][1] = orders[1][1][:1] * 2
        return orders

    monkeypatch.setattr(ev, "_select", repeating)
    records = run_trial(cfg, 0)
    assert ([r.csv_row() for r in records if r.tdl == 4]
            == [r.csv_row() for r in ref if r.tdl == 4])
    failed = [r for r in records if r.tdl == 8]
    assert [r.snr_db for r in failed] == cfg.snr_db_list
    matching_size = [r.matching_size for r in ref if r.tdl == 8]
    for rec, size in zip(failed, matching_size):
        assert rec.failure == ("grid point: NumericalError: "
                               "zf_precoder: estimated channel matrix is rank deficient")
        assert (rec.served, rec.matching_size, rec.sum_rate_bits) == (0, size, 0.0)
        assert math.isnan(rec.err_norm)


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


def test_run_experiment_caps_workers_at_trials(monkeypatch):
    """--threads 500 on a 2-trial config asks the pool for 2 workers. The
    recording executor runs the trials in this process and forks nothing."""
    import fddsim.evaluation as ev

    asked = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    cfg = ExperimentConfig(**SMALL)
    monkeypatch.setattr(ev, "ProcessPoolExecutor", RecordingExecutor)
    records = run_experiment(cfg, threads=500)
    assert asked == [cfg.n_trials] == [2]
    assert len(records) == 2 * 2 * 2


def test_run_experiment_zero_trials():
    cfg = ExperimentConfig(**{**SMALL, "n_trials": 0})
    assert run_experiment(cfg) == []


def test_pipeline_ul_covariance_equals_bartlett_reference(monkeypatch):
    """The UL column the angular fit receives is the Toeplitz average of
    F A A^H F^H / n_ul - sigma2 I (tests/snapshots.py), with
    F = psd_factor(c, sigma2) the factor of T + sigma2 I, T the Toeplitz
    matrix of the user's true UL covariance column c (the user's
    ul_source), and A the r x r Bartlett factor drawn from the user's UL
    stream in that trial, within 1e-14 of its largest entry (observed
    1.1e-15), with c[0] exactly real."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**SMALL)
    users = trial_scenario(cfg, 1)
    seen = []
    fit = ev.estimate_asf
    monkeypatch.setattr(ev, "estimate_asf", lambda c: seen.append(c.copy()) or fit(c))
    f = psd_factor(true_covariance(users[2].asf, cfg.m, 1.0), cfg.ul_sigma2)
    np.testing.assert_array_equal(ul_source(cfg, users[2].asf), f)
    estimate_user_pipeline(cfg, f, 1, 2)

    assert f.shape[1] == cfg.m <= cfg.n_ul  # sigma2 > 0: full rank, A square
    ref = toeplitz_average(bartlett_covariance(f, cfg.n_ul, cfg.ul_sigma2,
                                               cfg.seed, 1, 2, ev._UL_COV))
    assert len(seen) == 1 and seen[0].shape == (cfg.m,) and seen[0][0].imag == 0.0
    assert np.abs(seen[0] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_run_trial_averages_no_matrix(monkeypatch):
    """A trial never forms an M x M sample covariance to average: it runs
    with ``toeplitz_average`` raising in every fddsim module that holds it."""
    import fddsim.evaluation as ev

    def refuse(a):
        raise AssertionError("toeplitz_average called")

    assert not hasattr(ev, "toeplitz_average")
    for name, module in list(sys.modules.items()):
        if name.startswith("fddsim") and hasattr(module, "toeplitz_average"):
            monkeypatch.setattr(module, "toeplitz_average", refuse)
    records = run_trial(ExperimentConfig(**SMALL), 1)
    assert records and not any(rec.failure for rec in records)


def test_run_trial_dl_channels_equal_reference_draw(monkeypatch):
    """The true DL channels a trial evaluates against are bit for bit each
    user's one draw from its DL covariance column (carrier ratio alpha) on
    the user's DL channel stream."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**SMALL)
    assert cfg.alpha > 1.0  # a UL-ratio draw would not match
    seen = []
    coefficients = ev.beam_coefficients
    monkeypatch.setattr(ev, "beam_coefficients",
                        lambda h: seen.append(h.copy()) or coefficients(h))
    run_trial(cfg, 1)
    assert len(seen) == 1 and seen[0].shape == (cfg.m, cfg.k)
    for k, u in enumerate(trial_scenario(cfg, 1)):
        ref = sample_channels(psd_factor(true_covariance(u.asf, cfg.m, cfg.alpha)), 1,
                              cfg.seed, 1, k, ev._DL_CHAN)[:, 0]
        np.testing.assert_array_equal(seen[0][:, k], ref)


@pytest.mark.parametrize("trial", [0, 1])
def test_trial_state_factors_once_per_distinct_asf(trial, monkeypatch):
    """A 3-cluster trial of the acceptance config (8 users, at most 3
    cluster pairs) factors each cluster pair's ASF once per band: 2 x
    (distinct cluster pairs) psd_factor calls, whichever order its users
    picked the pair in. Its beam graph and F^H h equal the per-user
    reference bit for bit: each user's own estimate_user_pipeline on its own
    ul_source, and its own draw from its own DL factor."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(m=64, k=8, t=64, tdl_list=[8], snr_db_list=[20.0],
                           n_trials=2, seed=1, n_ul=500, th_rel=1e-3)
    users = trial_scenario(cfg, trial)
    distinct = {frozenset(u.cluster_indices) for u in users}
    assert len(distinct) == 3  # every pair occurs

    spectra = np.column_stack([estimate_user_pipeline(cfg, ul_source(cfg, u.asf), trial, k)[2]
                               for k, u in enumerate(users)])
    h_ref = np.column_stack([
        sample_channels(psd_factor(true_covariance(u.asf, cfg.m, cfg.alpha)), 1,
                        cfg.seed, trial, k, ev._DL_CHAN)[:, 0] for k, u in enumerate(users)])

    factored = []
    factor = ev.psd_factor
    monkeypatch.setattr(ev, "psd_factor",
                        lambda *args: factored.append(args) or factor(*args))
    graph, h_beam = trial_state(cfg, trial)
    assert len(factored) == 2 * len(distinct)
    np.testing.assert_array_equal(graph, ev.build_beam_graph(spectra, th_rel=cfg.th_rel))
    np.testing.assert_array_equal(h_beam, beam_coefficients(h_ref))


def test_trial_state_extrapolates_only_the_dl_band(monkeypatch):
    """A trial extrapolates each user's fitted measure once, to the DL band:
    the fitted UL column, which only ``fddsim extrapolate`` exports, is not
    computed."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**SMALL)
    alphas = []
    extrapolate = ev.extrapolate_dl
    monkeypatch.setattr(ev, "extrapolate_dl",
                        lambda z, m, alpha: alphas.append(alpha) or extrapolate(z, m, alpha))
    trial_state(cfg, 0)
    assert alphas == [cfg.alpha] * cfg.k


def test_run_trial_draws_without_eigh(monkeypatch):
    """A trial of the acceptance config draws its UL covariances and DL
    channels from pivoted Cholesky factors: with np.linalg.eigh made to
    raise, it runs with no failed record, and its records are those of the
    same trial run without the patch."""
    cfg = ExperimentConfig(m=64, k=8, t=64, tdl_list=[8, 16, 24, 32, 48],
                           snr_db_list=[10.0, 20.0, 30.0], n_trials=2, seed=1,
                           n_ul=500, th_rel=1e-3)

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    records = run_trial(cfg, 1)
    monkeypatch.undo()
    assert not any(r.failure for r in records)
    assert [r.csv_row() for r in records] == [r.csv_row() for r in run_trial(cfg, 1)]


@pytest.mark.parametrize("stage, error", [
    ("mmse_effective", NumericalError("mmse_effective: singular observation covariance")),
    ("greedy_user_selection", FloatingPointError("overflow encountered in multiply")),
    ("effective_gains", FloatingPointError("overflow encountered in multiply")),
], ids=["estimate", "selection", "serve"])
def test_failed_dl_stage_fails_every_snr_of_its_tdl(monkeypatch, stage, error):
    """The estimate of a T_dl runs once, stacked over its SNRs, and the
    selection once, stacked over every T_dl's estimates. When the estimate
    of T_dl 8 raises, or the selection raises on a stack holding T_dl 8's
    members, every SNR of T_dl 8 is a zero-rate row naming the error, with
    the plan's matching size, and no SNR is re-run alone; T_dl 4 keeps its
    records. After a raise the selection runs again on each T_dl alone, so
    only T_dl 8 is charged. Rating T_dl 8's M' = 8 beams with gains that
    overflow fails T_dl 8 the same way: numpy itself raises the overflow."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**SMALL)
    ref = run_trial(cfg, 0)
    graph, _ = trial_state(cfg, 0)
    calls = {"mmse_effective": [], "greedy_user_selection": []}
    grams = {}  # t_eff -> the einsum Grams of its estimates
    mmse, greedy, effective = ev.mmse_effective, ev.greedy_user_selection, ev.effective_gains

    def estimate(*args):
        t_eff = args[0].shape[2]
        calls["mmse_effective"].append(t_eff)
        if stage == "mmse_effective" and t_eff == 8:
            raise error
        out = mmse(*args)
        h = np.swapaxes(out, 1, 2)
        grams[t_eff] = np.einsum("pmi,pmj->pij", h.conj(), h)
        return out

    def select(gram, p_dl, m_prime):
        # the t_eff of each member, by the estimate its Gram was formed from
        members = [t for g in gram for t, gs in grams.items()
                   if any(np.array_equal(g, x) for x in gs)]
        assert len(members) == len(gram)
        calls["greedy_user_selection"].append(members)
        if stage == "greedy_user_selection" and 8 in members:
            raise error
        return greedy(gram, p_dl, m_prime)

    def gains(h, v, p_dl):
        b = effective(h, v, p_dl)
        return b * 1e300 * 1e300 if stage == "effective_gains" and h.shape[-2] == 8 else b

    monkeypatch.setattr(ev, "mmse_effective", estimate)
    monkeypatch.setattr(ev, "greedy_user_selection", select)
    monkeypatch.setattr(ev, "effective_gains", gains)
    records = run_trial(cfg, 0)
    assert calls["mmse_effective"] == [4, 8]
    assert calls["greedy_user_selection"] == {
        "mmse_effective": [[4, 4]],
        "greedy_user_selection": [[4, 4, 8, 8], [4, 4], [8, 8]],
        "effective_gains": [[4, 4, 8, 8]]}[stage]
    assert ([r.csv_row() for r in records if r.tdl == 4]
            == [r.csv_row() for r in ref if r.tdl == 4])
    failed = [r for r in records if r.tdl == 8]
    assert [r.snr_db for r in failed] == cfg.snr_db_list
    matching_size = solve_sparsification(graph, 8, p0=cfg.p0).matching_size
    for rec in failed:
        assert rec.failure == f"grid point: {type(error).__name__}: {error}"
        assert (rec.served, rec.matching_size, rec.sum_rate_bits) == (0, matching_size, 0.0)
        assert math.isnan(rec.err_norm)


def test_invalid_argument_in_dl_stage_stops_the_trial(monkeypatch):
    """Only solver and floating-point errors fail a grid point. Config
    validates T_dl, P0 and the SNRs, and every plan fits its pilots and
    selections to its M' beams, so an InvalidArgumentError in a DL stage is
    a bug: it propagates instead of becoming zero-rate rows that the summary
    would average in."""
    import fddsim.evaluation as ev

    def bad_pilot(*args):
        raise InvalidArgumentError("make_pilot: internal")

    cfg = ExperimentConfig(**SMALL)
    monkeypatch.setattr(ev, "make_pilot", bad_pilot)
    with pytest.raises(InvalidArgumentError, match="make_pilot: internal"):
        run_trial(cfg, 0)


@pytest.mark.parametrize("m", [16, 64])
def test_snr_at_the_bound_runs_without_failure(m):
    """At the highest SNR the config admits, 10 log10(2^53/M) dB, the unit
    noise of p G + I survives rounding: no grid point of 3 trials fails,
    and no floating-point warning is raised (pytest makes them errors)."""
    bound = 10 * math.log10(2.0 ** 53 / m)
    cfg = ExperimentConfig(**{**SMALL, "m": m, "t": max(32, m), "snr_db_list": [bound],
                              "n_trials": 3})
    records = run_experiment(cfg)
    assert len(records) == 3 * len(cfg.tdl_list)
    assert not any(r.failure for r in records)
    assert all(r.served > 0 and math.isfinite(r.sum_rate_bits) for r in records)


@pytest.mark.parametrize("t_dl", [24, 32])
def test_overhead_charges_the_pilots_sent(monkeypatch, t_dl):
    """A T_dl above the plan's M' = 16 beams sends t_eff = 16 pilots and its
    rate is charged (1 - t_eff/T) for them: its records are those of
    T_dl = 16 in the same sweep, whose pilot and noise draws it shares. At
    T_dl = T a charge of T_dl would leave nothing to serve."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**{**SMALL, "tdl_list": [16, 24, 32]})
    assert t_dl <= cfg.t == 32
    graph, h_beam = trial_state(cfg, 0)
    assert len(solve_sparsification(graph, t_dl, p0=cfg.p0).beams) == cfg.m < t_dl
    gains = {}  # pilot power -> its received-symbol coefficients
    effective = ev.effective_gains

    def recording(h, v, p_dl):
        b = effective(h, v, p_dl)
        gains.update(zip(np.ravel(p_dl), b.reshape(-1, *b.shape[-2:])))
        return b

    monkeypatch.setattr(ev, "effective_gains", recording)
    got = evaluate_tdls(replace(cfg, tdl_list=[t_dl]), 0, graph, h_beam)
    monkeypatch.undo()
    ref = evaluate_tdls(replace(cfg, tdl_list=[cfg.m]), 0, graph, h_beam)

    def fields(r):
        return (r.snr_db, r.served, r.matching_size, r.err_norm, r.sum_rate_bits, r.failure)

    assert [fields(r) for r in got] == [fields(r) for r in ref]
    assert all(r.served > 0 for r in got)
    for rec in got:
        b = gains[10.0 ** (rec.snr_db / 10.0)]
        mags = np.abs(b) ** 2
        sig = np.diag(mags)
        bits = np.sum(np.log2(1.0 + sig / (1.0 + mags.sum(axis=1) - sig)))
        assert rec.sum_rate_bits == pytest.approx((1.0 - cfg.m / cfg.t) * bits, rel=1e-12)


def test_pilots_that_fill_the_frame_serve_no_one(monkeypatch, tmp_path):
    """At th_rel 0 the plan of T_dl = T = M takes every beam, so its
    t_eff = T pilots leave no symbol for data: every SNR is a zero-rate row
    with the plan's matching size and no failure, and nothing is estimated
    or selected. `simulate` writes those rows and exits 0."""
    import fddsim.evaluation as ev
    from fddsim.cli import main

    cfg = ExperimentConfig(**{**SMALL, "t": 16, "tdl_list": [8, 16], "th_rel": 0.0})
    graph, h_beam = trial_state(cfg, 0)
    plan = solve_sparsification(graph, cfg.t, p0=cfg.p0)
    assert len(plan.beams) == cfg.m == cfg.t and plan.matching_size > 0

    def refuse(*args):
        raise AssertionError("the DL stage ran")

    monkeypatch.setattr(ev, "mmse_effective", refuse)
    monkeypatch.setattr(ev, "greedy_user_selection", refuse)
    records = evaluate_tdls(replace(cfg, tdl_list=[cfg.t]), 0, graph, h_beam)
    monkeypatch.undo()
    assert [r.snr_db for r in records] == cfg.snr_db_list
    for rec in records:
        assert (rec.served, rec.matching_size, rec.sum_rate_bits, rec.failure) == (
            0, plan.matching_size, 0.0, "")
        assert math.isnan(rec.err_norm)

    path = tmp_path / "frame.cfg"
    path.write_text("M = 16\nK = 3\nT = 16\ntdl_list = 8, 16\nsnr_db_list = 10, 20\n"
                    "n_trials = 2\nn_ul = 200\nseed = 7\nth_rel = 0\n")
    out = tmp_path / "records.csv"
    assert main(["simulate", str(path), "-o", str(out)]) == 0
    rows = out.read_text().split("\n")[1:-1]
    assert rows == [r.csv_row() for r in run_experiment(cfg)]
    full = [row.split(",") for row in rows if row.split(",")[1] == "16"]
    assert len(full) == 4 and all(f[3] == "0" and f[5:] == ["nan", "0"] for f in full)


def test_run_trial_runs_the_per_user_estimator(monkeypatch):
    """A trial estimates its users with estimate_user_pipeline, the
    estimator `fddsim extrapolate` runs, once per user on the user's own
    ul_source, and sparsifies the beam graph of the spectra it returns."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**SMALL)
    calls, spectra, graphs = [], [], []
    pipeline, solve = ev.estimate_user_pipeline, ev.solve_sparsification
    users = trial_scenario(cfg, 0)

    def recording(cfg_, ul, trial, k):
        np.testing.assert_array_equal(ul, ul_source(cfg, users[k].asf))
        out = pipeline(cfg_, ul, trial, k)
        calls.append((trial, k))
        spectra.append(out[2])
        return out

    monkeypatch.setattr(ev, "estimate_user_pipeline", recording)
    monkeypatch.setattr(ev, "solve_sparsification",
                        lambda g, *args, **kw: graphs.append(g) or solve(g, *args, **kw))
    run_trial(cfg, 0)
    assert calls == [(0, k) for k in range(cfg.k)]
    assert len(graphs) == len(cfg.tdl_list)
    ref = ev.build_beam_graph(np.column_stack(spectra), th_rel=cfg.th_rel)
    for g in graphs:
        np.testing.assert_array_equal(g, ref)


# A sweep whose plans reach M' < T_dl (T_dl 16 and 24 can share t_eff = M').
SWEEP = dict(m=16, k=4, t=32, tdl_list=[2, 4, 8, 16, 24], snr_db_list=[0.0, 10.0, 20.0],
             n_trials=2, seed=5, n_ul=200)


@pytest.fixture(scope="module")
def full_sweep():
    return {(r.trial, r.tdl, r.snr_db): (r.csv_row(), r.failure)
            for r in run_experiment(ExperimentConfig(**SWEEP))}


@pytest.mark.parametrize("tdl_list, snr_db_list", [
    ([24, 16, 8, 4, 2], [20.0, 10.0, 0.0]),
    ([8], [10.0]),
    ([16, 4], [20.0, 0.0]),
    ([2, 24], [10.0]),
    ([24, 8, 16], [0.0, 20.0]),
])
def test_rows_depend_only_on_their_grid_point(full_sweep, tdl_list, snr_db_list):
    """A row is a function of its own (trial, T_dl, SNR): a run over any
    subset of the T_dl and SNR lists, in any order, writes the full sweep's
    rows for the grid points it keeps, failure reasons included."""
    cfg = ExperimentConfig(**{**SWEEP, "tdl_list": tdl_list, "snr_db_list": snr_db_list})
    records = run_experiment(cfg)
    assert len(records) == cfg.n_trials * len(tdl_list) * len(snr_db_list)
    for r in records:
        assert (r.csv_row(), r.failure) == full_sweep[(r.trial, r.tdl, r.snr_db)]


def test_no_stream_serves_two_kinds_of_draw(monkeypatch):
    """Every random stream a trial opens belongs to one kind of draw: the
    scenario, a user's UL covariance or DL channel, a pilot, or a user's
    observation noise. With K = 6 users and pilot dimensions 1 and 3, which
    equal the UL and DL purpose tags, no stream path is opened by two
    kinds. A kind is named by the function outside ``numerics`` that
    opened the stream: there are five."""
    import fddsim.channel as channel
    import fddsim.numerics as numerics

    kinds = {}

    def spy(stream):
        def wrapped(seed, *path):
            frame = sys._getframe(1)
            while (frame.f_code.co_filename == numerics.__file__
                   or frame.f_code.co_name.startswith("<")):  # a comprehension's frame
                frame = frame.f_back
            kinds.setdefault((seed, *path), set()).add(frame.f_code.co_name)
            return stream(seed, *path)
        return wrapped

    monkeypatch.setattr(numerics, "rng_stream", spy(numerics.rng_stream))
    monkeypatch.setattr(channel, "rng_stream", spy(channel.rng_stream))
    cfg = ExperimentConfig(m=16, k=6, t=32, tdl_list=[1, 3, 8, 16, 24], snr_db_list=[10.0],
                           n_trials=2, seed=3, n_ul=200)
    records = [r for trial in range(cfg.n_trials) for r in run_trial(cfg, trial)]
    assert all(r.served > 0 and not r.failure for r in records)
    assert len(set().union(*kinds.values())) == 5
    assert {path: names for path, names in kinds.items() if len(names) > 1} == {}


def test_observation_noise_is_row_k_of_one_block_per_t_eff(monkeypatch):
    """dl_observe receives user k's noise as row k of one K x t_eff block,
    drawn from the stream (trial, t_eff, observation noise): at every SNR of
    two T_dl values with the same t_eff (T_dl 16 and 24, both probing the
    plan's M' = 16 beams with 16 pilots), and in two plans at one t_eff
    that serve different users, where the user they share gets the same
    noise."""
    import fddsim.evaluation as ev

    cfg = ExperimentConfig(**{**SMALL, "tdl_list": [16, 24]})
    graph, h_beam = trial_state(cfg, 0)
    seen = []
    observe = ev.dl_observe

    def recording(psi, bh, noise):
        seen.append((psi.shape[0], noise.copy()))
        return observe(psi, bh, noise)

    def block(t_eff):
        return gaussian_complex(cfg.k * t_eff, cfg.seed, 0, t_eff,
                                ev._OBS_NOISE).reshape(cfg.k, t_eff)

    monkeypatch.setattr(ev, "dl_observe", recording)
    users = solve_sparsification(graph, 16, p0=cfg.p0).users
    assert len(users) > 1 and solve_sparsification(graph, 24, p0=cfg.p0).users == users
    evaluate_tdls(cfg, 0, graph, h_beam)
    assert len(seen) == 2 * len(cfg.snr_db_list)
    for t_eff, noise in seen:
        assert t_eff == cfg.m == 16
        np.testing.assert_array_equal(noise, block(16)[users])

    noises = {}
    for subset in ([0, 2], [1, 2]):
        plan = SparsificationPlan(beams=list(range(cfg.m)), users=subset,
                                  matching_size=len(subset), objective=0.0, node_count=0)
        monkeypatch.setattr(ev, "solve_sparsification", lambda *args, plan=plan, **kw: plan)
        seen.clear()
        evaluate_tdls(replace(cfg, tdl_list=[8]), 0, graph, h_beam)
        assert len(seen) == len(cfg.snr_db_list)
        for t_eff, noise in seen:
            assert t_eff == 8
            np.testing.assert_array_equal(noise, block(8)[subset])
        noises[tuple(subset)] = noise
    np.testing.assert_array_equal(noises[(0, 2)][1], noises[(1, 2)][1])
    assert not np.array_equal(noises[(0, 2)][0], noises[(1, 2)][0])


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
    recs = [ExperimentRecord(trial=t, tdl=8, snr_db=10.0, served=2, matching_size=2,
                             err_norm=0.1, sum_rate_bits=float(t + 1))
            for t in range(4)]
    out = summarize(recs)["grid"]
    assert len(out) == 1
    row = out[0]
    assert row["tdl"] == 8 and row["n_trials"] == 4
    assert abs(row["sum_rate_mean"] - 2.5) < 1e-12
    expected_se = np.std([1, 2, 3, 4], ddof=1) / 2
    assert abs(row["sum_rate_se"] - expected_se) < 1e-12


def test_failed_grid_points_carry_their_reason(monkeypatch, tmp_path, capsys):
    """A solver error becomes a zero-rate row that names its reason; the
    summary counts it per cell and `simulate` reports it on stderr. The
    records CSV is unchanged."""
    import fddsim.evaluation as ev
    from fddsim.cli import main

    def fail(*args, **kwargs):
        raise NumericalError("HiGHS gave up")

    cfg = ExperimentConfig(**SMALL)
    assert all(not r.failure for r in run_experiment(cfg))
    monkeypatch.setattr(ev, "solve_sparsification", fail)
    records = run_experiment(cfg)
    assert len(records) == 8
    for rec in records:
        assert rec.failure == "sparsify: NumericalError: HiGHS gave up"
        assert (rec.served, rec.matching_size, rec.sum_rate_bits) == (0, 0, 0.0)
        assert rec.csv_row().count(",") == 6
    for row in summarize(records)["grid"]:
        assert row["n_failed"] == row["n_trials"] == 2
        assert row["sum_rate_mean"] == 0.0

    path = tmp_path / "exp.cfg"
    path.write_text("M = 16\nK = 3\nT = 32\ntdl_list = 4, 8\nsnr_db_list = 10, 20\n"
                    "n_trials = 2\nn_ul = 200\nseed = 7\n")
    out = tmp_path / "records.csv"
    assert main(["simulate", str(path), "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "8 of 8 grid points failed" in err
    assert "first: trial 0 Tdl=4 snr=10: sparsify: NumericalError: HiGHS gave up" in err
    assert out.read_text().split("\n")[0] == CSV_HEADER


# Trial 0 of the acceptance Monte Carlo config (M=64, K=8, n_ul=500,
# th_rel=1e-3) for config seeds 1 and 8: (seed, Tdl, snr_db, served,
# matching_size, err_norm, sum_rate_bits). served is the greedy ZF decision.
GOLDEN_TRIAL0 = [
    (1, 8, 10, 6, 8, 0.506440818628014, 19.18157550273542),
    (1, 8, 20, 7, 8, 0.5075295623594186, 35.784221613640085),
    (1, 8, 30, 7, 8, 0.5064345314828064, 55.94717470993292),
    (1, 16, 10, 8, 8, 0.17722869821688367, 26.157361073957585),
    (1, 16, 20, 8, 8, 0.1627358797173095, 45.09612259935623),
    (1, 16, 30, 8, 8, 0.16097951382393863, 64.72489696668197),
    (1, 24, 10, 8, 8, 0.04934427874512521, 23.328359440643254),
    (1, 24, 20, 8, 8, 0.023934572132459697, 39.09567004909961),
    (1, 24, 30, 8, 8, 0.02078207425658467, 55.350541012928616),
    (1, 32, 10, 8, 8, 0.047317351064795975, 18.111275734359417),
    (1, 32, 20, 8, 8, 0.012503484206039868, 31.232464544281907),
    (1, 32, 30, 8, 8, 0.00758450324402929, 44.48478791058507),
    (1, 48, 10, 8, 8, 0.04133985785564894, 9.607992927087022),
    (1, 48, 20, 8, 8, 0.008459565135486175, 15.987620179432438),
    (1, 48, 30, 8, 8, 0.003169903430676855, 22.503769253206293),
    (8, 8, 10, 6, 8, 0.5558630404458709, 20.835360774592353),
    (8, 8, 20, 7, 8, 0.5425493392653887, 36.793030502453625),
    (8, 8, 30, 8, 8, 0.5241598500591973, 58.36253316336881),
    (8, 16, 10, 8, 8, 0.21028372670708262, 26.453314903190517),
    (8, 16, 20, 8, 8, 0.19560218701026144, 44.82603938272392),
    (8, 16, 30, 8, 8, 0.19383256056657516, 64.27890883734791),
    (8, 24, 10, 8, 8, 0.06315051521401173, 24.012104660317313),
    (8, 24, 20, 8, 8, 0.03952880546319165, 40.30935949472992),
    (8, 24, 30, 8, 8, 0.036499696486654215, 56.79560710258531),
    (8, 32, 10, 8, 8, 0.04543072436297759, 20.607410279227473),
    (8, 32, 20, 8, 8, 0.019246695887194968, 33.55798552372747),
    (8, 32, 30, 8, 8, 0.01562506976917863, 46.707404907617686),
    (8, 48, 10, 8, 8, 0.03664033662902042, 10.20786345246891),
    (8, 48, 20, 8, 8, 0.009850902680269788, 16.491416691574877),
    (8, 48, 30, 8, 8, 0.0051706443022672185, 23.056728252999605),
]


def test_acceptance_scale_trial_records_golden():
    got = []
    for seed in (1, 8):
        cfg = ExperimentConfig(m=64, k=8, t=64, tdl_list=[8, 16, 24, 32, 48],
                               snr_db_list=[10.0, 20.0, 30.0], n_trials=1,
                               seed=seed, n_ul=500, th_rel=1e-3)
        got += [((seed, rec.tdl, rec.snr_db), rec) for rec in run_trial(cfg, 0)]
    assert len(got) == len(GOLDEN_TRIAL0)
    for (cell, rec), (seed, tdl, snr, served, matching, err, rate) in zip(got, GOLDEN_TRIAL0):
        assert cell == (seed, tdl, snr)
        assert (rec.served, rec.matching_size) == (served, matching), cell
        assert rec.err_norm == pytest.approx(err, rel=1e-9), cell
        assert rec.sum_rate_bits == pytest.approx(rate, rel=1e-9), cell


# Per-cell (sum_rate_mean, served_mean) of SMALL run for 3 trials. The
# tolerance (1e-6 relative) absorbs BLAS round-off but not an estimator
# change: moving the UL estimator from Dykstra + NNLS to the weighted NNLS
# on the Toeplitz average shifted these means by up to 1.8e-4 relative, and
# taking the strongest beams of each beam class raised them by 16-24%.
# Drawing the UL sample covariance from its Wishart law instead of from
# explicit pilots gave new UL draws and moved these 3-trial means by up to
# 12%; over 400 trials each cell's mean moved by less than 1 combined SE.
# Coloring the UL and DL draws by pivoted Cholesky factors instead of eigh
# factors gave new draws again and moved them by up to 9.5%. Keying the
# pilot and noise streams by the pilot dimensions sent instead of by the
# T_dl's position in tdl_list gave new DL draws and moved them by up to 9.7%.
# Fitting the angular measure on 2M grid angles instead of 4M moved them by
# up to 4.2%. Drawing each t_eff's observation noise as one K x t_eff block
# keyed by (trial, t_eff), instead of one stream per (trial, user, t_eff),
# gave new noise draws and moved them by up to 6.4%.
GOLDEN = {
    (4, 10.0): (10.007953120644778, 7.0 / 3.0),
    (4, 20.0): (17.62376181799768, 3.0),
    (8, 10.0): (9.103329742889782, 8.0 / 3.0),
    (8, 20.0): (15.392801033810974, 3.0),
}


def test_summary_golden_cells():
    cfg = ExperimentConfig(**{**SMALL, "n_trials": 3})
    grid = {(row["tdl"], row["snr_db"]): row
            for row in summarize(run_experiment(cfg))["grid"]}
    assert set(grid) == set(GOLDEN)
    for cell, (rate, served) in GOLDEN.items():
        assert grid[cell]["sum_rate_mean"] == pytest.approx(rate, rel=1e-6), cell
        assert grid[cell]["served_mean"] == pytest.approx(served, abs=1e-12), cell


# Trial 0 of the paper regime (M=256, K=32, T=256, n_ul=500, th_rel=1e-2, config
# seed 1) with 3 clusters of width 0.2 and with 8 of width 0.1:
# (clusters, Tdl, snr_db, served, matching_size, err_norm, sum_rate_bits), and
# each plan's (n_classes, node_count). Its plans go through HiGHS. The records
# move by up to 1.7e-10 relative between one and two BLAS threads and not at
# all between --threads 1 and 2; the 1e-9 tolerance absorbs the former.
GOLDEN_PAPER_PLANS = {
    (3, 8): (7, 17),
    (3, 16): (7, 7),
    (3, 24): (7, 1),
    (3, 32): (7, 1),
    (3, 48): (7, 1),
    (8, 8): (16, 1),
    (8, 16): (16, 1),
    (8, 24): (16, 1),
    (8, 32): (16, 1),
    (8, 48): (16, 0),
}
GOLDEN_PAPER = [
    (3, 8, 10, 12, 16, 0.8544204360909046, 28.455321876409403),
    (3, 8, 20, 14, 16, 0.8479670540837908, 43.882982497834035),
    (3, 8, 30, 15, 16, 0.8532667215006123, 51.46389890081832),
    (3, 16, 10, 14, 26, 0.7538024123114776, 37.816436800643764),
    (3, 16, 20, 17, 26, 0.747998131732003, 59.56021327533849),
    (3, 16, 30, 19, 26, 0.7627757982102266, 63.38638605249535),
    (3, 24, 10, 21, 32, 0.6321146307888539, 59.456096826995314),
    (3, 24, 20, 26, 32, 0.6188118412326963, 97.5549270508052),
    (3, 24, 30, 28, 32, 0.6314949087709001, 103.92021168953688),
    (3, 32, 10, 27, 32, 0.5057351096479337, 67.06818508274375),
    (3, 32, 20, 31, 32, 0.4784533754871536, 109.78112179311059),
    (3, 32, 30, 32, 32, 0.47365634142881013, 131.77409230125085),
    (3, 48, 10, 32, 32, 0.285640533076463, 80.38450963156907),
    (3, 48, 20, 32, 32, 0.22644341222906136, 126.62557936730168),
    (3, 48, 30, 32, 32, 0.22262547361632307, 141.29676365040166),
    (8, 8, 10, 22, 32, 0.7510120012042557, 46.793304853850245),
    (8, 8, 20, 26, 32, 0.7462863213788531, 67.41612714860808),
    (8, 8, 30, 28, 32, 0.7987336193512112, 71.43898894609259),
    (8, 16, 10, 32, 32, 0.569666316394009, 71.3269016443673),
    (8, 16, 20, 32, 32, 0.5260527655464132, 116.18682522061276),
    (8, 16, 30, 32, 32, 0.5331316010907499, 126.61990405835155),
    (8, 24, 10, 32, 32, 0.37209343320331606, 88.13928201485142),
    (8, 24, 20, 32, 32, 0.3093768177137369, 128.07778966686072),
    (8, 24, 30, 32, 32, 0.32951757709709406, 136.2137041355451),
    (8, 32, 10, 32, 32, 0.23698194002854303, 104.38726149722322),
    (8, 32, 20, 32, 32, 0.17521904930961446, 147.69538858560531),
    (8, 32, 30, 32, 32, 0.19467011934907433, 147.53446077737127),
    (8, 48, 10, 32, 32, 0.09360736033566572, 114.7224938237107),
    (8, 48, 20, 32, 32, 0.04207907871350818, 167.95194525863695),
    (8, 48, 30, 32, 32, 0.03917537546511926, 186.731773801948),
]


def test_paper_regime_trial_records_golden(monkeypatch):
    import fddsim.evaluation as ev

    got, plans = [], {}
    solve = ev.solve_sparsification
    for n_clusters, width in ((3, 0.2), (8, 0.1)):
        cfg = ExperimentConfig(m=256, k=32, t=256, tdl_list=[8, 16, 24, 32, 48],
                               snr_db_list=[10.0, 20.0, 30.0], n_trials=1, seed=1,
                               n_ul=500, th_rel=1e-2, n_clusters=n_clusters,
                               cluster_width=width)

        def recording(graph, t_dl, p0=0.0, n_clusters=n_clusters):
            plan = solve(graph, t_dl, p0=p0)
            plans[(n_clusters, t_dl)] = (plan.n_classes, plan.node_count)
            return plan

        monkeypatch.setattr(ev, "solve_sparsification", recording)
        got += [((n_clusters, rec.tdl, rec.snr_db), rec) for rec in run_trial(cfg, 0)]
    assert plans == GOLDEN_PAPER_PLANS
    assert len(got) == len(GOLDEN_PAPER)
    for (cell, rec), (n_clusters, tdl, snr, served, matching, err, rate) in zip(got, GOLDEN_PAPER):
        assert cell == (n_clusters, tdl, snr)
        assert (rec.served, rec.matching_size, rec.failure) == (served, matching, ""), cell
        assert rec.err_norm == pytest.approx(err, rel=1e-9), cell
        assert rec.sum_rate_bits == pytest.approx(rate, rel=1e-9), cell
