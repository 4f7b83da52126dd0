"""Each output check fails on a corrupted output and passes on a good one.

Run with ``python3 -m pytest benchmarks/test_checks.py -q`` from the root
of the checkout.
"""

import copy
import json
import math
import os

import numpy as np
import pytest
from scipy.linalg import toeplitz

import checks
import run
import tracing

ALPHA = 2140.0 / 1950.0


# -- simulate_m64 ------------------------------------------------------------
def _records():
    return [{"trial": t, "tdl": d, "snr_db": float(s), "served": 2,
             "matching_size": 3, "err_norm": 0.1, "sum_rate_bits": 5.0}
            for t in range(2) for d in (8, 16) for s in (10, 20)]


def _sim(rows):
    return checks.simulate_rows(rows, 2, [8, 16], [10, 20], m=8, k=4)


def test_simulate_good_records_pass():
    assert _sim(_records()) == ([], [])
    rows = _records()
    rows[0].update(served=0, err_norm=math.nan, sum_rate_bits=0.0)
    assert _sim(rows) == ([], [])


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows.append(dict(rows[0])),           # duplicate record
    lambda rows: rows.pop(),                           # missing record
    lambda rows: rows[1].update(trial=7),              # record off the grid
    lambda rows: rows[2].update(served=4),             # served > matching_size
    lambda rows: rows[3].update(matching_size=5),      # matching_size > min(K, M)
    lambda rows: rows[3].update(served=-1),
])
def test_simulate_structure_corruptions_fail(corrupt):
    rows = _records()
    corrupt(rows)
    problems, _ = _sim(rows)
    assert problems


@pytest.mark.parametrize("fields", [
    {"sum_rate_bits": 0.0},                            # served but no rate
    {"err_norm": math.nan},                            # served but no error
    {"served": 0},                                     # rate without service
])
def test_simulate_rate_rule_breaks_count_as_failed_trials(fields):
    rows = _records()
    rows[5].update(fields)
    problems, failed = _sim(rows)
    assert problems == [] and failed == [rows[5]["trial"]]


def test_records_header_is_checked(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("trial,Tdl,snr_db,served,matching_size,sum_rate_bits,err_norm\n")
    with pytest.raises(ValueError):
        checks.read_records(path)


# -- extrapolate_m64 ---------------------------------------------------------
INTERVALS = [(-0.7, -0.5, 2.5), (0.1, 0.3, 2.5)]
M = 32


def _dl_column(intervals, m):
    d = np.arange(1, m) * np.pi * ALPHA
    c = np.zeros(m, dtype=complex)
    for a, b, rho in intervals:
        c[0] += rho * (b - a)
        c[1:] += rho * (np.exp(1j * d * b) - np.exp(1j * d * a)) / (1j * d)
    return c


def test_true_dl_spectrum_matches_dense_beam_powers():
    c = _dl_column(INTERVALS, M)
    idx = np.arange(M)
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / M) / np.sqrt(M)
    dense = np.real(np.diag(f.conj().T @ toeplitz(c, c.conj()) @ f))
    np.testing.assert_allclose(checks.true_dl_spectrum(INTERVALS, M, ALPHA),
                               np.maximum(dense, 0.0), atol=1e-12)


def _spectrum_case():
    c = _dl_column(INTERVALS, M)
    lam = checks.true_dl_spectrum(INTERVALS, M, ALPHA)
    return lam.copy(), c.copy(), c.copy(), lam


def test_spectrum_good_output_passes():
    problems, err = checks.spectrum_outputs(*_spectrum_case())
    assert problems == [] and err < 1e-12


def _negative(lam, c_ul, c_dl):
    # move power from the weakest beam to the strongest, keeping the sum
    lo, hi = int(np.argmin(lam)), int(np.argmax(lam))
    shift = lam[lo] + 1e-3
    lam[lo] -= shift
    lam[hi] += shift


@pytest.mark.parametrize("corrupt,needle", [
    (_negative, "negative"),
    (lambda lam, c_ul, c_dl: lam.__imul__(1.01), "sum(spectrum)"),
    (lambda lam, c_ul, c_dl: c_ul.__setitem__(0, 1.05 * c_ul[0]), "c_dl[0]"),
    (lambda lam, c_ul, c_dl: lam.__setitem__(slice(None), lam[::-1].copy()), "L1 error"),
])
def test_spectrum_corruptions_fail(corrupt, needle):
    lam, c_ul, c_dl, true_lam = _spectrum_case()
    corrupt(lam, c_ul, c_dl)
    problems, _ = checks.spectrum_outputs(lam, c_ul, c_dl, true_lam)
    assert len(problems) == 1 and needle in problems[0]


# -- sparsify plans -------------------------------------------------------------
# beam 0: user 0; beam 1: users 0, 1; beam 2: users 1, 2; beam 3: user 2
W = np.array([[1.0, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]])
GOOD = {1: {"beams": [0, 3], "users": [0, 2], "matching_size": 2},
        2: {"beams": [0, 1, 2, 3], "users": [0, 1, 2], "matching_size": 3}}


def _plans(made):
    return checks.plans(W, 1e-3, made, np.random.default_rng(0))


def test_good_plans_pass():
    assert _plans(GOOD) == []


@pytest.mark.parametrize("t_dl,plan,needle", [
    (1, {"beams": [0, 1, 3], "users": [0, 2], "matching_size": 2}, "selected beams"),
    (2, {"beams": [0, 1, 2, 3], "users": [0, 1, 2], "matching_size": 2}, "rank"),
    (2, {"beams": [0], "users": [0], "matching_size": 1}, "fell below"),
    (2, {"beams": [0, 1, 2, 3], "users": [0, 1, 2], "matching_size": 4}, "exceeds"),
    (2, {"beams": [0, 9], "users": [0], "matching_size": 1}, "out of range"),
])
def test_plan_corruptions_fail(t_dl, plan, needle):
    made = copy.deepcopy(GOOD)
    made[t_dl] = plan
    problems = _plans(made)
    assert any(needle in p for p in problems), problems


# -- the benchmark's own description -------------------------------------------
def test_benchmark_json_lists_what_the_runs_print():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- the host-speed reference --------------------------------------------------
def test_reference_scale_weights_each_sample_by_wall_time():
    import hostspeed
    span = hostspeed.Span()
    span.samples = [hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S]
    # half the wall time at nominal speed, half at half speed
    assert span.scale == 0.75


def test_reference_span_samples_and_leaves_them_out_of_wall():
    import time
    import hostspeed
    ref = hostspeed.Reference()
    t0 = time.perf_counter()
    with ref.span() as span:
        deadline = t0 + 100 * hostspeed.TICK_S
        while len(span.samples) < 3 and time.perf_counter() < deadline:
            pass
    elapsed = time.perf_counter() - t0
    assert len(span.samples) >= 3
    assert span.wall < elapsed - sum(span.samples) + 1e-3
    assert span.wall > elapsed - sum(span.samples) - 0.05
