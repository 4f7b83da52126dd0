"""Output checks made apart from the program.

Each check reads the files the CLI wrote and recomputes what it needs with
NumPy/SciPy directly; none of them calls into ``fddsim``. A check returns a
list of problems (empty when the output is correct); ``simulate_rows`` also
returns the trials whose rows break the served/rate rule, which the
benchmark counts as failed operations.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

SIMULATE_HEADER = ["trial", "Tdl", "snr_db", "served", "matching_size",
                   "err_norm", "sum_rate_bits"]

# Tolerance of |c_dl[0] - c_ul[0]| relative to c_ul[0]. The
# grid estimate's total mass is a fit of c_ul[0]; observed gaps are ~2e-4.
C0_RTOL = 1e-2
# Relative tolerance of sum(spectrum) against M * Re c_dl[0]; both files
# carry 12 significant digits.
TRACE_RTOL = 1e-8
# Relative L1 error of the estimated DL beam spectrum against the exact
# one; observed values are ~0.03-0.05 at M=128, n_ul=500.
SPECTRUM_L1_TOL = 0.10
# Singular values below this share of the largest count as zero.
RANK_RTOL = 1e-9


def read_records(path) -> list:
    """Rows of a simulate records CSV as dicts of floats/ints."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SIMULATE_HEADER:
            raise ValueError(f"unexpected records header {header}")
        rows = []
        for r in reader:
            rows.append({"trial": int(r[0]), "tdl": int(r[1]), "snr_db": float(r[2]),
                         "served": int(r[3]), "matching_size": int(r[4]),
                         "err_norm": float(r[5]), "sum_rate_bits": float(r[6])})
    return rows


def simulate_rows(rows, n_trials, tdl_list, snr_list, m, k):
    """(problems, failed trials) for the records of one simulate run."""
    problems = []
    keys = [(r["trial"], r["tdl"], r["snr_db"]) for r in rows]
    expected = {(t, d, float(s)) for t in range(n_trials) for d in tdl_list
                for s in snr_list}
    if len(keys) != len(set(keys)) or set(keys) != expected:
        problems.append(f"records are not one per (trial, T_dl, SNR): "
                        f"{len(keys)} rows, {len(set(keys))} distinct, "
                        f"{len(expected)} expected")
    failed = set()
    for r in rows:
        if not 0 <= r["served"] <= r["matching_size"] <= min(k, m):
            problems.append(f"row {r}: not 0 <= served <= matching_size <= min(K, M)")
        ok = r["sum_rate_bits"] > 0 and math.isfinite(r["err_norm"])
        if ok != (r["served"] > 0):
            failed.add(r["trial"])
    return problems, sorted(failed)


def read_column_csv(path, cols) -> np.ndarray:
    """Numeric columns (by header name) of an exported CSV."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        data = [[float(row[c]) for c in cols] for row in reader]
    return np.array(data)


def spectrum_outputs(lam, c_ul, c_dl, true_lam):
    """Checks on one user's exported UL/DL first columns and DL spectrum.

    lam: exported spectrum; c_ul, c_dl: exported first columns (complex);
    true_lam: the exact DL beam spectrum. Returns (problems, L1 error).
    """
    problems = []
    m = lam.size
    if np.any(lam < 0):
        problems.append(f"spectrum has {int((lam < 0).sum())} negative entries")
    total, expect = float(lam.sum()), m * float(c_dl[0].real)
    if abs(total - expect) > TRACE_RTOL * max(abs(expect), 1e-300):
        problems.append(f"sum(spectrum) {total!r} != M * Re c_dl[0] {expect!r}")
    c0_ul = float(c_ul[0].real)
    if abs(float(c_dl[0].real) - c0_ul) > C0_RTOL * max(abs(c0_ul), 1e-300):
        problems.append(f"c_dl[0] {c_dl[0].real!r} differs from c_ul[0] {c0_ul!r} "
                        f"by more than {C0_RTOL:g}")
    err = float(np.abs(lam - true_lam).sum() / np.abs(true_lam).sum())
    if not err <= SPECTRUM_L1_TOL:
        problems.append(f"spectrum relative L1 error {err:.4f} > {SPECTRUM_L1_TOL}")
    return problems, err


def true_dl_spectrum(intervals, m: int, alpha: float) -> np.ndarray:
    """Exact DL beam powers diag(F^H C F) of a piecewise-constant ASF.

    c_d = sum rho (e^{j pi alpha d b} - e^{j pi alpha d a}) / (j pi alpha d)
    is the closed-form DL covariance column; the beam powers of the
    Toeplitz matrix it generates are
    lambda_k = 2 Re sum_d (1 - d/M) c_d e^{j 2 pi d k / M} - c_0.
    """
    d = np.arange(m)
    x = np.pi * alpha * d[1:]
    c = np.zeros(m, dtype=complex)
    for a, b, rho in intervals:
        c[0] += rho * (b - a)
        c[1:] += rho * (np.exp(1j * x * b) - np.exp(1j * x * a)) / (1j * x)
    lam = 2.0 * np.real(m * np.fft.ifft((1.0 - d / m) * c)) - c[0].real
    return np.maximum(lam, 0.0)


def read_plan(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def plans(w, th_rel, plans_by_tdl, rng):
    """Checks on the sparsify plans made for one beam-power matrix.

    w: the M x K matrix as the program read it; plans_by_tdl: {T_dl: plan
    dict}; rng: a Generator for the random channel of the rank check.
    """
    problems = []
    adj = w > th_rel * w.max()
    m, k = w.shape
    whole = maximum_bipartite_matching(csr_matrix(adj.astype(np.int8)),
                                       perm_type="column")
    whole_size = int((whole >= 0).sum())
    last = None
    for t_dl in sorted(plans_by_tdl):
        plan = plans_by_tdl[t_dl]
        beams, users, size = plan["beams"], plan["users"], plan["matching_size"]
        if (sorted(set(beams)) != list(beams) or sorted(set(users)) != list(users)
                or any(not 0 <= b < m for b in beams)
                or any(not 0 <= u < k for u in users)):
            problems.append(f"T_dl={t_dl}: beam or user indices out of range or unsorted")
            continue
        sub = adj[np.ix_(beams, users)]
        if sub.size and sub.sum(axis=0).max() > t_dl:
            problems.append(f"T_dl={t_dl}: a selected user has "
                            f"{int(sub.sum(axis=0).max())} selected beams")
        h = sub * (rng.standard_normal(sub.shape) + 1j * rng.standard_normal(sub.shape))
        sv = np.linalg.svd(h, compute_uv=False) if h.size else np.zeros(0)
        rank = int((sv > RANK_RTOL * sv[0]).sum()) if sv.size and sv[0] > 0 else 0
        if rank != size:
            problems.append(f"T_dl={t_dl}: rank {rank} of a random channel on the "
                            f"selected subgraph != matching_size {size}")
        if size > whole_size:
            problems.append(f"T_dl={t_dl}: matching_size {size} exceeds the whole "
                            f"graph's maximum matching {whole_size}")
        if last is not None and size < last:
            problems.append(f"T_dl={t_dl}: matching_size {size} fell below {last}")
        last = size
    return problems
