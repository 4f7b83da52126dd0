"""Self-check suites tying the solvers to independent oracles.

Each suite returns a SuiteResult; the CLI ``validate`` subcommand prints a
pass/fail table and the acceptance tests assert on the same functions. The
oracles the suites check against live here too and nowhere in the
pipeline: the numerical rank, the closed-form MMSE error trace and the
enumeration oracles for beam/user selection and NNLS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .channel import AngularScatteringFunction, true_covariance
from .covariance import (_asf_problem, _gram_fit, circulant_eigenvalues, estimate_asf,
                         nnls, steering)
from .errors import InvalidArgumentError
from .numerics import gaussian_complex, rng_stream, toeplitz_average, toeplitz_from_column
from .probing import dl_observe, make_pilot, mmse_effective
from .sparsifier import (SparsificationPlan, formulate_milp, max_matching,
                         solve_sparsification)

RANK_RTOL = 1e-10


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def numerical_rank(a: np.ndarray) -> int:
    """Scale-invariant rank: eigenvalues of A^H A above max eigenvalue * 1e-10."""
    a = np.asarray(a, dtype=complex)
    w = np.linalg.eigvalsh(a.conj().T @ a)
    top = w[-1] if w.size else 0.0
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(w > top * RANK_RTOL))


def error_trace_oracle(psi: np.ndarray, variances: np.ndarray, n0: float) -> float:
    """Closed-form MMSE error trace for the unit-variance expansion
    coefficients: s - sum_i mu_i / (N0 + mu_i), with mu_i the eigenvalues of
    Lam^(1/2) Psi^H Psi Lam^(1/2) and Psi (T_dl x s) the pilot as the s
    support coefficients see it (Psi F_S for an antenna-domain Psi)."""
    psi = np.asarray(psi, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    s = psi.shape[1]
    if s < 1:
        raise InvalidArgumentError("error_trace_oracle: empty support")
    if variances.shape != (s,):
        raise InvalidArgumentError("error_trace_oracle: one variance per support column")
    half = np.sqrt(variances)
    a = (half[:, None] * (psi.conj().T @ psi) * half[None, :])
    mu = np.maximum(np.linalg.eigvalsh(a), 0.0)
    denom = n0 + mu
    ratio = np.divide(mu, denom, out=np.zeros_like(mu), where=denom > 0)
    return float(s - np.sum(ratio))


def random_beam_graph(rng: np.random.Generator, n_beams: int, n_users: int) -> np.ndarray:
    """Edge-power array with each edge present with probability 1/2."""
    edges = rng.random((n_beams, n_users)) < 0.5
    return np.where(edges, rng.random((n_beams, n_users)) + 0.05, 0.0)


def suite_rank_matching(n_trials: int = 1000, size: int = 8) -> SuiteResult:
    """Numerical rank of a masked Gaussian matrix equals the maximum
    matching size of its mask (skeleton-decomposition rank identity)."""
    rng = rng_stream(2024, 11)
    hits = 0
    for _ in range(n_trials):
        mask = rng.random((size, size)) < 0.5
        vals = gaussian_complex(size * size, rng).reshape(size, size)
        mat = np.where(mask, vals, 0.0)
        hits += numerical_rank(mat) == max_matching(mask)
    return SuiteResult("rank-matching", hits == n_trials,
                       f"{hits}/{n_trials} masked matrices with rank == matching")


def brute_force_sparsify(g: np.ndarray, t_dl: int, p0: float = 0.0) -> SparsificationPlan:
    """Exact optimum by enumeration; test oracle for small instances.

    For each beam subset, the best user set is exactly the set of users
    that are individually feasible (degree and power are per-user), so only
    beam subsets need enumeration.
    """
    m, k = g.shape
    a = g > 0
    active = [bm for bm in range(m) if a[bm].any()]
    if len(active) + k > 14:
        raise InvalidArgumentError("brute_force_sparsify: instance too large")
    best = SparsificationPlan(beams=[], users=[], matching_size=0,
                              objective=0.0, node_count=0)
    for mask in range(1 << len(active)):
        beams = [active[i] for i in range(len(active)) if mask >> i & 1]
        sel = np.zeros(m, dtype=bool)
        sel[beams] = True
        deg = a[sel].sum(axis=0)
        power = (g * sel[:, None]).sum(axis=0)
        users = [uk for uk in range(k)
                 if 1 <= deg[uk] <= t_dl and power[uk] >= p0]
        sub = a[np.ix_(beams, users)]
        size = max_matching(sub)
        if size > best.matching_size:
            best = SparsificationPlan(beams=[bm for bm, r in zip(beams, sub) if r.any()],
                                      users=[uk for uk, c in zip(users, sub.T) if c.any()],
                                      matching_size=size, objective=float(size),
                                      node_count=0)
    return best


def _random_selection_instances(n_instances: int, seed: int):
    rng = rng_stream(seed, 13)
    for _ in range(n_instances):
        n_beams = int(rng.integers(2, 8))
        n_users = int(rng.integers(1, 6))
        g = random_beam_graph(rng, n_beams, n_users)
        t_dl = int(rng.integers(1, 5))
        if rng.random() < 0.5 or not g.any():
            p0 = 0.0
        else:
            p0 = float(np.median(g[g > 0]))
        yield g, t_dl, p0


def _selector_points(g: np.ndarray, t_dl: int, p0: float, plan, rng: np.random.Generator,
                     n_random: int):
    """Beam and user selections (boolean masks) that satisfy every selection
    row: the plan's own and ``n_random`` random ones. A random point takes a
    random beam subset, a random subset of the users within the degree cap
    and the power floor on it, and then keeps only beams next to a kept
    user."""
    m, k = g.shape
    a = g > 0
    beams, users = np.zeros(m, dtype=bool), np.zeros(k, dtype=bool)
    beams[plan.beams] = True
    users[plan.users] = True
    yield beams, users
    for _ in range(n_random):
        beams = rng.random(m) < 0.5
        deg = a[beams].sum(axis=0)
        power = (g * beams[:, None]).sum(axis=0)
        users = (deg <= t_dl) & (power >= p0) & (rng.random(k) < 0.5)
        beams &= (a & users[None, :]).any(axis=1)
        yield beams, users


def fixed_selector_deviations(g: np.ndarray, t_dl: int, p0: float, plan,
                              rng: np.random.Generator, n_random: int = 2) -> list:
    """Matching-block deviation from binary of the selection MILP's LP
    relaxation with the class counts and user selectors fixed at integer
    points (the selections of ``_selector_points``, counted per beam
    class), one entry per LP; an LP that HiGHS does not solve to
    optimality counts as deviation inf.

    With integer counts and selectors the z block ranges over a bipartite
    b-matching polytope, whose vertices are integral.
    """
    mip = formulate_milp(g, t_dl, p0)
    nz = len(mip.classes) + g.shape[1]
    devs = []
    for beams, users in _selector_points(g, t_dl, p0, plan, rng, n_random):
        counts = np.array([beams[cls].sum() for cls in mip.classes], dtype=float)
        lo, hi = np.zeros(mip.c.size), mip.upper.copy()
        lo[:nz] = hi[:nz] = np.concatenate([counts, users])
        res = linprog(-mip.c, A_ub=mip.a, b_ub=mip.b, bounds=np.column_stack([lo, hi]),
                      method="highs")
        if res.status != 0:
            devs.append(np.inf)
            continue
        z = res.x[nz:]
        devs.append(float(np.max(np.abs(z - np.round(z)), initial=0.0)))
    return devs


def milp_oracle(n_instances: int, seed: int, collect_z: bool):
    """(instances whose MILP matching size equals the enumeration oracle's,
    max fixed-selector matching-block deviation from binary, fixed-selector
    LPs solved), over ``n_instances`` random selection instances. The LPs
    (see ``fixed_selector_deviations``) run only with ``collect_z``;
    without it the last two entries are 0."""
    hits, z_dev, n_lps = 0, 0.0, 0
    rng = rng_stream(seed, 43)
    for g, t_dl, p0 in _random_selection_instances(n_instances, seed):
        plan = solve_sparsification(g, t_dl, p0=p0)
        hits += plan.matching_size == brute_force_sparsify(g, t_dl, p0=p0).matching_size
        if collect_z:
            devs = fixed_selector_deviations(g, t_dl, p0, plan, rng)
            z_dev = max(z_dev, *devs)
            n_lps += len(devs)
    return hits, z_dev, n_lps


def suite_milp_vs_bruteforce() -> SuiteResult:
    """MILP matching size equals exhaustive subgraph enumeration."""
    hits, _, _ = milp_oracle(200, 77, collect_z=False)
    return SuiteResult("milp-vs-bruteforce", hits == 200,
                       f"{hits}/200 instances match the enumeration oracle")


def suite_node_lp_integrality() -> SuiteResult:
    """Matching variables stay binary in the LP relaxation whenever the
    class counts and user selectors are fixed at integer points."""
    _, z_dev, n_lps = milp_oracle(200, 77, collect_z=True)
    return SuiteResult("node-lp-integrality", z_dev <= 1e-6,
                       f"max matching-variable deviation from binary over {n_lps} "
                       f"fixed-selector LPs: {z_dev:.3g}")


# Fixed constants for the stability suite: an 8-beam plan, unit priors.
_STABILITY_S = 8
_STABILITY_SEED = 5


def _stability_setup(t_dl: int):
    """The unit T_dl x 8 pilot and unit beam variances: what ``evaluate_tdls``
    sends to a user with unit priors on an 8-beam plan."""
    return make_pilot(t_dl, _STABILITY_S, _STABILITY_SEED, 19), np.ones(_STABILITY_S)


def suite_estimation_stability() -> SuiteResult:
    """Estimation-error trace behavior: O(N0) decay when the pilot
    dimension covers the sparsity, a fixed positive floor otherwise, and
    the pipeline's ``mmse_effective`` within 3% of the closed form."""
    pilot8, lam = _stability_setup(_STABILITY_S)
    vals = [error_trace_oracle(pilot8, lam, n0) for n0 in (1e-2, 1e-3, 1e-4)]
    ratios = [vals[0] / vals[1], vals[1] / vals[2]]
    ok_a = all(abs(r - 10.0) <= 1.5 for r in ratios)

    pilot6, lam6 = _stability_setup(_STABILITY_S - 2)
    floor = error_trace_oracle(pilot6, lam6, 1e-8)
    ok_b = abs(floor - 2.0) <= 1e-3

    emp, closed = mmse_empirical_vs_oracle()
    return SuiteResult(
        "estimation-stability", ok_a and ok_b and abs(emp - closed) <= 0.03 * closed,
        f"decay ratios {ratios[0]:.2f},{ratios[1]:.2f} (target 10); "
        f"undersampled floor {floor:.6f} (target 2); "
        f"mmse_effective error trace {emp:.4f} vs closed form {closed:.4f}")


def mmse_empirical_vs_oracle(n_draws: int = 2000, n0: float = 0.1):
    """(empirical, closed-form) MMSE error trace for the stability setup at
    noise level n0: the average squared error of ``mmse_effective`` over
    fresh channel and noise draws, observed by one ``dl_observe`` call in
    unit noise at pilot power 1/n0, the same experiment scaled by 1/sqrt(n0)."""
    q, lam = _stability_setup(_STABILITY_S)
    # per draw, as gaussian_complex draws them: channel then noise, each real then imag
    rng = rng_stream(_STABILITY_SEED, 37)
    parts = rng.standard_normal((n_draws, 2, 2, _STABILITY_S)) * (1.0 / np.sqrt(2.0))
    h, noise = np.moveaxis(parts[..., 0, :] + 1j * parts[..., 1, :], 1, 0)
    h_hat = mmse_effective(dl_observe(q / np.sqrt(n0), h, noise)[None], q,
                           np.tile(lam, (n_draws, 1)), [1.0 / n0])[0]
    emp = float(np.mean(np.sum(np.abs(h - h_hat) ** 2, axis=1)))
    return emp, error_trace_oracle(q, lam, n0)


def szego_errors(m_values=(16, 32, 64, 128)) -> list:
    """Relative gap between beam-space powers and true eigenvalues for a
    fixed two-cluster scattering function, per array size."""
    asf = AngularScatteringFunction(
        intervals=[(-0.7, -0.5, 2.5), (0.1, 0.3, 2.5)], normalized=True)
    errs = []
    for m in m_values:
        col = true_covariance(asf, m, 1.0)
        lam_circ = np.sort(circulant_eigenvalues(col))[::-1]
        lam_true = np.sort(np.linalg.eigvalsh(toeplitz_from_column(col)))[::-1]
        errs.append(float(np.linalg.norm(lam_circ - lam_true)
                          / np.linalg.norm(lam_true)))
    return errs


def suite_szego() -> SuiteResult:
    m_values = (16, 32, 64, 128)
    errs = szego_errors(m_values)
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    detail = ", ".join(f"M={m}: {e:.4f}" for m, e in zip(m_values, errs))
    return SuiteResult("szego-convergence", ok, detail)


def _toeplitz_distance_sq(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """||A - T(c)||_F^2 for a batch of first columns c, from the matrices
    T(c) themselves: entry (i, j) is c_{i-j} on and below the diagonal and
    conj(c_{j-i}) above it."""
    i, j = np.indices(a.shape)
    t = cols[:, np.abs(i - j)]
    return np.sum(np.abs(a - np.where(j > i, t.conj(), t)) ** 2, axis=(1, 2))


def suite_projection() -> SuiteResult:
    """The angular fit ``estimate_asf`` of a Hermitian input's Toeplitz
    average is the Frobenius-nearest Toeplitz covariance among nonnegative
    measures on its grid: no random measure on that grid comes closer to
    the input. Half of the samples are 6-atom measures, half nonnegative
    perturbations max(z + delta, 0) of the fit z at step sizes over four
    decades. 50 Hermitian 8 x 8 inputs, 10^4 samples each."""
    n_inputs, n_samples, size = 50, 10**4, 8
    rng = rng_stream(31, 23)
    n_atomic = n_samples // 2
    wins = 0
    for _ in range(n_inputs):
        h = gaussian_complex(size * size, rng).reshape(size, size)
        a = 0.5 * (h + h.conj().T)
        z = estimate_asf(toeplitz_average(a))
        g = z.size  # the fit's own grid
        gm = steering(size, g, 1.0) / np.sqrt(size)
        d_fit = np.sqrt(_toeplitz_distance_sq(a, (gm @ z)[None, :])[0])
        # a grid measure of mass sqrt(M) * c has T(gm @ measure) diagonal c
        mass = np.sqrt(size) * max(float(np.trace(a).real) / size, 0.5)
        atoms = rng.integers(0, g, size=(n_atomic, 6))
        w = rng.random((n_atomic, 6))
        w *= rng.random((n_atomic, 1)) * 2.0 * mass / w.sum(axis=1, keepdims=True)
        measures = np.zeros((n_samples, g))
        np.add.at(measures, (np.arange(n_atomic)[:, None], atoms), w)
        step = mass / g * 10.0 ** rng.uniform(-4.0, 0.0, size=(n_samples - n_atomic, 1))
        measures[n_atomic:] = np.maximum(
            z + step * rng.standard_normal((n_samples - n_atomic, g)), 0.0)
        d_samples = np.sqrt(_toeplitz_distance_sq(a, measures @ gm.T))
        if d_fit <= d_samples.min() + 1e-9:
            wins += 1
    return SuiteResult("toeplitz-psd-projection", wins == n_inputs,
                       f"{wins}/{n_inputs} inputs where the angular fit beats "
                       f"{n_samples} random grid measures")


def nnls_bruteforce_objective(a: np.ndarray, b: np.ndarray) -> float:
    """Best objective over all active-set sign patterns (exhaustive)."""
    n = a.shape[1]
    best = float(np.linalg.norm(b))  # empty support
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        sol, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        if np.all(sol >= 0.0):
            best = min(best, float(np.linalg.norm(a[:, cols] @ sol - b)))
    return best


def suite_nnls() -> SuiteResult:
    """``nnls`` reaches the enumeration optimum on 100 random 6 x 4 systems,
    and so does ``estimate_asf`` on its grid G = 2M, where the
    circulant-Gram active set fits it, on 300 random Hermitian Toeplitz
    columns with M = 2..4: half PSD (1-3 off-grid atoms over a white
    floor), half indefinite (Gaussian columns with a real c_0). The detail
    counts the inputs the active set leaves to SciPy: a full or repeated
    support, or an optimum that is not unique."""
    rng = rng_stream(41, 29)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        z = nnls(a, b)
        obj = float(np.linalg.norm(a @ z - b))
        worst = max(worst, obj - nnls_bruteforce_objective(a, b))
    worst_asf, fallback = 0.0, 0
    for i in range(300):
        m = 2 + i % 3
        if i % 2:
            c_ul = gaussian_complex(m, rng)
            c_ul[0] = c_ul[0].real
        else:
            n_atoms = rng.integers(1, 4)
            atoms = zip(rng.uniform(-1.0, 1.0, n_atoms), rng.random(n_atoms))
            c_ul = true_covariance(AngularScatteringFunction(point_masses=list(atoms)), m, 1.0)
            c_ul[0] += rng.random()  # a white floor
        a, b = _asf_problem(c_ul, 2 * m)
        z = estimate_asf(c_ul)
        fallback += _gram_fit(a, b) is None
        obj = float(np.linalg.norm(a @ z - b))
        worst_asf = max(worst_asf, obj - nnls_bruteforce_objective(a, b))
    return SuiteResult("nnls-enumeration", max(worst, worst_asf) <= 1e-8,
                       f"max objective excess over enumeration: {worst:.3g} (6 x 4), "
                       f"{worst_asf:.3g} (estimate_asf, M = 2-4, {fallback}/300 left to SciPy)")


SUITES = {
    "matching": suite_rank_matching,
    "theorem": suite_milp_vs_bruteforce,
    "integrality": suite_node_lp_integrality,
    "stability": suite_estimation_stability,
    "szego": suite_szego,
    "projection": suite_projection,
    "nnls": suite_nnls,
}


def run_suites(names=None) -> list:
    """Run the requested suites (all by default)."""
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        results.append(SUITES[name]())
    return results
