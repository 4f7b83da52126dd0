"""Self-check suites tying the solvers to independent oracles.

Each suite returns a SuiteResult; the CLI ``validate`` subcommand prints a
pass/fail table and the acceptance tests assert on the same functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .channel import AngularScatteringFunction, ArrayConfig, true_covariance
from .covariance import circulant_eigenvalues, project_toeplitz_psd
from .numerics import (dft_matrix, gaussian_complex, hermitian_eig,
                       numerical_rank, rng_stream)
from .opt import max_matching, nnls
from .probing import (EffectiveChannelModel, PilotMatrix, error_trace_oracle,
                      make_pilot, mmse_effective)
from .sparsifier import (BeamGraph, SparsifyingPrecoder, brute_force_sparsify,
                         formulate_milp, solve_sparsification)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def random_beam_graph(rng: np.random.Generator, n_beams: int, n_users: int,
                      edge_prob: float = 0.5) -> BeamGraph:
    adjacency = rng.random((n_beams, n_users)) < edge_prob
    weights = np.where(adjacency, rng.random((n_beams, n_users)) + 0.05, 0.0)
    th = 0.0 if not adjacency.any() else float(weights[adjacency].min()) / 2.0
    return BeamGraph(weights=weights, adjacency=adjacency, threshold=th)


def suite_rank_matching(n_trials: int = 1000, size: int = 8, seed: int = 2024) -> SuiteResult:
    """Numerical rank of a masked Gaussian matrix equals the maximum
    matching size of its mask (skeleton-decomposition rank identity)."""
    rng = rng_stream(seed, 11)
    hits = 0
    for _ in range(n_trials):
        mask = rng.random((size, size)) < 0.5
        vals = gaussian_complex(size * size, rng).reshape(size, size)
        mat = np.where(mask, vals, 0.0)
        hits += numerical_rank(mat) == max_matching(mask)
    return SuiteResult("rank-matching", hits == n_trials,
                       f"{hits}/{n_trials} masked matrices with rank == matching")


def _random_selection_instances(n_instances: int, seed: int):
    rng = rng_stream(seed, 13)
    for _ in range(n_instances):
        n_beams = int(rng.integers(2, 8))
        n_users = int(rng.integers(1, 6))
        g = random_beam_graph(rng, n_beams, n_users)
        t_dl = int(rng.integers(1, 5))
        if rng.random() < 0.5 or not g.adjacency.any():
            p0 = 0.0
        else:
            p0 = float(np.median(g.weights[g.adjacency]))
        yield g, t_dl, p0


def _selector_points(g: BeamGraph, t_dl: int, p0: float, plan, rng: np.random.Generator,
                     n_random: int):
    """Binary (x, y) selector vectors that satisfy every selection row: the
    plan's own and ``n_random`` random ones. A random point takes a random
    beam subset, a random subset of the users within the degree cap and the
    power floor on it, and then keeps only beams next to a kept user."""
    m, k = g.n_beams, g.n_users
    a, w = g.adjacency, g.weights
    xy = np.zeros(m + k)
    xy[plan.beams] = 1.0
    xy[m + np.asarray(plan.users, dtype=int)] = 1.0
    yield xy
    for _ in range(n_random):
        beams = rng.random(m) < 0.5
        deg = (a & beams[:, None]).sum(axis=0)
        power = (w * (a & beams[:, None])).sum(axis=0)
        users = (deg <= t_dl) & (power >= p0) & (rng.random(k) < 0.5)
        beams &= (a & users[None, :]).any(axis=1)
        yield np.concatenate([beams, users]).astype(float)


def fixed_selector_deviations(g: BeamGraph, t_dl: int, p0: float, plan,
                              rng: np.random.Generator, n_random: int = 2) -> list:
    """Matching-block deviation from binary of the selection MILP's LP
    relaxation with the beam/user selectors fixed at binary points (see
    ``_selector_points``), one entry per LP; an LP that HiGHS does not
    solve to optimality counts as deviation inf.

    With binary selectors the z block ranges over a bipartite matching
    polytope, whose vertices are integral.
    """
    lp = formulate_milp(g, t_dl, p0).lp
    nz = g.n_beams + g.n_users
    devs = []
    for xy in _selector_points(g, t_dl, p0, plan, rng, n_random):
        lo, hi = np.zeros(lp.n_vars), lp.upper.copy()
        lo[:nz] = hi[:nz] = xy
        res = linprog(-lp.c, A_ub=lp.a, b_ub=lp.b, bounds=np.column_stack([lo, hi]),
                      method="highs")
        if res.status != 0:
            devs.append(np.inf)
            continue
        z = res.x[nz:]
        devs.append(float(np.max(np.abs(z - np.round(z)), initial=0.0)))
    return devs


def _milp_oracle(n_instances: int, seed: int, collect_z: bool):
    """(instances matching the enumeration oracle, max fixed-selector
    matching-block deviation, fixed-selector LPs solved)."""
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


def suite_milp_vs_bruteforce(n_instances: int = 200, seed: int = 77,
                             collect_z: bool = False):
    """MILP matching size equals exhaustive subgraph enumeration. With
    ``collect_z`` also returns the max fixed-selector matching-block
    deviation from binary (see ``fixed_selector_deviations``)."""
    hits, z_dev, n_lps = _milp_oracle(n_instances, seed, collect_z)
    detail = f"{hits}/{n_instances} instances match the enumeration oracle"
    if collect_z:
        detail += f"; {n_lps} fixed-selector LPs solved"
    res = SuiteResult("milp-vs-bruteforce", hits == n_instances, detail)
    return (res, z_dev) if collect_z else res


def suite_node_lp_integrality(n_instances: int = 200, seed: int = 77,
                              tol: float = 1e-6) -> SuiteResult:
    """Matching variables stay binary in the LP relaxation whenever the
    beam/user selectors are fixed at binary points."""
    _, z_dev, n_lps = _milp_oracle(n_instances, seed, collect_z=True)
    return SuiteResult("node-lp-integrality", z_dev <= tol,
                       f"max matching-variable deviation from binary over {n_lps} "
                       f"fixed-selector LPs: {z_dev:.3g}")


# Fixed constants for the stability suite: 32 beams, 8-sparse support.
_STABILITY_M = 32
_STABILITY_S = 8
_STABILITY_SEED = 5


def _stability_setup(t_dl: int):
    """Antenna-domain pilot that probes through the sparsifying precoder
    matched to a random 8-beam support, as the system does."""
    f = dft_matrix(_STABILITY_M)
    rng = rng_stream(_STABILITY_SEED, 17)
    support = np.sort(rng.choice(_STABILITY_M, size=_STABILITY_S, replace=False))
    precoder = SparsifyingPrecoder(beams=[int(b) for b in support], m=_STABILITY_M)
    small = make_pilot(t_dl, _STABILITY_S, 1.0, _STABILITY_SEED, 19)
    pilot = PilotMatrix(psi=small.psi @ precoder.matrix(), p_dl=1.0)
    return pilot, f[:, support], np.ones(_STABILITY_S)


def suite_estimation_stability(decade_tol: float = 0.15) -> SuiteResult:
    """Estimation-error trace behavior: O(N0) decay when the pilot
    dimension covers the sparsity, and a fixed positive floor otherwise."""
    pilot8, f_s, lam = _stability_setup(_STABILITY_S)
    vals = [error_trace_oracle(pilot8, f_s, lam, n0)
            for n0 in (1e-2, 1e-3, 1e-4)]
    ratios = [vals[0] / vals[1], vals[1] / vals[2]]
    ok_a = all(abs(r - 10.0) <= 10.0 * decade_tol for r in ratios)

    pilot6, f_s6, lam6 = _stability_setup(_STABILITY_S - 2)
    floor = error_trace_oracle(pilot6, f_s6, lam6, 1e-8)
    ok_b = abs(floor - 2.0) <= 1e-3
    return SuiteResult(
        "estimation-stability", ok_a and ok_b,
        f"decay ratios {ratios[0]:.2f},{ratios[1]:.2f} (target 10); "
        f"undersampled floor {floor:.6f} (target 2)")


def mmse_empirical_vs_oracle(n_draws: int = 2000, n0: float = 0.1):
    """(empirical, closed-form) MMSE error trace for the stability setup:
    average squared estimation error over fresh channel/noise draws."""
    pilot, f_s, lam = _stability_setup(_STABILITY_S)
    f = dft_matrix(_STABILITY_M)
    # f_s columns are DFT columns, so the beam-domain support is where
    # |F^H f_s| peaks at 1.
    support = [int(np.argmax(np.abs(f.conj().T @ f_s[:, i])))
               for i in range(_STABILITY_S)]
    eff_pilot = PilotMatrix(psi=pilot.psi @ f, p_dl=pilot.p_dl)
    model = EffectiveChannelModel(m_prime=_STABILITY_M, support=support,
                                  variances=lam, n0=n0)
    rng = rng_stream(_STABILITY_SEED, 37)
    total = 0.0
    for _ in range(n_draws):
        g = gaussian_complex(_STABILITY_S, rng)
        h_beam = np.zeros(_STABILITY_M, dtype=complex)
        h_beam[support] = g
        noise = np.sqrt(n0) * gaussian_complex(eff_pilot.t_dl, rng)
        y = eff_pilot.psi @ h_beam + noise
        h_hat = mmse_effective(y, eff_pilot, model)
        total += float(np.linalg.norm(h_beam - h_hat) ** 2)
    return total / n_draws, error_trace_oracle(pilot, f_s, lam, n0)


def szego_errors(m_values=(16, 32, 64, 128)) -> list:
    """Relative gap between beam-space powers and true eigenvalues for a
    fixed two-cluster scattering function, per array size."""
    asf = AngularScatteringFunction(
        intervals=[(-0.7, -0.5, 2.5), (0.1, 0.3, 2.5)], normalized=True)
    errs = []
    for m in m_values:
        arr = ArrayConfig(m=m)
        cov = true_covariance(arr, asf, "ul")
        lam_circ = np.sort(circulant_eigenvalues(cov))[::-1]
        lam_true = np.sort(hermitian_eig(cov.matrix()).eigenvalues)[::-1]
        errs.append(float(np.linalg.norm(lam_circ - lam_true)
                          / np.linalg.norm(lam_true)))
    return errs


def suite_szego(m_values=(16, 32, 64, 128)) -> SuiteResult:
    errs = szego_errors(m_values)
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    detail = ", ".join(f"M={m}: {e:.4f}" for m, e in zip(m_values, errs))
    return SuiteResult("szego-convergence", ok, detail)


def _random_cone_columns(rng: np.random.Generator, m: int, n_samples: int,
                         scale: float) -> np.ndarray:
    """First columns of random Toeplitz-PSD matrices (random atomic measures)."""
    n_atoms = 6
    xi = rng.uniform(-1.0, 1.0, size=(n_samples, n_atoms))
    w = rng.random((n_samples, n_atoms))
    w *= (rng.random((n_samples, 1)) * 2.0 * scale) / np.maximum(
        w.sum(axis=1, keepdims=True), 1e-12)
    phases = np.exp(1j * np.pi * xi[:, :, None] * np.arange(m)[None, None, :])
    return np.einsum("sa,sam->sm", w, phases)


def _toeplitz_distance_sq(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """||A - T(c)||_F^2 for a batch of first columns, by diagonal offsets."""
    m = a.shape[0]
    out = np.zeros(cols.shape[0])
    for d in range(m):
        lower = np.diagonal(a, offset=-d)
        c = cols[:, d]
        out += (np.sum(np.abs(lower) ** 2) - 2 * np.real(np.conj(c) * lower.sum())
                + lower.size * np.abs(c) ** 2)
        if d > 0:
            upper = np.diagonal(a, offset=d)
            out += (np.sum(np.abs(upper) ** 2) - 2 * np.real(c * upper.sum())
                    + upper.size * np.abs(c) ** 2)
    return out


def suite_projection(n_inputs: int = 50, n_samples: int = 10**4,
                     size: int = 8, seed: int = 31) -> SuiteResult:
    """The Dykstra projection beats every random cone sample in Frobenius
    distance."""
    rng = rng_stream(seed, 23)
    wins = 0
    for _ in range(n_inputs):
        g = gaussian_complex(size * size, rng).reshape(size, size)
        a = 0.5 * (g + g.conj().T)
        with warnings.catch_warnings():
            # Indefinite random inputs sit far from the cone; the iteration
            # cap is expected and the capped iterate is still tested below.
            warnings.simplefilter("ignore", RuntimeWarning)
            proj = project_toeplitz_psd(a)
        d_proj = np.linalg.norm(a - proj.matrix())
        scale = max(float(np.trace(a).real) / size, 0.5)
        cols = _random_cone_columns(rng, size, n_samples, scale)
        d_samples = np.sqrt(np.maximum(_toeplitz_distance_sq(a, cols), 0.0))
        if d_proj <= d_samples.min() + 1e-9:
            wins += 1
    return SuiteResult("toeplitz-psd-projection", wins == n_inputs,
                       f"{wins}/{n_inputs} inputs where the projection beats "
                       f"{n_samples} random cone samples")


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


def suite_nnls(n_systems: int = 100, shape=(6, 4), seed: int = 41,
               tol: float = 1e-8) -> SuiteResult:
    rng = rng_stream(seed, 29)
    worst = 0.0
    for _ in range(n_systems):
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        z = nnls(a, b)
        obj = float(np.linalg.norm(a @ z - b))
        worst = max(worst, obj - nnls_bruteforce_objective(a, b))
    return SuiteResult("nnls-enumeration", worst <= tol,
                       f"max objective excess over enumeration: {worst:.3g}")


SUITES = {
    "matching": suite_rank_matching,
    "theorem": suite_milp_vs_bruteforce,
    "integrality": suite_node_lp_integrality,
    "stability": suite_estimation_stability,
    "szego": suite_szego,
    "projection": suite_projection,
    "nnls": suite_nnls,
}


def run_suites(names=None, inject_fault: bool = False) -> list:
    """Run the requested suites (all by default). ``inject_fault`` flips the
    NNLS tolerance to an impossible value; used to self-test the harness."""
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        if name == "nnls" and inject_fault:
            results.append(suite_nnls(tol=-1.0))
        else:
            results.append(SUITES[name]())
    return results
