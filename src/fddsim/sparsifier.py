"""Active channel sparsification.

From per-user beam-space power vectors, build a beam-user bipartite graph
and select a beam subset plus a user subset such that every selected user
keeps at most T_dl selected beams and at least P0 selected power, while
the matching size of the selected subgraph (= effective channel rank with
probability 1) is maximized. The selection is solved exactly as a MILP
with binary beam/user indicators and a continuous matching block that is
integral by the bipartite matching polytope property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import InvalidArgumentError
from .opt import (LinearProgram, MixedIntegerProgram, MatchingInstance,
                  max_matching, milp_solve)

DEFAULT_TH_REL = 1e-2
DEFAULT_EPSILON_FACTOR = 0.5  # epsilon = factor / n_beams, must stay below 1


@dataclass
class BeamGraph:
    """M x K bipartite graph: adjacency from thresholding beam powers."""

    weights: np.ndarray    # nonnegative, weights[m, k] = beam power of user k
    adjacency: np.ndarray  # boolean, weights > threshold
    threshold: float

    @property
    def n_beams(self) -> int:
        return self.weights.shape[0]

    @property
    def n_users(self) -> int:
        return self.weights.shape[1]

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum())

    def edges(self) -> list:
        return [(int(m), int(k)) for m, k in zip(*np.nonzero(self.adjacency))]


def build_beam_graph(spectra, th_rel: float = DEFAULT_TH_REL) -> BeamGraph:
    """Threshold per-user spectra at th_rel times the largest entry."""
    w = np.column_stack([np.asarray(s, dtype=float) for s in spectra]) \
        if not isinstance(spectra, np.ndarray) else np.asarray(spectra, dtype=float)
    if w.ndim != 2:
        raise InvalidArgumentError("build_beam_graph: spectra must form an M x K array")
    if np.any(w < 0):
        raise InvalidArgumentError("build_beam_graph: spectra must be nonnegative")
    th = th_rel * float(w.max()) if w.size else 0.0
    adjacency = w > th
    return BeamGraph(weights=w, adjacency=adjacency, threshold=th)


@dataclass
class SparsificationPlan:
    beams: list                  # selected beam indices, ascending
    users: list                  # selected user indices, ascending
    matching_size: int
    objective: float
    node_count: int              # HiGHS branch-and-bound nodes
    gap: float = 0.0             # HiGHS relative MIP gap
    matched_edges: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "beams": self.beams,
            "users": self.users,
            "matching_size": self.matching_size,
            "objective": self.objective,
            "node_count": self.node_count,
            "gap": self.gap,
            "approximate": False,  # HiGHS runs without a node cap
        }, indent=2)


def formulate_milp(g: BeamGraph, t_dl: int, p0: float,
                   epsilon: float | None = None) -> MixedIntegerProgram:
    """MILP with binary beam selectors x, user selectors y and a continuous
    matching block z in [0,1]; objective sum(z) + epsilon * sum(x).

    Variables are ordered x (M), y (K), then z with z_mk at M + K + m K + k.
    ``epsilon`` defaults to DEFAULT_EPSILON_FACTOR / M.
    """
    m, k = g.n_beams, g.n_users
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_FACTOR / max(m, 1)
    if epsilon >= 1.0 / max(m, 1):
        raise InvalidArgumentError(
            f"epsilon {epsilon} must be below 1/M = {1.0 / m} to keep the "
            "matching size of the optimum unchanged")
    a = g.adjacency.astype(float).ravel()       # entry m K + k is A_mk
    w = (g.weights * g.adjacency).ravel()
    bm, uk = np.divmod(np.arange(m * k), k)     # beam and user of each z
    xs, ys, zs = np.arange(m), m + np.arange(k), m + k + np.arange(m * k)
    r_deg, r_pow, r_nbr = m + k, m + 2 * k, m + 3 * k  # first row of blocks 3-5

    # (rows, columns, values) of the five row blocks, all of them "<="
    triplets = [
        (bm, zs, 1.0), (xs, xs, -1.0),                # sum_k z_mk <= x_m
        (m + uk, zs, 1.0), (ys, ys, -1.0),            # sum_m z_mk <= y_k
        # degree cap: sum_m A_mk x_m <= T_dl y_k + M (1 - y_k)
        (r_deg + uk, bm, a), (r_deg + np.arange(k), ys, float(m) - float(t_dl)),
        # power floor: P0 y_k <= sum_m W_mk x_m
        (r_pow + uk, bm, -w), (r_pow + np.arange(k), ys, float(p0)),
        # a selected beam needs a selected neighbor user
        (r_nbr + xs, xs, 1.0), (r_nbr + bm, m + uk, -a),
    ]
    rows, cols, vals = zip(*triplets)
    vals = [np.broadcast_to(v, r.shape) for r, v in zip(rows, vals)]
    a_ub = sparse.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(2 * m + 3 * k, m + k + m * k))
    a_ub.eliminate_zeros()
    a_ub.sort_indices()

    c = np.concatenate([np.full(m, epsilon), np.zeros(k), np.ones(m * k)])
    b = np.concatenate([np.zeros(m + k), np.full(k, float(m)), np.zeros(k + m)])
    upper = np.concatenate([np.ones(m + k), a])  # z <= A pins non-edges at 0
    return MixedIntegerProgram(lp=LinearProgram(c=c, a=a_ub, b=b, upper=upper), n_int=m + k)


def solve_sparsification(g: BeamGraph, t_dl: int, p0: float = 0.0,
                         epsilon: float | None = None) -> SparsificationPlan:
    """Solve the beam/user selection MILP with HiGHS and certify the
    matching size with an independent maximum matching."""
    m, k = g.n_beams, g.n_users
    res = milp_solve(formulate_milp(g, t_dl, p0, epsilon))
    if res.x is None:
        return SparsificationPlan(beams=[], users=[], matching_size=0, objective=0.0,
                                  node_count=res.node_count, gap=res.gap)

    x = res.x
    beams = {bm for bm in range(m) if x[bm] > 0.5}
    users = {uk for uk in range(k) if x[m + uk] > 0.5}
    # A user selected with no selected incident beam contributes nothing
    # (possible when P0 = 0); drop it so downstream probing never touches it.
    users = {uk for uk in users if any(g.adjacency[bm, uk] for bm in beams)}
    beams = {bm for bm in beams if any(g.adjacency[bm, uk] for uk in users)}

    edges = [(bm, uk) for (bm, uk) in g.edges() if bm in beams and uk in users]
    size, matched = max_matching(MatchingInstance(m, k, edges))
    z_sum = x[m + k:].sum()
    if abs(z_sum - size) > 1e-6:
        raise InvalidArgumentError(
            f"matching certificate mismatch: MILP z sum {z_sum} vs matching {size}")

    plan = SparsificationPlan(
        beams=sorted(beams), users=sorted(users), matching_size=size,
        objective=float(res.objective), node_count=res.node_count, gap=res.gap,
        matched_edges=matched)
    _validate_plan(g, plan, t_dl, p0)
    return plan


def _validate_plan(g: BeamGraph, plan: SparsificationPlan, t_dl: int, p0: float):
    beams = set(plan.beams)
    for uk in plan.users:
        inc = [bm for bm in beams if g.adjacency[bm, uk]]
        if len(inc) > t_dl:
            raise InvalidArgumentError(f"plan violates degree cap for user {uk}")
        if sum(g.weights[bm, uk] for bm in inc) < p0 - 1e-9:
            raise InvalidArgumentError(f"plan violates power floor for user {uk}")
    for bm in plan.beams:
        if not any(g.adjacency[bm, uk] for uk in plan.users):
            raise InvalidArgumentError(f"plan contains isolated beam {bm}")


def brute_force_sparsify(g: BeamGraph, t_dl: int, p0: float = 0.0) -> SparsificationPlan:
    """Exact optimum by enumeration; test oracle for small instances.

    For each beam subset, the best user set is exactly the set of users
    that are individually feasible (degree and power are per-user), so only
    beam subsets need enumeration.
    """
    m, k = g.n_beams, g.n_users
    active = [bm for bm in range(m) if g.adjacency[bm].any()]
    if len(active) + k > 14:
        raise InvalidArgumentError("brute_force_sparsify: instance too large")
    a = g.adjacency
    w = g.weights
    best = SparsificationPlan(beams=[], users=[], matching_size=0,
                              objective=0.0, node_count=0)
    for mask in range(1 << len(active)):
        beams = [active[i] for i in range(len(active)) if mask >> i & 1]
        sel = np.zeros(m, dtype=bool)
        sel[beams] = True
        deg = (a & sel[:, None]).sum(axis=0)
        power = (w * (a & sel[:, None])).sum(axis=0)
        users = [uk for uk in range(k)
                 if 1 <= deg[uk] <= t_dl and power[uk] >= p0]
        edges = [(bm, uk) for bm in beams for uk in users if a[bm, uk]]
        size, matched = max_matching(MatchingInstance(m, k, edges))
        used_beams = sorted({bm for bm, _ in edges})
        if size > best.matching_size:
            best = SparsificationPlan(beams=used_beams,
                                      users=sorted({uk for _, uk in edges}),
                                      matching_size=size, objective=float(size),
                                      node_count=0, matched_edges=matched)
    return best


@dataclass
class SparsifyingPrecoder:
    """Selected-row conjugate DFT: maps antenna channels to selected-beam
    coefficients. Rows are orthonormal (B B^H = I)."""

    beams: list
    m: int

    def __post_init__(self):
        if not self.beams:
            raise InvalidArgumentError("sparsifying precoder needs at least one beam")
        if any(not (0 <= bm < self.m) for bm in self.beams):
            raise InvalidArgumentError("beam index out of range")
        # the selected columns of the unitary DFT, entry (p, q) =
        # exp(-j 2 pi p q / M) / sqrt(M), built once and conjugate-transposed
        f_sel = np.exp(-2j * np.pi * np.outer(np.arange(self.m), self.beams) / self.m) \
            / np.sqrt(self.m)
        self._matrix = f_sel.conj().T
        self._matrix.flags.writeable = False

    @property
    def m_prime(self) -> int:
        return len(self.beams)

    def matrix(self) -> np.ndarray:
        """The M' x M precoder (read-only)."""
        return self._matrix

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self._matrix @ h

    def expand(self, h_eff: np.ndarray) -> np.ndarray:
        """Back to the antenna domain, zero outside the selected beams."""
        return self._matrix.conj().T @ h_eff


def sparsifying_precoder(plan: SparsificationPlan, m: int) -> SparsifyingPrecoder:
    return SparsifyingPrecoder(beams=list(plan.beams), m=m)
