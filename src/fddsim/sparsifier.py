"""Active channel sparsification.

From per-user beam-space power vectors, build a beam-user bipartite graph
and select a beam subset plus a user subset such that every selected user
keeps at most T_dl selected beams and at least P0 selected power, while
the matching size of the selected subgraph (= effective channel rank with
probability 1) is maximized. The graph is one M x K array of edge powers:
a beam's power for a user where it exceeds the threshold and 0 elsewhere,
so its edges are the positive entries. The selection is solved exactly as
a MILP with one integer count per class of interchangeable beams, binary
user indicators and a continuous matching block that is integral by total
unimodularity of bipartite b-matching, by SciPy's HiGHS; the plan takes
the strongest beams of each class, and SciPy's maximum bipartite matching
certifies its size. With at most one class, as on a complete graph with
P0 = 0, the program's optimum has a closed form and HiGHS is not called.

The sparsifying precoder of a plan is its selected rows of the conjugate
DFT F^H; ``beam_coefficients`` applies F^H by one FFT, so no precoder
matrix is ever built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import InvalidArgumentError, NumericalError

DEFAULT_TH_REL = 1e-2
# beam reward epsilon = EPSILON_FACTOR / M: below 1/M, it breaks ties towards
# more selected beams and never changes the matching size
EPSILON_FACTOR = 0.5


def build_beam_graph(w, th_rel: float = DEFAULT_TH_REL) -> np.ndarray:
    """The beam-user graph of an M x K beam-power array: its edge powers,
    w where w > th_rel times the largest entry and 0 elsewhere. The edges
    are exactly the positive entries."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise InvalidArgumentError("build_beam_graph: spectra must form an M x K array")
    if not np.all(np.isfinite(w)):
        raise InvalidArgumentError("build_beam_graph: spectra must be finite")
    if np.any(w < 0):
        raise InvalidArgumentError("build_beam_graph: spectra must be nonnegative")
    if not 0 <= th_rel < np.inf:  # NaN fails too
        raise InvalidArgumentError(
            f"build_beam_graph: th_rel {th_rel} must be finite and nonnegative")
    th = th_rel * float(w.max()) if w.size else 0.0
    return np.where(w > th, w, 0.0)


@dataclass
class SparsificationPlan:
    beams: list                  # selected beam indices, ascending
    users: list                  # selected user indices, ascending
    matching_size: int
    objective: float
    node_count: int              # HiGHS branch-and-bound nodes, 0 in closed form
    gap: float = 0.0             # HiGHS relative MIP gap, 0 in closed form
    n_classes: int = 0           # beam classes, one count variable each

    def to_json(self) -> str:
        return json.dumps({
            "beams": self.beams,
            "users": self.users,
            "matching_size": self.matching_size,
            "objective": self.objective,
            "node_count": self.node_count,
            "gap": self.gap,
            "n_classes": self.n_classes,
            "approximate": False,  # HiGHS runs without a node cap
        }, indent=2)


def beam_classes(g: np.ndarray, p0: float) -> list:
    """Classes of interchangeable beams of the edge-power array g, as
    ascending index arrays ordered by their lowest beam.

    Only active beams (those with an edge) are classed. Two beams fall in
    one class when their adjacency rows (g > 0) are equal and, with P0 > 0,
    so are their rows of g: swapping them then changes no row and no
    objective term of the selection MILP. A row is keyed by its bytes, with
    -0.0 read as 0.0, and the beams go in ascending order, so each class
    comes out ascending and the classes by their lowest beam.
    """
    key = g + 0.0 if p0 > 0 else g > 0
    classes = {}
    for beam in np.flatnonzero(g.any(axis=1)):
        classes.setdefault(key[beam].tobytes(), []).append(beam)
    return [np.array(cls) for cls in classes.values()]


@dataclass
class SelectionMilp:
    """The selection MILP: max c.x subject to A x <= b and 0 <= x <= upper,
    with the first ``n_int`` variables integer. ``classes[c]`` holds the
    beams whose count is variable c."""

    c: np.ndarray
    a: sparse.csr_array
    b: np.ndarray
    upper: np.ndarray
    n_int: int
    classes: list

    def to_debug_text(self) -> str:
        """Plain-text dump: the beam classes, then one row per line."""
        lines = [f"# class {c}: beams {' '.join(map(str, beams))}"
                 for c, beams in enumerate(self.classes)]
        lines.append("maximize " + " + ".join(f"{cj:g}*x{j}" for j, cj in enumerate(self.c)
                                              if cj))
        a = self.a
        for i, rhs in enumerate(self.b):
            row = slice(a.indptr[i], a.indptr[i + 1])
            terms = " + ".join(f"{v:g}*x{j}" for j, v in zip(a.indices[row], a.data[row]))
            lines.append(f"  {terms or '0'} <= {rhs:g}")
        for j, hi in enumerate(self.upper):
            kind = "int" if j < self.n_int else "cont"
            lines.append(f"  x{j} in [0.0, {float(hi)}] ({kind})")
        return "\n".join(lines)


def _check_selection_args(t_dl: int, p0: float) -> None:
    """Check the selection arguments shared by the program and its closed form."""
    if t_dl < 1:
        raise InvalidArgumentError(f"T_dl {t_dl} must be at least 1")
    if not 0 <= p0 < np.inf:  # NaN fails too
        raise InvalidArgumentError(f"P0 {p0} must be finite and nonnegative")


def formulate_milp(g: np.ndarray, t_dl: int, p0: float) -> SelectionMilp:
    """MILP with an integer beam count x_c in [0, n_c] per beam class c
    (see ``beam_classes``), binary user selectors y and a continuous
    matching block z_ck in [0, A_ck]; objective sum(z) + epsilon * sum(x).

    Rows, all "<=": sum_k z_ck <= x_c; sum_c z_ck <= y_k; the degree cap
    sum_c A_ck x_c <= T_dl y_k + d_k (1 - y_k) with d_k the user's degree;
    the power floor P0 y_k <= sum_c W_ck x_c, with W_ck the least power a
    beam of class c gives user k; and x_c <= n_c sum_k A_ck y_k, so a
    selected beam has a selected neighbor user.

    Variables are ordered x (C), y (K), then z with z_ck at C + K + c K + k.
    ``g`` is the M x K edge-power array of ``build_beam_graph``, with edges
    A = g > 0 and W = g. The beam reward is epsilon = EPSILON_FACTOR / M.
    """
    m, k = g.shape
    _check_selection_args(t_dl, p0)
    classes = beam_classes(g, p0)
    n_cls = len(classes)
    size = np.array([len(cls) for cls in classes], dtype=float)
    a_ck = g[[cls[0] for cls in classes]] > 0
    w_ck = np.array([g[cls].min(axis=0) for cls in classes]).reshape(n_cls, k)
    degree = (g > 0).sum(axis=0).astype(float)

    a = a_ck.astype(float).ravel()               # entry c K + k is A_ck
    cc, uk = np.divmod(np.arange(n_cls * k), k)  # class and user of each z
    xs, ys, zs = np.arange(n_cls), n_cls + np.arange(k), n_cls + k + np.arange(n_cls * k)
    r_deg, r_pow, r_nbr = n_cls + k, n_cls + 2 * k, n_cls + 3 * k  # blocks 3-5

    # (rows, columns, values) of the five row blocks, all of them "<="
    triplets = [
        (cc, zs, 1.0), (xs, xs, -1.0),                  # sum_k z_ck <= x_c
        (n_cls + uk, zs, 1.0), (ys, ys, -1.0),          # sum_c z_ck <= y_k
        # degree cap: sum_c A_ck x_c <= T_dl y_k + d_k (1 - y_k)
        (r_deg + uk, cc, a), (r_deg + np.arange(k), ys, degree - float(t_dl)),
        # power floor: P0 y_k <= sum_c W_ck x_c
        (r_pow + uk, cc, -w_ck.ravel()), (r_pow + np.arange(k), ys, float(p0)),
        # a selected beam needs a selected neighbor user
        (r_nbr + xs, xs, 1.0), (r_nbr + cc, n_cls + uk, -size[cc] * a),
    ]
    rows, cols, vals = zip(*triplets)
    vals = [np.broadcast_to(v, r.shape) for r, v in zip(rows, vals)]
    a_ub = sparse.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(2 * n_cls + 3 * k, n_cls + k + n_cls * k))
    a_ub.eliminate_zeros()
    a_ub.sort_indices()

    c = np.concatenate([np.full(n_cls, EPSILON_FACTOR / max(m, 1)), np.zeros(k),
                        np.ones(n_cls * k)])
    b = np.concatenate([np.zeros(n_cls + k), degree, np.zeros(k + n_cls)])
    upper = np.concatenate([size, np.ones(k), a])  # z <= A pins non-edges at 0
    return SelectionMilp(c=c, a=a_ub, b=b, upper=upper, n_int=n_cls + k, classes=classes)


def milp_solve(mip: SelectionMilp) -> tuple[np.ndarray, int, float]:
    """Solve the selection MILP with HiGHS: (x with the integer block
    rounded, branch-and-bound node count, relative MIP gap).

    Every right-hand side and upper bound is nonnegative, so x = 0 is
    feasible and the program is bounded: any status but optimal is a
    solver failure and raises NumericalError. Deterministic for fixed
    inputs.
    """
    integrality = np.zeros(mip.c.size)
    integrality[:mip.n_int] = 1
    res = milp(c=-mip.c, constraints=LinearConstraint(mip.a, -np.inf, mip.b),
               integrality=integrality, bounds=Bounds(0.0, mip.upper))
    if res.status != 0 or res.x is None:
        raise NumericalError(f"MILP solver failed: {res.message}")
    x = res.x
    x[:mip.n_int] = np.round(x[:mip.n_int])
    return x, int(res.mip_node_count), float(res.mip_gap)


def max_matching(adjacency: np.ndarray) -> int:
    """Size of a maximum matching of the bipartite graph whose rows and
    columns are the two vertex sets and whose True entries are the edges.

    Runs ``scipy.sparse.csgraph.maximum_bipartite_matching`` (Hopcroft-Karp),
    which stops only when no augmenting path exists, so the size is maximum.
    """
    a = np.asarray(adjacency)
    if a.dtype != bool or a.ndim != 2:
        raise InvalidArgumentError("max_matching: adjacency must be a 2-D boolean array")
    # CSR straight from the mask: row pointers from the row sums, column
    # indices in row-major order (cheaper than converting a dense array)
    indptr = np.concatenate(([0], np.cumsum(a.sum(axis=1))))
    indices = np.nonzero(a)[1]
    graph = sparse.csr_array((np.ones(indices.size, dtype=bool), indices, indptr),
                             shape=a.shape)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(match >= 0))


def _one_class_optimum(g: np.ndarray, classes: list, t_dl: int, p0: float):
    """(class counts, selected users, matching size, objective) of the
    selection program with at most one beam class, in closed form.

    With class c of n_c beams and adjacency row U, a selected user of U caps
    the count at T_dl and a selected beam needs one, so x <= min(n_c, T_dl).
    A larger x only adds users of U meeting the floor x W_ck >= P0 and adds
    epsilon, so x = min(n_c, T_dl) with every such user is optimal, or x = 0
    when no user meets the floor. The matching size is min(x, |users|).
    """
    if not classes:
        return [], np.zeros(0, dtype=int), 0, 0.0
    cls = classes[0]
    w_ck = g[cls].min(axis=0)
    count = min(cls.size, t_dl)
    users = np.flatnonzero((g[cls[0]] > 0) & (count * w_ck >= p0))
    if users.size == 0:
        count = 0
    size = min(count, users.size)
    return [count], users, size, float(size + EPSILON_FACTOR / g.shape[0] * count)


def solve_sparsification(g: np.ndarray, t_dl: int, p0: float = 0.0) -> SparsificationPlan:
    """Solve the beam/user selection program, take the strongest beams of
    each class and certify the matching size with an independent maximum
    matching.

    A graph with at most one beam class (for instance a complete graph with
    P0 = 0) is solved in closed form and reports node count 0; any other
    graph goes to HiGHS. The x_c beams taken from class c are those with
    the most power sum_k W_mk over the selected users; ties go to the
    lowest index.
    """
    m, k = g.shape
    _check_selection_args(t_dl, p0)
    classes = beam_classes(g, p0)
    n_cls = len(classes)
    if n_cls <= 1:
        counts, users, size, objective = _one_class_optimum(g, classes, t_dl, p0)
        node_count, gap = 0, 0.0
    else:
        mip = formulate_milp(g, t_dl, p0)
        x, node_count, gap = milp_solve(mip)
        counts = x[:n_cls].astype(int)
        users = np.flatnonzero(x[n_cls:n_cls + k] > 0.5)
        size, objective = x[n_cls + k:].sum(), mip.c @ x

    power = g[:, users].sum(axis=1)
    beams = np.sort(np.concatenate(
        [np.zeros(0, dtype=int)]
        + [cls[np.argsort(-power[cls], kind="stable")[:count]]
           for cls, count in zip(classes, counts)]))
    # A user selected with no selected incident beam contributes nothing
    # (possible when P0 = 0); drop it so downstream probing never touches it.
    sub = g[np.ix_(beams, users)] > 0
    has_beam = sub.any(axis=0)
    users = users[has_beam]
    matched = max_matching(sub[:, has_beam])
    if abs(size - matched) > 1e-6:
        raise NumericalError(
            f"matching certificate mismatch: predicted size {size} vs matching {matched}")

    plan = SparsificationPlan(
        beams=beams.tolist(), users=users.tolist(), matching_size=matched,
        objective=float(objective), node_count=node_count, gap=gap, n_classes=n_cls)
    _validate_plan(g, plan, t_dl, p0)
    return plan


def _validate_plan(g: np.ndarray, plan: SparsificationPlan, t_dl: int, p0: float):
    beams = np.asarray(plan.beams, dtype=int)
    users = np.asarray(plan.users, dtype=int)
    sub = g[np.ix_(beams, users)]
    degree = (sub > 0).sum(axis=0)
    power = sub.sum(axis=0)
    bad = (degree > t_dl) | (power < p0 - 1e-9)
    if bad.any():
        uk = int(np.argmax(bad))
        what = "degree cap" if degree[uk] > t_dl else "power floor"
        raise NumericalError(f"plan violates {what} for user {users[uk]}")
    isolated = ~sub.any(axis=1)
    if isolated.any():
        raise NumericalError(f"plan contains isolated beam {beams[np.argmax(isolated)]}")


def beam_coefficients(h: np.ndarray) -> np.ndarray:
    """F^H h along axis 0, with F the unitary DFT (entry (p, q) =
    exp(-j 2 pi p q / M) / sqrt(M)): row b holds the coefficients of beam b,
    sqrt(M) ifft(h) by one FFT.

    The sparsifying precoder B of a plan is rows ``plan.beams`` of F^H, so a
    user's effective channel B h is those rows of its beam coefficients.
    """
    h = np.asarray(h, dtype=complex)
    return np.sqrt(h.shape[0]) * np.fft.ifft(h, axis=0)
