"""Tests for beam-graph construction and the selection MILP."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import OptimizeResult, milp

from fddsim.channel import DEFAULT_ALPHA, true_covariance
from fddsim.config import ExperimentConfig
from fddsim.covariance import circulant_eigenvalues
from fddsim.errors import InvalidArgumentError, NumericalError
from fddsim.evaluation import normalized_error, run_trial
from fddsim.numerics import rng_stream
from fddsim.sparsifier import (SparsificationPlan, _validate_plan, beam_classes,
                               beam_coefficients, build_beam_graph, formulate_milp,
                               milp_solve, solve_sparsification)
from fddsim.validate import (SuiteResult, brute_force_sparsify, fixed_selector_deviations,
                             milp_oracle, random_beam_graph, suite_milp_vs_bruteforce)
from snapshots import dft_matrix


def repeated_row_graph(rng, n_beams, n_users):
    """Random graph whose beams copy one of at most three distinct rows, so
    beam classes have several members. Half the beams then get fresh edge
    weights: those share only the adjacency row with their copies. Weights
    are multiples of 1/16, so power sums are exact."""
    n_rows = int(rng.integers(1, 4))
    adjacency = (rng.random((n_rows, n_users)) < 0.6)[rng.integers(0, n_rows, n_beams)]
    weights = rng.integers(1, 17, (n_rows, n_users))[rng.integers(0, n_rows, n_beams)]
    fresh = rng.random(n_beams) < 0.5
    weights[fresh] = rng.integers(1, 17, (int(fresh.sum()), n_users))
    return np.where(adjacency, weights / 16.0, 0.0)


def assert_plan_feasible(g, plan, t_dl, p0):
    for uk in plan.users:
        inc = [bm for bm in plan.beams if g[bm, uk] > 0]
        assert 1 <= len(inc) <= t_dl
        assert g[inc, uk].sum() >= p0
    for bm in plan.beams:
        assert any(g[bm, uk] > 0 for uk in plan.users)


# ------------------------------------------------------------------ beam graph

def test_build_beam_graph_single_edge():
    g = build_beam_graph(np.column_stack([[1.0, 0.0, 0.0]]), th_rel=0.01)
    assert g.shape == (3, 1)
    assert np.argwhere(g > 0).tolist() == [[0, 0]]


def test_build_beam_graph_threshold_is_relative():
    # the entry at exactly th_rel * max = 0.01 is not an edge and reads 0
    g = build_beam_graph(np.column_stack([[1.0, 0.005, 0.02, 0.01]]), th_rel=0.01)
    assert np.argwhere(g > 0).tolist() == [[0, 0], [2, 0]]
    assert g[:, 0].tolist() == [1.0, 0.0, 0.02, 0.0]


def test_build_beam_graph_all_zero():
    g = build_beam_graph(np.column_stack([np.zeros(4), np.zeros(4)]))
    assert g.shape == (4, 2) and not g.any()


def test_build_beam_graph_large_array_sparsity():
    from fddsim.channel import make_scenario
    _, users = make_scenario(3, 0.2, 4, 19, 0)
    spectra = np.column_stack([circulant_eigenvalues(true_covariance(u.asf, 128, DEFAULT_ALPHA))
                               for u in users])
    g = build_beam_graph(spectra, th_rel=0.01)
    per_user = (g > 0).sum(axis=0)
    assert np.all(per_user >= 15) and np.all(per_user <= 60)


def test_build_beam_graph_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        build_beam_graph(np.column_stack([[1.0, -0.1]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            build_beam_graph(np.column_stack([[1.0, bad]]))
    for th_rel in (-1.0, np.nan):
        with pytest.raises(InvalidArgumentError):
            build_beam_graph(np.column_stack([[1.0, 0.0]]), th_rel=th_rel)


# ------------------------------------------------------------------ MILP shape

def test_formulate_milp_dimensions():
    # beams 1 and 2 share an adjacency row; beam 3 has no edge
    g = np.array([[1.0, 0.0], [0.5, 0.8], [0.4, 0.3], [0.0, 0.0]])
    mip = formulate_milp(g, t_dl=2, p0=0.0)
    c, k = 2, 2
    assert [cls.tolist() for cls in mip.classes] == [[0], [1, 2]]
    assert mip.c.size == c + k + c * k
    assert mip.n_int == c + k
    assert mip.upper[:c].tolist() == [1.0, 2.0]
    assert sparse.issparse(mip.a) and mip.a.format == "csr"
    assert "int" in mip.to_debug_text()
    # a power floor keys the classes on the weights too
    assert [cls.tolist() for cls in beam_classes(g, 0.1)] == [[0], [1], [2]]


def _beam_classes_by_unique(g, p0):
    """The np.unique form of ``beam_classes``, kept as its reference: active
    rows keyed by adjacency (and by g with P0 > 0), then class ids ranked
    by each class's lowest beam."""
    active = np.flatnonzero(g.any(axis=1))
    key = (g[active] > 0).astype(float)
    if p0 > 0:
        key = np.hstack([key, g[active]])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # class id by lowest member
    return [active[rank[inverse.ravel()] == c] for c in range(first.size)]


def test_beam_classes_match_the_unique_reference():
    """beam_classes gives the np.unique form's classes, in its order, on 300
    random graphs of repeated rows (equal powers, and fresh powers on a
    shared adjacency row), with and without a power floor, some of them with
    -0.0 in place of their non-edges; and on an all-zero graph and K = 0."""
    rng = rng_stream(70, 0)
    graphs = [np.zeros((6, 3)), np.zeros((6, 0)), np.array([[0.5, -0.0], [0.5, 0.0]])]
    for _ in range(300):
        g = repeated_row_graph(rng, int(rng.integers(1, 25)), int(rng.integers(1, 6)))
        signed = rng.random(g.shape[0]) < 0.3
        g[signed] = np.where(g[signed] > 0, g[signed], -0.0)
        graphs.append(g)
    for g in graphs:
        for p0 in (0.0, 0.25):
            got = beam_classes(g, p0)
            assert [cls.tolist() for cls in got] == [
                cls.tolist() for cls in _beam_classes_by_unique(g, p0)]
            assert all(cls.dtype == np.intp for cls in got)
    # -0.0 and 0.0 are one weight: the two beams are one class
    assert [cls.tolist() for cls in beam_classes(graphs[2], 0.25)] == [[0, 1]]


def _class_program_by_loop(g, t_dl, p0):
    """(classes, dense rows, right-hand side, upper bounds) of the class
    program, built one beam, class and row at a time."""
    m, k = g.shape
    a = g > 0
    by_key = {}
    for bm in range(m):
        if a[bm].any():
            key = tuple(a[bm]) + (tuple(g[bm]) if p0 > 0 else ())
            by_key.setdefault(key, []).append(bm)
    classes = list(by_key.values())  # insertion order: by lowest beam
    n = len(classes)
    nz = n + k + n * k
    rows, rhs = [], []

    def row_of(entries, b):
        row = np.zeros(nz)
        for j, v in entries:
            row[j] += v
        rows.append(row)
        rhs.append(b)

    for c in range(n):  # sum_k z_ck <= x_c
        row_of([(c, -1.0)] + [(n + k + c * k + uk, 1.0) for uk in range(k)], 0.0)
    for uk in range(k):  # sum_c z_ck <= y_k
        row_of([(n + uk, -1.0)] + [(n + k + c * k + uk, 1.0) for c in range(n)], 0.0)
    for uk in range(k):  # degree cap
        d = float(a[:, uk].sum())
        row_of([(c, float(a[cls[0], uk])) for c, cls in enumerate(classes)]
               + [(n + uk, d - t_dl)], d)
    for uk in range(k):  # power floor, with the least power of each class
        row_of([(c, -min(g[bm, uk] for bm in cls)) for c, cls in enumerate(classes)]
               + [(n + uk, p0)], 0.0)
    for c, cls in enumerate(classes):  # a selected beam needs a selected neighbor user
        row_of([(c, 1.0)] + [(n + uk, -len(cls) * float(a[cls[0], uk])) for uk in range(k)],
               0.0)
    upper = [len(cls) for cls in classes] + [1.0] * k \
        + [float(a[cls[0], uk]) for cls in classes for uk in range(k)]
    return classes, np.array(rows).reshape(-1, nz), rhs, upper


def test_formulate_milp_matches_row_loop():
    rng = rng_stream(67, 0)
    for i in range(40):
        m, k = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        g = random_beam_graph(rng, m, k) if i % 2 else repeated_row_graph(rng, m, k)
        t_dl = int(rng.integers(1, m + 1))  # includes T_dl = degree, a zero coefficient
        p0 = float(rng.choice([0.0, 0.3]))
        mip = formulate_milp(g, t_dl, p0)
        classes, rows, rhs, upper = _class_program_by_loop(g, t_dl, p0)
        assert [cls.tolist() for cls in mip.classes] == classes
        assert mip.a.has_canonical_format and not np.any(mip.a.data == 0.0)
        assert np.array_equal(mip.a.toarray(), rows)
        assert np.array_equal(mip.b, rhs)
        assert np.array_equal(mip.upper, upper)
        assert np.array_equal(mip.c, [0.5 / m] * len(classes) + [0.0] * k
                              + [1.0] * (len(classes) * k))
        # x = 0 is feasible in every selection program, so HiGHS can only
        # report it optimal (see test_milp_solve_non_optimal_status_raises)
        assert np.all(mip.b >= 0.0) and np.all(mip.upper >= 0.0)


# ------------------------------------------------------------- solve: examples

def test_solve_single_edge():
    g = np.array([[1.0]])
    plan = solve_sparsification(g, t_dl=1, p0=0.5)
    assert plan.beams == [0] and plan.users == [0]
    assert plan.matching_size == 1
    assert abs(plan.objective - (1.0 + 0.5)) < 1e-9  # 1 + epsilon = 0.5/M


def test_solve_power_floor_excludes_all():
    g = np.array([[0.2]])
    plan = solve_sparsification(g, t_dl=1, p0=0.5)
    assert plan.beams == [] and plan.users == []
    assert plan.matching_size == 0


def test_zero_beam_graph():
    """A graph with no beams (M = 0) gives the empty plan, and its program
    holds only the K user selectors, with a zero objective."""
    g = np.zeros((0, 3))
    plan = solve_sparsification(g, 2)
    assert plan.beams == [] and plan.users == []
    assert plan.matching_size == 0 and plan.objective == 0.0
    assert plan.n_classes == 0 and plan.node_count == 0
    mip = formulate_milp(g, 2, 0.0)
    assert mip.classes == [] and mip.n_int == 3
    assert np.array_equal(mip.c, np.zeros(3)) and np.array_equal(mip.upper, np.ones(3))
    assert mip.a.shape == (9, 3) and np.array_equal(mip.b, np.zeros(9))


def test_solve_identity_adjacency():
    g = np.eye(3)
    plan = solve_sparsification(g, t_dl=1, p0=0.0)
    assert plan.matching_size == 3
    assert plan.beams == [0, 1, 2] and plan.users == [0, 1, 2]


def test_certificate_mismatch_raises(monkeypatch):
    """The independent matching must agree with the HiGHS z sum (identity,
    three classes) and with the closed form's matching size (one class)."""
    import fddsim.sparsifier as sp
    true_size = sp.max_matching
    monkeypatch.setattr(sp, "max_matching", lambda a: true_size(a) + 1)
    for w in (np.eye(3), np.ones((3, 2))):
        with pytest.raises(NumericalError, match="certificate"):
            solve_sparsification(w, t_dl=1)


def test_isolated_selected_beam_raises(monkeypatch):
    """A solution that takes a beam with no selected neighbor user breaks
    the program's row x_c <= n_c sum_k A_ck y_k: it is a solver fault, and
    the plan check reports it instead of dropping the beam."""
    import fddsim.sparsifier as sp
    # x = (class counts 0, 1; user selectors 1, 0; no matching): beam 1, user 0
    monkeypatch.setattr(sp, "milp_solve",
                        lambda mip: (np.array([0, 1, 1, 0, 0, 0, 0, 0.0]), 0, 0.0))
    with pytest.raises(NumericalError, match="isolated beam 1"):
        solve_sparsification(np.eye(2), t_dl=1)


# weights of the hand-made plans below: beams 1 and 2 reach only user 0,
# beam 3 only user 1
_VALIDATE_W = [[1.0, 0.5], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize("beams, users, t_dl, p0, message", [
    ([0, 1, 2], [0], 2, 0.0, "degree cap for user 0"),
    ([0], [0, 1], 3, 0.75, "power floor for user 1"),
    ([0, 3], [0], 3, 0.0, "isolated beam 3"),
], ids=["degree cap", "power floor", "isolated beam"])
def test_validate_plan_rejects_each_violation(beams, users, t_dl, p0, message):
    g = np.array(_VALIDATE_W)
    plan = SparsificationPlan(beams=beams, users=users, matching_size=1, objective=1.0,
                              node_count=0)
    with pytest.raises(NumericalError, match=message):
        _validate_plan(g, plan, t_dl, p0)
    good = SparsificationPlan(beams=[0, 3], users=[0, 1], matching_size=2, objective=2.0,
                              node_count=0)
    _validate_plan(g, good, 2, 0.5)


def test_solve_disjoint_single_beam_users():
    w = np.zeros((6, 4))
    for k in range(4):
        w[k, k] = 1.0
    plan = solve_sparsification(w, t_dl=2, p0=0.0)
    assert plan.users == [0, 1, 2, 3]
    assert plan.matching_size == 4


def test_solve_degree_cap_excludes_user():
    # User 0 needs both beams to reach the power floor but T_dl = 1.
    g = np.array([[0.4, 0.0],
                  [0.4, 0.0],
                  [0.0, 0.9],
                  [0.0, 0.0]])
    plan = solve_sparsification(g, t_dl=1, p0=0.7)
    ref = brute_force_sparsify(g, t_dl=1, p0=0.7)
    assert plan.users == [1] == ref.users
    assert plan.matching_size == ref.matching_size == 1


def test_solve_matches_bruteforce_random():
    rng = rng_stream(61, 0)
    for _ in range(60):
        g = random_beam_graph(rng, int(rng.integers(2, 8)), int(rng.integers(1, 6)))
        t_dl = int(rng.integers(1, 4))
        p0 = 0.0 if rng.random() < 0.5 or not g.any() else float(np.median(g[g > 0]))
        plan = solve_sparsification(g, t_dl, p0=p0)
        ref = brute_force_sparsify(g, t_dl, p0=p0)
        assert plan.matching_size == ref.matching_size


@pytest.mark.parametrize("floor", [False, True], ids=["p0=0", "p0>0"])
def test_class_program_matches_bruteforce_on_repeated_rows(floor):
    """Graphs whose beams repeat rows: the class program's matching size is
    the enumeration oracle's, and its plan is feasible."""
    rng = rng_stream(68, int(floor))
    merged = 0
    for _ in range(60):
        g = repeated_row_graph(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
        t_dl = int(rng.integers(1, 5))
        p0 = float(np.median(g[g > 0])) if floor and g.any() else 0.0
        plan = solve_sparsification(g, t_dl, p0=p0)
        merged += plan.n_classes < g.any(axis=1).sum()
        assert plan.matching_size == brute_force_sparsify(g, t_dl, p0=p0).matching_size
        assert_plan_feasible(g, plan, t_dl, p0)
    assert merged >= 20  # most instances have a class of several beams


def test_solved_plan_respects_constraints():
    rng = rng_stream(63, 0)
    for _ in range(20):
        g = random_beam_graph(rng, 7, 5)
        t_dl = int(rng.integers(1, 4))
        p0 = 0.0 if not g.any() else float(np.median(g[g > 0]))
        plan = solve_sparsification(g, t_dl, p0=p0)
        for uk in plan.users:
            inc = [bm for bm in plan.beams if g[bm, uk] > 0]
            assert 1 <= len(inc) <= t_dl
            assert sum(g[bm, uk] for bm in inc) >= p0 - 1e-9
        for bm in plan.beams:
            assert any(g[bm, uk] > 0 for uk in plan.users)
        assert plan.n_classes == len(beam_classes(g, p0))


def test_matching_block_integral_when_selectors_fixed():
    rng = rng_stream(64, 0)
    for _ in range(20):
        g = random_beam_graph(rng, 6, 4)
        plan = solve_sparsification(g, 2)
        devs = fixed_selector_deviations(g, 2, 0.0, plan, rng, n_random=3)
        assert len(devs) == 4
        assert max(devs) <= 1e-6


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_solve_matches_bruteforce_property(data):
    """Degree cap, power floor and the enumeration oracle's matching size on
    random graphs up to 7 x 5. Weights and P0 are multiples of 1/16, so the
    power sums are exact."""
    m = data.draw(st.integers(1, 7), label="beams")
    k = data.draw(st.integers(1, 5), label="users")
    g = np.array(data.draw(st.lists(st.integers(0, 16), min_size=m * k, max_size=m * k),
                           label="weights"), dtype=float).reshape(m, k) / 16.0
    t_dl = data.draw(st.integers(1, m), label="t_dl")
    p0 = data.draw(st.integers(0, 32), label="p0") / 16.0
    plan = solve_sparsification(g, t_dl, p0=p0)
    for uk in plan.users:
        inc = [bm for bm in plan.beams if g[bm, uk] > 0]
        assert 1 <= len(inc) <= t_dl
        assert g[inc, uk].sum() >= p0
    assert plan.matching_size == brute_force_sparsify(g, t_dl, p0=p0).matching_size


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_plan_takes_strongest_beams_of_each_class(data):
    """Within each class of beams sharing an adjacency row (P0 = 0), the
    plan's beams are the class's strongest by power over the plan's users,
    ties going to the lowest index. Weights are multiples of 1/16."""
    m = data.draw(st.integers(2, 8), label="beams")
    k = data.draw(st.integers(1, 4), label="users")
    n_rows = data.draw(st.integers(1, 3), label="distinct rows")
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows * k,
                                       max_size=n_rows * k), label="rows")).reshape(n_rows, k)
    pick = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=m, max_size=m),
                     label="row of each beam")
    w = np.array(data.draw(st.lists(st.integers(1, 16), min_size=m * k, max_size=m * k),
                           label="weights"), dtype=float).reshape(m, k) / 16.0
    g = np.where(rows[pick], w, 0.0)
    t_dl = data.draw(st.integers(1, m), label="t_dl")
    plan = solve_sparsification(g, t_dl)
    power = g[:, plan.users].sum(axis=1)
    for cls in beam_classes(g, 0.0):
        taken = [bm for bm in cls if bm in plan.beams]
        strongest = sorted(cls, key=lambda bm: (-power[bm], bm))[:len(taken)]
        assert taken == sorted(strongest), (cls.tolist(), power[cls].tolist())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_class_closed_form_matches_highs(data):
    """Graphs with at most one beam class: one adjacency row shared by some
    beams, the others edgeless (possibly all of them). The closed-form plan
    has the HiGHS optimum's objective, matching size and beam count, and the
    enumeration oracle's matching size. The class's beams share one weight
    row (dyadic, so power sums are exact), which keeps one class at P0 > 0."""
    m = data.draw(st.integers(1, 7), label="beams")
    k = data.draw(st.integers(1, 5), label="users")
    row = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k), label="row"))
    member = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m),
                                label="class members"))
    power = np.array(data.draw(st.lists(st.integers(1, 16), min_size=k, max_size=k),
                               label="weight row"), dtype=float) / 16.0
    t_dl = data.draw(st.integers(1, m + 1), label="t_dl")
    p0 = data.draw(st.one_of(st.just(0), st.integers(1, 48)), label="p0") / 16.0
    g = np.where(member[:, None] & row, power, 0.0)
    n_cls = len(beam_classes(g, p0))
    assert n_cls <= 1

    plan = solve_sparsification(g, t_dl, p0=p0)
    mip = formulate_milp(g, t_dl, p0)
    x, _, _ = milp_solve(mip)
    assert plan.n_classes == n_cls and plan.node_count == 0 and plan.gap == 0.0
    assert abs(plan.objective - mip.c @ x) <= 1e-9
    assert plan.matching_size == round(x[n_cls + k:].sum())
    assert len(plan.beams) == round(x[:n_cls].sum())
    assert plan.matching_size == brute_force_sparsify(g, t_dl, p0=p0).matching_size
    assert_plan_feasible(g, plan, t_dl, p0)


def test_highs_runs_only_on_two_or_more_classes(monkeypatch):
    import fddsim.sparsifier as sp

    def refuse(*args, **kwargs):
        raise AssertionError("HiGHS path taken on a graph with at most one class")

    monkeypatch.setattr(sp, "formulate_milp", refuse)
    monkeypatch.setattr(sp, "milp_solve", refuse)
    # (graph, P0, T_dl, classes, matching size); at T_dl = 1 one beam
    # misses the floor, and the edgeless graph has no class
    for g, p0, t_dl, n_cls, size in [(np.ones((3, 2)), 0.0, 2, 1, 2),
                                     (np.full((3, 2), 0.5), 0.75, 2, 1, 2),
                                     (np.full((3, 2), 0.5), 0.75, 1, 1, 0),
                                     (np.zeros((3, 2)), 0.0, 2, 0, 0)]:
        plan = solve_sparsification(g, t_dl, p0=p0)
        assert (plan.n_classes, plan.matching_size, plan.node_count) == (n_cls, size, 0)
        assert len(plan.beams) == (t_dl if size else 0)

    calls = []
    monkeypatch.setattr(sp, "formulate_milp", formulate_milp)
    monkeypatch.setattr(sp, "milp_solve", lambda mip: calls.append(mip) or milp_solve(mip))
    two = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert len(beam_classes(two, 0.0)) == 2
    assert solve_sparsification(two, t_dl=1).matching_size == 2
    assert len(calls) == 1


def test_milp_solve_non_optimal_status_raises(monkeypatch):
    """x = 0 is feasible in every selection program, so any HiGHS status but
    optimal is a solver failure. A time limit (status 1) and a reported
    infeasibility (status 2) make milp_solve raise NumericalError, and
    run_trial records the failure against the sparsify step."""
    import fddsim.sparsifier as sp
    two = formulate_milp(np.eye(2), t_dl=1, p0=0.0)
    monkeypatch.setattr(sp, "milp", lambda **kw: milp(**kw, options={"time_limit": 1e-12}))
    with pytest.raises(NumericalError, match="Time limit reached"):
        milp_solve(two)

    infeasible = "The problem is infeasible."
    monkeypatch.setattr(sp, "milp", lambda **kw: OptimizeResult(status=2, x=None,
                                                                 message=infeasible))
    with pytest.raises(NumericalError, match=infeasible):
        milp_solve(two)
    # trial 0 of this config has several beam classes, so every T_dl reaches HiGHS
    cfg = ExperimentConfig(m=16, k=3, t=32, tdl_list=[4, 8], snr_db_list=[10.0],
                           n_trials=1, seed=1, n_ul=200, th_rel=1e-2)
    records = run_trial(cfg, 0)
    assert len(records) == 2
    for rec in records:
        assert rec.failure == f"sparsify: NumericalError: MILP solver failed: {infeasible}"
        assert (rec.served, rec.matching_size, rec.sum_rate_bits) == (0, 0, 0.0)


@pytest.mark.parametrize("t_dl", [8, 16, 24, 32, 48])
def test_complete_64x8_plan_matches_highs(t_dl):
    """The acceptance-scale complete graph: the closed form gives HiGHS's
    plan, the count's strongest beams by power over the selected users."""
    g = rng_stream(69, 0).uniform(0.5, 2.0, (64, 8))
    plan = solve_sparsification(g, t_dl)
    mip = formulate_milp(g, t_dl, 0.0)
    x, _, _ = milp_solve(mip)
    count, users = int(x[0]), np.flatnonzero(x[1:9] > 0.5)
    beams = np.sort(np.argsort(-g[:, users].sum(axis=1), kind="stable")[:count])
    assert plan.n_classes == 1 and plan.node_count == 0
    assert plan.beams == beams.tolist() and plan.users == users.tolist() == list(range(8))
    assert plan.matching_size == round(x[9:].sum()) == 8
    assert abs(plan.objective - mip.c @ x) <= 1e-9


def test_milp_suite_and_oracle_agree(monkeypatch):
    """The suite returns one SuiteResult, built from milp_oracle's count on
    its 200 instances of seed 77, and passes only if every instance matches;
    without collect_z the oracle solves no fixed-selector LP."""
    import fddsim.validate as validate

    calls = []

    def stub(hits):
        def oracle(*args, **kwargs):
            calls.append((args, kwargs))
            return hits, 0.0, 0
        return oracle

    for hits, passed in [(200, True), (199, False)]:
        monkeypatch.setattr(validate, "milp_oracle", stub(hits))
        res = suite_milp_vs_bruteforce()
        assert isinstance(res, SuiteResult) and res.passed is passed
        assert res.detail == f"{hits}/200 instances match the enumeration oracle"
    assert calls == [((200, 77), {"collect_z": False})] * 2
    monkeypatch.undo()
    assert milp_oracle(20, 5, collect_z=False) == (20, 0.0, 0)


def test_brute_force_guard():
    with pytest.raises(InvalidArgumentError):
        brute_force_sparsify(np.ones((16, 8)), t_dl=2)


# -------------------------------------------------------------------- precoder

def test_precoder_all_beams_is_dft_adjoint():
    np.testing.assert_allclose(beam_coefficients(np.eye(6)), dft_matrix(6).conj().T,
                               atol=1e-14)


def test_precoder_single_beam():
    rng = rng_stream(65, 0)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    f = dft_matrix(8)
    np.testing.assert_allclose(beam_coefficients(h)[[3]], [f[:, 3].conj() @ h], atol=1e-12)


def test_precoder_rows_orthonormal_and_projection():
    """Rows [1, 4, 6] of F^H: orthonormal, a projection, and by Parseval the
    antenna-domain error ||h - B^H h_hat|| equals the zero-filled
    beam-domain error that run_trial records."""
    beams = [1, 4, 6]
    f_h = dft_matrix(8).conj().T
    b = beam_coefficients(np.eye(8))[beams]
    np.testing.assert_allclose(b, f_h[beams], atol=1e-14)
    np.testing.assert_allclose(b @ b.conj().T, np.eye(3), atol=1e-12)
    rng = rng_stream(66, 0)
    h = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    assert np.all(np.linalg.norm(beam_coefficients(h)[beams], axis=0)
                  <= np.linalg.norm(h, axis=0) + 1e-12)
    # equality iff h lies in the span of the selected columns
    h_in = f_h[beams].conj().T @ (rng.standard_normal(3) + 0j)
    assert abs(np.linalg.norm(beam_coefficients(h_in)[beams]) - np.linalg.norm(h_in)) < 1e-12
    h_hat = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    h_hat_beam = np.zeros((8, 2), dtype=complex)
    h_hat_beam[beams] = h_hat
    assert normalized_error(beam_coefficients(h), h_hat_beam) == pytest.approx(
        normalized_error(h, f_h[beams].conj().T @ h_hat), rel=1e-12)
