"""Tests for beam-graph construction and the selection MILP."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from fddsim.channel import AngularScatteringFunction, ArrayConfig, true_covariance
from fddsim.covariance import circulant_eigenvalues
from fddsim.errors import InvalidArgumentError
from fddsim.numerics import rng_stream
from fddsim.sparsifier import (BeamGraph, SparsifyingPrecoder,
                               brute_force_sparsify, build_beam_graph,
                               formulate_milp, solve_sparsification,
                               sparsifying_precoder)
from fddsim.validate import fixed_selector_deviations, random_beam_graph


def graph_from_matrix(w, threshold=0.0):
    w = np.asarray(w, dtype=float)
    return BeamGraph(weights=w, adjacency=w > threshold, threshold=threshold)


# ------------------------------------------------------------------ beam graph

def test_build_beam_graph_single_edge():
    g = build_beam_graph([np.array([1.0, 0.0, 0.0])], th_rel=0.01)
    assert g.n_beams == 3 and g.n_users == 1
    assert np.argwhere(g.adjacency).tolist() == [[0, 0]]


def test_build_beam_graph_threshold_is_relative():
    g = build_beam_graph([np.array([1.0, 0.005, 0.02])], th_rel=0.01)
    assert np.argwhere(g.adjacency).tolist() == [[0, 0], [2, 0]]


def test_build_beam_graph_all_zero():
    g = build_beam_graph([np.zeros(4), np.zeros(4)])
    assert np.argwhere(g.adjacency).size == 0


def test_build_beam_graph_large_array_sparsity():
    from fddsim.channel import make_scenario
    cfg = ArrayConfig(m=128)
    _, users = make_scenario(3, 0.2, 4, 19, 0)
    spectra = [circulant_eigenvalues(true_covariance(cfg, u.asf, "dl"))
               for u in users]
    g = build_beam_graph(spectra, th_rel=0.01)
    per_user = g.adjacency.sum(axis=0)
    assert np.all(per_user >= 15) and np.all(per_user <= 60)


def test_build_beam_graph_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        build_beam_graph([np.array([1.0, -0.1])])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            build_beam_graph([np.array([1.0, bad])])
    for th_rel in (-1.0, np.nan):
        with pytest.raises(InvalidArgumentError):
            build_beam_graph([np.array([1.0, 0.0])], th_rel=th_rel)


# ------------------------------------------------------------------ MILP shape

def test_formulate_milp_epsilon_precondition():
    g = graph_from_matrix([[1.0]])
    with pytest.raises(InvalidArgumentError):
        formulate_milp(g, t_dl=1, p0=0.0, epsilon=1.0)


def test_formulate_milp_dimensions():
    g = graph_from_matrix([[1.0, 0.0], [0.5, 0.8], [0.0, 0.3]])
    mip = formulate_milp(g, t_dl=2, p0=0.0, epsilon=0.1)
    m, k = 3, 2
    assert mip.lp.n_vars == m + k + m * k
    assert mip.n_int == m + k
    assert sparse.issparse(mip.lp.a) and mip.lp.a.format == "csr"
    assert "int" in mip.to_debug_text()


def _milp_rows_by_loop(g, t_dl, p0):
    """Dense constraint rows of the selection MILP, one row at a time."""
    m, k = g.n_beams, g.n_users
    a = g.adjacency.astype(float)
    nz = m + k + m * k
    rows = []
    for bm in range(m):  # sum_k z_mk <= x_m
        row = np.zeros(nz)
        row[m + k + bm * k:m + k + (bm + 1) * k] = 1.0
        row[bm] = -1.0
        rows.append(row)
    for uk in range(k):  # sum_m z_mk <= y_k
        row = np.zeros(nz)
        row[m + k + uk::k] = 1.0
        row[m + uk] = -1.0
        rows.append(row)
    for uk in range(k):  # degree cap
        row = np.zeros(nz)
        row[:m] = a[:, uk]
        row[m + uk] = float(m) - float(t_dl)
        rows.append(row)
    for uk in range(k):  # power floor
        row = np.zeros(nz)
        row[:m] = -g.weights[:, uk] * g.adjacency[:, uk]
        row[m + uk] = float(p0)
        rows.append(row)
    for bm in range(m):  # a selected beam needs a selected neighbor user
        row = np.zeros(nz)
        row[bm] = 1.0
        row[m:m + k] = -a[bm, :]
        rows.append(row)
    return np.array(rows)


def test_formulate_milp_matches_row_loop():
    rng = rng_stream(67, 0)
    for _ in range(30):
        m, k = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        g = random_beam_graph(rng, m, k)
        t_dl = int(rng.integers(1, m + 1))  # includes T_dl = M, a zero coefficient
        p0 = float(rng.choice([0.0, 0.3]))
        lp = formulate_milp(g, t_dl, p0, epsilon=0.5 / m).lp
        assert lp.a.has_canonical_format and not np.any(lp.a.data == 0.0)
        assert np.array_equal(lp.a.toarray(), _milp_rows_by_loop(g, t_dl, p0))
        assert np.array_equal(lp.b, [0.0] * (m + k) + [float(m)] * k + [0.0] * (k + m))
        assert np.array_equal(lp.upper, np.concatenate([np.ones(m + k),
                                                        g.adjacency.ravel()]))


# ------------------------------------------------------------- solve: examples

def test_solve_single_edge():
    g = graph_from_matrix([[1.0]])
    plan = solve_sparsification(g, t_dl=1, p0=0.5)
    assert plan.beams == [0] and plan.users == [0]
    assert plan.matching_size == 1
    assert abs(plan.objective - (1.0 + 0.5)) < 1e-9  # 1 + epsilon = 0.5/M


def test_solve_power_floor_excludes_all():
    g = graph_from_matrix([[0.2]])
    plan = solve_sparsification(g, t_dl=1, p0=0.5)
    assert plan.beams == [] and plan.users == []
    assert plan.matching_size == 0


def test_solve_identity_adjacency():
    g = graph_from_matrix(np.eye(3))
    plan = solve_sparsification(g, t_dl=1, p0=0.0)
    assert plan.matching_size == 3
    assert plan.beams == [0, 1, 2] and plan.users == [0, 1, 2]


def test_certificate_mismatch_raises(monkeypatch):
    """The independent matching must agree with the HiGHS z sum."""
    import fddsim.sparsifier as sp
    true_size = sp.max_matching
    monkeypatch.setattr(sp, "max_matching", lambda a: true_size(a) + 1)
    with pytest.raises(InvalidArgumentError, match="certificate"):
        solve_sparsification(graph_from_matrix(np.eye(3)), t_dl=1)


def test_solve_disjoint_single_beam_users():
    w = np.zeros((6, 4))
    for k in range(4):
        w[k, k] = 1.0
    plan = solve_sparsification(graph_from_matrix(w), t_dl=2, p0=0.0)
    assert plan.users == [0, 1, 2, 3]
    assert plan.matching_size == 4


def test_solve_degree_cap_excludes_user():
    # User 0 needs both beams to reach the power floor but T_dl = 1.
    w = np.array([[0.4, 0.0],
                  [0.4, 0.0],
                  [0.0, 0.9],
                  [0.0, 0.0]])
    g = graph_from_matrix(w)
    plan = solve_sparsification(g, t_dl=1, p0=0.7)
    ref = brute_force_sparsify(g, t_dl=1, p0=0.7)
    assert plan.users == [1] == ref.users
    assert plan.matching_size == ref.matching_size == 1


def test_solve_matches_bruteforce_random():
    rng = rng_stream(61, 0)
    for _ in range(60):
        g = random_beam_graph(rng, int(rng.integers(2, 8)), int(rng.integers(1, 6)))
        t_dl = int(rng.integers(1, 4))
        p0 = 0.0 if rng.random() < 0.5 or not g.adjacency.any() \
            else float(np.median(g.weights[g.adjacency]))
        plan = solve_sparsification(g, t_dl, p0=p0)
        ref = brute_force_sparsify(g, t_dl, p0=p0)
        assert plan.matching_size == ref.matching_size


def test_solve_matching_size_independent_of_epsilon():
    rng = rng_stream(62, 0)
    for _ in range(10):
        g = random_beam_graph(rng, 6, 4)
        sizes = {solve_sparsification(g, 2, epsilon=f / 6.0).matching_size
                 for f in (0.05, 0.5, 0.95)}
        assert len(sizes) == 1


def test_solved_plan_respects_constraints():
    rng = rng_stream(63, 0)
    for _ in range(20):
        g = random_beam_graph(rng, 7, 5)
        t_dl = int(rng.integers(1, 4))
        p0 = 0.0 if not g.adjacency.any() else float(np.median(g.weights[g.adjacency]))
        plan = solve_sparsification(g, t_dl, p0=p0)
        for uk in plan.users:
            inc = [bm for bm in plan.beams if g.adjacency[bm, uk]]
            assert 1 <= len(inc) <= t_dl
            assert sum(g.weights[bm, uk] for bm in inc) >= p0 - 1e-9
        for bm in plan.beams:
            assert any(g.adjacency[bm, uk] for uk in plan.users)


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
    w = np.array(data.draw(st.lists(st.integers(0, 16), min_size=m * k, max_size=m * k),
                           label="weights"), dtype=float).reshape(m, k) / 16.0
    t_dl = data.draw(st.integers(1, m), label="t_dl")
    p0 = data.draw(st.integers(0, 32), label="p0") / 16.0
    g = graph_from_matrix(w)
    plan = solve_sparsification(g, t_dl, p0=p0)
    for uk in plan.users:
        inc = [bm for bm in plan.beams if g.adjacency[bm, uk]]
        assert 1 <= len(inc) <= t_dl
        assert g.weights[inc, uk].sum() >= p0
    assert plan.matching_size == brute_force_sparsify(g, t_dl, p0=p0).matching_size


def test_brute_force_guard():
    g = graph_from_matrix(np.ones((16, 8)))
    with pytest.raises(InvalidArgumentError):
        brute_force_sparsify(g, t_dl=2)


# -------------------------------------------------------------------- precoder

def test_precoder_all_beams_is_dft_adjoint():
    from fddsim.numerics import dft_matrix
    pre = SparsifyingPrecoder(beams=list(range(6)), m=6)
    np.testing.assert_allclose(pre.matrix(), dft_matrix(6).conj().T, atol=1e-14)


def test_precoder_matrix_is_read_only_selected_dft_rows():
    from fddsim.numerics import dft_matrix
    pre = SparsifyingPrecoder(beams=[5, 1, 6], m=8)
    b = pre.matrix()
    assert np.array_equal(b, dft_matrix(8)[:, [5, 1, 6]].conj().T)
    assert pre.matrix() is b
    with pytest.raises(ValueError):
        b[0, 0] = 0.0


def test_precoder_single_beam():
    from fddsim.numerics import dft_matrix
    rng = rng_stream(65, 0)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    pre = SparsifyingPrecoder(beams=[3], m=8)
    f = dft_matrix(8)
    np.testing.assert_allclose(pre.apply(h), [f[:, 3].conj() @ h], atol=1e-12)


def test_precoder_rows_orthonormal_and_projection():
    pre = SparsifyingPrecoder(beams=[1, 4, 6], m=8)
    b = pre.matrix()
    np.testing.assert_allclose(b @ b.conj().T, np.eye(3), atol=1e-12)
    rng = rng_stream(66, 0)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.linalg.norm(pre.apply(h)) <= np.linalg.norm(h) + 1e-12
    # equality iff h lies in the span of the selected columns
    from fddsim.numerics import dft_matrix
    h_in = dft_matrix(8)[:, [1, 4, 6]] @ (rng.standard_normal(3) + 0j)
    assert abs(np.linalg.norm(pre.apply(h_in)) - np.linalg.norm(h_in)) < 1e-12
    # expand is the adjoint embedding
    np.testing.assert_allclose(pre.apply(pre.expand(np.eye(3)[:, 0] + 0j)),
                               np.eye(3)[:, 0], atol=1e-12)


def test_sparsifying_precoder_from_plan():
    g = graph_from_matrix(np.eye(3))
    plan = solve_sparsification(g, t_dl=1)
    pre = sparsifying_precoder(plan, 3)
    assert pre.m_prime == 3


def test_precoder_rejects_empty_or_bad():
    with pytest.raises(InvalidArgumentError):
        SparsifyingPrecoder(beams=[], m=4)
    with pytest.raises(InvalidArgumentError):
        SparsifyingPrecoder(beams=[7], m=4)
