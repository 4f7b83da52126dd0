"""Tests for the optimization kernels: matching, NNLS, MILP."""

import itertools

import numpy as np
import pytest

from fddsim.errors import InvalidArgumentError
from fddsim.numerics import rng_stream
from fddsim.opt import (LinearProgram, MatchingInstance, MixedIntegerProgram,
                        max_matching, milp_solve, nnls)


# -------------------------------------------------------------------- matching

def _matching_size_exhaustive(n_left, n_right, edges):
    """Maximum matching by depth-first search over edge subsets."""
    adj = [[] for _ in range(n_left)]
    for (u, v) in edges:
        adj[u].append(v)

    best = 0

    def extend(u, used):
        nonlocal best
        if u == n_left:
            best = max(best, len(used))
            return
        if len(used) + (n_left - u) <= best:
            return  # cannot beat the incumbent
        extend(u + 1, used)
        for v in adj[u]:
            if v not in used:
                used.add(v)
                extend(u + 1, used)
                used.remove(v)

    extend(0, set())
    return best


def test_matching_complete_3x3():
    edges = [(i, j) for i in range(3) for j in range(3)]
    size, matched = max_matching(MatchingInstance(3, 3, edges))
    assert size == 3
    assert len(matched) == 3


def test_matching_star():
    size, matched = max_matching(MatchingInstance(1, 5, [(0, j) for j in range(5)]))
    assert size == 1


def test_matching_empty():
    size, matched = max_matching(MatchingInstance(4, 4, []))
    assert size == 0 and matched == []


def test_matching_output_is_a_matching():
    rng = rng_stream(51, 0)
    mask = rng.random((6, 6)) < 0.5
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
    size, matched = max_matching(MatchingInstance(6, 6, edges))
    lefts = [u for u, _ in matched]
    rights = [v for _, v in matched]
    assert len(set(lefts)) == len(matched) == size
    assert len(set(rights)) == len(matched)
    assert all(e in edges for e in matched)


def test_matching_random_vs_exhaustive():
    rng = rng_stream(52, 0)
    for _ in range(200):
        mask = rng.random((8, 8)) < rng.uniform(0.1, 0.7)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
        size, _ = max_matching(MatchingInstance(8, 8, edges))
        assert size == _matching_size_exhaustive(8, 8, edges)


def test_matching_rejects_bad_edges():
    with pytest.raises(InvalidArgumentError):
        MatchingInstance(2, 2, [(0, 5)])
    with pytest.raises(InvalidArgumentError):
        MatchingInstance(2, 2, [(0, 0), (0, 0)])


# ------------------------------------------------------------------------ NNLS

def test_nnls_identity_positive():
    np.testing.assert_allclose(nnls(np.eye(2), np.array([1.0, 2.0])), [1.0, 2.0],
                               atol=1e-12)


def test_nnls_identity_clips():
    np.testing.assert_allclose(nnls(np.eye(2), np.array([1.0, -2.0])), [1.0, 0.0],
                               atol=1e-12)


def _nnls_best_by_enumeration(a, b):
    n = a.shape[1]
    best = float(np.linalg.norm(b))
    for r in range(1, n + 1):
        for cols in itertools.combinations(range(n), r):
            sol, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if np.all(sol >= 0):
                best = min(best, float(np.linalg.norm(a[:, cols] @ sol - b)))
    return best


def test_nnls_matches_enumeration():
    rng = rng_stream(53, 0)
    for _ in range(50):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        z = nnls(a, b)
        assert np.all(z >= 0)
        obj = float(np.linalg.norm(a @ z - b))
        assert obj <= _nnls_best_by_enumeration(a, b) + 1e-8


# ------------------------------------------------------------------------ MILP

def _binary_mip(c, a, b):
    """max c.x subject to a x <= b with every variable binary."""
    n = len(c)
    lp = LinearProgram(c=c, a=a, b=b, upper=np.ones(n))
    return MixedIntegerProgram(lp=lp, n_int=n)


def test_bnb_integral_root_single_node():
    # LP optimum already binary: x = (1, 1) under sum <= 2.
    res = milp_solve(_binary_mip([1.0, 1.0], [[1.0, 1.0]], [2.0]))
    assert res.status == "optimal"
    assert res.node_count <= 1 and res.gap == 0.0
    assert abs(res.objective - 2.0) < 1e-9


def test_bnb_knapsack():
    res = milp_solve(_binary_mip([2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], [3.0]))
    assert res.status == "optimal"
    assert abs(res.objective - 5.0) < 1e-9
    np.testing.assert_allclose(res.x, [1.0, 1.0, 0.0], atol=1e-6)


def test_bnb_random_binary_vs_enumeration():
    rng = rng_stream(55, 0)
    for _ in range(30):
        n = 6
        c = rng.standard_normal(n)
        a = rng.standard_normal((3, n))
        b = rng.uniform(0.5, 2.5, size=3)
        res = milp_solve(_binary_mip(c, a, b))
        best = -np.inf
        for bits in itertools.product([0.0, 1.0], repeat=n):
            x = np.array(bits)
            if np.all(a @ x <= b + 1e-9):
                best = max(best, float(c @ x))
        assert res.status == "optimal"
        assert abs(res.objective - best) < 1e-6
        assert np.array_equal(res.x, np.round(res.x))


def test_bnb_infeasible():
    # 2x = 1 has the LP solution x = 1/2 but no integer one
    res = milp_solve(_binary_mip([1.0], [[2.0], [-2.0]], [1.0, -1.0]))
    assert res.status == "infeasible"
    assert res.x is None


def test_milp_solve_infeasible():
    # x >= 2 written as -x <= -2, against the bound x <= 1
    res = milp_solve(_binary_mip([1.0], [[-1.0]], [-2.0]))
    assert res.status == "infeasible"
    assert res.x is None


def test_linear_program_rejects_inconsistent_shapes():
    with pytest.raises(InvalidArgumentError):
        LinearProgram(c=[1.0, 1.0], a=[[1.0]], b=[1.0], upper=[1.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        LinearProgram(c=[1.0], a=[[1.0]], b=[1.0], upper=[-1.0])
    lp = LinearProgram(c=[1.0], a=[[1.0]], b=[1.0], upper=[1.0])
    with pytest.raises(InvalidArgumentError):
        MixedIntegerProgram(lp=lp, n_int=2)
