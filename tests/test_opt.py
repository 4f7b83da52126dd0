"""Tests for the optimization kernels: matching, NNLS, MILP."""

import itertools

import numpy as np
import pytest

from fddsim.errors import InvalidArgumentError
from fddsim.numerics import rng_stream
from fddsim.opt import (LinearProgram, MixedIntegerProgram, max_matching, milp_solve,
                        nnls)


# -------------------------------------------------------------------- matching

def _matching_size_exhaustive(mask):
    """Maximum matching by depth-first search over row-to-column assignments."""
    n_left = mask.shape[0]
    adj = [np.flatnonzero(row).tolist() for row in mask]

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
    assert max_matching(np.ones((3, 3), dtype=bool)) == 3


def test_matching_star():
    assert max_matching(np.ones((1, 5), dtype=bool)) == 1


def test_matching_empty():
    assert max_matching(np.zeros((4, 4), dtype=bool)) == 0


@pytest.mark.parametrize("shape", [(8, 8), (3, 9), (9, 3), (0, 4), (4, 0)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_matching_random_vs_exhaustive(shape):
    rng = rng_stream(52, 0)
    for _ in range(200):
        mask = rng.random(shape) < rng.uniform(0.1, 0.7)
        assert max_matching(mask) == _matching_size_exhaustive(mask)


def test_matching_rejects_non_boolean_or_non_2d():
    with pytest.raises(InvalidArgumentError):
        max_matching(np.ones((2, 2)))
    with pytest.raises(InvalidArgumentError):
        max_matching(np.ones(3, dtype=bool))
    with pytest.raises(InvalidArgumentError):
        max_matching(np.ones((2, 2, 2), dtype=bool))


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
