"""Tests for the SciPy solver wrappers: ``sparsifier.max_matching``,
``covariance.nnls`` and ``sparsifier.milp_solve``, the HiGHS call of the
selection MILP."""

import itertools

import numpy as np
import pytest
from scipy import sparse

from fddsim import covariance
from fddsim.covariance import nnls
from fddsim.errors import InvalidArgumentError, NumericalError
from fddsim.numerics import rng_stream
from fddsim.sparsifier import SelectionMilp, max_matching, milp_solve
from fddsim.validate import nnls_bruteforce_objective


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


def test_nnls_matches_enumeration():
    rng = rng_stream(53, 0)
    for _ in range(50):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        z = nnls(a, b)
        assert np.all(z >= 0)
        obj = float(np.linalg.norm(a @ z - b))
        assert obj <= nnls_bruteforce_objective(a, b) + 1e-8


def test_nnls_iteration_cap_raises(monkeypatch):
    """SciPy's RuntimeError at the iteration cap (10 n for n columns, passed
    as ``maxiter``) becomes a NumericalError that names the cap."""
    caps = []

    def capped(a, b, maxiter):
        caps.append(maxiter)
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(covariance, "_scipy_nnls", capped)
    with pytest.raises(NumericalError, match=r"^nnls: iteration cap 40 exceeded$") as exc:
        nnls(np.ones((6, 4)), np.ones(6))
    assert caps == [40]
    assert isinstance(exc.value.__cause__, RuntimeError)


# ------------------------------------------------------------------------ MILP

def _binary_mip(c, a, b):
    """max c.x subject to a x <= b with every variable binary."""
    n = len(c)
    return SelectionMilp(c=np.asarray(c, dtype=float), a=sparse.csr_array(a, dtype=float),
                         b=np.asarray(b, dtype=float), upper=np.ones(n), n_int=n, classes=[])


def test_milp_solve_integral_root_single_node():
    # LP optimum already binary: x = (1, 1) under sum <= 2.
    x, node_count, gap = milp_solve(_binary_mip([1.0, 1.0], [[1.0, 1.0]], [2.0]))
    assert node_count <= 1 and gap == 0.0
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)


def test_milp_solve_knapsack():
    x, _, _ = milp_solve(_binary_mip([2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], [3.0]))
    np.testing.assert_allclose(x, [1.0, 1.0, 0.0], atol=1e-6)


def test_milp_solve_random_binary_vs_enumeration():
    rng = rng_stream(55, 0)
    for _ in range(30):
        n = 6
        c = rng.standard_normal(n)
        a = rng.standard_normal((3, n))
        b = rng.uniform(0.5, 2.5, size=3)
        x, _, _ = milp_solve(_binary_mip(c, a, b))
        best = -np.inf
        for bits in itertools.product([0.0, 1.0], repeat=n):
            xe = np.array(bits)
            if np.all(a @ xe <= b + 1e-9):
                best = max(best, float(c @ xe))
        assert abs(float(c @ x) - best) < 1e-6
        assert np.array_equal(x, np.round(x))
