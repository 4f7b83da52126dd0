"""Tests for the dense linear algebra and seeded sampling primitives."""

import numpy as np
import pytest

from dykstra import psd_project
from fddsim.errors import InvalidArgumentError
from fddsim.numerics import (gaussian_complex, rng_stream, toeplitz_average,
                             toeplitz_from_column)
from fddsim.validate import numerical_rank
from snapshots import dft_matrix


def random_hermitian(n, rng):
    g = gaussian_complex(n * n, rng).reshape(n, n)
    return 0.5 * (g + g.conj().T)


# ---------------------------------------------------------------- rng streams

def test_rng_stream_deterministic():
    a = rng_stream(7, 1, 2, 3).standard_normal(5)
    b = rng_stream(7, 1, 2, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_distinct_paths_differ():
    a = rng_stream(7, 1, 2, 3).standard_normal(5)
    b = rng_stream(7, 1, 2, 4).standard_normal(5)
    c = rng_stream(8, 1, 2, 3).standard_normal(5)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_rng_stream_independent_of_call_order():
    r1 = rng_stream(3, 0)
    _ = r1.standard_normal(100)
    fresh = rng_stream(3, 1).standard_normal(4)
    again = rng_stream(3, 1).standard_normal(4)
    np.testing.assert_array_equal(fresh, again)


def test_gaussian_complex_same_seed_identical():
    np.testing.assert_array_equal(gaussian_complex(16, 5, 2),
                                  gaussian_complex(16, 5, 2))


def test_gaussian_complex_draws_pinned():
    """The first draws of one stream, bit for bit (shortest round-trip
    reprs): any change to the generator or to how the samples are
    combined shows here."""
    expected = [-0.5156355649946001 + 0.07908250770157008j,
                -1.6189557959974168 + 0.24890343544095217j,
                -0.2525104996025513 + 0.5228938841104623j,
                -0.0733815256136782 + 1.1782980857339755j,
                -0.5077653863097529 + 0.2488609467042778j]
    np.testing.assert_array_equal(gaussian_complex(5, 1, 2, 3), expected)


def test_gaussian_complex_moments():
    z = gaussian_complex(10**5, 11)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.mean(z)) < 0.02


# ----------------------------------------------------------------- DFT matrix

def test_dft_matrix_m1():
    np.testing.assert_array_equal(dft_matrix(1), np.ones((1, 1), dtype=complex))


def test_dft_matrix_m2():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_matrix_unitary():
    f = dft_matrix(8)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(8), atol=1e-12)


def test_dft_matrix_invalid():
    with pytest.raises(InvalidArgumentError):
        dft_matrix(0)


# ---------------------------------------------------------------- PSD project

def test_psd_project_clips_negative():
    np.testing.assert_allclose(psd_project(np.diag([2.0, -1.0])),
                               np.diag([2.0, 0.0]), atol=1e-14)


def test_psd_project_psd_unchanged():
    rng = rng_stream(23, 0)
    g = gaussian_complex(25, rng).reshape(5, 5)
    a = g @ g.conj().T
    np.testing.assert_allclose(psd_project(a), a, atol=1e-10)


def test_psd_project_beats_random_candidates():
    rng = rng_stream(24, 0)
    a = random_hermitian(5, rng)
    proj = psd_project(a)
    d = np.linalg.norm(a - proj)
    for _ in range(100):
        g = gaussian_complex(25, rng).reshape(5, 5)
        cand = g @ g.conj().T
        cand *= rng.random() * 2.0
        assert d <= np.linalg.norm(a - cand) + 1e-12
    # and a denser sweep of scaled projections of perturbations
    for _ in range(100):
        cand = psd_project(a + 0.1 * random_hermitian(5, rng))
        assert d <= np.linalg.norm(a - cand) + 1e-12


# ----------------------------------------------------------- Toeplitz average

def test_toeplitz_average_fixed_point():
    col = np.array([2.0, 0.5 + 0.5j, 0.1j])
    t = toeplitz_from_column(col)
    np.testing.assert_allclose(toeplitz_average(t), col, atol=1e-14)


def test_toeplitz_average_hand_example():
    # Hermitian part of [[1,0],[2,1]] has off-diagonal (0+2)/2 = 1.
    np.testing.assert_allclose(toeplitz_average(np.array([[1.0, 0.0], [2.0, 1.0]])),
                               [1.0, 1.0], atol=1e-14)


def test_toeplitz_average_is_least_squares_solution():
    """Check against a normal-equations solve over the 7 free real
    parameters of a 4x4 Hermitian Toeplitz matrix."""
    rng = rng_stream(25, 0)
    a = random_hermitian(4, rng)
    m = 4
    # Basis of Hermitian Toeplitz matrices: c0 real, c1..c3 complex.
    basis = []
    e = np.zeros(m, dtype=complex)
    e[0] = 1.0
    basis.append(toeplitz_from_column(e))
    for k in range(1, m):
        v = np.zeros(m, dtype=complex)
        v[k] = 1.0
        basis.append(toeplitz_from_column(v))
        v[k] = 1j
        basis.append(toeplitz_from_column(v))
    design = np.stack([b.ravel() for b in basis], axis=1)
    design_r = np.vstack([design.real, design.imag])
    target = np.concatenate([a.ravel().real, a.ravel().imag])
    coef, *_ = np.linalg.lstsq(design_r, target, rcond=None)
    best = sum(c * b for c, b in zip(coef, basis))
    np.testing.assert_allclose(toeplitz_from_column(toeplitz_average(a)),
                               best, atol=1e-10)


def test_toeplitz_from_column_structure():
    col = np.array([1.0, 2.0 - 1j])
    t = toeplitz_from_column(col)
    np.testing.assert_allclose(t, [[1.0, 2.0 + 1j], [2.0 - 1j, 1.0]])


# ------------------------------------------------------------- numerical rank

def test_numerical_rank_low_rank():
    rng = rng_stream(26, 0)
    u = gaussian_complex(12, rng).reshape(6, 2)
    v = gaussian_complex(10, rng).reshape(2, 5)
    assert numerical_rank(u @ v) == 2
    assert numerical_rank(np.zeros((4, 4))) == 0
    assert numerical_rank(np.eye(3)) == 3
