"""Tests for pilot design, observation, and MMSE estimation."""

import numpy as np
import pytest

from fddsim import probing, validate
from fddsim.errors import InvalidArgumentError, NumericalError
from fddsim.numerics import gaussian_complex, rng_stream
from fddsim.probing import dl_observe, make_pilot, mmse_effective
from fddsim.sparsifier import beam_coefficients
from fddsim.validate import error_trace_oracle, mmse_empirical_vs_oracle
from snapshots import dft_matrix


# --------------------------------------------------------------------- pilots

def test_make_pilot_rows_orthonormal():
    psi = make_pilot(4, 10, 7, 0)
    assert psi.shape == (4, 10)
    np.testing.assert_allclose(psi @ psi.conj().T, np.eye(4), atol=1e-10)


def test_make_pilot_square_is_scaled_unitary():
    psi = np.sqrt(3.0) * make_pilot(5, 5, 8, 0)
    np.testing.assert_allclose(psi.conj().T @ psi, 3.0 * np.eye(5), atol=1e-10)


def test_make_pilot_seeds_differ():
    p1 = make_pilot(3, 8, 1, 0)
    p2 = make_pilot(3, 8, 2, 0)
    assert not np.allclose(p1, p2)
    np.testing.assert_allclose(p2 @ p2.conj().T, np.eye(3), atol=1e-10)


def test_make_pilot_rejects_bad_dims():
    with pytest.raises(InvalidArgumentError):
        make_pilot(9, 8, 1, 0)
    with pytest.raises(InvalidArgumentError):
        make_pilot(0, 8, 1, 0)


# ---------------------------------------------------------------- observation

def test_dl_observe_noiseless_formula():
    m = 6
    psi = np.sqrt(2.0) * np.eye(m, dtype=complex)
    h = gaussian_complex(m, 41, 0)
    y = dl_observe(psi, beam_coefficients(h)[None, :], np.zeros((1, m), dtype=complex))
    np.testing.assert_allclose(y[0], np.sqrt(2.0) * (dft_matrix(m).conj().T @ h),
                               atol=1e-12)


def test_dl_observe_noise_only():
    m, n = 8, 500
    psi = make_pilot(m, m, 42, 0)
    noise = gaussian_complex(n * m, 42, 1).reshape(n, m)
    y = dl_observe(psi, np.zeros((n, m), dtype=complex), noise)
    assert y.shape == (n, m)
    np.testing.assert_array_equal(y, noise)
    assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 0.05  # unit noise power


def test_dl_observe_deterministic():
    """One stacked call: row i is Psi (B h_i) + n_i of user i."""
    psi = make_pilot(2, 2, 43, 0)
    bh = beam_coefficients(gaussian_complex(12, 43, 1).reshape(4, 3))[[0, 2]].T
    noise = gaussian_complex(6, 43, 2).reshape(3, 2)
    y = dl_observe(psi, bh, noise)
    np.testing.assert_array_equal(y, dl_observe(psi, bh, noise))
    for i in range(3):
        np.testing.assert_allclose(y[i], psi @ bh[i] + noise[i], rtol=1e-14, atol=0.0)
    with pytest.raises(InvalidArgumentError):
        dl_observe(psi, np.zeros((3, 3), dtype=complex), noise)  # width != M'
    with pytest.raises(InvalidArgumentError):
        dl_observe(psi, bh, np.zeros((3, 3), dtype=complex))     # width != T_dl
    with pytest.raises(InvalidArgumentError):
        dl_observe(psi, bh, noise[:2])                          # one draw per user
    with pytest.raises(InvalidArgumentError):
        dl_observe(psi, bh[0], noise[0])                        # not a stack


# ----------------------------------------------------------------------- MMSE

def _prior(m_prime, support, variances):
    lam = np.zeros(m_prime)
    lam[support] = variances
    return lam


def _mmse_one(y, q, lam, p_dl):
    """One user's estimate at one pilot power."""
    return mmse_effective(np.asarray(y)[None, None, :], q, [lam], [p_dl])[0, 0]


def test_mmse_scalar_closed_form():
    """Noise level N0 is unit noise at pilot power p / N0, observed as
    y / sqrt(N0)."""
    psi = np.array([[0.7 + 0.2j]])
    lam, n0 = 1.7, 0.3
    y = np.array([0.9 - 0.4j])
    expected = lam * psi[0, 0].conj() * y[0] / (abs(psi[0, 0]) ** 2 * lam + n0)
    y_unit = y / np.sqrt(n0)
    np.testing.assert_allclose(_mmse_one(y_unit, psi, [lam], 1.0 / n0), [expected],
                               atol=1e-12)
    # the same pilot as sqrt(p) times a unit one
    np.testing.assert_allclose(_mmse_one(y_unit, psi / 2.0, [lam], 4.0 / n0), [expected],
                               rtol=1e-14, atol=0.0)


def test_mmse_huge_noise_shrinks_to_zero():
    """Noise that swamps the pilot: in unit noise, a vanishing pilot power."""
    psi = make_pilot(3, 6, 44, 0)
    y = gaussian_complex(3, 44, 1)
    h_hat = _mmse_one(y, psi, _prior(6, [0, 3], [1.0, 2.0]), 1e-24)
    assert np.linalg.norm(h_hat) < 1e-9


def test_mmse_zero_outside_support():
    psi = make_pilot(4, 8, 45, 0)
    y = gaussian_complex(4, 45, 1)
    h_hat = _mmse_one(y, psi, _prior(8, [1, 5], [1.0, 1.0]), 10.0)
    off = [i for i in range(8) if i not in (1, 5)]
    np.testing.assert_array_equal(h_hat[off], np.zeros(6))


def test_mmse_batch_matches_per_user_formula():
    """Entry (j, i) of the batched estimate is the dense LMMSE
    Lam Psi^H (Psi Lam Psi^H + N0 I)^-1 y of user i's observation at pilot
    power p_j, Psi = sqrt(p_j) Q, formed one user and one power at a time;
    entries with zero prior are exactly zero. The batch sees noise level N0
    as unit noise at pilot powers p_j / N0 and observations y / sqrt(N0)."""
    rng = rng_stream(50, 0)
    q = make_pilot(5, 9, 50, 1)
    powers = np.array([0.1, 3.0, 1e3])
    n_users, n0 = 6, 0.4
    lam = rng.random((n_users, 9)) * (rng.random((n_users, 9)) < 0.6)
    y = gaussian_complex(powers.size * n_users * 5, rng).reshape(powers.size, n_users, 5)
    got = mmse_effective(y / np.sqrt(n0), q, lam, powers / n0)
    assert got.shape == (powers.size, n_users, 9)
    for j, p_dl in enumerate(powers):
        psi = np.sqrt(p_dl) * q
        for i in range(n_users):
            inner = psi @ np.diag(lam[i]) @ psi.conj().T + n0 * np.eye(5)
            ref = np.diag(lam[i]) @ psi.conj().T @ np.linalg.solve(inner, y[j, i])
            np.testing.assert_allclose(got[j, i], ref, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(got[j, i][lam[i] == 0], 0.0)


def _count_solves(monkeypatch):
    """Count np.linalg.solve calls from here on."""
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    return calls


def _information_form(y, q, lam, p_dl):
    """The LMMSE estimate in information form, (Lam_S^-1 + p Q_S^H Q_S)^-1
    sqrt(p) Q_S^H y on the prior's support S and zero off it: the same
    estimate by the push-through identity, from a system whose condition
    number is at most max(Lam_S) / min(Lam_S) at any power."""
    s = lam > 0
    out = np.zeros(lam.size, dtype=complex)
    q_s = q[:, s]
    a = np.diag(1.0 / lam[s]) + p_dl * (q_s.conj().T @ q_s)
    out[s] = np.linalg.solve(a, np.sqrt(p_dl) * (q_s.conj().T @ y))
    return out


@pytest.mark.parametrize("t", [1, 8, 48])
def test_mmse_square_pilot_is_solved_in_its_own_basis(t, monkeypatch):
    """A square pilot with orthonormal rows is estimated beam by beam as
    sqrt(p) Lam (p Lam + I)^-1 Q^H y, with no np.linalg.solve call, and
    entries with zero prior are exactly zero (user 0's prior is all zero).

    Observations follow the model y = sqrt(p) Q h + n, at powers from 1 up
    to 2^53/M for M = 64, the largest the config allows. The estimate is
    within 1e-12 relative of the information-form reference at every power,
    and of the dense formula Lam Psi^H (Psi Lam Psi^H + I)^-1 y and the
    general batched solve (forced by a negative UNITARY_TOL) up to p = 1e3.
    Above that those two solve p G + I, whose condition number grows with p,
    and drift from the exact estimate: against a 60-digit reference at
    p = 2^53/64 and t = 8 they were off by up to 3e-9 relative, while the
    pilot-basis and information forms were within 7e-16."""
    rng = rng_stream(60, t)
    q = make_pilot(t, t, 60, t)
    powers = np.array([1.0, 10.0, 1e3, 1e6, 1e10, 2.0 ** 53 / 64])
    n_users = 5
    lam = (0.1 + 9.9 * rng.random((n_users, t))) * (rng.random((n_users, t)) < 0.6)
    lam[0] = 0.0
    lam[1, 0] = 1.0  # a t = 1 pilot still sees a nonzero prior
    h = gaussian_complex(n_users * t, rng).reshape(n_users, t) * np.sqrt(lam)
    noise = gaussian_complex(n_users * t, rng).reshape(n_users, t)
    y = np.stack([np.sqrt(p_dl) * h @ q.T + noise for p_dl in powers])

    solves = _count_solves(monkeypatch)
    got = mmse_effective(y, q, lam, powers)
    assert solves == []
    monkeypatch.setattr(probing, "UNITARY_TOL", -1.0)
    general = mmse_effective(y, q, lam, powers)
    assert solves == [1]

    np.testing.assert_array_equal(got[:, lam == 0], 0.0)
    for j, p_dl in enumerate(powers):
        psi = np.sqrt(p_dl) * q
        for i in range(1, n_users):
            ref = _information_form(y[j, i], q, lam[i], p_dl)
            assert np.linalg.norm(got[j, i] - ref) <= 1e-12 * np.linalg.norm(ref)
            if p_dl > 1e3:
                continue
            inner = psi @ np.diag(lam[i]) @ psi.conj().T + np.eye(t)
            dense = np.diag(lam[i]) @ psi.conj().T @ np.linalg.solve(inner, y[j, i])
            for other in (dense, general[j, i]):
                assert np.linalg.norm(got[j, i] - other) <= 1e-12 * np.linalg.norm(other)


def test_mmse_solves_unless_the_pilot_is_square_and_orthonormal(monkeypatch):
    """The batched solve still runs for a square pilot whose rows are not
    orthonormal (a 1 x 1 pilot of modulus other than 1, an 8 x 8 Gaussian)
    and for a pilot with fewer rows than beams, once per call."""
    solves = _count_solves(monkeypatch)
    for q in (np.array([[0.7 + 0.2j]]),
              gaussian_complex(64, 63, 0).reshape(8, 8),
              make_pilot(5, 9, 63, 1)):
        t, m_prime = q.shape
        y = gaussian_complex(2 * 3 * t, 63, 2, t).reshape(2, 3, t)
        before = len(solves)
        mmse_effective(y, q, np.ones((3, m_prime)), [1.0, 100.0])
        assert len(solves) == before + 1


def test_mmse_square_pilot_failures_raise():
    """The pilot-basis form reports what the solve would: an overflowed
    p Lam (whose gain would otherwise round to zero) and a non-finite
    observation."""
    q = make_pilot(4, 4, 64, 0)
    y = gaussian_complex(4, 64, 1)
    with pytest.raises(NumericalError, match="non-finite"):
        _mmse_one(y, q, np.full(4, 1e300), 1e10)
    with pytest.raises(NumericalError, match="non-finite"):
        _mmse_one(np.full(4, np.inf + 0j), q, np.ones(4), 10.0)


def test_mmse_numerical_failures_raise():
    psi = make_pilot(3, 6, 51, 0)
    y = gaussian_complex(3, 51, 1)
    with pytest.raises(NumericalError, match="singular"):
        # p G + I = [[p + 1, p], [p, p + 1]] rounds to singular: p + 1 == p at 2^53
        _mmse_one(y[:2], np.ones((2, 1)), [1.0], 2.0 ** 53)
    with pytest.raises(NumericalError, match="non-finite"):
        _mmse_one(np.full(3, np.inf + 0j), psi, np.ones(6), 10.0)


def test_mmse_empirical_matches_oracle():
    emp, oracle = mmse_empirical_vs_oracle(n_draws=2000, n0=0.1)
    assert abs(emp - oracle) / oracle < 0.03


def test_mmse_empirical_is_one_stacked_call(monkeypatch):
    """The empirical check runs the pipeline's DL estimator as the pipeline
    does: every draw observed by one ``dl_observe`` call and estimated by one
    ``mmse_effective`` call."""
    calls = []
    observe, estimate = validate.dl_observe, validate.mmse_effective
    monkeypatch.setattr(validate, "dl_observe",
                        lambda *args: calls.append("dl_observe") or observe(*args))
    monkeypatch.setattr(validate, "mmse_effective",
                        lambda *args: calls.append("mmse_effective") or estimate(*args))
    mmse_empirical_vs_oracle(2000)
    assert calls == ["dl_observe", "mmse_effective"]


def test_mmse_rejects_mismatched_dims():
    psi = make_pilot(3, 6, 46, 0)
    y = gaussian_complex(6, 46, 1).reshape(2, 1, 3)  # two powers, one user
    ones = np.ones((1, 6))
    mmse_effective(y, psi, ones, [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y, psi, np.ones((1, 5)), [1.0, 2.0])  # prior length != M'
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y, psi, np.ones((2, 6)), [1.0, 2.0])  # one prior per user
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y, psi, ones, [1.0])                  # one stack per power
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y, psi, ones, [[1.0, 2.0]])           # powers not a vector
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y[..., :2], psi, ones, [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y[0], psi, ones, [1.0])               # not a stack per power
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y, psi, -ones, [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y, psi, ones, [1.0, -2.0])
    with pytest.raises(InvalidArgumentError):
        mmse_effective(y, psi, ones, [1.0, np.nan])


# ----------------------------------------------------------------- error trace

def test_error_trace_huge_noise_limit():
    psi = make_pilot(4, 8, 47, 0)
    f_s = dft_matrix(8)[:, [0, 2, 5]]
    val = error_trace_oracle(psi @ f_s, np.ones(3), 1e14)
    assert abs(val - 3.0) < 1e-6


def test_error_trace_vanishes_with_noise_when_covered():
    """Pilot dimension >= sparsity: error is O(N0) with a converging ratio."""
    f_s = dft_matrix(8)[:, [0, 2, 5]]
    psi = make_pilot(3, 3, 48, 0) @ f_s.conj().T  # probes through beams 0, 2, 5
    n0s = [1e-4, 1e-6, 1e-8]
    vals = [error_trace_oracle(psi @ f_s, np.ones(3), n0) for n0 in n0s]
    assert vals[-1] < 1e-7
    ratios = [v / n0 for v, n0 in zip(vals, n0s)]
    assert abs(ratios[1] - ratios[2]) / ratios[2] < 0.01


def test_error_trace_floor_when_undersampled():
    """Pilot dimension < sparsity: error floor s - T_dl as noise vanishes."""
    rng = rng_stream(49, 0)
    s, t_dl, m = 5, 3, 12
    cols = np.linalg.qr(gaussian_complex(m * s, rng).reshape(m, s))[0]
    psi = make_pilot(t_dl, m, 49, 1)
    val = error_trace_oracle(psi @ cols, np.ones(s), 1e-12)
    assert abs(val - (s - t_dl)) < 1e-6
