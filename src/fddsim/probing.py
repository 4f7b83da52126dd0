"""Downlink channel probing in the beam domain at unit noise power: pilot
design, observation model and linear MMSE estimation of effective channels.
The closed-form estimation-error trace that checks the estimator is
``validate``'s oracle.

A pilot is a plain T_dl x M' array Psi that acts on a user's effective
channel B h, its coefficients on the M' selected beams (see
``sparsifier.beam_coefficients``); users are stacked as rows. The MMSE
estimate of a square pilot with orthonormal rows is taken in the pilot's
own basis, beam by beam, without a solve; every other pilot is solved."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .numerics import gaussian_complex


def make_pilot(t_dl: int, m_prime: int, seed, *path: int) -> np.ndarray:
    """Random unit-power T_dl x M' pilot with orthonormal rows (Psi Psi^H = I);
    the pilot of power P_dl is sqrt(P_dl) times it."""
    if not (1 <= t_dl <= m_prime):
        raise InvalidArgumentError(
            f"make_pilot requires 1 <= T_dl <= M', got T_dl={t_dl}, M'={m_prime}")
    g = gaussian_complex(m_prime * t_dl, seed, *path).reshape(m_prime, t_dl)
    q, _ = np.linalg.qr(g)
    return q.conj().T


def dl_observe(psi: np.ndarray, bh: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Pilot observations y_i = Psi (B h_i) + n_i of a stack of users probed
    by one T_dl x M' pilot Psi.

    Row i of ``bh`` (n x M') is user i's beam-domain channel B h_i and row i
    of ``noise`` (n x T_dl) its unit-variance noise draw; row i of the result
    is its observation. Neither depends on the pilot power, so a sweep over
    P_dl forms them once and calls this per power.
    """
    t_dl, m_prime = psi.shape
    if bh.ndim != 2 or bh.shape[1] != m_prime or noise.shape != (bh.shape[0], t_dl):
        raise InvalidArgumentError("dl_observe: dimension mismatch")
    return bh @ psi.T + noise


# the largest |(Q Q^H - I)_ij| of a square pilot that ``mmse_effective``
# estimates in the pilot's own basis (``make_pilot`` reaches 1.7e-15 up to
# M' = 256)
UNITARY_TOL = 1e-13


def mmse_effective(y: np.ndarray, q: np.ndarray, lam: np.ndarray, p_dl) -> np.ndarray:
    """Linear MMSE estimates of a stack of users probed by one pilot at
    several powers.

    At power p the pilot is Psi = sqrt(p) Q, with Q the unit-power
    T_dl x M' pilot. Row i of ``lam`` (n x M') is the diagonal Lam_i of
    user i's beam-power prior, and ``y[j, i]`` (``y`` is P x n x T_dl) is
    user i's observation at power ``p_dl[j]``. ``out[j, i]`` is its
    estimate Lam_i Psi^H (Psi Lam_i Psi^H + I)^-1 y, exactly zero where
    the prior is zero. That is sqrt(p) Lam_i Q^H (p G_i + I)^-1 y with
    the prior Gram G_i = Q Lam_i Q^H, which does not depend on the power:
    it is formed once for all powers and the P n systems are solved in one
    batched call.

    A square pilot with orthonormal rows (T_dl = M' and every entry of
    Q Q^H - I at most UNITARY_TOL in magnitude) needs no solve. Then
    Q^H Q = I too, p G_i + I = Q (p Lam_i + I) Q^H, and the estimate is
    sqrt(p) Lam_i (p Lam_i + I)^-1 Q^H y, beam by beam. That is exact for
    the unitary polar factor U of Q, and ||Q - U||_2 <= ||Q Q^H - I||_2 <=
    M' UNITARY_TOL (4.8e-12 at M' = 48), so the bound admits only pilots
    that close to a unitary one; ``make_pilot``'s QR pilots are within
    1.7e-15 entrywise. The solve is not exact either: it is backward
    stable, so its error grows with the condition number of p G_i + I, up
    to p max(Lam_i). Against a 60-digit reference at T_dl = M' = 8 and
    model observations, the pilot-basis form was within 7e-16 relative up
    to p = 2^53/64, and the solve within 4e-13 at p = 1e6 and 3e-9 at
    p = 2^53/64. Every other pilot is solved.
    """
    y = np.asarray(y)
    t_dl, m_prime = q.shape
    lam = np.asarray(lam, dtype=float)
    p_dl = np.asarray(p_dl, dtype=float)
    if p_dl.ndim != 1 or y.ndim != 3 or y.shape[0] != p_dl.size or y.shape[2] != t_dl:
        raise InvalidArgumentError("mmse_effective: observations must be P x n x T_dl, "
                                   "one stack per pilot power")
    if lam.shape != (y.shape[1], m_prime):
        raise InvalidArgumentError("mmse_effective: priors must be n x M', one per observation")
    if np.any(lam < 0):
        raise InvalidArgumentError("mmse_effective: prior variances must be nonnegative")
    if not np.all(p_dl >= 0):
        raise InvalidArgumentError("mmse_effective: pilot powers must be nonnegative")
    if t_dl == m_prime and np.abs(q @ q.conj().T - np.eye(t_dl)).max() <= UNITARY_TOL:
        # a power near the float limit overflows p Lam; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = p_dl[:, None, None] * lam
            beam = (y @ q.conj()) / (scaled + 1.0)  # (p Lam + I)^-1 Q^H y
        beam[~np.isfinite(scaled)] = np.nan  # an overflowed p Lam is no zero gain
        _finite(beam)
    else:
        gram = (q * lam[:, None, :]) @ q.conj().T
        # a power near the float limit overflows p G; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            inner = p_dl[:, None, None, None] * gram
            inner += np.eye(t_dl)
            try:
                sol = np.linalg.solve(inner, y[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"mmse_effective: singular observation covariance: {exc}") from exc
        beam = _finite(sol) @ q.conj()  # Q^H (p G + I)^-1 y
    return lam * (np.sqrt(p_dl)[:, None, None] * beam)


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericalError("mmse_effective: non-finite solve result")
    return a
