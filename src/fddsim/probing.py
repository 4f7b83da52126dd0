"""Downlink channel probing: pilot design, observation model, linear MMSE
estimation of effective channels, and the closed-form estimation-error
trace used as an oracle in tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .numerics import gaussian_complex, hermitian_eig


@dataclass
class PilotMatrix:
    """T_dl x M' training matrix with scaled-orthonormal rows:
    Psi Psi^H = P_dl * I."""

    psi: np.ndarray
    p_dl: float

    @property
    def t_dl(self) -> int:
        return self.psi.shape[0]

    @property
    def m_prime(self) -> int:
        return self.psi.shape[1]


def make_pilot(t_dl: int, m_prime: int, p_dl: float, seed, *path: int) -> PilotMatrix:
    """Random pilot with orthonormal rows scaled by sqrt(P_dl)."""
    if not (1 <= t_dl <= m_prime):
        raise InvalidArgumentError(
            f"make_pilot requires 1 <= T_dl <= M', got T_dl={t_dl}, M'={m_prime}")
    g = gaussian_complex(m_prime * t_dl, seed, *path).reshape(m_prime, t_dl)
    q, _ = np.linalg.qr(g)
    psi = np.sqrt(p_dl) * q.conj().T
    return PilotMatrix(psi=psi, p_dl=p_dl)


def dl_observe(pilot: PilotMatrix, bh: np.ndarray, noise: np.ndarray,
               n0: float) -> np.ndarray:
    """One pilot observation y = Psi (B h) + sqrt(N0) n at a user receiver,
    from the beam-domain channel B h and a unit-variance noise draw n.

    Neither B h nor n depends on the pilot power, so a sweep over P_dl
    forms them once and calls this per power.
    """
    if bh.shape != (pilot.m_prime,) or noise.shape != (pilot.t_dl,):
        raise InvalidArgumentError("dl_observe: dimension mismatch")
    return pilot.psi @ bh + np.sqrt(n0) * noise


def mmse_effective(y: np.ndarray, pilot: PilotMatrix, lam: np.ndarray,
                   n0: float) -> np.ndarray:
    """Linear MMSE estimates Lam_i Psi^H (Psi Lam_i Psi^H + N0 I)^-1 y_i of
    a stack of users probed by one pilot, by one batched solve.

    Row i of ``y`` (n x T_dl) is user i's observation and row i of ``lam``
    (n x M') the diagonal of its beam-power prior; row i of the result is
    its estimate, exactly zero where the prior is zero.
    """
    y = np.asarray(y)
    lam = np.asarray(lam, dtype=float)
    if y.ndim != 2 or y.shape[1] != pilot.t_dl:
        raise InvalidArgumentError("mmse_effective: observations must be n x T_dl")
    if lam.shape != (y.shape[0], pilot.m_prime):
        raise InvalidArgumentError("mmse_effective: priors must be n x M', one per observation")
    if np.any(lam < 0):
        raise InvalidArgumentError("mmse_effective: prior variances must be nonnegative")
    if not n0 >= 0:
        raise InvalidArgumentError("mmse_effective: noise level must be nonnegative")
    psi = pilot.psi
    inner = (psi * lam[:, None, :]) @ psi.conj().T + n0 * np.eye(pilot.t_dl)
    try:
        sol = np.linalg.solve(inner, y[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"mmse_effective: singular observation covariance: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("mmse_effective: non-finite solve result")
    return lam * (sol @ psi.conj())


def error_trace_oracle(pilot: PilotMatrix, support_columns: np.ndarray,
                       variances: np.ndarray, n0: float) -> float:
    """Closed-form MMSE error trace for the unit-variance expansion
    coefficients: s - sum_i mu_i / (N0 + mu_i), with mu_i the eigenvalues
    of Lam^(1/2) F_S^H Psi^H Psi F_S Lam^(1/2)."""
    f_s = np.asarray(support_columns, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    s = f_s.shape[1]
    if s < 1:
        raise InvalidArgumentError("error_trace_oracle: empty support")
    if variances.shape != (s,):
        raise InvalidArgumentError("error_trace_oracle: one variance per support column")
    half = np.sqrt(variances)
    pf = pilot.psi @ f_s
    a = (half[:, None] * (pf.conj().T @ pf) * half[None, :])
    mu = np.maximum(hermitian_eig(a).eigenvalues, 0.0)
    denom = n0 + mu
    ratio = np.divide(mu, denom, out=np.zeros_like(mu), where=denom > 0)
    return float(s - np.sum(ratio))
