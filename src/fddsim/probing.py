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


@dataclass
class EffectiveChannelModel:
    """Diagonal prior for one user's effective channel: nonzero variances
    only on the modeled support positions (indices into the selected-beam
    axis), plus the observation noise level."""

    m_prime: int
    support: list           # positions within [0, M')
    variances: np.ndarray   # prior variances on the support, same length
    n0: float

    def __post_init__(self):
        self.variances = np.asarray(self.variances, dtype=float)
        if any(not (0 <= p < self.m_prime) for p in self.support):
            raise InvalidArgumentError("support position out of range")
        if len(self.support) != self.variances.size:
            raise InvalidArgumentError("one variance per support position required")
        if np.any(self.variances < 0):
            raise InvalidArgumentError("prior variances must be nonnegative")
        if self.n0 < 0:
            raise InvalidArgumentError("noise level must be nonnegative")

    def prior_diagonal(self) -> np.ndarray:
        lam = np.zeros(self.m_prime)
        lam[self.support] = self.variances
        return lam


def dl_observe(pilot: PilotMatrix, precoder, h: np.ndarray, n0: float,
               seed, *path: int) -> np.ndarray:
    """One pilot observation y = Psi B h + noise at a user receiver."""
    b = precoder.matrix()
    if b.shape[0] != pilot.m_prime or b.shape[1] != h.size:
        raise InvalidArgumentError("dl_observe: dimension mismatch")
    noise = np.sqrt(n0) * gaussian_complex(pilot.t_dl, seed, *path)
    return pilot.psi @ (b @ h) + noise


def mmse_effective(y: np.ndarray, pilot: PilotMatrix,
                   model: EffectiveChannelModel) -> np.ndarray:
    """Linear MMSE estimate Lam Psi^H (Psi Lam Psi^H + N0 I)^-1 y.

    Entries outside the modeled support are exactly zero.
    """
    if y.shape != (pilot.t_dl,):
        raise InvalidArgumentError("mmse_effective: observation length mismatch")
    if model.m_prime != pilot.m_prime:
        raise InvalidArgumentError("mmse_effective: model/pilot dimension mismatch")
    lam = model.prior_diagonal()
    psi = pilot.psi
    inner = (psi * lam) @ psi.conj().T + model.n0 * np.eye(pilot.t_dl)
    try:
        sol = np.linalg.solve(inner, y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"mmse_effective: singular observation covariance: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("mmse_effective: non-finite solve result")
    return lam * (psi.conj().T @ sol)


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
