"""Non-negative least squares (SciPy's Lawson-Hanson active-set solver)."""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls as _scipy_nnls

from ..errors import InvalidArgumentError, NumericalError


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||A z - b|| over z >= 0.

    The active-set iterations are capped at 10 * n for n columns (SciPy's
    default of 3 * n is too few for fine angle grids); reaching the cap
    raises NumericalError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1] < 1:
        raise InvalidArgumentError("nnls: A must be a matrix with at least one column")
    if b.shape != (a.shape[0],):
        raise InvalidArgumentError("nnls: b length must match the rows of A")

    max_iter = 10 * a.shape[1]
    try:
        z, _ = _scipy_nnls(a, b, maxiter=max_iter)
    except RuntimeError as exc:
        raise NumericalError(f"nnls: iteration cap {max_iter} exceeded") from exc
    return z
