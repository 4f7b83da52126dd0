"""Mixed-integer linear programs solved by SciPy's HiGHS branch-and-cut.

Every program here has the form max c.x subject to A x <= b and
0 <= x <= upper, with a sparse A and the integer variables as a leading
block of x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..errors import InvalidArgumentError, NumericalError


@dataclass
class LinearProgram:
    """max c.x subject to A x <= b and 0 <= x <= upper; A is stored CSR."""

    c: np.ndarray
    a: sparse.csr_array
    b: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = sparse.csr_array(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.c.size
        if self.a.shape != (self.b.size, n) or self.upper.shape != (n,):
            raise InvalidArgumentError("LinearProgram: inconsistent dimensions")
        if np.any(self.upper < 0.0):
            raise InvalidArgumentError("LinearProgram: upper bounds must be nonnegative")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class MixedIntegerProgram:
    """A LinearProgram whose first ``n_int`` variables are integer."""

    lp: LinearProgram
    n_int: int

    def __post_init__(self):
        if not 0 <= self.n_int <= self.lp.n_vars:
            raise InvalidArgumentError(
                f"integer block size {self.n_int} out of range [0, {self.lp.n_vars}]")

    def to_debug_text(self) -> str:
        """Plain-text dump of the instance, one row per line."""
        lp = self.lp
        lines = ["maximize " + " + ".join(f"{cj:g}*x{j}" for j, cj in enumerate(lp.c) if cj)]
        a = lp.a
        for i, rhs in enumerate(lp.b):
            row = slice(a.indptr[i], a.indptr[i + 1])
            terms = " + ".join(f"{v:g}*x{j}" for j, v in zip(a.indices[row], a.data[row]))
            lines.append(f"  {terms or '0'} <= {rhs:g}")
        for j, hi in enumerate(lp.upper):
            kind = "int" if j < self.n_int else "cont"
            lines.append(f"  x{j} in [0.0, {float(hi)}] ({kind})")
        return "\n".join(lines)


@dataclass
class MilpResult:
    status: str  # 'optimal' | 'infeasible'
    x: np.ndarray | None
    objective: float | None
    node_count: int  # HiGHS branch-and-bound nodes
    gap: float       # HiGHS relative MIP gap at termination


def milp_solve(mip: MixedIntegerProgram) -> MilpResult:
    """Solve the MILP with HiGHS; integer variables come back rounded.

    Deterministic for fixed inputs.
    """
    lp = mip.lp
    integrality = np.zeros(lp.n_vars)
    integrality[:mip.n_int] = 1
    res = milp(c=-lp.c, constraints=LinearConstraint(lp.a, -np.inf, lp.b),
               integrality=integrality, bounds=Bounds(0.0, lp.upper))
    if res.status == 2:
        return MilpResult("infeasible", None, None, 0, 0.0)  # HiGHS reports no node count
    if res.status != 0 or res.x is None:
        raise NumericalError(f"MILP solver failed: {res.message}")
    x = res.x.copy()
    x[:mip.n_int] = np.round(x[:mip.n_int])
    return MilpResult("optimal", x, float(lp.c @ x), int(res.mip_node_count),
                      float(res.mip_gap))
