"""Generic optimization kit: NNLS, MILP and SciPy's maximum bipartite matching."""

from .lp import LinearProgram, MilpResult, MixedIntegerProgram, milp_solve
from .matching import max_matching
from .nnls import nnls

__all__ = [
    "LinearProgram", "MixedIntegerProgram", "MilpResult", "milp_solve",
    "max_matching",
    "nnls",
]
