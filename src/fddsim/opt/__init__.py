"""Generic optimization kit: NNLS, MILP, bipartite matching."""

from .lp import LinearProgram, MilpResult, MixedIntegerProgram, milp_solve
from .matching import MatchingInstance, max_matching
from .nnls import nnls

__all__ = [
    "LinearProgram", "MixedIntegerProgram", "MilpResult", "milp_solve",
    "MatchingInstance", "max_matching",
    "nnls",
]
