"""Maximum bipartite matching size by SciPy's Hopcroft-Karp."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from ..errors import InvalidArgumentError


def max_matching(adjacency: np.ndarray) -> int:
    """Size of a maximum matching of the bipartite graph whose rows and
    columns are the two vertex sets and whose True entries are the edges.

    Runs ``scipy.sparse.csgraph.maximum_bipartite_matching`` (Hopcroft-Karp),
    which stops only when no augmenting path exists, so the size is maximum.
    """
    a = np.asarray(adjacency)
    if a.dtype != bool or a.ndim != 2:
        raise InvalidArgumentError("max_matching: adjacency must be a 2-D boolean array")
    match = maximum_bipartite_matching(csr_array(a), perm_type="column")
    return int(np.count_nonzero(match >= 0))
