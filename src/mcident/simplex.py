"""Linear programs of the cut relaxation, solved by HiGHS.

A thin wrapper over scipy's HiGHS dual simplex (Huangfu & Hall 2018). The
cut LP is always feasible (a constant metric satisfies it) and bounded (its
objective is nonnegative), so a solve that ends without an optimum is a
defect, not bad input: it raises RuntimeError, which the CLI reports as an
internal error.
"""

from __future__ import annotations

import numpy as np


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> tuple[np.ndarray, float]:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Returns (x, objective). A_ub and A_eq may be dense or scipy.sparse.
    Raises RuntimeError("LP infeasible: ...") when HiGHS proves the problem
    infeasible and RuntimeError("LP solve failed: ...") on any other failed
    solve (unbounded, limits, numerics), each followed by HiGHS's message.
    """
    # Deferred: scipy.optimize adds ~0.2 s and ~16 MB to the package import.
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        raise RuntimeError(f"LP infeasible: {res.message}")
    if res.status != 0:
        raise RuntimeError(f"LP solve failed: {res.message}")
    return res.x, float(res.fun)
