import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcident.simplex import solve_lp


def test_import_defers_scipy_optimize():
    # solve_lp imports scipy.optimize, and _triangle_rows scipy.sparse, inside
    # the call, so `import mcident` loads no scipy module at all
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, mcident; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


class TestEdgeCases:
    def test_infeasible(self):
        # x >= 0 with x1 + x2 = -1 has no solution
        with pytest.raises(RuntimeError, match="^LP infeasible: "):
            solve_lp(np.ones(2), A_eq=np.ones((1, 2)), b_eq=np.array([-1.0]))

    def test_unbounded(self):
        with pytest.raises(RuntimeError, match="^LP solve failed: "):
            solve_lp(np.array([-1.0, 0.0]), A_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]))

    def test_degenerate_vertex(self):
        # two identical constraints through the optimum
        c = np.array([-1.0, -1.0])
        A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 1.0, 0.7])
        x, obj = solve_lp(c, A, b)
        assert obj == pytest.approx(-1.0)

    def test_equality_only(self):
        x, obj = solve_lp(
            np.array([2.0, 3.0]), A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([4.0])
        )
        assert obj == pytest.approx(8.0)
        assert x == pytest.approx([4.0, 0.0])
