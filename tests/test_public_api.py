"""The public surface matches what the README documents and what the
benchmark's tracer wraps."""

import importlib
import inspect
import re
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np

import mcident
from mcident import corpus, partition

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACING = ROOT / "perfbench" / "tracing.py"


def readme_constants():
    """{(module, name): default} from the rows of the README "Named
    constants" table."""
    text = README.read_text()
    section = text.split("## Named constants", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|\s*`(\w+)`\s*\|\s*`(\w+)`\s*\|\s*([^|]+?)\s*\|", section,
                      flags=re.M)
    return {(module, name): float(Fraction(default)) for name, module, default in rows}


def test_readme_constants_table_matches_record():
    table = readme_constants()
    assert len(table) == 7
    for (module, name), default in table.items():
        assert getattr(importlib.import_module(f"mcident.{module}"), name) == default


def test_all_names_resolve_once():
    assert len(mcident.__all__) == len(set(mcident.__all__))
    missing = [name for name in mcident.__all__ if not hasattr(mcident, name)]
    assert missing == []


def test_traced_names_resolve():
    # The traced benchmark run looks each "<module>.<function>" up on
    # mcident.<module>; a renamed, deleted or folded one stops every traced run.
    def resolves(name):
        module, fn_name = name.split(".")
        try:
            return hasattr(importlib.import_module(f"mcident.{module}"), fn_name)
        except ModuleNotFoundError:
            return False

    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    assert [name for name in traced if not resolves(name)] == []


def test_traced_lp_counter_reads_result():
    # The LP counter reads fields of the MetricLP it is given; no other
    # test traces an LP, so a field it reads could vanish unnoticed.
    counter = runpy.run_path(str(TRACING))["TRACED"]["partition.solve_spccc_lp"]
    P = corpus.random_reversible(6, np.random.default_rng(0))
    args = inspect.signature(partition.solve_spccc_lp).bind(P, range(6)).arguments
    assert counter(args, partition.solve_spccc_lp(P, range(6))) == {"nodes": 6}
