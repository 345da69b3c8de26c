"""The public surface matches what the README documents."""

import re
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import mcident

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_constants():
    """{name: default} from the rows of the README "Named constants" table."""
    text = README.read_text()
    section = text.split("## Named constants", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|\s*`(\w+)`\s*\|\s*([^|]+?)\s*\|", section, flags=re.M)
    return {name: float(Fraction(default)) for name, default in rows}


def test_readme_constants_table_matches_record():
    assert readme_constants() == asdict(mcident.Constants())


def test_all_names_resolve_once():
    assert len(mcident.__all__) == len(set(mcident.__all__))
    missing = [name for name in mcident.__all__ if not hasattr(mcident, name)]
    assert missing == []
