"""Golden values: Tables 4.1–4.3 at small scales, compared exactly.

``tests/golden/paper_tables.json`` holds every value of three reduced
paper tables — each policy column's hit ratio and the B(1)/B(2) column —
as recorded before the equi-effective search moved from re-simulated
LRU-1 probes to one stack-distance pass per seed. Any engine change must
reproduce them to the last bit: the tables are the project's results,
and "faster" only counts when they do not move.

Regenerate (only when a result change is intended and explained)::

    PYTHONPATH=src python tests/experiments/test_golden_tables.py --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Optional

import pytest

from repro.experiments import table_4_1_spec, table_4_2_spec, table_4_3_spec
from repro.sim import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "golden", "paper_tables.json")

#: Each golden table: how to build it, by name.
SPECS = {
    "table4.1 scale=0.05": lambda: table_4_1_spec(scale=0.05),
    "table4.2 scale=0.2": lambda: table_4_2_spec(scale=0.2),
    "table4.3 scale=0.02": lambda: table_4_3_spec(scale=0.02),
}


def table_values(name: str) -> Dict[str, Optional[float]]:
    """Every value of one regenerated table, keyed ``"B=<b> <column>"``."""
    result = run_experiment(SPECS[name]())
    values: Dict[str, Optional[float]] = {}
    labels = [spec.label for spec in result.spec.policies]
    for cell in result.cells:
        for label in labels:
            values[f"B={cell.capacity} {label}"] = cell.hit_ratio(label)
        if result.spec.equi_effective is not None:
            values[f"B={cell.capacity} B(1)/B(2)"] = (
                result.equi_effective_ratios.get(cell.capacity))
    return values


def _golden() -> Dict[str, Dict[str, Optional[float]]]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_table_matches_golden_values_exactly(name):
    expected = _golden()[name]
    values = table_values(name)
    assert any(key.endswith("B(1)/B(2)") for key in expected)
    assert values == expected


def test_golden_file_covers_every_table():
    assert sorted(_golden()) == sorted(SPECS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_tables.py --write")
    golden = {name: table_values(name) for name in sorted(SPECS)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
