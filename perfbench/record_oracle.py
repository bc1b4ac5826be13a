"""Record the expected outputs the benchmark checks (``oracle.json``).

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record_oracle.py

For every input seed it regenerates both tables once and replays the
served OLTP workload's untimed prefix, then stores each table value and
the prefix's decision counts. Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    __package__ = "perfbench"

from perfbench import program as program_mod, serve, tables  # noqa: E402
from perfbench.run import INPUT_SEEDS, ORACLE, serve_setup  # noqa: E402


def main() -> int:
    program_mod.prepare()
    program = program_mod.load()
    oracle = {"input_seeds": INPUT_SEEDS}
    for seed in range(INPUT_SEEDS):
        for name, workload in tables.TABLE_WORKLOADS.items():
            result = program.run_experiment(
                workload.build(program, seed), jobs=1)
            oracle.setdefault(name, {})[str(seed)] = tables.table_values(
                result)
        for name, workload in serve.SERVE_WORKLOADS.items():
            manager, _ = serve_setup(program, workload, seed)
            oracle.setdefault(name, {})[str(seed)] = serve.Decisions.of(
                manager).oracle_view()
        print(f"input seed {seed} recorded", file=sys.stderr, flush=True)
    with open(ORACLE, "w") as handle:
        json.dump(oracle, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
