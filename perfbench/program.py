"""Loading the program under test from the checkout's ``src`` tree.

The benchmark imports ``repro`` from ``<checkout>/src`` and reaches it
only through :class:`Program`, a namespace of the public entry points it
calls plus the modules the traced run wraps. :func:`load` re-executes the
whole ``repro`` package each time it is called (every ``repro`` module is
dropped from ``sys.modules`` first), so the import share of set-up time
repeats like the rest of set-up. The standard library and NumPy stay
loaded after the first import; their one-off load is not in ``setup_s``.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``repro`` package."""


def prepare() -> None:
    """Put ``src`` on the import path and keep bytecode under ``OUT``.

    Bytecode is written (whatever ``PYTHONDONTWRITEBYTECODE`` says) so
    repeated imports read compiled modules, as an installed package
    would; it goes to ``.bench_out/pycache`` instead of the source tree.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False


def purge() -> None:
    """Forget every imported ``repro`` module."""
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]


@dataclass
class Program:
    """The public entry points, plus the modules the traced run wraps."""

    table_4_2_spec: object
    table_4_3_spec: object
    run_experiment: object
    ShardedBufferManager: type
    AccessKind: type
    BankOLTPWorkload: type
    ZipfianWorkload: type
    cache: ModuleType
    experiment: ModuleType
    parallel: ModuleType
    runner: ModuleType
    trace_cache: ModuleType
    pool: ModuleType
    registry: ModuleType
    session: ModuleType


def load() -> Program:
    """Import the program afresh and return its entry points."""
    purge()
    module = importlib.import_module
    experiments = module("repro.experiments")
    sim = module("repro.sim")
    service = module("repro.service")
    workloads = module("repro.workloads")
    return Program(
        table_4_2_spec=experiments.table_4_2_spec,
        table_4_3_spec=experiments.table_4_3_spec,
        run_experiment=sim.run_experiment,
        ShardedBufferManager=service.ShardedBufferManager,
        AccessKind=module("repro.types").AccessKind,
        BankOLTPWorkload=workloads.BankOLTPWorkload,
        ZipfianWorkload=workloads.ZipfianWorkload,
        cache=module("repro.sim.cache"),
        experiment=module("repro.sim.experiment"),
        parallel=module("repro.sim.parallel"),
        runner=module("repro.sim.runner"),
        trace_cache=module("repro.sim.trace_cache"),
        pool=module("repro.buffer.pool"),
        registry=module("repro.obs.registry"),
        session=module("repro.service.session"),
    )
