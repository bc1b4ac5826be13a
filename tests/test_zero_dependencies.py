"""The package runs on the Python standard library alone.

Generating a large trace, regenerating a paper table and serving
requests all run in a fresh interpreter; every module that work loads
must be part of the standard library or of ``repro`` itself. A
subprocess keeps the check honest: the test runner and its plugins
import third-party array libraries into this process.
"""

import os
import subprocess
import sys
import textwrap

import pytest

SCRIPT = textwrap.dedent("""
    import sys

    before = set(sys.modules)

    import repro
    from repro.core import LRUKPolicy
    from repro.experiments import table_4_2_spec
    from repro.service import ShardedBufferManager, run_load
    from repro.sim import run_experiment
    from repro.workloads import ZipfianWorkload

    pages = ZipfianWorkload(n=1000).page_ids(100_000, seed=1)
    assert len(pages) == 100_000

    spec = table_4_2_spec(scale=0.02, capacities=[60, 100],
                          repetitions=1)
    result = run_experiment(spec)
    assert result.cells

    manager = ShardedBufferManager(
        256, shards=2, policy_factory=lambda: LRUKPolicy(k=2))
    report = run_load(manager, {"tenant0": ZipfianWorkload(n=1000)},
                      sessions=1, references=2_000, seed=3)
    assert report.total_requests == 2_000

    loaded = {name.split(".")[0] for name in set(sys.modules) - before}
    # __mp_main__ is multiprocessing's alias for the __main__ module.
    foreign = sorted(loaded - set(sys.stdlib_module_names)
                     - {"repro", "__mp_main__"})
    assert not foreign, foreign
    print("ok")
""")


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_loads_only_the_standard_library():
    source = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
