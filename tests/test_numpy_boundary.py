"""numpy loads only for runs that carry payload arrays (DESIGN.md §4).

Timing mode passes ``None`` payloads; every array operation sits behind
:mod:`repro.mpi.payload`, which imports numpy past its ``None`` checks. The
noise and fault injectors draw from :mod:`repro.sim.rng`, and
``RunResult.mean_time`` sums in plain Python. So a timing-only run, a
sweep, the CLI, a noisy or lossy run and its mean never load numpy, while a
data-mode run does. Each case runs in a fresh interpreter: this process has
numpy loaded already. The same fresh interpreters check that an in-process
run leaves the process pool unloaded.
"""

import os
import subprocess
import sys

import pytest

import repro

_TIMING_BCAST = """
from repro.harness.runner import run_collective
from repro.machine import for_ranks
run_collective(for_ranks("cori", 16), 16, "OMPI-adapt", "bcast",
               nbytes=4 << 20, iterations=1)
"""

_FIG09_JOB = """
from repro.harness.experiments import fig09_msgsize
from repro.parallel import run_jobs
run_jobs(fig09_msgsize.jobs("cori", "small", "bcast")[:1], n_jobs=1, cache=None)
"""

_CLI_IMPORT = """
import repro.cli, repro.harness.experiments
"""

_DATA_BCAST = """
from repro.collectives import bcast_adapt
from repro.collectives.base import CollectiveContext
from repro.machine import small_test_machine
from repro.mpi import Communicator, MpiWorld
from repro.trees import binomial_tree
world = MpiWorld(small_test_machine(), 4, carry_data=True)
data = bytes(range(256)) * 4
ctx = CollectiveContext(Communicator(world), 0, len(data), tree=binomial_tree(4),
                        data=bytearray(data))
handle = bcast_adapt(ctx)
world.run()
assert sorted(handle.output) == [0, 1, 2, 3]
assert all(bytes(out) == data for out in handle.output.values())
"""

_NOISE_INJECTOR = """
from repro.machine import small_test_machine
from repro.mpi import MpiWorld
from repro.noise.injector import NoiseInjector
NoiseInjector(MpiWorld(small_test_machine(), 4), percent=5.0)
"""

_FAULT_PLAN = """
from repro.faults.plan import CorruptSpec, FaultPlan, LossSpec
from repro.harness.runner import run_collective
from repro.machine import for_ranks
plan = FaultPlan(losses=[LossSpec(drop=0.05)], corrupts=[CorruptSpec(rate=0.05)], seed=3)
result = run_collective(for_ranks("cori", 16), 16, "OMPI-adapt", "bcast",
                        nbytes=65536, iterations=2, fault_plan=plan, noise_percent=5.0)
assert result.transport["dropped"] > 0 and result.transport["checksum_rejects"] > 0
assert result.mean_time > 0
"""

_MEAN_TIME = """
from repro.harness.runner import RunResult
result = RunResult("L", "bcast", "m", 4, 1024, 0.0, times=[0.1] * 300)
assert abs(result.mean_time - 0.1) < 1e-12
"""


@pytest.mark.parametrize("code, loads_numpy", [
    pytest.param(_TIMING_BCAST, False, id="timing-bcast"),
    pytest.param(_FIG09_JOB, False, id="fig09-job"),
    pytest.param(_CLI_IMPORT, False, id="cli-import"),
    pytest.param(_DATA_BCAST, True, id="data-bcast"),
    pytest.param(_NOISE_INJECTOR, False, id="noise-injector"),
    pytest.param(_FAULT_PLAN, False, id="fault-plan"),
    pytest.param(_MEAN_TIME, False, id="mean-time"),
])
def test_numpy_loads_only_for_payloads(code, loads_numpy):
    assert _loaded_after(code, "numpy") == loads_numpy


@pytest.mark.parametrize("code", [
    pytest.param(_TIMING_BCAST, id="timing-bcast"),
    pytest.param(_FIG09_JOB, id="fig09-job"),
])
def test_in_process_runs_skip_the_process_pool(code):
    """``run_jobs(n_jobs=1)`` imports no ``concurrent.futures`` pool, and so
    no ``multiprocessing``."""
    assert not _loaded_after(code, "concurrent.futures.process")


def _loaded_after(code: str, module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``code``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code + f"\nimport sys\nprint({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"
