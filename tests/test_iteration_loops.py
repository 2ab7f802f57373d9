"""Pins of the three per-rank iteration loops, compared with ``==``.

``run_collective`` (IMB mode), ``run_sgd`` and ``run_asp`` all time their
iterations with the same per-rank chain: a rank enters iteration i+1 as
soon as its own part of iteration i returns (plus the compute gap, for the
two applications). These values were recorded before the three loops were
folded into one; any drift in the chain, the world builder or the
interval bookkeeping shows up here as an exact mismatch.
"""

from __future__ import annotations

import pytest

from repro.apps.asp import run_asp
from repro.apps.sgd import run_sgd
from repro.faults.plan import FaultPlan, LossSpec
from repro.harness.experiments import table1_asp
from repro.harness.runner import run_collective
from repro.machine import small_test_machine
from repro.parallel import execute_job
from repro.relaxed import QuorumPolicy

#: Table 1 at ``--scale small``: cori, 24 iterations of 1 MiB rows.
TABLE1_SMALL = {
    "Cray MPI": 0.05345789999999754,
    "Intel MPI": 0.0487409502197521,
    "OMPI-adapt": 0.04153878506666676,
    "OMPI-default": 0.09289757744338648,
}


class TestAsp:
    @pytest.mark.parametrize(
        "job", table1_asp.jobs("small"), ids=lambda j: j.library
    )
    def test_table1_small(self, job):
        assert execute_job(job)["total_runtime"] == TABLE1_SMALL[job.library]

    def test_hierarchical_leader_chaining(self):
        res = run_asp(small_test_machine(), 24, "Intel MPI", iterations=5,
                      row_bytes=128 * 1024)
        assert res.total_runtime == 0.008120705155555559


_STALL_KW = dict(
    epochs=6, grad_bytes=16 << 10, compute_per_epoch=5e-4,
    fault_plan=FaultPlan.stall_sweep(8, victims=1, duration=8e-3,
                                     start=2e-3, seed=5),
    sanitize=True, seed=4,
)
_SGD_COMMON = {
    "nranks": 8, "epochs": 6, "grad_bytes": 16384, "min_quorum": 1,
    "staleness_window": 1, "noise_percent": 0.0, "seed": 4,
    "degraded": False, "completed": True,
}


class TestSgd:
    def test_stall_exact(self):
        res = run_sgd(small_test_machine(), 8, quorum=None, **_STALL_KW)
        assert res.to_dict() == {
            **_SGD_COMMON,
            "quorum": None,
            "total_runtime": 0.01117652426666664,
            "epoch_times": [
                0.0005319818666666663, 0.000531981866666667,
                0.000531981866666667, 0.008516614933333324,
                0.0005319818666666577, 0.0005319818666666577,
            ],
            "excess_loss": 1.2296272189563417,
            "on_time_fraction": 1.0,
            "late_merged": 0,
            "discarded": 0,
        }

    def test_stall_quorum(self):
        res = run_sgd(small_test_machine(), 8, quorum=QuorumPolicy(quorum=0.75),
                      **_STALL_KW)
        assert res.to_dict() == {
            **_SGD_COMMON,
            "quorum": 0.75,
            "total_runtime": 0.0032084375999999856,
            "epoch_times": [
                0.0005361656000000003, 0.0005378912000000005,
                0.0005378912000000005, 0.0005346143999999952,
                0.0005309375999999946, 0.0005309375999999946,
            ],
            "excess_loss": 1.2550339270333382,
            "on_time_fraction": 0.75,
            "late_merged": 8,
            "discarded": 4,
        }


class TestImb:
    def test_noisy_lossy_allreduce(self):
        res = run_collective(
            small_test_machine(), 24, "OMPI-adapt", "allreduce", 64 << 10,
            iterations=6, noise_percent=5.0, noise_frequency=1000.0, seed=3,
            fault_plan=FaultPlan(losses=[LossSpec(drop=0.01)], seed=2),
        )
        assert res.times == [
            0.00022755337075006153, 0.002197794399999999,
            0.0021755151999999917, 0.00017139760000000996,
            0.00024782204677578114, 0.0002227122647587088,
        ]
        assert res.transport == {
            "transmissions": 555, "retransmits": 3, "acks_sent": 552,
            "nacks_sent": 0, "checksum_rejects": 0, "sends_abandoned": 0,
            "sends_parked": 0, "msgs_lost_dead": 0,
            "duplicates_suppressed": 0, "fresh_deliveries": 552,
            "dropped": 3, "duplicated": 0, "severed": 0,
            "severed_control": 0,
        }

    def test_hierarchical_leader_chaining(self):
        # Intel's bcast is leader-only self-starting (chain_ranks); the
        # other ranks join each iteration from inside it.
        res = run_collective(small_test_machine(), 24, "Intel MPI", "bcast",
                             256 << 10, iterations=5)
        assert res.times == [
            0.0001058157333333333, 9.351573333333346e-05,
            9.351573333333369e-05, 9.351573333333358e-05,
            9.351573333333358e-05,
        ]
