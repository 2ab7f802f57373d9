"""Job execution: rebuild a world from a :class:`SimJob` and measure it.

``execute_job`` is the single entry point both execution paths share — the
in-process sequential loop and the process-pool workers — so a sweep's
results are identical bytes regardless of ``--jobs``. It returns a plain
dict (the wire/cache format); ``result_from_dict`` turns one back into the
:class:`RunResult`/:class:`AspResult` the experiment drivers consume.
"""

from __future__ import annotations

from repro.machine.presets import default_nranks, resolve
from repro.parallel.jobs import SimJob


def _custom_algorithm(job: SimJob):
    if job.algo_family is None:
        return None
    from repro.libraries.presets import (
        intel_topo_bcast_variants,
        intel_topo_reduce_variants,
    )

    variants = {
        "intel-topo-bcast": intel_topo_bcast_variants,
        "intel-topo-reduce": intel_topo_reduce_variants,
    }[job.algo_family]()
    try:
        return variants[job.algo_variant]
    except KeyError:
        raise ValueError(
            f"unknown {job.algo_family} variant {job.algo_variant!r}"
        ) from None


def execute_job(job: SimJob) -> dict:
    """Run one job to completion and return its serialized result."""
    spec = resolve(job.machine, job.nodes)
    nranks = default_nranks(spec, job.nranks, job.gpu)
    if job.kind == "asp":
        from repro.apps.asp import run_asp

        res = run_asp(
            spec,
            nranks,
            job.library,
            iterations=job.iterations,
            row_bytes=job.row_bytes,
            compute_per_iteration=job.compute_per_iteration,
        )
        out = res.to_dict()
        out["kind"] = "asp"
        return out

    from repro.harness.runner import run_collective

    noise_ranks = (
        list(job.noise_ranks)
        if isinstance(job.noise_ranks, tuple)
        else job.noise_ranks
    )
    if job.kind == "sgd":
        from repro.apps.sgd import run_sgd

        res = run_sgd(
            spec,
            nranks,
            epochs=job.iterations,
            grad_bytes=job.nbytes,
            compute_per_epoch=job.compute_per_iteration,
            quorum=job.quorum,
            noise_percent=job.noise_percent,
            noise_ranks=noise_ranks,
            noise_frequency=job.noise_frequency,
            seed=job.seed,
            fault_plan=job.fault_plan,
            sanitize=job.sanitize,
            time_limit=job.time_limit,
        )
        out = res.to_dict()
        out["kind"] = "sgd"
        return out
    res = run_collective(
        spec,
        nranks,
        job.library,
        job.operation,
        job.nbytes,
        iterations=job.iterations,
        mode=job.mode,
        noise_percent=job.noise_percent,
        noise_ranks=noise_ranks,
        noise_frequency=job.noise_frequency,
        seed=job.seed,
        gpu=job.gpu,
        custom_algorithm=_custom_algorithm(job),
        fault_plan=job.fault_plan,
        sanitize=job.sanitize,
        time_limit=job.time_limit,
        observe=job.observe,
        recover=job.recover,
        quorum=job.quorum,
    )
    out = res.to_dict()
    out["kind"] = "collective"
    return out


def result_from_dict(d: dict):
    """Wire/cache dict back to the result object the harness consumes."""
    d = dict(d)
    kind = d.pop("kind", "collective")
    if kind == "asp":
        from repro.apps.asp import AspResult

        return AspResult.from_dict(d)
    if kind == "sgd":
        from repro.apps.sgd import SgdResult

        return SgdResult.from_dict(d)
    from repro.harness.runner import RunResult

    return RunResult.from_dict(d)
