"""Job execution: rebuild a world from a :class:`SimJob` and measure it.

``execute_job`` is the single entry point both execution paths share — the
in-process sequential loop and the process-pool workers — so a sweep's
results are identical bytes regardless of ``--jobs``. It returns a plain
dict (the wire/cache format); ``result_from_dict`` turns one back into the
:class:`RunResult`/:class:`AspResult`/:class:`SgdResult` the experiment
drivers consume.
"""

from __future__ import annotations

from importlib import import_module

from repro.machine.presets import default_nranks, resolve
from repro.parallel.jobs import READS, SimJob

#: Per kind: the module holding its runner, the runner, and the result
#: class ``result_from_dict`` rebuilds. Both are looked up at call time,
#: so a patched ``repro.harness.runner.run_collective`` is the one called.
_KINDS = {
    "collective": ("repro.harness.runner", "run_collective", "RunResult"),
    "asp": ("repro.apps.asp", "run_asp", "AspResult"),
    "sgd": ("repro.apps.sgd", "run_sgd", "SgdResult"),
}


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
    """Run one job to completion and return its serialized result: one call
    of the kind's runner with the keywords :data:`READS` names."""
    spec = resolve(job.machine, job.nodes)
    nranks = default_nranks(spec, job.nranks, job.gpu)
    kwargs = {kw: getattr(job, f) for f, kw in READS[job.kind].items()}
    if "custom_algorithm" in kwargs:
        kwargs["custom_algorithm"] = _custom_algorithm(job)
    module, run, _ = _KINDS[job.kind]
    res = getattr(import_module(module), run)(spec, nranks, **kwargs)
    return {**res.to_dict(), "kind": job.kind}


def result_from_dict(d: dict):
    """Wire/cache dict back to the result object the harness consumes."""
    d = dict(d)
    module, _, cls = _KINDS[d.pop("kind", "collective")]
    return getattr(import_module(module), cls).from_dict(d)
