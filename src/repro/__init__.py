"""repro — reproduction of *ADAPT: An Event-Based Adaptive Collective
Communication Framework* (Luo et al., HPDC 2018).

The paper's system is rebuilt end-to-end on a discrete-event simulated
heterogeneous cluster (see DESIGN.md for the substitution argument):

* :mod:`repro.sim` — event engine, per-rank CPUs, tracing;
* :mod:`repro.machine` — cluster/topology model (Cori/Stampede2/PSG presets);
* :mod:`repro.network` — max-min fair-shared links, routing, PCIe lanes;
* :mod:`repro.mpi` — simulated MPI runtime (eager/rendezvous, matching,
  completion callbacks, blocking-style proclets);
* :mod:`repro.trees` — communication trees incl. the topology-aware tree;
* :mod:`repro.collectives` — blocking / non-blocking+Waitall / **ADAPT
  event-driven** collectives plus the comparators and extensions;
* :mod:`repro.libraries` — behavioural models of the compared MPI libraries;
* :mod:`repro.noise` — noise injection and the propagation microscope;
* :mod:`repro.model` — Hockney analytic cost model;
* :mod:`repro.apps` — the ASP application (Table 1);
* :mod:`repro.harness` — IMB-style runner, per-figure experiment drivers,
  charts, and the ``python -m repro`` CLI.

Quickstart::

    from repro.machine import cori
    from repro.mpi import MpiWorld, Communicator
    from repro.trees import topology_aware_tree
    from repro.collectives import bcast_adapt
    from repro.collectives.base import CollectiveContext
    from repro.config import CollectiveConfig

    world = MpiWorld(cori(nodes=2), nranks=64)
    comm = Communicator(world)
    tree = topology_aware_tree(world.topology, list(comm.ranks), root=0)
    ctx = CollectiveContext(comm, 0, 1 << 20, CollectiveConfig(), tree=tree)
    handle = bcast_adapt(ctx)
    world.run()
    print(handle.elapsed())
"""

import sys
from importlib import import_module
from typing import Any, Callable

__version__ = "1.0.0"


def on_first_use(package: str, names: dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package`` that serves each public name
    in ``names`` (name -> submodule) by importing its submodule on the first
    read, then keeps it in the package namespace.

    A package ``__init__`` imports only what every run executes and serves
    the rest through this (DESIGN.md §18, "What a run loads"): each name
    stays importable from the package root, and a run loads only the code
    it executes.
    """

    def __getattr__(name: str) -> Any:
        if name not in names:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{names[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__

__all__ = [
    "apps",
    "cli",
    "collectives",
    "config",
    "harness",
    "libraries",
    "machine",
    "model",
    "mpi",
    "network",
    "noise",
    "sim",
    "trees",
]
