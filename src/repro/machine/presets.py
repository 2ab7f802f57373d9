"""Cluster presets mirroring the paper's three testbeds.

Parameters are calibrated to land the paper's 4 MB-class collectives in the
millisecond regime (Section 5's figures); DESIGN.md Section 5 documents the
calibration and the ablation bench shows the reproduced *shapes* are robust
to ±2x parameter changes.
"""

from __future__ import annotations

from typing import Callable

from repro.machine.spec import GpuSpec, LinkParams, MachineSpec, NodeSpec


def cori(nodes: int = 32) -> MachineSpec:
    """Cori-like CPU cluster: 2x Intel Xeon E5-2698v3 (16 cores/socket),
    Cray Aries fabric. The paper uses 1024 ranks = 32 nodes."""
    return MachineSpec(
        name="cori",
        nodes=nodes,
        node=NodeSpec(sockets=2, cores_per_socket=16),
        shm=LinkParams(alpha=0.3e-6, bandwidth=16e9),
        qpi=LinkParams(alpha=0.7e-6, bandwidth=12e9),
        fabric=LinkParams(alpha=1.5e-6, bandwidth=10e9),
    )


def stampede2(nodes: int = 32) -> MachineSpec:
    """Stampede2-like CPU cluster: 2x Intel Xeon Platinum 8160
    (24 cores/socket), Intel Omni-Path. 1536 ranks = 32 nodes.

    Omni-Path is modelled slightly faster than Aries, matching the paper's
    observation that Stampede2 absolute times are lower (Fig 9b vs 9a)."""
    return MachineSpec(
        name="stampede2",
        nodes=nodes,
        node=NodeSpec(sockets=2, cores_per_socket=24),
        shm=LinkParams(alpha=0.25e-6, bandwidth=18e9),
        qpi=LinkParams(alpha=0.6e-6, bandwidth=14e9),
        fabric=LinkParams(alpha=1.2e-6, bandwidth=12e9),
    )


def psg_gpu(nodes: int = 8) -> MachineSpec:
    """PSG-like GPU cluster: 2 sockets x 2 K40 GPUs per node (4 GPUs/node),
    deca-core Ivy Bridge CPUs, FDR InfiniBand (40 Gb/s ~ 5 GB/s)."""
    return MachineSpec(
        name="psg",
        nodes=nodes,
        node=NodeSpec(
            sockets=2,
            cores_per_socket=10,
            gpu=GpuSpec(
                gpus_per_socket=2,
                pcie=LinkParams(alpha=1.3e-6, bandwidth=12e9),
                reduce_bandwidth=180e9,
                kernel_launch=4e-6,
                streams=4,
            ),
        ),
        shm=LinkParams(alpha=0.3e-6, bandwidth=16e9),
        qpi=LinkParams(alpha=0.7e-6, bandwidth=12e9),
        fabric=LinkParams(alpha=1.8e-6, bandwidth=5e9),
    )


#: Preset factories addressable by name (the scale knob's lookup table).
PRESETS = {
    "cori": cori,
    "stampede2": stampede2,
    "psg": psg_gpu,
}

#: Compiled topology families (repro.topo) addressable everywhere preset
#: names are: ``for_ranks``, ``repro bench --scale``, parallel sim jobs.
TOPO_FAMILY_NAMES = ("fattree", "dragonfly", "railpod")


def ranks_per_node(name: str) -> int:
    """Ranks one node of preset ``name`` contributes (cores, or GPUs when
    the preset is GPU-bound)."""
    spec = PRESETS[name]()
    node = spec.node
    if name == "psg":
        return node.sockets * node.gpu.gpus_per_socket
    return node.sockets * node.cores_per_socket


def for_ranks(name: str, world_size: int) -> MachineSpec:
    """The ``world_size``-driven scale knob (DESIGN.md §23): build preset
    ``name`` with exactly enough nodes for ``world_size`` ranks.

    ``repro bench --scale`` uses this to stand up 1K/4K/16K-rank clusters
    from the same calibrated per-link parameters as the paper-sized runs —
    node count is the only thing that varies with scale.

    Topology-family names (``fattree``/``dragonfly``/``railpod``) resolve
    through the topology compiler instead: the family spec is resized to
    the smallest shape fitting ``world_size`` and compiled.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if name in TOPO_FAMILY_NAMES:
        from repro.topo import family_for_ranks  # deferred: avoids cycle

        return family_for_ranks(name, world_size)
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    per_node = ranks_per_node(name)
    nodes = -(-world_size // per_node)  # ceil division
    return PRESETS[name](nodes)


def small_test_machine(
    nodes: int = 3,
    sockets: int = 2,
    cores_per_socket: int = 4,
    gpus_per_socket: int = 0,
) -> MachineSpec:
    """Tiny cluster for unit tests — the Figure 5 layout by default
    (4 cores/socket, 2 sockets/node)."""
    gpu = GpuSpec(gpus_per_socket=gpus_per_socket) if gpus_per_socket else None
    return MachineSpec(
        name="testbox",
        nodes=nodes,
        node=NodeSpec(sockets=sockets, cores_per_socket=cores_per_socket, gpu=gpu),
    )


def default_nranks(
    spec: MachineSpec, nranks: int | None = None, gpu: bool = False
) -> int:
    """The world size of a run on ``spec``: ``nranks`` when given, else a
    compiled topology family's native ``ranks``, else one rank per GPU
    when ``gpu`` and one per core otherwise. (GPU binding itself is
    :class:`~repro.mpi.runtime.MpiWorld`'s: it forces it on rail pods.)"""
    if nranks is not None:
        if nranks < 1:
            raise ValueError(f"nranks must be at least 1 (got {nranks})")
        return nranks
    if spec.compiled is not None:
        return spec.compiled.ranks
    return spec.total_gpus if gpu else spec.total_cores


def resolve(name: str, nodes: int | None = None) -> MachineSpec:
    """The machine called ``name`` at ``nodes`` nodes (the model's default
    size when None): a preset, ``testbox`` or a compiled topology family.

    Compiled families rebuild deterministically in every worker process —
    same spec, byte-identical link list."""
    if name in TOPO_FAMILY_NAMES:
        from repro.topo import build_family  # deferred: avoids cycle

        return build_family(name, nodes=nodes)
    factories: dict[str, Callable] = {**PRESETS, "testbox": small_test_machine}
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(f"unknown machine preset {name!r}") from None
    return factory(nodes) if nodes is not None else factory()
