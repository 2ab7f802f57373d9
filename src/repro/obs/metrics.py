"""Per-run metrics computed from recorded spans.

Quantifies *why* a schedule performed the way it did:

* **sync-wait fraction** — seconds spent blocked in ``Wait``/``Waitall``/
  ``Waitany`` summed over all ranks, divided by total rank-time
  (``nranks * elapsed``). ADAPT schedules never wait (Algorithm 3 attaches
  callbacks), so their fraction is ~0; Algorithm 1/2 baselines spend a large
  share of their makespan here — the mechanism behind the paper's Figure 7.
* **per-link busy fraction** — the union of each link's flow intervals over
  the measurement window: the share of wall time the link was carrying at
  least one transfer. Contrast with *utilization* (bytes delivered over
  capacity x window): a link can be busy yet underutilized when fair-share
  contention caps its flows below capacity.
* **achieved bandwidth** — bytes the link carried over the window.
* **noise-absorption ratio** — of the noise seconds injected into rank CPUs,
  the share that did *not* translate into delayed work. Each CPU tracks a
  shadow clock advanced by work only; noise opens a lag between the real and
  shadow clocks, and the lag closes only when the CPU would have idled
  anyway — closed lag (plus lag left at quiescence) is absorbed noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.spans import CAT_FLOW, CAT_WAIT, ObsRecorder


def merged_busy_time(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (begin, end) intervals."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    cur_b, cur_e = intervals[0]
    for b, e in intervals[1:]:
        if b > cur_e:
            total += cur_e - cur_b
            cur_b, cur_e = b, e
        else:
            cur_e = max(cur_e, e)
    total += cur_e - cur_b
    return total


@dataclass
class LinkMetrics:
    """One link's share of the measurement window."""

    name: str
    nbytes: float            # bytes carried over the window
    busy_fraction: float     # union of flow intervals / elapsed
    achieved_gbps: float     # nbytes / elapsed, in Gbit/s
    utilization: float       # nbytes / (capacity * elapsed)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "nbytes": self.nbytes,
            "busy_fraction": self.busy_fraction,
            "achieved_gbps": self.achieved_gbps,
            "utilization": self.utilization,
        }


@dataclass
class MetricsReport:
    """Metrics of one measurement (JSON-able; rides the result wire format)."""

    elapsed: float = 0.0
    nranks: int = 0
    sync_wait_seconds: float = 0.0
    sync_wait_fraction: float = 0.0
    noise_seconds: float = 0.0
    noise_absorbed_seconds: float = 0.0
    noise_absorption_ratio: Optional[float] = None  # None when no noise ran
    links: list[LinkMetrics] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    span_count: int = 0
    spans_dropped: int = 0
    # Live recovery (repro.recovery): ranks removed by the membership
    # protocol's agreed views, and the worst suspect-to-commit latency
    # (None when no repair ran).
    degraded_ranks: list = field(default_factory=list)
    time_to_repair: Optional[float] = None

    def link(self, name: str) -> LinkMetrics:
        for lm in self.links:
            if lm.name == name:
                return lm
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "elapsed": self.elapsed,
            "nranks": self.nranks,
            "sync_wait_seconds": self.sync_wait_seconds,
            "sync_wait_fraction": self.sync_wait_fraction,
            "noise_seconds": self.noise_seconds,
            "noise_absorbed_seconds": self.noise_absorbed_seconds,
            "noise_absorption_ratio": self.noise_absorption_ratio,
            "links": [lm.to_dict() for lm in self.links],
            "counters": dict(sorted(self.counters.items())),
            "span_count": self.span_count,
            "spans_dropped": self.spans_dropped,
            "degraded_ranks": list(self.degraded_ranks),
            "time_to_repair": self.time_to_repair,
        }


def compute_metrics(world: Any, elapsed: Optional[float] = None) -> MetricsReport:
    """Distill a world's recorded spans into a :class:`MetricsReport`.

    ``elapsed`` is the measurement window (defaults to the engine clock —
    correct when the measurement started at t=0, which is how the harness
    runs). Requires the world to have been built with ``observe=True``.
    """
    obs: Optional[ObsRecorder] = world.obs
    if obs is None:
        raise ValueError("world has no ObsRecorder; build it with observe=True")
    if elapsed is None:
        elapsed = world.engine.now
    report = MetricsReport(
        elapsed=elapsed,
        nranks=world.nranks,
        counters=dict(obs.counters),
        span_count=len(obs.spans),
        spans_dropped=obs.dropped,
    )
    membership = getattr(world, "membership", None)
    if membership is not None:
        report.degraded_ranks = sorted(membership.view.failed)
        report.time_to_repair = membership.time_to_repair()
    if elapsed <= 0.0:
        return report

    # Sync-wait fraction over total rank-time.
    report.sync_wait_seconds = sum(
        s.duration for s in obs.spans if s.cat == CAT_WAIT
    )
    report.sync_wait_fraction = report.sync_wait_seconds / (world.nranks * elapsed)

    # Noise absorption from the per-CPU shadow clocks (see sim/cpu.py):
    # recovered lag is noise the schedule absorbed; lag still open at the
    # end delayed nothing that ran, so it is absorbed too.
    noise = absorbed = 0.0
    for rt in world.ranks:
        cpu = rt.cpu
        noise += cpu.noise_time
        absorbed += cpu.noise_absorbed_seconds
        absorbed += max(0.0, cpu.busy_until - cpu.shadow_busy_until)
    report.noise_seconds = noise
    if noise > 0.0:
        report.noise_absorbed_seconds = min(absorbed, noise)
        report.noise_absorption_ratio = report.noise_absorbed_seconds / noise

    # Per-link busy intervals from flow spans; bytes/capacity from the links
    # themselves (flow spans may be truncated, byte counters never are).
    by_link: dict[str, list[tuple[float, float]]] = {}
    for s in obs.spans:
        if s.cat == CAT_FLOW and s.track[0] == "link":
            by_link.setdefault(s.track[1], []).append((s.begin, s.end))
    for name, link in sorted(world.fabric.links().items()):
        if link.bytes_carried <= 0 and name not in by_link:
            continue
        busy = merged_busy_time(by_link.get(name, []))
        report.links.append(LinkMetrics(
            name=name,
            nbytes=link.bytes_carried,
            busy_fraction=min(1.0, busy / elapsed),
            achieved_gbps=link.bytes_carried * 8.0 / elapsed / 1e9,
            utilization=link.bytes_carried / (link.capacity * elapsed),
        ))
    return report
