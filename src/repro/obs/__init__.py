"""Observability: structured spans, per-collective metrics, trace export.

The recorder (:class:`~repro.obs.spans.ObsRecorder`) is the world's one
record stream: request lifetimes, CPU work, noise, flows, recovery and
quorum epochs, and zero-length ``fault`` marks (kills, retransmits, parked
and abandoned sends, checksum rejects, suppressed duplicates) that only
fault paths emit. It attaches to a world as ``world.obs`` the same way the
dependency recorder attaches as ``world.observer``: the attribute defaults
to ``None`` and every hot-path hook guards with a single ``is not None``
test, so a world built without observation pays one pointer comparison per
hook site and allocates nothing.

On top of the recorder:

* :mod:`repro.obs.metrics` — per-run metrics: sync-wait fraction, per-link
  busy fraction and achieved bandwidth, noise-absorption ratio.
* :mod:`repro.obs.critical` — critical path through the dependency graph
  extracted by :mod:`repro.analysis.depgraph`.
* :mod:`repro.obs.chrome` — Chrome trace-event / Perfetto JSON export with
  one track per rank plus link tracks (``repro trace --chrome out.json``).
"""

from repro.obs.chrome import (
    chrome_trace_events,
    export_chrome_trace,
    render_chrome_json,
    validate_chrome_trace,
)
from repro.obs.critical import critical_path
from repro.obs.metrics import MetricsReport, compute_metrics
from repro.obs.spans import (
    CAT_COLLECTIVE,
    CAT_CPU,
    CAT_FAULT,
    CAT_FLOW,
    CAT_NOISE,
    CAT_RECV,
    CAT_SEND,
    CAT_SLEEP,
    CAT_WAIT,
    ObsRecorder,
    Span,
)

__all__ = [
    "CAT_COLLECTIVE",
    "CAT_CPU",
    "CAT_FAULT",
    "CAT_FLOW",
    "CAT_NOISE",
    "CAT_RECV",
    "CAT_SEND",
    "CAT_SLEEP",
    "CAT_WAIT",
    "MetricsReport",
    "ObsRecorder",
    "Span",
    "chrome_trace_events",
    "compute_metrics",
    "critical_path",
    "export_chrome_trace",
    "render_chrome_json",
    "validate_chrome_trace",
]
