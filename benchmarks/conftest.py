"""Benchmark-suite fixtures.

``bench_perf.py`` reads its scale from ``REPRO_BENCH_SCALE`` (small |
medium | paper; default small). The registry loop
(``bench_experiments.py``) always runs at ``small``, the scale its goldens
are recorded at.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments.common import default_scale


@pytest.fixture(scope="session")
def scale() -> str:
    return default_scale()
