"""The pure-Python seeded generator against numpy (DESIGN.md §4).

:class:`repro.sim.rng.Generator` replaces ``numpy.random.default_rng`` in
the noise and fault injectors, so every seeded timeline depends on it
matching numpy draw for draw. The property drives both with the same seed
and the same interleaving of ``random``, ``uniform`` and ``integers``. The
literal table pins the first draws on their own: if a numpy release moves
its stream, the numpy row of the table fails, not a golden downstream.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.harness.runner import RunResult
from repro.machine import small_test_machine
from repro.mpi import MpiWorld
from repro.noise import NoiseInjector
from repro.sim.rng import Generator

#: Range sizes at the edges of numpy's bounded-integer paths.
_EDGE_N = [1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 5, 2**63]

_SEEDS = st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**200))
_DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(0.0, 1e6)),
        st.tuples(
            st.just("integers"),
            st.one_of(st.sampled_from(_EDGE_N), st.integers(1, 2**63)),
        ),
    ),
    max_size=40,
)


def _draw(gen, op):
    if op[0] == "random":
        return float(gen.random())
    if op[0] == "uniform":
        return float(gen.uniform(op[1], op[1] + op[2]))
    return int(gen.integers(op[1]))


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, draws=_DRAWS)
@example(seed=0, draws=[("random",), ("uniform", 0.0, 0.01), ("integers", 1000)])
@example(seed=7, draws=[("integers", n) for n in (1, 2**32 - 1, 2**32, 2**32 + 1)] * 2)
# A 32-bit draw buffers the upper half of its 64-bit output; a 64-bit draw
# in between must leave that half for the next 32-bit draw.
@example(seed=3, draws=[("integers", 1000), ("integers", 2**40), ("random",),
                        ("integers", 1000), ("integers", 1000)])
@example(seed=2**64, draws=[("integers", 1), ("random",)])
# For n = 2**31 + 1 about half of all draws fall below the rejection
# threshold; seed 0's first one does, so the redraw loop runs.
@example(seed=0, draws=[("integers", 2**31 + 1), ("integers", 2**31 + 1), ("random",)])
def test_generator_matches_numpy(seed, draws):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    assert [_draw(ours, op) for op in draws] == [_draw(theirs, op) for op in draws]


#: seed -> first ``random()``, ``integers(1000)``, ``integers(2**40)``, each
#: from a fresh generator (numpy 2.4).
_FIRST_DRAWS = {
    0: (0.6369616873214543, 850, 700346781657),
    1: (0.5118216247002567, 473, 562753827705),
    2**31 - 1: (0.27085409914511427, 815, 297807231440),
}


@pytest.mark.parametrize("make", [Generator, np.random.default_rng],
                         ids=["replica", "numpy"])
@pytest.mark.parametrize("seed", sorted(_FIRST_DRAWS))
def test_first_draws_match_the_table(make, seed):
    first = (float(make(seed).random()), int(make(seed).integers(1000)),
             int(make(seed).integers(2**40)))
    assert first == _FIRST_DRAWS[seed]


def test_integers_one_consumes_nothing():
    gen = Generator(5)
    assert gen.integers(1) == 0
    assert gen.random() == Generator(5).random()


@pytest.mark.parametrize("seed", [-1, -3, 1.5, "7", True, None])
def test_bad_seeds_are_rejected_at_the_source(seed):
    world = MpiWorld(small_test_machine(), 4)
    for build in (Generator, lambda s: FaultPlan(seed=s),
                  lambda s: NoiseInjector(world, 5.0, seed=s)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            build(seed)


@pytest.mark.parametrize("frequency_hz", [0.0, -10.0, math.nan])
def test_noise_frequency_must_be_positive(frequency_hz):
    world = MpiWorld(small_test_machine(), 4)
    with pytest.raises(ValueError, match="noise frequency must be > 0 Hz"):
        NoiseInjector(world, 5.0, frequency_hz=frequency_hz)


def test_numpy_integer_seeds_are_accepted():
    assert FaultPlan(seed=np.int64(4)).seed == 4
    assert Generator(np.uint32(4)).random() == Generator(4).random()


def _run(times):
    return RunResult("L", "bcast", "m", 4, 1024, 0.0, times=times)


def test_mean_time_matches_numpy_mean():
    rnd = random.Random(0)
    for n in [*range(1, 301), 8193]:
        times = [rnd.random() * 10.0 ** rnd.randrange(-7, 3) for _ in range(n)]
        assert _run(times).mean_time == float(np.mean(times)), n


@pytest.mark.parametrize("times", [
    [1e-3, math.inf, 2e-3],
    [math.inf] * 9,
    [1e-3] * 200 + [math.inf],
    [math.inf, -math.inf, 1.0],
])
def test_mean_time_matches_numpy_mean_with_inf(times):
    with np.errstate(invalid="ignore"):
        expected = float(np.mean(times))
    ours = _run(times).mean_time
    assert ours == expected or (math.isnan(ours) and math.isnan(expected))


def test_mean_time_of_no_times_is_nan():
    assert math.isnan(_run([]).mean_time)
