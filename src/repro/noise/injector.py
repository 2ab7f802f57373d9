"""Noise injector.

Reproduces the paper's methodology (after Beckman et al. [2]): each rank
independently receives noise events at a fixed frequency (10 Hz), each
stealing the CPU for a uniformly distributed duration — 0-10 ms for "5%"
noise, 0-20 ms for "10%" (duty cycle = frequency x mean duration). Low
frequency + long duration is the profile with the greatest collective-
performance impact (Ferreira et al. [10]), which is why the paper uses it.

Injection windows are armed explicitly (:meth:`NoiseInjector.arm`) rather
than self-rescheduling forever, so a drained event queue still means "the
simulation is finished". Each rank gets an independent random phase, and the
generator is seeded — identical seeds give identical noise timelines.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.mpi.runtime import MpiWorld
from repro.sim.rng import Generator


def noise_profile(percent: float, frequency_hz: float = 10.0) -> float:
    """Max noise duration for a duty-cycle percentage.

    ``percent=5`` -> uniform(0, 10 ms) at 10 Hz (mean 5 ms -> 5% duty).
    """
    if percent < 0:
        raise ValueError(f"negative noise percentage {percent}")
    if not frequency_hz > 0:
        raise ValueError(f"noise frequency must be > 0 Hz, got {frequency_hz}")
    mean = (percent / 100.0) / frequency_hz
    return 2.0 * mean


class NoiseInjector:
    """Per-rank uniform noise at fixed frequency."""

    def __init__(
        self,
        world: MpiWorld,
        percent: float,
        frequency_hz: float = 10.0,
        seed: int = 0,
        ranks: Optional[Sequence[int]] = None,
    ):
        self.world = world
        self.percent = percent
        self.frequency_hz = frequency_hz
        self.max_duration = noise_profile(percent, frequency_hz)
        self.ranks = list(ranks) if ranks is not None else list(range(world.nranks))
        for r in self.ranks:
            if not 0 <= r < world.nranks:
                raise ValueError(
                    f"noise rank {r} outside [0, {world.nranks})"
                )
        self.rng = Generator(seed)
        # Independent phase per rank, fixed for the injector's lifetime.
        self._phase = {
            r: self.rng.uniform(0.0, 1.0 / frequency_hz) for r in self.ranks
        }
        self._armed_until = {r: 0.0 for r in self.ranks}
        self.events_injected = 0

    def arm(self, horizon: float) -> int:
        """Schedule injections from now until ``now + horizon``.

        Idempotent over overlapping windows: each rank's already-armed region
        is never double-injected. Returns the number of events scheduled.
        """
        if self.percent == 0:
            return 0
        eng = self.world.engine
        period = 1.0 / self.frequency_hz
        end = eng.now + horizon
        scheduled = 0
        for r in self.ranks:
            start = max(eng.now, self._armed_until[r])
            # First tick at or after `start` respecting the rank's phase.
            k = max(0, math.ceil((start - self._phase[r]) / period))
            t = self._phase[r] + k * period
            while t < end:
                duration = self.rng.uniform(0.0, self.max_duration)
                eng.call_at(t, self.world.inject_noise, r, duration)
                self.events_injected += 1
                scheduled += 1
                t += period
            self._armed_until[r] = end
        return scheduled
