"""Per-rank CPU model.

Every simulated MPI rank owns one :class:`Cpu`: a serial, non-preemptive
resource on which all of that rank's software activity runs — posting sends
and recvs, protocol handling, completion callbacks, reduction arithmetic, and
injected noise. Serializing these on one resource is what makes noise
*matter*: a rank whose CPU is busy cannot post the next segment, match an
incoming message, or run an ADAPT callback, exactly like a real MPI process
descheduled by an OS daemon.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Engine


class Cpu:
    """Serial FIFO work executor with occupancy accounting.

    Work submitted with :meth:`execute` starts when all previously submitted
    work (including noise intervals) has finished, runs for its stated
    duration, then fires its completion callback.
    """

    __slots__ = (
        "engine",
        "_busy_until",
        "busy_time",
        "noise_time",
        "halted",
        "obs",
        "obs_rank",
        "_shadow_busy_until",
        "noise_absorbed_seconds",
    )

    def __init__(self, engine: Engine):
        self.engine = engine
        self._busy_until = 0.0
        self.busy_time = 0.0  # total seconds of real work executed
        self.noise_time = 0.0  # total seconds of injected noise
        self.halted = False  # fail-stopped: queued and future work is dropped
        # Observability hook (repro.obs): an ObsRecorder, or None (the
        # default, costing one pointer test per execute/inject_noise). When
        # attached, the CPU also keeps a *shadow* clock advanced by work but
        # not by noise: the real-vs-shadow lag measures how much injected
        # noise actually displaced work (the noise-absorption metric).
        self.obs = None
        self.obs_rank = -1
        self._shadow_busy_until = 0.0
        self.noise_absorbed_seconds = 0.0

    @property
    def shadow_busy_until(self) -> float:
        """Where the busy clock would be had no noise ever been injected."""
        return self._shadow_busy_until

    @property
    def busy_until(self) -> float:
        """Absolute time at which all currently queued work completes."""
        return self._busy_until

    def available_at(self) -> float:
        """Earliest time new work could start."""
        return max(self.engine.now, self._busy_until)

    def execute(
        self,
        duration: float,
        fn: Optional[Callable[..., Any]] = None,
        *args: Any,
    ) -> float:
        """Queue ``duration`` seconds of work; call ``fn(*args)`` when done.

        Returns the absolute completion time. The completion is an engine
        entry this CPU owns, ``[fn, args, cpu]``, posted where ``post_at``
        would put it; :meth:`halt` withdraws it if it has not fired. (An
        inline fast path for zero-duration work on an idle CPU was tried
        and rejected: it reorders same-instant callbacks, which the
        schedule analysis reads as synchronization edges.)
        """
        if duration < 0:
            raise ValueError(f"negative work duration {duration}")
        if self.halted:
            # A fail-stopped rank executes nothing; callers see time stand
            # still and completion callbacks simply never fire.
            return self._busy_until
        busy = self._busy_until
        now = self.engine.now
        start = busy if busy > now else now
        end = start + duration
        if self.obs is not None:
            # Shadow clock: same update as the real one, minus noise. Lag
            # between the clocks that closes across an idle gap is noise the
            # schedule absorbed (the CPU would have idled anyway).
            lag_before = max(0.0, self._busy_until - self._shadow_busy_until)
            shadow_start = max(self.engine.now, self._shadow_busy_until)
            self._shadow_busy_until = shadow_start + duration
            lag_after = start - shadow_start
            if lag_before > lag_after:
                self.noise_absorbed_seconds += lag_before - lag_after
            if duration > 0.0:
                self.obs.add("cpu", "work", ("rank", self.obs_rank), start, end)
        self._busy_until = end
        self.busy_time += duration
        if fn is not None:
            self.engine.post_entry(end, [fn, args, self])
        return end

    def halt(self) -> None:
        """Fail-stop this CPU: drop queued work and refuse new work.

        Models a crashed process: the engine withdraws every completion
        this CPU queued that has not fired yet, later ones in the epoch
        being drained included (:meth:`Engine.discard_owned`); they count
        as cancelled, not processed.
        """
        self.halted = True
        self.engine.discard_owned(self)

    def when_available(self, fn: Callable[..., Any], *args: Any) -> float:
        """Run ``fn`` as soon as the CPU is free (zero-duration work item)."""
        return self.execute(0.0, fn, *args)

    def inject_noise(self, duration: float) -> float:
        """Inject a busy interval (noise) starting as soon as possible.

        Models an OS daemon / interference event stealing the core: all work
        submitted afterwards is pushed back by ``duration``.
        """
        if duration < 0:
            raise ValueError(f"negative noise duration {duration}")
        start = self.available_at()
        self._busy_until = start + duration
        self.noise_time += duration
        if self.obs is not None and duration > 0.0:
            # The shadow clock does not advance: the real-vs-shadow lag this
            # opens is the noise that must be absorbed or paid for.
            self.obs.add("noise", "noise", ("rank", self.obs_rank), start, self._busy_until)
        return self._busy_until
