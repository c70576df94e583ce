"""Host-speed sampling, so timings on a shared host can be compared.

On a few shared cores the host's speed changes from one second to the next
(on the 2-vCPU box this benchmark was written on, a fixed loop flips between
about 1x and 1.6x its fastest time several times a second, and the share of
slow time drifts over minutes).  A timing taken over a whole run mixes the
program's speed with that drift.  :class:`HostClock` samples the host while
the program runs: a ``SIGALRM`` every ``period`` seconds runs a fixed
pure-Python probe loop and records how long it took.  Dividing the
program's own time by the probes' mean slowdown gives *reference seconds*:
the time the same work would take on a host where the probe runs in
``REFERENCE_PROBE_S``.  The probe is the benchmark's code, never the
program's, so a change to the program moves reference seconds and a change
of host load does not.
"""

from __future__ import annotations

import signal
import time

__all__ = ["HostClock", "REFERENCE_PROBE_S"]

#: Seconds one probe takes on the reference host: roughly its fastest time
#: on an uncontended 2-vCPU x86-64 box under CPython 3.11.
REFERENCE_PROBE_S = 0.0005
PROBE_LOOPS = 10_000


def probe() -> float:
    """Seconds one fixed pure-Python loop takes on the host right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter() - t0


class HostClock:
    """Time a region and sample the host's speed while it runs.

    Use as a context manager around the timed region; it must run in the
    main thread, and it restores the previous ``SIGALRM`` handler and timer
    on exit.  The probes take about 1-2% of the region's time; that time is
    taken out again before scaling.
    """

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.samples: list[float] = []
        self.wall_s = 0.0
        self._t0 = 0.0
        self._old_handler = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> HostClock:
        self.samples = []
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        # A region shorter than one period still gets one probe.
        self.samples.append(probe())
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old_handler)

    @property
    def slowdown(self) -> float:
        """Mean probe time over the reference probe time (1.0 = reference host)."""
        return sum(self.samples) / len(self.samples) / REFERENCE_PROBE_S

    @property
    def program_s(self) -> float:
        """Host seconds of the region, less the probes run inside it."""
        return self.wall_s - sum(self.samples[1:])

    @property
    def reference_s(self) -> float:
        """The region's program time in reference seconds."""
        return self.program_s / self.slowdown
