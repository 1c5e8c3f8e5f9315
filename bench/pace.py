"""Machine-speed reference: times scaled to a fixed speed of the processor.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more within seconds, and a CPU-bound Python program slows with it
(its process time drifts just as its wall time does).  So each timed interval
is paired with samples of a fixed reference loop, written here and sharing no
code with nilcrit: a closure of the symmetric group S6 under two generators,
in the permutation arithmetic nilcrit itself uses (tuples of images, hashed
into a set).  A reference sample is taken right before and right after the
interval, and every ``INTERVAL_S`` of process time inside it, from a
``SIGPROF`` handler.

The interval's own time excludes the samples.  Each stretch of it between two
samples is scaled by ``REFERENCE_S`` over the mean of those two samples, so a
scaled time reads in seconds on a processor that runs the reference loop in
``REFERENCE_S`` seconds (about this benchmark's 2-core baseline machine when
idle).  A change to nilcrit moves the scaled times as it moves the raw ones;
a change in the host's speed moves both the program and the samples next to
it, and cancels.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# Seconds the reference loop takes at the nominal speed.
REFERENCE_S = 0.004
# Process seconds between samples inside an interval.
INTERVAL_S = 0.1

_DEGREE = 6


class _Perm:
    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        seen = [False] * len(imgs)
        for x in imgs:
            if seen[x]:
                raise ValueError(f"{imgs!r} is not a permutation")
            seen[x] = True
        self.images = imgs

    def __mul__(self, other):
        b = other.images
        return _Perm(b[x] for x in self.images)

    def __eq__(self, other):
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)


_GENERATORS = (_Perm((1, 0) + tuple(range(2, _DEGREE))),
               _Perm(tuple(range(1, _DEGREE)) + (0,)))


def reference_loop() -> int:
    """Enumerate S6 from a transposition and a 6-cycle; returns its order, 720."""
    identity = _Perm(range(_DEGREE))
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for g in frontier:
            for s in _GENERATORS:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    found.append(h)
        frontier = found
    return len(seen)


def sample() -> tuple[float, float]:
    """One timed reference loop, with the collector off: (start, seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return start, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Times one interval at a time: ``start()``, the work, then ``stop()``."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None
        self._start = 0.0

    def start(self) -> None:
        self._samples = [sample()]
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the interval: its own seconds, raw and scaled to the nominal speed."""
        end = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        inside = [s for s in self._samples[1:] if s[0] < end]
        self._samples = [self._samples[0], *inside, sample()]
        return scaled_interval(self._start, end, self._samples)

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._samples.append(sample())
        finally:
            self._busy = False


def scaled_interval(start: float, end: float,
                    samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Raw and scaled seconds of [start, end] less the samples taken inside it.

    ``samples`` holds (start, seconds) pairs in time order: one before the
    interval, those inside it, one after it.
    """
    raw = scaled = 0.0
    edge = start
    for before, after in zip(samples, samples[1:]):
        stretch = max(0.0, min(after[0], end) - edge)
        raw += stretch
        scaled += stretch * REFERENCE_S * 2 / (before[1] + after[1])
        edge = max(edge, after[0] + after[1])
    return raw, scaled

