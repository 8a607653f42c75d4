"""Machine speed, sampled all through an untraced pass.

On a shared machine the CPU's speed drifts by tens of percent within
minutes and dips for a second or two at a time (see noise_floor.json),
more than the differences the benchmark must resolve.  A timer signal
interrupts the pass every ``SAMPLE_EVERY_S`` to time a small fixed chunk
of pure-Python work, hashing tuples and looking them up as epiflow does.
Each op's time, less the time its samples took, is rescaled to the reference
speed at which one chunk takes ``REFERENCE_CHUNK_S``, using the mean chunk
time sampled while the op ran (widened by one interval on each side, so
that short ops get samples too).
"""

from __future__ import annotations

import bisect
import signal
import time

CHUNK_ITEMS = 4_000
REFERENCE_CHUNK_S = 0.001
SAMPLE_EVERY_S = 0.1


def chunk(table: dict) -> float:
    """Seconds taken by one fixed chunk of work over ``table``.

    It allocates no containers, so it neither triggers a collection nor
    leaves freed blocks among the ops' objects to raise their peak memory.
    """
    start = time.perf_counter()
    total = 0
    for key in table:
        total += table[key] + (hash(key) & 3)
    return time.perf_counter() - start


def chunk_table() -> dict:
    return {(i % 97, i): i & 7 for i in range(CHUNK_ITEMS)}


def rescale_setup(setup_s: float, samples: int = 20) -> float:
    """Set-up seconds at the reference speed, sampled right after set-up."""
    table = chunk_table()
    mean_chunk_s = sum(chunk(table) for _ in range(samples)) / samples
    return setup_s * REFERENCE_CHUNK_S / mean_chunk_s


class Calibration:
    """Chunk samples taken on a timer, and op times rescaled by them.

    An inactive calibration takes no samples and leaves op times alone.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.table = chunk_table() if active else {}
        self.at: list[float] = []  # when each sample was taken
        self.chunk_s: list[float] = []
        self.spent_s = 0.0  # time the samples took, to leave out of op times
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Calibration":
        if not self.active:
            return self
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # the handler can be re-entered between bytecodes
            return
        self._busy = True
        start = time.perf_counter()
        self.chunk_s.append(chunk(self.table))
        self.at.append(start)
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def rescale(self, spans: list[tuple[float, float, float]]) -> list[float]:
        """Each op's (start, end, net seconds) as seconds at the reference speed."""
        out = []
        for start, end, net in spans:
            lo = bisect.bisect_left(self.at, start - SAMPLE_EVERY_S)
            hi = bisect.bisect_right(self.at, end + SAMPLE_EVERY_S)
            near = self.chunk_s[lo:hi] or self.chunk_s
            out.append(net * REFERENCE_CHUNK_S * len(near) / sum(near))
        return out
