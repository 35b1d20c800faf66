"""Times corrected for the host's speed by a fixed reference loop.

On a shared 2-core host (Intel Xeon, Python 3.11, numpy 2.4), the same
code ran up to 1.7x faster or slower from one second to the next.  A fixed
reference computation, timed right before each measured operation, speeds
up and slows down with the host; scaling each time by the reference cut the
spread of 2-second medians of a training step from 13% to 4% and of a
prediction from 19% to 3%.

Corrected times are in milliseconds (or seconds) at the reference's nominal
duration, which is its typical duration on that host, so they read close to
wall time there.  The reference does not call mafn, so no change to the
program moves it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.6e-3      # reference duration the corrected times are scaled to
SPAN = 2                # probes on each side of a measurement its speed is taken from


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._h = rng.random((64, 24))
        self._w = rng.random((24, 24)) / 24.0
        self.samples = []

    def probe(self) -> int:
        """Time one run of the reference: small matmuls and sigmoids, the op
        mix of a batch-64 training step, driven from Python.  Returns the
        probe's index, which a measurement taken next is corrected by."""
        start = time.perf_counter()
        h = self._h
        for _ in range(40):
            h = 0.5 * h + 0.5 / (1.0 + np.exp(-(h @ self._w)))
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def corrected(self, seconds: float, index: int) -> float:
        """``seconds`` measured after probe ``index``, in reference time.

        The host's speed at that moment is the median of the probes around
        it, so call this once the run's probes are all taken.
        """
        around = self.samples[max(0, index - SPAN): index + SPAN + 1]
        return seconds * NOMINAL_S / statistics.median(around)

    def host_speed(self) -> float:
        """Median reference time of the run relative to nominal (>1: slower)."""
        return statistics.median(self.samples) / NOMINAL_S if self.samples else 1.0


class Pieces:
    """A stretch of wall time cut into pieces, each after a probe, so each
    piece is corrected by the host's speed at its own time."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.pieces = []                 # (wall seconds, probe index)
        self._open = None

    def cut(self):
        """End the current piece (if any), probe, and start the next one."""
        now = time.perf_counter()
        if self._open is not None:
            self.pieces.append((now - self._open[0], self._open[1]))
        index = self.ref.probe()
        self._open = (time.perf_counter(), index)

    def close(self):
        self.cut()
        self._open = None

    def seconds(self) -> float:
        """Corrected length; call once the run's probes are all taken."""
        return sum(self.ref.corrected(*piece) for piece in self.pieces)
