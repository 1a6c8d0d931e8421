"""Host-speed reference kernel, owned by the benchmark and fixed forever.

The benchmark runs on shared hosts whose single-core speed drifts by tens
of percent within seconds.  Every timed operation (or short window of
requests) is therefore bracketed by this kernel, and times are reported at
*reference speed*: ``raw * R0_SECONDS / r``, where ``r`` is the measured
duration of the bracketing kernel runs.

The kernel mixes the two kinds of work the program does: a pure-Python part
(integer bitmask, dict and set traffic, like Stellar's set-enumeration and
hitting-set phases) and a memory-bound numpy part (dominance rows of sampled
points against a 20,000 x 4 float matrix, like the skyline and extension
phases).  It must only run while the program under test is idle.

Do not change this file: every normalised figure ever recorded depends on
the work it does and on ``R0_SECONDS``.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["R0_SECONDS", "ReferenceKernel"]

#: Duration of one kernel run on the host the constant was fixed on.
R0_SECONDS = 0.050

_ROWS = 20_000
_DIMS = 4
_NUMPY_PROBES = 24
_PYTHON_ITERATIONS = 24_000


class ReferenceKernel:
    """The fixed reference workload; ``run()`` returns its duration."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20070415)
        self._matrix = np.floor(rng.random((_ROWS, _DIMS)) * 1e4) / 1e4
        self._probes = rng.integers(0, _ROWS, size=_NUMPY_PROBES)

    def _python_part(self) -> int:
        seen: set[int] = set()
        buckets: dict[int, int] = {}
        acc = 0
        for i in range(_PYTHON_ITERATIONS):
            mask = (i * 2654435761) & 0xFFFF
            low = mask & -mask
            if low and mask & 0xF not in seen:
                seen.add(mask & 0xFF)
            buckets[mask & 0x3FF] = buckets.get(mask & 0x3FF, 0) + low.bit_length()
            acc ^= (mask >> 3) | low
        return acc + len(seen) + len(buckets)

    def _numpy_part(self) -> int:
        matrix = self._matrix
        total = 0
        for i in self._probes:
            row = matrix[i]
            dominated = np.all(matrix <= row, axis=1) & np.any(matrix < row, axis=1)
            total += int(np.count_nonzero(dominated))
        return total

    def run(self) -> float:
        """Run the kernel once; returns its wall-clock duration in seconds."""
        t0 = time.perf_counter()
        self._python_part()
        self._numpy_part()
        return time.perf_counter() - t0
