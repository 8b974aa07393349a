"""Machine-speed reference for steady timings on a shared machine.

On a machine shared with other tenants the same code can run up to 1.5x
slower for minutes at a time, and every kernel slows by about the same
factor.  A fixed reference kernel, timed before and after each measured
interval, tracks that factor.  Timings reported "at reference speed" are
the wall-clock time scaled by ``NOMINAL_S / reference time``, i.e. what the
measured code would have taken had the reference kernel run in
``NOMINAL_S``.  The kernel mixes the work hgx does (a dense matmul, a
row gather, an ``np.add.at`` scatter, an elementwise exp and Python-level
set/sort over small lists) and uses no hgx code, so a change to hgx
cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.020


class ReferenceKernel:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self._a = rng.random((2708, 256))
        self._b = rng.random((256, 64)) * 1e-2
        self._idx = rng.integers(0, 2708, size=8000)
        self._lists = rng.integers(0, 1000, size=(2000, 6)).tolist()
        self.seconds()  # first call pays for page faults

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = perf_counter()
        x = self._a @ self._b
        out = np.zeros_like(x)
        np.add.at(out, self._idx, np.exp(x[self._idx]))
        for row in self._lists:
            sorted(set(int(v) for v in row))
        return perf_counter() - t0


def at_reference_speed(seconds, reference_seconds):
    """Scale each measured time by the mean of the two reference times
    that bracket it: ``reference_seconds`` has one more entry than
    ``seconds``, timed before the first measurement and after each."""
    if len(reference_seconds) != len(seconds) + 1:
        raise ValueError("need one reference time before and one after each measurement")
    return [
        s * NOMINAL_S * 2.0 / (before + after)
        for s, before, after in zip(seconds, reference_seconds, reference_seconds[1:])
    ]
