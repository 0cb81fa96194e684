"""Machine-speed gauge: a fixed reference kernel timed between workload iterations.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give swings by up to half over tens of seconds, for
every kind of code at once.  Timing a fixed kernel that does not touch
``lyapinit`` next to each iteration measures that swing, and dividing by
it takes most of the swing out.  The kernel runs on one thread, so it follows
single-threaded work best; on the two-worker workload it takes out less.

``REFERENCE_S`` is the kernel's nominal time, so a scaled time reads as
the seconds the iteration would take on a machine that runs the kernel in
``REFERENCE_S``.  It is a fixed constant of the benchmark, the same for the
parent and the change, never a measured value.
"""

import json
import statistics
import time

import numpy as np

# Nominal seconds of one kernel call (about its median on a 2-vCPU cloud VM
# when that VM runs at its usual speed).
REFERENCE_S = 0.030
# Kernel calls per reading; the reading is their median.
CALLS = 10


def _kernel(state: np.ndarray, batch: np.ndarray, floats: list) -> float:
    """A mix of the program's kinds of work: interpreted Python, small
    numpy calls, small-matrix LAPACK and float-to-text conversion."""
    acc = 0
    for i in range(80000):
        acc += i * i % 7
    x = state.copy()
    for _ in range(300):
        x = x @ batch[0, :2, :2]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    q, _ = np.linalg.qr(batch)
    text = json.dumps(floats)
    return acc + float(x[0, 0]) + float(q[0, 0, 0]) + len(text)


class Gauge:
    """Reads the current machine speed as seconds per reference kernel call."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._state = rng.standard_normal((512, 2))
        self._batch = rng.standard_normal((1536, 8, 8))
        self._floats = rng.standard_normal(8000).tolist()
        self.readings = []
        self.read()  # first calls into numpy and json are not timed
        self.readings.clear()

    def read(self) -> float:
        """Median seconds of CALLS kernel calls, also kept in ``readings``."""
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            _kernel(self._state, self._batch, self._floats)
            times.append(time.perf_counter() - start)
        reading = statistics.median(times)
        self.readings.append(reading)
        return reading


def scaled(raw: list, readings: list) -> list:
    """Each raw time in ``raw`` scaled to the reference speed.

    ``readings`` holds one gauge reading before the first time and one after
    each; a time is scaled by the mean of the readings on either side of it.
    """
    if len(readings) != len(raw) + 1:
        raise ValueError(f"{len(raw)} times need {len(raw) + 1} readings, got {len(readings)}")
    return [t * REFERENCE_S / ((before + after) / 2)
            for t, before, after in zip(raw, readings, readings[1:])]
