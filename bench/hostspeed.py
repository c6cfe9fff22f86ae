"""Host-speed probe: rescales wall times to a host of fixed speed.

On a shared host the speed of the CPU this process runs on drifts by 20% to
50% over seconds to minutes, with no steal time reported, so the same work
takes a different wall time from one minute to the next. A probe is a fixed
piece of work in the style of the package's hot loops: small numpy calls and
dict updates from Python. While a timed region runs, a SIGALRM handler runs
one probe every INTERVAL_S seconds on the same thread and records how long it
took. The region's wall time times NOMINAL_S over the mean probe time is the
time the region would take on a host where a probe takes NOMINAL_S. Signals
are handled between bytecodes, so probes land in the Python-level parts of
the region; a probe costs about 1 ms, some 2% of the region.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 1e-3  # a probe's time on the reference host
INTERVAL_S = 0.05
WINDOW = 40  # back-to-back probes when measuring between regions

_EDGES = np.linspace(0.0, 1.0, 257)
_POINTS = np.random.default_rng(1).random(50)


def probe() -> float:
    """Run one probe; its wall time."""
    t = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(100):
        c = np.clip(np.searchsorted(_EDGES, _POINTS, side="right") - 1, 0, 255)
        d[i & 63] = int(c[i & 31]) + i
    s = 0
    for i in range(2000):
        s += i * i
    return time.perf_counter() - t


class HostSpeed:
    """Probe times collected while a `with` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self) -> HostSpeed:
        """Probe back to back, outside any timed region."""
        self.samples.extend(probe() for _ in range(WINDOW))
        return self

    def scale(self) -> float:
        """Factor taking a wall time measured here to the reference host."""
        return NOMINAL_S / (sum(self.samples) / len(self.samples))


def timed(call):
    """call()'s result, its wall time, and the factor to the reference host."""
    with HostSpeed() as speed:
        t = time.perf_counter()
        out = call()
        wall = time.perf_counter() - t
    if not speed.samples:
        speed.window()
    return out, wall, speed.scale()
