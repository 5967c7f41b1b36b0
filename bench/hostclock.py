"""Interval timing scaled to the host's uncontended speed."""

import signal
import time


class HostClock:
    """Times intervals and scales them to the host's uncontended speed.

    The machine this runs on is shared: other jobs slow this process by a
    factor that swings between about 1.0 and 2.3 within seconds to
    minutes, so raw medians of two sets of runs of the same code can
    differ by more than any useful bound.  A fixed pure-Python kernel
    (1500-bit products and a small-integer loop, about 0.15 ms) is
    therefore timed every 20 ms of wall time while an interval runs, from
    a SIGALRM handler in this thread, and in a short burst at each end.
    The kernel's fastest sample in the run is the uncontended floor; an
    interval's contention factor is the mean of its samples over that
    floor.  Reported times are raw times, less the time the handler took,
    divided by their factor: seconds at the uncontended speed of this
    host.  A change to hamca leaves the kernel alone, so it moves these
    times exactly as it moves raw ones; raw times are printed too.
    """

    PERIOD_S = 0.02
    BURST = 20
    _A = 3 ** 950
    _B = 7 ** 540

    def __init__(self):
        self.floor = float("inf")
        self.intervals = []          # (raw seconds, mean kernel sample)
        self._sum = 0.0
        self._count = 0
        self._stolen = 0.0

    def _sample(self):
        t0 = time.perf_counter()
        acc = 0
        for _ in range(30):
            acc += self._A * self._B
        for i in range(700):
            acc ^= i * i
        t1 = time.perf_counter()
        dt = t1 - t0
        self.floor = min(self.floor, dt)
        self._sum += dt
        self._count += 1
        return t1

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._stolen += self._sample() - t0

    def time_each(self, fns):
        """Time each fn() in turn; returns (interval index, result) per fn."""
        out = []
        for fn in fns:
            self._sum, self._count, self._stolen = 0.0, 0, 0.0
            for _ in range(self.BURST):
                self._sample()
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
            t0 = time.perf_counter()
            try:
                result = fn()
            finally:
                raw = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            stolen = self._stolen
            for _ in range(self.BURST):
                self._sample()
            out.append((self.add(raw - stolen, self._sum / self._count), result))
        return out

    def add(self, raw, level):
        """Record an interval timed elsewhere with its mean kernel sample."""
        self.intervals.append((raw, level))
        return len(self.intervals) - 1

    def raw(self, i):
        return self.intervals[i][0]

    def factor(self, i):
        return self.intervals[i][1] / self.floor

    def seconds(self, i):
        return self.intervals[i][0] / self.factor(i)
