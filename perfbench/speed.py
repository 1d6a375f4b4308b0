"""Host speed, measured with a fixed slice of pure-Python reference work.

On a shared machine the speed of Python code drifts by up to 1.5x over
seconds to minutes.  The benchmark divides every time it bounds by the time
of ``reference_work`` measured around and during it, so that host speed
cancels out.  Stdlib only, so a set-up probe can import it without cost.
"""

import signal
import time

SAMPLE_PERIOD_S = 0.05

# runs of the reference work timed just before and just after each job
END_SAMPLES = 3

# ``setup_s`` is reported in seconds of a nominal host on which one run of
# the reference work takes exactly this long.
NOMINAL_REFERENCE_S = 0.001


def reference_work() -> int:
    """A fixed slice of pure-Python work, unrelated to homlab: bit masks, dicts,
    tuples and calls, the operations homlab's searches are made of."""
    def walk(mask: int, depth: int) -> int:
        if depth == 0:
            return mask & 7
        low = mask & -mask
        return low.bit_length() + walk(mask ^ low | (mask << 1) & 0xFFFF, depth - 1)

    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(500):
        m = (i * 2654435761) & 0xFFFF or 1
        acc += walk(m, 6)
        table[m & 511] = (acc, i)
    return acc + len(table)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference_time() -> float:
    """Fastest of three runs of the reference work: interference only slows it."""
    return min(timed(reference_work) for _ in range(3))


def end_samples() -> list[float]:
    """END_SAMPLES single runs of the reference work, each timed on its own."""
    return [timed(reference_work) for _ in range(END_SAMPLES)]


class SpeedSampler:
    """Times one run of the reference work every SAMPLE_PERIOD_S of wall time.

    A SIGALRM handler does the timing, between two bytecodes of whatever job
    is running, so a long job gets samples of the machine's speed from its
    whole duration, not only from its two ends.  ``stolen`` is the time the
    handler took, which the job's timing leaves out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(timed(reference_work))
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
