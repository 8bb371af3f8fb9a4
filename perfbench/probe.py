"""Machine-speed probe for the benchmark's timings.

The benchmark's times are scaled to a fixed machine speed.  While timed
code runs, ``SpeedProbe`` fires on SIGALRM at a fixed interval and times
one run of ``kernel``, a fixed pure-Python mix of integer arithmetic,
``Fraction`` arithmetic and tuple-keyed dicts.  A time measured under the
probe, less the probe's own samples, times REFERENCE_SAMPLE_S over the
mean sample, is the time the code would take on a machine where the
kernel takes REFERENCE_SAMPLE_S.  A signal handler cannot run inside a
call into C, so samples land between bytecodes of the timed code.

The kernel, REFERENCE_SAMPLE_S and the intervals must stay as they are,
or scaled times stop being comparable with earlier ones.
"""

import signal
import time
from fractions import Fraction

#: the kernel's time at the machine speed that scaled times refer to
REFERENCE_SAMPLE_S = 0.3e-3
#: seconds between samples while ``import corelat`` runs, and while jobs run
IMPORT_INTERVAL_S = 0.005
JOB_INTERVAL_S = 0.02


def kernel() -> None:
    s = 0
    for i in range(800):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 12):
        f = f / 2 + Fraction(i % 97, i)
    d = {}
    for i in range(300):
        d[(i % 5, i % 7, i % 11)] = d.get((i % 7, i % 5, i % 11), 0) + i


class SpeedProbe:
    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured while the probe ran, less its samples, at the
        reference speed."""
        return (seconds - sum(self.samples)) * REFERENCE_SAMPLE_S * len(self.samples) / sum(self.samples)
