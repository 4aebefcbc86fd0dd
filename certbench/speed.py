"""Machine-speed probe for the timed verifications.

The benchmark runs on cores shared with other virtual machines, and the
speed of the same code swings by up to a third within tens of seconds.
While a round runs, a SIGALRM handler times a fixed kernel every 100 ms.
Each verification's wall time, less the handler time that fell inside it,
is multiplied by (reference kernel time / median kernel time within a
second of it) ** sensitivity, so reported times are those of the reference
machine speed; the raw times go to the run record beside them. Set-up time
is scaled the same way, by the kernel time measured right after set-up.

How much a phase of contention slows code depends on the code, so each
workload has a kernel shaped like its own hot path: Fraction normalization
and rounding of a large exact term for slow-ratio, and a Li2-type interval
series plus a log for registry and small-args. The kernels do not call
dilogid, so a change to dilogid moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

from mpmath.libmp import fone, from_int, from_rational, fzero, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_log, mpi_mul

INTERVAL_S = 0.1
# samples this close to a verification also describe its speed; the
# machine's speed changes over several seconds, single samples jitter
_WINDOW_S = 1.0

_C, _D = 47 * 49, 44 * 50
_N0 = 700
_CD0, _DP0, _CP0 = (_C * _D) ** _N0, _D ** (_N0 + 1), _C ** (_N0 + 1)


def _fraction_kernel() -> None:
    # one summand of a two-parameter series far out (about 15000-bit
    # integers): Fraction normalization, then rounding to an interval
    f = Fraction(6 * _CD0, (2 * _DP0 - 3 * _CP0) ** 2)
    from_rational(f.numerator, f.denominator, 300, round_floor)
    from_rational(f.numerator, f.denominator, 300, round_ceiling)


def _interval_kernel(prec: int, terms: int) -> None:
    # a Li2-type power series and a log in raw interval arithmetic
    x = (from_rational(1, 3, prec, round_floor), from_rational(1, 3, prec, round_ceiling))
    acc, xp = (fzero, fzero), (fone, fone)
    for k in range(1, terms):
        xp = mpi_mul(xp, x, prec)
        square = from_int(k * k)
        acc = mpi_add(acc, mpi_div(xp, (square, square), prec), prec)
    mpi_log(x, prec)


# workload -> (kernel, its median time on the reference machine while the
# workload runs, sensitivity). The sensitivity is how strongly the
# workload's time follows its kernel's: the least-squares slope of
# log(round time) on log(kernel time) over 20 rounds each (README.md). The
# interval kernels react more to contention than the verifications do.
KERNELS = {
    "slow-ratio": (_fraction_kernel, 0.0013, 1.0),
    "registry": (lambda: _interval_kernel(1000, 40), 0.001, 0.6),
    "small-args": (lambda: _interval_kernel(150, 80), 0.001, 0.6),
}


def speed_factor(workload: str, repeats: int = 15) -> float:
    """The factor that scales a time measured now to the reference speed."""
    kernel, reference, sensitivity = KERNELS[workload]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return (reference / statistics.median(times)) ** sensitivity


class SpeedProbe:
    """Context manager sampling the kernel time while it is active."""

    def __init__(self, workload: str, on_sample=None):
        self._kernel, self._reference, self._sensitivity = KERNELS[workload]
        # called with each kernel duration, so a tracer can leave it out
        self._on_sample = on_sample
        self.samples = []  # (start, duration) of each kernel run

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self._kernel()
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        if self._on_sample:
            self._on_sample(duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float) -> tuple:
        """(raw, scaled) seconds of a verification timed from start to end."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        raw = end - start - inside
        near = [d for t, d in self.samples if start - _WINDOW_S <= t < end + _WINDOW_S]
        if not near and self.samples:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        if not near:
            return raw, raw
        return raw, raw * (self._reference / statistics.median(near)) ** self._sensitivity
