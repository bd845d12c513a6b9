"""The speed of the shared host, sampled while a round runs.

The benchmark's host is a few cores of a machine shared with other
tenants, and the speed of identical work moves by 30-40 % between phases
that last from seconds to minutes (the same GHZ round took 5.1 s and 6.8 s
a minute apart).  Rounds are therefore timed together with a fixed
reference kernel: a SIGALRM timer runs the kernel every ``interval``
seconds in the benchmark's own thread, between the program's bytecodes,
and once right before and after the round.  The kernel's own time is
taken out of the round's wall time, and the round's time at the reference
speed is

    wall_s * nominal / (mean kernel time during the round),

with the slowest tenth of the samples dropped (a sample preempted by the
scheduler says nothing about the phase).  The kernel has to slow down with
the host as the workload does.  Fitted over repeated identical rounds (log
round time against log kernel time), each workload names the better of
the kernels tried:

- ``alloc``: map 1 MB of fresh memory, touch each page, unmap.  A GHZ or
  cluster round allocates fresh arrays in every engine call and spends
  about a sixth of its time faulting pages in; its round time moves with
  this kernel's to the power 0.99-1.11 (correlation 0.75-0.98), better
  than with a pure Python loop.
- ``stream``: a counter hash over 131072 uint64 in fixed buffers, the
  chunk size and kind of work of ``rate_benchmark``; a rate round moves
  with it to the power 0.89 (correlation 0.87), better than with a
  streaming multiply over 8 MB.

The kernels use no program code, so a change to the program does not move
them.
"""

from __future__ import annotations

import mmap
import signal
import time

import numpy as np


def _alloc():
    def kernel() -> None:
        m = mmap.mmap(-1, 1 << 20)
        for off in range(0, 1 << 20, mmap.PAGESIZE):
            m[off] = 1
        m.close()
    return kernel


def _stream():
    runs = np.arange(1 << 17, dtype=np.uint64)
    h = np.empty_like(runs)
    hit = np.empty(runs.shape, dtype=bool)

    def kernel() -> int:
        n = 0
        for _ in range(3):
            np.multiply(runs, np.uint64(0x9E3779B97F4A7C15), out=h)
            np.bitwise_xor(h, h >> np.uint64(31), out=h)
            np.less(h, np.uint64(1 << 62), out=hit)
            n += int(np.count_nonzero(hit))
        return n
    return kernel


# kernel: (maker, seconds between samples, nominal kernel time in s: its
# typical time in an idle process on the 2-core host it was tuned on)
KERNELS = {
    "alloc": (_alloc, 0.2, 7.5e-4),
    "stream": (_stream, 0.2, 9.5e-4),
}


class HostSpeed:
    """``with host.timing() as t: ...`` times the block and samples the
    kernel during it; afterwards ``t.wall_s`` is the block's wall time
    without the kernel's, ``t.ref_s`` the trimmed mean kernel time and
    ``t.norm_s`` the wall time at the nominal kernel time."""

    def __init__(self, kernel: str):
        make, self.interval, self.nominal = KERNELS[kernel]
        self.kernel = make()

    def timing(self) -> "_Timing":
        return _Timing(self)


class _Timing:
    def __init__(self, host: HostSpeed):
        self.host = host
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.host.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._prev = signal.signal(signal.SIGALRM, self._sample)
        self._spent0 = self.spent
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.host.interval,
                         self.host.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = time.perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self._prev)
        self.wall_s = elapsed - (self.spent - self._spent0)
        self._sample()
        s = sorted(self.samples)
        s = s[:len(s) - len(s) // 10]
        self.ref_s = sum(s) / len(s)
        self.norm_s = self.wall_s * self.host.nominal / self.ref_s
        return False
