"""A fixed reference loop, sampled during a pass, that measures host speed.

On a shared virtual machine a vCPU switches, every few seconds, between
running at full speed and running a third slower, as neighbours come and
go; CPU time follows, so a pass's CPU time says as much about the host as
about bookcross.  ``Sampler`` therefore runs one short reference sample in
the pass's own process every ``INTERVAL_S`` of wall time (from a SIGALRM
handler, between bytecodes), so the samples see the host exactly as the
pass does.  ``run.py`` reports pass times scaled to a host on which one
sample takes ``REFERENCE_S`` of CPU time: ``t * REFERENCE_S / mean sample``.

The sample does the kind of work bookcross does (small dicts and sets of
ints, a greedy graph colouring, small numpy array operations) but shares no
code with it, so a change to bookcross cannot change the reference.  Its CPU
time is taken out of the pass's.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# CPU seconds of one sample, run back to back on a quiet host, on the machine
# where the benchmark was defined (2-vCPU Intel Xeon VM, Python 3.11, numpy
# 2.4), rounded.  Taken during a pass, with the pass's data in the caches, a
# sample there takes 2.2 to 2.9 ms.
REFERENCE_S = 0.002
INTERVAL_S = 0.05


def sample(rep: int) -> int:
    x = 12345 + rep
    adj: dict[int, set[int]] = {v: set() for v in range(120)}
    for _ in range(1500):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        a, b = x % 120, (x >> 8) % 120
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    colour: dict[int, int] = {}
    for v in sorted(adj, key=lambda v: -len(adj[v])):
        used = {colour[u] for u in adj[v] if u in colour}
        colour[v] = next(c for c in range(121) if c not in used)
    total = max(colour.values())
    p = np.arange(20, dtype=np.int64)
    for _ in range(40):
        q, w = np.repeat(p, 20), np.tile(p, 20)
        total += int(np.count_nonzero(np.minimum(q, w) < np.maximum(q, w) - 3))
    return total


class Sampler:
    """Times one reference sample every ``INTERVAL_S`` while it is running.

    The timer is a wall-clock one (ITIMER_REAL): a CPU-time timer would make
    the kernel account process CPU time in whole scheduler ticks.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        for rep in range(5):  # first calls into numpy allocate
            sample(rep)

    def _take(self, signum, frame) -> None:
        start = time.process_time()
        sample(len(self.samples))
        self.samples.append(time.process_time() - start)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # drops a signal still pending
        if not self.samples:  # a pass shorter than INTERVAL_S
            self._take(None, None)
