"""Host-speed calibration: a fixed piece of pure-Python work, timed between calls.

On a shared host the same single-threaded Python code runs up to 1.8x
slower for stretches of seconds to minutes (measured on a 2-CPU VM: one
loop took 0.21 to 0.39 s, with equal CPU and wall time, so the cause is the
host's core speed, not preemption). The benchmark therefore times this
kernel next to the program and reports each time scaled by
``REFERENCE_S / kernel time``: seconds at the host speed at which the
kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.015


class Kernel:
    """Random reads from a 40k-entry dict of tuples, built once.

    gmk's hot paths are dict and object lookups over a few MB; a
    cache-resident loop tracked the host's slowdowns on them less closely.
    Building the table outside the timed part keeps the kernel's time
    independent of the heap that gmk leaves behind.
    """

    size = 40_000
    reads = 60_000

    def __init__(self) -> None:
        self.keys = [(i * 2654435761) % 1_000_003 for i in range(self.size)]
        self.table = {k: (k & 7, k % 13) for k in self.keys}

    def run(self) -> int:
        keys, table, n = self.keys, self.table, self.size
        acc = 0
        j = 1
        for _ in range(self.reads):
            j = (j * 1103515245 + 12345) % n
            low, mod = table[keys[j]]
            acc += low * mod
        return acc

    def seconds(self) -> float:
        started = perf_counter()
        self.run()
        return perf_counter() - started


def factor(kernel_s: list[float]) -> float:
    """Converts seconds measured next to these kernel samples to reference seconds."""
    ordered = sorted(kernel_s)
    return REFERENCE_S / ordered[len(ordered) // 2]
