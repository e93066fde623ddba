"""Machine speed, read from a fixed numpy loop, and times scaled to a
reference speed.

On a shared 2-vCPU Xeon host the speed drifted by tens of percent within
seconds: a quarter of the reference kernel, timed twelve times in six
seconds, went from 0.108 s to 0.162 s, and a set-up subprocess timed between
those slices moved with it.  A time taken on such a host is therefore given
at reference speed: divided by the kernel time the machine showed around it
and multiplied by ``KERNEL_S``, the full kernel's time at reference speed.
A long run is sampled inside: ``Probe`` times a slice of the kernel in the
child process at its start, every ``PROBE_EVERY_S`` seconds of work, and at
its end, and each stretch of work between two samples is scaled by their
mean.
"""

from __future__ import annotations

import time

import numpy as np

KERNEL_S = 0.5  # the full reference kernel at reference speed
PROBE_FRACTION = 0.05  # 100 SVDs of 30x30 and 5 of 100x100
PROBE_EVERY_S = 0.5


def reference_kernel_s(fraction: float = 1.0) -> float:
    """A fixed numpy loop, timed to show the machine's speed: 2,000 SVDs of
    30x30 plus 100 SVDs of 100x100, or ``fraction`` of each."""
    rng = np.random.default_rng(0)
    small, large = rng.standard_normal((30, 30)), rng.standard_normal((100, 100))
    start = time.perf_counter()
    for _ in range(round(2000 * fraction)):
        np.linalg.svd(small)
    for _ in range(round(100 * fraction)):
        np.linalg.svd(large)
    return time.perf_counter() - start


def kernel_equivalent_s(fraction: float) -> float:
    """The full kernel's time at the speed a ``fraction`` of it shows now."""
    return reference_kernel_s(fraction) / fraction


class Probe:
    """Samples machine speed inside a run; call ``tick`` often and ``sample``
    once more at the end.  ``samples`` holds (start, end, kernel-equivalent
    seconds) on the ``perf_counter`` clock, which all processes share."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel = kernel_equivalent_s(PROBE_FRACTION)
        self.samples.append((start, time.perf_counter(), kernel))

    def tick(self) -> None:
        if time.perf_counter() - self.samples[-1][1] >= PROBE_EVERY_S:
            self.sample()


def at_reference_speed(spawned: float, exited: float, before: float, after: float,
                       samples: list) -> tuple[float, float]:
    """(time at reference speed, time as measured) of a run from ``spawned``
    to ``exited``, without the time its probes took.  ``before`` and
    ``after`` are kernel-equivalent seconds timed just outside the run;
    ``samples`` are its ``Probe.samples``."""
    scaled = measured = 0.0
    last_end, last_kernel = spawned, before
    for start, end, kernel in list(samples) + [(exited, exited, after)]:
        work = start - last_end
        scaled += work * 2 * KERNEL_S / (last_kernel + kernel)
        measured += work
        last_end, last_kernel = end, kernel
    return scaled, measured


def bracketed(times: list[float], kernels: list[float]) -> list[float]:
    """Each of ``times`` at reference speed, where ``kernels[i]`` and
    ``kernels[i + 1]`` are kernel-equivalent seconds timed on either side
    of ``times[i]``."""
    return [t * 2 * KERNEL_S / (a + b) for t, a, b in zip(times, kernels, kernels[1:])]
