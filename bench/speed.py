"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of a vCPU drifts by tens of percent
over seconds to minutes.  On the 2-core machine this benchmark was built
on, forty back-to-back calls of one fixed pure-Python loop took between
12.5 and 19.4 ms, and 12-second windows of one fixed threshold op differed
by up to 24%.  Every op time the benchmark reports is therefore rescaled
to a fixed speed: multiplied by the kernel's reference time over the time
of a fixed calibration kernel run right next to it.

Set-up is timed in fresh processes, and its time did not follow the
kernel run in the same process or in the benchmark's process.  It does
follow the whole kernel run in a fresh process of its own, numpy import
included: over 20 triples of set-up probes and such kernel processes,
their medians correlated at 0.70, and rescaling cut the spread of set-up
time from 16% to 11%.  So each set-up probe is rescaled by FRESH_S over
the time of that process, run right after it.

Slowdowns hit kinds of work unequally, so each workload's kernel is made
of the parts that resemble its dominant layer: interpreter work for
exact polynomial evaluation, gather-and-multiply over index tables for
`general_map`, small complex matrix products for the dense oracle.  In
trials of five 10-second runs each, the matching kernel cut the
interquartile spread of throughput from 13% raw to 4% (`general-orbits`,
gather) and from 3.5% to 1.2% (`oracle-xcheck`, matmul), where a
mismatched kernel made it 9% and 14%.  No kernel touches the package, so
a faster package still reads faster.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

PART_S = 0.0025  # reference seconds of each part (about its time on that machine)
FRESH_CALLS = 30  # calls of the whole kernel in the fresh-process calibration
FRESH_S = 0.4  # reference seconds of that process, from the numpy import on

_MATRIX = np.random.default_rng(0).normal(size=(64, 64)) + 0j
_INDEX = np.random.default_rng(1).integers(0, 4, size=(128, 9))
_TABLE = np.random.default_rng(2).normal(size=(4, 4))


def _interpreter() -> None:
    acc, table, coeff, x, total = 0, {}, Fraction(3, 4), 0.9, 0.0
    for i in range(7500):
        acc += (i * i) % 7
        table[i % 64] = (i, x)
    for _ in range(750):
        total += coeff * x**3 * x


def _gather() -> None:
    prod = np.ones((128, 128))
    for _ in range(3):
        for k in range(9):
            prod *= _TABLE[_INDEX[:, k][:, None], _INDEX[:, k][None, :]]


def _matmul() -> None:
    b = _MATRIX
    for _ in range(48):
        b = (_MATRIX @ b) * 0.01


PARTS = {"interpreter": _interpreter, "gather": _gather, "matmul": _matmul}


class Kernel:
    """A fixed piece of work made of the named parts."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = [PARTS[p] for p in parts]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor that maps seconds measured between these two kernel times
        to the reference speed."""
        return 2 * PART_S * len(self.parts) / (before + after)
