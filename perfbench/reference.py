"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within seconds (frequency and neighbour contention: process
CPU time drifts exactly as wall time does). A run's wall-clock figures
then say as much about the machine as about polartrack. So each episode
is followed by one run of this fixed kernel in the same process (a pool
worker included), and the bounded timings are expressed in *ref*: the
kernel's time on the same processor at that moment, the mean of its runs
just before and after the episode.
The kernel mixes what polartrack spends its time on (scalar ``math`` in
the interpreter, small dicts and tuples, numpy reductions over a
1801-entry vector) and never changes, so a program change moves the
ratios and a machine change mostly does not. Wall-clock figures stay in
each result's details.
"""

from __future__ import annotations

import math

import numpy as np


def kernel() -> float:
    """About 6 ms of work on a 2-vCPU Xeon VM."""
    acc = 0.0
    table = {}
    v = np.zeros(1801)
    for i in range(6000):
        x, y = math.cos(i * 0.01), math.sin(i * 0.01)
        acc += math.degrees(math.atan2(y, x)) + math.hypot(x, y)
        table[i & 255] = (x, y, acc)
        if i % 40 == 0:
            v[i % 1801] = acc * 1e-6
            z = v - v.max()
            acc += float(np.log(np.exp(z).sum()))
    return acc + len(table)
