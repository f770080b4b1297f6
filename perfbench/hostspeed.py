"""A fixed piece of interpreter work that reads how fast the host runs.

On a host that shares its cores with other machines (measured on a 2-vCPU
x86-64 VM), interpreter-bound code such as the per-row loops of
``closed_form`` runs up to 1.5x slower or faster for minutes at a time
while the program is unchanged, so ten runs of its raw pass time spread by
0.13-0.30 (distance between quartiles over the median).  The
array-bound workloads (``validate``, ``joint_density``) move much less, and
neither this probe nor one of array work tracks what moves them: scaled by
a probe they spread more than raw, so they are not scaled.

A workload that names the probe has it read before each operation and after
the last one of every pass; each operation's time is multiplied by
``NOMINAL_S`` over the mean of the two readings beside it.  That is its time
on the host at the probe's nominal speed: the ten-run spread of
``closed_form`` falls to 0.03-0.04.  The probe calls nothing of ``ioncavity``,
so a change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

#: probe runs per reading; the reading is their median
REPEATS = 3
#: seconds one probe run takes at the nominal speed (the fast state of a
#: 2-vCPU x86-64 VM, Python 3.11); scaled times are times at that speed
NOMINAL_S = 0.018


def work() -> None:
    """Float maths, calls, dict stores and number formatting, the kind of
    work of the closed forms' per-row loops."""
    acc = 0.0
    table = {}
    for i in range(20000):
        x = math.exp(-i * 1e-5) * math.cos(i * 0.01)
        acc += x * x
        table[i & 255] = f"{acc:.17g}"


def reading() -> float:
    """Median seconds of ``REPEATS`` runs of the probe."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
