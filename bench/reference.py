"""The metronome: a fixed pure-Python workload that times the processor.

Usage: reference.py RESULT_JSON

Runs unit() again and again until SIGTERM, or until its parent is gone,
then writes one record per unit to RESULT_JSON: the monotonic clock
when it ended and the CPU time it took.  run.py pins this process and the CLI workers to one CPU, so
the scheduler interleaves them every few milliseconds and both see the
same processor speed.  On a VM whose speed changes by up to 2x from
second to second and from hour to hour, a job's CPU time over the mean
CPU time of the units that ended during the job stays put while raw
times move.

The unit does what liequant spends its time on: exact `Fraction`
arithmetic on dicts keyed by small tuples, then a sort.  It imports
nothing from liequant, so no change to the library can move it.  Do not
change it: every reported time is scaled by it.
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction


def unit():
    d = {}
    for i in range(6000):
        k = (i % 53, (i * 7) % 31)
        d[k] = d.get(k, Fraction(0)) + Fraction(i % 11 - 5, i % 13 + 1)
    return sum(v for _, v in sorted(d.items()))


def main():
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    parent = os.getppid()
    expected = unit()
    records = []
    while not stop and os.getppid() == parent:
        c = time.process_time()
        if unit() != expected:
            raise RuntimeError("the reference unit gave a different result")
        records.append((time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time() - c))
    with open(sys.argv[1], "w") as fh:
        json.dump(records, fh)


if __name__ == "__main__":
    main()
