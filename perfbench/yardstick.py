"""A fixed piece of pure-Python work, timed to read the host's speed.

The benchmark runs on a shared host whose vCPUs run up to 1.7x slower for
minutes at a time, in CPU time as well as in wall time; the same code on
the same seed then reads that much slower, and a slow stretch spans several
whole runs, so no median over a run's passes filters it out. The host slows
interpreter start, imports and big-integer arithmetic alike (setup_s and
precise throughput moved together through such stretches), so a yardstick
of similar work, timed in the same process between the measured calls,
tracks it.

The yardstick runs no engine code, so a change to the engine leaves it as
it is. run.py divides a pass's CPU times by the yardstick's median over the
pass divided by REF_NS: the end-to-end metrics read as on a host where the
yardstick takes REF_NS, about its median on a 2-vCPU Xeon VM in a fast
stretch.
"""

import json
import statistics
import time
from fractions import Fraction

REF_NS = 500_000

_POLY = (7, -3, -11, 5, 2)
_DOC = {"id": "yardstick",
        "rows": [{"p": p, "chi": (-1) ** p, "e": [p % 3, p % 5]}
                 for p in range(2, 30)]}


def _work():
    """Integer Horner at 64 to 1024 bits, a Fraction sum, a small-int loop
    and an indented JSON dump: the kinds of work a decision does."""
    acc = 0
    for bits in (64, 256, 1024):
        x = (1 << bits) // 3
        for _ in range(4):
            acc = 0
            for c in _POLY:
                acc = acc * x + (c << bits)
            acc >>= bits
    f = Fraction(0)
    for k in range(1, 30):
        f += Fraction(k, 2 * k + 1)
    s = 0
    for i in range(1000):
        s = (s * 31 + i) % 1000003
    return acc, f, s, json.dumps(_DOC, indent=2)


def time_ns() -> int:
    """One run of the yardstick, in thread CPU time like the decisions."""
    start = time.thread_time_ns()
    _work()
    return time.thread_time_ns() - start


def slowdown(samples) -> float:
    """How much slower than the reference host the samples say this one
    runs: their median over REF_NS."""
    return statistics.median(samples) / REF_NS
