"""The reference workload: a fixed piece of pure-Python work, independent of
qcrystal, that the child times between jobs to gauge the speed the shared
host gives it at that moment.

On a shared host the CPU slows down by up to a factor of two for minutes at
a time, and the program slows with it; a job's time divided by the time of
this reference next to it is steady where the job's seconds are not.  The
reference mixes the kinds of work the program does (integer and dict
arithmetic, a tuple-keyed memo, big-integer products, JSON formatting) so
that it slows down about as much as the program does.

Changing this file changes the unit of every `run_ref` figure: compare
figures only between runs of the same reference.
"""

import gc
import json


def _int_dict() -> int:
    table, x = {}, 0
    for i in range(50000):
        x = (x * 31 + i) % 1000003
        table[x & 1023] = table.get(x & 1023, 0) + x
    return len(table)


def _tuple_memo() -> int:
    # Keeps two rows only, so that the reference adds little to peak RSS.
    previous = {}
    for _ in range(56):
        row = {}
        for b in range(56):
            for c in range(8):
                row[(b, c)] = previous.get((b, c), 1) + row.get((b - 1, c), 0)
        previous = row
    return len(previous)


def _big_products() -> int:
    p = [3 ** (i % 200 + 50) for i in range(340)]
    q = [7 ** (i % 150 + 40) for i in range(340)]
    out = [0] * 340
    for i, a in enumerate(p):
        for j in range(340 - i):
            out[i + j] += a * q[j]
    return out[-1].bit_length()


def _json_format() -> int:
    data = [[i, [[j, j + 1] for j in range(i % 30)]] for i in range(300)]
    return len(json.dumps(data)) + len(json.dumps(data, indent=1))


def reference() -> int:
    """Run the reference workload once (about 55 ms on one idle Intel Xeon
    core); the result only keeps the work from being optimised away.

    The cyclic collector is off meanwhile: its passes cost in proportion to
    what the jobs before left in memory, which would make the reference
    slower the later it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _int_dict() + _tuple_memo() + _big_products() + _json_format()
    finally:
        if enabled:
            gc.enable()
