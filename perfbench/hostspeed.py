"""A probe of the host's current speed, used to scale measured times.

On a shared host the same pass can take up to 1.8 times as long in one
minute as in another, because other tenants load the shared cores and
caches; the slow phases last from seconds to minutes, so neither longer runs
nor a low percentile of pass times removes them.  Two fixed loops slow down
with them: one of dict lookups and small-object allocation over a table
larger than the per-core caches (memory-bound interpreter work, like the
sympy and scipy calls of the scenarios), and one of integer arithmetic
(core-bound, like the scalar loops of assemble_delta and of measure
merging).  In 10-second windows their summed time correlated 0.90-0.97 with
the pass time of each workload; either loop alone tracked some workloads
well and others poorly.

The benchmark probes between jobs and multiplies each measured time by
REF_S / (median probe time in the same process): a time in seconds on a
host where the probe takes REF_S.
"""

import gc
import random
import statistics
import time

REF_S = 0.005  # about the median probe time on the shared 2-core Xeon VM the bounds were set on
_KEYS = 50_000
_LOOKUPS = 3_500
_SLICES = 32
_INTS = 30_000
# about 6 MB: lookups come from the shared cache or memory, whatever ran
# just before, since each call takes another slice of random keys
_TABLE = {str(i): float(i) for i in range(_KEYS)}
_ORDER = [str(k) for k in random.Random(0).choices(range(_KEYS), k=_LOOKUPS * _SLICES)]
_slice = 0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe() -> float:
    """Seconds the two reference loops take now.

    The garbage collector is off while they run: its passes would cost more
    the more objects the program holds.
    """
    global _slice
    keys = _ORDER[_slice * _LOOKUPS:(_slice + 1) * _LOOKUPS]
    _slice = (_slice + 1) % _SLICES
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table, total = _TABLE, 0.0
    for key in keys:
        pair = _Pair(table[key], 1.5)
        total += pair.a * pair.b
    count = 0
    for i in range(_INTS):
        count += i * i % 7
    elapsed = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return elapsed


def scale(probe_s) -> float:
    """Factor that turns times measured alongside these probes into REF_S units."""
    return REF_S / statistics.median(probe_s)
