"""A fixed reference workload that reads the machine's current speed.

The benchmark's host is shared: other tenants slow every process on it by
up to 1.8x in spells of a fraction of a second to tens of seconds, longer
than a run. Repeated timings of identical work inside one run therefore
cannot tell the program's own cost from the host's state. A short burst of
this workload, run right before and right after each timed piece of work,
measures the host's state at that moment, and a timing is normalised by

    normalised = measured * REFERENCE_S / burst seconds

so that it reads as the time the work takes when a burst takes
``REFERENCE_S``. The burst depends on numpy and the standard library only,
never on cfalign, so a change to the program cannot change it.

The burst has two halves of about equal time. One is array traffic over
8,192 rows (matmul, exp, an ``np.add.at`` scatter and a distance table), as
the bank, the kernels and evaluation do. The other faults in fresh
anonymous pages, as cfalign's large temporary arrays do: a batch-8
training iteration takes about 14,000 minor page faults. Of the
candidates tried, this pair tracked the host's slow spells best on both
the overhead-bound and the array-bound workloads; a small Python node tape
tracked them worse, though it resembles a batch-1 iteration more.
"""

from __future__ import annotations

import mmap
from time import perf_counter

import numpy as np

# a fixed scale: close to one burst's seconds on the 2-core development host;
# only ratios between normalised figures matter
REFERENCE_S = 0.02
_ARRAY_ROUNDS = 1
_PAGE_ROUNDS = 64
_PAGE_BYTES = 256 << 10  # small regions, so a burst barely raises peak RSS
_PAGE = mmap.PAGESIZE

_rng = np.random.default_rng(12345)
_XL = _rng.standard_normal((8192, 16))
_WL = _rng.standard_normal((16, 16)) * 0.1
_YL = np.arange(8192) % 5


def _array_step() -> float:
    """Array traffic over 8,192 rows: matmul, softmax, scatter and a distance table."""
    f = _XL @ _WL
    e = np.exp(f - f.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    sums = np.zeros((5, 16))
    np.add.at(sums, _YL, p)
    counts = np.bincount(_YL, minlength=5)
    d = ((f[:, None, :] - sums[None, :, :] / counts[None, :, None]) ** 2).sum(axis=2)
    return float(d.argmin(axis=1).sum() + p.sum())


def _page_step() -> int:
    """Map fresh anonymous memory, write one byte per page, unmap it."""
    region = mmap.mmap(-1, _PAGE_BYTES)
    view = np.frombuffer(region, dtype=np.uint8)
    view[::_PAGE] = 1
    touched = int(view[::_PAGE].sum())
    del view
    region.close()
    return touched


def burst() -> float:
    """Run one burst; returns its wall time in seconds."""
    t0 = perf_counter()
    for _ in range(_ARRAY_ROUNDS):
        _array_step()
    for _ in range(_PAGE_ROUNDS):
        _page_step()
    return perf_counter() - t0
