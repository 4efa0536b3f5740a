"""A fixed pure-Python kernel that measures how fast the machine is right now.

The benchmark shares its machine with other work, which slows every
instruction by up to a factor of two, for a second or for minutes.  A
run times this kernel before and after every measured operation (for
about 3% of the operation's time) and scales the operation's time by
``REFERENCE_S / mean kernel time``, which cancels much of that drift.  The kernel mixes what the library spends its time on (big-integer XOR
and parity, row elimination, small tuples and dicts) and imports nothing
from it, so no change to the library changes the kernel.
"""

from __future__ import annotations

import gc
import time

# time of one kernel run on an unloaded 2-CPU Xeon virtual machine at 2.0 GHz
# (Python 3.11); scaled times read as seconds on that machine
REFERENCE_S = 0.007
WIDTH = 160
ROWS = 120
MIN_REPEATS = 3
FIRST_REPEATS = 10  # before the first operation of a pass, whose length is unknown
MAX_REPEATS = 40
SHARE = 0.03  # kernel time after an operation, as a share of the operation's time


def _rows():
    x = 0x2545F4914F6CDD1D
    mask = (1 << 64) - 1
    rows = []
    for _ in range(ROWS):
        r = 0
        for _ in range(WIDTH // 64 + 1):
            x = (x * 6364136223846793005 + 1442695040888963407) & mask
            r = (r << 64) | x
        rows.append(r & ((1 << WIDTH) - 1))
    return rows


def _kernel() -> int:
    rows = _rows()
    acc = 0
    for v in rows[:40]:  # matrix-vector parities
        out = 0
        for i, r in enumerate(rows):
            if bin(r & v).count("1") & 1:
                out |= 1 << i
        acc ^= out
    work, rank = list(rows), 0  # row elimination
    for col in range(WIDTH):
        sel = next((i for i in range(rank, len(work)) if (work[i] >> col) & 1), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for i in range(len(work)):
            if i != rank and (work[i] >> col) & 1:
                work[i] ^= work[rank]
        rank += 1
        if rank == len(work):
            break
    table = {(i, v & 255): tuple((v >> k) & 1 for k in range(0, 48, 3))
             for i, v in enumerate(work)}  # object churn
    return acc ^ rank ^ len(table)


def kernel_seconds(repeats: int = MIN_REPEATS) -> float:
    """Mean wall time of one kernel run, over ``repeats`` runs.

    The garbage collector is paused while timing: the kernel makes no
    cycles, and a collection of the library's heap would be charged to it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            _kernel()
        return (time.perf_counter() - start) / repeats
    finally:
        gc.enable()


def warm_up() -> None:
    """Run the kernel untimed once, so the interpreter has specialized its code."""
    _kernel()


def repeats_after(seconds: float) -> int:
    """Kernel runs to time after an operation that took ``seconds``."""
    return max(MIN_REPEATS, min(MAX_REPEATS, round(seconds * SHARE / REFERENCE_S)))


def factor(before: float, runs_before: int, after: float, runs_after: int) -> float:
    """Multiplier that turns seconds measured between two kernel timings
    (each the mean of that many kernel runs) into seconds at reference
    machine speed; every kernel run weighs the same."""
    pooled = (before * runs_before + after * runs_after) / (runs_before + runs_after)
    return REFERENCE_S / pooled
