"""Fixed yardsticks that measure the speed of the machine during a run.

A shared machine's speed swings with the load of its other tenants: on the
2-core virtual machine the figures in README.md come from, the median
posterior-queries call took from 0.16 to 0.31 ms within one minute while the
process kept its core (cpu/wall 1.0).  Raw latencies of two runs of the same
code can differ by more than any bound a comparison can use.  Each workload
therefore runs a yardstick block after every operation or every case, and
the timing metrics are reported in *cal*, multiples of the yardstick's median
time over the blocks around each operation: the ratio cancels the machine's
speed and keeps the program's.

A yardstick is benchmark code on fixed inputs (seed 0); it calls numpy
directly and never the package, so no change to the package can move it.
Each one resembles the work of its workload: small numpy calls under Python
overhead, a LAPACK eigendecomposition of a Choi-sized matrix, or the start of
a bare interpreter.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Yardstick:
    """``run`` appends timed samples; one block runs after every ``every``
    ("op" or "case"); a latency is divided by the median sample of the
    ``reach`` blocks on each side of the block that follows it, and that block."""

    run: Callable[[list], None]
    every: str
    reach: int

_rng = np.random.default_rng(0)


def _hermitian(d: int) -> np.ndarray:
    g = _rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d))
    return g @ g.conj().T


_SMALL = [_hermitian(d) for d in (2, 3, 4, 6, 8)]
_EYE2 = np.eye(2)
_LARGE = _hermitian(256)


def small_numpy(out: list) -> None:
    """Twenty timed steps of small-matrix numpy work, as in posterior-queries."""
    for _ in range(4):
        for a in _SMALL:
            t0 = time.perf_counter()
            h = a @ a.conj().T
            k = np.kron(a, _EYE2)
            float(np.trace(h @ a).real) + k.sum().real
            np.linalg.eigvalsh(h)
            out.append(time.perf_counter() - t0)


def eigh(out: list) -> None:
    """One timed eigendecomposition of a 256 x 256 Hermitian matrix, as in l2-analysis."""
    t0 = time.perf_counter()
    np.linalg.eigh(_LARGE)
    out.append(time.perf_counter() - t0)


def interpreter_start(out: list) -> None:
    """One timed start of a bare interpreter, as each call in cli-documents begins.

    No timeout: with one, ``wait`` polls at doubling intervals and the time
    measured would be the polling schedule (113.5 ms), not the interpreter.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    out.append(time.perf_counter() - t0)
