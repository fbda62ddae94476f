"""One-off reference timings, outside the workloads.

    python3 benchmarks/reference.py

Times ``minimal_stinespring``, ``instrument_extremal``,
``lueders_factorization`` and ``measurement_model`` on square instruments
with 3 outcomes of 2 Kraus operators each (best of 3) at d = 8, 16 and 24,
one ``instrument_extremal`` at d = 32, and ``import instrumentum`` in a
fresh interpreter (best of 5).  Inputs come from ``inputs.py`` with seed 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from run import ROOT, import_package, limit_blas_threads

OPS = ("minimal_stinespring", "instrument_extremal", "lueders_factorization", "measurement_model")


def best_ms(func, arg, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(arg)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> int:
    limit_blas_threads()
    inst = import_package()
    import numpy as np

    import inputs

    def square(d):
        shape = inputs.make_shape(f"d{d}", d, d, (2, 2, 2))
        lists = inputs.rand_kraus_lists(np.random.default_rng([0, d]), shape)
        return inputs.instrument(inst, shape, lists)

    print("| op | d=8 | d=16 | d=24 |")
    print("|---|---|---|---|")
    cases = {d: square(d) for d in (8, 16, 24)}
    for op in OPS:
        row = [f"{best_ms(getattr(inst, op), cases[d], 3):.1f} ms" for d in (8, 16, 24)]
        print(f"| `{op}` | " + " | ".join(row) + " |")
    at32 = best_ms(inst.instrument_extremal, square(32), 1)
    print(f"\n`instrument_extremal` at d=32, one run: {at32:.0f} ms")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time; t=time.perf_counter(); import instrumentum; print(time.perf_counter()-t)"
    imports = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(5)
    ]
    print(f"`import instrumentum` in a fresh interpreter, best of 5: {min(imports) * 1e3:.0f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
