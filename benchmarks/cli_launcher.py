"""Start one traced ``instrumentum`` CLI process.

Used instead of ``python -m instrumentum.cli`` in the traced run of
cli-documents: it times ``import instrumentum.cli``, installs the same
wrappers as the parent, calls ``instrumentum.cli.main`` with the arguments
it was given, and writes the spans to the file named by
``BENCH_TRACE_OUT`` before exiting with main's exit code.
"""

import os
import sys
import time

t0 = time.perf_counter()
import instrumentum.cli  # noqa: E402

import_seconds = time.perf_counter() - t0

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    tr = Tracer()
    tr.install()
    tr.active = True
    try:
        code = instrumentum.cli.main(sys.argv[1:])
    finally:
        tr.active = False
        sys.stdout.flush()
        np.savez(os.environ["BENCH_TRACE_OUT"], import_seconds=import_seconds, **tr.arrays())
    return code


if __name__ == "__main__":
    sys.exit(main())
