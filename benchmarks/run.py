"""Benchmark entry point.

    python3 benchmarks/run.py --workload l2-analysis --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads: ``l2-analysis``,
``posterior-queries``, ``cli-documents``.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
the package's public functions are wrapped in spans and the per-layer
metrics are printed instead (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("l2-analysis", "posterior-queries", "cli-documents")
# per-name inclusive times reported by the traced run
INCLUSIVE = {
    "cpmaps.kraus_from_choi.ms": "cpmaps.kraus_from_choi",
    "dilation.minimal_stinespring.ms": "dilation.minimal_stinespring",
    "dilation.measurement_model.ms": "dilation.measurement_model",
    "extremality.instrument_extremal.ms": "extremality.instrument_extremal",
    "compat.lueders_factorization.ms": "compat.lueders_factorization",
    "formats.load.ms": "formats.load",
    "formats.save.ms": "formats.save",
}
CALLS = {
    "linalg.eigh.calls": "linalg.eigh",
    "linalg.eigvalsh.calls": "linalg.eigvalsh",
    "linalg.svd.calls": "linalg.svd",
    "linalg.lstsq.calls": "linalg.lstsq",
    "cpmaps.kraus_from_choi.calls": "cpmaps.kraus_from_choi",
    "cpmaps.choi.calls": "cpmaps.choi",
    "cpmaps.apply_heisenberg.calls": "cpmaps.apply_heisenberg",
    "cpmaps.apply_schrodinger.calls": "cpmaps.apply_schrodinger",
    "instruments.validate.calls": "instruments.validate",
}


def limit_blas_threads() -> None:
    """At most nproc BLAS threads, for this process and its children."""
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def import_package():
    src = ROOT / "src"
    if not (src / "instrumentum" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}")
    sys.path.insert(0, str(src))
    import instrumentum

    if Path(instrumentum.__file__).resolve().parent != (src / "instrumentum").resolve():
        raise SystemExit(f"error: imported instrumentum from {instrumentum.__file__}")
    return instrumentum


def per_layer(summary: dict, rounds: int, traced_ops_per_s: float, import_seconds: list) -> dict:
    per_name = summary["per_name"]
    layers = summary["per_layer"]

    def name(key, field):
        return per_name.get(key, {}).get(field, 0)

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    for module, row in layers.items():
        put(f"{module}.calls", row["calls"] / rounds, "calls/round")
        put(f"{module}.self_ms", row["self_seconds"] * 1e3 / rounds, "ms/round")
    for key, span in CALLS.items():
        put(key, name(span, "calls") / rounds, "calls/round")
    put("linalg.eigh.gflop", name("linalg.eigh", "extra") / 1e9 / rounds, "calc-gflop/round")
    put("linalg.svd.gflop", name("linalg.svd", "extra") / 1e9 / rounds, "calc-gflop/round")
    put("linalg.eigh.max_n", name("linalg.eigh", "max_size"), "n")
    for key, span in INCLUSIVE.items():
        put(key, name(span, "seconds") * 1e3 / rounds, "ms/round")
    for kind in ("load", "save"):
        seconds = name(f"formats.{kind}", "seconds")
        mb = name(f"formats.{kind}", "extra") / 1e6
        put(f"formats.{kind}_mb_per_s", mb / seconds if seconds else 0.0, "MB/s")
    processes = len(import_seconds)
    main_s = name("cli.main", "seconds")
    put("cli.import_ms", 1e3 * sum(import_seconds) / processes if processes else 0.0, "ms/process")
    put("cli.main_ms", 1e3 * main_s / processes if processes else 0.0, "ms/process")
    put("trace.ops_per_s", traced_ops_per_s, "op/s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_blas_threads()
    inst = import_package()

    import harness
    import tracer as tracing

    if args.workload == "l2-analysis":
        import l2_analysis as workload
    elif args.workload == "posterior-queries":
        import posterior_queries as workload
    else:
        import cli_documents as workload

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = harness.Setups(lambda: workload.setup(inst, args.seed, work), args.seconds)
        state = setups.first()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            if args.workload == "cli-documents":
                workload.start_tracing(state)
        if tracer is None:
            loop = harness.Loop(None, workload.YARDSTICK, setups.between_cases)
        else:
            loop = harness.Loop(tracer)
        loop.run(args.seconds, workload.one_round(inst, state))
        rss_mb = harness.peak_rss_mb()  # before the metrics' own lists are built

        for problem in loop.problems:
            print(problem, file=sys.stderr)
        result = {
            "correct": not loop.incorrect,
            "attempted": loop.attempted,
            "failed": loop.failed,
        }
        if tracer is None:
            result["metrics"] = harness.end_to_end(loop, setups.median(), rss_mb, workload.LARGEST)
            raw = harness.raw_figures(loop, workload.LARGEST)
            print("seconds: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()), file=sys.stderr)
        else:
            tracer.uninstall()
            spans = tracer.arrays()
            out_dir = ROOT / ".bench_trace"
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"{args.workload}.npz")
            summary = tracing.layer_summary(spans, (*INCLUSIVE.values(), "cli.main"))
            result["metrics"] = per_layer(
                summary,
                loop.rounds,
                loop.completed / loop.busy,
                state.get("import_seconds", []),
            )
        print(
            f"{args.workload}: {loop.rounds} rounds, {loop.attempted} operations, "
            f"{loop.failed} failed",
            file=sys.stderr,
        )
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
