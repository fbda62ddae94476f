"""The closed loop shared by the workloads, and the metrics it reports.

One client in one process issues the next operation only after the last one
returned.  Each operation is timed alone: the client's output checks run
between operations and are not part of any latency.  A run repeats whole
rounds of the workload's cases until ``--seconds`` have passed and at least
``MIN_SAMPLES`` latencies were taken, so every run attempts the same
operations in the same proportions.  After every operation or every case
the workload's yardstick (``calibration.py``) runs a block outside any
operation, and each latency is divided by the yardstick's median time over
the blocks within ``reach`` of the one that follows it: the timing metrics
are in those units, *cal*.
"""

from __future__ import annotations

import math
import resource
from array import array
import statistics
import sys
import time

from oracles import CheckFailed

# p90 needs at least ten latencies above it.
MIN_SAMPLES = 100
SETUP_REPEATS = 9


class Failed:
    """Marker returned for an operation that raised or exited with an error."""

    def __init__(self, message: str) -> None:
        self.message = message


class Loop:
    def __init__(self, tracer=None, yardstick=None, between_cases=None) -> None:
        self.tracer = tracer
        self.yardstick = yardstick
        self.between_cases = between_cases
        # Compact arrays: the loop's own memory must not grow peak_rss_mb by
        # more than a few hundred KB however many rounds fit in a run.
        self.cal_times = array("d")
        self.blocks = array("q")  # where each yardstick block starts in cal_times
        self.latencies = array("d")
        self.elapsed = array("d")  # every operation's time, failed ones too
        self.block_of = array("q")  # per operation, the block that follows it
        self.cases: list[tuple] = []  # (key, index of the case's first operation)
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.busy = 0.0
        self.case_times: dict[str, list[float]] = {}
        self.problems: list[str] = []
        self.rounds = 0
        self.incorrect = False
        self.last_span = -1
        self._case_busy = 0.0

    def op(self, name: str, func, *args, **kwargs):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        tracer = self.tracer
        span = None
        if tracer is not None:
            tracer.active = True
            span = self.last_span = tracer.begin(f"op.{name}")
        t0 = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:  # an operation's failure is a result to count
            result = Failed(f"{name}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.finish(span)
            tracer.active = False
        self.record(elapsed, result)
        if self.yardstick is not None and self.yardstick.every == "op":
            self.calibrate()
        return result

    def record(self, elapsed: float, result) -> None:
        self.elapsed.append(elapsed)
        self.block_of.append(len(self.blocks))
        self.busy += elapsed
        self._case_busy += elapsed
        if isinstance(result, Failed):
            self.failed += 1
            self.latencies.append(math.inf)
            self.note(result.message)
        else:
            self.completed += 1
            self.latencies.append(elapsed)

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, what: str, func, *args):
        """Run an output check and return its result; a failure marks the run incorrect."""
        try:
            return func(*args)
        except CheckFailed as exc:
            self.note(f"check {what}: {exc}")
        except Exception as exc:  # output too malformed to check counts as wrong
            self.note(f"check {what}: {type(exc).__name__}: {exc}")
        self.incorrect = True
        return None

    def case(self, key: str, body, *args) -> None:
        """Run one case; its time is the sum of its operation latencies."""
        first = len(self.latencies)
        self._case_busy = 0.0
        body(self, *args)
        self.case_times.setdefault(key, []).append(self._case_busy)
        self.cases.append((key, first))
        if self.yardstick is not None and self.yardstick.every == "case":
            self.calibrate()
        if self.between_cases is not None:
            self.between_cases()

    def calibrate(self) -> None:
        self.blocks.append(len(self.cal_times))
        self.yardstick.run(self.cal_times)

    def scaled(self):
        """Latencies and case times in cal, the yardstick's local median time."""
        reach = self.yardstick.reach
        n = len(self.blocks)
        bounds = [*self.blocks, len(self.cal_times)]
        cal = [
            statistics.median(self.cal_times[bounds[max(0, b - reach)]:bounds[min(b + reach + 1, n)]])
            for b in range(n)
        ]
        scaled = [e / cal[b] for e, b in zip(self.elapsed, self.block_of)]
        latencies = [math.inf if x == math.inf else s for x, s in zip(self.latencies, scaled)]
        case_times: dict[str, list[float]] = {}
        ends = [first for _, first in self.cases[1:]] + [len(scaled)]
        for (key, first), end in zip(self.cases, ends):
            case_times.setdefault(key, []).append(sum(scaled[first:end]))
        return latencies, case_times

    def run(self, seconds: float, one_round) -> None:
        t0 = time.perf_counter()
        while True:
            one_round(self)
            self.rounds += 1
            if time.perf_counter() - t0 >= seconds and len(self.latencies) >= MIN_SAMPLES:
                break


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Setups:
    """Times SETUP_REPEATS set-ups spread over the run.

    The first runs before the timed loop and its state is the one the loop
    uses.  The machine's speed changes within seconds, and nine set-ups in a
    row sample a single moment of it, so the others run between cases, one
    each time another ``seconds / SETUP_REPEATS`` of the loop has passed, and
    any still missing after the loop; their states are discarded.
    """

    def __init__(self, setup, seconds: float) -> None:
        self.setup = setup
        self.spacing = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.loop_start = 0.0

    def timed(self):
        t0 = time.perf_counter()
        state = self.setup()
        self.times.append(time.perf_counter() - t0)
        return state

    def first(self):
        state = self.timed()
        self.loop_start = time.perf_counter()
        return state

    def between_cases(self) -> None:
        due = (time.perf_counter() - self.loop_start) // self.spacing + 1
        if len(self.times) < min(due, SETUP_REPEATS):
            self.timed()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.timed()
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def raw_figures(loop: Loop, largest_key: str) -> dict:
    """The timing figures in seconds, before they are divided by the yardstick."""
    return {
        "cal": statistics.median(loop.cal_times),
        "mean_op": loop.busy / loop.completed,
        "op_p50": nearest_rank(loop.latencies, 0.5),
        "op_p90": nearest_rank(loop.latencies, 0.9),
        "largest_case": statistics.median(loop.case_times[largest_key]),
    }


def end_to_end(loop: Loop, setup_s: float, rss_mb: float, largest_key: str) -> dict:
    scaled, case_times = loop.scaled()
    p90 = nearest_rank(scaled, 0.9)
    above = sum(1 for x in scaled if x > p90)
    if above < 10:
        print(f"warning: only {above} latencies above p90", file=sys.stderr)
    busy = sum(x for x in scaled if x != math.inf)  # time of completed operations
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_cal": {"value": loop.completed / busy, "unit": "op/cal"},
        "op_p50_cal": {"value": nearest_rank(scaled, 0.5), "unit": "cal"},
        "op_p90_cal": {"value": p90, "unit": "cal"},
        "largest_case_cal": {"value": statistics.median(case_times[largest_key]), "unit": "cal"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
