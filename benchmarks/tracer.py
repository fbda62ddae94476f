"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` rebinds every public function of the package modules
(``matkernel`` ... ``cli``) and numpy's ``eigh``/``eigvalsh``/``svd``/
``lstsq`` in every module namespace that holds them; the modules import each
other by name (``from .cpmaps import kraus_from_choi``), so rebinding only
the defining module would miss most calls.  Nothing under ``src/`` changes.

Each span stores a name, a start, an end, its parent span and one extra
number (computed flops for a linalg kernel, file bytes for ``load``/``save``)
in flat arrays that stay in memory until the run ends.  Spans are recorded
only while an operation of the workload is running, so the benchmark's own
checks do not show up.

Self time of a layer is the time inside its spans minus the time inside the
direct child spans of package layers.  ``linalg`` spans are counted but not
subtracted: a kernel's time stays in the layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

MODULES = (
    "matkernel",
    "cpmaps",
    "instruments",
    "posterior",
    "dilation",
    "extremality",
    "compat",
    "formats",
    "cli",
)
KERNELS = ("eigh", "eigvalsh", "svd", "lstsq")
# functions whose first path argument is a document file: (name, arg index)
_FILE_ARG = {"formats.load": 0, "formats.save": 1}


def kernel_flops(name: str, args, kwargs) -> float:
    """Textbook operation counts (Golub & Van Loan), times 4 for complex input.

    eigh: 9 n^3 (symmetric QR with vectors); eigvalsh: 4/3 n^3;
    svd of m x n, p = max, q = min: values only 4 p q^2 - 4/3 q^3,
    full U and V 4 p^2 q + 8 p q^2 + 9 q^3, thin U and V 14 p q^2 + 8 q^3.
    lstsq is counted but given no flops.
    """
    if name == "lstsq" or not args:
        return 0.0
    a = args[0]
    shape = np.shape(a)
    if len(shape) != 2:
        return 0.0
    factor = 4.0 if np.iscomplexobj(a) else 1.0
    if name == "eigh":
        return factor * 9.0 * shape[0] ** 3
    if name == "eigvalsh":
        return factor * 4.0 / 3.0 * shape[0] ** 3
    p, q = max(shape), min(shape)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    if not compute_uv:
        return factor * (4.0 * p * q * q - 4.0 / 3.0 * q**3)
    if full:
        return factor * (4.0 * p * p * q + 8.0 * p * q * q + 9.0 * q**3)
    return factor * (14.0 * p * q * q + 8.0 * q**3)


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.extra = array("d")
        self.size = array("q")
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.extra.append(0.0)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func, kernel: str | None = None):
        file_arg = _FILE_ARG.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.finish(idx)
                if kernel is not None:
                    self.extra[idx] = kernel_flops(kernel, args, kwargs)
                    self.size[idx] = max(np.shape(args[0]), default=0) if args else 0
                elif file_arg is not None and len(args) > file_arg:
                    try:
                        self.extra[idx] = float(os.path.getsize(args[file_arg]))
                    except OSError:
                        pass

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind the public functions of the imported package modules and the numpy kernels."""
        originals = {}
        for short in MODULES:
            module = sys.modules.get(f"instrumentum.{short}")
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                originals[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for kernel in KERNELS:
            value = getattr(np.linalg, kernel)
            originals[id(value)] = (value, self._wrap(f"linalg.{kernel}", value, kernel))
        namespaces = [np.linalg] + [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "instrumentum" or name.startswith("instrumentum."))
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- output --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "extra": np.frombuffer(self.extra, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def absorb(self, spans: dict, parent: int = -1) -> None:
        """Append spans recorded elsewhere (a traced child process)."""
        base = len(self.start)
        ids = [self._intern(str(n)) for n in spans["names"]]
        for nid, s, e, p, x, z in zip(
            spans["name_id"],
            spans["start"],
            spans["end"],
            spans["parent"],
            spans["extra"],
            spans["size"],
        ):
            self.name_id.append(ids[nid])
            self.start.append(float(s))
            self.end.append(float(e))
            self.parent.append(int(p) + base if p >= 0 else parent)
            self.extra.append(float(x))
            self.size.append(int(z))

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_summary(spans: dict, inclusive: tuple = ()) -> dict:
    """Per-name calls, extra and largest size; per-layer calls and self time (seconds).

    Names in ``inclusive`` also get their inclusive time, counting only spans
    with no ancestor of the same name.
    """
    names = [str(n) for n in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    prefixes = [name.split(".")[0] for name in names]
    layer = np.array([MODULES.index(x) if x in MODULES else -1 for x in prefixes])[name_id]
    # self time: subtract the direct children that belong to package layers
    covered = np.zeros(len(duration))
    mask = (parent >= 0) & (layer >= 0)
    np.add.at(covered, parent[mask], duration[mask])
    exclusive = duration - covered

    counts = np.bincount(name_id, minlength=len(names))
    extra = np.bincount(name_id, weights=spans["extra"], minlength=len(names))
    per_name = {}
    for nid, name in enumerate(names):
        if counts[nid]:
            per_name[name] = {
                "calls": int(counts[nid]),
                "extra": float(extra[nid]),
                "max_size": int(np.max(spans["size"][name_id == nid])),
                "seconds": 0.0,
            }
    for name in inclusive:
        if name not in per_name:
            continue
        nid = names.index(name)
        total = 0.0
        for i in np.flatnonzero(name_id == nid):
            p = parent[i]
            while p >= 0 and name_id[p] != nid:
                p = parent[p]
            if p < 0:
                total += duration[i]
        per_name[name]["seconds"] = total
    per_layer = {
        module: {
            "calls": int(np.count_nonzero(layer == index)),
            "self_seconds": float(np.sum(exclusive[layer == index])),
        }
        for index, module in enumerate(MODULES)
    }
    return {"per_name": per_name, "per_layer": per_layer}
