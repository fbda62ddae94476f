"""Shared fixtures: the instrument corpus, call counters and the acceptance summary."""

import importlib
import pkgutil
import re
import sys

import numpy as np
import pytest

import instrumentum
from instrumentum import cpmaps, instruments, matkernel

from instrumentum import (
    DiscreteInstrument,
    KrausSet,
    Povm,
    compat_from_coeffs,
    CompatCoefficients,
    lueders,
    nuclear,
    trivial_from_channel,
    trivial_from_povm,
)

from helpers import (
    basis_pvm,
    depolarizing_kraus,
    rand_coeffs_tensor,
    rand_instrument,
    rand_povm,
    rand_pure,
)

CORPUS_SEED = 20260822


def plus_minus_povm():
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=np.complex128)
    return Povm(2, (("+", plus), ("-", minus)))


def preparation_instrument(rng):
    """A two-outcome instrument out of a one-dimensional input space."""
    pure = rand_pure(rng, 2).reshape(2, 1)
    mixed_ops = (
        np.sqrt(0.25) * np.array([[1.0], [0.0]], dtype=np.complex128),
        np.sqrt(0.25) * np.array([[0.0], [1.0]], dtype=np.complex128),
    )
    outcomes = (
        ("pure", KrausSet(1, 2, (np.sqrt(0.5) * pure,))),
        ("mixed", KrausSet(1, 2, mixed_ops)),
    )
    return DiscreteInstrument(1, 2, outcomes)


def build_corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    eye2 = np.eye(2, dtype=np.complex128)
    entries = {}
    entries["luders-qubit"] = lueders(basis_pvm(2, ((0,), (1,))))
    entries["luders-qutrit-block"] = lueders(basis_pvm(3, ((0, 1), (2,))))
    entries["trivial-mixed"] = trivial_from_povm(
        Povm(2, (("a", eye2 / 2), ("b", eye2 / 2)))
    )
    entries["nuclear-qubit"] = nuclear(
        plus_minus_povm(), (np.diag([1.0, 0.0]).astype(complex), eye2 / 2)
    )
    entries["identity-channel"] = trivial_from_channel(KrausSet(2, 2, (eye2,)))
    entries["depolarizing"] = trivial_from_channel(depolarizing_kraus())
    entries["random-2to2"] = rand_instrument(rng, 2, 2, (1, 2))
    entries["random-3to2"] = rand_instrument(rng, 3, 2, (2, 1, 1))
    entries["random-2to3"] = rand_instrument(rng, 2, 3, (1, 1))
    entries["zero-outcome"] = rand_instrument(rng, 2, 2, (2, 0, 1))
    entries["preparation"] = preparation_instrument(rng)
    povm = rand_povm(rng, 2, 3)
    coeffs = CompatCoefficients(
        2,
        tuple(
            (label, rand_coeffs_tensor(rng, 2, 2, r))
            for label, r in zip(povm.labels, (1, 2, 1))
        ),
    )
    entries["compat-built"] = compat_from_coeffs(povm, coeffs)
    return entries


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


class CallLog(list):
    """``(name, argument, result)`` for every counted call, in call order."""

    def number(self, name, shape=None):
        """How many ``name`` calls there were, on arguments of ``shape`` if given."""
        return sum(1 for n, a, _ in self if n == name and (shape is None or np.shape(a) == shape))


def _counted(log, name, fn):
    def wrapper(a, *args, **kwargs):
        out = fn(a, *args, **kwargs)
        log.append((name, a, out))
        return out

    return wrapper


def _count_package_calls(monkeypatch, log, owner, fn_names):
    """Log the calls of ``owner``'s functions through every ``instrumentum`` module namespace.

    The modules import each other's functions by name, so patching only the
    defining module would miss most calls.  Every submodule is imported
    first, so the namespaces patched do not depend on which tests ran before.
    """
    for info in pkgutil.iter_modules(instrumentum.__path__):
        importlib.import_module(f"instrumentum.{info.name}")
    for fn_name in fn_names:
        original = getattr(owner, fn_name)
        check = _counted(log, fn_name, original)
        for name, module in list(sys.modules.items()):
            if name.startswith("instrumentum") and getattr(module, fn_name, None) is original:
                monkeypatch.setattr(module, fn_name, check)


@pytest.fixture
def decompositions(monkeypatch):
    """Log numpy's ``eigh``, ``eigvalsh``, ``svd``, ``qr`` and ``solve``, ``require_hermitian`` and
    ``isometry_complete``."""
    log = CallLog()
    for name in ("eigh", "eigvalsh", "svd", "qr", "solve"):
        monkeypatch.setattr(np.linalg, name, _counted(log, name, getattr(np.linalg, name)))
    _count_package_calls(monkeypatch, log, matkernel, ("require_hermitian", "isometry_complete"))
    return log


@pytest.fixture
def effect_calls(monkeypatch):
    """Log ``cpmaps.apply_heisenberg`` and ``cpmaps._effect``, each with its Kraus set."""
    log = CallLog()
    _count_package_calls(monkeypatch, log, cpmaps, ("apply_heisenberg", "_effect"))
    return log


@pytest.fixture
def label_texts(monkeypatch):
    """Log ``instruments._label_repr``, each with its label: the texts formed for messages."""
    log = CallLog()
    _count_package_calls(monkeypatch, log, instruments, ("_label_repr",))
    return log


_CRITERION = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for outcome, reports in terminalreporter.stats.items():
        if outcome not in ("passed", "failed", "error", "skipped"):
            continue
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            match = _CRITERION.search(nodeid)
            if match is None:
                continue
            if outcome == "passed" and getattr(rep, "when", "call") != "call":
                continue
            key = (int(match.group(1)), match.group(2))
            verdicts[key] = verdicts.get(key, True) and outcome == "passed"
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num, name in sorted(verdicts):
        state = "PASS" if verdicts[(num, name)] else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} {name}: {state}")
