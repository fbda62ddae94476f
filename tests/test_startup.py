"""What a process loads: each CLI command imports only its modules, and the package surface is lazy.

``import instrumentum`` loads no submodule; the first lookup of a public name
imports its home module.  Each command run as ``python -m instrumentum.cli``
loads the modules it needs, and a module-level import that pulls in another
fails the command's case here.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import instrumentum
from instrumentum import CompatCoefficients, Document, Povm, choi, lueders, save

from helpers import PAULI, basis_pvm

_SRC = str(Path(instrumentum.__file__).resolve().parents[1])

# every command loads these; the command's own module runs as __main__
_BASE = {"errors", "matkernel", "cpmaps", "instruments", "formats"}

# runs the command as ``python -m`` does, then prints the loaded package modules last on stderr
_RUN_CLI = """
import runpy, sys
sys.argv = ["instrumentum", *sys.argv[1:]]
try:
    runpy.run_module("instrumentum.cli", run_name="__main__")
finally:
    loaded = sorted(n.partition(".")[2] for n in sys.modules if n.startswith("instrumentum."))
    print(" ".join(loaded), file=sys.stderr)
"""


def _python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=60,
    )


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """One input document of every kind a command reads, by name."""
    root = tmp_path_factory.mktemp("startup")
    m = lueders(basis_pvm(2, ((0,), (1,))))
    eye = np.eye(2, dtype=complex)
    t = np.zeros((2, 2, 1), dtype=complex)
    t[0, 0, 0] = t[1, 1, 0] = 1.0
    values = {
        "m": Document("instrument", m),
        "rho": Document("matrix", eye / 2),
        "choi": Document("matrix", choi(m.outcome(0)).matrix, meta={"dim_in": 2, "dim_out": 2}),
        "corr": Document("matrix", eye),
        "povm": Document("povm", Povm(2, (("a", eye / 2), ("b", eye / 2)))),
        "coeffs": Document("coefficients", CompatCoefficients(2, (("a", t), ("b", t)))),
        "a": Document("matrix", np.diag([0.0, 1.0]).astype(complex)),
        "b": Document("matrix", PAULI["Y"]),
        "xi": Document("matrix", np.array([[1.0], [0.0]], dtype=complex)),
    }
    paths = {name: str(root / f"{name}.json") for name in values}
    for name, doc in values.items():
        save(doc, paths[name])
    return paths


_CASES = [
    (("validate", "{m}"), set()),
    (("refine", "{m}"), set()),
    (("compose", "{m}", "{m}"), set()),
    (("choi", "{m}"), set()),
    (("cp-check", "{choi}"), set()),
    (("extremal", "{m}"), {"extremality"}),
    (("corr-extreme", "{corr}"), {"extremality"}),
    (("dilate", "{m}"), {"dilation"}),
    (("model", "{m}"), {"dilation"}),
    (
        ("standard-model", "--a-op", "{a}", "--b-op", "{b}", "--xi", "{xi}",
         "--coupling", "1.0", "--pointer", "0;1"),
        {"dilation"},
    ),
    (("compat-build", "{povm}", "{coeffs}"), {"compat"}),
    (("compat-channel", "{m}"), {"compat"}),
    (("factorize", "{m}"), {"compat"}),
    (("nuclear-extract", "{m}"), {"compat"}),
    (("posterior", "{m}", "--state", "{rho}"), {"posterior"}),
]


@pytest.mark.parametrize("argv, extra", _CASES, ids=[argv[0] for argv, _ in _CASES])
def test_command_loads_only_its_modules(documents, argv, extra):
    done = _python("-c", _RUN_CLI, *(arg.format(**documents) for arg in argv))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stderr.splitlines()[-1].split())
    assert loaded == _BASE | extra


def test_every_command_has_a_case():
    from instrumentum.cli import build_parser

    commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted(argv[0] for argv, _ in _CASES) == sorted(commands)


class TestLazySurface:
    def test_names_resolve_to_their_home_objects(self):
        for name in instrumentum.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(f"instrumentum.{instrumentum._HOME[name]}")
            assert getattr(instrumentum, name) is getattr(home, name), name

    def test_dir_and_star_import_cover_all(self):
        assert set(instrumentum.__all__) <= set(dir(instrumentum))
        namespace = {}
        exec("from instrumentum import *", namespace)
        assert set(instrumentum.__all__) <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'conjure'"):
            instrumentum.conjure
        assert not hasattr(instrumentum, "conjure")

    def test_import_loads_no_submodule_and_values_pickle(self):
        code = """
import pickle, sys
import numpy as np
import instrumentum as I
assert not [n for n in sys.modules if n.startswith("instrumentum.")]
k = I.KrausSet(2, 2, (np.eye(2) / np.sqrt(2),))
m = I.DiscreteInstrument(2, 2, ((0, k), ("b", k)))
k2, m2 = pickle.loads(pickle.dumps((k, m)))
assert type(k2) is I.KrausSet and np.array_equal(k2.stack, k.stack)
assert type(m2) is I.DiscreteInstrument and m2.labels == m.labels
assert all(np.array_equal(a.stack, b.stack) for (_, a), (_, b) in zip(m.outcomes, m2.outcomes))
# a submodule is an attribute of the package, imported on first use
assert "instrumentum.posterior" not in sys.modules
assert I.posterior is sys.modules["instrumentum.posterior"]
"""
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
