"""Array-holding value types compare by identity, so ``==`` and ``hash`` never touch the arrays.

Copies and pickles of them are built again by their constructors, and every
dimension they take follows one rule.  The reports hand out read-only arrays.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from instrumentum import (
    DEFAULT_TOL,
    BiInstrument,
    ChoiMatrix,
    CompatCoefficients,
    DiscreteInstrument,
    Document,
    KrausSet,
    MarkovKernel,
    MeasurementModel,
    Povm,
    StinespringDilation,
    choi,
    compat_channel,
    compose_sequential,
    correlation_extremal,
    instrument_extremal,
    lueders,
    measurement_model,
    minimal_kraus,
    minimal_stinespring,
    posterior_state,
    trivial_from_povm,
)
from instrumentum.cpmaps import _minimal_cut

from helpers import basis_pvm


def qubit_pvm():
    return basis_pvm(2, ((0,), (1,)))


def luders():
    return lueders(qubit_pvm())


def coefficients():
    t = np.zeros((1, 2, 1), dtype=np.complex128)
    t[0, 0, 0] = 1.0
    return CompatCoefficients(2, ((0, t), (1, t)))


FACTORIES = {
    "KrausSet": lambda: KrausSet(2, 2, (np.eye(2),)),
    "ChoiMatrix": lambda: choi(KrausSet(2, 2, (np.eye(2),))),
    "Povm": qubit_pvm,
    "DiscreteInstrument": luders,
    "BiInstrument": lambda: compose_sequential(luders(), luders()),
    "StinespringDilation": lambda: minimal_stinespring(luders()),
    "MeasurementModel": lambda: measurement_model(luders()),
    "MarkovKernel": lambda: MarkovKernel(np.eye(2), np.array([0.0, 1.0]), (0, 1)),
    "CompatCoefficients": coefficients,
    "CompatChannelDecomposition": lambda: compat_channel(luders()),
    "ExtremalityReport": lambda: instrument_extremal(luders()),
    "CorrelationReport": lambda: correlation_extremal(np.eye(2)),
    "PosteriorResult": lambda: posterior_state(luders(), np.eye(2) / 2, 0),
    "Document": lambda: Document("matrix", np.eye(2)),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_is_identity_and_hash_works(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert type(a).__name__ == name
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
    assert a in {a} and b not in {a}
    table = {a: 1, b: 2}
    assert table[a] == 1 and table[b] == 2


# the types whose constructors check their data and make its arrays read-only
REBUILT = (
    "KrausSet",
    "ChoiMatrix",
    "Povm",
    "DiscreteInstrument",
    "BiInstrument",
    "StinespringDilation",
    "MeasurementModel",
    "MarkovKernel",
    "CompatCoefficients",
)


def _arrays(value) -> list:
    """Every array held by a value type, through its fields and nested tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [a for part in value for a in _arrays(part)]
    if isinstance(value, dict):  # the minimal cuts a Kraus set keeps, by kind
        return _arrays(tuple(value.values()))
    return []


def _holders(value) -> list:
    """``value`` and the Kraus sets inside it: the objects that keep data formed on demand."""
    if isinstance(value, DiscreteInstrument):
        return [value] + [kraus for _, kraus in value.outcomes]
    return [value]


def _form_kept(value) -> None:
    """Form the data ``value`` and its Kraus sets keep on first need."""
    for holder in _holders(value):
        if isinstance(holder, DiscreteInstrument):
            holder._normalization
        elif isinstance(holder, KrausSet):
            minimal_kraus(holder), _minimal_cut(holder, "fiber", DEFAULT_TOL)


def _kept(value) -> tuple:
    """What ``value`` and its Kraus sets hold beyond their fields.

    A factored measurement model's ``_factors`` is the form its unitary is
    held in, not data formed on demand, so it does not count here.
    """
    kept = []
    for holder in _holders(value):
        fields = {f.name for f in dataclasses.fields(holder)} | {"_factors"}
        kept += [v for name, v in vars(holder).items() if name not in fields]
    return tuple(kept)


@pytest.mark.parametrize(
    "copier", [lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
@pytest.mark.parametrize("name", REBUILT)
def test_copies_are_rebuilt_read_only_and_keep_nothing(name, copier):
    original = FACTORIES[name]()
    _form_kept(original)
    twin = copier(original)
    assert type(twin) is type(original)
    assert _kept(twin) == ()  # recomputed on demand, never carried over
    assert getattr(twin, "_factors", None) is None  # a factored model comes back dense
    pairs = list(zip(_arrays(original), _arrays(twin)))
    assert pairs and len(pairs) == len(_arrays(twin))
    for a, b in pairs:
        assert not b.flags.writeable
        assert a is not b and np.array_equal(a, b)
    _form_kept(twin)
    assert len(_kept(twin)) == len(_kept(original))
    assert not any(a.flags.writeable for a in _arrays(_kept(twin)))


# name -> (a build at dimension d, the dimension fields it stores); each is valid at d = 2
DIMENSIONED = {
    "KrausSet": (lambda d: KrausSet(d, d, (np.eye(2),)), ("dim_in", "dim_out")),
    "ChoiMatrix": (lambda d: ChoiMatrix(d, d, np.eye(4)), ("dim_in", "dim_out")),
    "Povm": (lambda d: Povm(d, ((0, np.eye(2)),)), ("dim",)),
    "DiscreteInstrument": (
        lambda d: DiscreteInstrument(d, d, ((0, (np.eye(2),)),)),
        ("dim_in", "dim_out"),
    ),
    "BiInstrument": (
        lambda d: BiInstrument(d, d, (((0, 0), (np.eye(2),)),), (0,), (0,)),
        ("dim_in", "dim_out"),
    ),
    "CompatCoefficients": (lambda d: CompatCoefficients(d, ((0, np.ones((1, 2, 1))),)), ("dim_k",)),
    "StinespringDilation": (
        lambda d: StinespringDilation(d, d, (0,), (1,), np.eye(2)),
        ("dim_in", "dim_out"),
    ),
    "MeasurementModel": (
        lambda d: MeasurementModel(d, (0,), (1,), [1.0], np.eye(2)),
        ("system_dim",),
    ),
}


@pytest.mark.parametrize("bad", [2.0, np.float64(2.0), True, "2", None, 0, -1], ids=repr)
@pytest.mark.parametrize("name", sorted(DIMENSIONED))
def test_dimensions_must_be_positive_integers(name, bad):
    build, _ = DIMENSIONED[name]
    with pytest.raises(ValueError, match=r"dimensions must be positive integers, got "):
        build(bad)


@pytest.mark.parametrize("name", sorted(DIMENSIONED))
def test_numpy_integer_dimensions_are_kept_as_integers(name):
    build, attrs = DIMENSIONED[name]
    value = build(np.int64(2))
    assert all(type(getattr(value, attr)) is int and getattr(value, attr) == 2 for attr in attrs)


def _mixed_qubit_trivial():
    eye = np.eye(2, dtype=np.complex128)
    return trivial_from_povm(Povm(2, (("a", eye / 2), ("b", eye / 2))))


def _correlation_arrays():
    report = correlation_extremal(np.eye(3))
    return report.gram_vectors, report.witness


REPORT_ARRAYS = {
    "ExtremalityReport": lambda: instrument_extremal(_mixed_qubit_trivial()).witness,
    "CorrelationReport": _correlation_arrays,
    "CompatChannelDecomposition": lambda: compat_channel(luders()).isometries,
    "PosteriorResult": lambda: (posterior_state(luders(), np.eye(2) / 2, 0).state,),
}


@pytest.mark.parametrize("name", sorted(REPORT_ARRAYS))
def test_report_arrays_are_read_only(name):
    arrays = REPORT_ARRAYS[name]()
    assert arrays
    for a in arrays:
        assert isinstance(a, np.ndarray) and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 7.0

