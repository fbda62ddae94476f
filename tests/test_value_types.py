"""Array-holding value types compare by identity, so ``==`` and ``hash`` never touch the arrays."""

import numpy as np
import pytest

from instrumentum import (
    CompatCoefficients,
    Document,
    KrausSet,
    MarkovKernel,
    choi,
    compat_channel,
    compose_sequential,
    correlation_extremal,
    instrument_extremal,
    lueders,
    measurement_model,
    minimal_stinespring,
    posterior_state,
)

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
