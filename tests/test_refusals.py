"""Refusals of malformed arguments, each with its exact message."""

import numpy as np
import pytest

from instrumentum import (
    FormatError,
    InstrumentumError,
    MarkovKernel,
    MeasurementModel,
    Povm,
    conditional_expectation,
    instrument_extremal,
    load,
    lueders,
    measurement_model,
    minimal_stinespring,
    model_intertwiner,
    nuclear,
    outcome_distribution,
    standard_model,
    trivial_from_channel,
    trivial_from_povm,
    verify_dilation,
    witness_decompose,
)
from instrumentum.instruments import _block_partition
from instrumentum.matkernel import _integer

from helpers import basis_pvm, depolarizing_kraus, rand_instrument

Z = np.diag([1.0, -1.0])
RHO = np.eye(2) / 2
Z_POVM = Povm(2, (("a", np.diag([1.0, 0.0])), ("b", np.diag([0.0, 1.0]))))


def z_luders(labels=None):
    return lueders(basis_pvm(2, ((0,), (1,)), labels))


def qutrit_luders():
    return lueders(basis_pvm(3, ((0,), (1, 2))))


def depolarizing_witness(scale):
    """The depolarizing channel and its extremality witness, times ``scale`` (operator norm 1)."""
    m = trivial_from_channel(depolarizing_kraus())
    return m, [scale * np.asarray(block) for block in instrument_extremal(m).witness]


def witness_of_norm_two():
    m, witness = depolarizing_witness(2.0)
    witness_decompose(m, witness)


def wrong_witness_shape():
    m, _ = depolarizing_witness(1.0)
    witness_decompose(m, [np.zeros((2, 2))])


def dilation_of_another(m):
    verify_dilation(m, minimal_stinespring(z_luders()))


def intertwiner_of_another(m):
    model_intertwiner(measurement_model(z_luders()), m)


CASES = [
    (
        "model-without-ancilla",
        lambda: MeasurementModel(2, ("a",), (0,), [], np.zeros((0, 0))),
        ValueError,
        "ancilla must have positive dimension",
    ),
    (
        "model-xi-length",
        lambda: MeasurementModel(2, ("a", "b"), (1, 1), [1, 0, 0], np.eye(4)),
        ValueError,
        "xi has length 3, expected 2",
    ),
    (
        "kernel-one-dimensional",
        lambda: MarkovKernel([1.0, 0.0], [1.0, 2.0], ("a",)),
        ValueError,
        "kernel matrix must be 2-dimensional",
    ),
    (
        "dilation-dimensions",
        lambda: dilation_of_another(qutrit_luders()),
        ValueError,
        "dilation and instrument disagree on dimensions or labels",
    ),
    (
        "dilation-labels",
        lambda: dilation_of_another(z_luders(("x", "y"))),
        ValueError,
        "dilation and instrument disagree on dimensions or labels",
    ),
    (
        "intertwiner-dimensions",
        lambda: intertwiner_of_another(qutrit_luders()),
        ValueError,
        "model and instrument dimensions disagree",
    ),
    (
        "intertwiner-output-dimension",
        lambda: intertwiner_of_another(rand_instrument(np.random.default_rng(0), 2, 3, (1, 1))),
        ValueError,
        "model and instrument dimensions disagree",
    ),
    (
        "intertwiner-labels",
        lambda: intertwiner_of_another(z_luders(("x", "y"))),
        ValueError,
        "model and instrument outcome labels disagree",
    ),
    (
        "standard-model-xi-length",
        lambda: standard_model(Z, Z, 1.0, [1, 0, 0], ((0,), (1,))),
        ValueError,
        "xi has length 3, expected 2",
    ),
    (
        "standard-model-empty-observable",
        lambda: standard_model(np.zeros((0, 0)), Z, 1.0, [1, 0], ((0,), (1,))),
        ValueError,
        "dimensions must be positive integers, got 0",
    ),
    (
        "standard-model-label-count",
        lambda: standard_model(Z, Z, 1.0, [1, 0], ((0,), (1,)), ("a",)),
        ValueError,
        "labels and pointer blocks disagree in length",
    ),
    (
        "witness-block-shape",
        wrong_witness_shape,
        ValueError,
        "witness block has shape (2, 2), expected (4, 4)",
    ),
    (
        "witness-norm-two",
        witness_of_norm_two,
        InstrumentumError,
        "witness operator norm 2.000000 exceeds one",
    ),
    (
        "nuclear-state-count",
        lambda: nuclear(Z_POVM, [RHO]),
        ValueError,
        "got 1 states for 2 effects",
    ),
    (
        "nuclear-state-shape",
        lambda: nuclear(Z_POVM, [RHO, np.eye(3) / 3]),
        ValueError,
        "state for outcome 'b' has shape (3, 3)",
    ),
    (
        "nuclear-state-not-psd",
        lambda: nuclear(Z_POVM, [RHO, np.diag([1.5, -0.5])]),
        InstrumentumError,
        "state for outcome 'b' is not positive semidefinite",
    ),
    (
        "nuclear-without-outcomes",  # refused by the effect sum, before any state is read
        lambda: nuclear(Povm(2, ()), []),
        InstrumentumError,
        "effects do not sum to the identity: defect 1.414e+00",
    ),
    (
        "trivial-effect-not-psd",
        lambda: trivial_from_povm(Povm(2, (("a", np.diag([1.5, 0.0])), ("b", np.diag([-0.5, 1.0]))))),
        InstrumentumError,
        "effect 'b' is not positive semidefinite",
    ),
    (
        "distribution-state-not-psd",
        lambda: outcome_distribution(z_luders(), np.diag([1.5, -0.5])),
        InstrumentumError,
        "input state is not positive semidefinite",
    ),
    (
        "expectation-observable-shape",
        lambda: conditional_expectation(z_luders(), RHO, np.eye(3)),
        ValueError,
        "observable has shape (3, 3), expected (2, 2)",
    ),
    (
        "block-partition-lengths",
        lambda: _block_partition(("a", "b"), (1,)),
        ValueError,
        "labels and block_dims disagree in length",
    ),
    (
        "integer-of-more-than-4300-digits",
        lambda: _integer(-(10**4301), "dimensions"),
        ValueError,
        "dimensions must be positive integers, got <integer of more than 4300 digits>",
    ),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
def test_refusal_names_the_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_load_of_a_missing_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value) == f"{path}: [Errno 2] No such file or directory: '{path}'"
