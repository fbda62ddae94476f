"""Each public call validates each instrument argument once and rejects a de-normalized one.

An instrument keeps its effects and normalization defect once formed; the
verdict is recomputed under each call's ``Tolerances``.
"""

import numpy as np
import pytest

import instrumentum.instruments as instruments_module
from instrumentum import (
    DEFAULT_TOL,
    BiInstrument,
    DiscreteInstrument,
    InstrumentumError,
    KrausSet,
    associate_channel,
    associate_povm,
    compat_channel,
    compose_sequential,
    conditional_expectation,
    conditional_output,
    instrument_extremal,
    lueders,
    lueders_factorization,
    margins,
    measurement_model,
    minimal_stinespring,
    model_intertwiner,
    outcome_distribution,
    posterior_state,
    pvm_compat,
    rank1_nuclear_extract,
    refine_rank1,
    trivial_from_channel,
    validate,
    verify_dilation,
    witness_decompose,
)
from instrumentum.cpmaps import _effect
from instrumentum.instruments import require_valid

from helpers import basis_pvm

RHO = np.eye(2, dtype=complex) / 2


def luders():
    return lueders(basis_pvm(2, ((0,), (1,))))


def scaled(m, factor):
    """``m`` with every Kraus operator multiplied by ``factor`` (same class and labels)."""
    outcomes = tuple(
        (label, KrausSet(m.dim_in, m.dim_out, tuple(factor * op for op in k.ops)))
        for label, k in m.outcomes
    )
    if isinstance(m, BiInstrument):
        return BiInstrument(m.dim_in, m.dim_out, outcomes, m.first_labels, m.second_labels)
    return DiscreteInstrument(m.dim_in, m.dim_out, outcomes)


def no_args(m):
    return ()


# name -> (corpus -> instrument, instrument -> other arguments, public call)
CALLS = {
    "associate_povm": (lambda c: luders(), no_args, associate_povm),
    "associate_channel": (lambda c: luders(), no_args, associate_channel),
    "margins": (lambda c: compose_sequential(luders(), luders()), no_args, margins),
    "refine_rank1": (lambda c: c["random-3to2"], no_args, refine_rank1),
    "outcome_distribution": (lambda c: luders(), lambda m: (RHO,), outcome_distribution),
    "posterior_state": (lambda c: luders(), lambda m: (RHO, 0), posterior_state),
    "conditional_output": (lambda c: luders(), lambda m: (RHO, (0,)), conditional_output),
    "conditional_expectation": (
        lambda c: luders(),
        lambda m: (RHO, np.eye(2)),
        conditional_expectation,
    ),
    "minimal_stinespring": (lambda c: c["random-3to2"], no_args, minimal_stinespring),
    "verify_dilation": (
        lambda c: c["random-3to2"],
        lambda m: (minimal_stinespring(m),),
        verify_dilation,
    ),
    "measurement_model": (lambda c: c["random-2to2"], no_args, measurement_model),
    "model_intertwiner": (
        lambda c: c["random-2to2"],
        lambda m: (measurement_model(m),),
        lambda m, model: model_intertwiner(model, m),
    ),
    "instrument_extremal": (lambda c: c["depolarizing"], no_args, instrument_extremal),
    "witness_decompose": (
        lambda c: c["depolarizing"],
        lambda m: (instrument_extremal(m).witness,),
        witness_decompose,
    ),
    "compat_channel": (lambda c: c["random-3to2"], no_args, compat_channel),
    "lueders_factorization": (lambda c: c["random-3to2"], no_args, lueders_factorization),
    "pvm_compat": (lambda c: luders(), no_args, pvm_compat),
    "rank1_nuclear_extract": (lambda c: c["nuclear-qubit"], no_args, rank1_nuclear_extract),
}


def count_validate(monkeypatch) -> list:
    """Record from now on every instrument passed to ``instruments.validate``."""
    original = instruments_module.validate
    seen = []

    def counting(m, *args, **kwargs):
        seen.append(m)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(instruments_module, "validate", counting)
    return seen


@pytest.mark.parametrize("name", sorted(CALLS))
def test_validates_its_instrument_once(name, corpus, monkeypatch):
    build, extra, call = CALLS[name]
    m = build(corpus)
    args = extra(m)
    calls = count_validate(monkeypatch)
    call(m, *args)
    assert len(calls) == 1 and calls[0] is m


def test_compose_validates_each_argument_once(monkeypatch):
    first, second = luders(), luders()
    calls = count_validate(monkeypatch)
    compose_sequential(first, second)
    assert len(calls) == 2 and calls[0] is first and calls[1] is second


@pytest.mark.parametrize("name", sorted(CALLS))
def test_rejects_denormalized_instrument(name, corpus):
    build, extra, call = CALLS[name]
    m = build(corpus)
    args = extra(m)
    with pytest.raises(InstrumentumError, match="not normalized"):
        call(scaled(m, 1.01), *args)


@pytest.mark.parametrize("position", [0, 1])
def test_compose_rejects_either_denormalized_argument(position):
    pair = [luders(), luders()]
    pair[position] = scaled(pair[position], 1.01)
    with pytest.raises(InstrumentumError, match="not normalized"):
        compose_sequential(*pair)


def test_trivial_from_channel_rejects_non_channel():
    with pytest.raises(InstrumentumError, match="not normalized"):
        trivial_from_channel(KrausSet(2, 2, (1.01 * np.eye(2, dtype=complex),)))


def slightly_denormalized():
    """A one-outcome instrument with normalization defect about 1e-7."""
    a = np.diag([np.sqrt(1.0 + 1e-7), 1.0]).astype(complex)
    return DiscreteInstrument(2, 2, ((0, KrausSet(2, 2, (a,))),))


LOOSE = DEFAULT_TOL.scaled(1000)


@pytest.mark.parametrize(
    "order", [(DEFAULT_TOL, LOOSE), (LOOSE, DEFAULT_TOL)], ids=["tight-first", "loose-first"]
)
def test_kept_defect_carries_no_verdict(order):
    m = slightly_denormalized()
    (k,) = (kraus for _, kraus in m.outcomes)
    # the defect as formed before the instrument keeps it
    before = float(np.linalg.norm(_effect(k) + np.zeros((2, 2)) - np.eye(2)))
    assert 1e-8 < before < 1e-6
    for tol in order * 2:
        report = validate(m, tol)
        assert report.passed == (tol is LOOSE)
        assert report.normalization_defect.hex() == before.hex()
        if tol is DEFAULT_TOL:
            with pytest.raises(InstrumentumError, match="not normalized"):
                require_valid(m, tol)


def test_kept_effects_are_read_only_and_never_handed_out_writable():
    m = slightly_denormalized()
    kept = require_valid(m, LOOSE)  # the stack of the one outcome's effect
    assert kept.shape == (1, 2, 2)
    snapshot = kept.copy()
    assert not kept.flags.writeable and not kept[0].flags.writeable
    with pytest.raises(ValueError):
        kept[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        kept[0][0, 0] = 0.0
    ((_, povm_effect),) = associate_povm(m, LOOSE).effects
    assert not np.shares_memory(povm_effect, kept)
    ((_, p),) = outcome_distribution(m, RHO, LOOSE)
    assert type(p) is float
    again = require_valid(m, LOOSE)
    assert again is kept and again.tobytes() == snapshot.tobytes()
