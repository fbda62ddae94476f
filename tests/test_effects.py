"""Each instrument forms each outcome's effect once, from the Kraus rows.

The effect ``M(i) = sum_k A_k(i)^dag A_k(i)`` is ``cpmaps._effect`` of the
outcome's Kraus set; an instrument forms its effects on first need and keeps
them, so later calls on it form none, and no call pushes an identity through
``apply_heisenberg`` to form one.
"""

import numpy as np
import pytest

from instrumentum import (
    DiscreteInstrument,
    KrausSet,
    apply_heisenberg,
    associate_povm,
    channel_extremal,
    compose_sequential,
    lueders_factorization,
    margins,
    outcome_distribution,
    pvm_compat,
    rank1_nuclear_extract,
    validate,
)
from instrumentum.cpmaps import _effect

from helpers import rand_instrument


def fresh(entry):
    """A new instrument on ``entry``'s Kraus sets, whose effects no earlier test has formed."""
    return DiscreteInstrument(entry.dim_in, entry.dim_out, entry.outcomes)


# name -> (corpus -> fresh instrument, public call on it, effects formed besides the outcomes')
CALLS = {
    "validate": (lambda c: fresh(c["random-3to2"]), validate, 0),
    "associate_povm": (lambda c: fresh(c["random-3to2"]), associate_povm, 0),
    "outcome_distribution": (
        lambda c: fresh(c["random-3to2"]),
        lambda m: outcome_distribution(m, np.eye(m.dim_in) / m.dim_in),
        0,
    ),
    "margins": (
        lambda c: compose_sequential(c["random-2to2"], c["luders-qubit"]),
        margins,
        0,
    ),
    "pvm_compat": (lambda c: fresh(c["luders-qutrit-block"]), pvm_compat, 0),
    "rank1_nuclear_extract": (lambda c: fresh(c["nuclear-qubit"]), rank1_nuclear_extract, 0),
    "channel_extremal": (
        lambda c: fresh(c["depolarizing"]),
        lambda m: channel_extremal(m.outcome(0)),
        0,
    ),
    # and the unit defect of the factoring channel
    "lueders_factorization": (lambda c: fresh(c["random-3to2"]), lueders_factorization, 1),
}
# a bare channel carries no effects of its own: each call wraps it in a new instrument
UNCACHED = {"channel_extremal"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_forms_each_effect_once(name, corpus, effect_calls):
    build, call, extra = CALLS[name]
    m = build(corpus)
    # the first call forms each outcome's effect once, a second call on m none
    for per_outcome in (1, 1 if name in UNCACHED else 0):
        effect_calls.clear()
        call(m)
        assert effect_calls.number("apply_heisenberg") == 0
        for label, kraus in m.outcomes:
            formed = sum(1 for n, k, _ in effect_calls if n == "_effect" and k is kraus)
            assert formed == per_outcome, f"effect {label!r} formed {formed} times"
        assert effect_calls.number("_effect") == per_outcome * len(m) + extra


@pytest.mark.parametrize("fibers", [(2, 1, 2), (0, 3), (2,)])
def test_effect_is_the_heisenberg_image_of_the_identity(fibers):
    m = rand_instrument(np.random.default_rng(len(fibers)), 3, 2, fibers)
    eye = np.eye(2, dtype=complex)
    for _, kraus in m.outcomes:
        assert np.max(np.abs(_effect(kraus) - apply_heisenberg(kraus, eye))) <= 1e-15
    assert _effect(KrausSet(3, 2, ())).shape == (3, 3)
