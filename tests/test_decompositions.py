"""Each positive operator is checked and decomposed once per public call.

A given Choi matrix, an effect, an output state and a correlation matrix
each get one ``eigh``, which yields both the positivity verdict and the
minimal factorization; a minimal Kraus set comes from one thin SVD of the
Kraus operators, and no instrument-level operation forms or decomposes a
``(dim_out * dim_in)``-sided matrix.  Kraus sets that are minimal by
construction are not decomposed again.
"""

import numpy as np
import pytest

from instrumentum import (
    DiscreteInstrument,
    KrausSet,
    Tolerances,
    action_distance,
    choi,
    compat_channel,
    correlation_extremal,
    instrument_extremal,
    kraus_from_choi,
    lueders,
    lueders_factorization,
    measurement_model,
    minimal_kraus,
    minimal_stinespring,
    model_intertwiner,
    naimark,
    nuclear,
    posterior_state,
    refine_rank1,
    standard_model,
    trivial_from_povm,
    verify_dilation,
    witness_decompose,
)

from helpers import PAULI, basis_pvm, rand_instrument, rand_povm, rand_state, rand_unitary

RNG_SEED = 5


def test_kraus_from_choi_decomposes_once(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (3,))
    c = choi(m.outcome(0))
    decompositions.clear()
    kraus_from_choi(c)
    assert decompositions.number("eigh") == decompositions.number("eigh", (6, 6)) == 1
    assert decompositions.number("eigvalsh") == 0
    assert decompositions.number("require_hermitian") == 1


def test_minimal_kraus_skips_the_hermiticity_check(decompositions):
    k = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (3,)).outcome(0)
    decompositions.clear()
    minimal_kraus(k)
    assert decompositions.number("svd") == decompositions.number("svd", (6, 3)) == 1
    assert decompositions.number("eigh") == decompositions.number("eigvalsh") == 0
    assert decompositions.number("require_hermitian") == 0


def test_action_distance_factors_once(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (3, 2))
    decompositions.clear()
    action_distance(m.outcome(0), m.outcome(1))
    assert decompositions.number("qr") == decompositions.number("qr", (6, 5)) == 1
    assert len(decompositions) == 1


def test_povm_validation_and_factors_are_one_pass(decompositions):
    p = rand_povm(np.random.default_rng(RNG_SEED), 3, 4)
    for build in (trivial_from_povm, naimark):
        decompositions.clear()
        build(p)
        assert decompositions.number("eigh") == decompositions.number("eigh", (3, 3)) == 4
        assert decompositions.number("eigvalsh") == 0


def test_compat_channel_decomposes_each_effect_and_outcome_once(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (2, 1, 2))
    decompositions.clear()
    compat_channel(m)
    assert decompositions.number("eigh") == 0  # no effect is formed and decomposed
    # per outcome, one SVD of its Kraus rows (the Naimark fiber, 3 x rows) and one of
    # its Kraus stack (6 x operators)
    shapes = [np.shape(a) for name, a, _ in decompositions if name == "svd"]
    assert shapes == [(3, 4), (6, 2), (3, 2), (6, 1), (3, 4), (6, 2)]
    assert decompositions.number("eigvalsh") == 0


def test_lueders_factorization_adds_one_svd_to_compat_channel(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (2, 1, 2))
    decompositions.clear()
    compat_channel(m)
    compat_svds = decompositions.number("svd")
    decompositions.clear()
    lueders_factorization(m, (0, 2))
    assert decompositions.number("svd") == compat_svds + 1  # of the subset-masked fibers
    assert decompositions.number("eigh") == decompositions.number("eigvalsh") == 0
    assert decompositions.number("require_hermitian") == 0
    assert decompositions.number("isometry_complete") == 0


def test_effects_of_an_instrument_are_not_rechecked():
    # the rank-deficient effects of this instrument have eigenvalues near
    # -1e-16, below -eps_psd; they are positive by construction, so the
    # factorization of the instrument's own POVM may not reject them
    m = rand_instrument(np.random.default_rng(0), 4, 2, (1, 1, 2))
    tol = Tolerances(eps_psd=1e-300)
    assert compat_channel(m, tol).passed
    assert lueders_factorization(m, None, tol)[1].passed


def test_nuclear_checks_and_decomposes_effects_and_states_once(decompositions):
    rng = np.random.default_rng(RNG_SEED)
    p = rand_povm(rng, 3, 2)
    states = [rand_state(rng, 2), rand_state(rng, 2, 1)]
    decompositions.clear()
    nuclear(p, states)
    assert decompositions.number("eigh") == 4
    assert decompositions.number("eigh", (3, 3)) == decompositions.number("eigh", (2, 2)) == 2
    assert decompositions.number("require_hermitian") == 4
    assert decompositions.number("eigvalsh") == 0


def test_correlation_extremal_decomposes_its_input_once(decompositions):
    g = np.random.default_rng(RNG_SEED).standard_normal((4, 3)) + 0j
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    c = g @ g.T
    decompositions.clear()
    correlation_extremal(c)
    assert decompositions.number("require_hermitian") == 1
    assert decompositions.number("eigh") == decompositions.number("eigh", (4, 4)) == 1
    assert decompositions.number("svd", (4, 4)) == 0
    assert decompositions.number("eigvalsh", (4, 4)) == 0


def test_standard_model_decomposes_each_operator_once(decompositions):
    a_op = np.diag([0.0, 1.0, 2.0, 1.0])
    standard_model(a_op, PAULI["Y"], 0.4, np.array([1.0, 0.0]), ((0,), (1,)))
    assert decompositions.number("eigh") == 2
    assert decompositions.number("eigh", (4, 4)) == decompositions.number("eigh", (2, 2)) == 1


def test_posterior_state_checks_the_state_once(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (2, 1))
    rho = rand_state(np.random.default_rng(RNG_SEED + 1), 3)
    decompositions.clear()
    posterior_state(m, rho, 0)
    assert decompositions.number("require_hermitian") == 1
    assert decompositions.number("eigvalsh") == 1


def test_lueders_checks_each_effect_once_and_decomposes_none(decompositions):
    p = basis_pvm(4, ((0,), (1, 2), (3,)))
    decompositions.clear()
    lueders(p)
    assert decompositions.number("require_hermitian") == 3
    assert decompositions.number("eigh") == decompositions.number("eigvalsh") == 0


def _unitary_mixture(rng, d, outcomes, per_outcome):
    """Kraus operators ``U / sqrt(n)`` for ``n`` random unitaries: not extreme."""
    n = outcomes * per_outcome
    ops = [rand_unitary(rng, d) / np.sqrt(n) for _ in range(n)]
    return DiscreteInstrument(
        d,
        d,
        tuple(
            (i, KrausSet(d, d, ops[i * per_outcome : (i + 1) * per_outcome]))
            for i in range(outcomes)
        ),
    )


L2_OPERATIONS = (
    "minimal_stinespring",
    "verify_dilation",
    "instrument_extremal",
    "witness_decompose",
    "compat_channel",
    "lueders_factorization",
    "measurement_model",
    "model_intertwiner",
    "refine_rank1",
)


def _l2_calls(m, mixture):
    """Each operation of ``L2_OPERATIONS`` as a call; the inputs one needs from another are made here."""
    dilation = minimal_stinespring(m)
    model = measurement_model(m)
    witness = instrument_extremal(mixture).witness
    assert witness is not None
    return {
        "minimal_stinespring": lambda: minimal_stinespring(m),
        "verify_dilation": lambda: verify_dilation(m, dilation),
        "instrument_extremal": lambda: instrument_extremal(m),
        "witness_decompose": lambda: witness_decompose(mixture, witness),
        "compat_channel": lambda: compat_channel(m),
        "lueders_factorization": lambda: lueders_factorization(m),
        "measurement_model": lambda: measurement_model(m),
        "model_intertwiner": lambda: model_intertwiner(model, m),
        "refine_rank1": lambda: refine_rank1(m),
    }


@pytest.mark.parametrize("name", L2_OPERATIONS)
def test_no_choi_sided_decomposition(decompositions, name):
    """A 6 -> 6 instrument: no eigendecomposition or SVD factor of side 6 * 6 = 36."""
    rng = np.random.default_rng(RNG_SEED)
    m = rand_instrument(rng, 6, 6, (2, 2, 2))
    call = _l2_calls(m, _unitary_mixture(rng, 6, 3, 2))[name]
    decompositions.clear()
    call()
    assert decompositions.number("eigh", (36, 36)) == 0
    assert decompositions.number("eigvalsh", (36, 36)) == 0
    sided = [
        np.shape(a)
        for n, a, out in decompositions
        if n in ("svd", "qr") and any(np.shape(part) == (36, 36) for part in out)
    ]
    # the model's unitary acts on system (x) ancilla, 6 * 6 = 36 sided here as well:
    # completing the 36 x 6 dilation isometry to it takes one SVD of the 6 x 36 adjoint
    assert sided == ([(6, 36)] if name == "measurement_model" else [])
