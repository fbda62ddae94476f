"""Each positive operator is checked and decomposed once per public call.

A Choi matrix, an effect, an output state and a correlation matrix each get
one ``eigh``, which yields both the positivity verdict and the minimal
factorization; Kraus sets that are minimal by construction are not
decomposed again.
"""

import numpy as np

from instrumentum import (
    Tolerances,
    choi,
    compat_channel,
    correlation_extremal,
    kraus_from_choi,
    lueders_factorization,
    minimal_kraus,
    naimark,
    nuclear,
    posterior_state,
    standard_model,
    trivial_from_povm,
)

from helpers import PAULI, rand_instrument, rand_povm, rand_state

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
    assert decompositions.number("eigh") == 1
    assert decompositions.number("eigvalsh") == decompositions.number("require_hermitian") == 0


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
    assert decompositions.number("eigh", (3, 3)) == 3  # the effects
    assert decompositions.number("eigh", (6, 6)) == 3  # the outcome Choi matrices
    assert decompositions.number("eigh") == 6
    assert decompositions.number("eigvalsh") == 0


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
