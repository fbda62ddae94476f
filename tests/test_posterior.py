"""Outcome statistics and conditioned states."""

import warnings

import numpy as np
import pytest

from instrumentum import (
    InstrumentumError,
    apply_heisenberg,
    apply_schrodinger,
    associate_channel,
    conditional_expectation,
    conditional_output,
    lueders,
    outcome_distribution,
    posterior_state,
)

from instrumentum.cpmaps import _effect
from instrumentum.matkernel import DEFAULT_TOL, dagger, require_hermitian

from helpers import basis_pvm, rand_state


def z_luders():
    return lueders(basis_pvm(2, ((0,), (1,))))


def plus_state():
    return np.full((2, 2), 0.5, dtype=complex)


class TestDistribution:
    def test_plus_state_is_unbiased(self):
        dist = outcome_distribution(z_luders(), plus_state())
        assert dist == ((0, 0.5), (1, 0.5))

    def test_sums_to_one_on_corpus(self, corpus):
        rng = np.random.default_rng(83)
        for name, m in corpus.items():
            rho = rand_state(rng, m.dim_in)
            dist = outcome_distribution(m, rho)
            assert abs(sum(p for _, p in dist) - 1.0) < 1e-10, name
            assert all(p >= -1e-12 for _, p in dist)

    def test_rejects_non_state(self):
        with pytest.raises(InstrumentumError, match="trace"):
            outcome_distribution(z_luders(), np.eye(2, dtype=complex))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            outcome_distribution(z_luders(), np.eye(3, dtype=complex) / 3)


class TestPosteriorState:
    def test_luders_projects(self):
        result = posterior_state(z_luders(), plus_state(), 0)
        assert result.label == 0
        assert abs(result.probability - 0.5) < 1e-12
        assert np.allclose(result.state, np.diag([1.0, 0.0]))

    def test_matches_projection_formula_on_random_states(self):
        rng = np.random.default_rng(811)
        m = lueders(basis_pvm(3, ((0, 1), (2,))))
        proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
        for _ in range(5):
            rho = rand_state(rng, 3)
            expected = proj @ rho @ proj
            prob = float(np.trace(expected).real)
            result = posterior_state(m, rho, 0)
            assert abs(result.probability - prob) < 1e-12
            assert np.allclose(result.state, expected / prob)

    def test_zero_probability_outcome(self):
        with pytest.raises(InstrumentumError, match="zero probability"):
            posterior_state(z_luders(), np.diag([1.0, 0.0]).astype(complex), 1)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            posterior_state(z_luders(), plus_state(), "nope")


class TestConditionalOutput:
    def test_subset_pools_outcomes(self):
        m = z_luders()
        result = conditional_output(m, plus_state(), (0, 1))
        assert result.label == (0, 1)
        assert abs(result.probability - 1.0) < 1e-12
        assert np.allclose(result.state, np.diag([0.5, 0.5]))

    def test_singleton_matches_posterior(self):
        rng = np.random.default_rng(29)
        m = z_luders()
        rho = rand_state(rng, 2)
        single = posterior_state(m, rho, 0)
        pooled = conditional_output(m, rho, (0,))
        assert abs(single.probability - pooled.probability) < 1e-12
        assert np.allclose(single.state, pooled.state)

    def test_empty_subset(self):
        with pytest.raises(ValueError, match="at least one"):
            conditional_output(z_luders(), plus_state(), ())

    def test_zero_probability_subset(self):
        with pytest.raises(InstrumentumError, match="zero probability"):
            conditional_output(z_luders(), np.diag([1.0, 0.0]).astype(complex), (1,))


class TestConditionalExpectation:
    def test_reconstructs_total_expectation(self, corpus):
        rng = np.random.default_rng(397)
        for name, m in corpus.items():
            rho = rand_state(rng, m.dim_in)
            b = rand_state(rng, m.dim_out)  # any Hermitian works; a state is one
            pairs = dict(conditional_expectation(m, rho, b))
            dist = dict(outcome_distribution(m, rho))
            total = sum(dist[lab] * val for lab, val in pairs.items())
            pooled = apply_heisenberg(associate_channel(m), b)
            expected = np.trace(rho @ pooled)
            assert abs(total - expected) < 1e-9, name

    def test_skips_null_outcomes(self):
        m = z_luders()
        pairs = conditional_expectation(m, np.diag([1.0, 0.0]).astype(complex), np.eye(2))
        assert tuple(lab for lab, _ in pairs) == (0,)


QUERIES = {
    "outcome_distribution": lambda m, rho: outcome_distribution(m, rho),
    "posterior_state": lambda m, rho: posterior_state(m, rho, m.labels[0]),
    "conditional_output": lambda m, rho: conditional_output(m, rho, m.labels[:2]),
    "conditional_expectation": lambda m, rho: conditional_expectation(m, rho, np.eye(m.dim_out)),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_checks_the_state_once(name, corpus, decompositions):
    m = corpus["random-3to2"]  # the state is the only 3 x 3 operand
    rho = rand_state(np.random.default_rng(5), 3)
    decompositions.clear()
    QUERIES[name](m, rho)
    assert decompositions.number("eigvalsh") == decompositions.number("eigvalsh", (3, 3)) == 1
    assert decompositions.number("require_hermitian") == 1
    assert [a for n, a, _ in decompositions if n == "require_hermitian"][0] is rho


def per_outcome_sum(m, rho, label):
    """The posterior as a running sum of ``apply_schrodinger`` over the outcomes, checked one by one."""
    rho = require_hermitian(rho)
    raw = np.zeros((m.dim_out, m.dim_out), dtype=np.complex128)
    for lab, kraus in m.outcomes:
        if lab == label:
            raw += apply_schrodinger(kraus, rho)
    weight = float(np.trace(raw).real)
    return weight, (raw + dagger(raw)) / (2.0 * weight)


def test_posterior_is_the_per_outcome_sum_to_the_bit(corpus):
    rng = np.random.default_rng(7)
    for name, m in corpus.items():
        rho = rand_state(rng, m.dim_in)
        for label, p in outcome_distribution(m, rho):
            if p <= 1e-9:
                continue
            weight, state = per_outcome_sum(m, rho, label)
            result = posterior_state(m, rho, label)
            assert result.probability == weight, (name, label)
            assert result.state.tobytes() == state.tobytes(), (name, label)


def distribution_loop(m, rho):
    """``outcome_distribution`` as a loop over the outcomes, one product and one trace each."""
    rho = require_hermitian(rho)
    return tuple((label, float(np.trace(rho @ _effect(k)).real)) for label, k in m.outcomes)


def expectation_loop(m, rho, b):
    """``conditional_expectation`` as a loop over the outcomes, dividing one value at a time."""
    rho, b = require_hermitian(rho), np.asarray(b, dtype=np.complex128)
    out = []
    for label, kraus in m.outcomes:
        raw = apply_schrodinger(kraus, rho)
        weight = float(np.trace(raw).real)
        if weight > DEFAULT_TOL.eps_eq:
            out.append((label, complex(np.trace(raw @ b) / weight)))
    return tuple(out)


def bits(pairs):
    """``(label, value)`` pairs with the parts of each float or complex value in hex."""
    return [(label, complex(value).real.hex(), complex(value).imag.hex()) for label, value in pairs]


def test_stacked_queries_are_the_per_outcome_loops_to_the_bit(corpus):
    rng = np.random.default_rng(31)
    cases = [
        (name, m, rand_state(rng, m.dim_in, rank)) for name, m in corpus.items() for rank in (1, None)
    ]
    # an outcome that cannot fire: its zero weight is skipped with no 0 / 0
    cases.append(("zero-probability", z_luders(), np.diag([1.0, 0.0]).astype(complex)))
    shapes = {name: m for name, m, _ in cases}
    assert any(len(k) == 0 for _, k in shapes["zero-outcome"].outcomes)  # an empty Kraus set
    assert shapes["trivial-mixed"].dim_out == 1
    for name, m, rho in cases:
        b = rng.standard_normal((m.dim_out, m.dim_out, 2)) @ [1.0, 1j]
        b = b + dagger(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist, expect = outcome_distribution(m, rho), conditional_expectation(m, rho, b)
        assert bits(dist) == bits(distribution_loop(m, rho)), name
        assert bits(expect) == bits(expectation_loop(m, rho, b)), name
        assert all(type(p) is float for _, p in dist) and all(type(v) is complex for _, v in expect)
    assert len(expect) == 1 and expect[0][0] == 0  # the zero-probability outcome is omitted
