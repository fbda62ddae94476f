"""Property tests: reports do not depend on how an outcome's Kraus family is written.

Remixing an outcome's operators by a unitary, or padding them with redundant
combinations ``B = V A`` for an isometry ``V``, leaves every outcome map, and
so every report derived from the maps, unchanged.  Reordering the outcomes,
each label kept with its map, reorders the per-outcome figures the same way
and leaves the whole-instrument ones unchanged.  Changing the input and
output bases, ``A -> V A U^dag``, leaves every rank and verdict unchanged.
The minimal Kraus count is the Choi rank an outcome was built with, a
nuclear instrument has the operator count and the action it is defined by,
and sequential composition is associative up to relabelling.  A witness
splits a non-extreme instrument or correlation matrix into two valid halves
averaging back to it, and a correlation verdict ignores a relabelling of the
rows or a diagonal phase change ``D C D^dag``.  Consequences of the criterion
from the literature pin the verdicts independently: the rank bounds of Choi
and of Li and Tam, projectivity of commuting extreme POVMs (D'Ariano, Lo
Presti, Perinotti), the verdicts of nuclear instruments, invariance under an
output isometry or input unitary, and extremality of unimodular ``v v^dag``.
The dilation and compatibility verdicts are pinned by ranks taken with numpy:
a minimal dilation's blocks span each outcome's Kraus span, Naimark fibers
have the effect ranks and a nuclear instrument's fibers the product of effect
and state ranks, and a model built at any pointer slot realizes its instrument.

A valid document of any kind, with one node replaced, deleted or duplicated or
with its text truncated, either loads or is refused with a ``FormatError`` that
starts with a field path, and the command line answers it with exit code 0, 1
or 2.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instrumentum import (
    CompatCoefficients,
    DiscreteInstrument,
    Document,
    FormatError,
    KrausSet,
    Povm,
    action_distance,
    apply_heisenberg,
    associate_povm,
    compat_channel,
    compose_sequential,
    correlation_extremal,
    correlation_witness_split,
    instrument_extremal,
    load,
    lueders,
    lueders_factorization,
    measurement_model,
    minimal_kraus,
    minimal_stinespring,
    model_intertwiner,
    nuclear,
    povm_extremal,
    save,
    validate,
    verify_dilation,
    witness_decompose,
)
from instrumentum.cli import main

from helpers import (
    basis_pvm,
    load_outcomes,
    rand_coeffs_tensor,
    rand_instrument,
    rand_isometry,
    rand_state,
    rand_unitary,
)

DIMS = st.integers(min_value=1, max_value=4)


@st.composite
def instruments(draw, dims_in=DIMS, dims_out=DIMS):
    dim_in, dim_out = draw(dims_in), draw(dims_out)
    fibers = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    if dim_out * sum(fibers) < dim_in:
        fibers[0] += -(-dim_in // dim_out) - sum(fibers)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rand_instrument(np.random.default_rng(seed), dim_in, dim_out, tuple(fibers)), seed


def remixed(m, rng):
    """Each outcome's operators mixed by a random unitary."""
    return _mixed(m, lambda n: rand_unitary(rng, n) if n else np.zeros((0, 0)))


def padded(m, rng):
    """Each outcome's operators replaced by ``V A`` for a random isometry ``V`` with more rows."""
    return _mixed(m, lambda n: rand_isometry(rng, n + 2, n) if n else np.zeros((2, 0)))


def _mixed(m, matrix_for):
    outcomes = []
    for label, kraus in m.outcomes:
        mix = matrix_for(len(kraus))
        ops = np.tensordot(mix, kraus.stack, axes=(1, 0))
        outcomes.append((label, KrausSet(m.dim_in, m.dim_out, ops)))
    return DiscreteInstrument(m.dim_in, m.dim_out, tuple(outcomes))


def report(m):
    extremal = instrument_extremal(m)
    compat = compat_channel(m)
    return {
        "valid": validate(m).passed,
        "block_dims": minimal_stinespring(m).block_dims,
        "extremal": (extremal.span_rank, extremal.required_rank, extremal.is_extreme),
        "compat": (compat.naimark_dims, compat.fiber_dims),
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments())
def test_reports_ignore_kraus_gauge_and_redundancy(case):
    m, seed = case
    expected = report(m)
    rng = np.random.default_rng([seed, 1])
    for changed in (remixed(m, rng), padded(m, rng)):
        for (_, k1), (_, k2) in zip(m.outcomes, changed.outcomes):
            assert action_distance(k1, k2) <= 1e-12
        assert report(changed) == expected


def permuted(m, order):
    """The outcomes of ``m`` in the order ``order``, each label kept with its map."""
    return DiscreteInstrument(m.dim_in, m.dim_out, tuple(m.outcomes[i] for i in order))


def per_outcome(m):
    dilation = minimal_stinespring(m)
    compat = compat_channel(m)
    return (
        validate(m).outcome_kraus_counts,
        tuple(zip(dilation.labels, dilation.block_dims)),
        tuple(zip(compat.labels, compat.naimark_dims, compat.fiber_dims)),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments(), st.data())
def test_reports_follow_outcome_reordering(case, data):
    m, _ = case
    order = data.draw(st.permutations(range(len(m))))
    changed = permuted(m, order)
    assert changed.labels == tuple(m.labels[i] for i in order)
    expected = tuple(tuple(rows[i] for i in order) for rows in per_outcome(m))
    assert per_outcome(changed) == expected
    assert validate(changed).passed == validate(m).passed
    before, after = instrument_extremal(m), instrument_extremal(changed)
    assert (after.span_rank, after.required_rank, after.is_extreme) == (
        before.span_rank,
        before.required_rank,
        before.is_extreme,
    )


def basis_changed(m, rng):
    """Every operator ``A`` of ``m`` replaced by ``V A U^dag`` for random unitaries ``U``, ``V``."""
    u, v = rand_unitary(rng, m.dim_in), rand_unitary(rng, m.dim_out)
    outcomes = tuple(
        (label, KrausSet(m.dim_in, m.dim_out, v @ kraus.stack @ u.conj().T))
        for label, kraus in m.outcomes
    )
    return DiscreteInstrument(m.dim_in, m.dim_out, outcomes), u


def povm_report(p):
    r = povm_extremal(p)
    return r.span_rank, r.required_rank, r.is_extreme, r.block_dims


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments())
def test_reports_ignore_basis_changes(case):
    m, seed = case
    changed, u = basis_changed(m, np.random.default_rng([seed, 2]))
    assert report(changed) == report(m)
    p = associate_povm(m)
    rotated = Povm(p.dim, tuple((label, u.conj().T @ e @ u) for label, e in p.effects))
    assert povm_report(rotated) == povm_report(p)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments())
def test_minimal_kraus_count_is_the_choi_rank(case):
    m, seed = case
    padded_m = padded(m, np.random.default_rng([seed, 3]))
    for (_, kraus), (_, extra) in zip(m.outcomes, padded_m.outcomes):
        # outcomes are built from generic operators, so the Choi rank is their
        # number up to the dimension of the operator space
        rank = min(len(kraus), m.dim_in * m.dim_out)
        assert len(minimal_kraus(kraus)) == len(minimal_kraus(extra)) == rank


@st.composite
def nuclear_cases(draw):
    dim_in, dim_out = draw(DIMS), draw(DIMS)
    fibers = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    if sum(fibers) < dim_in:
        fibers[0] += dim_in - sum(fibers)
    state_ranks = draw(
        st.lists(
            st.integers(min_value=1, max_value=dim_out), min_size=len(fibers), max_size=len(fibers)
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    # effects of rank min(n_i, dim_in): the POVM of a one-dimensional-output instrument
    p = associate_povm(rand_instrument(rng, dim_in, 1, tuple(fibers)))
    states = [rand_state(rng, dim_out, r) for r in state_ranks]
    effect_ranks = [min(n, dim_in) for n in fibers]
    return p, states, effect_ranks, state_ranks


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(nuclear_cases())
def test_nuclear_counts_and_action(case):
    p, states, effect_ranks, state_ranks = case
    m = nuclear(p, states)
    dim_out = states[0].shape[0]
    units = np.eye(dim_out * dim_out, dtype=complex).reshape(-1, dim_out, dim_out)
    for (_, kraus), (_, effect), sigma, e_rank, s_rank in zip(
        m.outcomes, p.effects, states, effect_ranks, state_ranks
    ):
        assert len(kraus) == e_rank * s_rank
        for b in units:
            expected = np.trace(sigma @ b) * effect
            assert np.max(np.abs(apply_heisenberg(kraus, b) - expected)) <= 1e-12


@st.composite
def composable_triples(draw):
    """Three instruments ``d0 -> d1 -> d2 -> d3`` that can be composed in sequence."""
    dims = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4))
    return [draw(instruments(st.just(a), st.just(b)))[0] for a, b in zip(dims, dims[1:])]


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(composable_triples())
def test_sequential_composition_is_associative(triple):
    m1, m2, m3 = triple
    left = compose_sequential(compose_sequential(m1, m2), m3)
    right = compose_sequential(m1, compose_sequential(m2, m3))
    assert left.labels == tuple(((i, j), k) for i, (j, k) in right.labels)
    for (_, a), (_, b) in zip(left.outcomes, right.outcomes):
        assert len(a) == len(b)
        assert np.max(np.abs(a.stack - b.stack), initial=0.0) <= 1e-12


@st.composite
def non_extreme_instruments(draw):
    """Generic instruments with more products ``A_k(i)^dag A_l(i)`` than ``dim_in^2``.

    An outcome built from ``n`` generic operators has ``min(n, dim_in * dim_out)``
    minimal ones, so the products outnumber the dimension of the operator space
    of the input, and the criterion must find a witness.
    """
    dim_in, dim_out = draw(DIMS), draw(DIMS)
    fibers = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    while sum(min(n, dim_in * dim_out) ** 2 for n in fibers) <= dim_in**2:
        fibers.append(dim_in)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rand_instrument(np.random.default_rng(seed), dim_in, dim_out, tuple(fibers))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(non_extreme_instruments())
def test_witness_halves_are_distinct_instruments_averaging_back(m):
    report = instrument_extremal(m)
    assert not report.is_extreme
    plus, minus = witness_decompose(m, report.witness)
    assert validate(plus).passed and validate(minus).passed
    apart = max(action_distance(k1, k2) for (_, k1), (_, k2) in zip(plus.outcomes, minus.outcomes))
    assert apart > 1e-6
    for (_, kraus), (_, k_plus), (_, k_minus) in zip(m.outcomes, plus.outcomes, minus.outcomes):
        pooled = np.concatenate([k_plus.stack, k_minus.stack]) / np.sqrt(2.0)
        assert action_distance(KrausSet(m.dim_in, m.dim_out, pooled), kraus) <= 1e-9


@st.composite
def correlation_matrices(draw, extreme):
    """``C = G G^dag`` for ``n`` generic unit Gram vectors of length ``r`` (the rows of ``G``).

    The projectors ``|m_i><m_i|`` of generic complex vectors span ``min(n, r^2)``
    dimensions, so ``C`` is extreme exactly when ``r^2 <= n``; real vectors span
    only ``r (r + 1) / 2``, so they are drawn only for non-extreme cases.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    r = draw(st.sampled_from([r for r in range(1, n + 1) if (r * r <= n) == extreme]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    if not extreme and draw(st.booleans()):
        g = g.real.astype(complex)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ g.conj().T, rng


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(correlation_matrices(extreme=False))
def test_correlation_halves_are_correlation_matrices_averaging_back(case):
    c, _ = case
    report = correlation_extremal(c)
    assert not report.is_extreme
    plus, minus = correlation_witness_split(report)
    for half in (plus, minus):
        assert np.max(np.abs(np.diag(half) - 1.0)) <= 1e-9
        assert np.linalg.norm(half - half.conj().T) <= 1e-9
        assert np.linalg.eigvalsh((half + half.conj().T) / 2)[0] >= -1e-9
    assert np.linalg.norm(plus - minus) > 1e-6
    assert np.linalg.norm((plus + minus) / 2 - c) <= 1e-9


def correlation_verdict(c):
    r = correlation_extremal(c)
    return r.is_extreme, r.gram_rank, r.span_rank


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.one_of(correlation_matrices(extreme=True), correlation_matrices(extreme=False)))
def test_correlation_verdicts_ignore_relabelling_and_phases(case):
    c, rng = case
    n = c.shape[0]
    order = rng.permutation(n)
    phases = np.exp(2j * np.pi * rng.random(n))
    expected = correlation_verdict(c)
    assert correlation_verdict(c[np.ix_(order, order)]) == expected  # P C P^T
    assert correlation_verdict(phases[:, None] * c * phases.conj()[None, :]) == expected


# Oracles from the literature that pin the extremality verdicts.


def extremal_verdict(r):
    return r.is_extreme, r.span_rank, r.block_dims


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(nuclear_cases(), st.integers(min_value=0, max_value=2**32 - 1))
def test_nuclear_with_pure_states_has_the_povm_verdict(case, seed):
    # A_k^dag A_l = |d_k><psi|psi><d_l| = |d_k><d_l| does not depend on psi
    p, states, _, _ = case
    rng = np.random.default_rng(seed)
    pure = [rand_state(rng, s.shape[0], 1) for s in states]
    assert extremal_verdict(instrument_extremal(nuclear(p, pure))) == extremal_verdict(
        povm_extremal(p)
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(nuclear_cases())
def test_nuclear_with_a_mixed_state_on_a_nonzero_effect_is_not_extreme(case):
    # products of sqrt(p_m) |phi_m><d_l| for two eigenvectors phi_m of sigma_i are
    # both multiples of |d_k><d_l|, so they are dependent
    p, states, effect_ranks, state_ranks = case
    mixed = any(e > 0 and s > 1 for e, s in zip(effect_ranks, state_ranks))
    if mixed:
        assert not instrument_extremal(nuclear(p, states)).is_extreme


@st.composite
def diagonal_povms(draw):
    """A POVM of diagonal effects; each basis vector goes whole to one outcome or is split."""
    dim = draw(DIMS)
    count = draw(st.integers(min_value=1, max_value=4))
    diagonals = np.zeros((count, dim))
    projective = True
    for j in range(dim):
        first = draw(st.integers(min_value=0, max_value=count - 1))
        second = draw(st.integers(min_value=0, max_value=count - 1))
        weight = draw(st.sampled_from([1.0, 0.1, 0.25, 0.5, 0.8]))
        if first == second:
            weight = 1.0
        diagonals[first, j] += weight
        diagonals[second, j] += 1.0 - weight
        projective &= weight == 1.0
    effects = tuple((i, np.diag(row).astype(complex)) for i, row in enumerate(diagonals))
    return Povm(dim, effects), projective


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(diagonal_povms())
def test_commuting_povm_is_extreme_iff_projective(case):
    # D'Ariano, Lo Presti, Perinotti (2005)
    p, projective = case
    assert povm_extremal(p).is_extreme == projective


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments())
def test_extreme_instruments_obey_the_choi_bound(case):
    # Choi (1975), Theorem 5: independent products A_k(i)^dag A_l(i) number at most dim_in^2
    m, _ = case
    r = instrument_extremal(m)
    assert r.required_rank == sum(n * n for n in r.block_dims)
    if r.is_extreme:
        assert r.required_rank <= m.dim_in**2


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.one_of(correlation_matrices(extreme=True), correlation_matrices(extreme=False)))
def test_extreme_correlation_matrices_obey_the_li_tam_bound(case):
    c, _ = case
    r = correlation_extremal(c)
    if r.is_extreme:
        assert r.gram_rank**2 <= c.shape[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments(), st.integers(min_value=1, max_value=2))
def test_verdicts_ignore_output_isometries_and_input_unitaries(case, extra):
    m, seed = case
    rng = np.random.default_rng([seed, 4])
    v = rand_isometry(rng, m.dim_out + extra, m.dim_out)
    u = rand_unitary(rng, m.dim_in)
    expected = extremal_verdict(instrument_extremal(m))
    wide = m.dim_out + extra
    widened = DiscreteInstrument(
        m.dim_in, wide, tuple((x, KrausSet(m.dim_in, wide, v @ k.stack)) for x, k in m.outcomes)
    )
    rotated = DiscreteInstrument(
        m.dim_in,
        m.dim_out,
        tuple((x, KrausSet(m.dim_in, m.dim_out, k.stack @ u)) for x, k in m.outcomes),
    )
    assert extremal_verdict(instrument_extremal(widened)) == expected
    assert extremal_verdict(instrument_extremal(rotated)) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), min_size=1, max_size=6))
def test_unimodular_rank_one_correlation_is_extreme(angles):
    v = np.exp(1j * np.array(angles))
    r = correlation_extremal(np.outer(v, v.conj()))
    assert (r.is_extreme, r.gram_rank, r.span_rank) == (True, 1, 1)



def rank(a):
    """``numpy``'s rank, taken as an oracle independent of the package's own rank rules."""
    return int(np.linalg.matrix_rank(a)) if a.size else 0


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments())
def test_minimal_dilation_spans_exactly_the_kraus_span(case):
    m, _ = case
    report = verify_dilation(m, minimal_stinespring(m))
    spans = tuple(rank(k.stack.reshape(len(k), m.dim_in * m.dim_out)) for _, k in m.outcomes)
    assert report.passed
    assert report.block_span_ranks == report.block_dims == spans


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instruments())
def test_compat_and_lueders_factorization_pass_over_the_effect_ranks(case):
    m, _ = case
    decomposition = compat_channel(m)
    assert decomposition.passed
    assert lueders_factorization(m)[1].passed
    assert decomposition.naimark_dims == tuple(rank(e) for _, e in associate_povm(m).effects)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(nuclear_cases())
def test_nuclear_fibers_are_effect_rank_times_state_rank(case):
    p, states, _, _ = case
    decomposition = compat_channel(nuclear(p, states))
    assert decomposition.passed
    expected = tuple(rank(e) * rank(sigma) for (_, e), sigma in zip(p.effects, states))
    assert decomposition.fiber_dims == expected


@st.composite
def square_instruments(draw):
    dim = st.just(draw(DIMS))
    return draw(instruments(dim, dim))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(square_instruments())
def test_every_pointer_slot_gives_a_model_that_realizes_the_instrument(case):
    m, _ = case
    ancilla = minimal_stinespring(m).total_fibers
    for j in range(ancilla):
        w, report = model_intertwiner(measurement_model(m, xi_index=j), m)
        assert report.passed, j
        assert w.shape == (ancilla, ancilla)


def valid_documents():
    """One valid document of each kind the command line reads or writes, but ``report``."""
    rng = np.random.default_rng(41)
    m = rand_instrument(rng, 2, 2, (1, 2), labels=((0, ("a", 1)), "b"))
    m = DiscreteInstrument(2, 2, m.outcomes + (("zero", KrausSet(2, 2, ())),))
    pvm = basis_pvm(2, ((0,), (1,)))
    tensors = (("a", rand_coeffs_tensor(rng, 1, 2, 2)), ("b", np.zeros((0, 2, 0))))
    states = (("x", np.eye(2) / 2), ((0, 1), np.diag([1.0, 0.0])))
    return (
        Document("matrix", np.eye(4) / 2, {"dim_in": 2, "dim_out": 2, "label": ("x", 1)}),
        Document("povm", associate_povm(m)),
        Document("instrument", m),
        Document("dilation", minimal_stinespring(m)),
        Document("model", measurement_model(lueders(pvm))),
        Document("coefficients", CompatCoefficients(2, tensors)),
        Document("states", states, {"dim": 2}),
    )


def json_nodes(node, where=()):
    """The locations of every node below the top level, parents first."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield where + (key,)
        yield from json_nodes(child, where + (key,))


@pytest.fixture(scope="module")
def document_texts(tmp_path_factory):
    texts = {}
    for doc in valid_documents():
        path = tmp_path_factory.mktemp("valid") / f"{doc.kind}.json"
        save(doc, path)
        texts[doc.kind] = path.read_text()
    return texts


@st.composite
def mutated(draw, text):
    """``text`` truncated, or with one node replaced, deleted or duplicated."""
    action = draw(st.sampled_from(("replace", "delete", "duplicate", "truncate")))
    if action == "truncate":
        return text[: draw(st.integers(min_value=0, max_value=len(text) - 1))]
    body = json.loads(text)
    *where, key = draw(st.sampled_from(list(json_nodes(body))))
    parent = body
    for step in where:
        parent = parent[step]
    if action == "replace":
        parent[key] = draw(st.sampled_from((True, None, "x", [], 10**400)))
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = [parent[key], parent[key]]
    return json.dumps(body)


FIELD_PATH = r"payload(\.\w+|\[\d+\])*: "


@pytest.mark.parametrize("kind", [doc.kind for doc in valid_documents()])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_mutated_documents_fail_with_a_field_path(document_texts, tmp_path_factory, kind, data):
    path = tmp_path_factory.getbasetemp() / f"mutant-{kind}.json"
    path.write_text(data.draw(mutated(document_texts[kind])))
    try:
        load(path)
    except FormatError as exc:
        assert re.match(f"({re.escape(str(path))}|{FIELD_PATH})", str(exc)), str(exc)
    dense, walk = load_outcomes(path)  # the same value bits, or the same message
    assert dense == walk
    command = "cp-check" if kind == "matrix" else "validate"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, str(path)]) in (0, 1, 2)
