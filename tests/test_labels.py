"""The outcome-label grammar: what constructors accept round-trips, what load rejects they reject.

A label is a string, an integer that is not a boolean, or a tuple of labels.
"""

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
    MeasurementModel,
    Povm,
    StinespringDilation,
    conditional_output,
    load,
    lueders,
    lueders_factorization,
    posterior_state,
    save,
)

from helpers import basis_pvm, rand_coeffs_tensor, rand_instrument, rand_unitary

LEAVES = st.one_of(st.text(max_size=3), st.integers())
LABELS = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)


def rand_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def documents(labels, rng):
    """One document of every labelled kind, each carrying ``labels``."""
    n = len(labels)
    fibers = (1,) * n
    states = tuple((label, rand_matrix(rng, 2, 2)) for label in labels)
    meta = {"dim_in": 1, "dim_out": 2, "label": labels[0]}
    yield Document("matrix", rand_matrix(rng, 2, 2), meta=meta)
    yield Document("povm", Povm(2, states))
    yield Document("instrument", rand_instrument(rng, 2, 2, fibers, labels=labels))
    yield Document(
        "dilation", StinespringDilation(2, 2, labels, fibers, rand_matrix(rng, 2 * n, 2))
    )
    xi = np.zeros(n, dtype=np.complex128)
    xi[0] = 1.0
    yield Document("model", MeasurementModel(2, labels, fibers, xi, rand_unitary(rng, 2 * n)))
    tensors = tuple((label, rand_coeffs_tensor(rng, 1, 2, 1)) for label in labels)
    yield Document("coefficients", CompatCoefficients(2, tensors))
    yield Document("states", states, meta={"dim": 2})


def labels_of(doc):
    if doc.kind == "matrix":
        return (doc.meta["label"],)
    if doc.kind == "states":
        return tuple(label for label, _ in doc.value)
    return doc.value.labels


@SETTINGS
@given(st.lists(LABELS, min_size=1, max_size=4, unique=True), st.integers(0, 2**32 - 1))
def test_every_kind_round_trips_grammar_labels(tmp_path_factory, labels, seed):
    labels = tuple(labels)
    work = tmp_path_factory.mktemp("roundtrip")
    for doc in documents(labels, np.random.default_rng(seed)):
        first, second = work / f"{doc.kind}.json", work / f"{doc.kind}-again.json"
        save(doc, first)
        back = load(first)
        save(back, second)
        assert first.read_bytes() == second.read_bytes(), doc.kind
        assert labels_of(back) == labels_of(doc)
        assert repr(labels_of(back)) == repr(labels_of(doc))  # tuples stay tuples


# Python values outside the grammar, with their JSON form where one exists
BAD_LABELS = [
    (True, "true"),
    (1.5, "1.5"),
    (None, "null"),
    (("a", None), '["a", null]'),
    ((0, (1, False)), "[0, [1, false]]"),
    ((0, [1]), None),
    (np.int64(3), None),
]


def constructors(label):
    """Build every labelled value type with ``label`` as its second outcome."""
    labels = ("ok", label)
    eye = np.eye(2, dtype=np.complex128)
    xi = np.array([1.0, 0.0])
    t = np.zeros((1, 2, 1), dtype=np.complex128)
    t[0, 0, 0] = 1.0
    yield lambda: Povm(2, tuple((lab, eye / 2) for lab in labels))
    yield lambda: DiscreteInstrument(2, 2, tuple((lab, KrausSet(2, 2, (eye,))) for lab in labels))
    yield lambda: StinespringDilation(1, 1, labels, (1, 0), np.eye(1))
    yield lambda: MeasurementModel(1, labels, (1, 1), xi, np.eye(2))
    yield lambda: CompatCoefficients(2, tuple((lab, t) for lab in labels))


@pytest.mark.parametrize("label", [bad for bad, _ in BAD_LABELS], ids=repr)
def test_constructors_reject_non_grammar_labels(label):
    for build in constructors(label):
        with pytest.raises(ValueError, match="label"):
            build()


@pytest.mark.parametrize("text", [text for _, text in BAD_LABELS if text], ids=str)
def test_load_rejects_non_grammar_labels_with_a_path(tmp_path, text):
    body = {
        "kind": "povm",
        "version": "1",
        "payload": {"dim": 1, "effects": [{"label": json.loads(text), "matrix": [[[1.0, 0.0]]]}]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    with pytest.raises(FormatError, match=r"payload\.effects\[0\]\.label"):
        load(path)


def test_fault_names_the_offending_element():
    with pytest.raises(ValueError, match=r"\[1\]\[0\]: labels may not be booleans"):
        Povm(1, (((0, (True,)), np.eye(1)),))


@pytest.mark.parametrize("good", ["", "x", 0, -7, 2**70, (), ((),), (0, ("a", (1,)))], ids=repr)
def test_constructors_accept_grammar_labels(good):
    for build in constructors(good):
        build()


@pytest.mark.parametrize("label", [bad for bad, _ in BAD_LABELS], ids=repr)
def test_save_refuses_non_grammar_labels_in_kinds_without_a_constructor(tmp_path, label):
    states = Document("states", (("ok", np.eye(1)), (label, np.eye(1))), meta={"dim": 1})
    matrix = Document("matrix", np.eye(1), meta={"label": label})
    for doc in (states, matrix):
        path = tmp_path / f"{doc.kind}.json"
        with pytest.raises(FormatError, match="label"):
            save(doc, path)
        assert not path.exists()


# values that compare equal to the label 1 without being a label
LOOKALIKES = [True, 1.0, np.int64(1)]


def lookups(label):
    """Every lookup of ``label`` among the labels 0 and 1, with the error it must raise."""
    p = basis_pvm(2, ((0,), (1,)))
    m = lueders(p)
    rho = np.eye(2, dtype=np.complex128) / 2
    absent = f"no outcome labeled {label!r}"
    yield lambda: p.effect(label), f"no effect labeled {label!r}"
    yield lambda: m.outcome(label), absent
    yield lambda: posterior_state(m, rho, label), absent
    yield lambda: conditional_output(m, rho, (label,)), absent
    yield lambda: conditional_output(m, rho, (1, label)), absent
    yield lambda: lueders_factorization(m, (label,)), absent


@pytest.mark.parametrize("label", LOOKALIKES, ids=repr)
def test_lookups_refuse_values_that_only_equal_a_label(label):
    for lookup, message in lookups(label):
        with pytest.raises(KeyError, match=re.escape(message)):
            lookup()


def test_lookups_still_find_the_label_itself():
    for lookup, _ in lookups(1):
        lookup()


def test_subset_names_its_first_non_label():
    m = lueders(basis_pvm(2, ((0,), (1,))))
    with pytest.raises(KeyError, match="no outcome labeled True"):
        conditional_output(m, np.eye(2) / 2, (True, 1.0))
