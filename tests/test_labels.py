"""The outcome-label grammar: what constructors accept round-trips, what load rejects they reject.

A label is a string, an integer that is not a boolean, or a tuple of labels.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instrumentum import (
    BiInstrument,
    CompatCoefficients,
    DiscreteInstrument,
    Document,
    FormatError,
    KrausSet,
    MarkovKernel,
    InstrumentumError,
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
from instrumentum.cli import main
from instrumentum.formats import label_to_json
from instrumentum.instruments import _LABEL_DEPTH, _LABEL_DIGITS, _label_repr

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
    (10**_LABEL_DIGITS, None),  # one digit past the bound; Python would not parse its JSON
]


def constructors(label):
    """Build every labelled value type with ``label`` as its second outcome."""
    labels = ("ok", label)
    eye = np.eye(2, dtype=np.complex128)
    xi = np.array([1.0, 0.0])
    t = np.zeros((1, 2, 1), dtype=np.complex128)
    t[0, 0, 0] = 1.0
    k, x = KrausSet(1, 1, (np.eye(1),)), ("x",)
    yield lambda: Povm(2, tuple((lab, eye / 2) for lab in labels))
    yield lambda: DiscreteInstrument(2, 2, tuple((lab, KrausSet(2, 2, (eye,))) for lab in labels))
    yield lambda: BiInstrument(1, 1, ((("ok", "x"), k),), first_labels=labels, second_labels=x)
    yield lambda: BiInstrument(1, 1, ((("x", "ok"), k),), first_labels=x, second_labels=labels)
    yield lambda: StinespringDilation(1, 1, labels, (1, 0), np.eye(1))
    yield lambda: MeasurementModel(1, labels, (1, 1), xi, np.eye(2))
    yield lambda: CompatCoefficients(2, tuple((lab, t) for lab in labels))
    yield lambda: MarkovKernel(np.ones((2, 1)), [1.0], labels)


@pytest.mark.parametrize("label", [bad for bad, _ in BAD_LABELS], ids=_label_repr)
def test_constructors_reject_non_grammar_labels(label):
    for build in constructors(label):
        with pytest.raises(ValueError, match=re.escape(f"label {_label_repr(label)}")):
            build()


def test_constructors_reject_a_duplicate_label():
    for build in constructors("ok"):
        with pytest.raises(ValueError, match="duplicate outcome label 'ok'"):
            build()


def test_bi_instrument_checks_its_factor_label_sets():
    k = KrausSet(1, 1, (np.eye(1),))
    with pytest.raises(ValueError, match="label True: labels may not be booleans"):
        BiInstrument(1, 1, (((1, "x"), k),), first_labels=(True, 1.0), second_labels=("x",))
    with pytest.raises(ValueError, match="duplicate outcome label 'x'"):
        BiInstrument(1, 1, (((1, "x"), k),), first_labels=(1,), second_labels=("x", "x"))


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


@pytest.mark.parametrize("label", [bad for bad, _ in BAD_LABELS], ids=_label_repr)
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
    yield lambda: conditional_output(m, rho, (0, label)), absent
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


def test_subsets_refuse_a_repeated_label():
    m = lueders(basis_pvm(2, ((0,), (1,))))
    for subset in ((0, 0), (1, 0, 1)):
        message = f"duplicate outcome label {subset[-1]}"
        with pytest.raises(ValueError, match=message):
            lueders_factorization(m, subset)
        with pytest.raises(ValueError, match=message):
            conditional_output(m, np.eye(2) / 2, subset)


def nested(depth, array=tuple):
    """The label 0 inside ``depth`` arrays of type ``array``."""
    label = 0
    for _ in range(depth):
        label = array((label,))
    return label


def test_label_at_the_nesting_bound_round_trips_and_prints(tmp_path, capsys):
    deepest = nested(_LABEL_DEPTH)
    for doc in documents((deepest, "b"), np.random.default_rng(3)):
        first, second = tmp_path / f"{doc.kind}.json", tmp_path / f"{doc.kind}-again.json"
        save(doc, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes(), doc.kind
        assert labels_of(load(first))[0] == deepest, doc.kind
    m = lueders(Povm(2, ((deepest, np.diag([1.0, 0.0])), ("b", np.diag([0.0, 1.0])))))
    save(Document("instrument", m), tmp_path / "m.json")
    save(Document("matrix", np.eye(2) / 2), tmp_path / "rho.json")
    text = json.dumps(nested(_LABEL_DEPTH, list))
    argv = ["posterior", str(tmp_path / "m.json"), "--state", str(tmp_path / "rho.json")]
    assert main(argv + ["--outcome", text]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == nested(_LABEL_DEPTH, list)
    assert report["probability"] == pytest.approx(0.5)


def test_label_past_the_nesting_bound_is_refused_everywhere(tmp_path):
    too_deep = nested(_LABEL_DEPTH + 1)
    reason = f"labels may nest at most {_LABEL_DEPTH} arrays deep"
    for build in constructors(too_deep):
        with pytest.raises(ValueError, match=reason):
            build()
    with pytest.raises(FormatError, match=reason):
        label_to_json(too_deep)
    effect = {"label": nested(_LABEL_DEPTH + 1, list), "matrix": [[[1.0, 0.0]]]}
    path = tmp_path / "deep.json"
    body = {"kind": "povm", "version": "1", "payload": {"dim": 1, "effects": [effect]}}
    path.write_text(json.dumps(body))
    where = re.escape("payload.effects[0].label" + "[0]" * _LABEL_DEPTH)
    with pytest.raises(FormatError, match=f"^{where}: {reason}$"):
        load(path)


def test_labels_of_any_depth_are_named_in_messages():
    # a label built in Python may nest past the interpreter's recursion limit; messages name
    # labels through one repr that shows levels past the bound as (...), so each call still
    # raises its own error
    too_deep = nested(5000)
    reason = f"labels may nest at most {_LABEL_DEPTH} arrays deep"
    for build in constructors(too_deep):
        with pytest.raises(ValueError, match=reason):
            build()
    with pytest.raises(ValueError, match=re.escape("(...),),") + ".* has shape"):
        Povm(1, ((too_deep, np.eye(2)),))
    with pytest.raises(FormatError, match=reason):
        label_to_json(too_deep)
    p = basis_pvm(2, ((0,), (1,)))
    m = lueders(p)
    rho = np.eye(2) / 2
    for lookup in (
        lambda: p.effect(too_deep),
        lambda: m.outcome(too_deep),
        lambda: posterior_state(m, rho, too_deep),
        lambda: conditional_output(m, rho, (1, too_deep)),
    ):
        with pytest.raises(KeyError, match=r"no (effect|outcome) labeled \(\(\(.*\(\.\.\.\)"):
            lookup()


def test_messages_show_labels_at_the_bound_in_full():
    deepest = nested(_LABEL_DEPTH)
    with pytest.raises(KeyError, match=re.escape(f"no outcome labeled {deepest!r}")):
        lueders(basis_pvm(2, ((0,), (1,)))).outcome(deepest)
    with pytest.raises(ValueError, match=re.escape(f"duplicate outcome label {deepest!r}")):
        Povm(1, ((deepest, np.eye(1)), (deepest, np.eye(1))))


@pytest.fixture
def luders_and_state(tmp_path):
    save(Document("instrument", lueders(basis_pvm(2, ((0,), (1,))))), tmp_path / "m.json")
    save(Document("matrix", np.eye(2) / 2), tmp_path / "rho.json")
    return tmp_path / "m.json", tmp_path / "rho.json"


def test_validate_refuses_a_document_with_a_deep_label(tmp_path, capsys, luders_and_state):
    body = json.loads(luders_and_state[0].read_text())
    body["payload"]["outcomes"][0]["label"] = nested(600, list)
    (tmp_path / "deep.json").write_text(json.dumps(body))
    assert main(["validate", str(tmp_path / "deep.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: payload.outcomes[0].label[0]") and "nest at most" in err


def test_posterior_refuses_an_outcome_deeper_than_the_parser_recurses(capsys, luders_and_state):
    text = "[" * 5000 + "0" + "]" * 5000
    m, rho = luders_and_state
    assert main(["posterior", str(m), "--state", str(rho), "--outcome", text]) == 1
    assert "nest at most" in capsys.readouterr().err


def test_integer_labels_are_bounded_at_the_digits_python_converts(tmp_path):
    longest = 10**_LABEL_DIGITS - 1
    for doc in documents((longest, -longest), np.random.default_rng(5)):
        path = tmp_path / f"{doc.kind}.json"
        save(doc, path)
        assert labels_of(load(path)) == labels_of(doc), doc.kind
    reason = f"integer labels may have at most {_LABEL_DIGITS} digits"
    named = "<integer of more than 4300 digits>"
    for too_long in (10**_LABEL_DIGITS, -(10**_LABEL_DIGITS), 10**5000):
        with pytest.raises(FormatError, match=re.escape(f"label {named}: {reason}")):
            label_to_json(too_long)
        with pytest.raises(FormatError, match=re.escape(f"label (0, ({named},))[1][0]: {reason}")):
            label_to_json((0, (too_long,)))
        with pytest.raises(ValueError, match=re.escape(f"label [{named}]: expected")):
            Povm(1, (([too_long], np.eye(1)),))
    m = DiscreteInstrument(1, 1, ((longest, KrausSet(1, 1, (np.eye(1),))),))
    with pytest.raises(KeyError, match=re.escape(f"no outcome labeled {named}")):
        m.outcome(10**5000 + 1)


TEXT_LABEL = ("a", (1, "b"))


def test_labels_are_formatted_only_for_a_message(label_texts):
    pvm = basis_pvm(2, ((0,), (1,)), labels=(TEXT_LABEL, "c"))  # Povm checks each effect
    m = lueders(pvm)
    CompatCoefficients(2, ((TEXT_LABEL, np.ones((1, 2, 1))),))
    posterior_state(m, np.eye(2) / 2, TEXT_LABEL)
    conditional_output(m, np.eye(2) / 2, (TEXT_LABEL,))
    assert len(label_texts) == 0


def test_messages_that_name_a_label_keep_their_words(label_texts):
    name = "effect ('a', (1, 'b'))"
    bad_effects = {
        f"{name} has shape (3, 3), expected (2, 2)": np.eye(3),
        f"{name} must be 2-dimensional, got shape (2,)": np.ones(2),
        f"{name} contains NaN or Inf entries": np.full((2, 2), np.nan),
    }
    for message, effect in bad_effects.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Povm(2, ((TEXT_LABEL, effect),))
    skew = Povm(2, ((TEXT_LABEL, np.array([[0.5, 1.0], [0.0, 0.5]])), ("c", np.eye(2) / 2)))
    with pytest.raises(InstrumentumError, match=f"^{re.escape(name)} is not Hermitian: defect "):
        lueders(skew)
    message = "coefficient tensor for ('a', (1, 'b')) contains NaN or Inf entries"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CompatCoefficients(2, ((TEXT_LABEL, np.full((1, 2, 1), np.nan)),))
    m = lueders(basis_pvm(2, ((0,), (1,)), labels=(TEXT_LABEL, "c")))
    message = "outcome ('a', (1, 'b')) has zero probability on this state"
    with pytest.raises(InstrumentumError, match=f"^{re.escape(message)}$"):
        posterior_state(m, np.diag([0.0, 1.0]), TEXT_LABEL)
    assert len(label_texts) == 6
