"""JSON document round trips and malformed-input diagnostics."""

import json
import tracemalloc

import numpy as np
import pytest

from instrumentum import (
    CompatCoefficients,
    DiscreteInstrument,
    Document,
    FormatError,
    KrausSet,
    MeasurementModel,
    Povm,
    StinespringDilation,
    lueders,
    load,
    measurement_model,
    minimal_stinespring,
    save,
)
from instrumentum.formats import KINDS, _dense, label_to_json, matrix_to_json

from helpers import basis_pvm, load_outcomes, rand_coeffs_tensor, rand_instrument


def roundtrip(doc, tmp_path, name="doc.json"):
    path = tmp_path / name
    save(doc, path)
    return load(path)


class TestRoundTrips:
    def test_matrix(self, tmp_path):
        a = np.array([[0.1 + 0.2j, -1.5], [0.0, 3.0 - 0.25j]])
        doc = Document(kind="matrix", value=a, meta={"dim_in": 2, "dim_out": 2})
        back = roundtrip(doc, tmp_path)
        assert back.kind == "matrix"
        assert np.array_equal(back.value, a)
        assert back.meta["dim_in"] == 2

    def test_povm(self, tmp_path):
        p = basis_pvm(3, ((0, 1), (2,)), labels=("low", "high"))
        back = roundtrip(Document(kind="povm", value=p, meta={}), tmp_path)
        assert isinstance(back.value, Povm)
        assert back.value.labels == ("low", "high")
        for lab in p.labels:
            assert np.array_equal(back.value.effect(lab), p.effect(lab))

    def test_instrument(self, tmp_path, corpus):
        for name, m in corpus.items():
            back = roundtrip(
                Document(kind="instrument", value=m, meta={}), tmp_path, f"{name}.json"
            )
            assert back.value.labels == m.labels
            for (_, k1), (_, k2) in zip(m.outcomes, back.value.outcomes):
                assert len(k1) == len(k2)
                for op1, op2 in zip(k1.ops, k2.ops):
                    assert np.array_equal(op1, op2)

    def test_dilation_rebuilds_vectors(self, tmp_path):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        d = minimal_stinespring(m)
        back = roundtrip(Document(kind="dilation", value=d, meta={}), tmp_path)
        assert back.value.block_dims == d.block_dims
        assert np.array_equal(back.value.isometry, d.isometry)
        for a, b in zip(back.value.structure_vectors, d.structure_vectors):
            assert np.array_equal(a, b)
        for a, b in zip(back.value.generalized_vectors, d.generalized_vectors):
            assert np.array_equal(a, b)

    def test_model(self, tmp_path):
        model = measurement_model(lueders(basis_pvm(2, ((0,), (1,)))))
        back = roundtrip(Document(kind="model", value=model, meta={}), tmp_path)
        assert isinstance(back.value, MeasurementModel)
        assert back.value.block_dims == model.block_dims
        assert np.array_equal(back.value.unitary, model.unitary)
        assert np.array_equal(back.value.xi, model.xi)

    def test_coefficients(self, tmp_path):
        rng = np.random.default_rng(577)
        c = CompatCoefficients(
            2,
            (("a", rand_coeffs_tensor(rng, 2, 2, 1)), ("b", rand_coeffs_tensor(rng, 1, 2, 2))),
        )
        back = roundtrip(Document(kind="coefficients", value=c, meta={}), tmp_path)
        assert back.value.dim_k == 2
        for (_, t1), (_, t2) in zip(c.outcomes, back.value.outcomes):
            assert np.array_equal(t1, t2)

    def test_states(self, tmp_path):
        states = (("x", np.diag([1.0, 0.0]).astype(complex)), ((0, 1), np.eye(2) / 2))
        doc = Document(kind="states", value=states, meta={"dim": 2})
        back = roundtrip(doc, tmp_path)
        assert back.value[0][0] == "x"
        assert back.value[1][0] == (0, 1)
        assert np.array_equal(back.value[1][1], np.eye(2) / 2)

    def test_report(self, tmp_path):
        doc = Document(kind="report", value={"passed": True, "defect": 3e-12}, meta={})
        back = roundtrip(doc, tmp_path)
        assert back.value == {"passed": True, "defect": 3e-12}

    def test_bytes_stable_across_rewrite(self, tmp_path):
        m = rand_instrument(np.random.default_rng(13), 2, 2, (1, 2))
        doc = Document(kind="instrument", value=m, meta={})
        save(doc, tmp_path / "a.json")
        save(load(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestLabels:
    def test_nested_tuples_survive(self, tmp_path):
        m = rand_instrument(
            np.random.default_rng(5), 2, 2, (1, 1), labels=((0, ("a", 1)), "plain")
        )
        back = roundtrip(Document(kind="instrument", value=m, meta={}), tmp_path)
        assert back.value.labels == ((0, ("a", 1)), "plain")

    def test_boolean_label_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        body = {
            "kind": "povm",
            "version": "1",
            "payload": {
                "dim": 1,
                "effects": [{"label": True, "matrix": [[[1.0, 0.0]]]}],
            },
        }
        path.write_text(json.dumps(body))
        with pytest.raises(FormatError, match=r"effects\[0\]\.label"):
            load(path)


class TestMalformed:
    def write(self, tmp_path, body):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(body) if not isinstance(body, str) else body)
        return path

    def test_not_json(self, tmp_path):
        with pytest.raises(FormatError, match="not valid JSON"):
            load(self.write(tmp_path, "{nope"))

    def test_top_level_array(self, tmp_path):
        path = self.write(tmp_path, [{"kind": "matrix", "version": "1", "payload": {}}])
        with pytest.raises(FormatError, match=r"doc\.json: top level must be an object$"):
            load(path)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(FormatError, match="kind"):
            load(self.write(tmp_path, {"kind": "mystery", "version": "1", "payload": {}}))

    def test_wrong_version(self, tmp_path):
        with pytest.raises(FormatError, match="version"):
            load(self.write(tmp_path, {"kind": "matrix", "version": "2", "payload": {}}))

    def test_missing_payload(self, tmp_path):
        with pytest.raises(FormatError, match="payload"):
            load(self.write(tmp_path, {"kind": "matrix", "version": "1"}))

    def test_ragged_matrix(self, tmp_path):
        body = {
            "kind": "matrix",
            "version": "1",
            "payload": {"matrix": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
        }
        with pytest.raises(FormatError, match="matrix"):
            load(self.write(tmp_path, body))

    def test_bad_complex_pair(self, tmp_path):
        body = {
            "kind": "matrix",
            "version": "1",
            "payload": {"matrix": [[[1.0, 0.0, 3.0]]]},
        }
        with pytest.raises(FormatError, match="two"):
            load(self.write(tmp_path, body))

    def test_non_finite_entry(self, tmp_path):
        body = {
            "kind": "matrix",
            "version": "1",
            "payload": {"matrix": [[["Infinity", 0.0]]]},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(body).replace('"Infinity"', "Infinity"))
        with pytest.raises(FormatError, match="finite"):
            load(path)

    def test_number_out_of_range(self, tmp_path):
        body = json.dumps({"kind": "matrix", "version": "1", "payload": {"matrix": [[[0, 0.0]]]}})
        path = self.write(tmp_path, body.replace("[0, 0.0]", f"[{10**400}, 0.0]"))
        message = r"^payload\.matrix\[0\]\[0\]\[0\]: number is out of range"
        with pytest.raises(FormatError, match=message):
            load(path)

    # a byte that is not UTF-8, more digits than int() converts, deeper nesting than json parses
    @pytest.mark.parametrize("value", [b'"\xff"', b"9" * 5000, b"[" * 10**5 + b"]" * 10**5])
    def test_undecodable_text(self, tmp_path, value):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"kind": "matrix", "x": ' + value + b"}")
        with pytest.raises(FormatError, match="not valid JSON"):
            load(path)

    @pytest.mark.parametrize(
        "matrix, where",
        [
            ([], r"matrix: must not be empty"),
            ([[]], r"matrix\[0\]: must not be empty"),
            ([[[1.0, 0.0]], []], r"matrix\[1\]: must not be empty"),
            ([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], r"matrix\[1\]: shape \(2,\) disagrees"),
            ([[1.0, 0.0]], r"matrix\[0\]\[0\]: expected a \[re, im\] pair"),
            ([[[1.0, True]]], r"matrix\[0\]\[0\]\[1\]: expected a number"),
            ({"re": 1.0}, r"matrix: expected a rank-2 nested array"),
        ],
    )
    def test_nested_array_rule(self, tmp_path, matrix, where):
        body = {"kind": "matrix", "version": "1", "payload": {"matrix": matrix}}
        with pytest.raises(FormatError, match=rf"^payload\.{where}"):
            load(self.write(tmp_path, body))

    def coefficients(self, dim_k, tensors):
        outcomes = [{"label": i, "tensor": t} for i, t in enumerate(tensors)]
        payload = {"dim_k": dim_k, "outcomes": outcomes}
        return {"kind": "coefficients", "version": "1", "payload": payload}

    def test_tensor_planes_must_agree(self, tmp_path):
        planes = [[[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]]
        body = self.coefficients(1, [planes])
        with pytest.raises(FormatError, match=r"^payload\.outcomes\[0\]\.tensor\[1\]: shape"):
            load(self.write(tmp_path, body))

    def test_empty_tensor_keeps_middle_dimension(self, tmp_path):
        doc = load(self.write(tmp_path, self.coefficients(3, [[]])))
        assert doc.value.outcomes[0][1].shape == (0, 3, 0)

    def test_empty_tensor_with_huge_dimension(self, tmp_path):
        with pytest.raises(FormatError, match=r"^payload\.outcomes\[0\]\.tensor: "):
            load(self.write(tmp_path, self.coefficients(2**70, [[]])))

    def test_empty_kraus_with_huge_dimension(self, tmp_path):
        outcomes = [{"label": 0, "kraus": []}]
        payload = {"dim_in": 2**70, "dim_out": 1, "outcomes": outcomes}
        body = {"kind": "instrument", "version": "1", "payload": payload}
        with pytest.raises(FormatError, match=r"^payload: "):
            load(self.write(tmp_path, body))

    def test_states_dim_mismatch(self, tmp_path):
        body = {
            "kind": "states",
            "version": "1",
            "payload": {
                "dim": 2,
                "states": [{"label": "x", "matrix": [[[1.0, 0.0]]]}],
            },
        }
        with pytest.raises(FormatError, match="shape"):
            load(self.write(tmp_path, body))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load(tmp_path / "absent.json")

    def test_save_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(FormatError, match="kind"):
            save(Document(kind="mystery", value=None, meta={}), tmp_path / "x.json")


def from_pairs(pairs):
    """The complex array with these ``[re, im]`` pairs, signed zeros kept."""
    return np.array(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def json_form(doc):
    """The document spelled by ``matrix_to_json`` and ``label_to_json``, for ``json.dumps``."""
    v, label, array = doc.value, label_to_json, matrix_to_json
    if doc.kind == "matrix":
        payload = {"matrix": array(v)}
        payload.update((k, label(x) if k == "label" else x) for k, x in doc.meta.items())
    elif doc.kind == "povm":
        effects = [{"label": label(lab), "matrix": array(e)} for lab, e in v.effects]
        payload = {"dim": v.dim, "effects": effects}
    elif doc.kind == "instrument":
        outcomes = [{"label": label(lab), "kraus": array(k.stack)} for lab, k in v.outcomes]
        payload = {"dim_in": v.dim_in, "dim_out": v.dim_out, "outcomes": outcomes}
    elif doc.kind == "dilation":
        blocks = [{"label": label(lab), "block_dim": n} for lab, n in zip(v.labels, v.block_dims)]
        payload = {"dim_in": v.dim_in, "dim_out": v.dim_out, "outcomes": blocks}
        payload["isometry"] = array(v.isometry)
    elif doc.kind == "model":
        blocks = [{"label": label(lab), "block_dim": n} for lab, n in zip(v.labels, v.block_dims)]
        payload = {"system_dim": v.system_dim, "outcomes": blocks}
        payload.update(xi=array(v.xi), unitary=array(v.unitary))
    elif doc.kind == "coefficients":
        outcomes = [{"label": label(lab), "tensor": array(t)} for lab, t in v.outcomes]
        payload = {"dim_k": v.dim_k, "outcomes": outcomes}
    elif doc.kind == "states":
        states = [{"label": label(lab), "matrix": array(m)} for lab, m in v]
        payload = {"dim": doc.meta["dim"], "states": states}
    else:
        payload = v
    return {"kind": doc.kind, "version": "1", "payload": payload}


def deep_label(depth):
    label = "deep"
    for _ in range(depth):
        label = (label,)
    return label


# "\x000" spells save's first array marker, so a document holding it takes the second
ODD_LABELS = ("\x00", 'say "hi"', "ünïcødé ✓", "\x000", deep_label(100), -3)
ODD_FLOATS = from_pairs([[[-0.0, 5e-324], [1e16, -1e22]], [[1e-7, -0.0], [0.1, -2.5e-8]]])


def byte_oracle_documents():
    rng = np.random.default_rng(23)
    m = rand_instrument(rng, 2, 3, (1, 2, 1, 1, 1, 1), labels=ODD_LABELS)
    ones = DiscreteInstrument(1, 1, (("one", (np.eye(1),)), ("none", KrausSet(1, 1, ()))))
    tensors = (("a", rand_coeffs_tensor(rng, 1, 2, 2)), ("\x000", np.zeros((0, 2, 0))))
    meta = {"dim_in": 2, "dim_out": 1, "label": deep_label(100)}
    pvm = basis_pvm(2, ((0,), (1,)))
    report = {"x": [-0.0, 5e-324, 1e16, 1e22, 1e-7], "label": "\x000", "deep": [[[0]]]}
    return {
        "matrix": Document("matrix", ODD_FLOATS, meta),
        "matrix-dim-1": Document("matrix", from_pairs([[[-0.0, -0.0]]])),
        "povm": Document("povm", Povm(2, tuple((lab, ODD_FLOATS) for lab in ODD_LABELS))),
        "instrument": Document("instrument", m),
        "instrument-dim-1-empty-kraus": Document("instrument", ones),
        "dilation": Document("dilation", minimal_stinespring(m)),
        "model-rank-1-xi": Document("model", measurement_model(lueders(pvm))),
        "coefficients-empty-tensor": Document("coefficients", CompatCoefficients(2, tensors)),
        "states": Document("states", tuple((lab, ODD_FLOATS) for lab in ODD_LABELS), {"dim": 2}),
        "report": Document("report", report),
    }


class TestSaveBytes:
    @pytest.mark.parametrize("name", list(byte_oracle_documents()))
    def test_bytes_are_those_of_json_dump(self, tmp_path, name):
        doc = byte_oracle_documents()[name]
        save(doc, tmp_path / "doc.json")
        expected = json.dumps(json_form(doc), indent=2, allow_nan=False) + "\n"
        assert (tmp_path / "doc.json").read_bytes() == expected.encode("ascii")

    def test_kinds_are_covered(self):
        assert {doc.kind for doc in byte_oracle_documents().values()} == set(KINDS)

    @pytest.mark.parametrize(
        "doc",
        [
            Document("matrix", [[np.nan]]),
            Document("matrix", [[complex(0.0, -np.inf)]]),
            Document("report", {"x": [np.inf]}),
        ],
        ids=["nan", "imaginary-inf", "report"],
    )
    def test_non_finite_values_are_refused(self, tmp_path, doc):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save(doc, tmp_path / "doc.json")

    def test_report_takes_no_array(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            save(Document("report", {"x": np.eye(2)}), tmp_path / "doc.json")

    @pytest.mark.parametrize(
        "doc, message",
        [
            (Document("matrix", 1.0), r"payload\.matrix: .* got shape \(\)"),
            (Document("matrix", [1.0, 2.0]), r"payload\.matrix: .* got shape \(2,\)"),
            (Document("matrix", np.zeros((1, 2, 2))), r"payload\.matrix: .* got shape \(1, 2, 2\)"),
            (Document("matrix", np.zeros((0, 0))), r"payload\.matrix: .* got shape \(0, 0\)"),
            (Document("matrix", np.zeros((2, 0))), r"payload\.matrix: .* got shape \(2, 0\)"),
            (Document("matrix", np.eye(2), {"dim_in": 0}), r"payload\.dim_in: .* got 0"),
            (Document("matrix", np.eye(2), {"dim_out": -1}), r"payload\.dim_out: .* got -1"),
            (Document("matrix", np.eye(2), {"dim_in": True}), r"payload\.dim_in: .* got True"),
            (Document("matrix", np.eye(2), {"dim_in": 1.5}), r"payload\.dim_in: .* got 1\.5"),
            (Document("states", (), {"dim": 2}), r"payload\.states: must not be empty"),
            (
                Document("states", (("a", np.eye(2)), ("b", np.eye(3))), {"dim": 2}),
                r"payload\.states\[1\]\.matrix: expected shape \(2, 2\), got \(3, 3\)",
            ),
            (Document("states", (("a", [1.0, 0.0]),), {"dim": 2}), r"states\[0\]\.matrix: .*"),
            (Document("states", (("a", np.eye(1)),), {"dim": 0}), r"payload\.dim: .* got 0"),
        ],
        ids=[
            "0-D",
            "1-D",
            "3-D",
            "empty",
            "no-columns",
            "dim_in-0",
            "dim_out-negative",
            "dim_in-boolean",
            "dim_in-float",
            "no-states",
            "state-not-dim-sided",
            "state-1-D",
            "states-dim-0",
        ],
    )
    def test_what_load_refuses_is_not_written(self, tmp_path, doc, message):
        with pytest.raises(FormatError, match=message):
            save(doc, tmp_path / "doc.json")
        assert not (tmp_path / "doc.json").exists()
        # the same document spelled by hand is refused by load
        (tmp_path / "hand.json").write_text(json.dumps(json_form(doc)))
        with pytest.raises(FormatError):
            load(tmp_path / "hand.json")

    @pytest.mark.parametrize(
        "doc, path",
        [
            (Document("instrument", DiscreteInstrument(2, 2, ())), "payload.outcomes"),
            (Document("povm", Povm(2, ())), "payload.effects"),
            (Document("coefficients", CompatCoefficients(2, ())), "payload.outcomes"),
            (
                Document("dilation", StinespringDilation(2, 2, (), (), np.zeros((0, 2)))),
                "payload.outcomes",
            ),
        ],
        ids=["instrument", "povm", "coefficients", "dilation"],
    )
    def test_an_empty_family_is_refused_with_loads_message(self, tmp_path, doc, path):
        # the constructors allow no outcomes, but load refuses a document without any
        message = f"{path}: must not be empty"
        with pytest.raises(FormatError) as saved:
            save(doc, tmp_path / "doc.json")
        assert str(saved.value) == message
        assert not (tmp_path / "doc.json").exists()
        (tmp_path / "hand.json").write_text(json.dumps(json_form(doc)))
        with pytest.raises(FormatError) as loaded:
            load(tmp_path / "hand.json")
        assert str(loaded.value) == message

    def test_states_take_their_dimension_from_the_first_state(self, tmp_path):
        states = (("a", np.eye(2) / 2), ("b", np.diag([1.0, 0.0])))
        assert roundtrip(Document("states", states), tmp_path).meta == {"dim": 2}
        with pytest.raises(FormatError, match=r"states\[2\]\.matrix: expected shape \(2, 2\)"):
            save(Document("states", (*states, ("c", np.eye(3) / 3))), tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()

    def test_peak_memory_of_a_256_by_256_matrix(self, tmp_path):
        # the document is 3.7 MB of text; save writes it one row at a time (building the nested
        # lists first peaked at 9.0 MB), and load peaks at json's parse tree (14.1 MB)
        rng = np.random.default_rng(256)
        parts = rng.standard_normal((2, 256, 256))
        doc = Document("matrix", parts[0] + 1j * parts[1])
        path = tmp_path / "big.json"
        peaks = {}
        for name, call in (("save", lambda: save(doc, path)), ("load", lambda: load(path))):
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        assert peaks["save"] < 4.0, peaks
        assert peaks["load"] < 14.8, peaks


# leaves spelled as JSON text; each is put in place of a number, of a pair and of an outer entry
HAND_PICKED = ["true", '"1.5"', "null", "3", str(2**53 + 1), "9" * 400, "NaN", "Infinity",
               "[1.0]", "[[0.5, 0.0]]", "[]"]


def parity_documents():
    rng = np.random.default_rng(7)
    m = rand_instrument(rng, 2, 2, (2, 1))
    coefficients = CompatCoefficients(2, (("a", rand_coeffs_tensor(rng, 1, 2, 2)),))
    return {
        "matrix": (Document("matrix", rng.standard_normal((2, 2)) + 0j), ("matrix",), 2),
        "kraus": (Document("instrument", m), ("outcomes", 0, "kraus"), 3),
        "tensor": (Document("coefficients", coefficients), ("outcomes", 0, "tensor"), 3),
        "xi": (Document("model", measurement_model(m)), ("xi",), 1),
    }


def test_dense_path_reads_valid_arrays_bit_for_bit():
    for pairs in ([[[-0.0, 5e-324], [1e16, 3]]], [[-1e-7, 2**53 + 1]]):
        node = json.loads(json.dumps(pairs))
        array = _dense(node, np.ndim(pairs) - 1)
        assert array is not None
        assert array.tobytes() == from_pairs(np.array(pairs, dtype=float)).tobytes()


@pytest.mark.parametrize("field", list(parity_documents()))
@pytest.mark.parametrize("leaf", HAND_PICKED)
def test_hand_picked_leaves_load_alike_with_and_without_the_dense_path(tmp_path, field, leaf):
    doc, where, rank = parity_documents()[field]
    save(doc, tmp_path / "doc.json")
    text = (tmp_path / "doc.json").read_text()
    for depth in (rank + 1, rank, 1):  # a number, a pair, an outer entry
        body = json.loads(text)
        node = body["payload"]
        for key in where:
            node = node[key]
        for _ in range(depth - 1):
            node = node[-1]
        node[-1] = "LEAF"
        path = tmp_path / f"leaf-{depth}.json"
        path.write_text(json.dumps(body).replace('"LEAF"', leaf))
        dense, walk = load_outcomes(path)
        assert dense == walk, (depth, dense, walk)
