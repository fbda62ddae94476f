"""JSON document round trips and malformed-input diagnostics."""

import json

import numpy as np
import pytest

from instrumentum import (
    CompatCoefficients,
    Document,
    FormatError,
    MeasurementModel,
    Povm,
    lueders,
    load,
    measurement_model,
    minimal_stinespring,
    save,
)

from helpers import basis_pvm, rand_coeffs_tensor, rand_instrument


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
