"""End-to-end runs of the command line interface through ``main``."""

import argparse
import json

import numpy as np
import pytest

from instrumentum import (
    CompatCoefficients,
    DiscreteInstrument,
    Document,
    KrausSet,
    Povm,
    choi,
    load,
    lueders,
    save,
    trivial_from_channel,
    validate,
    verify_dilation,
    witness_decompose,
)
from instrumentum import cli
from instrumentum.cli import main

from helpers import PAULI, basis_pvm, depolarizing_kraus, near_cut_instrument


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out.strip() else None
        return code, report, captured.err

    return invoke


@pytest.fixture
def luders_file(tmp_path):
    path = tmp_path / "luders.json"
    save(Document(kind="instrument", value=lueders(basis_pvm(2, ((0,), (1,))))), path)
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    eye = np.eye(2, dtype=complex)
    from instrumentum import trivial_from_povm

    m = trivial_from_povm(Povm(2, (("a", eye / 2), ("b", eye / 2))))
    path = tmp_path / "trivial.json"
    save(Document(kind="instrument", value=m), path)
    return str(path)


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "plus.json"
    save(Document(kind="matrix", value=np.full((2, 2), 0.5, dtype=complex)), path)
    return str(path)


class TestValidate:
    def test_passes(self, run, luders_file):
        code, report, _ = run("validate", luders_file)
        assert code == 0
        assert report["passed"] is True
        assert report["normalization_defect"] == 0.0

    def test_broken_instrument_exits_two(self, run, tmp_path):
        m_doc = {
            "kind": "instrument",
            "version": "1",
            "payload": {
                "dim_in": 1,
                "dim_out": 1,
                "outcomes": [
                    {"label": "only", "kraus": [[[[0.5, 0.0]]]]},
                ],
            },
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(m_doc))
        code, report, _ = run("validate", str(path))
        assert code == 2
        assert report["passed"] is False

    def test_missing_file_exits_one(self, run, tmp_path):
        code, report, err = run("validate", str(tmp_path / "absent.json"))
        assert code == 1
        assert report is None
        assert "absent.json" in err

    def test_wrong_kind_exits_one(self, run, tmp_path, state_file):
        code, _, err = run("validate", state_file)
        assert code == 1
        assert "kind" in err


class TestExtremal:
    def test_extreme_instrument(self, run, luders_file):
        code, report, _ = run("extremal", luders_file)
        assert code == 0
        assert report["is_extreme"] is True
        assert report["span_rank"] == report["required_rank"] == 2

    def test_assert_flag(self, run, trivial_file):
        code, report, _ = run("extremal", trivial_file, "--assert-extreme")
        assert code == 2
        assert report["is_extreme"] is False

    def test_witness_file_round_trips(self, run, trivial_file, tmp_path):
        out = tmp_path / "w.json"
        code, report, _ = run("extremal", trivial_file, "--witness", str(out))
        assert code == 0
        doc = load(out)
        assert doc.kind == "states"
        witness = tuple(block for _, block in doc.value)
        m = load(trivial_file).value
        plus, minus = witness_decompose(m, witness)
        assert validate(plus).passed
        assert validate(minus).passed

    def test_witness_blocks_padded_to_common_size(self, run, tmp_path, corpus):
        path = tmp_path / "prep.json"
        save(Document(kind="instrument", value=corpus["preparation"]), path)
        out = tmp_path / "w.json"
        code, report, _ = run("extremal", str(path), "--witness", str(out))
        assert code == 0
        sizes = {entry["block_dim"] for entry in report["outcomes"]}
        assert sizes == {1, 2}
        doc = load(out)
        assert doc.meta["dim"] == 2
        assert all(block.shape == (2, 2) for _, block in doc.value)

    def test_witness_on_extreme_exits_two(self, run, luders_file, tmp_path):
        code, _, err = run("extremal", luders_file, "--witness", str(tmp_path / "w.json"))
        assert code == 2
        assert "extreme" in err

    def test_povm_input(self, run, tmp_path):
        path = tmp_path / "pvm.json"
        save(Document(kind="povm", value=basis_pvm(2, ((0,), (1,)))), path)
        code, report, _ = run("extremal", str(path))
        assert code == 0
        assert report["is_extreme"] is True


class TestDilateRefine:
    def test_dilate_output_reverifies(self, run, luders_file, tmp_path):
        out = tmp_path / "dil.json"
        code, report, _ = run("dilate", luders_file, "-o", str(out))
        assert code == 0
        assert report["passed"] is True
        dilation = load(out).value
        m = load(luders_file).value
        assert verify_dilation(m, dilation).passed

    def test_refine_output_validates(self, run, trivial_file, tmp_path):
        out = tmp_path / "ref.json"
        code, report, _ = run("refine", trivial_file, "-o", str(out))
        assert code == 0
        refined = load(out).value
        assert validate(refined).passed
        assert refined.labels == ((0, "a"), (1, "a"), (0, "b"), (1, "b"))


class TestPosterior:
    def test_distribution_only(self, run, luders_file, state_file):
        code, report, _ = run("posterior", luders_file, "--state", state_file)
        assert code == 0
        probs = {entry["label"]: entry["probability"] for entry in report["distribution"]}
        assert probs == {0: 0.5, 1: 0.5}

    def test_single_outcome(self, run, luders_file, state_file):
        code, report, _ = run("posterior", luders_file, "--state", state_file, "--outcome", "0")
        assert code == 0
        assert report["probability"] == pytest.approx(0.5)
        assert report["state"][0][0] == [1.0, 0.0]

    def test_subset(self, run, luders_file, state_file):
        code, report, _ = run("posterior", luders_file, "--state", state_file, "--subset", "0,1")
        assert code == 0
        assert report["probability"] == pytest.approx(1.0)

    def test_outcome_and_subset_together_is_a_usage_error(self, run, luders_file, state_file):
        argv = ("posterior", luders_file, "--state", state_file, "--outcome", "0", "--subset", "0,1")
        code, report, err = run(*argv)
        assert code == 1
        assert report is None
        assert err == "error: argument --subset: not allowed with argument --outcome\n"

    def test_unknown_outcome_exits_one(self, run, luders_file, state_file):
        code, _, err = run("posterior", luders_file, "--state", state_file, "--outcome", "9")
        assert code == 1
        assert "9" in err

    def test_non_square_state_exits_one(self, run, luders_file, tmp_path):
        path = tmp_path / "rect.json"
        save(Document(kind="matrix", value=np.full((2, 3), 0.5, dtype=complex)), path)
        code, report, err = run("posterior", luders_file, "--state", str(path))
        assert code == 1
        assert report is None
        assert "must be square" in err


class TestComposeAndCompat:
    def test_compose_writes_loadable_instrument(self, run, luders_file, tmp_path):
        out = tmp_path / "sq.json"
        code, report, _ = run("compose", luders_file, luders_file, "-o", str(out))
        assert code == 0
        assert report["outcome_count"] == 4
        composed = load(out).value
        assert validate(composed).passed
        assert composed.labels[0] == (0, 0)

    def test_compose_dimension_mismatch(self, run, luders_file, tmp_path):
        other = tmp_path / "qutrit.json"
        save(Document(kind="instrument", value=lueders(basis_pvm(3, ((0, 1, 2),)))), other)
        code, _, err = run("compose", luders_file, str(other))
        assert code == 1
        assert "compose" in err

    def test_compat_build(self, run, tmp_path):
        eye = np.eye(2, dtype=complex)
        povm_path = tmp_path / "povm.json"
        save(Document(kind="povm", value=Povm(2, (("a", eye / 2), ("b", eye / 2)))), povm_path)
        t = np.zeros((2, 2, 1), dtype=complex)
        t[0, 0, 0] = 1.0
        t[1, 1, 0] = 1.0
        coeff_path = tmp_path / "coeffs.json"
        save(
            Document(kind="coefficients", value=CompatCoefficients(2, (("a", t), ("b", t)))),
            coeff_path,
        )
        out = tmp_path / "built.json"
        code, report, _ = run("compat-build", str(povm_path), str(coeff_path), "-o", str(out))
        assert code == 0
        assert report["povm_defect"] <= 1e-10
        assert validate(load(out).value).passed

    def test_compat_channel(self, run, luders_file):
        code, report, _ = run("compat-channel", luders_file)
        assert code == 0
        assert report["passed"] is True
        assert report["max_residual"] <= 1e-9

    def test_factorize_subset(self, run, luders_file, tmp_path):
        out = tmp_path / "factor.json"
        code, report, _ = run("factorize", luders_file, "--subset", "0", "-o", str(out))
        assert code == 0
        assert report["passed"] is True
        factor = load(out).value
        assert len(factor.outcomes) == 1
        assert validate(factor).passed


    @pytest.mark.parametrize("argv", [("compat-channel",), ("factorize", "--subset", "0")])
    def test_near_cut_effect_passes(self, run, tmp_path, argv):
        # the first effect has eigenvalues 1, 1e-9 and 0
        path = tmp_path / "near-cut.json"
        save(Document(kind="instrument", value=near_cut_instrument(0, 1e-9)), path)
        code, report, err = run(argv[0], str(path), *argv[1:])
        assert code == 0, err
        assert report["passed"] is True


class TestNuclearExtract:
    def test_extracts_states(self, run, tmp_path, corpus):
        path = tmp_path / "nuc.json"
        save(Document(kind="instrument", value=corpus["nuclear-qubit"]), path)
        out = tmp_path / "states.json"
        code, report, _ = run("nuclear-extract", str(path), "-o", str(out))
        assert code == 0
        assert report["passed"] is True
        doc = load(out)
        assert doc.meta["dim"] == 2
        assert len(doc.value) == 2

    def test_rank_two_effect_exits_two(self, run, trivial_file):
        code, _, err = run("nuclear-extract", trivial_file)
        assert code == 2
        assert "rank" in err


class TestModels:
    def test_model_round_trip(self, run, luders_file, tmp_path):
        out = tmp_path / "model.json"
        code, report, _ = run("model", luders_file, "-o", str(out))
        assert code == 0
        assert report["ancilla_dim"] == 2
        model = load(out).value
        assert model.system_dim == 2

    def test_model_dimension_change_exits_two(self, run, tmp_path, corpus):
        path = tmp_path / "prep23.json"
        save(Document(kind="instrument", value=corpus["random-2to3"]), path)
        code, _, err = run("model", str(path))
        assert code == 2
        assert "dimension" in err

    def test_standard_model(self, run, tmp_path):
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        xi_path = tmp_path / "xi.json"
        save(Document(kind="matrix", value=np.diag([0.0, 1.0]).astype(complex)), a_path)
        save(
            Document(kind="matrix", value=np.array([[0, -1j], [1j, 0]], dtype=complex)), b_path
        )
        save(Document(kind="matrix", value=np.array([[1.0], [0.0]], dtype=complex)), xi_path)
        out = tmp_path / "inst.json"
        povm_out = tmp_path / "povm.json"
        code, report, _ = run(
            "standard-model",
            "--a-op", str(a_path),
            "--b-op", str(b_path),
            "--coupling", str(np.pi / 2),
            "--xi", str(xi_path),
            "--pointer", "0;1",
            "-o", str(out),
            "--povm-output", str(povm_out),
        )
        assert code == 0
        kernel = np.array(report["kernel"])
        assert np.allclose(kernel, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert validate(load(out).value).passed
        povm = load(povm_out).value
        assert np.allclose(povm.effect(0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_model_reaches_tol_scale(self, run, tmp_path):
        # over-normalized by 2e-5: validate passes it at --tol-scale 1e5, so model must too
        s = 1 + 1e-5
        m = DiscreteInstrument(2, 2, ((0, (s * np.diag([1.0, 0.0]),)), (1, (s * np.diag([0.0, 1.0]),))))
        path, out = tmp_path / "over.json", tmp_path / "model.json"
        save(Document("instrument", m), path)
        assert run("validate", str(path), "--tol-scale", "1e5")[0] == 0
        code, _, err = run("model", str(path), "--tol-scale", "1e5", "-o", str(out))
        assert code == 0, err
        assert load(out).value.ancilla_dim == 2

    def test_standard_model_reaches_tol_scale(self, run, tmp_path):
        # ||xi|| = 1 + 1e-6 passes the probe check at --tol-scale 1e4; columns sum to ||xi||^2
        paths = {name: str(tmp_path / f"{name}.json") for name in ("a", "b", "xi")}
        save(Document("matrix", np.diag([0.0, 1.0]).astype(complex)), paths["a"])
        save(Document("matrix", PAULI["Y"]), paths["b"])
        save(Document("matrix", np.array([[1 + 1e-6], [0.0]], dtype=complex)), paths["xi"])
        code, report, err = run(
            "standard-model",
            "--tol-scale", "1e4",
            "--a-op", paths["a"],
            "--b-op", paths["b"],
            "--coupling", "0.7",
            "--xi", paths["xi"],
            "--pointer", "0;1",
        )
        assert code == 0, err
        assert np.allclose(np.sum(report["kernel"], axis=0), (1 + 1e-6) ** 2, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "spelling", [("--coupling", "{}"), ("--coupling={}",)], ids=["apart", "joined"]
    )
    def test_negative_coupling_in_any_float_spelling(self, run, probe_files, spelling):
        def model(coupling):
            coupling_args = (arg.format(coupling) for arg in spelling)
            return run("standard-model", *probe_files, "--pointer", "0;1", *coupling_args)

        code, report, err = model("-1e-3")
        assert code == 0, err
        assert report == model("-0.001")[1]
        code, report, err = model("-inf")
        assert (code, report, err) == (1, None, "error: coupling must be finite, got -inf\n")

    def test_bad_pointer_spec(self, run, tmp_path):
        a_path = tmp_path / "a.json"
        save(Document(kind="matrix", value=np.eye(2, dtype=complex)), a_path)
        code, _, err = run(
            "standard-model",
            "--a-op", str(a_path),
            "--b-op", str(a_path),
            "--coupling", "1.0",
            "--xi", str(a_path),
            "--pointer", ";",
        )
        assert code == 1


class TestCorrExtreme:
    def test_negative_eigenvalue_within_eps_psd(self, run, tmp_path):
        path = tmp_path / "corr.json"
        c = np.array([[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]], dtype=complex)
        save(Document(kind="matrix", value=c), path)
        code, report, _ = run("corr-extreme", str(path))
        assert code == 0
        assert report["gram_rank"] == 1
        assert report["is_extreme"]

    def test_non_square_matrix_exits_one(self, run, tmp_path):
        path = tmp_path / "rect.json"
        save(Document(kind="matrix", value=np.ones((2, 3), dtype=complex)), path)
        code, report, err = run("corr-extreme", str(path))
        assert code == 1
        assert report is None
        assert "correlation matrix must be square" in err

    def test_identity_is_not_extreme(self, run, tmp_path):
        # three orthogonal unit vectors: r = 3 and r^2 = 9 > n = 3, so a witness splits it
        path = tmp_path / "id3.json"
        save(Document(kind="matrix", value=np.eye(3, dtype=complex)), path)
        code, report, err = run("corr-extreme", str(path))
        assert (code, err) == (0, "")
        assert (report["is_extreme"], report["gram_rank"], report["span_rank"]) == (False, 3, 3)
        assert report["marginal"] is False
        assert np.shape(report["witness"]) == (3, 3, 2)
        assert run("corr-extreme", str(path), "--assert-extreme") == (2, report, "")


class TestChoiAndCp:
    def test_choi_single_outcome(self, run, luders_file, tmp_path):
        code, report, _ = run("choi", luders_file, "--outcome", "0")
        assert code == 0
        assert report["rank"] == 1

    def test_pooled_choi_feeds_cp_check(self, run, luders_file, tmp_path):
        out = tmp_path / "choi.json"
        code, report, _ = run("choi", luders_file, "-o", str(out))
        assert code == 0
        assert report["rank"] == 2
        code, report, _ = run("cp-check", str(out))
        assert code == 0
        assert report["completely_positive"] is True
        assert report["dim_in"] == 2

    def test_swap_choi_exits_two(self, run, tmp_path):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        path = tmp_path / "swap.json"
        save(Document(kind="matrix", value=swap), path)
        code, report, _ = run("cp-check", str(path))
        assert code == 2
        assert report["completely_positive"] is False

    def test_dim_inference_failure(self, run, tmp_path):
        path = tmp_path / "odd.json"
        save(Document(kind="matrix", value=np.eye(6, dtype=complex)), path)
        code, _, err = run("cp-check", str(path))
        assert code == 1
        assert "perfect square" in err

    def test_explicit_dims(self, run, tmp_path):
        path = tmp_path / "odd.json"
        save(Document(kind="matrix", value=np.eye(6, dtype=complex) / 2), path)
        code, report, _ = run("cp-check", str(path), "--dim-in", "3")
        assert code == 0
        assert report["dim_out"] == 2

    def test_conflicting_dims(self, run, tmp_path):
        path = tmp_path / "four.json"
        save(Document(kind="matrix", value=np.eye(4, dtype=complex)), path)
        code, _, err = run("cp-check", str(path), "--dim-in", "3", "--dim-out", "3")
        assert code == 1

    def test_dimension_that_does_not_divide_the_side(self, run, tmp_path):
        path = tmp_path / "four.json"
        save(Document(kind="matrix", value=np.eye(4, dtype=complex)), path)
        code, report, err = run("cp-check", str(path), "--dim-in", "3")
        assert (code, report) == (1, None)
        assert err == "error: matrix side 4 is not divisible by dimension 3\n"


    def test_out_of_range_entry_exits_one(self, run, tmp_path):
        path = tmp_path / "big.json"
        save(Document(kind="matrix", value=np.eye(4, dtype=complex)), path)
        path.write_text(path.read_text().replace("1.0", str(10**400), 1))
        code, report, err = run("cp-check", str(path))
        assert (code, report) == (1, None)
        assert "payload.matrix[0][0][0]: number is out of range" in err

    def test_truncated_document_exits_one(self, run, tmp_path):
        path = tmp_path / "cut.json"
        save(Document(kind="matrix", value=np.eye(4, dtype=complex)), path)
        path.write_text(path.read_text()[:100])
        code, report, err = run("cp-check", str(path))
        assert (code, report) == (1, None)
        assert "cut.json: not valid JSON" in err


class TestTupleLabels:
    @pytest.fixture
    def composed_file(self, run, luders_file, tmp_path):
        out = tmp_path / "sq.json"
        code, _, err = run("compose", luders_file, luders_file, "-o", str(out))
        assert code == 0, err
        return str(out)

    def test_factorize_subset_of_tuple_labels(self, run, composed_file, tmp_path):
        out = tmp_path / "factor.json"
        code, report, err = run(
            "factorize", composed_file, "--subset", "[0,0],[1,1]", "-o", str(out)
        )
        assert code == 0, err
        assert report["passed"] is True
        assert report["subset"] == [[0, 0], [1, 1]]
        assert validate(load(out).value).passed

    def test_posterior_subset_of_tuple_labels(self, run, composed_file, state_file):
        code, report, err = run(
            "posterior", composed_file, "--state", state_file, "--subset", "[0, 0],[0, 1]"
        )
        assert code == 0, err
        assert report["subset"] == [[0, 0], [0, 1]]
        assert report["probability"] == pytest.approx(0.5)

    def test_posterior_tuple_outcome(self, run, composed_file, state_file):
        code, report, err = run(
            "posterior", composed_file, "--state", state_file, "--outcome", "[1, 1]"
        )
        assert code == 0, err
        assert report["outcome"] == [1, 1]
        assert report["probability"] == pytest.approx(0.5)

    def test_subset_of_refined_labels(self, run, trivial_file, tmp_path):
        refined = tmp_path / "ref.json"
        assert run("refine", trivial_file, "-o", str(refined))[0] == 0
        code, report, err = run("factorize", str(refined), "--subset", '[0,"a"],[1,"a"]')
        assert code == 0, err
        assert report["subset"] == [[0, "a"], [1, "a"]]

    @pytest.mark.parametrize(
        "label, where", [("[0, true]", "[1]: labels may not be booleans"), ("[0, [1.5]]", "[1][0]")]
    )
    def test_malformed_tuple_label_names_the_element(
        self, run, composed_file, state_file, label, where
    ):
        code, report, err = run(
            "posterior", composed_file, "--state", state_file, "--outcome", label
        )
        assert code == 1
        assert report is None
        assert f"label {label!r}{where}" in err


class TestSingleOutcomeLabel:
    """A single-outcome instrument is labeled ``0`` and answers ``--outcome 0``/``--subset 0``."""

    @pytest.fixture(params=["channel", "factorize"])
    def single_file(self, request, run, luders_file, tmp_path):
        path = tmp_path / "single.json"
        if request.param == "channel":
            m = trivial_from_channel(KrausSet(2, 2, depolarizing_kraus().stack))
            save(Document(kind="instrument", value=m), path)
        else:
            code, _, err = run("factorize", luders_file, "-o", str(path))
            assert code == 0, err
        assert load(path).value.labels == (0,)
        return str(path)

    def test_posterior_outcome_zero(self, run, single_file, state_file):
        code, report, err = run("posterior", single_file, "--state", state_file, "--outcome", "0")
        assert code == 0, err
        assert report["outcome"] == 0
        assert report["probability"] == pytest.approx(1.0)

    def test_choi_outcome_zero(self, run, single_file):
        code, report, err = run("choi", single_file, "--outcome", "0")
        assert code == 0, err
        assert report["dim_in"] == report["dim_out"] == 2

    def test_factorize_subset_zero(self, run, single_file):
        code, report, err = run("factorize", single_file, "--subset", "0")
        assert code == 0, err
        assert report["passed"] is True
        assert report["subset"] == [0]


@pytest.fixture
def probe_files(tmp_path):
    """``--a-op``/``--b-op``/``--xi`` arguments of a 2-dimensional ``standard-model`` probe."""
    paths = {name: tmp_path / f"{name}.json" for name in ("a", "b", "xi")}
    save(Document(kind="matrix", value=np.diag([0.0, 1.0]).astype(complex)), paths["a"])
    save(Document(kind="matrix", value=PAULI["Y"]), paths["b"])
    save(Document(kind="matrix", value=np.array([[1.0], [0.0]], dtype=complex)), paths["xi"])
    return ["--a-op", str(paths["a"]), "--b-op", str(paths["b"]), "--xi", str(paths["xi"])]


class TestDomainLookupErrors:
    """A label or pointer the input does not have, or a pointer that does not parse, exits 1
    with its message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("posterior", "{m}", "--state", "{rho}", "--outcome", "nope"), "no outcome labeled 'nope'"),
            (("factorize", "{m}", "--subset", "nope"), "no outcome labeled 'nope'"),
            (("choi", "{m}", "--outcome", "7"), "no outcome labeled 7"),
            (
                ("standard-model", "{probe}", "--coupling", "1.0", "--pointer", "0"),
                "pointer blocks must partition the ancilla basis indices",
            ),
            (
                ("standard-model", "{probe}", "--coupling", "1.0", "--pointer", "0;1", "--labels", "a,a"),
                "duplicate outcome label 'a'",
            ),
            (("factorize", "{m}", "--subset", "0,0"), "duplicate outcome label 0"),
            (("posterior", "{m}", "--state", "{rho}", "--subset", "1,0,1"), "duplicate outcome label 1"),
            (("posterior", "{m}", "--state", "{rho}", "--subset", ","), "subset ',': no labels"),
            (
                ("standard-model", "{probe}", "--coupling", "1.0", "--pointer", "0;"),
                "pointer '0;': empty block",
            ),
            (
                ("standard-model", "{probe}", "--coupling", "1.0", "--pointer", "a;1"),
                "pointer 'a;1': 'a' is not an integer",
            ),
            (
                ("standard-model", "{probe}", "--coupling", "1.0", "--pointer", "0;1.5"),
                "pointer '0;1.5': '1.5' is not an integer",
            ),
        ],
    )
    def test_exits_one_with_message(self, run, luders_file, state_file, probe_files, argv, message):
        args = []
        for arg in argv:
            if arg == "{probe}":
                args.extend(probe_files)
            else:
                args.append(arg.format(m=luders_file, rho=state_file))
        code, report, err = run(*args)
        assert code == 1
        assert report is None
        assert err == f"error: {message}\n"


def defect_documents(tmp_path):
    """Paths of inputs whose normalization defect is 1e-7, keyed by command.

    The default threshold is ``1e-9 * sqrt(2)``; ``--tol-scale 1000`` lifts it
    above the defect.
    """
    p0 = np.diag([1.0 + 1e-7, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    m = DiscreteInstrument(2, 2, ((0, (np.sqrt(p0),)), (1, (p1,))))
    m_path = tmp_path / "defect.json"
    save(Document(kind="instrument", value=m), m_path)
    povm_path = tmp_path / "defect-povm.json"
    save(Document(kind="povm", value=Povm(2, (("a", p0), ("b", p1)))), povm_path)
    t = np.zeros((1, 2, 1), dtype=complex)
    t[0, 0, 0] = 1.0
    coeff_path = tmp_path / "defect-coeffs.json"
    save(
        Document(kind="coefficients", value=CompatCoefficients(2, (("a", t), ("b", t)))),
        coeff_path,
    )
    return {
        "validate": [str(m_path)],
        "refine": [str(m_path)],
        "compat-build": [str(povm_path), str(coeff_path)],
    }


class TestTolerancesAndUsage:
    @pytest.mark.parametrize("command", ["validate", "refine", "compat-build"])
    def test_tol_scale_reaches_every_check(self, run, tmp_path, command):
        inputs = defect_documents(tmp_path)[command]
        code, _, _ = run(command, *inputs)
        assert code == 2
        code, report, err = run(command, *inputs, "--tol-scale", "1000")
        assert code == 0, err
        assert report["command"] == command

    @pytest.mark.parametrize("command", ["validate", "refine", "compat-build"])
    def test_eps_eq_reaches_every_check(self, run, tmp_path, command):
        inputs = defect_documents(tmp_path)[command]
        code, report, err = run(command, *inputs, "--eps-eq", "1e-6")
        assert code == 0, err
        assert report["command"] == command

    def test_threshold_flag_overrides_the_scale(self, run, tmp_path):
        inputs = defect_documents(tmp_path)["validate"]
        code, report, _ = run("validate", *inputs, "--tol-scale", "1000", "--eps-eq", "1e-9")
        assert code == 2
        assert report["threshold"] == pytest.approx(1e-9 * np.sqrt(2))

    @pytest.mark.parametrize("name", ["eps_herm", "eps_psd", "eps_eq", "sv_rel_cutoff"])
    def test_out_of_range_threshold_is_a_usage_error(self, run, luders_file, name):
        code, report, err = run("validate", luders_file, "--" + name.replace("_", "-"), "0.5")
        assert (code, report) == (1, None)
        assert err == f"error: {name} must lie in (0, 1e-2), got 0.5\n"

    def test_env_scale(self, run, luders_file, monkeypatch):
        monkeypatch.setenv("INSTRUMENTUM_TOL", "100")
        code, report, _ = run("validate", luders_file)
        assert code == 0
        # validate scales its equality threshold by sqrt(dim_in)
        assert report["threshold"] == pytest.approx(1e-7 * np.sqrt(2))

    def test_bad_env_value(self, run, luders_file, monkeypatch):
        monkeypatch.setenv("INSTRUMENTUM_TOL", "abc")
        code, _, err = run("validate", luders_file)
        assert code == 1
        assert "INSTRUMENTUM_TOL" in err

    def test_flag_overrides_env(self, run, luders_file, monkeypatch):
        monkeypatch.setenv("INSTRUMENTUM_TOL", "abc")
        code, _, err = run("validate", luders_file, "--tol-scale", "1")
        assert code == 0

    def test_unknown_command(self, run):
        code, _, err = run("conjure")
        assert code == 1

    def test_no_command(self, run):
        code, _, err = run()
        assert code == 1

    def test_missing_required_argument(self, run, luders_file):
        code, _, err = run("posterior", luders_file)
        assert code == 1

    def test_repeat_runs_are_byte_identical(self, luders_file, capsys):
        main(["extremal", luders_file])
        first = capsys.readouterr().out
        main(["extremal", luders_file])
        second = capsys.readouterr().out
        assert first == second


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "error, message",
        [
            (
                MemoryError(
                    "Unable to allocate 4.00 GiB for an array with shape (16384, 16384) "
                    "and data type complex128"
                ),
                "out of memory: Unable to allocate 4.00 GiB for an array with shape "
                "(16384, 16384) and data type complex128",
            ),
            (MemoryError(), "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_exits_one_with_one_line(self, run, luders_file, monkeypatch, error, message):
        def exhausted(args, tol):
            raise error

        monkeypatch.setattr(cli, "_cmd_choi", exhausted)
        code, report, err = run("choi", luders_file)
        assert (code, report) == (1, None)
        assert err == f"error: {message}\n"
        assert "Traceback" not in err


COMMANDS = (
    "validate",
    "extremal",
    "dilate",
    "refine",
    "posterior",
    "compose",
    "compat-build",
    "compat-channel",
    "factorize",
    "nuclear-extract",
    "model",
    "standard-model",
    "corr-extreme",
    "choi",
    "cp-check",
)


@pytest.fixture
def report_calls(tmp_path, luders_file, state_file, probe_files):
    """Arguments of one call per subcommand, each of which exits 0 with a report."""
    eye = np.eye(2, dtype=complex)
    paths = {name: tmp_path / f"{name}.json" for name in ("povm", "coeffs", "id3", "choi")}
    save(Document(kind="povm", value=Povm(2, (("a", eye / 2), ("b", eye / 2)))), paths["povm"])
    t = np.zeros((2, 2, 1), dtype=complex)
    t[0, 0, 0] = t[1, 1, 0] = 1.0
    coeffs = CompatCoefficients(2, (("a", t), ("b", t)))
    save(Document(kind="coefficients", value=coeffs), paths["coeffs"])
    save(Document(kind="matrix", value=np.eye(3)), paths["id3"])
    save(Document(kind="matrix", value=choi(KrausSet(2, 2, (eye,))).matrix), paths["choi"])
    m = luders_file
    return {
        "validate": [m],
        "extremal": [m],
        "dilate": [m],
        "refine": [m],
        "posterior": [m, "--state", state_file],
        "compose": [m, m],
        "compat-build": [str(paths["povm"]), str(paths["coeffs"])],
        "compat-channel": [m],
        "factorize": [m],
        "nuclear-extract": [m],
        "model": [m],
        "standard-model": [*probe_files, "--coupling", "1.0", "--pointer", "0;1"],
        "corr-extreme": [str(paths["id3"])],
        "choi": [m],
        "cp-check": [str(paths["choi"])],
    }


class TestOneExitPath:
    """``main`` names and prints every report, and only then writes documents."""

    def test_the_commands_are_every_subcommand(self):
        parser = cli.build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert tuple(subcommands.choices) == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_report_opens_with_its_command(self, run, report_calls, command):
        code, report, err = run(command, *report_calls[command])
        assert code == 0, err
        assert next(iter(report.items())) == ("command", command)

    def test_witness_on_extreme_prints_the_report_and_writes_nothing(
        self, run, luders_file, tmp_path
    ):
        _, plain, _ = run("extremal", luders_file)
        out = tmp_path / "w.json"
        code, report, err = run("extremal", luders_file, "--witness", str(out))
        assert (code, report) == (2, plain)
        assert report["is_extreme"] is True
        assert err == "error: no witness: the input is extreme\n"
        assert not out.exists()

    def test_failed_write_keeps_the_report(self, run, luders_file, tmp_path):
        _, plain, _ = run("dilate", luders_file)
        target = str(tmp_path / "missing" / "x.json")
        code, report, err = run("dilate", luders_file, "-o", target)
        assert (code, report) == (1, plain)
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert err == f"error: [Errno 2] No such file or directory: {target!r}\n"

    def test_top_level_array_exits_one(self, run, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        code, report, err = run("validate", str(path))
        assert (code, report) == (1, None)
        assert err == f"error: {path}: top level must be an object\n"


class TestInputDocuments:
    """``main`` loads each declared input in declaration order and checks its kind."""

    @pytest.fixture
    def paths(self, tmp_path, luders_file, state_file, probe_files):
        eye = np.eye(2, dtype=complex)
        paths = {"m": luders_file, "rho": state_file, "probe": probe_files}
        paths["povm"] = str(tmp_path / "povm.json")
        save(Document(kind="povm", value=Povm(2, (("a", eye / 2), ("b", eye / 2)))), paths["povm"])
        t = np.zeros((2, 2, 1), dtype=complex)
        t[0, 0, 0] = t[1, 1, 0] = 1.0
        paths["coeffs"] = str(tmp_path / "coeffs.json")
        coeffs = CompatCoefficients(2, (("a", t), ("b", t)))
        save(Document(kind="coefficients", value=coeffs), paths["coeffs"])
        paths["bad"] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text('{"kind": ')
        paths["square"] = str(tmp_path / "square.json")
        save(Document(kind="matrix", value=eye), paths["square"])
        return paths

    @pytest.mark.parametrize(
        "argv, culprit, message",
        [
            (("validate", "{povm}"), "povm", "expected an instrument document, got povm"),
            (("extremal", "{rho}"), "rho", "expected an instrument or povm document, got matrix"),
            (("corr-extreme", "{m}"), "m", "expected a matrix document, got instrument"),
            (("compat-build", "{m}", "{coeffs}"), "m", "expected a povm document, got instrument"),
        ],
    )
    def test_wrong_kind_names_the_kinds_it_accepts(self, run, paths, argv, culprit, message):
        code, report, err = run(*(arg.format(**paths) for arg in argv))
        assert (code, report) == (1, None)
        assert err == f"error: {paths[culprit]}: {message}\n"

    def test_of_two_bad_inputs_the_first_declared_is_reported(self, run, paths):
        code, report, err = run("posterior", paths["bad"], "--state", paths["m"])
        assert (code, report) == (1, None)
        assert err.startswith(f"error: {paths['bad']}: not valid JSON")
        assert paths["m"] not in err
        code, report, err = run("compat-build", paths["m"], paths["povm"])
        assert (code, report) == (1, None)
        assert err == f"error: {paths['m']}: expected a povm document, got instrument\n"

    def test_xi_must_be_a_row_or_a_column(self, run, paths):
        probe = list(paths["probe"])
        probe[probe.index("--xi") + 1] = paths["square"]
        code, report, err = run("standard-model", *probe, "--coupling", "1.0", "--pointer", "0;1")
        assert (code, report) == (1, None)
        assert err == f"error: {paths['square']}: expected a row or column vector\n"
