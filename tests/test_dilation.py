"""Stinespring dilations, Naimark extensions, and measurement models."""

import numpy as np
import pytest

from instrumentum import (
    DEFAULT_TOL,
    DiscreteInstrument,
    Document,
    InstrumentumError,
    KrausSet,
    MarkovKernel,
    MeasurementModel,
    Povm,
    StinespringDilation,
    load,
    lueders,
    measurement_model,
    minimal_stinespring,
    model_intertwiner,
    naimark,
    save,
    standard_model,
    trivial_from_povm,
    validate,
    verify_dilation,
)
from instrumentum.dilation import realized_instrument

from helpers import PAULI, action_distance, basis_pvm, rand_instrument, rand_unitary


def x_basis_luders():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return DiscreteInstrument(
        2,
        2,
        tuple((i, (h @ np.diag([1.0 - i, float(i)]).astype(complex) @ h,)) for i in (0, 1)),
    )


class TestMinimalStinespring:
    def test_luders_isometry_is_permutation_like(self):
        d = minimal_stinespring(lueders(basis_pvm(2, ((0,), (1,)))))
        assert d.block_dims == (1, 1)
        # rows run over (output, fiber) pairs, output-major
        expected = np.array(
            [[1, 0], [0, 0], [0, 0], [0, 1]],
            dtype=complex,
        )
        assert np.allclose(d.isometry, expected)

    def test_structure_vector_shapes(self, corpus):
        for m in corpus.values():
            d = minimal_stinespring(m)
            assert len(d.structure_vectors) == len(m.outcomes)
            for n_i, arr in zip(d.block_dims, d.structure_vectors):
                assert arr.shape == (m.dim_in, m.dim_out, n_i)
            for n_i, arr in zip(d.block_dims, d.generalized_vectors):
                assert arr.shape == (n_i, m.dim_out, m.dim_in)

    def test_verifies_on_corpus(self, corpus):
        for name, m in corpus.items():
            d = minimal_stinespring(m)
            report = verify_dilation(m, d)
            assert report.passed, name
            assert report.isometry_defect <= 1e-9
            assert report.max_reconstruction_error <= 1e-9
            assert report.block_span_ranks == report.block_dims

    def test_minimality_bound(self, corpus):
        for m in corpus.values():
            d = minimal_stinespring(m)
            assert all(n <= m.dim_in * m.dim_out for n in d.block_dims)


class TestVerifyDilation:
    def test_padding_is_detected(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        d = minimal_stinespring(m)
        # widen the first fiber with an all-zero row: still reconstructs the
        # instrument, but the span check sees the deficit
        total = d.total_fibers + 1
        iso = np.zeros((m.dim_out * total, m.dim_in), dtype=complex)
        blocks = d.isometry.reshape(m.dim_out, d.total_fibers, m.dim_in)
        padded = np.zeros((m.dim_out, total, m.dim_in), dtype=complex)
        padded[:, 0, :] = blocks[:, 0, :]
        padded[:, 2, :] = blocks[:, 1, :]
        iso = padded.reshape(m.dim_out * total, m.dim_in)
        fat = StinespringDilation(
            dim_in=m.dim_in,
            dim_out=m.dim_out,
            labels=d.labels,
            block_dims=(2, 1),
            isometry=iso,
        )
        report = verify_dilation(m, fat)
        assert not report.passed
        assert report.isometry_defect <= 1e-12
        assert report.max_reconstruction_error <= 1e-12
        assert report.block_span_ranks == (1, 1)

    def test_wrong_instrument_fails(self):
        d = minimal_stinespring(lueders(basis_pvm(2, ((0,), (1,)))))
        report = verify_dilation(x_basis_luders(), d)
        assert not report.passed
        assert report.max_reconstruction_error > 0.1


class TestNaimark:
    def test_pvm_gets_unit_fibers(self):
        d = naimark(basis_pvm(3, ((0,), (1,), (2,))))
        assert d.dim_out == 1
        assert d.block_dims == (1, 1, 1)

    def test_mixed_effect_rank(self):
        p = Povm(2, (("a", np.eye(2, dtype=complex) / 2), ("b", np.eye(2, dtype=complex) / 2)))
        d = naimark(p)
        assert d.block_dims == (2, 2)
        report = verify_dilation(trivial_from_povm(p), d)
        assert report.passed


class TestMeasurementModel:
    def test_realizes_luders(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        model = measurement_model(m)
        assert model.ancilla_dim == 2
        assert action_distance(realized_instrument(model), m) < 1e-12

    def test_xi_slot_choice(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        model = measurement_model(m, xi_index=1)
        assert np.allclose(model.xi, [0.0, 1.0])
        assert action_distance(realized_instrument(model), m) < 1e-12

    def test_random_instruments_realize(self, corpus):
        for name in ("random-2to2", "compat-built"):
            m = corpus[name]
            model = measurement_model(m)
            assert action_distance(realized_instrument(model), m) < 1e-9, name

    def test_rejects_dimension_change(self, corpus):
        with pytest.raises(InstrumentumError, match="matching dimensions"):
            measurement_model(corpus["random-2to3"])

    def test_bad_xi_index(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        with pytest.raises(ValueError):
            measurement_model(m, xi_index=7)

    def test_rejects_non_finite_xi(self):
        # NaN fails every comparison, so the fixed normalization cutoff alone would pass it
        with pytest.raises(ValueError, match="xi contains NaN or Inf entries"):
            MeasurementModel(1, (0,), (1,), [np.nan], [[1.0]])


class TestBlockDimensions:
    @pytest.mark.parametrize("dims", [(1.7, True), (1, 1.0), (1, "1"), (-1, 2), (None, 1)], ids=str)
    def test_must_be_non_negative_integers(self, dims):
        # int() would truncate 1.7 to 1 and read True and "1" as 1
        message = "block dimensions must be non-negative integers, got "
        with pytest.raises(ValueError, match=message):
            StinespringDilation(1, 1, ("a", "b"), dims, np.eye(2)[:, :1])
        with pytest.raises(ValueError, match=message):
            MeasurementModel(1, ("a", "b"), dims, [1, 0], np.eye(2))

    def test_numpy_integers_are_kept_as_integers(self):
        dims = np.array([1, 0])
        dilation = StinespringDilation(1, 1, ("a", "b"), dims, np.eye(1))
        model = MeasurementModel(1, ("a", "b"), dims, [1], np.eye(1))
        for value in (dilation, model):
            assert value.block_dims == (1, 0)
            assert all(type(n) is int for n in value.block_dims)
            assert value.block_slice(0) == slice(0, 1) and value.block_slice(1) == slice(1, 1)


class TestModelIntertwiner:
    def test_own_model_gives_identity(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        model = measurement_model(m)
        w, report = model_intertwiner(model, m)
        assert report.passed
        assert report.realization_residual <= 1e-9
        assert np.allclose(w, np.eye(2))

    def test_unrelated_instrument_raises(self):
        model = measurement_model(lueders(basis_pvm(2, ((0,), (1,)))))
        with pytest.raises(InstrumentumError, match="does not realize"):
            model_intertwiner(model, x_basis_luders())

    def test_unitarity_is_judged_under_the_callers_tolerances(self, tmp_path):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        model = measurement_model(m)
        unitary = np.array(model.unitary)
        unitary[:, 1] *= 1 + 1e-7  # column 1 is h_0 (x) e_1, off the xi = e_0 slots
        path = tmp_path / "model.json"
        save(Document("model", MeasurementModel(2, m.labels, (1, 1), model.xi, unitary)), path)
        loaded = load(path).value
        with pytest.raises(InstrumentumError, match="not unitary"):
            model_intertwiner(loaded, m)
        w, report = model_intertwiner(loaded, m, DEFAULT_TOL.scaled(1e3))
        assert report.passed
        assert np.allclose(w, np.eye(2))

    def test_isometry_property_on_random(self):
        rng = np.random.default_rng(907)
        m = rand_instrument(rng, 3, 3, (2, 1))
        model = measurement_model(m)
        w, report = model_intertwiner(model, m)
        assert report.passed
        assert np.allclose(w.conj().T @ w, np.eye(w.shape[1]), atol=1e-9)


class TestStandardModel:
    def test_controlled_flip(self):
        povm, kernel, inst = standard_model(
            np.diag([0.0, 1.0]),
            PAULI["Y"],
            np.pi / 2,
            np.array([1.0, 0.0]),
            ((0,), (1,)),
        )
        assert np.allclose(kernel.eigenvalues, [1.0, 0.0])
        assert np.allclose(kernel.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert np.allclose(povm.effect(0), np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(povm.effect(1), np.diag([0.0, 1.0]), atol=1e-12)
        assert validate(inst).passed

    def test_commuting_pointer_is_trivial(self):
        # diagonal pointer observable commutes with the pointer projections,
        # so the statistics carry no information about the system
        povm, kernel, _ = standard_model(
            np.diag([0.3, 1.2]),
            np.diag([1.0, -1.0]),
            0.7,
            np.array([1.0, 0.0]),
            ((0,), (1,)),
        )
        for _, effect in povm.effects:
            assert np.allclose(effect, effect[0, 0] * np.eye(2), atol=1e-12)

    def test_zero_coupling_is_trivial(self):
        povm, kernel, _ = standard_model(
            np.diag([0.0, 1.0]),
            PAULI["Y"],
            0.0,
            np.array([1.0, 0.0]),
            ((0,), (1,)),
        )
        assert np.allclose(povm.effect(0), np.eye(2), atol=1e-12)
        assert np.allclose(povm.effect(1), np.zeros((2, 2)), atol=1e-12)

    def test_degenerate_values_cluster(self):
        povm, kernel, _ = standard_model(
            np.diag([1.0, 1.0 + 1e-12]),
            PAULI["Y"],
            np.pi / 2,
            np.array([1.0, 0.0]),
            ((0,), (1,)),
        )
        assert kernel.eigenvalues.size == 1
        assert np.allclose(povm.effect(0), np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(povm.effect(1), np.eye(2), atol=1e-12)

    def test_probe_within_tolerance_gives_a_kernel(self):
        # the probe is judged by validate's rule on the output, | ||xi||^2 - 1 | <= eps_eq, so a
        # probe inside it gives a valid instrument and one outside it is refused
        rng = np.random.default_rng(5)
        direction = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        direction /= np.linalg.norm(direction)
        b_op = rng.standard_normal((64, 64))
        args = (np.diag([0.0, 1.0]), b_op + b_op.T, 0.3)
        pointer = (tuple(range(32)), tuple(range(32, 64)))
        xi = direction * np.sqrt(1 + 0.9 * DEFAULT_TOL.eps_eq)
        _, kernel, m = standard_model(*args, xi, pointer)
        assert np.allclose(kernel.matrix.sum(axis=0), np.linalg.norm(xi) ** 2, rtol=0, atol=1e-15)
        assert validate(m).passed
        with pytest.raises(InstrumentumError, match="not normalized"):
            standard_model(*args, direction * np.sqrt(1 + 1.1 * DEFAULT_TOL.eps_eq), pointer)

    def test_custom_labels(self):
        povm, kernel, inst = standard_model(
            np.diag([0.0, 1.0]),
            PAULI["Y"],
            np.pi / 2,
            np.array([1.0, 0.0]),
            ((0,), (1,)),
            labels=("low", "high"),
        )
        assert povm.labels == ("low", "high")
        assert inst.labels == ("low", "high")
        assert kernel.labels == ("low", "high")


class TestMarkovKernel:
    def test_checks_structure_only(self):
        # signs and column sums are claims of the call that builds the kernel
        kernel = MarkovKernel(np.array([[1.1], [-0.2]]), np.array([1.0]), labels=("a", "b"))
        assert kernel.matrix.sum() == pytest.approx(0.9)

    def test_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            MarkovKernel(np.array([[1.0, 0.0]]), np.array([1.0]), labels=("a",))

    def test_rejects_complex_array(self):
        with pytest.raises(ValueError, match="kernel matrix must be real"):
            MarkovKernel(np.array([[1 + 1j]]), [1.0], (0,))
        with pytest.raises(ValueError, match="eigenvalue vector must be real"):
            MarkovKernel([[1.0]], np.array([1.0 + 0j]), (0,))

    def test_rejects_complex_in_list(self):
        with pytest.raises(ValueError, match="kernel matrix must be real"):
            MarkovKernel([[1 + 1j]], [1.0], (0,))
        with pytest.raises(ValueError, match="eigenvalue vector must be real"):
            MarkovKernel([[1.0]], [1j], (0,))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="kernel matrix contains NaN or Inf entries"):
            MarkovKernel([[np.nan]], [np.nan], (0,))
        with pytest.raises(ValueError, match="eigenvalue vector contains NaN or Inf entries"):
            MarkovKernel([[1.0]], [np.inf], (0,))
