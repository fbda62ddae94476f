"""Stinespring dilations, Naimark extensions, and measurement models."""

import copy
import pickle
import re

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
    Tolerances,
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
from instrumentum.dilation import (
    _coupled,
    _distinct_eigenvalues,
    _unitarity_defect,
    realized_instrument,
)
from instrumentum.matkernel import isometry_complete

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

    @pytest.mark.parametrize("xi_index", [True, 1.0, "1", -1], ids=repr)
    def test_xi_index_must_be_a_non_negative_integer(self, xi_index):
        # True would index xi as a boolean mask, and 1.0 would reach a slice as a bare TypeError
        m = lueders(basis_pvm(2, ((0,), (1,))))
        message = f"xi_index values must be non-negative integers, got {xi_index!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            measurement_model(m, xi_index=xi_index)

    def test_numpy_integer_xi_index(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        model = measurement_model(m, xi_index=np.int64(1))
        assert model.xi.tolist() == measurement_model(m, xi_index=1).xi.tolist() == [0, 1]

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


def self_built_models(corpus):
    """``(instrument, model)`` for the square corpus instruments and random ones at d = 8 to 24."""
    rng = np.random.default_rng(4242)
    square = [m for m in corpus.values() if m.dim_in == m.dim_out]
    square += [rand_instrument(rng, d, d, (2, 1, 3)) for d in (8, 16, 24)]
    return [(m, measurement_model(m, xi_index)) for m in square for xi_index in (0, 1)
            if xi_index < sum(minimal_stinespring(m).block_dims)]


def dense_copy(model):
    """The same model through the constructor, from its formed unitary."""
    return MeasurementModel(model.system_dim, model.labels, model.block_dims, model.xi, model.unitary)


def outcome_bytes(m):
    return [(label, kraus.stack.tobytes()) for label, kraus in m.outcomes]


def multiplied_out_defect(factors):
    """``_unitarity_defect``'s three terms, with ``Q`` formed as the product of its reflectors."""
    y, h, tau = factors.y, factors.h, factors.tau
    side, d = y.shape
    q = np.eye(side, dtype=np.complex128)
    condition = 0.0
    for k in range(d):
        v = np.zeros(side, dtype=np.complex128)
        v[k], v[k + 1 :] = 1.0, h[k, k + 1 :]
        q = q @ (np.eye(side) - tau[k] * np.outer(v, v.conj()))
        norm = np.vdot(v, v).real
        condition += abs(2.0 * tau[k].real - abs(tau[k]) ** 2 * norm) * norm
    gram = np.linalg.norm(y.conj().T @ y - np.eye(d))
    beyond = np.linalg.norm(q[:, d:].conj().T @ y)
    return float(np.sqrt(gram**2 + 2.0 * beyond**2 + condition**2))


def perturbed(model, part):
    """``model`` with its ``Y`` column 1 scaled by ``1 + 1e-7``, or ``1e-7`` added to ``tau[0]``
    or to entry 2 of reflector 0 (``h[0, 2]``)."""
    factors = model._factors
    changed = np.array(getattr(factors, part))
    if part == "y":
        changed[:, 1] *= 1 + 1e-7
    else:
        assert factors.tau[0] != 0  # a reflector with tau = 0 is dropped as the identity
        changed[0 if part == "tau" else (0, 2)] += 1e-7
    object.__setattr__(model, "_factors", factors._replace(**{part: changed}))
    return model


class TestFactoredModel:
    """``measurement_model`` returns a model that holds ``Y`` and the reflectors of its QR."""

    @pytest.mark.parametrize("part", ["y", "tau"])
    def test_perturbed_factors_are_refused(self, part):
        m = rand_instrument(np.random.default_rng(31), 3, 3, (2, 1, 2))
        model = perturbed(measurement_model(m), part)
        with pytest.raises(InstrumentumError, match="model matrix is not unitary: defect "):
            model_intertwiner(model, m)
        assert model_intertwiner(model, m, DEFAULT_TOL.scaled(1e3))[1].passed

    @pytest.mark.parametrize("part", [None, "y", "tau", "h"])
    def test_defect_is_read_off_the_reflectors(self, part):
        model = measurement_model(rand_instrument(np.random.default_rng(33), 3, 3, (2, 1)))
        if part is not None:
            model = perturbed(model, part)
        expected = multiplied_out_defect(model._factors)
        assert abs(_unitarity_defect(model) - expected) <= 1e-13 + 1e-6 * expected
        if part is not None:
            assert expected > 1e-8

    def test_defects_stay_at_rounding(self, corpus):
        for m, model in self_built_models(corpus):
            assert model._factors is not None
            assert _unitarity_defect(model) <= 1e-12
            assert _unitarity_defect(dense_copy(model)) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_unitary_is_the_completion_under_the_calls_tolerances(self, scale):
        # over-normalized by 2e-5, as test_cli's tol-scale case: Y passes only the scaled check
        s = 1 + 1e-5 * (scale > 1)
        m = DiscreteInstrument(2, 2, ((0, (s * np.diag([1.0, 0.0]),)), (1, (s * np.diag([0.0, 1.0]),))))
        tol = DEFAULT_TOL.scaled(scale)
        model = measurement_model(m, 1, tol)
        factors = model._factors
        assert "unitary" not in vars(model)
        unitary = model.unitary
        expected = isometry_complete(factors.y, tol)[:, factors.order]
        assert unitary.tobytes() == expected.tobytes() and unitary.shape == expected.shape
        assert model.unitary is unitary and not unitary.flags.writeable
        assert not any(a.flags.writeable for a in (factors.y, factors.h, factors.tau, factors.order))
        if scale > 1:
            with pytest.raises(InstrumentumError, match="columns are not orthonormal"):
                isometry_complete(factors.y)

    def test_reads_match_a_dense_copy_to_the_byte(self, corpus):
        for m, model in self_built_models(corpus):
            dense = dense_copy(model)
            assert dense._factors is None
            assert _coupled(model).tobytes() == _coupled(dense).tobytes()
            assert outcome_bytes(realized_instrument(model)) == outcome_bytes(realized_instrument(dense))
            (w, report), (w_dense, report_dense) = model_intertwiner(model, m), model_intertwiner(dense, m)
            assert w.tobytes() == w_dense.tobytes() and report == report_dense

    @pytest.mark.parametrize("copier", [lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy])
    def test_copies_come_back_dense(self, copier):
        m = rand_instrument(np.random.default_rng(32), 3, 3, (2, 1))
        model = measurement_model(m)
        twin = copier(model)
        assert model._factors is not None and twin._factors is None
        assert twin.unitary.tobytes() == model.unitary.tobytes() and twin.unitary is not model.unitary
        assert model_intertwiner(twin, m)[0].tobytes() == model_intertwiner(model, m)[0].tobytes()

    def test_other_missing_attributes_raise(self):
        model = measurement_model(lueders(basis_pvm(2, ((0,), (1,)))))
        assert not hasattr(model, "unitaries")
        assert not hasattr(dense_copy(model), "_householder")


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

    @pytest.mark.parametrize("pointer", [((0, 1.7),), ((0,), (True,)), ((0,), ("1",))], ids=str)
    def test_pointer_indices_must_be_integers(self, pointer):
        # int() would read 1.7 and True as 1
        args = (np.diag([0.0, 1.0]), PAULI["Y"], np.pi / 2, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="^pointer indices must be non-negative integers"):
            standard_model(*args, pointer)

    def test_numpy_pointer_indices(self):
        args = (np.diag([0.0, 1.0]), PAULI["Y"], np.pi / 2, np.array([1.0, 0.0]))
        _, _, m = standard_model(*args, (np.array([0]), np.array([1])))
        _, _, want = standard_model(*args, ((0,), (1,)))
        assert action_distance(m, want) == 0.0

    @pytest.mark.parametrize(
        "xi, coupling, message",
        [
            ([np.nan, 0.0], np.pi / 2, "xi contains NaN or Inf entries"),
            ([np.inf, 0.0], np.pi / 2, "xi contains NaN or Inf entries"),
            ([1.0, 0.0], np.nan, "coupling must be finite, got nan"),
            ([1.0, 0.0], np.inf, "coupling must be finite, got inf"),
        ],
        ids=str,
    )
    def test_non_finite_inputs_are_named(self, xi, coupling, message):
        # a NaN fails every comparison, so the normalization check alone would let it through
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            standard_model(np.diag([0.0, 1.0]), PAULI["Y"], coupling, np.array(xi), ((0,), (1,)))

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


def kronecker_coupled(model):
    """``U (I_d (x) xi)`` as ``[s, a, n]``, through the Kronecker selector."""
    d, anc = model.system_dim, model.ancilla_dim
    selector = np.kron(np.eye(d, dtype=np.complex128), model.xi.reshape(anc, 1))
    return (model.unitary @ selector).reshape(d, anc, d)


class TestCoupled:
    @pytest.mark.parametrize("fibers", [(1, 1), (2, 1, 2), (3, 4)], ids=str)
    def test_equals_the_kronecker_product(self, fibers):
        rng = np.random.default_rng(len(fibers))
        m = rand_instrument(rng, 3, 3, fibers)
        for xi_index in (0, 1):
            model = measurement_model(m, xi_index)
            assert np.array_equal(_coupled(model), kronecker_coupled(model))
        xi = rng.standard_normal(model.ancilla_dim) + 1j * rng.standard_normal(model.ancilla_dim)
        mixed = MeasurementModel(3, m.labels, model.block_dims, xi / np.linalg.norm(xi), model.unitary)
        assert np.max(np.abs(_coupled(mixed) - kronecker_coupled(mixed))) <= 1e-15


def looped_clusters(values, tol):
    """Clusters of a descending list, each value joining its predecessor's within the gap."""
    gap = tol.eps_eq * max(1.0, float(np.max(np.abs(values))))
    clusters = []
    for idx, value in enumerate(values):
        if clusters and abs(values[clusters[-1][-1]] - value) <= gap:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


class TestDistinctEigenvalues:
    # with a power-of-two eps_eq, 1 - 2**-30 lies exactly one gap below 1
    GAP = 2.0**-30

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 1.0 - GAP, 0.5, 0.5, 0.5, -1.0],  # neighbours exactly at the gap join
            [1.0, 1.0 - GAP, 1.0 - 2 * GAP, 1.0 - 3 * GAP - 2.0**-40],  # a chain, then a break
            [2.0, 2.0 - 2 * GAP, 2.0 - 2 * GAP - 2.0**-50, 0.0],  # the gap scales with |values|
            [0.0, 0.0, 0.0],
            [3.0],
        ],
        ids=["at-gap", "chain", "scaled", "all-equal", "single"],
    )
    def test_same_clusters_as_the_loop(self, values):
        tol = Tolerances(eps_eq=self.GAP)
        values = np.array(values)
        clusters = _distinct_eigenvalues(values, tol)
        assert [c.tolist() for c in clusters] == looped_clusters(values, tol)

    def test_random_degenerate_spectra(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            values = np.sort(rng.choice([-1.0, 0.0, 0.25, 1.0, 1.0 + 1e-12, 2.0], size=8))[::-1]
            clusters = _distinct_eigenvalues(values, DEFAULT_TOL)
            assert [c.tolist() for c in clusters] == looped_clusters(values, DEFAULT_TOL)
