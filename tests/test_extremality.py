"""Extremality verdicts, witnesses, and the correlation-matrix specialization."""

import re

import numpy as np
import pytest

from instrumentum import (
    DiscreteInstrument,
    InstrumentumError,
    KrausSet,
    Povm,
    Tolerances,
    apply_heisenberg,
    associate_povm,
    channel_extremal,
    correlation_extremal,
    correlation_witness_split,
    instrument_extremal,
    lueders,
    minimal_kraus,
    nuclear,
    povm_extremal,
    trivial_from_povm,
    validate,
    witness_decompose,
)

from instrumentum import extremality
from instrumentum.extremality import _choi_gram, _criterion_matrix, _rank_and_witness
from instrumentum.matkernel import _full_span_rank

from helpers import (
    PAULI,
    action_distance,
    basis_pvm,
    depolarizing_kraus,
    full_rank_channel,
    full_rank_correlation,
    kraus_action_distance,
    near_cut_instrument,
    rand_instrument,
    rand_povm,
    rand_state,
    rand_unitary,
)


def mixed_trivial():
    eye = np.eye(2, dtype=complex)
    return trivial_from_povm(Povm(2, (("a", eye / 2), ("b", eye / 2))))


def near_degenerate_channel(gap):
    """A channel whose Kraus products are independent but almost collinear.

    Both operators act diagonally/antidiagonally with mixing angles ``gap``
    apart, which puts the smallest retained singular value of the product
    family at roughly ``gap``.
    """
    t1, t2 = np.pi / 5, np.pi / 5 + gap
    a1 = np.diag([np.cos(t1), np.cos(t2)]).astype(complex)
    a2 = np.array([[0.0, np.sin(t2)], [np.sin(t1), 0.0]], dtype=complex)
    return KrausSet(2, 2, (a1, a2))


class TestInstrumentExtremal:
    def test_luders_is_extreme(self):
        report = instrument_extremal(lueders(basis_pvm(2, ((0,), (1,)))))
        assert report.is_extreme
        assert report.span_rank == report.required_rank == 2
        assert report.witness is None

    def test_mixed_trivial_is_not(self):
        report = instrument_extremal(mixed_trivial())
        assert not report.is_extreme
        assert report.span_rank == 4
        assert report.required_rank == 8
        assert report.block_dims == (2, 2)

    def test_required_rank_formula(self, corpus):
        for m in corpus.values():
            report = instrument_extremal(m)
            assert report.required_rank == sum(n * n for n in report.block_dims)
            assert report.span_rank <= report.required_rank
            assert report.is_extreme == (report.span_rank == report.required_rank)

    def test_unitary_conjugation_preserves_verdict(self):
        rng = np.random.default_rng(331)
        m = lueders(basis_pvm(3, ((0, 1), (2,))))
        u = rand_unitary(rng, 3)
        rotated = type(m)(
            3,
            3,
            tuple((lab, tuple(u @ op for op in k.ops)) for lab, k in m.outcomes),
        )
        assert instrument_extremal(rotated).is_extreme

    def test_preparation_extremality_is_purity(self, corpus):
        # dim_in = 1: a single-outcome preparation is extreme exactly when
        # the prepared state is pure
        report = instrument_extremal(corpus["preparation"])
        assert not report.is_extreme  # two outcomes, one of them mixed

        pure = type(corpus["preparation"])(
            1, 2, (("only", (np.array([[1.0], [0.0]], dtype=complex),)),)
        )
        assert instrument_extremal(pure).is_extreme


class TestWitness:
    def test_witness_shape_and_normalization(self):
        report = instrument_extremal(mixed_trivial())
        assert len(report.witness) == 2
        op_norms = []
        for block, n_i in zip(report.witness, report.block_dims):
            assert block.shape == (n_i, n_i)
            assert np.allclose(block, block.conj().T)
            op_norms.append(float(np.max(np.abs(np.linalg.eigvalsh(block)))))
        assert abs(max(op_norms) - 1.0) < 1e-12

    def test_decompose_averages_back(self):
        m = mixed_trivial()
        report = instrument_extremal(m)
        plus, minus = witness_decompose(m, report.witness)
        assert validate(plus).passed
        assert validate(minus).passed
        assert action_distance(plus, minus) > 1e-3
        one = np.eye(1, dtype=complex)
        for (lab, kp), (_, km) in zip(plus.outcomes, minus.outcomes):
            avg = (apply_heisenberg(kp, one) + apply_heisenberg(km, one)) / 2
            assert np.linalg.norm(avg - apply_heisenberg(m.outcome(lab), one)) < 1e-12

    def test_halves_are_minimal(self, corpus):
        # a unit-norm witness makes I - D(i) or I + D(i) singular; the halves drop that
        # direction instead of keeping an operator of rounding size
        for name, m in corpus.items():
            report = instrument_extremal(m)
            if report.is_extreme:
                continue
            for half in witness_decompose(m, report.witness):
                for _, kraus in half.outcomes:
                    assert len(minimal_kraus(kraus)) == len(kraus), name

    def test_decompose_rejects_zero_witness(self):
        m = mixed_trivial()
        with pytest.raises(InstrumentumError, match="numerically zero"):
            witness_decompose(m, tuple(np.zeros((2, 2)) for _ in range(2)))

    def test_decompose_rejects_non_annihilating(self):
        m = mixed_trivial()
        with pytest.raises(InstrumentumError, match="annihilate"):
            witness_decompose(m, tuple(np.eye(2) for _ in range(2)))

    @pytest.mark.parametrize("seed", [1, 3])
    def test_a_split_within_eps_eq_is_refused_with_its_distance(self, seed):
        # the minimal Kraus set of the first effect keeps its eigenvalue 1e-10, and the
        # witness moves the instrument along it only: each half lies 1e-10 from it
        p = associate_povm(near_cut_instrument(seed, 1e-10))
        report = povm_extremal(p)
        verdict = (report.is_extreme, report.span_rank, report.required_rank, report.marginal)
        assert verdict == (False, 7, 8, False)
        message = "the halves lie 2.000e-10 apart, within eps_eq 1.000e-09"
        with pytest.raises(InstrumentumError, match=re.escape(message)):
            witness_decompose(trivial_from_povm(p), report.witness)
        # under a smaller eps_eq the same witness splits it, into halves that far apart
        tol = Tolerances(eps_eq=1e-10)
        plus, minus = witness_decompose(trivial_from_povm(p), report.witness, tol)
        assert action_distance(plus, minus) == pytest.approx(2e-10, rel=1e-4)

    def test_decompose_block_count(self):
        with pytest.raises(ValueError, match="blocks"):
            witness_decompose(mixed_trivial(), (np.zeros((2, 2)),))

    def test_witness_annihilates_products(self):
        m = mixed_trivial()
        report = instrument_extremal(m)
        total = np.zeros((m.dim_in, m.dim_in), dtype=complex)
        for (_, kraus), block in zip(m.outcomes, report.witness):
            for k, a_k in enumerate(kraus.ops):
                for l, a_l in enumerate(kraus.ops):
                    total += block[k, l] * (a_k.conj().T @ a_l)
        assert np.linalg.norm(total) < 1e-12


class TestPovmChannel:
    def test_pvm_is_extreme(self):
        assert povm_extremal(basis_pvm(3, ((0,), (1, 2)))).is_extreme

    def test_smeared_povm_is_not(self):
        eye = np.eye(2, dtype=complex)
        report = povm_extremal(Povm(2, (("a", eye / 2), ("b", eye / 2))))
        assert not report.is_extreme

    def test_unitary_channel_is_extreme(self):
        rng = np.random.default_rng(78)
        assert channel_extremal(KrausSet(2, 2, (rand_unitary(rng, 2),))).is_extreme

    def test_depolarizing_is_not(self):
        report = channel_extremal(depolarizing_kraus())
        assert not report.is_extreme
        assert report.span_rank == 4
        assert report.required_rank == 16

    def test_rejects_non_channel(self):
        bad = KrausSet(2, 2, (np.diag([1.0, 0.5]).astype(complex),))
        with pytest.raises(InstrumentumError, match="not a channel"):
            channel_extremal(bad)


class TestMarginalFlag:
    def test_near_cutoff_is_flagged(self):
        report = channel_extremal(near_degenerate_channel(2e-9))
        assert report.is_extreme
        assert report.marginal

    def test_clear_verdict_is_not(self):
        report = channel_extremal(near_degenerate_channel(1e-8))
        assert report.is_extreme
        assert not report.marginal


def near_collinear_correlation(theta):
    """Gram vectors ``(1, 0)``, ``(cos theta, sin theta)`` and ``(0, 1)``.

    Their three projectors are independent, but for small ``theta`` the first
    two almost coincide, which puts the smallest singular value of the
    projector family near ``theta``.
    """
    g = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)], [0.0, 1.0]], dtype=complex)
    return g @ g.conj().T


class TestCorrelationMarginalFlag:
    def test_near_cutoff_is_flagged(self):
        report = correlation_extremal(near_collinear_correlation(5e-9))
        assert (report.is_extreme, report.gram_rank, report.span_rank) == (False, 2, 3)
        assert report.marginal

    def test_clear_verdict_is_not(self):
        report = correlation_extremal(near_collinear_correlation(1e-8))
        assert (report.is_extreme, report.gram_rank, report.span_rank) == (False, 2, 3)
        assert not report.marginal


class TestCorrelationExtremal:
    def test_identity_two_by_two(self):
        report = correlation_extremal(np.eye(2))
        assert not report.is_extreme
        assert report.gram_rank == 2
        assert report.span_rank == 2
        assert report.witness is not None

    def test_unimodular_offdiagonal_is_extreme(self):
        z = np.exp(0.3j)
        c = np.array([[1.0, z], [np.conj(z), 1.0]])
        report = correlation_extremal(c)
        assert report.is_extreme
        assert report.gram_rank == 1

    def test_identity_three_by_three(self):
        assert not correlation_extremal(np.eye(3)).is_extreme

    def test_witness_annihilates_gram_vectors(self):
        report = correlation_extremal(np.eye(3))
        w = report.witness
        assert np.allclose(w, w.conj().T)
        for i in range(3):
            v = report.gram_vectors[i]
            assert abs(v.conj() @ w @ v) < 1e-12

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match=r"must be nonempty, got shape \(0, 0\)"):
            correlation_extremal(np.zeros((0, 0)))

    def test_rejects_non_psd(self):
        with pytest.raises(InstrumentumError, match="positive semidefinite"):
            correlation_extremal(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_negative_eigenvalue_within_eps_psd_is_not_counted(self):
        # eigenvalues 2 + 5e-10 and -5e-10; |-5e-10| exceeds the rank cut 4e-10, but a
        # negative eigenvalue has no Gram vector, so the rank is one
        c = np.array([[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
        report = correlation_extremal(c)
        assert report.gram_rank == 1
        assert report.is_extreme
        assert np.all(np.isfinite(report.gram_vectors))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InstrumentumError, match="diagonal"):
            correlation_extremal(np.diag([2.0, 1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InstrumentumError):
            correlation_extremal(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestCorrelationSplit:
    def test_identity_splits_into_sign_matrices(self):
        report = correlation_extremal(np.eye(2))
        k_plus, k_minus = correlation_witness_split(report)
        assert np.allclose((k_plus + k_minus) / 2, np.eye(2), atol=1e-12)
        halves = {tuple(np.round(k.real.reshape(-1)).astype(int)) for k in (k_plus, k_minus)}
        assert halves == {(1, 1, 1, 1), (1, -1, -1, 1)}

    def test_halves_are_correlation_matrices(self):
        report = correlation_extremal(np.eye(3))
        for half in correlation_witness_split(report):
            assert np.allclose(np.diag(half), 1.0, atol=1e-9)
            assert np.linalg.eigvalsh(half)[0] > -1e-9

    def test_extreme_report_has_nothing_to_split(self):
        z = np.exp(0.3j)
        report = correlation_extremal(np.array([[1.0, z], [np.conj(z), 1.0]]))
        with pytest.raises(InstrumentumError, match="no witness"):
            correlation_witness_split(report)


def hermitian_basis(n):
    """``E_kk``, then ``(E_kl + E_lk)/sqrt 2``, then ``i (E_kl - E_lk)/sqrt 2`` for ``k < l``."""
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    basis = []
    for entries in (
        [((k, k), 1.0) for k in range(n)],
        [((k, l), 1.0 / np.sqrt(2.0)) for k, l in pairs],
        [((k, l), 1j / np.sqrt(2.0)) for k, l in pairs],
    ):
        for (k, l), value in entries:
            h = np.zeros((n, n), dtype=complex)
            h[k, l], h[l, k] = value, np.conj(value)
            basis.append(h)
    return basis


def criterion_matrix(blocks, dim_in):
    """The criterion in Hermitian coordinates, one basis element at a time: ``<G_m, Phi(H_j)>``."""
    columns = []
    for ks in blocks:
        products = [[a_k.conj().T @ a_l for a_l in ks.ops] for a_k in ks.ops]
        for h in hermitian_basis(len(ks)):
            image = sum(h[k, l] * products[k][l] for k in range(len(ks)) for l in range(len(ks)))
            columns.append([np.trace(g @ image).real for g in hermitian_basis(dim_in)])
    return np.array(columns).T


def split_channel(weights):
    """One qutrit channel with two Kraus operators, split over outcomes with the given weights.

    Every outcome has the same products up to its weight, so the criterion
    matrix has rank 4 and ``4 * len(weights)`` columns against 9 rows.
    """
    rng = np.random.default_rng(97)
    ops = rand_unitary(rng, 6)[:, :3].reshape(2, 3, 3)  # an isometry C^3 -> C^2 (x) C^3
    outcomes = tuple((i, KrausSet(3, 3, np.sqrt(w) * ops)) for i, w in enumerate(weights))
    return DiscreteInstrument(3, 3, outcomes)


class TestCanonicalWitness:
    def test_equal_inputs_give_byte_identical_witnesses(self, corpus):
        cases = [(name, m) for name, m in corpus.items() if not instrument_extremal(m).is_extreme]
        assert len(cases) >= 3
        for name, m in cases:
            outcomes = tuple((lab, k.stack.copy()) for lab, k in m.outcomes)
            fresh = type(m)(m.dim_in, m.dim_out, outcomes)
            first, second = instrument_extremal(m).witness, instrument_extremal(fresh).witness
            assert [b.tobytes() for b in first] == [b.tobytes() for b in second], name
        for c in (np.eye(3), near_collinear_correlation(0.3)):
            first, second = correlation_extremal(c).witness, correlation_extremal(c.copy()).witness
            assert first.tobytes() == second.tobytes()

    def test_projection_rule_picks_the_first_kernel_projection(self):
        m = split_channel((1 / 3, 2 / 3))
        report = instrument_extremal(m)
        assert (report.is_extreme, report.span_rank, report.required_rank) == (False, 4, 8)
        blocks = [minimal_kraus(k) for _, k in m.outcomes]
        r = criterion_matrix(blocks, 3)
        assert r.shape == (9, 8)
        vt = np.linalg.svd(r)[2][:4]
        for j in range(8):
            v = np.eye(8)[j] - vt.T @ vt[:, j]  # P e_j
            v = v * np.sign(v[np.argmax(np.abs(v))])
            herm = [sum(x * h for x, h in zip(part, hermitian_basis(2))) for part in (v[:4], v[4:])]
            op_norm = max(np.max(np.abs(np.linalg.eigvalsh(b))) for b in herm)
            if np.linalg.norm(r @ v) <= 1e-9 * 3 * op_norm:
                break
        assert j == 0  # e_0 has a kernel component here
        for got, want in zip(report.witness, herm):
            assert np.allclose(got, want / op_norm, atol=1e-12)

    def test_count_rule_witness_is_the_kernel_of_the_leading_columns(self):
        report = instrument_extremal(mixed_trivial())  # 8 columns against 4 rows
        r = criterion_matrix([minimal_kraus(k) for _, k in mixed_trivial().outcomes], 2)
        coordinates = np.array(
            [np.trace(h @ block).real for block in report.witness for h in hermitian_basis(2)]
        )
        assert np.all(coordinates[5:] == 0.0)  # zero-padded beyond the first rows + 1 columns
        assert np.linalg.norm(r @ coordinates) <= 1e-12
        assert coordinates[np.argmax(np.abs(coordinates))] > 0

    def test_identity_witness_puts_symmetric_before_antisymmetric(self):
        # the first three coordinates of |m_i><m_i| are diagonal and symmetric: the kernel of
        # those columns is the symmetric coordinate, and the witness is sigma_x
        witness = correlation_extremal(np.eye(2)).witness
        assert np.allclose(witness, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def leading_values(shape):
    """All singular values but the smallest of a ``seeded_criterion``: 1 down to 0.5."""
    return np.linspace(1.0, 0.5, min(shape) - 1)


def seeded_criterion(seed, shape, smallest):
    """A real ``shape`` matrix with the singular values ``leading_values`` and last ``smallest``."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    left = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    s = np.append(leading_values(shape), smallest)
    return (left[:, : len(s)] * s) @ right[: len(s)]


def certificate_shift(shape, tol, singular_values):
    """The shift the Gram certificate subtracts: ``4 (10 cut)^2`` plus its rounding slack."""
    norm = np.sqrt(np.sum(np.asarray(singular_values) ** 4))  # ||G||_F
    cut = tol.sv_rel_cutoff * np.sqrt(norm) * max(shape)
    slack = 4.0 * max(shape) * np.sqrt(min(shape)) * np.finfo(float).eps * norm
    return 4.0 * (10.0 * cut) ** 2 + slack


def oracle_span_rank(r, tol):
    """The span-rank rule restated on ``np.linalg.svd``: the rank and ``marginal``."""
    s = np.linalg.svd(r, compute_uv=False)
    cut = tol.sv_rel_cutoff * s[0] * max(r.shape)
    rank = int(np.sum(s > cut))
    return rank, bool(rank > 0 and s[rank - 1] <= 10.0 * cut)


def oracle_count_witness(r, block_dims):
    """The witness of a wide ``r``: the kernel of its first ``rows + 1`` columns, by ``svd``."""
    rows, cols = r.shape
    v = np.zeros(cols)
    v[: rows + 1] = np.linalg.svd(r[:, : rows + 1])[2][-1]
    v *= np.sign(v[np.argmax(np.abs(v))])
    parts = np.split(v, np.cumsum([k * k for k in block_dims])[:-1])
    herm = [sum(x * h for x, h in zip(p, hermitian_basis(k))) for p, k in zip(parts, block_dims)]
    op_norm = max(np.max(np.abs(np.linalg.eigvalsh(b))) for b in herm)
    return [b / op_norm for b in herm]


class TestSpanCertificate:
    """Full span rank is certified by a Cholesky factor of the criterion's Gram, else by its SVD."""

    TOL = Tolerances(sv_rel_cutoff=1e-6)  # a shift far above the rounding of the Gram

    @pytest.mark.parametrize("shape, block_dims", (((9, 4), (2,)), ((4, 8), (2, 2))))
    @pytest.mark.parametrize("side", (1.1, 0.9))
    def test_both_sides_of_the_shift_match_the_svd_oracle(
        self, decompositions, shape, block_dims, side
    ):
        smallest = np.sqrt(side * certificate_shift(shape, self.TOL, leading_values(shape)))
        r = seeded_criterion(41, shape, smallest)
        decompositions.clear()
        rank, marginal, witness = _rank_and_witness(r, block_dims, 2, self.TOL)
        # certified above the shift, one SVD below it
        assert decompositions.number("svd") == decompositions.number("svd", shape) == (side < 1.0)
        assert (rank, marginal) == oracle_span_rank(r, self.TOL) == (min(shape), False)
        if shape[1] <= shape[0]:
            assert witness is None
        else:
            for got, want in zip(witness, oracle_count_witness(r, block_dims)):
                assert np.allclose(got, want, atol=1e-10)

    def test_a_rank_deficient_tall_criterion_takes_one_svd(self, decompositions):
        # X / sqrt(2) and Z / sqrt(2): both products are I / 2, so the 4 x 2 criterion has
        # rank 1; its rank, flag and kernel all come from one thin SVD
        m = DiscreteInstrument(
            2, 2, tuple((k, KrausSet(2, 2, [PAULI[k] / np.sqrt(2)])) for k in "XZ")
        )
        decompositions.clear()
        report = instrument_extremal(m)
        assert [np.shape(a) for n, a, _ in decompositions if n == "svd"] == [(4, 1)] * 2 + [(4, 2)]
        r = _criterion_matrix([minimal_kraus(k) for _, k in m.outcomes], 2)
        want = oracle_span_rank(r, Tolerances())
        assert (report.span_rank, report.marginal) == want == (1, False)
        assert not report.is_extreme
        v = [np.trace(h @ b).real for b in report.witness for h in hermitian_basis(1)]
        assert np.linalg.norm(r @ np.array(v)) <= 1e-15

    @pytest.mark.parametrize("shape", ((9, 4), (4, 8), (16, 17)))
    def test_a_certificate_is_never_wrong(self, shape):
        certified = 0
        for tol in (Tolerances(), self.TOL):
            for smallest in np.geomspace(1e-12, 1.0, 61):
                r = seeded_criterion(7, shape, smallest)
                gram = r.T @ r if shape[1] <= shape[0] else r @ r.T
                if _full_span_rank(gram, shape, tol):
                    certified += 1
                    assert oracle_span_rank(r, tol) == (min(shape), False)
        assert 0 < certified < 2 * 61

    @pytest.mark.parametrize(
        "dim_in, dim_out, fibers",
        (
            (3, 2, (1, 3, 0)),  # n(i) below and above dim_out, and a zero outcome
            (4, 2, (5, 2)),
            (3, 1, (2, 3)),  # dim_out = 1, as povm_extremal has it
            (1, 3, (2, 1)),  # dim_in = 1
        ),
    )
    def test_gram_from_the_choi_blocks_has_the_squared_singular_values(
        self, dim_in, dim_out, fibers
    ):
        m = rand_instrument(np.random.default_rng(11), dim_in, dim_out, fibers)
        blocks = [minimal_kraus(k) for _, k in m.outcomes]
        s = np.linalg.svd(criterion_matrix(blocks, dim_in), compute_uv=False)
        want = np.zeros(dim_in**2)
        want[: len(s)] = s**2
        got = np.linalg.eigvalsh(_choi_gram(blocks, dim_in, dim_out))[::-1]
        assert np.max(np.abs(got - want)) <= 1e-12 * want[0]

    @pytest.mark.parametrize("columns", (1, 5, 17, 34))
    def test_leading_columns_are_bytes_of_the_whole(self, columns):
        m = rand_instrument(np.random.default_rng(3), 4, 3, (3, 0, 5))
        blocks = [minimal_kraus(k) for _, k in m.outcomes]
        whole = _criterion_matrix(blocks, 4)
        assert whole.shape == (16, 34)
        head = _criterion_matrix(blocks, 4, columns)
        assert head.shape == (16, columns)
        assert head.tobytes("A") == whole[:, :columns].tobytes("A")

    def test_gram_route_decides_above_the_count_with_the_whole_criterions_bytes(self):
        m = full_rank_channel(3)  # 81 columns against 9 rows: the Gram from the Choi blocks
        blocks = [minimal_kraus(k) for _, k in m.outcomes]
        r = _criterion_matrix(blocks, 3)
        report = instrument_extremal(m)
        want = oracle_span_rank(r, Tolerances())
        assert (report.span_rank, report.marginal) == want == (9, False)
        assert np.allclose(report.witness[0], oracle_count_witness(r, (9,))[0], atol=1e-10)
        # its witness is the one of the whole criterion, byte for byte
        whole = _rank_and_witness(r, (9,), 3, Tolerances())[2]
        assert report.witness[0].tobytes() == whole[0].tobytes()

    def test_gram_route_falls_back_to_the_whole_criterion(self, monkeypatch):
        # three thirds of each half of C^6: the products span only block-diagonal operators,
        # 2 * 9 of 36, with 6 * 9 columns
        half = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)
        p = Povm(6, tuple((i, (half if i < 3 else np.eye(6) - half) / 3) for i in range(6)))
        fallbacks = []
        original = extremality._singular_values
        monkeypatch.setattr(
            extremality, "_singular_values", lambda a: fallbacks.append(a.shape) or original(a)
        )
        report = povm_extremal(p)
        assert fallbacks == [(36, 54)]
        t = trivial_from_povm(p)
        r = _criterion_matrix([k for _, k in t.outcomes], 6)
        want = oracle_span_rank(r, Tolerances())
        assert (report.span_rank, report.marginal) == want == (18, False)
        assert not report.is_extreme
        # the leading columns have a kernel of more than one dimension: check the residual
        v = [np.trace(h @ b).real for b in report.witness for h in hermitian_basis(len(b))]
        assert np.linalg.norm(r @ np.array(v)) <= 1e-12


class TestWideCriterionReduction:
    """A criterion more than four times wider than tall is reduced by QR before its SVD."""

    def test_nuclear_instrument_takes_the_reduction(self, monkeypatch):
        # each outcome of a basis POVM keeps one vector d and three state eigenvectors, so the
        # 3 x 3 products of an outcome are multiples of |d><d|: 4 x 18, spanning 2 operators
        rng = np.random.default_rng(29)
        p = basis_pvm(2, ((0,), (1,)))
        m = nuclear(p, (rand_state(rng, 3), rand_state(rng, 3)))
        shapes = []
        original = extremality._singular_values
        monkeypatch.setattr(
            extremality, "_singular_values", lambda a: shapes.append(a.shape) or original(a)
        )
        report = instrument_extremal(m)
        assert shapes == [(4, 18)]  # the certificate failed, and 18 > 4 * 4
        # the oracle: the rank of the |d><d| over the retained spectral vectors d of the effects
        spectra = [np.linalg.eigh(e) for _, e in p.effects]
        vectors = [v for values, basis in spectra for v in basis[:, values > 0.5].T]
        projectors = np.array([np.outer(v, v.conj()).ravel() for v in vectors])
        assert report.span_rank == np.linalg.matrix_rank(projectors) == 2
        assert not report.is_extreme and report.required_rank == 18

    @pytest.mark.parametrize("shape", ((2, 9), (3, 13), (4, 33), (5, 100), (3, 200)))
    def test_singular_values_match_the_svd(self, decompositions, shape):
        rng = np.random.default_rng(shape)
        r = rng.standard_normal(shape)
        decompositions.clear()
        got = extremality._singular_values(r)
        assert decompositions.number("qr") == -(-shape[1] // (8 * shape[0]))  # one per slab
        want = np.linalg.svd(r, compute_uv=False)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def unit_coordinates(blocks):
    """The coordinates of witness blocks in ``hermitian_basis``, scaled to a unit vector."""
    v = np.array([np.trace(h @ b).real for b in blocks for h in hermitian_basis(len(b))])
    return v / np.linalg.norm(v)


def qr_kernel(r, cols=None):
    """The kernel vector of the first ``rows + 1`` columns of ``r``: the last column of the
    complete QR factor of their transpose, zero-padded to ``cols``, by default those of ``r``."""
    rows = r.shape[0]
    v = np.zeros(r.shape[1] if cols is None else cols)
    v[: rows + 1] = np.linalg.qr(r[:, : rows + 1].T, mode="complete")[0][:, -1]
    return v


def qr_route_witness(r, block_dims):
    """The witness of ``qr_kernel(r)`` by the sign rule and op-norm scaling, in the package's
    order of operations, so that it can be compared bit for bit."""
    v = qr_kernel(r, sum(k * k for k in block_dims))
    v = v * np.sign(v[np.argmax(np.abs(v))])
    herm = []
    for part, n in zip(np.split(v, np.cumsum([k * k for k in block_dims])[:-1]), block_dims):
        k, l = np.triu_indices(n, 1)
        h = np.zeros((n, n), dtype=complex)
        h[np.arange(n), np.arange(n)] = part[:n]
        h[k, l] = (part[n : n + len(k)] + 1j * part[n + len(k) :]) / np.sqrt(2.0)
        h[l, k] = h[k, l].conj()
        herm.append(h)
    op_norm = max(float(np.max(np.abs(np.linalg.eigvalsh(h)))) for h in herm if h.size)
    return [h / op_norm for h in herm]


def weyl_channel(d, step=1):
    """The channel over the Weyl operators ``X^a Z^b`` with ``b`` a multiple of ``step``, each
    over the square root of their number: completely depolarizing for ``step`` 1, and for
    ``step`` 2 its products span only the subgroup, ``d^2 / 2`` of ``d^2`` rows."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    power = np.linalg.matrix_power
    ops = [power(shift, a) @ power(clock, b) for a in range(d) for b in range(0, d, step)]
    return DiscreteInstrument(d, d, ((0, KrausSet(d, d, np.array(ops) / np.sqrt(len(ops)))),))


COUNT_ROUTE_INSTRUMENTS = {
    "d8-wide": lambda: rand_instrument(np.random.default_rng(81), 8, 4, (5, 5, 5)),
    "d12-wide": lambda: rand_instrument(np.random.default_rng(82), 12, 3, (9, 8)),
    "d12-wide-zero": lambda: rand_instrument(np.random.default_rng(83), 12, 3, (9, 0, 8)),
    "full-rank-d3": lambda: full_rank_channel(3),  # the Gram from the Choi blocks
}


class TestCountRouteKernel:
    """Above the count at full span rank, the kernel vector comes from one solve, else a QR."""

    @pytest.mark.parametrize("name", sorted(COUNT_ROUTE_INSTRUMENTS))
    def test_instrument_witness_is_the_qr_kernel_vector(self, decompositions, name):
        m = COUNT_ROUTE_INSTRUMENTS[name]()
        blocks = [minimal_kraus(k) for _, k in m.outcomes]
        r = criterion_matrix(blocks, m.dim_in)
        assert r.shape[1] > r.shape[0] == np.linalg.matrix_rank(r)
        decompositions.clear()
        report = instrument_extremal(m)
        assert decompositions.number("solve") == 1
        assert decompositions.number("qr", (r.shape[0] + 1, r.shape[0])) == 0
        got, want = unit_coordinates(report.witness), qr_kernel(r)
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-12

    def test_povm_witness_is_the_qr_kernel_vector(self, decompositions):
        p = rand_povm(np.random.default_rng(84), 3, 4)  # four effects of rank 3: 36 > 9
        decompositions.clear()
        report = povm_extremal(p)
        assert decompositions.number("solve") == 1 and decompositions.number("qr", (10, 9)) == 0
        assert (report.is_extreme, report.span_rank, report.required_rank) == (False, 9, 36)
        r = criterion_matrix([k for _, k in trivial_from_povm(p).outcomes], 3)
        got, want = unit_coordinates(report.witness), qr_kernel(r)
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-12

    def test_correlation_witness_is_the_qr_kernel_vector(self, decompositions):
        c = full_rank_correlation(5, 3)  # Gram rank 3: 9 columns against 5 rows
        decompositions.clear()
        report = correlation_extremal(c)
        assert decompositions.number("solve") == 1 and decompositions.number("qr", (6, 5)) == 0
        assert (report.is_extreme, report.gram_rank, report.span_rank) == (False, 3, 5)
        gram = report.gram_vectors
        basis = hermitian_basis(3)
        r = np.array([[np.trace(h @ np.outer(g, g.conj())).real for h in basis] for g in gram])
        got, want = unit_coordinates([report.witness]), qr_kernel(r)
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(COUNT_ROUTE_INSTRUMENTS))
    def test_a_singular_solve_falls_back_to_the_qr_bit_for_bit(self, monkeypatch, name):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        m = COUNT_ROUTE_INSTRUMENTS[name]()
        blocks = [minimal_kraus(k) for _, k in m.outcomes]
        r = _criterion_matrix(blocks, m.dim_in, m.dim_in**2 + 1)
        monkeypatch.setattr(np.linalg, "solve", singular)
        report = instrument_extremal(m)
        want = qr_route_witness(r, report.block_dims)
        assert [b.tobytes() for b in report.witness] == [b.tobytes() for b in want]

    def test_below_full_rank_the_witness_takes_no_solve(self, decompositions):
        m = weyl_channel(8, 2)
        decompositions.clear()
        report = instrument_extremal(m)
        assert (report.span_rank, report.required_rank) == (32, 1024)
        assert decompositions.number("solve") == 0
        assert decompositions.number("qr", (65, 64)) == 1
        r = _criterion_matrix([minimal_kraus(k) for _, k in m.outcomes], 8, 65)
        want = qr_route_witness(r, report.block_dims)
        assert [b.tobytes() for b in report.witness] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("d", (2, 3))
    def test_a_wider_kernel_at_full_rank_keeps_the_qr_witness(self, decompositions, d):
        # the completely depolarizing channel: at d = 2 and 3 its first rows + 1 columns have
        # a kernel of more than one dimension though the whole criterion has full rank; the
        # solve would pick one of its vectors by rounding, so the QR's is kept
        m = weyl_channel(d)
        r = criterion_matrix([minimal_kraus(k) for _, k in m.outcomes], d)
        assert np.linalg.matrix_rank(r) == d * d > np.linalg.matrix_rank(r[:, : d * d + 1])
        decompositions.clear()
        report = instrument_extremal(m)
        assert decompositions.number("qr", (d * d + 1, d * d)) == 1
        head = _criterion_matrix([minimal_kraus(k) for _, k in m.outcomes], d, d * d + 1)
        want = qr_route_witness(head, report.block_dims)
        assert [b.tobytes() for b in report.witness] == [b.tobytes() for b in want]


def eigh_halves(m, witness):
    """The halves along ``witness`` with ``I +- D(i)`` each factored by its own ``eigh``."""
    halves = []
    for sign in (1.0, -1.0):
        outcomes = []
        for (label, kraus), block in zip(m.outcomes, witness):
            ks = minimal_kraus(kraus)
            values, vectors = np.linalg.eigh(np.eye(len(ks)) + sign * np.asarray(block))
            keep = values > 1e-10 * values.max(initial=0.0)
            w = vectors[:, keep] * np.sqrt(values[keep])
            ops = np.tensordot(w.conj().T, ks.stack, 1)
            outcomes.append((label, KrausSet(m.dim_in, m.dim_out, ops)))
        halves.append(DiscreteInstrument(m.dim_in, m.dim_out, tuple(outcomes)))
    return halves


def pauli_split():
    """The qubit depolarizing channel and the witness ``u diag(1, 1, -1, -1) u^dag`` in the gauge
    ``A' = u A`` of its minimal Kraus set: repeated eigenvalues, and unit norm, so each half
    drops two directions."""
    kraus = depolarizing_kraus()
    m = DiscreteInstrument(2, 2, ((0, kraus),))
    flat = minimal_kraus(kraus).stack.reshape(4, 4)
    # the Pauli operators over 2 are orthogonal, each of squared norm 1/2
    u = 2.0 * flat @ kraus.stack.reshape(4, 4).conj().T
    return m, (u @ np.diag([1.0, 1.0, -1.0, -1.0]) @ u.conj().T,)


class TestSplitFromOneEigh:
    """Both halves and the operator-norm check come from one ``eigh`` of each witness block."""

    SPLITS = {
        **{
            name: lambda make=make: (make(), instrument_extremal(make()).witness)
            for name, make in COUNT_ROUTE_INSTRUMENTS.items()
        },
        "pauli-repeated-unit": pauli_split,
    }

    @pytest.mark.parametrize("name", sorted(SPLITS))
    def test_halves_match_factors_of_their_own(self, name):
        m, witness = self.SPLITS[name]()
        got, want = witness_decompose(m, witness), eigh_halves(m, witness)
        for half, oracle in zip(got, want):
            counts = [len(k) for _, k in half.outcomes]
            assert counts == [len(k) for _, k in oracle.outcomes]
            if name == "pauli-repeated-unit":
                assert counts == [2]  # the eigenvalues 1 - 1 are dropped
            for (_, k1), (_, k2) in zip(half.outcomes, oracle.outcomes):
                assert kraus_action_distance(k1, k2) <= 1e-12

    def test_a_witness_past_unit_norm_is_refused(self):
        m = COUNT_ROUTE_INSTRUMENTS["d8-wide"]()
        witness = [b * (1.0 + 1e-6) for b in instrument_extremal(m).witness]
        message = "witness operator norm 1.000001 exceeds one"
        with pytest.raises(InstrumentumError, match=re.escape(message)):
            witness_decompose(m, witness)
