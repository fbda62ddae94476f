"""Kraus sets, Choi matrices, and the unitary freedom between decompositions."""

import re

import numpy as np
import pytest

from instrumentum import (
    ChoiMatrix,
    InstrumentumError,
    KrausSet,
    action_distance,
    apply_heisenberg,
    apply_schrodinger,
    choi,
    cp_check,
    kraus_equivalent,
    kraus_from_choi,
    minimal_kraus,
)
from instrumentum import cpmaps
from instrumentum.cpmaps import _difference
from instrumentum.matkernel import DEFAULT_TOL, numeric_rank

from helpers import (
    depolarizing_kraus,
    kraus_action_distance,
    matrix_units,
    rand_instrument,
    rand_state,
    rand_unitary,
)

IDENTITY_CHOI = np.array(
    [
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ],
    dtype=np.complex128,
)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=np.complex128,
)


def choi_by_blocks(k):
    """Independent Choi assembly: block (s, t) is the action on the unit |k_s><k_t|."""
    side = k.dim_out * k.dim_in
    out = np.zeros((side, side), dtype=np.complex128)
    for s in range(k.dim_out):
        for t in range(k.dim_out):
            unit = np.zeros((k.dim_out, k.dim_out), dtype=np.complex128)
            unit[s, t] = 1.0
            block = apply_heisenberg(k, unit)
            out[
                s * k.dim_in : (s + 1) * k.dim_in,
                t * k.dim_in : (t + 1) * k.dim_in,
            ] = block
    return out


class TestKrausSet:
    def test_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            KrausSet(2, 2, (np.zeros((3, 2)),))

    def test_empty_is_zero_map(self):
        k = KrausSet(2, 3, ())
        assert len(k) == 0
        assert np.array_equal(apply_heisenberg(k, np.eye(3)), np.zeros((2, 2)))
        assert np.array_equal(choi(k).matrix, np.zeros((6, 6)))

    def test_choi_dims(self):
        with pytest.raises(ValueError):
            ChoiMatrix(2, 3, np.eye(5))

    def test_stack_shape(self):
        rng = np.random.default_rng(41)
        ops = tuple(rng.standard_normal((3, 2)) for _ in range(4))
        k = KrausSet(2, 3, ops)
        assert k.stack.shape == (4, 3, 2)
        assert k.stack.dtype == np.complex128 and k.stack.flags.c_contiguous
        assert np.array_equal(k.stack, np.array(ops))
        assert KrausSet(2, 3, ()).stack.shape == (0, 3, 2)

    def test_stack_is_read_only(self):
        k = depolarizing_kraus()
        assert not k.stack.flags.writeable
        with pytest.raises(ValueError):
            k.stack[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            k.ops[0][0, 0] = 1.0

    def test_ops_are_views_of_stack(self):
        k = depolarizing_kraus()
        assert len(k.ops) == len(k) == 4
        for j, op in enumerate(k.ops):
            assert op.shape == (2, 2)
            assert np.shares_memory(op, k.stack)
            assert np.array_equal(op, k.stack[j])

    def test_stack_copies_its_input(self):
        array = np.zeros((2, 2, 2), dtype=np.complex128)
        k = KrausSet(2, 2, array)
        array[0, 0, 0] = 1.0
        assert k.stack[0, 0, 0] == 0.0
        assert array.flags.writeable

    def test_array_and_tuple_agree(self):
        rng = np.random.default_rng(43)
        array = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        from_array = KrausSet(4, 2, array)
        from_tuple = KrausSet(4, 2, tuple(array[j] for j in range(3)))
        assert np.array_equal(from_array.stack, from_tuple.stack)
        assert len(from_array) == len(from_tuple) == 3

    @pytest.mark.parametrize(
        "ops, shape",
        [
            ((np.eye(2), np.zeros((3, 2))), "(3, 2)"),
            (np.zeros((2, 3, 2)), "(3, 2)"),
            ((np.zeros((2, 3)),), "(2, 3)"),
        ],
    )
    def test_wrong_shape_message(self, ops, shape):
        message = f"Kraus operator has shape {shape}, expected (2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            KrausSet(2, 2, ops)

    def test_one_dimensional_operator_message(self):
        with pytest.raises(ValueError, match="Kraus operator must be 2-dimensional"):
            KrausSet(2, 2, (np.eye(2), np.ones(2)))

    def test_empty_set_too_large_for_an_array(self):
        message = f"no array of Kraus operators of shape {(2, 2**70)} can be formed"
        with pytest.raises(ValueError, match=re.escape(message)):
            KrausSet(2**70, 2, ())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_message(self, bad):
        op = np.eye(2, dtype=np.complex128)
        op[1, 0] = bad
        with pytest.raises(ValueError, match="Kraus operator contains NaN or Inf entries"):
            KrausSet(2, 2, (np.eye(2), op))
        with pytest.raises(ValueError, match="Kraus operator contains NaN or Inf entries"):
            KrausSet(2, 2, np.stack([np.eye(2), op]))


class TestChoi:
    def test_identity_oracle(self):
        c = choi(KrausSet(2, 2, (np.eye(2, dtype=np.complex128),)))
        assert np.allclose(c.matrix, IDENTITY_CHOI)

    def test_depolarizing_oracle(self):
        # B -> tr[B] I/2 has the maximally mixed Choi matrix
        c = choi(depolarizing_kraus())
        assert np.allclose(c.matrix, np.eye(4) / 2.0)

    def test_matches_block_assembly(self):
        rng = np.random.default_rng(23)
        for dim_in, dim_out, count in ((2, 2, 2), (3, 2, 3), (2, 4, 1)):
            ops = tuple(
                rng.standard_normal((dim_out, dim_in))
                + 1j * rng.standard_normal((dim_out, dim_in))
                for _ in range(count)
            )
            k = KrausSet(dim_in, dim_out, ops)
            assert np.allclose(choi(k).matrix, choi_by_blocks(k))


class TestCpCheck:
    def test_rejects_transpose_map(self):
        assert not cp_check(ChoiMatrix(2, 2, SWAP))

    def test_accepts_kraus_built(self):
        assert cp_check(choi(depolarizing_kraus()))

    def test_raises_on_non_hermitian(self):
        bad = np.zeros((4, 4), dtype=np.complex128)
        bad[0, 1] = 1.0
        with pytest.raises(InstrumentumError):
            cp_check(ChoiMatrix(2, 2, bad))


class TestKrausFromChoi:
    def test_identity_is_rank_one(self):
        k = kraus_from_choi(ChoiMatrix(2, 2, IDENTITY_CHOI))
        assert len(k) == 1
        # the single operator is the identity up to a phase
        op = k.ops[0]
        phase = op[0, 0] / abs(op[0, 0])
        assert np.allclose(op / phase, np.eye(2))

    def test_depolarizing_rank_four(self):
        k = kraus_from_choi(choi(depolarizing_kraus()))
        assert len(k) == 4

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        ops = tuple(
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for _ in range(3)
        )
        c = choi(KrausSet(2, 3, ops))
        k = kraus_from_choi(c)
        assert np.linalg.norm(choi(k).matrix - c.matrix) < 1e-12 * np.linalg.norm(c.matrix)

    def test_drops_dependent_operators(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
        c = choi(KrausSet(2, 2, (a, a)))  # two copies: Choi rank stays one
        k = kraus_from_choi(c)
        assert len(k) == numeric_rank(c.matrix)[0] == 1

    def test_rejects_non_cp(self):
        with pytest.raises(InstrumentumError):
            kraus_from_choi(ChoiMatrix(2, 2, SWAP))


class TestApply:
    def test_duality(self):
        rng = np.random.default_rng(37)
        ops = tuple(
            rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for _ in range(2)
        )
        k = KrausSet(3, 2, ops)
        rho = rand_state(rng, 3)
        for b in matrix_units(2):
            lhs = np.trace(rho @ apply_heisenberg(k, b))
            rhs = np.trace(apply_schrodinger(k, rho) @ b)
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("dim_in, dim_out, count", [(1, 3, 11), (3, 1, 9), (2, 4, 5), (3, 3, 0)])
    def test_matches_operator_loop_bit_for_bit(self, dim_in, dim_out, count):
        # a running sum from zero, in operator order, as a loop over the operators adds
        rng = np.random.default_rng(39)
        ops = tuple(
            rng.standard_normal((dim_out, dim_in)) + 1j * rng.standard_normal((dim_out, dim_in))
            for _ in range(count)
        )
        k = KrausSet(dim_in, dim_out, ops)
        b = rng.standard_normal((dim_out, dim_out)) + 1j * rng.standard_normal((dim_out, dim_out))
        rho = rand_state(rng, dim_in)
        heisenberg = np.zeros((dim_in, dim_in), dtype=np.complex128)
        schrodinger = np.zeros((dim_out, dim_out), dtype=np.complex128)
        for op in k.ops:
            heisenberg += op.conj().T @ b @ op
            schrodinger += op @ rho @ op.conj().T
        assert apply_heisenberg(k, b).tobytes() == heisenberg.tobytes()
        assert apply_schrodinger(k, rho).tobytes() == schrodinger.tobytes()

    def test_shape_errors(self):
        k = KrausSet(3, 2, ())
        with pytest.raises(ValueError):
            apply_heisenberg(k, np.eye(3))
        with pytest.raises(ValueError):
            apply_schrodinger(k, np.eye(2))


class TestKrausEquivalent:
    def test_hadamard_mixing(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        root = 1.0 / np.sqrt(2.0)
        k1 = KrausSet(2, 2, (p0, p1))
        k2 = KrausSet(2, 2, (root * (p0 + p1), root * (p0 - p1)))
        u = kraus_equivalent(k1, k2)
        assert u is not None
        assert np.allclose(u, [[root, root], [root, -root]])
        for l in range(2):
            mixed = sum(u[l, k] * k1.ops[k] for k in range(2))
            assert np.allclose(mixed, k2.ops[l])

    def test_inequivalent_maps(self):
        k1 = KrausSet(2, 2, (np.eye(2, dtype=complex),))
        k2 = KrausSet(2, 2, (np.diag([1.0, -1.0]).astype(complex),))
        assert kraus_equivalent(k1, k2) is None

    def test_count_mismatch(self):
        k1 = KrausSet(2, 2, (np.eye(2, dtype=complex),))
        assert kraus_equivalent(k1, depolarizing_kraus()) is None

    def test_rejects_non_minimal(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InstrumentumError, match="not minimal"):
            kraus_equivalent(KrausSet(2, 2, (a, a)), KrausSet(2, 2, (a, a)))

    def test_rejects_mismatched_spaces(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="different spaces"):
            kraus_equivalent(KrausSet(2, 2, (eye,)), KrausSet(2, 3, (np.eye(3, 2),)))

    def test_empty_sets(self):
        u = kraus_equivalent(KrausSet(2, 3, ()), KrausSet(2, 3, ()))
        assert u.shape == (0, 0) and u.dtype == np.complex128

    def test_minimal_regeneration_is_equivalent(self):
        rng = np.random.default_rng(41)
        ops = tuple(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)
        )
        k1 = kraus_from_choi(choi(KrausSet(2, 2, ops)))
        k2 = kraus_from_choi(choi(k1))
        u = kraus_equivalent(k1, k2)
        assert u is not None
        assert kraus_action_distance(k1, k2) < 1e-12

    def test_choi_match_with_a_non_unitary_relation_is_refused(self):
        # tiny operators: scaling them by 1 + 1e-7 moves the Choi matrix by about 4e-12,
        # within eps_eq, but relates the two sets by u = (1 + 1e-7) I, which is not unitary
        rng = np.random.default_rng(3)
        ops = tuple(
            1e-3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) for _ in range(2)
        )
        k1 = KrausSet(3, 3, ops)
        k2 = KrausSet(3, 3, tuple((1 + 1e-7) * op for op in ops))
        tol = DEFAULT_TOL
        assert np.linalg.norm(choi(k1).matrix - choi(k2).matrix) <= tol.eps_eq
        assert np.linalg.norm(choi(k1).matrix) < 1e-4
        assert np.allclose(kraus_equivalent(k1, k1, tol), np.eye(2), rtol=0, atol=1e-12)
        assert kraus_equivalent(k1, k2, tol) is None


def corpus_kraus_sets(corpus):
    """Every outcome Kraus set of the corpus plus a d=8 instrument, by name."""
    rng = np.random.default_rng(97)
    instruments = dict(corpus, **{"random-8to8": rand_instrument(rng, 8, 8, (3, 2, 2))})
    for name, m in instruments.items():
        for label, kraus in m.outcomes:
            yield f"{name}[{label}]", kraus


class TestMinimalKraus:
    def test_same_map_as_kraus_from_choi(self, corpus):
        for name, kraus in corpus_kraus_sets(corpus):
            got = minimal_kraus(kraus)
            want = kraus_from_choi(choi(kraus))
            assert len(got) == len(want), name
            assert action_distance(got, want) <= 1e-14, name

    def test_operators_match_kraus_from_choi_on_a_simple_spectrum(self):
        # distinct Choi eigenvalues fix each operator up to the shared phase rule
        rng = np.random.default_rng(97)
        for dim_in, dim_out, count in ((3, 2, 3), (2, 4, 5), (4, 4, 2)):
            kraus = rand_instrument(rng, dim_in, dim_out, (count,)).outcome(0)
            got = minimal_kraus(kraus)
            want = kraus_from_choi(choi(kraus))
            assert np.abs(got.stack - want.stack).max() <= 1e-12

    def test_drops_dependent_operators(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        assert len(minimal_kraus(KrausSet(2, 2, (a, 2 * a, -a)))) == 1
        assert len(minimal_kraus(KrausSet(2, 3, ()))) == 0
        assert len(minimal_kraus(KrausSet(2, 3, (np.zeros((3, 2)),) * 2))) == 0


class TestActionDistance:
    def test_matches_loop_oracle(self, corpus):
        """All outcome pairs of each instrument, covering empty sets and dim_in != dim_out."""
        rng = np.random.default_rng(98)
        instruments = dict(corpus, **{"random-8to8": rand_instrument(rng, 8, 8, (3, 2, 0))})
        for name, m in instruments.items():
            for _, k1 in m.outcomes:
                for _, k2 in m.outcomes:
                    want = kraus_action_distance(k1, k2)
                    assert abs(action_distance(k1, k2) - want) <= 1e-14 * max(1.0, want), name
        assert any(m.dim_in != m.dim_out for m in instruments.values())
        assert any(len(k) == 0 for m in instruments.values() for _, k in m.outcomes)

    def test_unitary_remix_is_zero(self, corpus):
        rng = np.random.default_rng(99)
        for name, kraus in corpus_kraus_sets(corpus):
            if not kraus.ops:
                continue
            u = rand_unitary(rng, len(kraus))
            ops = np.stack(kraus.ops)
            remixed = KrausSet(kraus.dim_in, kraus.dim_out, tuple(np.tensordot(u, ops, axes=1)))
            assert action_distance(kraus, remixed) <= 1e-14, name
            assert action_distance(kraus, minimal_kraus(kraus)) <= 1e-12, name

    def test_zero_map_distance_is_largest_block(self):
        k = depolarizing_kraus()
        zero = KrausSet(2, 2, ())
        # every block E(|k_s><k_t|) of the depolarizing map is delta_st I / 2
        assert action_distance(k, zero) == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert action_distance(zero, zero) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different spaces"):
            action_distance(KrausSet(2, 3, ()), KrausSet(3, 2, ()))

    def test_equal_maps_in_different_gauges(self):
        rng = np.random.default_rng(100)
        six = rand_instrument(rng, 3, 4, (6,)).outcome(0)
        v = rand_unitary(rng, 8)[:, :6]  # B_l = sum_k v[l, k] A_k: the same map, 8 operators
        eight = KrausSet(3, 4, np.tensordot(v, six.stack, axes=1))
        assert kraus_action_distance(six, eight) <= 1e-14
        assert action_distance(six, eight) <= 1e-14
        assert action_distance(eight, six) <= 1e-14

    def test_more_operators_than_the_choi_side(self):
        rng = np.random.default_rng(101)
        m = rand_instrument(rng, 2, 2, (3, 4))  # 7 operators, Choi matrices 4 x 4
        k1, k2 = m.outcome(0), m.outcome(1)
        want = kraus_action_distance(k1, k2)
        assert want > 0.1
        assert abs(action_distance(k1, k2) - want) <= 1e-14 * want

    def test_two_sided_core_matches_loop(self):
        # B -> sum a_k^dag B c_k - sum b_k^dag B d_k, the form pvm_compat checks; its value
        # at B^dag is the adjoint of the swapped form's, so both have the same largest block
        rng = np.random.default_rng(103)

        def ops(n):
            return rng.standard_normal((n, 4, 3)) + 1j * rng.standard_normal((n, 4, 3))

        a, b, c, d = ops(3), ops(2), ops(3), ops(2)
        worst = {}
        for key, (pl, mi, pr, mr) in {"ac": (a, b, c, d), "ca": (c, d, a, b)}.items():
            worst[key] = max(
                np.linalg.norm(
                    sum(x.conj().T @ u @ y for x, y in zip(pl, pr))
                    - sum(x.conj().T @ u @ y for x, y in zip(mi, mr))
                )
                for u in matrix_units(4)
            )
        got = _difference([((a, b), (c, d))], 3)[0][0]
        assert worst["ac"] == pytest.approx(worst["ca"], rel=1e-14)
        assert got == pytest.approx(worst["ac"], rel=1e-13)

    def test_empty_family_on_either_side(self):
        k = rand_instrument(np.random.default_rng(102), 3, 2, (2,)).outcome(0)
        zero = KrausSet(3, 2, ())
        want = kraus_action_distance(k, zero)
        for got in (action_distance(k, zero), action_distance(zero, k)):
            assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize(
    "counts, dims",
    [
        ((2, 3), (3, 2)),
        ((4, 1), (2, 3)),
        ((0, 3), (2, 3)),
        ((3, 0), (3, 2)),
        ((0, 0), (2, 2)),
        ((7, 5), (2, 2)),  # 12 operators against Choi matrices 4 x 4
    ],
    ids=["random", "random-wide", "empty-left", "empty-right", "both-empty", "more-than-choi-side"],
)
def test_difference_norm_is_that_of_the_choi_difference(counts, dims):
    rng = np.random.default_rng(104)
    dim_in, dim_out = dims
    shapes = [(n, dim_out, dim_in) for n in counts]
    k1, k2 = (
        KrausSet(dim_in, dim_out, rng.standard_normal(s) + 1j * rng.standard_normal(s))
        for s in shapes
    )
    pair = (k1.stack, k2.stack)
    (largest, frobenius), = _difference([(pair, pair)], dim_in)
    want = np.linalg.norm(choi(k1).matrix - choi(k2).matrix)
    assert abs(frobenius - want) <= 1e-13 * want
    assert largest == action_distance(k1, k2)


def dense_difference(pair, dim_in):
    """``(largest block norm, ||D||_F)`` of a pair of ``_difference``, from ``D`` itself."""
    (a, b), (c, d) = pair

    def w(x):
        return x.reshape(len(x), x.shape[1] * dim_in).conj().T

    diff = w(a) @ w(c).conj().T - w(b) @ w(d).conj().T
    dim_out = len(diff) // dim_in
    blocks = diff.reshape(dim_out, dim_in, dim_out, dim_in)
    return float(np.linalg.norm(blocks, axis=(1, 3)).max()), float(np.linalg.norm(diff))


def _ops(rng, n, dims):
    dim_in, dim_out = dims
    shape = (n, dim_out, dim_in)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _one_sided(rng, counts, dims):
    left = (_ops(rng, counts[0], dims), _ops(rng, counts[1], dims))
    return left, left


def _pvm_compat_form(rng, counts, dims):
    """``((C M^dag, A), (C, A))``: ``B -> M T(B) - M(i, B)`` as ``pvm_compat`` checks it."""
    ops, kraus = _ops(rng, counts[0], dims), _ops(rng, counts[1], dims)
    effect = _ops(rng, 1, (dims[0], dims[0]))[0]
    return (ops @ effect.conj().T, kraus), (ops, kraus)


class TestDifferenceForms:
    """``_difference`` forms ``D`` itself exactly when that costs no more than the QR core."""

    # at dim_in 8, dim_out 4 (a Choi side of 32), a one-sided pair of width N costs 32^2 N
    # formed against 80 N^2 + 8 N^3 on the core, so widths 8 and up are formed; a two-sided
    # pair factors its right columns too, 144 N^2 + 8 N^3, so widths 6 and up are formed
    @pytest.mark.parametrize("form, formed_from", [(_one_sided, 8), (_pvm_compat_form, 6)])
    def test_widths_across_the_boundary_agree_with_the_dense_difference(
        self, decompositions, form, formed_from
    ):
        rng = np.random.default_rng(107)
        dims = (8, 4)
        qrs = []
        for width in range(1, 17):
            pair = form(rng, (width - width // 3, width // 3), dims)
            decompositions.clear()
            got = _difference([pair], 8)[0]
            qrs.append(decompositions.number("qr"))
            want = dense_difference(pair, 8)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * w
        assert qrs == [1] * (formed_from - 1) + [0] * (17 - formed_from)

    @pytest.mark.parametrize("d", [8, 12])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    def test_exactly_agreeing_maps_read_near_zero_on_both_forms(self, decompositions, d, scale):
        # a full-rank Kraus stack and its unitary remix: the same map, so every block of D is
        # zero but for rounding, of order eps ||W||_F^2 on either form
        rng = np.random.default_rng([108, d])
        k = rand_instrument(rng, d, d, (d * d,)).outcome(0)
        a = scale * k.stack
        b = np.tensordot(rand_unitary(rng, d * d), a, axes=1)
        pair = (a, b)
        bound = 4 * np.finfo(float).eps * np.linalg.norm(a) ** 2
        decompositions.clear()
        formed = _difference([(pair, pair)], d)[0]
        assert len(decompositions) == 0
        core = cpmaps._core_difference([(pair, pair)], d)[0]
        assert decompositions.number("qr") == 1
        assert formed[0] <= bound and core[0] <= bound
        assert formed[1] <= d * bound and core[1] <= d * bound


class TestStackedDifference:
    """One ``_difference`` call over many pairs gives each pair's values alone.

    Calls whose pairs are wide against the Choi side form each difference and
    decompose nothing; tall narrow ones go to the QR core, one stacked QR
    within the slab budget.
    """

    @pytest.mark.parametrize(
        "form, dims, counts, qrs",
        [
            (_one_sided, (3, 2), ((2, 3), (0, 0), (4, 1), (1, 0), (0, 2)), 0),
            (_pvm_compat_form, (3, 3), ((2, 2), (0, 3), (3, 1), (0, 0)), 0),
            (_one_sided, (2, 2), ((7, 5), (1, 1), (3, 0)), 0),  # 12 columns against a Choi side of 4
            (_pvm_compat_form, (2, 2), ((6, 4), (1, 0)), 0),
            (_one_sided, (6, 4), ((2, 3), (0, 0), (4, 1), (1, 0), (0, 2)), 1),  # a Choi side of 24
            (_pvm_compat_form, (6, 4), ((2, 2), (0, 3), (3, 1), (0, 0)), 1),
        ],
        ids=[
            "mixed-widths",
            "two-sided",
            "wider-than-choi-side",
            "two-sided-wide",
            "tall-mixed-widths",
            "tall-two-sided",
        ],
    )
    def test_each_pair_as_alone(self, decompositions, form, dims, counts, qrs):
        rng = np.random.default_rng(105)
        pairs = [form(rng, n, dims) for n in counts]
        decompositions.clear()
        values = _difference(pairs, dims[0])
        assert len(decompositions) == decompositions.number("qr") == qrs
        assert len(values) == len(pairs)
        for pair, got in zip(pairs, values):
            alone = _difference([pair], dims[0])[0]
            want = dense_difference(pair, dims[0])
            for g, a, w in zip(got, alone, want):
                assert abs(g - a) <= 1e-15 * a
                assert abs(g - w) <= 1e-13 * max(w, 1.0)
            if not sum(len(s) for s in pair[0]):
                assert got == (0.0, 0.0)

    def test_slabs_stay_under_the_entry_budget(self, decompositions):
        # at d = 8 (Choi side 64) a pair of width 8 counts 64 * 8 + 8 * 8**2 = 1024 padded
        # entries, and one of width 64 counts 64 * 64 + 8 * 64**2, over the budget alone
        rng = np.random.default_rng(106)
        dims = (8, 8)
        per_call = cpmaps._SLAB_ENTRIES // 1024
        assert 64 * 64 + 8 * 64**2 > cpmaps._SLAB_ENTRIES and 1 < per_call < 40
        narrow = [_one_sided(rng, (4, 4), dims) for _ in range(40)]
        decompositions.clear()
        _difference(narrow[:per_call], 8)  # at the budget: the whole call in one QR
        assert [np.shape(a) for _, a, _ in decompositions] == [(per_call, 64, 8)]
        # a pair of width 16 alone is cheaper formed (64^2 * 16 multiply-adds against
        # 114688 for the core); beside 40 narrow ones the call stays on the core
        pairs = [_one_sided(rng, (8, 8), dims)] + narrow
        decompositions.clear()
        assert _difference(pairs[:1], 8) and len(decompositions) == 0
        values = _difference(pairs, 8)
        shapes = [np.shape(a) for name, a, _ in decompositions if name == "qr"]
        # over the budget: each pair alone, in order, unpadded
        assert shapes == [(1, 64, 16)] + [(1, 64, 8)] * 40
        for pair, got in zip(pairs, values):
            want = dense_difference(pair, 8)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * max(w, 1.0)
        for pair, got in zip(pairs[1:], values[1:]):
            assert got == _difference([pair], 8)[0]

    def test_no_pairs(self):
        assert _difference([], 3) == []
