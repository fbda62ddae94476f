"""Instrument and POVM constructions: validation, associates, composition."""

import numpy as np
import pytest

from instrumentum import (
    BiInstrument,
    DiscreteInstrument,
    InstrumentumError,
    KrausSet,
    Povm,
    apply_heisenberg,
    associate_channel,
    associate_povm,
    compose_sequential,
    lueders,
    margins,
    nuclear,
    refine_rank1,
    trivial_from_channel,
    trivial_from_povm,
    validate,
)

from instrumentum.cpmaps import _effect

from helpers import (
    action_distance,
    basis_pvm,
    kraus_action_distance,
    matrix_units,
    rand_instrument,
    rand_state,
)


def qubit_z_luders():
    return lueders(basis_pvm(2, ((0,), (1,))))


class TestContainers:
    def test_duplicate_labels(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="duplicate"):
            Povm(2, (("a", eye / 2), ("a", eye / 2)))

    def test_label_types(self):
        with pytest.raises(ValueError, match="label"):
            Povm(2, ((1.5, np.eye(2) / 2),))

    def test_effect_lookup(self):
        p = basis_pvm(2, ((0,), (1,)), labels=("up", "down"))
        assert p.effect("up")[0, 0] == 1.0
        with pytest.raises(KeyError):
            p.effect("sideways")

    def test_outcome_shape_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteInstrument(2, 2, (("0", KrausSet(3, 2, ())),))

    def test_raw_tuples_accepted(self):
        m = DiscreteInstrument(2, 2, (("0", (np.eye(2, dtype=complex),)),))
        assert isinstance(m.outcome("0"), KrausSet)

    def test_bi_instrument_label_check(self):
        k = KrausSet(2, 2, (np.eye(2, dtype=complex),))
        with pytest.raises(ValueError, match="ordered pair"):
            BiInstrument(2, 2, (("x", k),), first_labels=("a",), second_labels=("b",))
        with pytest.raises(ValueError, match="product label set"):
            BiInstrument(2, 2, ((("a", "c"), k),), first_labels=("a",), second_labels=("b",))


class TestValidate:
    def test_luders_exact(self):
        report = validate(qubit_z_luders())
        assert report.passed
        assert report.normalization_defect == 0.0
        assert report.outcome_kraus_counts == ((0, 1), (1, 1))

    def test_detects_broken_normalization(self):
        ops = (1.1 * np.eye(2, dtype=complex),)
        report = validate(DiscreteInstrument(2, 2, (("0", ops),)))
        assert not report.passed
        assert report.normalization_defect > 0.1


class TestAssociates:
    def test_povm_of_luders(self):
        p = associate_povm(qubit_z_luders())
        assert np.allclose(p.effect(0), np.diag([1.0, 0.0]))
        assert np.allclose(p.effect(1), np.diag([0.0, 1.0]))

    def test_channel_pools_operators(self):
        m = qubit_z_luders()
        t = associate_channel(m)
        assert len(t) == 2
        # the pooled channel acts as full dephasing
        b = np.array([[0.3, 0.7], [0.2, 0.5]], dtype=complex)
        assert np.allclose(apply_heisenberg(t, b), np.diag([0.3, 0.5]))


class TestLueders:
    def test_requires_projections(self):
        with pytest.raises(InstrumentumError, match="not a projection"):
            lueders(Povm(2, (("a", np.eye(2, dtype=complex) / 2), ("b", np.eye(2, dtype=complex) / 2))))

    def test_block_projection(self):
        m = lueders(basis_pvm(3, ((0, 1), (2,))))
        b = np.arange(9, dtype=complex).reshape(3, 3)
        out = apply_heisenberg(m.outcome(0), b)
        expected = b.copy()
        expected[2, :] = 0.0
        expected[:, 2] = 0.0
        assert np.allclose(out, expected)


class TestTrivial:
    def test_kraus_counts_match_effect_ranks(self):
        p = Povm(2, (("a", np.eye(2, dtype=complex) / 2), ("b", np.eye(2, dtype=complex) / 2)))
        m = trivial_from_povm(p)
        assert m.dim_out == 1
        assert tuple(len(k) for _, k in m.outcomes) == (2, 2)

    def test_reproduces_effects(self):
        p = basis_pvm(3, ((0, 2), (1,)), labels=("even", "odd"))
        m = trivial_from_povm(p)
        one = np.eye(1, dtype=complex)
        for label, _ in p.effects:
            rebuilt = apply_heisenberg(m.outcome(label), one)
            assert np.allclose(rebuilt, p.effect(label))

    def test_zero_effect_gets_empty_set(self):
        p = Povm(2, (("a", np.eye(2, dtype=complex)), ("b", np.zeros((2, 2)))))
        m = trivial_from_povm(p)
        assert len(m.outcome("b")) == 0

    def test_from_channel(self):
        t = KrausSet(2, 2, (np.eye(2, dtype=complex),))
        m = trivial_from_channel(t)
        assert m.labels == (0,)
        with pytest.raises(InstrumentumError):
            trivial_from_channel(KrausSet(2, 2, (2.0 * np.eye(2, dtype=complex),)))


class TestNuclear:
    def test_hand_case(self):
        # M(i, B) = tr[sigma_i B] E_i for the +/- POVM with one pure and one
        # mixed output state
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        p = Povm(2, (("+", plus), ("-", minus)))
        sigma = (np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2)
        m = nuclear(p, sigma)
        assert validate(m).passed
        for (label, kraus), s in zip(m.outcomes, sigma):
            for b in matrix_units(2):
                expected = np.trace(s @ b) * p.effect(label)
                assert np.allclose(apply_heisenberg(kraus, b), expected)

    def test_kraus_count_is_rank_product(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        p = Povm(2, (("+", plus), ("-", minus)))
        m = nuclear(p, (np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2))
        assert len(m.outcome("+")) == 1  # rank-1 effect, pure state
        assert len(m.outcome("-")) == 2  # rank-1 effect, rank-2 state

    def test_rejects_non_state(self):
        p = basis_pvm(2, ((0,), (1,)))
        bad = (np.diag([1.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(InstrumentumError, match="trace"):
            nuclear(p, bad)

    def test_rejects_empty_state(self):
        p = Povm(1, ((0, [[1.0]]),))
        with pytest.raises(ValueError, match=r"must be nonempty, got shape \(0, 0\)"):
            nuclear(p, [np.zeros((0, 0))])


class TestCompose:
    def test_luders_squared(self):
        m = qubit_z_luders()
        mm = compose_sequential(m, m)
        assert isinstance(mm, BiInstrument)
        assert mm.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        # projections onto orthogonal subspaces compose to zero off the diagonal
        for lab1, lab2 in mm.labels:
            ops = mm.outcome((lab1, lab2)).ops
            if lab1 != lab2:
                assert all(np.linalg.norm(op) == 0.0 for op in ops)

    def test_margins(self):
        m1 = qubit_z_luders()
        m2 = lueders(basis_pvm(2, ((0, 1),), labels=("all",)))
        composed = compose_sequential(m1, m2)
        first, second = margins(composed)
        for label in m1.labels:
            assert np.allclose(first.effect(label), associate_povm(m1).effect(label))
        # second margin pushes the second effects through the full first channel
        t1 = associate_channel(m1)
        for label in m2.labels:
            expected = apply_heisenberg(t1, associate_povm(m2).effect(label))
            assert np.allclose(second.effect(label), expected)

    def test_margins_are_the_loop_over_outcomes_to_the_bit(self, corpus):
        def margins_loop(b):
            zero = np.zeros((b.dim_in, b.dim_in), dtype=np.complex128)
            first = dict.fromkeys(b.first_labels, zero)
            second = dict.fromkeys(b.second_labels, zero)
            for (lab1, lab2), kraus in b.outcomes:
                effect = _effect(kraus)
                first[lab1], second[lab2] = first[lab1] + effect, second[lab2] + effect
            return tuple(first.items()), tuple(second.items())

        composed = [
            compose_sequential(m1, m2)
            for m1 in corpus.values()
            for m2 in corpus.values()
            if m1.dim_out == m2.dim_in
        ]
        # the Lueders instrument twice, off-diagonal zero outcomes left out and the rest reversed,
        # with a first label no outcome carries: a strict subset of the product set, out of order
        z = qubit_z_luders()
        kept = [(label, k) for label, k in compose_sequential(z, z).outcomes if label[0] == label[1]]
        composed.append(BiInstrument(2, 2, kept[::-1], (0, 1, "unused"), (0, 1)))
        for b in composed:
            for got, expected in zip(margins(b), margins_loop(b)):
                assert [(lab, e.tobytes()) for lab, e in got.effects] == [
                    (lab, e.tobytes()) for lab, e in expected
                ]

    def test_products_follow_first_then_second_operator(self):
        rng = np.random.default_rng(53)
        m1 = rand_instrument(rng, 2, 3, (2, 3))
        m2 = rand_instrument(rng, 3, 2, (3, 1))
        composed = compose_sequential(m1, m2)
        for lab1, k1 in m1.outcomes:
            for lab2, k2 in m2.outcomes:
                expected = np.array([b @ a for a in k1.ops for b in k2.ops])
                assert composed.outcome((lab1, lab2)).stack.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        m1 = qubit_z_luders()
        m2 = lueders(basis_pvm(3, ((0, 1, 2),)))
        with pytest.raises(ValueError, match="compose"):
            compose_sequential(m1, m2)


class TestRefine:
    def test_luders_only_relabels(self):
        m = lueders(basis_pvm(3, ((0, 1), (2,))))
        refined = refine_rank1(m)
        assert refined.labels == ((0, 0), (0, 1))
        assert all(len(k) == 1 for _, k in refined.outcomes)

    def test_splits_and_sums_back(self):
        rng = np.random.default_rng(47)
        p = Povm(2, (("a", np.eye(2, dtype=complex) / 2), ("b", np.eye(2, dtype=complex) / 2)))
        m = trivial_from_povm(p)
        refined = refine_rank1(m)
        assert len(refined) == 4
        for label, kraus in m.outcomes:
            pooled = tuple(
                op
                for (k, lab), piece in refined.outcomes
                if lab == label
                for op in piece.ops
            )
            rebuilt = KrausSet(m.dim_in, m.dim_out, pooled)
            assert kraus_action_distance(kraus, rebuilt) < 1e-12

    def test_zero_outcomes_vanish(self):
        m = DiscreteInstrument(
            2,
            2,
            (("live", (np.eye(2, dtype=complex),)), ("dead", KrausSet(2, 2, ()))),
        )
        refined = refine_rank1(m)
        assert refined.labels == ((0, "live"),)


class TestActionHelpers:
    def test_distance_zero_on_self(self, corpus):
        for m in corpus.values():
            assert action_distance(m, m) == 0.0

    def test_schrodinger_duality_on_corpus(self, corpus):
        rng = np.random.default_rng(53)
        for m in corpus.values():
            rho = rand_state(rng, m.dim_in)
            total = sum(
                np.trace(apply_heisenberg(k, np.eye(m.dim_out, dtype=complex)) @ rho).real
                for _, k in m.outcomes
            )
            assert abs(total - 1.0) < 1e-9
