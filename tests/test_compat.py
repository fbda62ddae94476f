"""Compatibility structures: coefficient builds, fiber channels, factorizations."""

import numpy as np
import pytest

from instrumentum import (
    CompatCoefficients,
    InstrumentumError,
    KrausSet,
    Povm,
    Tolerances,
    apply_heisenberg,
    apply_schrodinger,
    associate_povm,
    compat_channel,
    compat_from_coeffs,
    lueders,
    lueders_factorization,
    nuclear,
    pvm_compat,
    rank1_nuclear_extract,
    trivial_from_povm,
    validate,
)

from helpers import (
    basis_pvm,
    matrix_units,
    near_cut_instrument,
    rand_coeffs_tensor,
    rand_povm,
    rand_instrument,
    rand_state,
)


def smeared_povm():
    eye = np.eye(2, dtype=complex)
    return Povm(2, (("a", eye / 2), ("b", eye / 2)))


class TestCompatCoefficients:
    def test_tensor_rank_check(self):
        with pytest.raises(ValueError, match="rank-3"):
            CompatCoefficients(2, (("a", np.eye(2)),))

    def test_middle_dimension_check(self):
        with pytest.raises(ValueError, match="middle dimension"):
            CompatCoefficients(3, (("a", np.zeros((1, 2, 1))),))

    def test_labels_property(self):
        c = CompatCoefficients(2, (("a", np.zeros((1, 2, 1))), ("b", np.zeros((1, 2, 2)))))
        assert c.labels == ("a", "b")

    def test_rejects_non_finite(self):
        # a NaN tensor would pass compat_from_coeffs's orthonormality cutoff
        tensor = np.full((1, 2, 1), np.nan)
        with pytest.raises(ValueError, match="coefficient tensor for 'a' contains NaN or Inf"):
            CompatCoefficients(2, (("a", tensor),))


class TestCompatFromCoeffs:
    def test_rank_one_pvm_gives_nuclear_form(self):
        # for a rank-1 PVM each coefficient row is a unit vector w_i and the
        # built instrument acts as B |-> <w_i|B|w_i> E_i
        p = basis_pvm(2, ((0,), (1,)))
        rows = (np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        outcomes = []
        for lab, w in zip((0, 1), rows):
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, :, 0] = w
            outcomes.append((lab, t))
        m = compat_from_coeffs(p, CompatCoefficients(2, tuple(outcomes)))
        assert validate(m).passed
        b = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
        for lab, w in zip((0, 1), rows):
            got = apply_heisenberg(m.outcome(lab), b)
            assert np.allclose(got, (w.conj() @ b @ w) * p.effect(lab))

    def test_full_rank_effects(self):
        t = np.zeros((2, 2, 1), dtype=complex)
        t[0, 0, 0] = 1.0
        t[1, 1, 0] = 1.0
        m = compat_from_coeffs(smeared_povm(), CompatCoefficients(2, (("a", t), ("b", t))))
        assert validate(m).passed
        assert tuple(len(k) for _, k in m.outcomes) == (1, 1)
        # single Kraus reproducing a rank-2 effect I/2 must be unitary/sqrt(2)
        op = m.outcome("a").ops[0]
        assert np.allclose(op.conj().T @ op, np.eye(2) / 2)

    def test_recovers_the_povm(self):
        rng = np.random.default_rng(641)
        p = rand_povm(rng, 2, 3)
        outcomes = []
        for (lab, effect), r in zip(p.effects, (1, 2, 1)):
            n_i = np.linalg.matrix_rank(effect, tol=1e-10)
            outcomes.append((lab, rand_coeffs_tensor(rng, n_i, 2, r)))
        m = compat_from_coeffs(p, CompatCoefficients(2, tuple(outcomes)))
        rebuilt = associate_povm(m)
        for lab in p.labels:
            assert np.linalg.norm(rebuilt.effect(lab) - p.effect(lab)) < 1e-10

    def test_rejects_non_orthonormal_rows(self):
        bad = np.ones((2, 2, 1), dtype=complex)
        with pytest.raises(InstrumentumError, match="orthonormal"):
            compat_from_coeffs(smeared_povm(), CompatCoefficients(2, (("a", bad), ("b", bad))))

    def test_rejects_row_count_mismatch(self):
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="rank"):
            compat_from_coeffs(smeared_povm(), CompatCoefficients(2, (("a", t), ("b", t))))

    def test_rejects_label_mismatch(self):
        t = np.zeros((2, 2, 1), dtype=complex)
        t[0, 0, 0] = 1.0
        t[1, 1, 0] = 1.0
        with pytest.raises(ValueError, match="labels"):
            compat_from_coeffs(smeared_povm(), CompatCoefficients(2, (("x", t), ("b", t))))


class TestCompatChannel:
    def test_corpus_round_trip(self, corpus):
        for name, m in corpus.items():
            dec = compat_channel(m)
            assert dec.passed, name
            assert dec.max_residual <= 1e-9, name
            assert len(dec.channels) == len(m.outcomes)

    def test_fiber_dimension_bound(self, corpus):
        for m in corpus.values():
            dec = compat_channel(m)
            for n_prime, n in zip(dec.fiber_dims, dec.naimark_dims):
                assert n_prime <= m.dim_out * n

    def test_zero_outcome_has_no_channel(self, corpus):
        m = corpus["zero-outcome"]
        dec = compat_channel(m)
        zero_at = next(i for i, (_, k) in enumerate(m.outcomes) if len(k) == 0)
        assert dec.channels[zero_at] is None
        assert dec.fiber_dims[zero_at] == 0

    def test_channels_are_channels(self, corpus):
        m = corpus["random-3to2"]
        dec = compat_channel(m)
        for t in dec.channels:
            if t is None:
                continue
            total = sum(op.conj().T @ op for op in t.ops)
            assert np.allclose(total, np.eye(t.dim_in), atol=1e-9)


class TestLuedersFactorization:
    def test_luders_through_itself(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        channel, report = lueders_factorization(m, subset=(0,))
        assert report.passed
        assert report.subset == (0,)
        assert report.max_identity_error <= 1e-12
        # M(0, B) = sqrt(E_0) Phi(B) sqrt(E_0) with E_0 a projection
        root = np.diag([1.0, 0.0]).astype(complex)
        b = np.array([[0.4, 0.2], [0.2, 0.6]], dtype=complex)
        direct = apply_heisenberg(m.outcome(0), b)
        assert np.allclose(root @ apply_heisenberg(channel, b) @ root, direct, atol=1e-12)

    def test_full_subset_default(self, corpus):
        m = corpus["random-2to2"]
        channel, report = lueders_factorization(m)
        assert report.subset == m.labels
        assert report.passed
        assert report.unit_defect <= 1e-9

    def test_singletons_on_corpus(self, corpus):
        for name, m in corpus.items():
            for label in m.labels:
                channel, report = lueders_factorization(m, subset=(label,))
                assert report.passed, (name, label)
                assert report.max_identity_error <= 1e-9, (name, label)

    def test_unknown_label(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        with pytest.raises(KeyError):
            lueders_factorization(m, subset=("nope",))


class TestNearCut:
    """Effects with an eigenvalue between 1e-9 and 1e-7 keep it, and every check passes.

    The small eigenvalue sits far above ``sv_rel_cutoff``, so the Naimark
    fiber must keep its direction to rounding for the identities to hold.
    """

    @pytest.mark.parametrize("lam", [1e-7, 1e-8, 1e-9])
    def test_compat_channel_passes(self, lam):
        decs = [compat_channel(near_cut_instrument(seed, lam)) for seed in range(20)]
        assert [seed for seed, dec in enumerate(decs) if not dec.passed] == []
        assert all(dec.naimark_dims == (2, 2) and dec.fiber_dims == (1, 1) for dec in decs)

    @pytest.mark.parametrize("lam", [1e-7, 1e-8, 1e-9])
    def test_lueders_factorization_passes(self, lam):
        reports = [
            lueders_factorization(near_cut_instrument(seed, lam), (0,))[1] for seed in range(20)
        ]
        assert [seed for seed, report in enumerate(reports) if not report.passed] == []


class TestPvmCompat:
    def test_luders_passes(self):
        m = lueders(basis_pvm(3, ((0, 1), (2,))))
        channel, report = pvm_compat(m)
        assert report.passed
        assert report.max_identity_error <= 1e-12
        # the defining identities: P_i T(B) = T(B) P_i = M(i, B)
        b = np.arange(9, dtype=complex).reshape(3, 3)
        b = b + b.conj().T
        tb = apply_heisenberg(channel, b)
        for lab, _ in m.outcomes:
            effect = associate_povm(m).effect(lab)
            assert np.allclose(effect @ tb, apply_heisenberg(m.outcome(lab), b), atol=1e-12)
            assert np.allclose(tb @ effect, apply_heisenberg(m.outcome(lab), b), atol=1e-12)

    def test_rejects_non_projective(self):
        # the POVM of trivial_from_povm(p) is p, so lueders(p) judges the same effects
        message = r"^effect 'a' is not a projection: defect 3\.536e-01$"
        with pytest.raises(InstrumentumError, match=message):
            pvm_compat(trivial_from_povm(smeared_povm()))
        with pytest.raises(InstrumentumError, match=message):
            lueders(smeared_povm())


class TestNuclearExtract:
    def test_hand_case(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        p = Povm(2, (("+", plus), ("-", minus)))
        sigma = (np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex) / 2)
        m = nuclear(p, sigma)
        povm_out, states, report = rank1_nuclear_extract(m)
        assert report.passed
        assert report.max_probe_error <= 1e-12
        assert report.rebuild_error <= 1e-12
        for lab, want_effect in zip(("+", "-"), (plus, minus)):
            assert np.allclose(povm_out.effect(lab), want_effect, atol=1e-12)
        for got, want in zip(states, sigma):
            assert np.allclose(got, want, atol=1e-12)

    def test_extraction_is_probe_independent(self):
        rng = np.random.default_rng(389)
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        p = Povm(2, (("+", plus), ("-", minus)))
        m = nuclear(p, (rand_state(rng, 2), rand_state(rng, 2)))
        povm_out, states, report = rank1_nuclear_extract(m)
        rho = rand_state(rng, 2)
        for (lab, kraus), sigma in zip(m.outcomes, states):
            prob = float(np.trace(rho @ povm_out.effect(lab)).real)
            conditioned = apply_schrodinger(kraus, rho) / prob
            assert np.linalg.norm(conditioned - sigma) < 1e-9

    def test_zero_effect_state_convention(self):
        p = Povm(
            2,
            (
                ("up", np.diag([1.0, 0.0]).astype(complex)),
                ("down", np.diag([0.0, 1.0]).astype(complex)),
                ("never", np.zeros((2, 2))),
            ),
        )
        eye = np.eye(2, dtype=complex)
        m = nuclear(p, (eye / 2, eye / 2, eye / 2))
        _, states, report = rank1_nuclear_extract(m)
        assert report.passed
        assert np.allclose(states[2], eye / 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_tight_eps_psd_keeps_the_instruments_own_effects(self, seed):
        # rank-one effects on C^3 have eigenvalues near -1e-16, which no positivity check
        # passes at eps_psd=1e-300; the rebuild must not re-check the instrument's own POVM
        p = associate_povm(rand_instrument(np.random.default_rng(seed), 3, 1, (1, 1, 1, 1)))
        m = nuclear(p, [np.eye(2, dtype=complex) / 2] * 4)
        _, states, report = rank1_nuclear_extract(m, Tolerances(eps_psd=1e-300))
        assert report.passed
        assert report.rebuild_error <= 1e-12
        for sigma in states:
            assert np.allclose(sigma, np.eye(2) / 2, atol=1e-12)

    def test_rejects_higher_rank_effects(self):
        with pytest.raises(InstrumentumError, match="rank 2"):
            rank1_nuclear_extract(trivial_from_povm(smeared_povm()))

    def test_rejects_non_nuclear_instrument(self):
        m = lueders(basis_pvm(2, ((0,), (1,))))
        povm_out, states, report = rank1_nuclear_extract(m)
        # a Lüders instrument of a rank-1 PVM *is* nuclear, so this passes;
        # the posterior states are the basis projections themselves
        assert report.passed
        assert np.allclose(states[0], np.diag([1.0, 0.0]))
        assert np.allclose(states[1], np.diag([0.0, 1.0]))
