"""Compatibility structures: coefficient builds, fiber channels, factorizations."""

import numpy as np
import pytest

from instrumentum import (
    DEFAULT_TOL,
    CompatCoefficients,
    DiscreteInstrument,
    InstrumentumError,
    KrausSet,
    Povm,
    Tolerances,
    action_distance,
    apply_heisenberg,
    apply_schrodinger,
    associate_povm,
    compat_channel,
    compat_from_coeffs,
    lueders,
    lueders_factorization,
    measurement_model,
    minimal_kraus,
    minimal_stinespring,
    model_intertwiner,
    nuclear,
    pvm_compat,
    rank1_nuclear_extract,
    trivial_from_povm,
    validate,
)
from instrumentum.cpmaps import _minimal_cut

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


    def test_generalized_vectors_reproduce_the_minimal_kraus_rows(self, corpus):
        # conj(D_k^s(i)) = row (s, k) of C_i, and C_i psi_i stacks the rows of the minimal
        # Kraus operators of outcome i
        for name, m in corpus.items():
            dec = compat_channel(m)
            for vectors, (_, kraus) in zip(dec.generalized_vectors, m.outcomes):
                psi = _minimal_cut(kraus, "fiber", DEFAULT_TOL)[0]
                rows = vectors.conj() @ psi  # [k, s] = row s of the k-th minimal operator
                want = minimal_kraus(kraus).stack
                assert rows.shape == want.shape, name
                assert np.max(np.abs(rows - want), initial=0.0) <= 1e-12, name


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

    @pytest.mark.parametrize("seed", [6, 9])
    def test_fiber_beyond_the_projection_rank_names_the_effect(self, seed):
        # effect 0 passes as a projection, but its fiber keeps the eigenvalue 1e-10 above the cut
        message = r"^effect 0: its Naimark fiber keeps 2 rows, but the projection has rank 1$"
        with pytest.raises(InstrumentumError, match=message):
            pvm_compat(near_cut_instrument(seed, 1e-10))

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


def _solve_corpus():
    """Seeded instruments for the fiber solves: zero outcomes, redundant operators, dim_in = 1."""
    rng = np.random.default_rng(20261019)
    cases = {
        "zero-outcome": rand_instrument(rng, 3, 2, (2, 0, 1)),
        "dim-in-one": rand_instrument(rng, 1, 3, (1, 2)),
        "square": rand_instrument(rng, 3, 3, (2, 1, 1)),
    }
    # the same map as outcome 0 written with five operators: A split in two, B twice, a zero
    m = rand_instrument(rng, 3, 3, (2, 1))
    (a, b), rest = m.outcomes[0][1].ops, m.outcomes[1][1]
    ops = (0.6 * a, 0.8 * a, b / np.sqrt(2), np.zeros((3, 3)), b / np.sqrt(2))
    cases["redundant"] = DiscreteInstrument(3, 3, ((0, KrausSet(3, 3, ops)), (1, rest)))
    # a PVM followed by a channel, for pvm_compat
    channel = rand_instrument(rng, 3, 2, (2,)).outcomes[0][1].ops
    pvm = basis_pvm(3, ((0, 1), (2,)))
    outcomes = tuple((label, KrausSet(3, 2, [k @ e for k in channel])) for label, e in pvm.effects)
    cases["pvm-then-channel"] = DiscreteInstrument(3, 2, outcomes)
    return cases


def _fiber_solves(m, tol, lstsq):
    """Per outcome ``(psi_i, phi_i, C_i)``; ``C_i`` solves ``C_i psi_i = phi_i`` by ``lstsq``."""
    solves = []
    for _, kraus in m.outcomes:
        psi = _minimal_cut(kraus, "fiber", tol)[0]
        phi = minimal_kraus(kraus, tol).stack.transpose(1, 0, 2).reshape(-1, m.dim_in)
        c = lstsq(psi.T, phi.T, rcond=None)[0].T if len(psi) else np.zeros((len(phi), 0))
        solves.append((psi, phi, c))
    return solves


def _block_channel(solves, dim_out, right):
    """The Kraus stack of ``(+)_i T_i`` composed with ``right``, one outcome at a time."""
    blocks, offset = [], 0
    for psi, _, c in solves:
        n = len(psi)
        if n:
            t = c.reshape(dim_out, -1, n).transpose(1, 0, 2)
            blocks.append(t @ right[offset : offset + n])
        offset += n
    return np.concatenate(blocks)


def _compat_reference(m, tol, lstsq):
    """``compat_channel``'s isometries and verdict from least-squares solves."""
    solves = _fiber_solves(m, tol, lstsq)
    worst = 0.0
    for (psi, phi, c), (_, kraus) in zip(solves, m.outcomes):
        if len(psi):
            t = c.reshape(m.dim_out, -1, len(psi)).transpose(1, 0, 2)
            lifted = KrausSet(m.dim_in, m.dim_out, t @ psi)
            worst = max(
                worst,
                np.linalg.norm(c @ psi - phi),
                np.linalg.norm(c.conj().T @ c - np.eye(len(psi))),
                action_distance(lifted, kraus),
            )
    threshold = tol.eps_eq * max(1.0, np.sqrt(m.dim_in))
    return [c for _, _, c in solves], worst <= threshold


def _lueders_reference(m, subset, tol, lstsq):
    """``lueders_factorization``'s channel stack and verdict from least-squares solves."""
    solves = _fiber_solves(m, tol, lstsq)
    masked = np.concatenate(
        [psi if label in subset else 0 * psi for label, (psi, _, _) in zip(m.labels, solves)]
    )
    u, s, vh = np.linalg.svd(masked, full_matrices=False)
    r = int(np.count_nonzero(s * s > tol.sv_rel_cutoff * s[0] ** 2))
    root = vh[:r].conj().T @ (s[:r, None] * vh[:r])
    stack = _block_channel(solves, m.dim_out, u @ vh)
    pooled = np.concatenate([k.stack for label, k in m.outcomes if label in subset])
    direct = KrausSet(m.dim_in, m.dim_out, pooled)
    error = action_distance(KrausSet(m.dim_in, m.dim_out, stack @ root), direct)
    rows = stack.reshape(-1, m.dim_in)
    unit = np.linalg.norm(rows.conj().T @ rows - np.eye(m.dim_in))
    threshold = tol.eps_eq * max(1.0, np.sqrt(m.dim_in))
    return stack, error <= threshold and unit <= threshold


def _pvm_reference(m, tol, lstsq):
    """``pvm_compat``'s Kraus stack and verdict from least-squares solves, over matrix units."""
    solves = _fiber_solves(m, tol, lstsq)
    stack = _block_channel(solves, m.dim_out, np.concatenate([psi for psi, _, _ in solves]))
    channel = KrausSet(m.dim_in, m.dim_out, stack)
    worst = 0.0
    for (_, effect), (_, kraus) in zip(associate_povm(m, tol).effects, m.outcomes):
        for unit in matrix_units(m.dim_out):
            both = effect @ apply_heisenberg(channel, unit) - apply_heisenberg(kraus, unit)
            worst = max(worst, np.linalg.norm(both))
    return stack, worst <= tol.eps_eq * max(1.0, np.sqrt(m.dim_in))


def _intertwiner_reference(model, m, tol, lstsq):
    """``model_intertwiner``'s ``W`` and verdict from one least-squares solve per block."""
    dil = minimal_stinespring(m, tol)
    d, total = m.dim_in, dil.total_fibers
    y = dil.isometry.reshape(d, total, d)
    coupled = (model.unitary @ np.kron(np.eye(d), model.xi.reshape(-1, 1))).reshape(d, -1, d)
    w = np.zeros((model.ancilla_dim, total), dtype=complex)
    for i in range(len(m.labels)):
        fibers, pointer = dil.block_slice(i), model.block_slice(i)
        if fibers.stop > fibers.start:
            psi = y[:, fibers, :].transpose(1, 0, 2).reshape(fibers.stop - fibers.start, d * d)
            img = coupled[:, pointer, :].transpose(1, 0, 2).reshape(-1, d * d)
            w[pointer, fibers] = lstsq(psi.T, img.T, rcond=None)[0].T
    residual = max(np.linalg.norm(w @ y_s - v_s) for y_s, v_s in zip(y, coupled))
    defect = np.linalg.norm(w.conj().T @ w - np.eye(total))
    threshold = tol.eps_eq * np.sqrt(d * total)
    return w, residual <= threshold and defect <= threshold


def _near_cut_cases():
    return {
        f"near-cut-{seed}-{lam:g}": near_cut_instrument(seed, lam)
        for seed in range(20)
        for lam in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
    }


def _condition(psi):
    s = np.linalg.svd(psi, compute_uv=False)
    return float(s[0] / s[-1]) if len(s) else 1.0


class TestFiberSolvesMatchLeastSquares:
    """The closed-form fiber solves agree with ``np.linalg.lstsq`` and call no solver.

    Every dimension and verdict is equal, and every array agrees to 1e-12
    while the Naimark fibers ``psi_i`` are conditioned at most 100.  Both
    solves lose accuracy with that condition number (up to 1e5 on the
    near-cut fibers), so the isometries and the Lueders channel, which
    carry it, are held to 1e-14 times it beyond; the pvm and model results
    do not carry it and are held to 1e-12 throughout.
    """

    @pytest.fixture
    def lstsq(self, monkeypatch):
        """The real ``lstsq`` for the reference, with the package's patched to raise."""
        real = np.linalg.lstsq

        def refuse(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        return real

    @pytest.mark.parametrize("scale", [1.0, 1e3], ids=["default", "scaled-1e3"])
    def test_corpus_and_near_cut(self, corpus, lstsq, scale):
        tol = DEFAULT_TOL.scaled(scale) if scale != 1.0 else DEFAULT_TOL
        cases = {**corpus, **_solve_corpus(), **_near_cut_cases()}
        for name, m in cases.items():
            dec = compat_channel(m, tol)
            isometries, passed = _compat_reference(m, tol, lstsq)
            assert dec.passed == passed, name
            conditions = [_condition(_minimal_cut(k, "fiber", tol)[0]) for _, k in m.outcomes]
            bound = max(1e-12, 1e-14 * max(conditions))
            for got, want in zip(dec.isometries, isometries):
                assert got.shape == want.shape, name
                assert np.max(np.abs(got - want), initial=0.0) <= bound, name

            for subset in (m.labels, m.labels[:1]):
                channel, report = lueders_factorization(m, subset, tol)
                stack, passed = _lueders_reference(m, subset, tol, lstsq)
                assert report.passed == passed, (name, subset)
                assert channel.stack.shape == stack.shape, (name, subset)
                assert np.max(np.abs(channel.stack - stack)) <= bound, (name, subset)

            if all(np.linalg.norm(e @ e - e) <= 1e-10 for _, e in associate_povm(m, tol).effects):
                if sum(len(_minimal_cut(k, "fiber", tol)[0]) for _, k in m.outcomes) != m.dim_in:
                    with pytest.raises(InstrumentumError, match="Naimark fiber keeps"):
                        pvm_compat(m, tol)  # an eigenvalue at the cut, as in near-cut-6-1e-10
                else:
                    conjugated, report = pvm_compat(m, tol)
                    stack, passed = _pvm_reference(m, tol, lstsq)
                    assert report.passed == passed, name
                    assert conjugated.stack.shape == stack.shape, name
                    assert np.max(np.abs(conjugated.stack - stack)) <= 1e-12, name

            if m.dim_in == m.dim_out:
                model = measurement_model(m, 0, tol)
                w, report = model_intertwiner(model, m, tol)
                want, passed = _intertwiner_reference(model, m, tol, lstsq)
                assert report.passed == passed, name
                assert w.shape == want.shape, name
                assert np.max(np.abs(w - want)) <= 1e-12, name
