"""Kernel helpers: tolerance plumbing, eigen conventions, rank, completion."""

import numpy as np
import pytest

from instrumentum import DEFAULT_TOL, InstrumentumError, Tolerances
from instrumentum.matkernel import (
    _fix_phases,
    _kept,
    as_matrix,
    herm_eig,
    herm_exp,
    isometry_complete,
    kron,
    numeric_rank,
    psd_check,
    require_hermitian,
)

from helpers import PAULI, rand_isometry, rand_unitary


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.eps_herm == 1e-9
        assert DEFAULT_TOL.eps_psd == 1e-9
        assert DEFAULT_TOL.eps_eq == 1e-9
        assert DEFAULT_TOL.sv_rel_cutoff == 1e-10

    def test_scaled(self):
        tol = DEFAULT_TOL.scaled(10.0)
        assert tol.eps_eq == pytest.approx(1e-8)
        assert tol.sv_rel_cutoff == pytest.approx(1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-2, 1.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerances(eps_eq=bad)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_complex_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[1j * np.inf, 0], [0, 1]])

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            as_matrix([1, 2, 3])

    def test_read_only_copy(self):
        src = np.eye(2, dtype=np.complex128)
        out = as_matrix(src)
        assert not out.flags.writeable
        src[0, 0] = 5.0
        assert out[0, 0] == 1.0


class TestKron:
    def test_matches_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="kron factor contains NaN or Inf"):
            kron(np.eye(2), [[np.nan]])


class TestHermEig:
    def test_pauli_x_oracle(self):
        # by hand: eigenvalues 1, -1 with vectors (1, 1)/sqrt(2), (1, -1)/sqrt(2)
        values, vectors = herm_eig(PAULI["X"])
        assert np.allclose(values, [1.0, -1.0])
        root = 1.0 / np.sqrt(2.0)
        assert np.allclose(vectors[:, 0], [root, root])
        assert np.allclose(vectors[:, 1], [root, -root])

    def test_pauli_y_phase_convention(self):
        # the +1 eigenvector of sigma_y is (1, i)/sqrt(2) once its first entry
        # is made real positive
        values, vectors = herm_eig(PAULI["Y"])
        assert np.allclose(values, [1.0, -1.0])
        root = 1.0 / np.sqrt(2.0)
        assert np.allclose(vectors[:, 0], [root, 1j * root])
        assert np.allclose(vectors[:, 1], [root, -1j * root])

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        values, vectors = herm_eig(g + g.conj().T)
        assert np.all(np.diff(values) <= 0)
        recon = (vectors * values) @ vectors.conj().T
        assert np.linalg.norm(recon - (g + g.conj().T)) < 1e-12 * np.linalg.norm(g)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InstrumentumError, match="not Hermitian"):
            herm_eig([[0.0, 1.0], [0.0, 0.0]])


def _phases_by_column(vectors, cutoff):
    """``herm_eig``'s phase rule one column at a time: the reference for ``_fix_phases``."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        significant = np.flatnonzero(np.abs(col) > cutoff)
        if significant.size:
            pivot = col[significant[0]]
            vectors[:, j] = col * (pivot.conjugate() / abs(pivot))
    return vectors


class TestFixPhases:
    def test_bytes_match_a_loop_over_columns(self):
        rng = np.random.default_rng(20261019)
        shapes = [(0, 0), (3, 0), (1, 1), (1, 5), (5, 1)]
        for k in range(3000):  # every third one has one row
            shapes.append((1 if k % 3 == 0 else int(rng.integers(1, 9)), int(rng.integers(0, 9))))
        for tol in (DEFAULT_TOL, DEFAULT_TOL.scaled(1e3)):
            for rows, cols in shapes:
                g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                a = g * 10.0 ** rng.uniform(-13, 1, (rows, cols))
                if rows and cols and rng.random() < 0.5:
                    a[:, rng.integers(cols)] = 0.0  # a column without a pivot
                if rows and rng.random() < 0.5:
                    a[0] *= 1e-11  # leading entries at or under the cutoff
                want = _phases_by_column(a.copy(), tol.sv_rel_cutoff)
                got = a.copy()
                assert _fix_phases(got, tol) is got  # in place
                assert got.tobytes() == want.tobytes(), (rows, cols)

    def test_a_column_slice_is_fixed_in_place_as_a_copy_would_be(self):
        # the minimal cut fixes the leading columns of its own thin SVD's u, a strided view
        rng = np.random.default_rng(5)
        u = np.linalg.svd(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))[0]
        for r in range(u.shape[1] + 1):
            for tol in (DEFAULT_TOL, DEFAULT_TOL.scaled(1e3)):
                got = u.copy()
                want = _fix_phases(got[:, :r].copy(), tol)
                assert _fix_phases(got[:, :r], tol).tobytes() == want.tobytes()
                assert got[:, :r].tobytes() == want.tobytes()
                assert got[:, r:].tobytes() == u[:, r:].tobytes()  # the rest is not written


def test_the_rank_cut_keeps_none_of_no_values():
    # the minimal cut of an empty Kraus set cuts the empty spectrum of its SVD
    assert _kept(np.zeros(0), DEFAULT_TOL) == 0
    assert _kept(np.zeros(3), DEFAULT_TOL) == 0
    values = np.array([4.0, 4e-9, 4e-11, 0.0])
    assert _kept(values, DEFAULT_TOL) == 2
    assert _kept(values, Tolerances(sv_rel_cutoff=1e-8)) == 1


class TestRank:
    def test_ones_matrix(self):
        rank, null = numeric_rank(np.ones((2, 2)))
        assert rank == 1
        assert null.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(null[:, 0] @ expected) - 1.0) < 1e-12

    def test_zero_matrix(self):
        rank, null = numeric_rank(np.zeros((3, 2)))
        assert rank == 0
        assert null.shape == (2, 2)

    def test_empty(self):
        rank, null = numeric_rank(np.zeros((0, 0)))
        assert rank == 0
        assert null.shape == (0, 0)

    def test_kernel_annihilates(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        a[:, 4] = a[:, 0] + a[:, 1]
        rank, null = numeric_rank(a)
        assert rank == 4
        assert null.shape == (5, 1)
        assert np.linalg.norm(a @ null) < 1e-12 * np.linalg.norm(a)

    def test_relative_cutoff(self):
        a = np.diag([1.0, 1e-6])
        assert numeric_rank(a)[0] == 2
        assert numeric_rank(a, DEFAULT_TOL.scaled(1e4))[0] == 1


class TestPsd:
    def test_accepts_gram(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert psd_check(g @ g.conj().T)

    def test_rejects_negative(self):
        assert not psd_check(np.diag([1.0, -1e-8]))

    def test_tolerates_roundoff_negative(self):
        assert psd_check(np.diag([1.0, -1e-10]))

    def test_raises_on_non_hermitian(self):
        with pytest.raises(InstrumentumError):
            psd_check([[0.0, 1.0], [0.0, 0.0]])

    def test_empty_matrix_is_psd(self):
        assert psd_check(np.zeros((0, 0))) is True


class TestRequireHermitian:
    def test_symmetrizes(self):
        a = np.array([[1.0, 1.0 + 1e-12j], [1.0 - 1e-12j, 2.0]])
        out = require_hermitian(a)
        assert np.linalg.norm(out - out.conj().T) == 0.0  # no Hermiticity defect left

    def test_relative_scale(self):
        # a large matrix with a proportionally small defect is still accepted
        a = 1e6 * np.eye(3) + 1e-4 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        require_hermitian(a)

    def test_non_square_is_a_shape_error(self):
        with pytest.raises(ValueError, match="must be square"):
            require_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("layout", ["complex", "fortran", "real", "integer", "strided", "reversed"])
    def test_reads_the_input_in_place_and_returns_a_new_array(self, layout):
        rng = np.random.default_rng(41)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = g + g.conj().T
        a = {
            "complex": h,
            "fortran": np.asfortranarray(h),
            "real": h.real.copy(),
            "integer": np.round(4 * h.real).astype(np.int64),
            "strided": np.repeat(h, 2, axis=1)[:, ::2],  # a view, every other column
            "reversed": h[::-1, ::-1],
        }[layout]
        snapshot = a.copy()
        out = require_hermitian(a)
        assert out is not a and not np.shares_memory(out, a)
        assert a.flags.writeable and a.tobytes() == snapshot.tobytes()
        assert out.dtype == np.complex128 and out.flags.c_contiguous and not out.flags.writeable
        c = np.array(a, dtype=np.complex128)
        assert out.tobytes() == ((c + c.conj().T) / 2.0).tobytes()

    @pytest.mark.parametrize(
        "a, error, message",
        [
            ([1.0, 2.0], ValueError, "state must be 2-dimensional, got shape (2,)"),
            (np.ones((2, 3)), ValueError, "state must be square, got shape (2, 3)"),
            ([[np.nan, 0], [0, 1]], ValueError, "state contains NaN or Inf entries"),
            ([[1j * np.inf, 0], [0, 1]], ValueError, "state contains NaN or Inf entries"),
            ([[0, 1], [0, 0]], InstrumentumError, "state is not Hermitian: defect 1.414e+00"),
        ],
        ids=["1-D", "non-square", "nan", "complex-inf", "non-hermitian"],
    )
    def test_rejects_as_as_matrix_does(self, a, error, message):
        with pytest.raises(error) as caught:
            require_hermitian(a, name="state")
        assert str(caught.value) == message


class TestIsometryComplete:
    def test_extends_exactly(self):
        rng = np.random.default_rng(5)
        v = rand_isometry(rng, 5, 2)
        u = isometry_complete(v)
        assert u.shape == (5, 5)
        assert np.array_equal(u[:, :2], v)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12

    def test_square_input_is_returned(self):
        rng = np.random.default_rng(6)
        u = rand_unitary(rng, 4)
        out = isometry_complete(u)
        assert np.array_equal(out, u)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InstrumentumError, match="not orthonormal"):
            isometry_complete(np.ones((3, 2)))

    def test_rejects_wide(self):
        with pytest.raises(InstrumentumError, match="more columns"):
            isometry_complete(np.zeros((2, 3)))

    @pytest.mark.parametrize("offset", [0.0, 1e-11, 2e-10, 1e-9])
    def test_column_near_a_basis_vector(self, offset):
        # the residual of e_0 against v is about ``offset``, on both sides of sv_rel_cutoff
        v = np.zeros((4, 1), dtype=np.complex128)
        v[0, 0], v[1, 0] = 1.0, offset
        v /= np.linalg.norm(v)
        u = isometry_complete(v)
        assert np.array_equal(u[:, :1], v)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_columns_near_basis_vectors(self):
        rng = np.random.default_rng(8)
        g = np.eye(5, 2) + 1e-9 * (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
        q, r = np.linalg.qr(g)
        v = q * (np.diag(r) / np.abs(np.diag(r)))
        assert np.abs(v - np.eye(5, 2)).max() < 1e-8
        u = isometry_complete(v)
        assert np.array_equal(u[:, :2], v)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12

    def test_largest_rank_cutoff_keeps_every_column(self):
        # sv_rel_cutoff * rows exceeds one here, so a rank decision on v^dag would drop columns
        v = rand_isometry(np.random.default_rng(9), 150, 3)
        u = isometry_complete(v, Tolerances(sv_rel_cutoff=9e-3))
        assert u.shape == (150, 150)
        assert np.linalg.norm(u.conj().T @ u - np.eye(150)) < 1e-12

    def test_empty_columns_complete_to_identity(self):
        assert np.array_equal(isometry_complete(np.zeros((3, 0))), np.eye(3))


class TestHermExp:
    def test_full_turn_on_z(self):
        assert np.allclose(herm_exp(PAULI["Z"], np.pi), -np.eye(2))

    def test_quarter_turn_on_y(self):
        # exp(i (pi/2) sigma_y) = i sigma_y sends e0 to -e1
        u = herm_exp(PAULI["Y"], np.pi / 2.0)
        assert np.allclose(u @ np.array([1.0, 0.0]), [0.0, -1.0])

    def test_unitary(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = herm_exp(g + g.conj().T, 0.37)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12
