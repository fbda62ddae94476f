"""Dense complex linear algebra with explicit tolerance semantics.

Every other module funnels its numerics through the helpers here, so
Hermiticity, positivity, rank, and equality decisions all share one set
of cutoffs and every verdict is deterministic for identical input.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InstrumentumError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "dagger",
    "kron",
    "herm_eig",
    "numeric_rank",
    "psd_check",
    "isometry_complete",
    "herm_exp",
]

_TOL_FIELDS = ("eps_herm", "eps_psd", "eps_eq", "sv_rel_cutoff")


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs used by every decision in the package.

    eps_herm:
        Relative Hermiticity tolerance, ``||a - a^dag|| <= eps_herm * max(1, ||a||)``.
    eps_psd:
        Relative tolerance for negative eigenvalues in positivity checks.
    eps_eq:
        Relative operator-equality tolerance; an ``n``-sided matrix ``X`` is
        the identity when ``||X - I||_F <= eps_eq * sqrt(n)``.
    sv_rel_cutoff:
        Relative cutoff ``c`` of the two rank rules.  The eigenvalue rule
        keeps ``lambda > c * lambda_max``, or ``s^2 > c * s_0^2`` on a factor;
        it cuts minimal Kraus sets, Naimark fibers, effect and state factors,
        witness halves and the Lueders root.  The span-rank rule keeps
        singular values ``s > c * s_0 * max(rows, cols)``; it decides
        ``numeric_rank``, the span ranks of ``verify_dilation``, the
        minimality test of ``kraus_equivalent``, the effect rank of
        ``rank1_nuclear_extract``, extremality's ``span_rank`` and
        ``marginal`` (on the singular values of its real criterion matrix,
        taken only when a Cholesky certificate on the criterion's Gram,
        shifted by four times the square of ten times an upper bound of the
        cutoff, fails; more columns than rows decide the verdict by the
        count, with no cut), the Gram rank of ``correlation_extremal`` and
        the ``rank`` of CLI ``choi``.  Its inverse also bounds the solve that
        finds a count-route witness (``extremality._count_candidates``).
    """

    eps_herm: float = 1e-9
    eps_psd: float = 1e-9
    eps_eq: float = 1e-9
    sv_rel_cutoff: float = 1e-10

    def __post_init__(self) -> None:
        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if not 0.0 < value < 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")

    def scaled(self, factor: float) -> "Tolerances":
        """A copy with all four cutoffs multiplied by ``factor``."""
        return Tolerances(**{name: getattr(self, name) * factor for name in _TOL_FIELDS})


DEFAULT_TOL = Tolerances()


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a read-only 2-D complex128 array, rejecting non-finite entries."""
    out = _checked_matrix(np.array(a, dtype=np.complex128, order="C"), name)
    out.setflags(write=False)
    return out


def _checked_matrix(a: np.ndarray, name: str) -> np.ndarray:
    """The C-ordered complex128 array ``a``; raises unless it is 2-D and finite."""
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    _require_finite(a.view(np.float64), name)
    return a


def _require_finite(a: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` when the array ``a`` holds a NaN or Inf entry."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")


def _integer(n, what: str, minimum: int = 1) -> int:
    """``n`` as an ``int``, checked to be an integer of at least ``minimum`` (0 or 1).

    The one rule for dimensions: a numpy integer counts, a boolean, a float or
    a string of digits does not, as ``int()`` would read ``True`` or ``"2"``
    as a number and truncate ``1.7``.  Raises ``ValueError`` naming ``what``
    (the dimensions in the plural) and ``n``.
    """
    if type(n) is int and n >= minimum:  # the common case, at a fraction of the full test
        return n
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        try:
            shown = reprlib.repr(n)
        except ValueError:  # Python converts at most 4300 digits to text by default
            shown = "<integer of more than 4300 digits>"
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{what} must be {kind} integers, got {shown}")
    return int(n)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """Kronecker product with row-major block convention (first factor is the coarse index)."""
    return np.kron(as_matrix(a, name="kron factor"), as_matrix(b, name="kron factor"))


def require_hermitian(a, tol: Tolerances = DEFAULT_TOL, *, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within ``eps_herm`` and return the symmetrized matrix.

    ``a`` is checked as ``as_matrix`` checks it but not copied: the
    symmetrized result is a new read-only C-ordered array.
    """
    a = _checked_matrix(np.asarray(a, dtype=np.complex128, order="C"), name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    adjoint = a.conj().T
    defect = float(np.linalg.norm(a - adjoint))
    if defect > tol.eps_herm * max(1.0, float(np.linalg.norm(a))):
        raise InstrumentumError(f"{name} is not Hermitian: defect {defect:.3e}")
    sym = (a + adjoint) / 2.0
    sym.setflags(write=False)
    return sym


def herm_eig(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a deterministic convention.

    Returns ``(values, vectors)`` with eigenvalues sorted descending and each
    eigenvector's phase fixed so that its first entry of modulus above
    ``sv_rel_cutoff`` is real and positive.  ``vectors[:, j]`` belongs to
    ``values[j]``.  Input is symmetrized before LAPACK sees it.
    """
    return _descending_eigh(require_hermitian(a, tol), tol)


def _descending_eigh(sym: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig`` of a matrix already symmetrized, without the Hermiticity check."""
    values, vectors = np.linalg.eigh(sym)
    return values[::-1].copy(), _fix_phases(vectors[:, ::-1].copy(), tol)


def _fix_phases(vectors: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``herm_eig``'s phase rule, applied in place to unit columns.

    Each column is rotated so that its first entry of modulus above
    ``sv_rel_cutoff`` is real and positive; a column without one is left alone.
    """
    if not vectors.size:  # argmax needs a row
        return vectors
    significant = np.abs(vectors) > tol.sv_rel_cutoff
    columns = significant.any(axis=0)  # those with a pivot, their first significant entry
    pivots = vectors[significant.argmax(axis=0)[columns], columns]
    phases = pivots.conj() / np.hypot(pivots.real, pivots.imag)  # rounds as a scalar abs does
    # one flat product rounds as a column times a scalar does; a 1 x 1 broadcast one may not
    rotated = vectors[:, columns].ravel() * phases[None].repeat(len(vectors), axis=0).ravel()
    vectors[:, columns] = rotated.reshape(len(vectors), -1)
    return vectors


class _Factor(NamedTuple):
    """One eigendecomposition of a Hermitian matrix and what is read off it."""

    values: np.ndarray  # descending, as herm_eig returns them
    vectors: np.ndarray  # vectors[:, j] belongs to values[j], herm_eig's phases
    w: np.ndarray  # minimal factor: columns sqrt(values[j]) vectors[:, j] above the cut
    psd: bool  # psd_check's verdict


def _factor(sym: np.ndarray, tol: Tolerances) -> _Factor:
    """Minimal factorization ``sym ~ w w^dag`` of a symmetrized matrix, from one ``eigh``.

    ``w`` keeps the eigenvalues above ``sv_rel_cutoff * lambda_max`` (none when
    ``lambda_max <= 0``), so its column count is the numerical rank of a
    positive ``sym``; ``psd`` applies ``psd_check``'s criterion to the same
    eigenvalues.  The caller checks Hermiticity, or knows it.
    """
    return _factor_of(*_descending_eigh(sym, tol), tol)


def _factor_of(values: np.ndarray, vectors: np.ndarray, tol: Tolerances) -> _Factor:
    """``_factor``'s rank cut and positivity verdict on a descending eigendecomposition."""
    r = _kept(values, tol)  # values descend, so the kept ones lead
    w = vectors[:, :r] * np.sqrt(values[:r])
    return _Factor(values, vectors, w, _psd_verdict(float(values[-1]), float(values[0]), tol))


def _kept(values: np.ndarray, tol: Tolerances) -> int:
    """The rank cut: how many descending ``values`` exceed ``sv_rel_cutoff * values[0]``.

    ``values`` are eigenvalues, or the squares ``s * s`` of singular values;
    none are kept of none.
    """
    return int(np.count_nonzero(values > tol.sv_rel_cutoff * values[:1]))


def _psd_verdict(lo: float, hi: float, tol: Tolerances) -> bool:
    """The positivity criterion on the smallest and largest eigenvalue."""
    return lo >= -tol.eps_psd * max(1.0, hi)


def _span_rank(s: np.ndarray, shape, tol: Tolerances) -> tuple[int, bool]:
    """The span-rank rule on the descending singular values ``s`` of a ``shape`` matrix.

    A value counts when it exceeds ``sv_rel_cutoff * s[0] * max(rows, cols)``;
    the flag ``marginal`` is true when the smallest one kept lies within a
    factor ten of that cutoff.  ``s`` is not empty.
    """
    cut = tol.sv_rel_cutoff * float(s[0]) * max(shape)
    rank = int(np.count_nonzero(s > cut))
    return rank, rank > 0 and float(s[rank - 1]) <= 10.0 * cut


def _full_span_rank(gram: np.ndarray, shape, tol: Tolerances) -> bool:
    """Whether ``_span_rank`` keeps every singular value of a ``shape`` matrix and flags none.

    ``gram`` is the matrix's Gram on its short side, ``a^T a`` or ``a a^T``
    (side ``min(shape)``), in any orthonormal basis.  Its Frobenius norm is at
    least ``s_0 ** 2``, so ``cut = sv_rel_cutoff * sqrt(||gram||_F) *
    max(rows, cols)`` is at least the rule's cutoff.  A Cholesky factor of
    ``gram - (4 (10 cut) ** 2 + slack) I`` exists only when every singular
    value exceeds ``20 cut``, ``slack`` covering the rounding of the Gram and
    of the factorization; then the rule reports rank ``min(shape)``, not
    marginal, and this returns True.  False decides nothing: the caller takes
    the singular values.
    """
    norm = float(np.linalg.norm(gram))
    cut = tol.sv_rel_cutoff * np.sqrt(norm) * max(shape)
    slack = 4.0 * max(shape) * np.sqrt(min(shape)) * np.finfo(float).eps * norm
    try:
        np.linalg.cholesky(gram - (4.0 * (10.0 * cut) ** 2 + slack) * np.eye(len(gram)))
    except np.linalg.LinAlgError:  # not positive definite: no certificate
        return False
    return True


def _rank(a: np.ndarray, tol: Tolerances) -> int:
    """The span rank of ``a`` alone, from the singular values (no singular vectors)."""
    if a.size == 0:
        return 0
    return _span_rank(np.linalg.svd(a, compute_uv=False), a.shape, tol)[0]


def numeric_rank(a, tol: Tolerances = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank and orthonormal kernel basis of a rectangular matrix.

    The rank follows the span-rank rule of ``Tolerances.sv_rel_cutoff``.  The
    kernel basis has shape ``(cols, cols - rank)``; its columns are the
    trailing right-singular vectors.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    if a.size == 0:
        return 0, np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)  # thin vh is square if rows >= cols
    rank = _span_rank(s, a.shape, tol)[0]
    return rank, vh[rank:, :].conj().T.copy()


def psd_check(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the Hermitian matrix ``a`` is positive semidefinite.

    The criterion is ``lambda_min >= -eps_psd * max(1, lambda_max)``.
    Raises when ``a`` is not Hermitian within ``eps_herm``.
    """
    return _is_psd(require_hermitian(a, tol), tol)


def _is_psd(sym: np.ndarray, tol: Tolerances) -> bool:
    """``psd_check`` of a matrix already symmetrized, without the Hermiticity check."""
    if sym.size == 0:
        return True  # the empty matrix is PSD
    values = np.linalg.eigvalsh(sym)  # ascending
    return _psd_verdict(float(values[0]), float(values[-1]), tol)


def isometry_complete(v, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Extend orthonormal columns ``v`` to a full unitary.

    The leading columns of the result are ``v`` exactly; the later columns
    are the trailing columns of the complete Householder QR of ``v``, an
    orthonormal basis of the complement of its range.  ``v`` has full column
    rank, so no rank cutoff is involved.  An empty ``v`` completes to the
    identity.
    """
    v = as_matrix(v, name="isometry columns")
    _require_orthonormal(v, tol)
    completed = np.linalg.qr(v, mode="complete")[0]
    completed[:, : v.shape[1]] = v
    return completed


def _require_orthonormal(v: np.ndarray, tol: Tolerances) -> None:
    """``isometry_complete``'s refusals of the checked matrix ``v``: more columns than rows,
    or ``||v^dag v - I||_F > eps_eq * max(1, sqrt(cols))``."""
    rows, cols = v.shape
    if rows < cols:
        raise InstrumentumError(f"cannot complete {rows}x{cols}: more columns than rows")
    gram_defect = float(np.linalg.norm(v.conj().T @ v - np.eye(cols)))
    if gram_defect > tol.eps_eq * max(1.0, np.sqrt(cols)):
        raise InstrumentumError(f"columns are not orthonormal: defect {gram_defect:.3e}")


def herm_exp(a, t: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unitary ``exp(i * t * a)`` of a Hermitian generator, by eigendecomposition."""
    values, vectors = herm_eig(a, tol)
    phases = np.exp(1j * float(t) * values)
    return (vectors * phases) @ vectors.conj().T
