"""Completely positive maps between finite-dimensional matrix algebras.

Conventions
-----------
A map is stored through Kraus operators ``A_k : H -> K``, held together as
one ``(n, dim_out, dim_in)`` array ``stack`` with ``stack[k] = A_k``
(``dim_out = dim K``, ``dim_in = dim H``); ``KrausSet.ops`` holds the 2-D
views ``stack[k]``.  The map acts

* in the Heisenberg picture as ``E(B) = sum_k A_k^dag B A_k`` on operators
  ``B`` of the output space, and
* in the Schrodinger picture as ``E_*(rho) = sum_k A_k rho A_k^dag`` on
  states of the input space.

The Choi matrix of ``E`` is the ``dim_out * dim_in`` sided block matrix whose
block ``(s, t)`` is ``E(|k_s><k_t|)``, an operator on the input space; the
flat index is ``(s, m) -> s * dim_in + m``.  With this convention the Choi
matrix of a valid Kraus set is ``sum_k w_k w_k^dag`` for
``w_k = conj(vec_row(A_k))``, so positivity of the Choi matrix is exactly
complete positivity of the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InstrumentumError
from .matkernel import (
    DEFAULT_TOL,
    Tolerances,
    _factor,
    as_matrix,
    dagger,
    numeric_rank,
    psd_check,
    require_hermitian,
)

__all__ = [
    "KrausSet",
    "ChoiMatrix",
    "choi",
    "cp_check",
    "kraus_from_choi",
    "minimal_kraus",
    "apply_heisenberg",
    "apply_schrodinger",
    "unit_images",
    "action_distance",
    "kraus_equivalent",
]


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An ordered, possibly empty, family of Kraus operators of fixed shape.

    The operators are stored once, in the read-only C-contiguous complex
    array ``stack`` of shape ``(n, dim_out, dim_in)`` with ``stack[k] = A_k``;
    ``ops`` is the tuple of its 2-D views ``stack[k]``.  The constructor takes
    a sequence of ``dim_out x dim_in`` matrices or one such 3-D array.  The
    empty set is the canonical representation of the zero map.
    """

    dim_in: int
    dim_out: int
    ops: tuple = ()
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError(f"dimensions must be positive, got {self.dim_in}, {self.dim_out}")
        shape = (self.dim_out, self.dim_in)
        ops = self.ops if isinstance(self.ops, np.ndarray) else tuple(self.ops)
        try:
            stack = np.array(ops if len(ops) else np.zeros((0, *shape)), np.complex128, order="C")
            valid = stack.shape[1:] == shape and np.all(np.isfinite(stack.view(np.float64)))
        except (TypeError, ValueError):  # ragged, or not numbers
            valid = False
        if not valid:
            # the per-operator checks name the first bad operator, entries before shapes
            for op in [as_matrix(op, name="Kraus operator") for op in ops]:
                if op.shape != shape:
                    raise ValueError(f"Kraus operator has shape {op.shape}, expected {shape}")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "ops", tuple(stack))

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a CP map, in the block convention of this module."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError(f"dimensions must be positive, got {self.dim_in}, {self.dim_out}")
        m = as_matrix(self.matrix, name="Choi matrix")
        side = self.dim_in * self.dim_out
        if m.shape != (side, side):
            raise ValueError(f"Choi matrix has shape {m.shape}, expected {(side, side)}")
        object.__setattr__(self, "matrix", m)


def choi(k: KrausSet) -> ChoiMatrix:
    """Choi matrix of the Heisenberg map defined by ``k``."""
    side = k.dim_out * k.dim_in
    m = np.zeros((side, side), dtype=np.complex128)
    for op in k.ops:
        w = op.conj().reshape(side)
        m += np.outer(w, w.conj())
    return ChoiMatrix(k.dim_in, k.dim_out, m)


def cp_check(c: ChoiMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``c`` is the Choi matrix of a completely positive map.

    Raises when the matrix is not Hermitian within ``eps_herm``.
    """
    return psd_check(c.matrix, tol)


def kraus_from_choi(c: ChoiMatrix, tol: Tolerances = DEFAULT_TOL) -> KrausSet:
    """Minimal Kraus set of a CP map given its Choi matrix.

    One operator per eigenvalue above ``sv_rel_cutoff * lambda_max``, so the
    number of operators equals the numerical rank of the Choi matrix and the
    result is a linearly independent family.
    """
    f = _factor(require_hermitian(c.matrix, tol), tol)
    if not f.psd:
        raise InstrumentumError("Choi matrix is not positive semidefinite")
    return _kraus_of_factor(f.w, c.dim_in, c.dim_out)


def minimal_kraus(k: KrausSet, tol: Tolerances = DEFAULT_TOL) -> KrausSet:
    """Minimal Kraus set of the map defined by ``k``.

    The operators are, bit for bit, those ``kraus_from_choi`` returns for
    ``choi(k)``, without its checks: ``choi(k)`` is a sum of ``w w^dag``, so
    positive semidefinite, and Hermitian to rounding, by construction.
    """
    c = choi(k).matrix
    return _kraus_of_factor(_factor((c + dagger(c)) / 2.0, tol).w, k.dim_in, k.dim_out)


def _kraus_of_factor(w: np.ndarray, dim_in: int, dim_out: int) -> KrausSet:
    """The Kraus set whose Choi matrix is ``w w^dag``: operator ``j`` from column ``j``."""
    return KrausSet(dim_in, dim_out, dagger(w).reshape(w.shape[1], dim_out, dim_in))


def apply_heisenberg(k: KrausSet, b) -> np.ndarray:
    """``sum_k A_k^dag b A_k`` for an operator ``b`` on the output space."""
    b = as_matrix(b, name="operator")
    if b.shape != (k.dim_out, k.dim_out):
        raise ValueError(f"operator has shape {b.shape}, expected {(k.dim_out, k.dim_out)}")
    return _running_sum(dagger(k.stack) @ b @ k.stack)


def apply_schrodinger(k: KrausSet, rho) -> np.ndarray:
    """``sum_k A_k rho A_k^dag`` for a state (or any operator) on the input space."""
    rho = as_matrix(rho, name="state")
    if rho.shape != (k.dim_in, k.dim_in):
        raise ValueError(f"state has shape {rho.shape}, expected {(k.dim_in, k.dim_in)}")
    return _running_sum(k.stack @ rho @ dagger(k.stack))


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """Stacked matrices added one at a time onto zero (``np.sum`` adds 1 x 1 ones pairwise)."""
    return sum(terms, np.zeros(terms.shape[1:], dtype=np.complex128))


def unit_images(k: KrausSet):
    """Yield ``E(|k_s><k_t|)`` for all ``t`` as one ``(dim_out, dim_in, dim_in)`` array, per ``s``.

    Item ``s`` is block row ``s`` of ``choi(k)``; producing one block row at
    a time keeps memory at ``dim_out * dim_in**2`` entries.
    """
    # column j is conj(vec_row(A_j)), so choi(k) = w @ w^dag; row-major w keeps
    # the block rows below contiguous
    w = np.conj(k.stack.reshape(len(k), k.dim_out * k.dim_in).T, order="C")
    w_dag = dagger(w)
    d_in = k.dim_in
    for s in range(k.dim_out):
        row = w[s * d_in : (s + 1) * d_in] @ w_dag
        yield row.reshape(d_in, k.dim_out, d_in).transpose(1, 0, 2)


def action_distance(k1: KrausSet, k2: KrausSet) -> float:
    """Largest Frobenius distance ``||E1(|k_s><k_t|) - E2(|k_s><k_t|)||`` over matrix units.

    Equivalently, the largest Frobenius norm of a ``dim_in``-sided block of
    ``choi(k1) - choi(k2)``; it vanishes exactly when the two maps agree.
    """
    if (k1.dim_in, k1.dim_out) != (k2.dim_in, k2.dim_out):
        raise ValueError("Kraus sets act between different spaces")
    worst = 0.0
    for row1, row2 in zip(unit_images(k1), unit_images(k2)):
        worst = max(worst, float(np.max(np.linalg.norm(row1 - row2, axis=(1, 2)))))
    return worst


def kraus_equivalent(k1: KrausSet, k2: KrausSet, tol: Tolerances = DEFAULT_TOL):
    """Unitary ``u`` relating two minimal Kraus sets of the same map, if one exists.

    When ``choi(k1)`` and ``choi(k2)`` agree within ``eps_eq`` the returned
    matrix satisfies ``k2.ops[l] = sum_k u[l, k] * k1.ops[k]`` and is unitary;
    otherwise returns None.  Both inputs must be linearly independent
    families, and the maps must share dimensions.
    """
    if (k1.dim_in, k1.dim_out) != (k2.dim_in, k2.dim_out):
        raise ValueError("Kraus sets act between different spaces")
    # column j is vec_row(A_j)
    m1, m2 = (k.stack.reshape(len(k), k.dim_out * k.dim_in).T for k in (k1, k2))
    for name, m, count in (("first", m1, len(k1)), ("second", m2, len(k2))):
        if count and numeric_rank(m, tol)[0] < count:
            raise InstrumentumError(f"{name} Kraus set is not minimal (linearly dependent)")
    if len(k1) != len(k2):
        return None
    c1 = choi(k1).matrix
    c2 = choi(k2).matrix
    if float(np.linalg.norm(c1 - c2)) > tol.eps_eq * max(1.0, float(np.linalg.norm(c1))):
        return None
    if not k1.ops:
        return np.zeros((0, 0), dtype=np.complex128)
    u, *_ = np.linalg.lstsq(m1, m2, rcond=None)
    u = u.T  # row l holds the expansion of k2.ops[l] in k1.ops
    residual = float(np.linalg.norm(m1 @ u.T - m2))
    unitary_defect = float(np.linalg.norm(dagger(u) @ u - np.eye(len(k1))))
    scale = max(1.0, float(np.linalg.norm(m1)))
    if residual > tol.eps_eq * scale or unitary_defect > tol.eps_eq * max(1.0, np.sqrt(len(k1))):
        return None
    return u
