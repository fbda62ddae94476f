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

The effect ``E(I) = sum_k A_k^dag A_k`` is ``R^dag R`` for the Kraus rows
``R = stack.reshape(-1, dim_in)``, whose rows are the vectors
``A_k^dag k_s``; ``compat``'s Naimark fiber of an outcome is the minimal
factor of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InstrumentumError
from .matkernel import (
    DEFAULT_TOL,
    Tolerances,
    _factor,
    _fix_phases,
    _integer,
    _kept,
    _rank,
    as_matrix,
    dagger,
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
    "action_distance",
    "kraus_equivalent",
]


def _rebuilt(self) -> tuple:
    """``__reduce__`` through the constructor, over the fields it takes.

    A copy or an unpickled value is checked and made read-only like a new
    one, and data kept on the original is formed again on demand.
    """
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """An ordered, possibly empty, family of Kraus operators of fixed shape.

    The operators are stored once, in the read-only C-contiguous complex
    array ``stack`` of shape ``(n, dim_out, dim_in)`` with ``stack[k] = A_k``;
    ``ops`` is the tuple of its 2-D views ``stack[k]``.  The constructor takes
    a sequence of ``dim_out x dim_in`` matrices or one such 3-D array.  The
    empty set is the canonical representation of the zero map.

    Being immutable, a Kraus set keeps, in ``_cuts``, the last minimal cut of
    each kind that ``_minimal_cut`` makes, with the ``sv_rel_cutoff`` it was
    made under (the only cutoff the cut reads) and its kept singular values:
    the minimal Kraus set of ``minimal_kraus`` and the read-only Naimark
    fiber of ``compat``.  It keeps no SVD: a cut under another cutoff
    decomposes again and replaces the kept one, so a Kraus set holds at most
    one cut per kind.  The minimal set is at most the size of ``stack``, the
    fiber at most that and at most ``dim_in ** 2`` entries, with one singular
    value per kept operator or row; only Kraus sets that reach such a call
    keep them, and a copy or an unpickled Kraus set keeps none.
    """

    dim_in: int
    dim_out: int
    ops: tuple = ()
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dim_in, dim_out = _integer(self.dim_in, "dimensions"), _integer(self.dim_out, "dimensions")
        shape = (dim_out, dim_in)
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
            raise ValueError(f"no array of Kraus operators of shape {shape} can be formed")
        stack.setflags(write=False)
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "ops", tuple(stack))

    __reduce__ = _rebuilt

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a CP map, in the block convention of this module."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dim_in, dim_out = _integer(self.dim_in, "dimensions"), _integer(self.dim_out, "dimensions")
        m = as_matrix(self.matrix, name="Choi matrix")
        side = dim_in * dim_out
        if m.shape != (side, side):
            raise ValueError(f"Choi matrix has shape {m.shape}, expected {(side, side)}")
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)
        object.__setattr__(self, "matrix", m)

    __reduce__ = _rebuilt


def choi(k: KrausSet) -> ChoiMatrix:
    """Choi matrix of the Heisenberg map defined by ``k``."""
    w = _choi_columns(k.stack)
    return ChoiMatrix(k.dim_in, k.dim_out, w @ dagger(w))


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
    """Minimal Kraus set of the map defined by ``k``, from the Kraus operators alone.

    ``choi(k) = W W^dag`` for the ``(dim_out * dim_in) x n`` matrix ``W`` of
    the columns ``conj(vec_row(A_k))``, so the thin SVD ``W = U S V^dag``
    factors the Choi matrix as ``(U S)(U S)^dag`` without forming it.  The
    result keeps the columns of ``U S`` with ``sigma_j^2 > sv_rel_cutoff *
    sigma_0^2`` (the eigenvalue cut of ``kraus_from_choi``), with
    ``herm_eig``'s phase rule on the columns of ``U``.  It is the same map
    with as many operators as the rank of ``choi(k)``; where the Choi
    spectrum is non-degenerate the operators agree with ``kraus_from_choi``'s
    to rounding, elsewhere up to a unitary remixing.  An empty or all-zero
    family gives the empty set.

    The result and its singular values are kept on ``k`` under the
    ``sv_rel_cutoff`` of ``tol`` (see ``_minimal_cut``): a repeat call under
    that cutoff returns the same read-only object, and a call under another
    cutoff decomposes again and keeps that result instead.  Calls under
    different tolerances, in any order, return what they would on a fresh
    Kraus set.
    """
    return _minimal_cut(k, "minimal", tol)[0]


def _minimal_cut(k: KrausSet, kind: str, tol: Tolerances) -> tuple:
    """``(value, s)``: ``k``'s minimal factor of ``kind`` and its singular values, kept on ``k``.

    The factor is read off the thin SVD ``U S V^dag`` of the Choi columns
    ``_choi_columns(stack)`` for ``"minimal"``, whose value is the minimal
    Kraus set, and of the conjugated Kraus rows ``conj(R)^T`` for
    ``"fiber"``, whose value is ``compat``'s Naimark fiber ``dagger(w)``, the
    minimal Kraus set of the rows, read-only.  ``w`` holds the columns
    ``s_j u_j`` with ``s_j^2`` above the rank cut, each ``u_j`` under
    ``herm_eig``'s phase rule; ``s`` is the read-only ``s_j`` kept.  The cut
    reads only ``sv_rel_cutoff``, so ``k._cuts`` keeps the result under
    ``kind`` with that cutoff: a repeat call returns the kept pair, and a
    call under another cutoff decomposes again and replaces it.
    """
    cuts = vars(k).setdefault("_cuts", {})  # formed on first need
    kept = cuts.get(kind)
    if kept is None or kept[0] != tol.sv_rel_cutoff:
        minimal = kind == "minimal"
        a = _choi_columns(k.stack) if minimal else k.stack.reshape(-1, k.dim_in).conj().T
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        s = s[: _kept(s * s, tol)]
        s.setflags(write=False)
        w = _fix_phases(u[:, : len(s)], tol) * s  # u is this call's own, so fixed in place
        if minimal:
            value = _kraus_of_factor(w, k.dim_in, k.dim_out)
        else:
            value = dagger(w)
            value.setflags(write=False)
        kept = cuts[kind] = (tol.sv_rel_cutoff, value, s)
    return kept[1:]


def _choi_columns(stack: np.ndarray) -> np.ndarray:
    """``W`` with column ``k`` equal to ``conj(vec_row(stack[k]))``, so that ``choi = W W^dag``."""
    n, rows, cols = stack.shape
    return stack.reshape(n, rows * cols).conj().T


def _kraus_of_factor(w: np.ndarray, dim_in: int, dim_out: int) -> KrausSet:
    """The Kraus set whose Choi matrix is ``w w^dag``: operator ``j`` from column ``j``."""
    return KrausSet(dim_in, dim_out, dagger(w).reshape(w.shape[1], dim_out, dim_in))


def apply_heisenberg(k: KrausSet, b) -> np.ndarray:
    """``sum_k A_k^dag b A_k`` for an operator ``b`` on the output space."""
    b = as_matrix(b, name="operator")
    if b.shape != (k.dim_out, k.dim_out):
        raise ValueError(f"operator has shape {b.shape}, expected {(k.dim_out, k.dim_out)}")
    return _running_sum(dagger(k.stack) @ b @ k.stack)


def _effect(k: KrausSet) -> np.ndarray:
    """The effect ``sum_k A_k^dag A_k`` of ``k``, as ``R^dag R`` for its Kraus rows ``R``."""
    rows = k.stack.reshape(-1, k.dim_in)
    return dagger(rows) @ rows


def apply_schrodinger(k: KrausSet, rho) -> np.ndarray:
    """``sum_k A_k rho A_k^dag`` for a state (or any operator) on the input space."""
    rho = as_matrix(rho, name="state")
    if rho.shape != (k.dim_in, k.dim_in):
        raise ValueError(f"state has shape {rho.shape}, expected {(k.dim_in, k.dim_in)}")
    return _schrodinger(k, rho)


def _schrodinger(k: KrausSet, rho: np.ndarray) -> np.ndarray:
    """``apply_schrodinger`` of an already checked ``dim_in``-sided complex array ``rho``."""
    return _running_sum(k.stack @ rho @ dagger(k.stack))


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """Stacked matrices added one at a time onto zero (``np.sum`` adds 1 x 1 ones pairwise)."""
    return sum(terms, np.zeros(terms.shape[1:], dtype=np.complex128))


_SLAB_ENTRIES = 1 << 15  # a call's padded Choi columns and block Grams past which pairs go alone


def _difference(pairs: list, dim_in: int) -> list:
    """``(largest block norm, ||D||_F)`` of each difference ``D`` of two-sided Choi matrices.

    Each of ``pairs`` is ``(left, right)`` with ``left = (a, b)`` and ``right
    = (c, d)`` Kraus stacks, ``len(a) == len(c)`` and ``len(b) == len(d)``;
    ``D`` is ``W(a) W(c)^dag - W(b) W(d)^dag`` in the notation of
    ``_choi_columns``, the Choi matrix of ``B -> sum_k a_k^dag B c_k - sum_k
    b_k^dag B d_k``, and a block is ``dim_in``-sided.  Pass the same tuple
    twice for a one-sided (ordinary) difference; it is factored once.  The
    values come back in the order of ``pairs``.

    Two forms give the same values to rounding, and each call takes the one
    with the smaller operation count, over all its pairs at once.  With ``rows =
    dim_out * dim_in``, ``N = len(a) + len(b)`` the width of a pair and ``k =
    min(rows, N)``:

    * the direct form (``_direct_difference``) forms each pair's ``conj(D) =
      [a; -b]^T conj([c; d])``, one ``rows x rows`` product, and sums ``|D|^2``
      over its blocks.  A pair costs ``rows^2 N`` and holds one ``rows x
      rows`` complex array (16 MiB at ``rows = 1024``), the pairs one at a
      time;
    * the QR core (``_core_difference``) never forms ``D``.  A pair costs
      ``rows N k + rows k^2`` for its QR and block Grams, twice in a call
      with a two-sided pair, where the right columns are factored too, plus
      ``2 dim_out k^3`` for ``H_s = M^dag G_s M`` and ``dim_out^2 k^2`` for
      the traces.  It holds ``dim_out`` block Grams of ``k^2`` entries per
      factored side and per pair of a slab.

    The direct form is taken when its count is no larger.  Where it is, its
    one array is never larger than the ``rows x N`` columns the core would
    factor for a wide pair (``N >= rows``), and at most about twice all the
    core would hold for a narrow one.  Both forms carry an absolute error of
    order ``eps ||W||_F^2``, so each keeps its accuracy when the maps nearly
    agree.
    """
    if not pairs:
        return []
    dim_out = pairs[0][0][0].shape[1]
    rows = dim_out * dim_in
    factored = 1 + any(right is not left for left, right in pairs)
    widths = [len(a) + len(b) for (a, b), _ in pairs]
    core = 0
    for n in widths:
        k = min(rows, n)
        core += factored * (rows * n * k + rows * k * k) + 2 * dim_out * k**3 + dim_out**2 * k**2
    if rows * rows * sum(widths) <= core:
        return [_direct_difference(pair, dim_out, dim_in) for pair in pairs]
    return _core_difference(pairs, dim_in)


def _direct_difference(pair: tuple, dim_out: int, dim_in: int) -> tuple:
    """``(largest block norm, ||D||_F)`` of one pair of ``_difference``, from ``conj(D)`` itself."""
    (a, b), (c, d) = pair
    rows = dim_out * dim_in
    left = np.concatenate((a.reshape(len(a), rows), -b.reshape(len(b), rows)))
    right = np.concatenate((c.reshape(len(c), rows), d.reshape(len(d), rows)))
    # the real and imaginary parts of entry (s * dim_in + m, t * dim_in + n) of conj(D)
    parts = (left.T @ right.conj()).view(np.float64).reshape(dim_out, dim_in, dim_out, 2 * dim_in)
    squares = np.einsum("smtn,smtn->st", parts, parts)
    return float(np.sqrt(squares.max())), float(np.sqrt(squares.sum()))


def _core_difference(pairs: list, dim_in: int) -> list:
    """``_difference``'s values from its QR core: ``D = q_l M q_r^dag`` is never formed.

    With the thin QRs ``[W(a) W(b)] = q_l r_l`` and ``[W(c) W(d)] = q_r r_r``,
    ``D = q_l M q_r^dag`` for the core ``M = r_l J r_r^dag`` with ``J = diag(1,
    .., 1, -1, .., -1)``, at most ``N x N``, and ``||D||_F = ||M||_F``.  With
    ``q_s`` the rows of block row ``s`` and ``G_s = q_s^dag q_s``,
    ``||block(s, t)||_F^2 = tr(M^dag G_s M G_t)``: a trace of a product of two
    positive matrices, the first scaled by the core, so the result is small
    exactly when the core is.

    One rule stacks the pairs.  When every pair padded to the widest ``N``
    fits ``_SLAB_ENTRIES`` padded columns and block Grams, the whole call is
    factored by one stacked ``np.linalg.qr`` (the right columns of every
    pair too, when some pair is two-sided); padding only adds zero rows and
    columns to a core, so each value is the pair's own, to rounding.
    Otherwise each pair is factored alone, so a wide pair never pads the
    others to its width and the call holds no more than its largest pair.
    """
    n = len(pairs)
    dim_out = pairs[0][0][0].shape[1]
    rows = dim_out * dim_in
    two_sided = any(right is not left for left, right in pairs)
    width = max(len(a) + len(b) for (a, b), _ in pairs)
    entries = (1 + two_sided) * (rows * width + dim_out * min(rows, width) ** 2)  # per padded pair
    if n > 1 and n * entries > _SLAB_ENTRIES:
        return [value for pair in pairs for value in _core_difference([pair], dim_in)]
    sides = [left for left, _ in pairs] + ([right for _, right in pairs] if two_sided else [])
    q, r = np.linalg.qr(_padded_columns(sides, width, rows))  # the columns are freed here
    k = min(rows, width)
    blocks = q.reshape(len(sides), dim_out, dim_in, k)  # [j, s] = q_s of side j
    grams = dagger(blocks) @ blocks
    r_l, g_l = r[:n], grams[:n]
    r_r, g_r = (r[n:], grams[n:]) if two_sided else (r_l, g_l)
    j_r_dag = dagger(r_r)  # a fresh array, so r_r is left intact
    for signs, ((a, _), _) in zip(j_r_dag, pairs):
        signs[len(a) :] *= -1.0
    core = r_l @ j_r_dag
    h = dagger(core)[:, None] @ g_l @ core[:, None]
    # tr(H_s G_t) = <H_s, G_t> for Hermitian G_t: one product over the flattened blocks
    side = k * k
    squares = (h.reshape(n, dim_out, side) @ dagger(g_r.reshape(n, dim_out, side))).real
    return [
        (float(np.sqrt(max(float(sq.max()), 0.0))), float(np.linalg.norm(m)))
        for sq, m in zip(squares, core)
    ]


def _padded_columns(sides: list, width: int, rows: int) -> np.ndarray:
    """The Choi columns ``[W(a) W(b)]`` of each side ``(a, b)``, padded to ``width``, stacked."""
    padded = np.zeros((len(sides), width, rows), dtype=np.complex128)  # [j, k] = column k of side j
    for columns, stacks in zip(padded, sides):
        offset = 0
        for stack in stacks:
            np.conjugate(stack.reshape(len(stack), rows), out=columns[offset : offset + len(stack)])
            offset += len(stack)
    return padded.transpose(0, 2, 1)


def action_distance(k1: KrausSet, k2: KrausSet) -> float:
    """Largest Frobenius distance ``||E1(|k_s><k_t|) - E2(|k_s><k_t|)||`` over matrix units.

    Equivalently, the largest Frobenius norm of a ``dim_in``-sided block of
    ``choi(k1) - choi(k2)``; it vanishes exactly when the two maps agree.
    It is the first value of ``_difference``, the one map-difference
    routine, here on one pair: with ``N = len(k1) + len(k2)`` it forms the
    difference of the Choi matrices when that costs no more, and otherwise
    reads every block norm off an ``N x N`` QR core without forming it.
    """
    if (k1.dim_in, k1.dim_out) != (k2.dim_in, k2.dim_out):
        raise ValueError("Kraus sets act between different spaces")
    return _largest_distance([(k1.stack, k2.stack)], k1.dim_in)


def _largest_distance(pairs: list, dim_in: int) -> float:
    """The largest ``action_distance`` over ``(a, b)`` pairs of Kraus stacks, from one ``_difference``.

    The stacks all act between the same spaces, which the caller knows; an
    empty list gives 0.
    """
    return max((largest for largest, _ in _difference([(p, p) for p in pairs], dim_in)), default=0.0)


def kraus_equivalent(k1: KrausSet, k2: KrausSet, tol: Tolerances = DEFAULT_TOL):
    """Unitary ``u`` relating two minimal Kraus sets of the same map, if one exists.

    When ``choi(k1)`` and ``choi(k2)`` agree within ``eps_eq * max(1,
    ||choi(k1)||_F)`` in the Frobenius norm, which ``_difference`` returns
    second, the returned matrix satisfies ``k2.ops[l] = sum_k u[l, k] *
    k1.ops[k]`` and is unitary; otherwise returns None.  Both inputs must be
    linearly independent families, and the maps must share dimensions.
    """
    if (k1.dim_in, k1.dim_out) != (k2.dim_in, k2.dim_out):
        raise ValueError("Kraus sets act between different spaces")
    # column j is vec_row(A_j)
    m1, m2 = (k.stack.reshape(len(k), k.dim_out * k.dim_in).T for k in (k1, k2))
    for name, m, count in (("first", m1, len(k1)), ("second", m2, len(k2))):
        if count and _rank(m, tol) < count:
            raise InstrumentumError(f"{name} Kraus set is not minimal (linearly dependent)")
    if len(k1) != len(k2):
        return None
    if not k1.ops:
        return np.zeros((0, 0), dtype=np.complex128)
    # ||choi(k1) - choi(k2)||_F from _difference; ||choi(k1)||_F = ||W1^dag W1||_F
    pair = (k1.stack, k2.stack)
    difference = _difference([(pair, pair)], k1.dim_in)[0][1]
    if difference > tol.eps_eq * max(1.0, float(np.linalg.norm(dagger(m1) @ m1))):
        return None
    u, *_ = np.linalg.lstsq(m1, m2, rcond=None)
    u = u.T  # row l holds the expansion of k2.ops[l] in k1.ops
    residual = float(np.linalg.norm(m1 @ u.T - m2))
    unitary_defect = float(np.linalg.norm(dagger(u) @ u - np.eye(len(k1))))
    scale = max(1.0, float(np.linalg.norm(m1)))
    if residual > tol.eps_eq * scale or unitary_defect > tol.eps_eq * max(1.0, np.sqrt(len(k1))):
        return None
    return u
