"""Extreme points: instruments, POVMs, channels, and correlation matrices.

One criterion, applied by ``_rank_and_witness``, decides every verdict: a
real coefficient matrix ``R`` whose columns fall into blocks either has
independent columns, and its subject is extreme, or each kernel vector is a
blockwise Hermitian witness, which scaled to unit operator norm splits the
subject into two distinct halves that average back to it.

``R`` is written in orthonormal Hermitian coordinates on both sides: an
``n x n`` matrix has coordinates on ``E_kk``, then ``(E_kl + E_lk)/sqrt 2``,
then ``i (E_kl - E_lk)/sqrt 2`` for ``k < l``.  Hermitian matrices have real
coordinates, so a map that commutes with the adjoint has a real matrix, with
the singular values of its complex matrix in the standard basis.

* An instrument passes the map ``D -> sum_{k,l} D[k,l] A_k(i)^dag A_l(i)``
  over a minimal Kraus set of each outcome ``i``, one block of ``n(i)^2``
  columns per outcome and ``dim_in^2`` rows; its witness ``D`` has
  ``sum_{i,k,l} D(i)[k,l] A_k(i)^dag A_l(i) = 0``, and factoring ``I +-
  D(i)`` gives the halves.  A POVM passes the map of its
  one-dimensional-output instrument, a unital channel that of its one-outcome one.
* A correlation matrix (unit-diagonal PSD) with Gram vectors ``m_i`` passes
  the rows of coordinates of ``|m_i><m_i|``, one block of the Gram rank; its
  witness ``B`` has ``<m_i| B m_i> = 0`` for every ``i``.

The span rank and ``marginal`` are those of the span-rank rule on the
singular values of ``R``.  A Cholesky certificate on the Gram of ``R`` on its
short side (``matkernel._full_span_rank``) reports full rank, not marginal,
without them; only when it fails are the singular values taken.  With more
columns than rows (``sum_i n(i)^2 > dim_in^2``, Choi's bound, or ``r^2 > n``,
Li and Tam's) the count decides the verdict, and the witness is the kernel
vector of the first ``rows + 1`` columns: at full span rank ``[-B1^-1 c; 1]``
from one LU solve of their leading square block ``B1`` against the last
column ``c``, and otherwise (below full rank, at a zero pivot, or where a
singular ``B1`` leaves them a kernel wider than a line) the last column of the
complete QR factor of their transpose.  There, when it costs less, the
Gram comes from the Choi blocks of each outcome (``_choi_gram``) and no
other column of ``R`` is formed unless the certificate fails.  Otherwise a
rank below the column count takes one thin SVD, and the witness is the first
projection ``P e_j`` of a unit vector onto the kernel that passes the
residual test.  Either way the witness has its entry of largest modulus
positive, so it does not depend on the kernel basis LAPACK returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .cpmaps import KrausSet, _largest_distance, minimal_kraus
from .errors import InstrumentumError
from .instruments import DiscreteInstrument, Povm, require_valid, trivial_from_povm, validate
from .matkernel import (
    DEFAULT_TOL,
    Tolerances,
    _descending_eigh,
    _factor,
    _factor_of,
    _full_span_rank,
    _span_rank,
    dagger,
    require_hermitian,
)

__all__ = [
    "ExtremalityReport",
    "CorrelationReport",
    "instrument_extremal",
    "povm_extremal",
    "channel_extremal",
    "witness_decompose",
    "correlation_extremal",
    "correlation_witness_split",
]


@dataclass(frozen=True, eq=False)
class ExtremalityReport:
    """Verdict of the linear-independence criterion for an instrument.

    ``span_rank`` is the rank of the family ``{A_k(i)^dag A_l(i)}`` by the
    span-rank rule on the singular values of the criterion in real Hermitian
    coordinates, read off a Cholesky certificate on its Gram where that
    shows full rank, and ``required_rank`` its cardinality ``sum_i
    n(i)^2``; the instrument is extreme exactly when the two agree, so never
    when ``required_rank > dim_in^2``.  ``witness`` (present only when not extreme) holds one
    read-only Hermitian block per outcome, normalized to unit operator norm,
    annihilating the family: above that count the kernel vector of the first
    ``dim_in^2 + 1`` columns, below it the first projection of a unit vector
    onto the kernel that passes the residual test, its largest coordinate
    positive.  ``marginal`` flags verdicts where the smallest retained
    singular value sits within a factor ten of the rank cutoff; a certified
    full rank has every value past ten times the cutoff, so is not marginal.
    """

    is_extreme: bool
    span_rank: int
    required_rank: int
    marginal: bool
    labels: tuple
    block_dims: tuple
    witness: tuple | None = None


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Verdict for a unit-diagonal PSD matrix.

    ``gram_vectors`` holds the Gram vector of row ``i`` in row ``i``
    (shape ``(n, gram_rank)``); ``witness`` (when not extreme) is Hermitian
    with unit operator norm and ``<m_i| witness m_i> = 0`` for all ``i``,
    chosen by the rule of ``ExtremalityReport.witness``.  Both are read-only.
    ``span_rank`` is the rank of the family ``{|m_i><m_i|}``, and the matrix
    is extreme exactly when it equals ``gram_rank ** 2``.  ``marginal`` flags
    verdicts where the smallest singular value kept for ``span_rank`` sits
    within a factor ten of the rank cutoff.
    """

    is_extreme: bool
    gram_rank: int
    span_rank: int
    marginal: bool
    gram_vectors: np.ndarray = field(repr=False, default=None)
    witness: np.ndarray | None = field(repr=False, default=None)


_SQRT2 = np.sqrt(2.0)
_SLICE_ENTRIES = 1 << 14  # complex entries in one slice of products A_k^dag A_l


@functools.lru_cache(maxsize=64)
def _off_diagonal(d: int) -> tuple:
    """Flat indices of the ``d x d`` entries ``(k, l)``, then ``(l, k)``, ``k < l`` row-major."""
    k, l = np.triu_indices(d, 1)
    upper, lower = k * d + l, l * d + k
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def _coordinates(x: np.ndarray) -> np.ndarray:
    """Coordinates of square matrices in the orthonormal Hermitian basis, along the last axis.

    The basis of ``d x d`` matrices is ``E_kk``, then ``(E_kl + E_lk)/sqrt 2``,
    then ``i (E_kl - E_lk)/sqrt 2``, for ``k < l`` in row-major order.  The
    map is complex linear and unitary; a Hermitian matrix has real coordinates.
    """
    d = x.shape[-1]
    upper, lower = _off_diagonal(d)
    flat = x.reshape(*x.shape[:-2], d * d)
    upper, lower = flat.take(upper, -1), flat.take(lower, -1)
    return np.concatenate(
        (flat[..., :: d + 1], (upper + lower) / _SQRT2, (upper - lower) / (1j * _SQRT2)), -1
    )


def _hermitian(v: np.ndarray, n: int) -> np.ndarray:
    """The ``n x n`` Hermitian matrix with the real coordinates ``v``."""
    upper, lower = _off_diagonal(n)
    out = np.zeros(n * n, dtype=np.complex128)
    out[:: n + 1] = v[:n]
    out[upper] = (v[n : n + len(upper)] + 1j * v[n + len(upper) :]) / _SQRT2
    out[lower] = out[upper].conj()
    return out.reshape(n, n)


@functools.lru_cache(maxsize=64)
def _pairs(block_dims: tuple) -> tuple:
    """Pairs ``k <= l`` of pooled Kraus operators, block by block, and the rows of ``R^T``.

    A pair ``k = l`` fills the row of ``E_kk`` with the coordinates of
    ``A_k^dag A_k``.  A pair ``k < l`` fills the row of ``(E_kl + E_lk)/sqrt
    2`` with ``sqrt 2 Re`` and that of ``i (E_kl - E_lk)/sqrt 2`` with ``-sqrt
    2 Im`` of those of ``A_k^dag A_l``; ``anti`` is -1 for ``k = l``.
    """
    k, l, rows, anti = [], [], [], []
    offset = row = 0
    for n in block_dims:
        upper_k, upper_l = np.triu_indices(n, 1)
        p = len(upper_k)
        k.append(offset + np.concatenate((np.arange(n), upper_k)))
        l.append(offset + np.concatenate((np.arange(n), upper_l)))
        rows.append(row + np.arange(n + p))
        anti.append(np.concatenate((np.full(n, -1), row + n + p + np.arange(p))))
        offset, row = offset + n, row + n * n
    plan = [np.concatenate(x) for x in (k, l, rows, anti)]
    plan.append(np.where(plan[0] == plan[1], 1.0, _SQRT2)[:, None])
    for a in plan:
        a.setflags(write=False)  # shared by every call with these block sizes
    return tuple(plan)


def _criterion_matrix(blocks: list, dim_in: int, columns: int | None = None) -> np.ndarray:
    """The real matrix ``R`` of the criterion for the minimal Kraus sets ``blocks``.

    Column ``j`` of the block of outcome ``i`` holds the coordinates of
    ``sum_{k,l} H_j[k, l] A_k(i)^dag A_l(i)`` for the ``j``-th basis element
    ``H_j``; the map commutes with the adjoint, so ``R`` is real.  It is
    written as ``R^T`` over slices of the pairs of ``_pairs``.  With
    ``columns`` only the first ``columns`` columns are formed, from the same
    slices as the whole, so they hold the same bytes.
    """
    stack = np.concatenate([ks.stack for ks in blocks])
    adjoints = dagger(stack)
    k, l, rows, anti, scale = _pairs(tuple(len(ks) for ks in blocks))
    columns = sum(len(ks) ** 2 for ks in blocks) if columns is None else columns
    rt = np.empty((columns, dim_in * dim_in))
    step = max(1, _SLICE_ENTRIES // (dim_in * dim_in))
    # a pair's real row rises with the pair and its imaginary row lies past it, so the
    # first columns come from the leading pairs
    for start in range(0, int(np.searchsorted(rows, columns)), step):
        part = slice(start, start + step)
        c = _coordinates(adjoints[k[part]] @ stack[l[part]])
        real, imag = rows[part], anti[part]
        kept = real < columns
        rt[real[kept]] = (c.real * scale[part])[kept]
        kept = (imag >= 0) & (imag < columns)
        rt[imag[kept]] = -_SQRT2 * c.imag[kept]
    return rt.T


def _choi_gram(blocks: list, dim_in: int, dim_out: int) -> np.ndarray:
    """The Gram ``R R^T`` of the criterion in matrix units, formed without ``R``.

    ``R R^T`` is the matrix of ``L L^dag`` for ``L: D -> sum_{k,l} D[k, l]
    A_k^dag A_l``, written in Hermitian coordinates; in matrix units it is
    ``sum_i sum_{s,t} C_st(i) (x) conj(C_st(i))`` with ``C_st = B_s^dag B_t``,
    ``B_s`` the ``n(i) x dim_in`` matrix of output row ``s`` of every Kraus
    operator.  The ``C_st`` are the blocks of the Choi matrix ``S^dag S`` of
    the Kraus rows ``S``, and one product ``Cp Cp^dag``, with ``Cp[(a, c),
    (s, t)] = C_st[a, c]``, forms the realignment of the sum.  Per outcome
    that costs about ``dim_in^4 dim_out^2`` and holds no ``n(i)^2`` term.
    """
    d = dim_in
    parts = []
    for ks in filter(len, blocks):
        rows = ks.stack.reshape(len(ks), dim_out * d)  # S[k, (s, a)] = A_k[s, a]
        choi = (rows.conj().T @ rows).reshape(dim_out, d, dim_out, d)  # C_st[a, c] at [s, a, t, c]
        parts.append(choi.transpose(1, 3, 0, 2).reshape(d * d, dim_out * dim_out))
    cp = np.concatenate(parts, axis=1)
    realigned = cp @ cp.conj().T  # [(a, c), (a', c')]: sum C_st[a, c] conj(C_st[a', c'])
    return realigned.reshape(d, d, d, d).swapaxes(1, 2).reshape(d * d, d * d)


def _singular_values(r: np.ndarray) -> np.ndarray:
    """Singular values of a criterion ``r`` wider than tall, one SVD without singular vectors.

    A ``r`` more than four times wider than tall is first reduced to the
    triangular factor of ``r^T``, which has the same singular values; the
    factor is accumulated over slabs of ``8 * rows`` columns, each QR small
    enough for cache.
    """
    rows, cols = r.shape
    if cols > 4 * rows:
        triangle = np.zeros((0, rows))
        for start in range(0, cols, 8 * rows):
            slab = r[:, start : start + 8 * rows].T
            triangle = np.linalg.qr(np.concatenate((triangle, slab)), mode="r")
        r = triangle
    return np.linalg.svd(r, compute_uv=False)


def _op_norm(spectra) -> float:
    """Largest operator norm of Hermitian blocks with eigenvalues ``spectra`` (empty ones: zero)."""
    return max((float(np.max(np.abs(s))) if s.size else 0.0) for s in spectra)


def _count_candidates(b: np.ndarray, full: bool, cols: int, tol: Tolerances):
    """Kernel vectors of the ``rows x (rows + 1)`` matrix ``b``, zero-padded to ``cols`` entries.

    With ``full`` (the whole criterion has rank ``rows``) the first is ``[-x; 1]``,
    ``x = B1^-1 c`` from one LU solve of the leading square block ``B1`` against
    the last column ``c``.  Partial pivoting is backward stable: ``[-x; 1]`` is a
    kernel vector of a matrix within ``eps ||b||`` of ``b``, however ``B1`` is
    conditioned, so it is the kernel of ``b`` whenever that is a line.  A
    singular ``B1`` makes ``x`` huge along its null space.  When that is a line,
    as at full Choi rank, where the diagonal products ``A_k^dag A_k`` alone are
    dependent, so is the kernel of ``b``, and ``x`` finds it; when it is wider,
    as for the completely depolarizing channel at d = 2 and 3, whose Choi
    spectrum is flat, so is the kernel of ``b``, and rounding would pick the
    vector.  The same LU tells the two apart: against a fixed second
    right-hand side ``z`` it gives ``y = B1^-1 z``, huge along the same line
    only, and ``x`` is taken when its part across ``y`` stays below ``1 /
    sv_rel_cutoff``.  The next candidate, and the only one otherwise, below full
    rank or when LU meets a zero pivot, is the last column of the complete QR
    factor of ``b^T``, formed only when reached.
    """
    rows = b.shape[0]
    pad = np.zeros(cols - rows - 1)
    if full:
        z = np.sin(np.arange(1.0, rows + 1.0))  # fixed, with no structure a criterion shares
        try:
            x, y = np.linalg.solve(b[:, :rows], np.stack((b[:, rows], z), axis=1)).T
        except np.linalg.LinAlgError:  # a zero pivot
            pass
        else:  # an inf or nan norm compares False
            if np.linalg.norm(x - (x @ y) / (y @ y) * y) * tol.sv_rel_cutoff < 1.0:
                yield np.concatenate((-x, [1.0], pad))
    yield np.concatenate((np.linalg.qr(b.T, mode="complete")[0][:, -1], pad))


def _rank_and_witness(
    r: np.ndarray, block_dims, n: int, tol: Tolerances, gram=None, whole=None
) -> tuple:
    """The extremality criterion on the real ``r``: its rank, ``marginal`` flag, and witness.

    The columns of ``r`` fall into blocks of the ``k * k`` Hermitian
    coordinates of the sizes ``k`` of ``block_dims``.  ``r`` is the whole
    criterion, or with more columns than rows its first ``rows + 1`` columns,
    which then come with ``gram``, the Gram of the whole on its short side in
    any orthonormal basis, and ``whole``, which forms the whole.  The rank and
    ``marginal`` are ``_span_rank``'s on the singular values of the whole; when
    the Gram certifies full rank (``_full_span_rank``) they are read off it and
    no SVD runs.  Otherwise they come from ``_singular_values`` of the whole
    when it is wider than tall, and else from one thin SVD of ``r``, whose
    ``V_r^T`` also gives the candidates below full rank.

    The witness is None when the columns are independent.  Otherwise the
    candidates are, with more columns than rows, the kernel vector of the
    first ``rows + 1`` columns, zero-padded: at full rank from one LU solve of
    their leading square block, then from the last column of the complete QR
    factor of their transpose, which ``_count_candidates`` takes alone below
    full rank and where the solve cannot tell the kernel; and else the
    projections ``P e_j = e_j - V_r V_r^T e_j`` in order of ``j``.  The witness
    is the first candidate that, with its largest entry positive and scaled to
    unit operator norm, leaves a residual ``||r v|| <= eps_eq * max(1, n)``: a
    tuple of read-only blocks.  Raises when no candidate qualifies.
    """
    rows = r.shape[0]
    shape = rows, cols = rows, sum(k * k for k in block_dims)
    if gram is None:
        gram = r.T @ r if cols <= rows else r @ r.T
    if _full_span_rank(gram, shape, tol):
        rank, marginal = min(shape), False
    elif cols > rows:
        rank, marginal = _span_rank(_singular_values(r if whole is None else whole()), shape, tol)
    else:
        _, s, vh = np.linalg.svd(r, full_matrices=False)
        rank, marginal = _span_rank(s, shape, tol)
    if cols > rows:  # dependent by the count: Choi, Theorem 5; Li and Tam
        candidates = _count_candidates(r[:, : rows + 1], rank == rows, cols, tol)
    elif rank == cols:
        return rank, marginal, None
    else:  # below full rank, so the thin SVD above ran: vh[:rank] is V_r^T
        candidates = np.eye(cols) - vh[:rank].T @ vh[:rank]  # row j is P e_j
    cuts = np.cumsum([k * k for k in block_dims])[:-1]
    for v in candidates:
        v = v * np.sign(v[np.argmax(np.abs(v))])
        blocks = [_hermitian(x, k) for x, k in zip(np.split(v, cuts), block_dims)]
        op_norm = _op_norm(np.linalg.eigvalsh(b) for b in blocks if b.size)
        residual = np.linalg.norm(r @ v[: r.shape[1]])  # v is zero past the columns of r
        if op_norm > 0.0 and residual <= tol.eps_eq * max(1.0, float(n)) * op_norm:
            for b in blocks:
                b /= op_norm
                b.setflags(write=False)
            return rank, marginal, tuple(blocks)
    raise InstrumentumError("failed to extract a Hermitian witness from the kernel")


def instrument_extremal(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> ExtremalityReport:
    """Decide extremality of a valid instrument and produce a witness if it fails."""
    require_valid(m, tol)
    return _extremal(m, [minimal_kraus(kraus, tol) for _, kraus in m.outcomes], tol)


def _extremal(m: DiscreteInstrument, blocks: list, tol: Tolerances) -> ExtremalityReport:
    """``instrument_extremal`` of a normalized ``m`` whose minimal Kraus sets are ``blocks``.

    Past ``rows + 1`` columns, where only the witness columns of ``R`` are
    needed, the Gram comes from the Choi blocks (``_choi_gram``) when that
    costs less than forming ``R``: about ``4 dim_out^2`` against ``n(i)^2``
    per outcome, each times ``dim_in^4``.
    """
    block_dims = tuple(len(ks) for ks in blocks)
    rows, cols = m.dim_in**2, sum(k * k for k in block_dims)
    if cols > rows + 1 and cols > 4 * m.dim_out**2 * np.count_nonzero(block_dims):
        r = _criterion_matrix(blocks, m.dim_in, rows + 1)
        gram = _choi_gram(blocks, m.dim_in, m.dim_out)
        whole = functools.partial(_criterion_matrix, blocks, m.dim_in)
    else:
        r, gram, whole = _criterion_matrix(blocks, m.dim_in), None, None
    rank, marginal, witness = _rank_and_witness(r, block_dims, m.dim_in, tol, gram, whole)
    return ExtremalityReport(  # required_rank: the column count sum_i n(i)^2
        witness is None, rank, cols, marginal, m.labels, block_dims, witness
    )


def povm_extremal(p: Povm, tol: Tolerances = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality of a POVM among POVMs, via its one-dimensional-output instrument."""
    t = trivial_from_povm(p, tol)  # its Kraus sets are minimal by construction
    return _extremal(t, [kraus for _, kraus in t.outcomes], tol)


def channel_extremal(t: KrausSet, tol: Tolerances = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality of a unital (Heisenberg) channel among such channels."""
    m = DiscreteInstrument(t.dim_in, t.dim_out, ((0, t),))
    report = validate(m, tol)  # its defect is ||E(I) - I||_F of the single outcome
    if not report.passed:
        raise InstrumentumError(
            f"map is not a channel: unit defect {report.normalization_defect:.3e}"
        )
    return _extremal(m, [minimal_kraus(t, tol)], tol)


def witness_decompose(
    m: DiscreteInstrument, witness, tol: Tolerances = DEFAULT_TOL
) -> tuple[DiscreteInstrument, DiscreteInstrument]:
    """Split a non-extreme instrument along a witness into two distinct halves.

    Factoring ``I +- D(i) = S^dag S`` per outcome yields instruments with
    Kraus operators ``sum_k S[n, k] A_k(i)`` whose average is ``m``.  One
    ``eigh`` per block, ``D(i) = V diag(lam) V^dag``, serves the operator-norm
    check and both halves: with ``lam`` descending, ``I + D(i)`` has the
    descending eigenvalues ``1 + lam`` along ``V``, and ``I - D(i)`` has ``1 -
    lam`` along ``V`` reversed; the phase rule acts column by column, so it is
    applied once.  Raises when the witness is zero, is not blockwise Hermitian
    with operator norm at most one, or does not annihilate ``{A_k(i)^dag
    A_l(i)}``.
    """
    require_valid(m, tol)
    blocks = [minimal_kraus(kraus, tol) for _, kraus in m.outcomes]
    block_dims = [len(ks) for ks in blocks]
    witness = list(witness)
    if len(witness) != len(blocks):
        raise ValueError(f"witness has {len(witness)} blocks for {len(blocks)} outcomes")
    herm = []
    for n_i, block in zip(block_dims, witness):
        block = np.asarray(block, dtype=np.complex128)
        if block.shape != (n_i, n_i):
            raise ValueError(f"witness block has shape {block.shape}, expected {(n_i, n_i)}")
        herm.append(require_hermitian(block, tol, name="witness block") if n_i else block)
    total_norm = np.sqrt(sum(float(np.linalg.norm(b)) ** 2 for b in herm))
    if total_norm <= tol.eps_eq:
        raise InstrumentumError("witness is numerically zero")
    spectra = [_descending_eigh(block, tol) for block in herm]  # lam descending
    op_norm = _op_norm(values for values, _ in spectra)
    if op_norm > 1.0 + tol.eps_psd:
        raise InstrumentumError(f"witness operator norm {op_norm:.6f} exceeds one")
    # ||R x|| for the coordinates x of the witness: the Frobenius norm of the image
    # sum_{i,k,l} D(i)[k,l] A_k(i)^dag A_l(i), formed from the Kraus stacks
    image = sum(
        dagger(ks.stack.reshape(-1, m.dim_in))
        @ np.tensordot(block, ks.stack, axes=(1, 0)).reshape(-1, m.dim_in)
        for ks, block in zip(blocks, herm)
    )
    kernel_defect = float(np.linalg.norm(image))
    if kernel_defect > tol.eps_eq * max(1.0, float(m.dim_in)):
        raise InstrumentumError(
            f"witness does not annihilate the Kraus products: defect {kernel_defect:.3e}"
        )

    def build(halves) -> DiscreteInstrument:
        outcomes = []
        for (label, _), ks, (values, vectors) in zip(m.outcomes, blocks, halves):
            if len(ks) == 0:
                outcomes.append((label, KrausSet(m.dim_in, m.dim_out, ())))
                continue
            # the factor S = w^dag keeps the eigenvalues above the rank cut, so the
            # eigenvalue 1 - 1 of a unit-norm witness is dropped whatever sign rounding gives it
            f = _factor_of(values, vectors, tol)
            if not f.psd:
                raise InstrumentumError("witness block pushes an eigenvalue below zero")
            mixed = np.tensordot(dagger(f.w), ks.stack, axes=(1, 0))
            outcomes.append((label, KrausSet(m.dim_in, m.dim_out, mixed)))
        return DiscreteInstrument(m.dim_in, m.dim_out, tuple(outcomes))

    plus = build([(1.0 + values, vectors) for values, vectors in spectra])
    minus = build([(1.0 - values[::-1], vectors[:, ::-1]) for values, vectors in spectra])
    pairs = [(k1.stack, k2.stack) for (_, k1), (_, k2) in zip(plus.outcomes, minus.outcomes)]
    distance = _largest_distance(pairs, m.dim_in)
    if distance <= tol.eps_eq:
        raise InstrumentumError(
            f"witness produced two identical instruments: the halves lie {distance:.3e} apart, "
            f"within eps_eq {tol.eps_eq:.3e}, so the witness moves the instrument by no more "
            "than eps_eq"
        )
    return plus, minus


def correlation_extremal(c, tol: Tolerances = DEFAULT_TOL) -> CorrelationReport:
    """Extremality of a correlation matrix (unit-diagonal PSD) in its convex body."""
    c = require_hermitian(c, tol, name="correlation matrix")
    n = c.shape[0]
    if n == 0:
        raise ValueError(f"correlation matrix must be nonempty, got shape {c.shape}")
    f = _factor(c, tol)
    if not f.psd:
        raise InstrumentumError("correlation matrix is not positive semidefinite")
    diag_defect = float(np.max(np.abs(np.diag(c) - 1.0)))
    if diag_defect > tol.eps_eq:
        raise InstrumentumError(f"diagonal is not one: defect {diag_defect:.3e}")
    # the span-rank rule on the eigenvalues: c passed the PSD and unit-diagonal checks, so
    # lambda_max >~ 1 > |lambda_min| is its largest singular value, and a negative
    # eigenvalue never exceeds the positive cut, so it gets no Gram vector
    rank, _ = _span_rank(f.values, c.shape, tol)
    gram = (np.sqrt(f.values[:rank])[:, None] * dagger(f.vectors[:, :rank])).T  # row i = m_i
    gram.setflags(write=False)
    # row i: the coordinates of |m_i><m_i|, so that (span v)_i = <m_i| B m_i> for B of coordinates v
    span = _coordinates(gram[:, :, None] * gram.conj()[:, None, :]).real
    span_rank, marginal, witness = _rank_and_witness(span, (rank,), n, tol)
    witness = None if witness is None else witness[0]
    return CorrelationReport(witness is None, rank, span_rank, marginal, gram, witness)


def correlation_witness_split(report: CorrelationReport) -> tuple[np.ndarray, np.ndarray]:
    """The two correlation matrices a witness splits its subject into.

    For a non-extreme report with Gram vectors ``m_i`` and witness ``B`` the
    halves are ``K_pm[i, j] = <m_i | (I +- B) m_j>``; both are unit-diagonal
    PSD and average back to the original matrix.
    """
    if report.is_extreme or report.witness is None:
        raise InstrumentumError("report carries no witness to split along")
    gram = report.gram_vectors
    eye = np.eye(report.gram_rank, dtype=np.complex128)
    plus = gram.conj() @ (eye + report.witness) @ gram.T
    minus = gram.conj() @ (eye - report.witness) @ gram.T
    return plus, minus
