"""Extreme points: instruments, POVMs, channels, and correlation matrices.

One criterion, applied by ``_rank_and_witness``, decides every verdict: a
coefficient matrix whose columns fall into square blocks either has
independent columns, and its subject is extreme, or its kernel holds a
blockwise Hermitian vector, which scaled to unit operator norm is a witness
splitting the subject into two distinct halves that average back to it.

* An instrument passes the columns ``vec(A_k(i)^dag A_l(i))`` over the pairs
  of a minimal Kraus set of each outcome ``i``, one block per outcome; its
  witness ``D`` has ``sum_{i,k,l} D(i)[k,l] A_k(i)^dag A_l(i) = 0``, and
  factoring ``I +- D(i)`` gives the halves.  A POVM passes the columns of its
  one-dimensional-output instrument, a unital channel those of its one-outcome one.
* A correlation matrix (unit-diagonal PSD) with Gram vectors ``m_i`` passes
  the rows ``vec(|m_i><m_i|)``, one block of the Gram rank; its witness ``B``
  has ``<m_i| B m_i> = 0`` for every ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpmaps import KrausSet, action_distance, minimal_kraus
from .errors import InstrumentumError
from .instruments import DiscreteInstrument, Povm, require_valid, trivial_from_povm
from .matkernel import (
    DEFAULT_TOL,
    Tolerances,
    _factor,
    _kernel,
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

    ``span_rank`` is the rank of the family ``{A_k(i)^dag A_l(i)}``,
    ``required_rank`` its cardinality ``sum_i n(i)^2``; the instrument is
    extreme exactly when the two agree.  ``witness`` (present only when not
    extreme) holds one Hermitian block per outcome, normalized to unit
    operator norm, annihilating the family.  ``marginal`` flags verdicts
    where the smallest retained singular value sits within a factor ten of
    the rank cutoff.
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
    with unit operator norm and ``<m_i| witness m_i> = 0`` for all ``i``.
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


def _gram_columns(blocks: list, dim_in: int) -> np.ndarray:
    """Columns ``vec(A_k^dag A_l)`` over all outcomes and index pairs."""
    # one (n, n, dim_in, dim_in) array per outcome with [k, l] = A_k^dag A_l
    products = [dagger(ks.stack)[:, None] @ ks.stack[None] for ks in blocks]
    return np.concatenate([p.reshape(-1, dim_in * dim_in) for p in products]).T


def _op_norm(blocks) -> float:
    """Largest operator norm among Hermitian blocks (an empty block counts zero)."""
    return max((float(np.max(np.abs(np.linalg.eigvalsh(b)))) if b.size else 0.0) for b in blocks)


def _kernel_defect(a: np.ndarray, blocks) -> float:
    """``||a v||`` for the vector ``v`` made of the flattened ``blocks`` in order."""
    return float(np.linalg.norm(a @ np.concatenate([b.reshape(-1) for b in blocks])))


def _hermitize_block_diagonal(blocks: list) -> list:
    """Blockwise Hermitian part of a unit kernel element, picked by larger norm."""
    # the kernel is closed under the blockwise adjoint J and the two parts' squared
    # norms sum to one, so the chosen part has norm >= 1/sqrt(2): never zero
    sym = [(b + dagger(b)) / 2.0 for b in blocks]
    anti = [1j * (b - dagger(b)) / 2.0 for b in blocks]
    norm_sym = np.sqrt(sum(float(np.linalg.norm(b)) ** 2 for b in sym))
    norm_anti = np.sqrt(sum(float(np.linalg.norm(b)) ** 2 for b in anti))
    chosen = sym if norm_sym >= norm_anti else anti
    op_norm = _op_norm(chosen)
    return [b / op_norm for b in chosen]


def _rank_and_witness(a: np.ndarray, block_dims, n: int, tol: Tolerances) -> tuple:
    """The extremality criterion on ``a``: its rank, ``marginal`` flag, and witness.

    The columns of ``a`` fall into square blocks of the sizes ``block_dims``.
    The witness is None when the columns are independent; otherwise it is the
    first kernel vector whose blockwise Hermitian part, scaled to unit
    operator norm, leaves a residual ``||a v|| <= eps_eq * max(1, n)``, as a
    tuple of blocks.  Raises when no kernel vector qualifies.
    """
    rank, marginal, null_basis = _kernel(a, tol)
    if rank == a.shape[1]:
        return rank, marginal, None
    cuts = np.cumsum([k * k for k in block_dims])[:-1]
    for column in null_basis.T:
        pieces = [v.reshape(k, k) for v, k in zip(np.split(column, cuts), block_dims)]
        witness = _hermitize_block_diagonal(pieces)
        if _kernel_defect(a, witness) <= tol.eps_eq * max(1.0, float(n)):
            return rank, marginal, tuple(witness)
    raise InstrumentumError("failed to extract a Hermitian witness from the kernel")


def instrument_extremal(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> ExtremalityReport:
    """Decide extremality of a valid instrument and produce a witness if it fails."""
    require_valid(m, tol)
    return _extremal(m, [minimal_kraus(kraus, tol) for _, kraus in m.outcomes], tol)


def _extremal(m: DiscreteInstrument, blocks: list, tol: Tolerances) -> ExtremalityReport:
    """``instrument_extremal`` of a normalized ``m`` whose minimal Kraus sets are ``blocks``."""
    block_dims = tuple(len(ks) for ks in blocks)
    gram = _gram_columns(blocks, m.dim_in)
    rank, marginal, witness = _rank_and_witness(gram, block_dims, m.dim_in, tol)
    return ExtremalityReport(  # required_rank: the column count sum_i n(i)^2
        witness is None, rank, gram.shape[1], marginal, m.labels, block_dims, witness
    )


def povm_extremal(p: Povm, tol: Tolerances = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality of a POVM among POVMs, via its one-dimensional-output instrument."""
    t = trivial_from_povm(p, tol)  # its Kraus sets are minimal by construction
    return _extremal(t, [kraus for _, kraus in t.outcomes], tol)


def channel_extremal(t: KrausSet, tol: Tolerances = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality of a unital (Heisenberg) channel among such channels."""
    m = DiscreteInstrument(t.dim_in, t.dim_out, ((0, t),))
    unital_defect = m._normalization[1]  # ||E(I) - I||_F of the single outcome
    if unital_defect > tol.eps_eq * float(np.sqrt(t.dim_in)):
        raise InstrumentumError(f"map is not a channel: unit defect {unital_defect:.3e}")
    return _extremal(m, [minimal_kraus(t, tol)], tol)


def witness_decompose(
    m: DiscreteInstrument, witness, tol: Tolerances = DEFAULT_TOL
) -> tuple[DiscreteInstrument, DiscreteInstrument]:
    """Split a non-extreme instrument along a witness into two distinct halves.

    Factoring ``I +- D(i) = S^dag S`` per outcome yields instruments with
    Kraus operators ``sum_k S[n, k] A_k(i)`` whose average is ``m``.  Raises
    when the witness is zero, is not blockwise Hermitian with operator norm
    at most one, or does not annihilate ``{A_k(i)^dag A_l(i)}``.
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
    op_norm = _op_norm(herm)
    if op_norm > 1.0 + tol.eps_psd:
        raise InstrumentumError(f"witness operator norm {op_norm:.6f} exceeds one")
    kernel_defect = _kernel_defect(_gram_columns(blocks, m.dim_in), herm)
    if kernel_defect > tol.eps_eq * max(1.0, float(m.dim_in)):
        raise InstrumentumError(
            f"witness does not annihilate the Kraus products: defect {kernel_defect:.3e}"
        )

    def build(sign: float) -> DiscreteInstrument:
        outcomes = []
        for (label, _), ks, block in zip(m.outcomes, blocks, herm):
            n_i = len(ks)
            if n_i == 0:
                outcomes.append((label, KrausSet(m.dim_in, m.dim_out, ())))
                continue
            # exactly Hermitian: block is symmetrized and the identity is real; the factor
            # S = w^dag keeps the eigenvalues above the rank cut, so the eigenvalue 1 - 1
            # of a unit-norm witness is dropped whatever sign rounding gives it
            f = _factor(np.eye(n_i) + sign * block, tol)
            if not f.psd:
                raise InstrumentumError("witness block pushes an eigenvalue below zero")
            mixed = np.tensordot(dagger(f.w), ks.stack, axes=(1, 0))
            outcomes.append((label, KrausSet(m.dim_in, m.dim_out, mixed)))
        return DiscreteInstrument(m.dim_in, m.dim_out, tuple(outcomes))

    plus = build(1.0)
    minus = build(-1.0)
    distance = max(
        action_distance(k1, k2) for (_, k1), (_, k2) in zip(plus.outcomes, minus.outcomes)
    )
    if distance <= tol.eps_eq:
        raise InstrumentumError("witness produced two identical instruments")
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
    span = (gram.conj()[:, :, None] * gram[:, None, :]).reshape(n, rank * rank)
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
