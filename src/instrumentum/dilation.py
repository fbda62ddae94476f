"""Dilations of instruments and their realization by measurement models.

Ambient-space conventions
-------------------------
A dilation of an instrument with input space H (dimension ``dim_in``) and
output space K (dimension ``dim_out``) lives on ``K (x) F`` where
``F = (+)_i C^{n(i)}`` is the direct sum of outcome fiber spaces.  The flat
ambient index is output-major: basis vector ``k_s (x) f`` sits at
``s * total + f`` with ``f = offset(i) + k`` running over blocks in outcome
order.  The isometry ``Y : H -> K (x) F`` has matrix elements

    Y[s * total + offset(i) + k, m] = <k_s | A_k(i) h_m>,

so ``M(i, B) = Y^dag (B (x) P_i) Y`` with ``P_i`` the projection of F onto
block ``i``.  Structure vectors ``psi_m^t(i)`` in ``C^{n(i)}`` and
generalized vectors ``d_k^t(i) = A_k(i)^dag k_t`` in H are the two natural
reshufflings of the same coefficients:

    psi_m^t(i)[k] = <k_t | A_k(i) h_m> = <d_k^t(i) | h_m>.

A measurement model realizes an instrument with ``dim_out == dim_in`` on
``H (x) ancilla`` (system-major flat index) through a unitary U, an ancilla
vector xi, and a pointer partition of the ancilla basis into outcome blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cpmaps import KrausSet, _largest_distance, _minimal_cut, _rebuilt, minimal_kraus
from .errors import InstrumentumError
from .instruments import (
    DiscreteInstrument,
    Povm,
    _block_partition,
    _block_slice,
    _check_labels,
    require_valid,
    trivial_from_povm,
)
from .matkernel import (
    DEFAULT_TOL,
    Tolerances,
    _descending_eigh,
    _integer,
    _rank,
    _require_finite,
    _require_orthonormal,
    as_matrix,
    dagger,
    isometry_complete,
    require_hermitian,
)

__all__ = [
    "StinespringDilation",
    "DilationReport",
    "MeasurementModel",
    "MarkovKernel",
    "IntertwinerReport",
    "minimal_stinespring",
    "naimark",
    "verify_dilation",
    "measurement_model",
    "realized_instrument",
    "model_intertwiner",
    "standard_model",
]


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Isometry-plus-pointer data dilating an instrument, in the ambient convention above.

    ``structure_vectors`` and ``generalized_vectors`` are properties derived
    from the isometry, one array per outcome ``i`` with fiber dimension ``n_i``:

    * ``structure_vectors[i][m, t, k] = <k_t | A_k(i) h_m>``, shape
      ``(dim_in, dim_out, n_i)``;
    * ``generalized_vectors[i][k, t, :] = conj(A_k(i)[t, :])``, shape
      ``(n_i, dim_out, dim_in)``.
    """

    dim_in: int
    dim_out: int
    labels: tuple
    block_dims: tuple
    isometry: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dim_in, dim_out = _integer(self.dim_in, "dimensions"), _integer(self.dim_out, "dimensions")
        labels, block_dims = _block_partition(self.labels, self.block_dims)
        total = sum(block_dims)
        iso = as_matrix(self.isometry, name="dilation isometry")
        if iso.shape != (dim_out * total, dim_in):
            raise ValueError(
                f"isometry has shape {iso.shape}, expected {(dim_out * total, dim_in)}"
            )
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "block_dims", block_dims)
        object.__setattr__(self, "isometry", iso)

    __reduce__ = _rebuilt

    @property
    def total_fibers(self) -> int:
        return sum(self.block_dims)

    block_slice = _block_slice

    def _fiber_blocks(self) -> list:
        """Per outcome, ``Y[s * total + offset(i) + k, m]`` as a ``(dim_out, n_i, dim_in)`` view."""
        y = self.isometry.reshape(self.dim_out, self.total_fibers, self.dim_in)
        return [y[:, self.block_slice(i), :] for i in range(len(self.block_dims))]

    @property
    def structure_vectors(self) -> tuple:
        return tuple(z.transpose(2, 0, 1) for z in self._fiber_blocks())

    @property
    def generalized_vectors(self) -> tuple:
        return tuple(z.transpose(1, 0, 2).conj() for z in self._fiber_blocks())


@dataclass(frozen=True)
class DilationReport:
    """Checks of a dilation against an instrument."""

    passed: bool
    isometry_defect: float
    max_reconstruction_error: float
    block_span_ranks: tuple
    block_dims: tuple


class _Householder(NamedTuple):
    """The unitary of a model that ``measurement_model`` builds, held factored."""

    y: np.ndarray  # the dilation isometry: U's columns at the slots h_n (x) xi
    h: np.ndarray  # np.linalg.qr(y, mode="raw"): reflector k is 1 at k and h[k, k + 1:] below
    tau: np.ndarray  # the reflectors' scalars, H_k = I - tau[k] v_k v_k^dag
    order: np.ndarray  # the column of isometry_complete(y) that each slot of U takes
    tol: Tolerances  # the call's tolerances, under which y was checked and U is formed


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Unitary realization of an instrument on system (x) ancilla.

    ``block_dims`` partitions the ancilla basis (in index order) into the
    pointer blocks of the outcomes in ``labels``; ``xi`` is the initial
    ancilla vector and ``unitary`` acts on the system-major product space.
    Only structure is checked here; ``model_intertwiner`` judges ``unitary`` and ``xi``.

    A model that ``measurement_model`` builds is factored: it holds the
    dilation isometry ``Y`` and the Householder reflectors of its QR in place
    of ``unitary``, which is formed on its first read (``save`` and
    ``model -o`` read it) and kept.  A copy or a pickle is rebuilt by the
    constructor from the formed ``unitary``, so it comes back dense.
    """

    system_dim: int
    labels: tuple
    block_dims: tuple
    xi: np.ndarray = field(repr=False)
    unitary: np.ndarray = field(repr=False)

    _factors = None  # a _Householder on a factored model, None on a dense one

    def __post_init__(self) -> None:
        self._set_structure(self.system_dim, self.labels, self.block_dims, self.xi)
        u = as_matrix(self.unitary, name="model unitary")
        side = self.system_dim * self.ancilla_dim
        if u.shape != (side, side):
            raise ValueError(f"unitary has shape {u.shape}, expected {(side, side)}")
        object.__setattr__(self, "unitary", u)

    def _set_structure(self, system_dim, labels, block_dims, xi) -> None:
        """Check and set every field but ``unitary``."""
        system_dim = _integer(system_dim, "dimensions")
        labels, block_dims = _block_partition(labels, block_dims)
        ancilla = sum(block_dims)
        if ancilla < 1:
            raise ValueError("ancilla must have positive dimension")
        xi = np.array(xi, dtype=np.complex128).reshape(-1)
        _require_finite(xi, "xi")
        if xi.shape != (ancilla,):
            raise ValueError(f"xi has length {xi.size}, expected {ancilla}")
        xi.setflags(write=False)
        object.__setattr__(self, "system_dim", system_dim)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "block_dims", block_dims)
        object.__setattr__(self, "xi", xi)

    @classmethod
    def _factored(cls, system_dim, labels, block_dims, xi, factors: _Householder):
        """A model whose ``unitary`` is held as ``factors`` until it is read."""
        model = object.__new__(cls)
        model._set_structure(system_dim, labels, block_dims, xi)
        object.__setattr__(model, "_factors", factors)
        return model

    def __getattr__(self, name: str):
        # reached only for a missing attribute: a factored model's unitary, before its first read
        factors = self._factors
        if name != "unitary" or factors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        u = isometry_complete(factors.y, factors.tol)[:, factors.order]
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        return u

    __reduce__ = _rebuilt

    @property
    def ancilla_dim(self) -> int:
        return sum(self.block_dims)

    block_slice = _block_slice


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Pointer kernel ``K[j, a]``, checked for structure only; ``standard_model`` bounds its sums."""

    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    labels: tuple = ()

    def __post_init__(self) -> None:
        named = ((self.matrix, "kernel matrix"), (self.eigenvalues, "eigenvalue vector"))
        for values, name in named:
            if np.iscomplexobj(values):  # a float conversion would drop the imaginary part
                raise ValueError(f"{name} must be real")
        matrix = np.array(self.matrix, dtype=np.float64)
        eigenvalues = np.array(self.eigenvalues, dtype=np.float64).reshape(-1)
        labels = tuple(self.labels)
        _require_finite(matrix, "kernel matrix")
        _require_finite(eigenvalues, "eigenvalue vector")
        if matrix.ndim != 2:
            raise ValueError("kernel matrix must be 2-dimensional")
        if matrix.shape != (len(labels), eigenvalues.size):
            raise ValueError(
                f"kernel has shape {matrix.shape}, expected {(len(labels), eigenvalues.size)}"
            )
        _check_labels(labels)
        matrix.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "labels", labels)

    __reduce__ = _rebuilt


@dataclass(frozen=True)
class IntertwinerReport:
    """Residuals of the unique map from a minimal dilation into a model's ancilla."""

    passed: bool
    isometry_defect: float
    realization_residual: float
    threshold: float


def minimal_stinespring(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> StinespringDilation:
    """Minimal dilation of ``m``: fiber dimensions are the outcome Choi ranks.

    Block ``i`` of the isometry holds the minimal Kraus set of outcome ``i``.
    """
    require_valid(m, tol)
    return _dilation(m, [minimal_kraus(kraus, tol) for _, kraus in m.outcomes])


def _dilation(m: DiscreteInstrument, blocks: list) -> StinespringDilation:
    """The dilation of ``m`` whose block ``i`` holds the Kraus set ``blocks[i]``."""
    fibers = np.concatenate([ks.stack for ks in blocks])  # [f, s, m] = A_k(i)[s, m]
    return StinespringDilation(
        dim_in=m.dim_in,
        dim_out=m.dim_out,
        labels=m.labels,
        block_dims=tuple(len(ks) for ks in blocks),
        isometry=fibers.transpose(1, 0, 2).reshape(-1, m.dim_in),
    )


def naimark(p: Povm, tol: Tolerances = DEFAULT_TOL) -> StinespringDilation:
    """Dilation of a POVM: ``M(i) = Y^dag P_i Y`` with one-dimensional output space."""
    t = trivial_from_povm(p, tol)
    return _dilation(t, [kraus for _, kraus in t.outcomes])  # minimal by construction


def verify_dilation(
    m: DiscreteInstrument, d: StinespringDilation, tol: Tolerances = DEFAULT_TOL
) -> DilationReport:
    """Check a dilation against an instrument.

    Verifies that Y is an isometry, that ``Y^dag (B (x) P_i) Y`` reproduces
    every outcome map on all matrix units B, and that each block's fibers are
    actually spanned (span rank equals the block dimension; padding shows up
    as a deficit).
    """
    require_valid(m, tol)
    if (d.dim_in, d.dim_out) != (m.dim_in, m.dim_out) or d.labels != m.labels:
        raise ValueError("dilation and instrument disagree on dimensions or labels")
    iso_defect = float(np.linalg.norm(d.isometry.conj().T @ d.isometry - np.eye(m.dim_in)))
    pairs = []
    span_ranks = []
    for (_, kraus), z in zip(m.outcomes, d._fiber_blocks()):
        dilated = z.transpose(1, 0, 2)  # [k, s, m], a view of the isometry
        pairs.append((kraus.stack, dilated))
        span_ranks.append(_rank(dilated.reshape(len(dilated), m.dim_out * m.dim_in), tol))
    max_err = _largest_distance(pairs, m.dim_in)
    passed = (
        iso_defect <= tol.eps_eq * float(np.sqrt(m.dim_in))
        and max_err <= tol.eps_eq * max(1.0, float(m.dim_out))
        and all(r == n for r, n in zip(span_ranks, d.block_dims))
    )
    return DilationReport(passed, iso_defect, max_err, tuple(span_ranks), d.block_dims)


def measurement_model(
    m: DiscreteInstrument, xi_index: int = 0, tol: Tolerances = DEFAULT_TOL
) -> MeasurementModel:
    """Realize ``m`` (with ``dim_out == dim_in``) by a unitary on system (x) fibers.

    The ancilla is the fiber space of the minimal dilation, prepared in the
    basis vector ``xi_index``; the unitary sends ``h_n (x) xi`` to ``Y h_n``,
    and its remaining slots take, in order, the trailing columns of the
    complete Householder QR of ``Y`` (``isometry_complete``).  ``Y`` is
    checked to be orthonormal under ``tol`` here, with ``isometry_complete``'s
    refusal.  The model returned is factored (see ``MeasurementModel``): it
    keeps ``Y``, the raw reflectors ``np.linalg.qr(Y, mode="raw")``, the slot
    order and ``tol``, and forms ``unitary`` as ``isometry_complete(Y,
    tol)[:, order]`` on its first read.  The model is checked against ``m``
    by one ``_difference`` call an outcome; at high Choi rank (``2 n_i`` of
    order ``d^2`` operators an outcome) that call forms the outcome's
    ``d^2``-sided Choi difference, a ``d^4``-entry array, and takes no QR.
    ``xi_index`` is read like a dimension (``matkernel._integer``), so a
    boolean, a float or a string raises ``ValueError``.
    """
    xi_index = _integer(xi_index, "xi_index values", minimum=0)
    if m.dim_out != m.dim_in:
        raise InstrumentumError(
            f"a measurement model needs matching dimensions, got {m.dim_in} -> {m.dim_out}"
        )
    dil = minimal_stinespring(m, tol)
    total = dil.total_fibers
    if not 0 <= xi_index < total:
        raise ValueError(f"xi_index {xi_index} outside the fiber space of dimension {total}")
    d = m.dim_in
    side = d * total
    given = np.zeros(side, dtype=bool)
    given[xi_index::total] = True  # the slots h_n (x) xi, in order of n
    order = np.empty(side, dtype=np.intp)  # the column of the completion each slot takes
    order[given] = np.arange(d)
    order[~given] = np.arange(d, side)
    xi = np.zeros(total, dtype=np.complex128)
    xi[xi_index] = 1.0
    y = dil.isometry
    _require_orthonormal(y, tol)
    h, tau = np.linalg.qr(y, mode="raw")
    for a in (h, tau, order):
        a.setflags(write=False)
    factors = _Householder(y, h, tau, order, tol)
    model = MeasurementModel._factored(d, dil.labels, dil.block_dims, xi, factors)
    realized = realized_instrument(model)
    pairs = [(k1.stack, k2.stack) for (_, k1), (_, k2) in zip(m.outcomes, realized.outcomes)]
    err = _largest_distance(pairs, d)
    if err > tol.eps_eq * max(1.0, float(d)):
        raise InstrumentumError(f"model construction failed to reproduce the instrument: {err:.3e}")
    return model


def realized_instrument(model: MeasurementModel) -> DiscreteInstrument:
    """The instrument a model measures (couple, read the pointer blocks); ``validate`` judges it."""
    d = model.system_dim
    pointer_ops = _coupled(model).transpose(1, 0, 2)  # [a, s, n]
    outcomes = tuple(
        (label, KrausSet(d, d, pointer_ops[model.block_slice(i)]))
        for i, label in enumerate(model.labels)
    )
    return DiscreteInstrument(d, d, outcomes)


def _coupled(model: MeasurementModel) -> np.ndarray:
    """``[s, a, n] = <h_s (x) e_a | U (h_n (x) xi)>``, shape ``(d, ancilla, d)``.

    A dense model is read by one matrix-vector product, the unitary's rows
    reshaped to blocks of ``ancilla`` columns times ``xi``.  On a factored
    model ``U (h_n (x) xi)`` is ``Y h_n``, so this is ``Y`` reshaped; adding
    ``0.0`` turns its ``-0.0`` entries into the ``+0.0`` the product gives.
    """
    d = model.system_dim
    anc = model.ancilla_dim
    if model._factors is not None:
        return (model._factors.y + 0.0).reshape(d, anc, d)
    return (model.unitary.reshape(-1, anc) @ model.xi).reshape(d, anc, d)


def _unitarity_defect(model: MeasurementModel) -> float:
    """How far a model's unitary is from unitary, read off what the model holds.

    Of a dense model, ``||U^dag U - I||_F``.  A factored model's ``U`` is, up
    to the order of its columns, ``Q = H_0 ... H_{d-1}`` with its leading
    ``d`` columns replaced by ``Y``.  For a unitary ``Q``, ``||U^dag U -
    I||_F^2`` is ``||Y^dag Y - I||_F^2`` plus twice the squared norm of the
    rows of ``Q^dag Y`` past ``d``; those come from the compact WY form ``Q =
    I - V T V^dag`` (Schreiber and Van Loan), ``T^-1`` being the strict upper
    triangle of ``V^dag V`` plus ``diag(1 / tau)`` over the reflectors with
    ``tau != 0`` (the others are the identity).  The third term is the sum
    of ``||H_k^dag H_k - I||_F = |2 Re tau_k - |tau_k|^2 ||v_k||^2| ||v_k||^2``,
    which bounds ``||Q^dag Q - I||_F`` to first order.  All of it costs
    ``O(side d^2)``.
    """
    factors = model._factors
    if factors is None:
        u = model.unitary
        return float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))
    y, h, tau = factors.y, factors.h, factors.tau
    d = y.shape[1]
    vt = np.triu(h, 1)  # row k: the reflector v_k, zero before its unit entry k
    vt[np.arange(d), np.arange(d)] = 1.0
    kept = tau != 0
    vt, tau = vt[kept], tau[kept]
    vh = vt.conj()  # V^dag
    v_gram = vh @ vt.T
    norms = v_gram.diagonal().real  # ||v_k||^2
    reflectors = float(np.sum(np.abs(2.0 * tau.real - np.abs(tau) ** 2 * norms) * norms))
    t_inverse = np.triu(v_gram, 1) + np.diag(1.0 / tau)
    # the rows past d of Q^dag Y = Y - V T^dag V^dag Y
    beyond = y[d:] - vt[:, d:].T @ np.linalg.solve(dagger(t_inverse), vh @ y)
    gram = float(np.linalg.norm(dagger(y) @ y - np.eye(d)))
    return float(np.sqrt(gram**2 + 2.0 * float(np.linalg.norm(beyond)) ** 2 + reflectors**2))


def model_intertwiner(
    model: MeasurementModel, m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, IntertwinerReport]:
    """The unique isometry from the minimal fiber space into the model's ancilla.

    Solves ``(I (x) W) Y psi = U (psi (x) xi)`` under the pointer
    compatibility ``P'_j W = W P_j``, block by block as ``img psi^dag S^-2``,
    as the rows ``psi`` of block ``i`` are the conjugated columns ``U S`` of
    the minimal cut of outcome ``i``'s Choi columns, kept with its singular
    values ``S`` (``cpmaps._minimal_cut``).  Raises when the model's defect
    from unitary exceeds ``eps_eq * sqrt(side)`` or the model does not
    realize ``m`` within ``eps_eq * sqrt(dim)``; a non-unit ``xi`` shows as
    the isometry defect of ``W``.  The defect is ``||U^dag U - I||_F`` of a
    dense model, and of a factored one is read off ``Y`` and its reflectors
    without forming ``U`` (``_unitarity_defect``).
    """
    require_valid(m, tol)
    if m.dim_out != m.dim_in or model.system_dim != m.dim_in:
        raise ValueError("model and instrument dimensions disagree")
    if model.labels != m.labels:
        raise ValueError("model and instrument outcome labels disagree")
    defect = _unitarity_defect(model)
    if defect > tol.eps_eq * float(np.sqrt(model.system_dim * model.ancilla_dim)):
        raise InstrumentumError(f"model matrix is not unitary: defect {defect:.3e}")
    cuts = [_minimal_cut(kraus, "minimal", tol) for _, kraus in m.outcomes]
    d = m.dim_in
    y_blocks = np.concatenate([ks.stack.transpose(1, 0, 2) for ks, _ in cuts], axis=1)  # [s, f, n]
    total = y_blocks.shape[1]
    v_blocks = _coupled(model)  # [s, a, n]
    w = np.zeros((model.ancilla_dim, total), dtype=np.complex128)
    offset = 0
    for i, (minimal, s) in enumerate(cuts):
        pointer = model.block_slice(i)
        # columns over (s, n) of the block components of Y h_n and U(h_n (x) xi)
        psi = minimal.stack.reshape(len(s), d * d)
        img = v_blocks[:, pointer, :].transpose(1, 0, 2).reshape(pointer.stop - pointer.start, d * d)
        w[pointer, offset : offset + len(s)] = img @ dagger(psi) / s**2
        offset += len(s)
    residual = max(float(np.linalg.norm(w @ y - v)) for y, v in zip(y_blocks, v_blocks))
    iso_defect = float(np.linalg.norm(w.conj().T @ w - np.eye(total)))
    threshold = tol.eps_eq * float(np.sqrt(d * total))
    passed = residual <= threshold and iso_defect <= threshold
    report = IntertwinerReport(passed, iso_defect, residual, threshold)
    if residual > threshold:
        raise InstrumentumError(
            f"model does not realize the instrument: residual {residual:.3e} "
            f"exceeds {threshold:.3e}"
        )
    return w, report


def _distinct_eigenvalues(values: np.ndarray, tol: Tolerances) -> list:
    """The index arrays of a descending eigenvalue list's clusters, split where neighbours
    differ by more than the gap."""
    gap = tol.eps_eq * max(1.0, float(np.max(np.abs(values))))
    return np.split(np.arange(values.size), np.flatnonzero(np.abs(np.diff(values)) > gap) + 1)


def standard_model(
    a_op,
    b_op,
    coupling: float,
    xi,
    pointer,
    labels=None,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[Povm, MarkovKernel, DiscreteInstrument]:
    """Von Neumann coupling ``exp(i * coupling * a_op (x) b_op)`` read out by a pointer.

    ``a_op`` is the measured Hermitian observable on the system, ``b_op``
    the Hermitian probe generator on the ancilla, ``xi`` the initial probe
    vector, and ``pointer`` a partition of the ancilla basis indices into
    outcome blocks.  Writing ``xi(a) = exp(i * a * coupling * b_op) xi`` for
    each distinct eigenvalue ``a``, the pointer statistics are the Markov
    kernel ``K[j, a] = || Pi_j xi(a) ||^2``, the measured effects are
    ``sum_a K[j, a] E_a``, and outcome ``j`` of the returned instrument has
    one Kraus operator ``sum_a xi(a)[r] E_a`` per ancilla index ``r`` in
    block ``j``.  The effects sum to ``||xi||^2 I``, so the probe is taken
    when ``| ||xi||^2 - 1 | <= eps_eq``, the rule ``validate`` applies to the
    returned instrument.
    """
    a_op = require_hermitian(a_op, tol, name="system observable")
    b_op = require_hermitian(b_op, tol, name="probe generator")
    xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
    _require_finite(xi, "xi")
    anc = b_op.shape[0]
    if xi.size != anc:
        raise ValueError(f"xi has length {xi.size}, expected {anc}")
    if abs(float(np.vdot(xi, xi).real) - 1.0) > tol.eps_eq:
        raise InstrumentumError("probe vector is not normalized")
    coupling = float(coupling)
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling!r}")
    blocks = [tuple(_integer(r, "pointer indices", minimum=0) for r in block) for block in pointer]
    flat = sorted(r for block in blocks for r in block)
    if flat != list(range(anc)):
        raise ValueError("pointer blocks must partition the ancilla basis indices")
    if labels is None:
        labels = tuple(range(len(blocks)))
    labels = tuple(labels)
    if len(labels) != len(blocks):
        raise ValueError("labels and pointer blocks disagree in length")

    d = _integer(a_op.shape[0], "dimensions")  # a 0 x 0 observable has no spectrum to split
    values, vectors = _descending_eigh(a_op, tol)
    clusters = _distinct_eigenvalues(values, tol)
    distinct = values[[cluster[0] for cluster in clusters]]
    projections = np.array([vectors[:, c] @ dagger(vectors[:, c]) for c in clusters])
    # row a is xi(a) = exp(i * distinct[a] * coupling * b_op) xi, from one decomposition of b_op
    b_values, b_vectors = _descending_eigh(b_op, tol)
    phases = np.exp(1j * np.outer(distinct * coupling, b_values))
    shifted = (phases * (dagger(b_vectors) @ xi)) @ b_vectors.T
    kernel = np.array([np.sum(np.abs(shifted[:, list(block)]) ** 2, axis=1) for block in blocks])
    effects = np.tensordot(kernel, projections, axes=(1, 0))
    ops = np.tensordot(shifted.T, projections, axes=(1, 0))  # [r] = sum_a xi(a)[r] E_a
    outcomes = [(label, KrausSet(d, d, ops[list(block)])) for label, block in zip(labels, blocks)]
    povm = Povm(d, tuple(zip(labels, effects)))
    markov = MarkovKernel(matrix=kernel, eigenvalues=distinct, labels=labels)
    instrument = DiscreteInstrument(d, d, tuple(outcomes))
    return povm, markov, instrument
