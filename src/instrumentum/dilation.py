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

import numpy as np

from .cpmaps import KrausSet, action_distance, minimal_kraus
from .errors import InstrumentumError
from .instruments import (
    DiscreteInstrument,
    Povm,
    _block_partition,
    _block_slice,
    _family,
    require_valid,
    trivial_from_povm,
)
from .matkernel import (
    DEFAULT_TOL,
    Tolerances,
    _descending_eigh,
    _rank,
    _require_finite,
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
        labels, block_dims = _block_partition(self.labels, self.block_dims)
        total = sum(block_dims)
        iso = as_matrix(self.isometry, name="dilation isometry")
        if iso.shape != (self.dim_out * total, self.dim_in):
            raise ValueError(
                f"isometry has shape {iso.shape}, expected {(self.dim_out * total, self.dim_in)}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "block_dims", block_dims)
        object.__setattr__(self, "isometry", iso)

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


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Unitary realization of an instrument on system (x) ancilla.

    ``block_dims`` partitions the ancilla basis (in index order) into the
    pointer blocks of the outcomes in ``labels``; ``xi`` is the initial
    ancilla vector and ``unitary`` acts on the system-major product space.
    Only structure is checked here; ``model_intertwiner`` judges ``unitary`` and ``xi``.
    """

    system_dim: int
    labels: tuple
    block_dims: tuple
    xi: np.ndarray = field(repr=False)
    unitary: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        labels, block_dims = _block_partition(self.labels, self.block_dims)
        ancilla = sum(block_dims)
        if ancilla < 1:
            raise ValueError("ancilla must have positive dimension")
        xi = np.array(self.xi, dtype=np.complex128).reshape(-1)
        _require_finite(xi, "xi")
        if xi.shape != (ancilla,):
            raise ValueError(f"xi has length {xi.size}, expected {ancilla}")
        u = as_matrix(self.unitary, name="model unitary")
        side = self.system_dim * ancilla
        if u.shape != (side, side):
            raise ValueError(f"unitary has shape {u.shape}, expected {(side, side)}")
        xi.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "block_dims", block_dims)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "unitary", u)

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
        _family(zip(labels, matrix), lambda label, row: row)  # the rows K[j, :] by label
        matrix.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "labels", labels)


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
    return _stinespring(m, tol)


def _stinespring(m: DiscreteInstrument, tol: Tolerances) -> StinespringDilation:
    """``minimal_stinespring`` of an instrument already known to be normalized."""
    minimal = tuple((label, minimal_kraus(kraus, tol)) for label, kraus in m.outcomes)
    return _dilation(DiscreteInstrument(m.dim_in, m.dim_out, minimal))


def _dilation(m: DiscreteInstrument) -> StinespringDilation:
    """The dilation whose block ``i`` holds the Kraus set of outcome ``i``, minimal when those are."""
    fibers = np.concatenate([ks.stack for _, ks in m.outcomes])  # [f, s, m] = A_k(i)[s, m]
    return StinespringDilation(
        dim_in=m.dim_in,
        dim_out=m.dim_out,
        labels=m.labels,
        block_dims=tuple(len(ks) for _, ks in m.outcomes),
        isometry=fibers.transpose(1, 0, 2).reshape(-1, m.dim_in),
    )


def naimark(p: Povm, tol: Tolerances = DEFAULT_TOL) -> StinespringDilation:
    """Dilation of a POVM: ``M(i) = Y^dag P_i Y`` with one-dimensional output space."""
    return _dilation(trivial_from_povm(p, tol))  # its Kraus sets are minimal by construction


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
    max_err = 0.0
    span_ranks = []
    for (_, kraus), z in zip(m.outcomes, d._fiber_blocks()):
        dilated = KrausSet(m.dim_in, m.dim_out, z.transpose(1, 0, 2))
        max_err = max(max_err, action_distance(kraus, dilated))
        fiber_matrix = dilated.stack.reshape(len(dilated), m.dim_out * m.dim_in)
        span_ranks.append(_rank(fiber_matrix, tol))
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
    basis vector ``xi_index``; the unitary sends ``h_n (x) xi`` to ``Y h_n``
    and is completed deterministically on the remaining slots.
    """
    if m.dim_out != m.dim_in:
        raise InstrumentumError(
            f"a measurement model needs matching dimensions, got {m.dim_in} -> {m.dim_out}"
        )
    dil = minimal_stinespring(m, tol)
    total = dil.total_fibers
    if not 0 <= xi_index < total:
        raise ValueError(f"xi_index {xi_index} outside the fiber space of dimension {total}")
    d = m.dim_in
    completed = isometry_complete(dil.isometry, tol)
    side = d * total
    unitary = np.zeros((side, side), dtype=np.complex128)
    given = np.zeros(side, dtype=bool)
    given[xi_index::total] = True  # the slots h_n (x) xi, in order of n
    unitary[:, given] = completed[:, :d]
    unitary[:, ~given] = completed[:, d:]
    xi = np.zeros(total, dtype=np.complex128)
    xi[xi_index] = 1.0
    model = MeasurementModel(
        system_dim=d,
        labels=dil.labels,
        block_dims=dil.block_dims,
        xi=xi,
        unitary=unitary,
    )
    realized = realized_instrument(model)
    err = max(
        action_distance(k1, k2) for (_, k1), (_, k2) in zip(m.outcomes, realized.outcomes)
    )
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
    """``[s, a, n] = <h_s (x) e_a | U (h_n (x) xi)>``, shape ``(d, ancilla, d)``."""
    d = model.system_dim
    anc = model.ancilla_dim
    coupled = model.unitary @ np.kron(np.eye(d, dtype=np.complex128), model.xi.reshape(anc, 1))
    return coupled.reshape(d, anc, d)


def model_intertwiner(
    model: MeasurementModel, m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, IntertwinerReport]:
    """The unique isometry from the minimal fiber space into the model's ancilla.

    Solves ``(I (x) W) Y psi = U (psi (x) xi)`` under the pointer
    compatibility ``P'_j W = W P_j``, block by block in least squares.  Raises
    when ``||U^dag U - I||_F > eps_eq * sqrt(side)`` or the model does not
    realize ``m`` within ``eps_eq * sqrt(dim)``; a non-unit ``xi`` shows as
    the isometry defect of ``W``.
    """
    require_valid(m, tol)
    if m.dim_out != m.dim_in or model.system_dim != m.dim_in:
        raise ValueError("model and instrument dimensions disagree")
    if model.labels != m.labels:
        raise ValueError("model and instrument outcome labels disagree")
    u = model.unitary
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))
    if defect > tol.eps_eq * float(np.sqrt(len(u))):
        raise InstrumentumError(f"model matrix is not unitary: defect {defect:.3e}")
    dil = _stinespring(m, tol)
    d = m.dim_in
    total = dil.total_fibers
    anc = model.ancilla_dim
    y_blocks = dil.isometry.reshape(d, total, d)  # [s, f, n]
    v_blocks = _coupled(model)  # [s, a, n]
    w = np.zeros((anc, total), dtype=np.complex128)
    for i in range(len(dil.labels)):
        fibers = dil.block_slice(i)
        pointer = model.block_slice(i)
        n_i = fibers.stop - fibers.start
        if n_i == 0:
            continue
        # columns over (s, n) of the block components of Y h_n and U(h_n (x) xi)
        psi = y_blocks[:, fibers, :].transpose(1, 0, 2).reshape(n_i, d * d)
        img = v_blocks[:, pointer, :].transpose(1, 0, 2).reshape(pointer.stop - pointer.start, d * d)
        sol, *_ = np.linalg.lstsq(psi.T, img.T, rcond=None)
        w[pointer, fibers] = sol.T
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
    """Group a descending eigenvalue list into clusters of equal values."""
    gap = tol.eps_eq * max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    clusters: list[list[int]] = []
    for idx, value in enumerate(values):
        if clusters and abs(values[clusters[-1][-1]] - value) <= gap:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


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
    anc = b_op.shape[0]
    if xi.size != anc:
        raise ValueError(f"xi has length {xi.size}, expected {anc}")
    if abs(float(np.vdot(xi, xi).real) - 1.0) > tol.eps_eq:
        raise InstrumentumError("probe vector is not normalized")
    blocks = [tuple(int(r) for r in block) for block in pointer]
    flat = sorted(r for block in blocks for r in block)
    if flat != list(range(anc)):
        raise ValueError("pointer blocks must partition the ancilla basis indices")
    if labels is None:
        labels = tuple(range(len(blocks)))
    labels = tuple(labels)
    if len(labels) != len(blocks):
        raise ValueError("labels and pointer blocks disagree in length")

    d = a_op.shape[0]
    values, vectors = _descending_eigh(a_op, tol)
    clusters = _distinct_eigenvalues(values, tol)
    distinct = np.array([values[cluster[0]] for cluster in clusters])
    projections = np.array([vectors[:, c] @ dagger(vectors[:, c]) for c in clusters])
    # row a is xi(a) = exp(i * distinct[a] * coupling * b_op) xi, from one decomposition of b_op
    b_values, b_vectors = _descending_eigh(b_op, tol)
    phases = np.exp(1j * np.outer(distinct * float(coupling), b_values))
    shifted = (phases * (dagger(b_vectors) @ xi)) @ b_vectors.T
    kernel = np.array([np.sum(np.abs(shifted[:, list(block)]) ** 2, axis=1) for block in blocks])
    effects = np.tensordot(kernel, projections, axes=(1, 0))
    ops = np.tensordot(shifted.T, projections, axes=(1, 0))  # [r] = sum_a xi(a)[r] E_a
    outcomes = [(label, KrausSet(d, d, ops[list(block)])) for label, block in zip(labels, blocks)]
    povm = Povm(d, tuple(zip(labels, effects)))
    markov = MarkovKernel(matrix=kernel, eigenvalues=distinct, labels=labels)
    instrument = DiscreteInstrument(d, d, tuple(outcomes))
    return povm, markov, instrument
