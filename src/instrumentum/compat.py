"""Instruments compatible with a given POVM, and their fiber-channel structure.

Every instrument whose effects are ``M(i)`` arises from the POVM's minimal
Naimark fibers ``psi_i`` (``n(i) x dim_in``, ``M(i) = psi_i^dag psi_i``) in
two interchangeable ways:

* forward, from a coefficient tensor ``c[l, s, k]`` per outcome (rows
  orthonormal over the flattened ``(s, k)`` index), which mixes the
  generalized vectors ``d_l(i)`` of the effects into Kraus operators
  ``A_k(i) = sum_s |k_s><d_k^s(i)|`` with ``d_k^s(i) = sum_l c[l, s, k] d_l(i)``;
* backward, by solving for the isometries ``C_i`` that carry the POVM's
  fibers into the instrument's fibers tensored with the output space, which
  exhibits each outcome map as ``M(i, B) = psi_i^dag T_i(B) psi_i`` for a
  channel ``T_i`` on the fiber space of outcome ``i``.

For an instrument's own POVM both fibers are minimal Kraus sets read off the
Kraus stack of outcome ``i``: ``psi_i`` is that of ``c -> c * M(i)``, whose
Kraus operators are the rows of the ``A_k(i)``, and the instrument fiber is
that of ``A(i)`` itself; no dilation object is built.  The backward
decomposition also yields the square-root factorization
``sqrt(M(X)) Phi^X(B) sqrt(M(X)) = M(X, B)`` of any outcome subset through a
single channel ``Phi^X``, the conjugated plain channel for projection valued
measures, and the nuclear form of any instrument compatible with a rank-one
POVM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpmaps import (
    KrausSet,
    _difference,
    _effect,
    _largest_distance,
    _minimal_cut,
    _rebuilt,
    _schrodinger,
    minimal_kraus,
)
from .errors import InstrumentumError
from .instruments import (
    DiscreteInstrument,
    Povm,
    _checked_subset,
    _effect_factors,
    _family,
    _label_repr,
    _nuclear,
    _pooled,
    _require_projection,
    associate_povm,
    require_valid,
)
from .matkernel import DEFAULT_TOL, Tolerances, _factor, _integer, _kept, _rank, dagger

__all__ = [
    "CompatCoefficients",
    "CompatChannelDecomposition",
    "FactorizationReport",
    "PvmCompatReport",
    "NuclearExtractionReport",
    "compat_from_coeffs",
    "compat_channel",
    "lueders_factorization",
    "pvm_compat",
    "rank1_nuclear_extract",
]


@dataclass(frozen=True, eq=False)
class CompatCoefficients:
    """Per-outcome coefficient tensors selecting an instrument of a POVM.

    ``outcomes`` pairs each label with an array of shape
    ``(n_i, dim_k, r_i)`` where ``n_i`` is the rank of the effect, ``dim_k``
    the output dimension of the instrument to build, and ``r_i`` the number
    of Kraus operators outcome ``i`` will carry.  Rows (fixed first index)
    must be orthonormal under the flattened ``(s, k)`` inner product.
    """

    dim_k: int
    outcomes: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim_k", _integer(self.dim_k, "output dimensions"))
        object.__setattr__(self, "outcomes", _family(self.outcomes, self._checked_tensor))

    __reduce__ = _rebuilt

    def _checked_tensor(self, label, tensor) -> np.ndarray:
        tensor = np.array(tensor, dtype=np.complex128)
        if not np.all(np.isfinite(tensor)):
            raise ValueError(
                f"coefficient tensor for {_label_repr(label)} contains NaN or Inf entries"
            )
        if tensor.ndim != 3:
            raise ValueError(f"coefficients for {_label_repr(label)} must be a rank-3 tensor")
        if tensor.shape[1] != self.dim_k:
            raise ValueError(
                f"coefficients for {_label_repr(label)} have middle dimension "
                f"{tensor.shape[1]}, expected {self.dim_k}"
            )
        tensor.setflags(write=False)
        return tensor

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.outcomes)


@dataclass(frozen=True, eq=False)
class CompatChannelDecomposition:
    """Fiber channels exhibiting an instrument over its POVM's minimal Naimark fibers.

    ``isometries[i]`` is ``C_i : C^{n(i)} -> K (x) C^{n'(i)}`` (output-major
    rows), where ``n(i)`` is the size of the minimal Kraus set of the Kraus
    rows of outcome ``i`` (the rank of ``M(i)``) and ``n'(i)`` that of its
    Kraus stack (its Choi rank).  Everything else is derived from the
    isometries: ``naimark_dims`` and ``fiber_dims`` are their ``n(i)`` and
    ``n'(i)``; ``channels[i]`` is the Kraus set of ``T_i(B) = C_i^dag (B (x)
    I) C_i`` from the fiber space of outcome ``i`` into the output space, or
    None when the effect is zero; ``generalized_vectors[i][k, s, :]`` is
    ``D_k^s(i) = C_i^dag (k_s (x) b_k)``.  ``max_residual`` bounds the defect
    of every defining identity checked.  The isometries are read-only.
    """

    dim_in: int
    dim_out: int
    labels: tuple
    isometries: tuple = field(repr=False, default=())
    max_residual: float = 0.0
    passed: bool = True

    @property
    def naimark_dims(self) -> tuple:
        return tuple(c.shape[1] for c in self.isometries)

    @property
    def fiber_dims(self) -> tuple:
        return tuple(c.shape[0] // self.dim_out for c in self.isometries)

    @property
    def channels(self) -> tuple:
        return tuple(
            KrausSet(n, self.dim_out, c.reshape(self.dim_out, -1, n).transpose(1, 0, 2))
            if n
            else None
            for c, n in zip(self.isometries, self.naimark_dims)
        )

    @property
    def generalized_vectors(self) -> tuple:
        return tuple(
            c.reshape(self.dim_out, n, c.shape[1]).transpose(1, 0, 2).conj()
            for c, n in zip(self.isometries, self.fiber_dims)
        )


@dataclass(frozen=True)
class FactorizationReport:
    """Defects of a square-root factorization through a channel."""

    passed: bool
    subset: tuple
    max_identity_error: float
    unit_defect: float


@dataclass(frozen=True)
class PvmCompatReport:
    """Defects of the conjugated-channel form available over a PVM."""

    passed: bool
    max_identity_error: float


@dataclass(frozen=True)
class NuclearExtractionReport:
    """Defects of the nuclear form ``M(i, B) = tr[sigma_i B] M(i)``."""

    passed: bool
    max_probe_error: float
    rebuild_error: float


def compat_from_coeffs(
    p: Povm, coeffs: CompatCoefficients, tol: Tolerances = DEFAULT_TOL
) -> DiscreteInstrument:
    """Build the instrument of ``p`` selected by a coefficient tensor family."""
    effect_factors = _effect_factors(p, tol)
    if coeffs.labels != p.labels:
        raise ValueError("coefficient labels do not match the POVM labels")
    outcomes = []
    for d_vectors, (label, tensor) in zip(effect_factors, coeffs.outcomes):
        n_i = d_vectors.shape[1]
        if tensor.shape[0] != n_i:
            raise ValueError(
                f"coefficients for {_label_repr(label)} have {tensor.shape[0]} rows, "
                f"but the effect has rank {n_i}"
            )
        r_i = tensor.shape[2]
        flat = tensor.reshape(n_i, coeffs.dim_k * r_i)
        gram_defect = float(np.linalg.norm(flat @ flat.conj().T - np.eye(n_i)))
        if gram_defect > tol.eps_eq * max(1.0, float(np.sqrt(max(n_i, 1)))):
            raise InstrumentumError(
                f"coefficient rows for {_label_repr(label)} are not orthonormal: "
                f"defect {gram_defect:.3e}"
            )
        mixed = np.tensordot(tensor, d_vectors.T, axes=([0], [0]))  # (dim_k, r_i, dim)
        ops = mixed.transpose(1, 0, 2).conj()
        outcomes.append((label, KrausSet(p.dim, coeffs.dim_k, ops)))
    built = DiscreteInstrument(p.dim, coeffs.dim_k, tuple(outcomes))
    require_valid(built, tol)
    return built


def compat_channel(
    m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL
) -> CompatChannelDecomposition:
    """Solve for the fiber isometries and channels of ``m`` over its POVM's Naimark fibers.

    For each outcome the isometry ``C_i`` solves ``C_i psi_i = sum_s k_s (x)
    phi_i^s`` over the input basis, in closed form as ``psi_i`` has orthogonal
    rows; row ``k`` of ``phi_i^s`` is row ``s`` of the ``k``-th minimal Kraus
    operator of outcome ``i``, and ``T_i(B) = C_i^dag (B (x) I) C_i``.  The
    decomposition reproduces ``M(i, B) = psi_i^dag T_i(B) psi_i``.
    """
    require_valid(m, tol)
    fibers = _decompose(m, tol)
    max_residual = 0.0
    pairs = []
    for (psi, phi, c_i), (_, kraus) in zip(fibers, m.outcomes):
        n_i = len(psi)
        if n_i == 0:
            continue
        solve_residual = float(np.linalg.norm(c_i @ psi - phi))
        iso_defect = float(np.linalg.norm(dagger(c_i) @ c_i - np.eye(n_i)))
        max_residual = max(max_residual, solve_residual, iso_defect)
        # psi^dag T_i(.) psi against the outcome map
        pairs.append((c_i.reshape(m.dim_out, -1, n_i).transpose(1, 0, 2) @ psi, kraus.stack))
    max_residual = max(max_residual, _largest_distance(pairs, m.dim_in))
    threshold = tol.eps_eq * max(1.0, float(np.sqrt(m.dim_in)))
    return CompatChannelDecomposition(
        dim_in=m.dim_in,
        dim_out=m.dim_out,
        labels=m.labels,
        isometries=tuple(c_i for _, _, c_i in fibers),
        max_residual=max_residual,
        passed=max_residual <= threshold,
    )


def _decompose(m: DiscreteInstrument, tol: Tolerances) -> list:
    """Per outcome of a normalized ``m``, the triple ``(psi_i, phi_i, C_i)``.

    ``psi_i`` (``n_i x dim_in``) is the minimal Kraus set of ``c -> c * M(i)``,
    whose Kraus operators are the rows of the ``A_k(i)``; ``phi_i`` (``dim_out
    * n'_i x dim_in``, output-major) stacks the rows of the minimal Kraus set
    of ``A(i)``.  Each is a minimal cut that ``cpmaps._minimal_cut`` keeps
    with its singular values.  ``psi_i = S U^dag`` has orthogonal rows, so
    ``C_i psi_i = phi_i`` is solved by ``C_i = phi_i psi_i^dag S^-2``,
    read-only and unchecked.
    """
    fibers = []
    for _, kraus in m.outcomes:
        psi, s = _minimal_cut(kraus, "fiber", tol)
        phi = minimal_kraus(kraus, tol).stack.transpose(1, 0, 2).reshape(-1, m.dim_in)
        c_i = phi @ dagger(psi)
        c_i /= s**2
        c_i.setflags(write=False)  # the derived channels and vectors read them
        fibers.append((psi, phi, c_i))
    return fibers


def _block_product(isometries: tuple, dim_out: int, right: np.ndarray) -> np.ndarray:
    """Kraus stack of ``(+)_i T_i`` composed with ``right``, whose rows run over the fibers."""
    blocks = []
    offset = 0
    for c_i in isometries:  # a zero outcome has n_i = n'_i = 0 and adds no operator
        n_i = c_i.shape[1]
        t_i = c_i.reshape(dim_out, len(c_i) // dim_out, n_i).transpose(1, 0, 2)
        blocks.append(t_i @ right[offset : offset + n_i])
        offset += n_i
    return np.concatenate(blocks)


def lueders_factorization(
    m: DiscreteInstrument, subset=None, tol: Tolerances = DEFAULT_TOL
) -> tuple[KrausSet, FactorizationReport]:
    """Factor ``M(X, B) = sqrt(M(X)) Phi^X(B) sqrt(M(X))`` through a channel.

    ``subset`` selects the outcome labels making up ``X`` (default: all).
    With the thin SVD ``u s vh`` of the Naimark fibers of the outcomes in
    ``X`` (zero rows for the others), so that ``M(X) = vh^dag s^2 vh``, the
    root is ``vh^dag s vh`` over the singular values kept by the
    ``sv_rel_cutoff`` rule and ``Phi^X`` is the block channel of the closed
    form isometries of ``compat_channel`` (unchecked) conjugated by the
    isometry ``u vh``, which extends it isometrically off the range of ``M(X)``.
    """
    require_valid(m, tol)
    subset = _checked_subset(m, m.labels if subset is None else subset)
    psis, _, isometries = zip(*_decompose(m, tol))
    dim = m.dim_in
    # the fibers of every outcome span H, so there are at least dim rows
    masked = np.concatenate(
        [psi if label in subset else np.zeros_like(psi) for label, psi in zip(m.labels, psis)]
    )
    u, s, vh = np.linalg.svd(masked, full_matrices=False)
    r = _kept(s * s, tol)
    root = dagger(vh[:r]) @ (s[:r, None] * vh[:r])

    phi = KrausSet(dim, m.dim_out, _block_product(isometries, m.dim_out, u @ vh))
    pair = (phi.stack @ root, _pooled(m, subset))  # root Phi(.) root against M(X, .)
    max_err = _largest_distance([pair], dim)
    unit_defect = float(np.linalg.norm(_effect(phi) - np.eye(dim)))
    threshold = tol.eps_eq * max(1.0, float(np.sqrt(dim)))
    passed = max_err <= threshold and unit_defect <= threshold
    return phi, FactorizationReport(passed, subset, max_err, unit_defect)


def pvm_compat(
    m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL
) -> tuple[KrausSet, PvmCompatReport]:
    """The plain-channel form of an instrument whose POVM is projection valued.

    Over a PVM the stacked Naimark fibers form a unitary, so conjugating the
    block channel by it yields a channel ``T`` on the input space itself with
    ``M(i, B) = M(i) T(B) = T(B) M(i)``.
    """
    effects = tuple(zip(m.labels, require_valid(m, tol)))
    for label, matrix in effects:
        _require_projection(label, matrix, tol)
    psis, _, isometries = zip(*_decompose(m, tol))
    fibers = np.concatenate(psis)
    if len(fibers) != m.dim_in:  # a fiber kept an eigenvalue that the projection's rank cuts
        for (label, effect), psi in zip(effects, psis):
            rank = _rank(effect, tol)
            if len(psi) > rank:
                raise InstrumentumError(
                    f"effect {_label_repr(label)}: its Naimark fiber keeps {len(psi)} rows, "
                    f"but the projection has rank {rank}"
                )
        raise InstrumentumError("dilation of a projection valued measure should be unitary")
    ops = _block_product(isometries, m.dim_out, fibers)
    conjugated = KrausSet(m.dim_in, m.dim_out, ops)
    # B -> M(i) T(B) - M(i, B) has left operators C_k M(i)^dag and right operators C_k;
    # T(B) M(i) - M(i, B) is its adjoint at B^dag, so its block norms are the same
    pairs = [
        ((ops @ dagger(effect), kraus.stack), (ops, kraus.stack))
        for (_, effect), (_, kraus) in zip(effects, m.outcomes)
    ]
    max_err = max(_difference(left, right, m.dim_in)[0] for left, right in pairs)
    threshold = tol.eps_eq * max(1.0, float(np.sqrt(m.dim_in)))
    return conjugated, PvmCompatReport(max_err <= threshold, max_err)


def rank1_nuclear_extract(
    m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL
) -> tuple[Povm, tuple, NuclearExtractionReport]:
    """Recover the output states of an instrument compatible with a rank-one POVM.

    Every such instrument is nuclear: ``M(i, B) = tr[sigma_i B] M(i)``.  The
    state of outcome ``i`` is read off by pushing the maximally mixed state
    through the outcome map; a zero effect gets the maximally mixed output
    state by convention.  Raises when an effect has rank above one.
    """
    p = associate_povm(m, tol)
    for label, matrix in p.effects:
        rank = _rank(matrix, tol)
        if rank > 1:
            raise InstrumentumError(
                f"effect {_label_repr(label)} has rank {rank}, expected at most one"
            )
    dim_in, dim_out = m.dim_in, m.dim_out
    mixed_in = np.eye(dim_in, dtype=np.complex128) / dim_in
    states = []
    for (label, kraus), (_, effect) in zip(m.outcomes, p.effects):
        weight = float(np.trace(mixed_in @ effect).real)
        if weight <= tol.eps_eq:
            states.append(np.eye(dim_out, dtype=np.complex128) / dim_out)
            continue
        sigma = _schrodinger(kraus, mixed_in) / weight
        states.append((sigma + dagger(sigma)) / 2.0)
    max_probe_error = 0.0
    rng = np.random.default_rng(271828)
    for _ in range(10):
        g = rng.standard_normal((dim_in, dim_in)) + 1j * rng.standard_normal((dim_in, dim_in))
        rho = g @ dagger(g)
        rho = rho / float(np.trace(rho).real)
        for (label, kraus), (_, effect), sigma in zip(m.outcomes, p.effects, states):
            weight = float(np.trace(rho @ effect).real)
            defect = float(np.linalg.norm(_schrodinger(kraus, rho) - weight * sigma))
            max_probe_error = max(max_probe_error, defect)
    # from the instrument's own fibers: nuclear() would re-check p's effects as outside input
    fibers = [_minimal_cut(kraus, "fiber", tol)[0] for _, kraus in m.outcomes]
    rebuilt = _nuclear(dim_in, dim_out, m.labels, fibers, [_factor(s, tol).w for s in states])
    pairs = [(k1.stack, k2.stack) for (_, k1), (_, k2) in zip(m.outcomes, rebuilt.outcomes)]
    rebuild_error = _largest_distance(pairs, dim_in)
    threshold = tol.eps_eq * max(1.0, float(np.sqrt(dim_in)))
    passed = max_probe_error <= threshold and rebuild_error <= threshold
    if max_probe_error > threshold:
        raise InstrumentumError(
            f"instrument is not nuclear over its POVM: probe defect {max_probe_error:.3e}"
        )
    return p, tuple(states), NuclearExtractionReport(passed, max_probe_error, rebuild_error)
