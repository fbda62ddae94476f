"""Outcome statistics and post-measurement states of an instrument."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cpmaps import _schrodinger
from .errors import InstrumentumError
from .instruments import DiscreteInstrument, Label, _checked_subset, _label_repr, require_valid
from .matkernel import DEFAULT_TOL, Tolerances, _is_psd, as_matrix, dagger, require_hermitian

__all__ = [
    "PosteriorResult",
    "outcome_distribution",
    "posterior_state",
    "conditional_output",
    "conditional_expectation",
]


@dataclass(frozen=True, eq=False)
class PosteriorResult:
    """An outcome (or outcome set), its probability, and the read-only conditioned state."""

    label: object
    probability: float
    state: np.ndarray = field(repr=False)


def _check_state(rho, dim: int, tol: Tolerances) -> np.ndarray:
    rho = require_hermitian(rho, tol, name="input state")
    if rho.shape != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected {(dim, dim)}")
    if not _is_psd(rho, tol):
        raise InstrumentumError("input state is not positive semidefinite")
    trace = float(rho.trace().real)
    if abs(trace - 1.0) > tol.eps_eq * max(1.0, float(np.sqrt(dim))):
        raise InstrumentumError(f"input state has trace {trace!r}")
    return rho


def outcome_distribution(
    m: DiscreteInstrument, rho, tol: Tolerances = DEFAULT_TOL
) -> tuple:
    """Probabilities ``tr[rho M(i)]`` of all outcomes, in label order."""
    effects = require_valid(m, tol)
    rho = _check_state(rho, m.dim_in, tol)
    probabilities = np.trace(rho @ effects, axis1=1, axis2=2).real
    return tuple(zip(m.labels, probabilities.tolist()))


def posterior_state(
    m: DiscreteInstrument, rho, label: Label, tol: Tolerances = DEFAULT_TOL
) -> PosteriorResult:
    """The normalized output state conditioned on observing ``label``.

    Raises when the outcome has (numerically) zero probability.
    """
    zero = lambda: f"outcome {_label_repr(label)} has zero probability on this state"
    _, weight, state = _conditioned(m, rho, (label,), zero, tol)
    return PosteriorResult(label, weight, state)


def conditional_output(
    m: DiscreteInstrument, rho, subset, tol: Tolerances = DEFAULT_TOL
) -> PosteriorResult:
    """The output state conditioned on the outcome falling in ``subset``."""
    zero = lambda: "outcome subset has zero probability on this state"
    return PosteriorResult(*_conditioned(m, rho, subset, zero, tol))


def _conditioned(m: DiscreteInstrument, rho, subset, zero, tol: Tolerances) -> tuple:
    """Checked ``subset``, probability and output state given an outcome in it.

    Raises with the message ``zero()`` when the probability is zero; the text
    is formed only then.
    """
    require_valid(m, tol)
    rho = _check_state(rho, m.dim_in, tol)
    subset = _checked_subset(m, subset)
    # summed per outcome: one running sum over the pooled operators rounds differently
    raw = np.zeros((m.dim_out, m.dim_out), dtype=np.complex128)
    for label, kraus in m.outcomes:
        if label in subset:
            raw += _schrodinger(kraus, rho)
    weight = float(raw.trace().real)
    if weight <= tol.eps_eq:
        raise InstrumentumError(zero())
    state = (raw + dagger(raw)) / (2.0 * weight)
    state.setflags(write=False)
    return subset, weight, state


def conditional_expectation(
    m: DiscreteInstrument, rho, b, tol: Tolerances = DEFAULT_TOL
) -> tuple:
    """Expectations ``tr[rho_i b]`` of an output observable given each outcome.

    Outcomes of zero probability are omitted.  The returned values satisfy
    ``sum_i p(i) <b|i> = tr[rho M(Omega, b)]``.
    """
    require_valid(m, tol)
    rho = _check_state(rho, m.dim_in, tol)
    b = as_matrix(b, name="observable")
    if b.shape != (m.dim_out, m.dim_out):
        raise ValueError(f"observable has shape {b.shape}, expected {(m.dim_out, m.dim_out)}")
    raw = np.array([_schrodinger(kraus, rho) for _, kraus in m.outcomes])
    weights = np.trace(raw, axis1=1, axis2=2).real
    fired = weights > tol.eps_eq
    # divided in numpy, as complex / float in Python rounds differently, and only where
    # fired, so that a zero weight raises no warning
    values = np.trace(raw[fired] @ b, axis1=1, axis2=2) / weights[fired]
    labels = [label for label, keep in zip(m.labels, fired.tolist()) if keep]
    return tuple(zip(labels, values.tolist()))
