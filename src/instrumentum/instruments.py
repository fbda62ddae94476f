"""Discrete quantum instruments, POVMs, and the constructions relating them.

An instrument assigns to each outcome label a CP map given by a Kraus set;
the maps share input/output spaces and their Heisenberg actions on the
identity sum to the identity.  Outcome labels follow one grammar, checked by
every labelled constructor in the package and by every lookup by label: a
label is a string, an integer of at most 4300 digits (the most Python
converts to text by default) that is not a boolean, or a tuple of labels at
most ``_LABEL_DEPTH`` deep (tuples arise from sequential composition and from
rank-one refinement), so ``True`` or ``1.0`` names no outcome although it
equals ``1``.  Zero effects and zero outcome maps are legal and retained, so
label sets round-trip through files unchanged.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .cpmaps import KrausSet, _effect, _kraus_of_factor, minimal_kraus
from .errors import InstrumentumError
from .matkernel import DEFAULT_TOL, Tolerances, _factor, as_matrix, require_hermitian

__all__ = [
    "Label",
    "Povm",
    "DiscreteInstrument",
    "BiInstrument",
    "InstrumentValidation",
    "validate",
    "associate_povm",
    "associate_channel",
    "lueders",
    "trivial_from_povm",
    "trivial_from_channel",
    "nuclear",
    "compose_sequential",
    "margins",
    "refine_rank1",
]

Label = Union[str, int, tuple]

# one level per sequential composition, whose outcome count grows as a product, so no real
# label comes near this bound; it keeps every walk over a label inside the recursion limit
_LABEL_DEPTH = 100
# Python's default limit on integer-to-text conversion, so every integer label can be written
_LABEL_DIGITS = 4300
_INT_BOUND = 10**_LABEL_DIGITS
_NEG_INT_BOUND = -_INT_BOUND  # negated once, not on every check
_LONG_INT = f"<integer of more than {_LABEL_DIGITS} digits>"


def _label_fault(node, array=tuple, depth=0):
    """Where and why ``node`` breaks the label grammar, or None when it is a label.

    A label is a string, an integer of at most ``_LABEL_DIGITS`` digits that
    is not a boolean, or a sequence of type ``array`` of labels (``tuple``
    for values, ``list`` for decoded JSON), at most ``_LABEL_DEPTH``
    sequences deep.  A fault is ``(where, reason)``, with ``where`` the index
    path of the first offending element, such as ``"[1][0]"``; no string is
    built for a valid label.
    """
    if isinstance(node, array):
        if depth == _LABEL_DEPTH:
            return "", f"labels may nest at most {_LABEL_DEPTH} arrays deep"
        for i, part in enumerate(node):
            fault = _label_fault(part, array, depth + 1)
            if fault is not None:
                return f"[{i}]{fault[0]}", fault[1]
        return None
    if isinstance(node, bool):
        return "", "labels may not be booleans"
    if isinstance(node, str):
        return None
    if isinstance(node, int):
        if _NEG_INT_BOUND < node < _INT_BOUND:
            return None
        return "", f"integer labels may have at most {_LABEL_DIGITS} digits"
    return "", "expected a string, integer, or array label"


# repr with no limit but the depth, which stops a label too deep for the grammar, and with an
# integer too long for the grammar named by its bound, as Python refuses to convert it to text
_LABEL_REPR = reprlib.Repr()
for _limit in [name for name in vars(_LABEL_REPR) if name.startswith("max")]:
    setattr(_LABEL_REPR, _limit, sys.maxsize)
_LABEL_REPR.maxlevel = _LABEL_DEPTH
_LABEL_REPR.repr_int = lambda x, level: repr(x) if _NEG_INT_BOUND < x < _INT_BOUND else _LONG_INT


def _label_repr(label) -> str:
    """``repr(label)`` for any label of the grammar, and a bounded text for anything else.

    Arrays nested deeper than ``_LABEL_DEPTH`` are shown as ``(...)``, so an
    error message can name a label of any depth without recursing past the
    interpreter's limit.
    """
    if isinstance(label, (tuple, list)):
        for part in label:
            if isinstance(part, (tuple, list)):
                return _LABEL_REPR.repr(label)
    try:
        return repr(label)  # a flat label: no recursion, and several times faster than reprlib
    except ValueError:  # an integer too long for the grammar, alone or in a flat array
        return _LABEL_REPR.repr(label)


def _check_labels(labels) -> None:
    """Raise ValueError unless ``labels`` are distinct and each follows the label grammar."""
    seen = set()
    for label in labels:
        fault = _label_fault(label)
        if fault is not None:
            raise ValueError(f"label {_label_repr(label)}{fault[0]}: {fault[1]}")
        if label in seen:
            raise ValueError(f"duplicate outcome label {_label_repr(label)}")
        seen.add(label)


def _family(entries, coerce) -> tuple:
    """The pairs ``(label, coerce(label, value))`` of ``entries``, then ``_check_labels`` once."""
    family = tuple((label, coerce(label, value)) for label, value in entries)
    _check_labels(label for label, _ in family)
    return family


def _find(family, label, what: str):
    """The value paired with ``label`` in ``family``; KeyError naming ``what`` if there is none."""
    if _label_fault(label) is None:  # else True or 1.0 would compare equal to 1
        for lab, value in family:
            if lab == label:
                return value
    raise KeyError(f"no {what} labeled {_label_repr(label)}")


def _block_partition(labels, block_dims) -> tuple:
    """``labels`` and ``block_dims`` as tuples, checked to split a basis into labelled blocks."""
    labels, block_dims = tuple(labels), tuple(block_dims)
    if len(labels) != len(block_dims):
        raise ValueError("labels and block_dims disagree in length")
    _check_labels(labels)
    for n in block_dims:  # int() would truncate a float and read True or "2" as a dimension
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"block dimensions must be non-negative integers, got {_label_repr(n)}")
    return labels, tuple(map(int, block_dims))


def _block_slice(self, index: int) -> slice:
    """The basis indices of block ``index`` of a partition into ``self.block_dims``."""
    offset = sum(self.block_dims[:index])
    return slice(offset, offset + self.block_dims[index])


@dataclass(frozen=True, eq=False)
class Povm:
    """A discrete positive operator valued measure on a space of dimension ``dim``.

    Construction checks only shapes and label uniqueness; positivity and
    normalization are verified by the operations that require them, so that
    defective data can still be loaded and inspected.
    """

    dim: int
    effects: tuple = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        object.__setattr__(self, "effects", _family(self.effects, self._checked_effect))

    def _checked_effect(self, label, matrix) -> np.ndarray:
        matrix = as_matrix(matrix, name=f"effect {_label_repr(label)}")
        if matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"effect {_label_repr(label)} has shape {matrix.shape}, "
                f"expected {(self.dim, self.dim)}"
            )
        return matrix

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.effects)

    def effect(self, label: Label) -> np.ndarray:
        return _find(self.effects, label, "effect")

    def __len__(self) -> int:
        return len(self.effects)


@dataclass(frozen=True, eq=False)
class DiscreteInstrument:
    """A CP instrument with finitely many outcomes.

    ``outcomes`` is an ordered tuple of ``(label, KrausSet)`` pairs; each
    Kraus set maps the input space (dimension ``dim_in``) to the output
    space (dimension ``dim_out``).
    """

    dim_in: int
    dim_out: int
    outcomes: tuple = ()

    def __post_init__(self) -> None:
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError(f"dimensions must be positive, got {self.dim_in}, {self.dim_out}")
        object.__setattr__(self, "outcomes", _family(self.outcomes, self._checked_kraus))

    def _checked_kraus(self, label, kraus) -> KrausSet:
        if not isinstance(kraus, KrausSet):
            kraus = KrausSet(self.dim_in, self.dim_out, tuple(kraus))
        if (kraus.dim_in, kraus.dim_out) != (self.dim_in, self.dim_out):
            raise ValueError(
                f"outcome {_label_repr(label)} acts between dimensions "
                f"{(kraus.dim_in, kraus.dim_out)}, expected {(self.dim_in, self.dim_out)}"
            )
        return kraus

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.outcomes)

    def outcome(self, label: Label) -> KrausSet:
        return _find(self.outcomes, label, "outcome")

    def __len__(self) -> int:
        return len(self.outcomes)

    @cached_property
    def _normalization(self) -> tuple:
        """The read-only effects ``M(i, I)`` in outcome order and ``||sum_i M(i, I) - I||_F``.

        Formed on first need and kept, as the instrument is immutable; the
        verdict depends on the caller's ``Tolerances`` and is not kept.
        """
        effects = tuple(_effect(kraus) for _, kraus in self.outcomes)
        for e in effects:
            e.setflags(write=False)
        total = sum(effects, np.zeros((self.dim_in, self.dim_in), dtype=np.complex128))
        return effects, float(np.linalg.norm(total - np.eye(self.dim_in)))


@dataclass(frozen=True, eq=False)
class BiInstrument(DiscreteInstrument):
    """An instrument over a product outcome set, as produced by sequential composition.

    Labels are ``(first, second)`` pairs; ``first_labels`` and
    ``second_labels`` record the factor outcome sets in order, each checked like ``labels``.
    """

    first_labels: tuple = ()
    second_labels: tuple = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "first_labels", tuple(self.first_labels))
        object.__setattr__(self, "second_labels", tuple(self.second_labels))
        _check_labels(self.first_labels)
        _check_labels(self.second_labels)
        for label, _ in self.outcomes:
            if not (isinstance(label, tuple) and len(label) == 2):
                raise ValueError(f"outcome label {_label_repr(label)} is not an ordered pair")
            if label[0] not in self.first_labels or label[1] not in self.second_labels:
                raise ValueError(
                    f"outcome label {_label_repr(label)} is not in the product label set"
                )


@dataclass(frozen=True)
class InstrumentValidation:
    """Result of a normalization check on an instrument."""

    passed: bool
    normalization_defect: float
    threshold: float
    outcome_kraus_counts: tuple = ()


def validate(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> InstrumentValidation:
    """Check that the Heisenberg actions on the identity sum to the identity.

    The defect is the Frobenius norm of ``sum_i M(i, I) - I``; the check
    passes when it does not exceed ``eps_eq * sqrt(dim_in)``.
    """
    defect = m._normalization[1]
    threshold = tol.eps_eq * float(np.sqrt(m.dim_in))
    counts = tuple((label, len(kraus)) for label, kraus in m.outcomes)
    return InstrumentValidation(defect <= threshold, defect, threshold, counts)


def require_valid(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Raise when ``m`` fails normalization; else return its effects ``M(i, I)``.

    The effects are the instrument's own read-only arrays, in outcome order,
    so callers need not form them again.
    """
    report = validate(m, tol)
    if not report.passed:
        raise InstrumentumError(
            f"instrument is not normalized: defect {report.normalization_defect:.3e} "
            f"exceeds {report.threshold:.3e}"
        )
    return m._normalization[0]


def _effect_factors(p: Povm, tol: Tolerances) -> list:
    """Raise unless ``p`` is a valid POVM; else the factors ``[d_l(i)]_l`` of each ``M(i)``.

    One ``eigh`` per effect decides positivity and yields the columns ``d_l(i)``
    of the minimal factorization ``M(i) = sum_l |d_l(i)><d_l(i)|``.
    """
    factors = []
    for label, matrix in p.effects:
        f = _factor(require_hermitian(matrix, tol), tol)
        if not f.psd:
            raise InstrumentumError(f"effect {_label_repr(label)} is not positive semidefinite")
        factors.append(f.w)
    _require_effect_sum(p, tol)
    return factors


def _require_effect_sum(p: Povm, tol: Tolerances) -> None:
    """Raise unless the effects of ``p`` sum to the identity within ``eps_eq * sqrt(dim)``."""
    total = np.zeros((p.dim, p.dim), dtype=np.complex128)
    for _, matrix in p.effects:
        total += matrix
    defect = float(np.linalg.norm(total - np.eye(p.dim)))
    if defect > tol.eps_eq * float(np.sqrt(p.dim)):
        raise InstrumentumError(f"effects do not sum to the identity: defect {defect:.3e}")


def associate_povm(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """The measure ``i -> M(i, I)`` of outcome effects."""
    return Povm(m.dim_in, tuple(zip(m.labels, require_valid(m, tol))))


def associate_channel(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> KrausSet:
    """The total channel ``M(Omega, .)``: all Kraus operators pooled across outcomes."""
    require_valid(m, tol)
    return _pooled(m)


def _pooled(m: DiscreteInstrument, labels=None) -> KrausSet:
    """The Kraus operators of the outcomes in ``labels`` (default: all), in outcome order."""
    stacks = [k.stack for label, k in m.outcomes if labels is None or label in labels]
    return KrausSet(m.dim_in, m.dim_out, np.concatenate(stacks))


def _checked_subset(m: DiscreteInstrument, subset) -> tuple:
    """``subset`` as a tuple; raises unless it is non-empty and names outcomes of ``m``."""
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must contain at least one outcome label")
    for label in subset:
        _find(m.outcomes, label, "outcome")
    return subset


def _require_projection(label: Label, matrix: np.ndarray, tol: Tolerances) -> None:
    """Raise unless ``||P P - P|| <= eps_eq * max(1, ||P||)`` for the effect ``P`` of ``label``."""
    defect = float(np.linalg.norm(matrix @ matrix - matrix))
    if defect > tol.eps_eq * max(1.0, float(np.linalg.norm(matrix))):
        raise InstrumentumError(
            f"effect {_label_repr(label)} is not a projection: defect {defect:.3e}"
        )


def lueders(p: Povm, tol: Tolerances = DEFAULT_TOL) -> DiscreteInstrument:
    """The instrument ``B -> P_i B P_i`` of a projection valued measure.

    Each effect must be Hermitian within ``eps_herm`` and idempotent within
    ``eps_eq``, and the effects must sum to the identity; a Hermitian
    idempotent is positive, so no decomposition is needed.
    """
    projs = [
        require_hermitian(matrix, tol, name=f"effect {_label_repr(label)}")
        for label, matrix in p.effects
    ]
    _require_effect_sum(p, tol)
    outcomes = []
    for label, proj in zip(p.labels, projs):
        _require_projection(label, proj, tol)
        outcomes.append((label, KrausSet(p.dim, p.dim, (proj,))))
    return DiscreteInstrument(p.dim, p.dim, tuple(outcomes))


def trivial_from_povm(p: Povm, tol: Tolerances = DEFAULT_TOL) -> DiscreteInstrument:
    """The unique instrument of ``p`` into a one-dimensional output space.

    Outcome ``i`` carries the minimal Kraus set of the map ``c -> c * M(i)``,
    whose operators are the rows ``<d_l(i)|`` of a spectral square-root of the
    effect; a zero effect yields an empty Kraus set.
    """
    factors = _effect_factors(p, tol)
    outcomes = tuple((label, _kraus_of_factor(w, p.dim, 1)) for label, w in zip(p.labels, factors))
    return DiscreteInstrument(p.dim, 1, outcomes)


def trivial_from_channel(t: KrausSet, tol: Tolerances = DEFAULT_TOL) -> DiscreteInstrument:
    """The single-outcome instrument, labeled ``0``, whose only map is the channel ``t``."""
    m = DiscreteInstrument(t.dim_in, t.dim_out, ((0, t),))
    require_valid(m, tol)
    return m


def nuclear(p: Povm, states, tol: Tolerances = DEFAULT_TOL) -> DiscreteInstrument:
    """The instrument ``M(i, B) = tr[sigma_i B] * M(i)`` for given output states.

    ``states`` pairs each outcome of ``p`` with a density matrix on the
    output space.  Outcome ``i`` gets one Kraus operator
    ``sqrt(p_m) |phi_m><d_l(i)|`` per pair of a retained spectral vector
    ``d_l(i)`` of the effect and eigenpair ``(p_m, phi_m)`` of ``sigma_i``,
    flattened row-major in ``(l, m)`` with both spectra descending.
    """
    effect_factors = _effect_factors(p, tol)
    states = [as_matrix(s, name="output state") for s in states]
    if len(states) != len(p):
        raise ValueError(f"got {len(states)} states for {len(p)} effects")
    if not states:
        raise ValueError("at least one outcome is required")
    dim_out = states[0].shape[0]
    if dim_out == 0:
        raise ValueError(f"output state must be nonempty, got shape {states[0].shape}")
    state_factors = []
    for label, sigma in zip(p.labels, states):
        if sigma.shape != (dim_out, dim_out):
            raise ValueError(f"state for outcome {_label_repr(label)} has shape {sigma.shape}")
        f = _factor(require_hermitian(sigma, tol), tol)
        if not f.psd:
            raise InstrumentumError(
                f"state for outcome {_label_repr(label)} is not positive semidefinite"
            )
        trace = float(np.trace(sigma).real)
        if abs(trace - 1.0) > tol.eps_eq * max(1.0, float(np.sqrt(dim_out))):
            raise InstrumentumError(f"state for outcome {_label_repr(label)} has trace {trace!r}")
        state_factors.append(f.w)
    rows = [d.conj().T for d in effect_factors]
    return _nuclear(p.dim, dim_out, p.labels, rows, state_factors)


def _nuclear(dim_in: int, dim_out: int, labels, rows, state_factors) -> DiscreteInstrument:
    """``nuclear``'s instrument, unchecked, from factors of its effects and states.

    ``rows[i]`` holds the vectors ``d_l(i)^dag`` of ``M(i) = rows[i]^dag rows[i]``
    and ``state_factors[i]`` the columns ``sqrt(p_m) phi_m`` of ``sigma_i``.
    """
    outcomes = []
    for label, psi, w in zip(labels, rows, state_factors):
        # [l, m] = sqrt(p_m) |phi_m><d_l(i)|
        ops = w.T[None, :, :, None] * psi[:, None, None, :]
        outcomes.append((label, KrausSet(dim_in, dim_out, ops.reshape(-1, dim_out, dim_in))))
    return DiscreteInstrument(dim_in, dim_out, tuple(outcomes))


def compose_sequential(
    m1: DiscreteInstrument, m2: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL
) -> BiInstrument:
    """Feed the output of ``m1`` into ``m2``; outcome ``(i, j)`` observes ``i`` then ``j``.

    The composed Kraus set of outcome ``(i, j)`` is all products
    ``A'_k2(j) @ A_k1(i)``.
    """
    require_valid(m1, tol)
    require_valid(m2, tol)
    if m2.dim_in != m1.dim_out:
        raise ValueError(
            f"cannot compose: first output dimension {m1.dim_out} "
            f"!= second input dimension {m2.dim_in}"
        )
    outcomes = []
    for lab1, k1 in m1.outcomes:
        for lab2, k2 in m2.outcomes:
            products = k2.stack[None] @ k1.stack[:, None]  # [a, b] = B_b @ A_a
            ops = products.reshape(-1, m2.dim_out, m1.dim_in)
            outcomes.append(((lab1, lab2), KrausSet(m1.dim_in, m2.dim_out, ops)))
    return BiInstrument(
        m1.dim_in,
        m2.dim_out,
        tuple(outcomes),
        first_labels=m1.labels,
        second_labels=m2.labels,
    )


def margins(b: BiInstrument, tol: Tolerances = DEFAULT_TOL) -> tuple[Povm, Povm]:
    """Marginal POVMs of a product-outcome instrument.

    The first margin sums effects over the second label, the second margin
    over the first.
    """
    p = associate_povm(b, tol)
    zero = np.zeros((b.dim_in, b.dim_in), dtype=np.complex128)
    # the factor label sets are distinct, so each keys its margin in order
    first, second = dict.fromkeys(b.first_labels, zero), dict.fromkeys(b.second_labels, zero)
    for (lab1, lab2), matrix in p.effects:
        first[lab1] = first[lab1] + matrix
        second[lab2] = second[lab2] + matrix
    return Povm(b.dim_in, tuple(first.items())), Povm(b.dim_in, tuple(second.items()))


def refine_rank1(m: DiscreteInstrument, tol: Tolerances = DEFAULT_TOL) -> DiscreteInstrument:
    """Split every outcome into rank-one pieces, one per minimal Kraus operator.

    The new outcome ``(k, i)`` carries the single operator ``A_k(i)`` from the
    minimal Kraus set of outcome ``i``; summing the new maps over ``k``
    recovers the old outcome maps.  Outcomes whose map is zero contribute no
    refined outcomes.
    """
    require_valid(m, tol)
    outcomes = []
    for label, kraus in m.outcomes:
        for k, single in enumerate(minimal_kraus(kraus, tol).stack[:, None]):  # (1, out, in)
            outcomes.append(((k, label), KrausSet(m.dim_in, m.dim_out, single)))
    return DiscreteInstrument(m.dim_in, m.dim_out, tuple(outcomes))
