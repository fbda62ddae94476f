"""Fixed-seed inputs for the three benchmark workloads.

Every generator takes the seed as an argument and draws from its own
``numpy.random.Generator``; nothing here imports the test suite, so a change
to the test helpers cannot move the inputs.  The shapes below are fixed;
the seed only changes the random entries, so every seed yields inputs with
the same dimensions, Kraus counts, Choi ranks and extremality verdicts.

The shapes vary what the package's behaviour depends on: the number of
outcomes and Kraus operators per outcome, ``dim_in != dim_out``, outcomes
with no Kraus operators, outcomes given with more operators than their Choi
rank (so the minimal reduction drops some), and both extreme and
non-extreme instruments, including ones with ``sum n_i^2 > dim_in^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Seed of the documents whose calls fail today; it never depends on --seed,
# so the failed share of a run is the same for every seed.
DEFECT_SEED = 20120225
# Relative normalization excess of the defect documents: the normalization
# defect is about 1e-7, above the default threshold (1e-9 * sqrt(d)) and
# below the one scaled by --tol-scale 1000.
DEFECT_EXCESS = 5e-8


@dataclass(frozen=True)
class Shape:
    """Shape of one generated instrument.

    ``ranks[i]`` is the Choi rank of outcome ``i`` (0 for an outcome that
    never fires); ``given[i] >= ranks[i]`` is how many Kraus operators the
    outcome is written with.
    """

    name: str
    dim_in: int
    dim_out: int
    ranks: tuple
    given: tuple
    labels: tuple

    @property
    def can_be_extreme(self) -> bool:
        return sum(n * n for n in self.ranks) <= self.dim_in**2


def make_shape(name, dim_in, dim_out, ranks, given=None, labels=None):
    given = ranks if given is None else given
    labels = tuple(range(len(ranks))) if labels is None else labels
    return Shape(name, dim_in, dim_out, tuple(ranks), tuple(given), tuple(labels))


# l2-analysis: one case per shape per round, largest dimension last.
L2_SHAPES = (
    make_shape("d8-square", 8, 8, (2, 2, 2)),
    make_shape("d8-wide", 8, 4, (5, 5, 5), (6, 5, 5), ("a", "b", "c")),
    make_shape("d8-zero", 8, 8, (2, 0, 3), (4, 0, 3)),
    make_shape("d12-four", 12, 6, (1, 2, 3, 2), (1, 3, 3, 2), ("w", "x", "y", "z")),
    make_shape("d12-wide", 12, 3, (9, 0, 8)),
    make_shape("d16-square", 16, 16, (3, 1, 2), (3, 2, 2)),
    make_shape("d24-square", 24, 24, (2, 2, 2), (3, 2, 2), ("u", "v", "w")),
)

# posterior-queries: many small instruments, each with a composable partner
# (partner.dim_in == instrument.dim_out).
POSTERIOR_SHAPES = (
    make_shape("d2", 2, 2, (1, 1), labels=("up", "down")),
    make_shape("d2-3", 2, 3, (2, 1, 1)),
    make_shape("d3-zero", 3, 3, (1, 2, 0), (1, 3, 0)),
    make_shape("d4-2", 4, 2, (2, 2, 2)),
    make_shape("d4", 4, 4, (1, 1, 1, 1), labels=("a", "b", "c", "d")),
    make_shape("d6", 6, 6, (2, 3), (3, 3)),
    make_shape("d6-3", 6, 3, (3, 0, 2, 1)),
    make_shape("d8", 8, 8, (2, 2, 2)),
    make_shape("d8-4", 8, 4, (3, 1, 2, 2), (4, 1, 2, 2)),
)
POSTERIOR_STATES = 4

# cli-documents: square documents (``model`` needs dim_in == dim_out); the
# composition partner maps d -> d/2, so the composed document is not square.
CLI_SHAPES = (
    make_shape("d4-nonextreme", 4, 4, (3, 3), labels=("a", "b")),
    make_shape("d8-zero", 8, 8, (2, 0, 2), (3, 0, 2)),
    make_shape("d16", 16, 16, (2, 1, 2), labels=("p", "q", "r")),
)


def rand_isometry(rng, rows: int, cols: int) -> np.ndarray:
    """A random ``rows x cols`` isometry (orthonormal columns)."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_kraus_lists(rng, shape: Shape) -> list:
    """Kraus operator lists per outcome, normalized to working precision.

    The minimal operators are blocks of one random isometry
    ``H -> K (x) fibers``; an outcome given ``r > n`` operators gets
    ``B = V A`` for a random ``r x n`` isometry ``V``, which leaves the
    outcome map (and its Choi rank) unchanged.
    """
    total = sum(shape.ranks)
    iso = rand_isometry(rng, shape.dim_out * total, shape.dim_in)
    blocks = iso.reshape(shape.dim_out, total, shape.dim_in)
    lists = []
    offset = 0
    for n, r in zip(shape.ranks, shape.given):
        ops = blocks[:, offset : offset + n, :].transpose(1, 0, 2)  # (n, out, in)
        offset += n
        if r > n:
            mix = rand_isometry(rng, r, n)
            ops = np.tensordot(mix, ops, axes=(1, 0))
        lists.append([np.ascontiguousarray(op) for op in ops])
    return lists


def instrument(inst, shape: Shape, lists):
    """Build a package instrument from per-outcome Kraus lists."""
    outcomes = tuple(
        (label, inst.KrausSet(shape.dim_in, shape.dim_out, tuple(ops)))
        for label, ops in zip(shape.labels, lists)
    )
    return inst.DiscreteInstrument(shape.dim_in, shape.dim_out, outcomes)


def rand_state(rng, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def case_rng(seed: int, workload: str, index: int):
    """Independent stream per (seed, workload, case), stable under reordering."""
    return np.random.default_rng([seed, sum(workload.encode()), index])


@dataclass
class Case:
    """One generated input: the instrument and everything queried on it."""

    shape: Shape
    kraus: list  # per-outcome lists of numpy operators (the oracle's copy)
    value: object  # the package instrument
    states: tuple = ()
    observable: object = None
    partner: object = None  # (Shape, kraus lists, package instrument)


def l2_cases(inst, seed: int) -> list:
    cases = []
    for index, shape in enumerate(L2_SHAPES):
        rng = case_rng(seed, "l2-analysis", index)
        lists = rand_kraus_lists(rng, shape)
        cases.append(Case(shape, lists, instrument(inst, shape, lists)))
    return cases


def _partner(inst, rng, shape: Shape, dim_out: int):
    partner_shape = make_shape(shape.name + "-partner", shape.dim_out, dim_out, (1, 1), labels=("s", "t"))
    lists = rand_kraus_lists(rng, partner_shape)
    return partner_shape, lists, instrument(inst, partner_shape, lists)


def posterior_cases(inst, seed: int) -> list:
    cases = []
    for index, shape in enumerate(POSTERIOR_SHAPES):
        rng = case_rng(seed, "posterior-queries", index)
        lists = rand_kraus_lists(rng, shape)
        # full-rank states and one pure state
        states = tuple(
            rand_state(rng, shape.dim_in, shape.dim_in if k else 1) for k in range(POSTERIOR_STATES)
        )
        cases.append(
            Case(
                shape,
                lists,
                instrument(inst, shape, lists),
                states=states,
                observable=rand_hermitian(rng, shape.dim_out),
                partner=_partner(inst, rng, shape, shape.dim_out),
            )
        )
    return cases


def cli_cases(inst, seed: int) -> list:
    cases = []
    for index, shape in enumerate(CLI_SHAPES):
        rng = case_rng(seed, "cli-documents", index)
        lists = rand_kraus_lists(rng, shape)
        cases.append(
            Case(
                shape,
                lists,
                instrument(inst, shape, lists),
                states=(rand_state(rng, shape.dim_in, shape.dim_in),),
                partner=_partner(inst, rng, shape, max(1, shape.dim_out // 2)),
            )
        )
    return cases


def defect_documents(inst):
    """Inputs whose normalization defect is about 1e-7, independent of --seed.

    Returns ``(case, povm, povm_effects, coefficients)``:
    a slightly over-normalized instrument, a slightly over-normalized POVM
    and a coefficient family selecting an instrument of that POVM.
    """
    rng = np.random.default_rng(DEFECT_SEED)
    shape = make_shape("d4-defect", 4, 4, (2, 2), labels=("a", "b"))
    scale = np.sqrt(1.0 + DEFECT_EXCESS)
    lists = [[op * scale for op in ops] for ops in rand_kraus_lists(rng, shape)]
    case = Case(shape, lists, instrument(inst, shape, lists))

    d = 4
    raw = []
    for _ in range(2):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(g @ g.conj().T)
    values, vectors = np.linalg.eigh(sum(raw))
    inv_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    effects = [(1.0 + DEFECT_EXCESS) * (inv_root @ s @ inv_root) for s in raw]
    effects = [(e + e.conj().T) / 2.0 for e in effects]
    povm = inst.Povm(d, tuple(zip(("e0", "e1"), effects)))
    # each effect is full rank: rows n_i = d, with dim_k * r_i = 2 * 2 = d
    tensors = [rand_isometry(rng, 4, d).T.reshape(d, 2, 2) for _ in range(2)]
    coeffs = inst.CompatCoefficients(2, tuple(zip(("e0", "e1"), tensors)))
    return case, povm, effects, coeffs
