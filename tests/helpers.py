"""Shared generators and hand oracles for the test suite."""

from unittest import mock

import numpy as np

from instrumentum import (
    DiscreteInstrument,
    FormatError,
    KrausSet,
    Povm,
    apply_heisenberg,
    formats,
    load,
    save,
)


def rand_unitary(rng, d):
    """Haar-ish unitary via QR with the R diagonal made positive."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_isometry(rng, rows, cols):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def rand_state(rng, d, rank=None):
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_instrument(rng, dim_in, dim_out, fibers, labels=None):
    """A valid instrument with requested per-outcome Kraus counts.

    The operators are cut out of a random isometry from the input space into
    output (x) fibers, so normalization holds exactly; a zero entry in
    ``fibers`` produces an outcome with an empty Kraus set.
    """
    total = sum(fibers)
    if dim_out * total < dim_in:
        raise ValueError("not enough fibers to carry an isometry")
    iso = rand_isometry(rng, dim_out * total, dim_in)
    blocks = iso.reshape(dim_out, total, dim_in)
    if labels is None:
        labels = tuple(range(len(fibers)))
    outcomes = []
    offset = 0
    for label, n_i in zip(labels, fibers):
        ops = tuple(blocks[:, offset + k, :] for k in range(n_i))
        outcomes.append((label, KrausSet(dim_in, dim_out, ops)))
        offset += n_i
    return DiscreteInstrument(dim_in, dim_out, tuple(outcomes))


def near_cut_instrument(seed, lam):
    """A 3 x 3 two-outcome instrument whose first effect has eigenvalues 1, ``lam`` and 0.

    ``A0 = V diag(1, sqrt(lam), 0) U`` and ``A1 = diag(0, sqrt(1 - lam), 1) U``
    with ``U``, then ``V``, drawn from ``default_rng(seed)``; for ``lam`` above
    the default ``sv_rel_cutoff`` every effect keeps its small eigenvalue.
    """
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, 3)
    v = rand_unitary(rng, 3)
    a0 = v @ np.diag([1.0, np.sqrt(lam), 0.0]) @ u
    a1 = np.diag([0.0, np.sqrt(1.0 - lam), 1.0]) @ u
    return DiscreteInstrument(3, 3, ((0, KrausSet(3, 3, [a0])), (1, KrausSet(3, 3, [a1]))))


HIGH_RANK_SEED = 20261019


def full_rank_channel(d, kraus=None):
    """A random channel on ``C^d`` with ``kraus`` Kraus operators, by default ``d^2`` (full Choi rank).

    The operators are cut out of a random isometry seeded by ``d`` and
    ``kraus``; generically they are minimal whenever ``kraus <= d^2``.
    """
    kraus = d * d if kraus is None else kraus
    return rand_instrument(np.random.default_rng([HIGH_RANK_SEED, d, kraus]), d, d, (kraus,))


def full_rank_correlation(n, rank=None):
    """A random unit-diagonal PSD ``n x n`` matrix of Gram rank ``rank``, ``n`` by default."""
    rank = n if rank is None else rank
    rng = np.random.default_rng([HIGH_RANK_SEED, n, rank])
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ g.conj().T


def kraus_product_rank(m):
    """numpy's rank of the columns ``vec(A_k(i)^dag A_l(i))`` over every outcome and pair."""
    columns = [
        (kraus.stack.conj().swapaxes(1, 2)[:, None] @ kraus.stack[None]).reshape(-1, m.dim_in**2)
        for _, kraus in m.outcomes
    ]
    return int(np.linalg.matrix_rank(np.concatenate(columns).T))


def projector_rank(c):
    """numpy's rank of the rows ``vec(|m_i><m_i|)``, Gram vectors ``m_i`` of ``c`` from ``eigh``."""
    values, vectors = np.linalg.eigh(c)
    keep = values > 1e-10 * values[-1]
    gram = vectors[:, keep] * np.sqrt(values[keep])  # row i = m_i
    projectors = gram[:, :, None] * gram.conj()[:, None, :]
    return int(np.linalg.matrix_rank(projectors.reshape(len(c), -1)))


def rand_povm(rng, d, n, labels=None):
    """A full-rank-free random POVM via the symmetrized normalization trick."""
    raw = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    values, vectors = np.linalg.eigh(total)
    inv_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    if labels is None:
        labels = tuple(range(n))
    return Povm(d, tuple((lab, inv_root @ s @ inv_root) for lab, s in zip(labels, raw)))


def rank1_povm(rng, d, n, labels=None):
    """A POVM of ``n >= d`` rank-one effects built from isometry rows."""
    iso = rand_isometry(rng, n, d)
    if labels is None:
        labels = tuple(range(n))
    return Povm(d, tuple((lab, np.outer(iso[i].conj(), iso[i])) for i, lab in enumerate(labels)))


def rand_coeffs_tensor(rng, n_i, dim_k, r_i):
    """An ``(n_i, dim_k, r_i)`` tensor with orthonormal rows over ``(s, k)``."""
    if dim_k * r_i < n_i:
        raise ValueError("not enough room for orthonormal rows")
    q = rand_isometry(rng, dim_k * r_i, n_i)
    return q.T.reshape(n_i, dim_k, r_i)


def basis_pvm(d, partition, labels=None):
    """The PVM of coordinate projections onto the index blocks of ``partition``."""
    if labels is None:
        labels = tuple(range(len(partition)))
    effects = []
    for lab, block in zip(labels, partition):
        p = np.zeros((d, d), dtype=np.complex128)
        for i in block:
            p[i, i] = 1.0
        effects.append((lab, p))
    return Povm(d, tuple(effects))


def rotate_povm(p, u):
    return Povm(p.dim, tuple((lab, u @ e @ u.conj().T) for lab, e in p.effects))


def all_partitions(items):
    """Every set partition of ``items``, as tuples of index tuples."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        yield ((first,),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1 :]


PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def depolarizing_kraus():
    """The qubit map ``B -> tr[B] I / 2`` in Heisenberg form."""
    return KrausSet(2, 2, tuple(PAULI[name] / 2.0 for name in ("I", "X", "Y", "Z")))


def matrix_units(d):
    for s in range(d):
        for t in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[s, t] = 1.0
            yield unit


def kraus_action_distance(k1, k2):
    """Largest Frobenius distance of the two Heisenberg actions over matrix units."""
    worst = 0.0
    for unit in matrix_units(k1.dim_out):
        worst = max(worst, np.linalg.norm(apply_heisenberg(k1, unit) - apply_heisenberg(k2, unit)))
    return float(worst)


def action_distance(m1, m2):
    """Largest outcome-map distance between instruments sharing a label order."""
    assert m1.labels == m2.labels
    return max(
        kraus_action_distance(k1, k2)
        for (_, k1), (_, k2) in zip(m1.outcomes, m2.outcomes)
    )


def load_outcome(path):
    """What ``load`` makes of ``path``: the bytes ``save`` writes of its value, or the error."""
    try:
        doc = load(path)
    except FormatError as exc:
        return str(exc)
    again = path.with_name(path.name + ".again")
    save(doc, again)
    return again.read_bytes()


def load_outcomes(path):
    """``load_outcome(path)`` with the one-call array conversion, and with the walk alone."""
    dense = load_outcome(path)
    with mock.patch.object(formats, "_dense", lambda node, ndim: None):
        return dense, load_outcome(path)
