"""Output checks computed apart from the functions under test.

Everything here is plain numpy on the benchmark's own copy of the Kraus
operators, or a property the method must have.  A check returns nothing
when it holds and raises ``CheckFailed`` with a message when it does not.
The conventions are the package's documented ones: Heisenberg action
``B -> sum A^dag B A``, Choi matrix ``sum w w^dag`` with
``w = conj(vec_row(A))``, and the output-major dilation index
``s * total + fiber``.
"""

from __future__ import annotations

import numpy as np

# Agreement required between a reported matrix and its oracle, relative to
# the oracle's Frobenius norm (and never below an absolute 1e-8).
REL = 1e-8
# Rank rule shared with the package: keep sigma_j^2 > 1e-10 * sigma_0^2.
SV_REL_CUTOFF = 1e-10


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected, what: str, rel: float = REL) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape} != {expected.shape}")
    err = float(np.linalg.norm(actual - expected))
    scale = max(1.0, float(np.linalg.norm(expected)))
    if not err <= rel * scale:
        raise CheckFailed(f"{what}: off by {err:.3e}")


def ops_of(kraus) -> list:
    """Operators of a package KrausSet as plain arrays."""
    return [np.asarray(op) for op in kraus.ops]


def heis(ops, b, dim_in: int) -> np.ndarray:
    out = np.zeros((dim_in, dim_in), dtype=np.complex128)
    for a in ops:
        out += a.conj().T @ b @ a
    return out


def schr(ops, rho, dim_out: int) -> np.ndarray:
    out = np.zeros((dim_out, dim_out), dtype=np.complex128)
    for a in ops:
        out += a @ rho @ a.conj().T
    return out


def stack(ops, dim_out: int, dim_in: int) -> np.ndarray:
    """Columns ``conj(vec_row(A))``, so that the Choi matrix is ``W W^dag``."""
    if not ops:
        return np.zeros((dim_out * dim_in, 0), dtype=np.complex128)
    return np.column_stack([a.conj().reshape(-1) for a in ops])


def choi_of(ops, dim_out: int, dim_in: int) -> np.ndarray:
    w = stack(ops, dim_out, dim_in)
    return w @ w.conj().T


def choi_rank(ops, dim_out: int, dim_in: int) -> int:
    """Choi rank from the singular values of the Kraus stack (Choi's theorem)."""
    if not ops:
        return 0
    s = np.linalg.svd(stack(ops, dim_out, dim_in), compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s**2 > SV_REL_CUTOFF * s[0] ** 2))


def psd_rank(a) -> int:
    values = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    if values.size == 0 or values[-1] <= 0.0:
        return 0
    return int(np.count_nonzero(values > SV_REL_CUTOFF * values[-1]))


def minimal_ops(ops, dim_out: int, dim_in: int) -> list:
    """A minimal Kraus family of the same map, from a thin SVD of the stack."""
    if not ops:
        return []
    u, s, _ = np.linalg.svd(stack(ops, dim_out, dim_in), full_matrices=False)
    keep = s**2 > SV_REL_CUTOFF * s[0] ** 2
    return [(s[j] * u[:, j]).conj().reshape(dim_out, dim_in) for j in np.flatnonzero(keep)]


def normalization_defect(lists, dim_out: int, dim_in: int) -> float:
    """Frobenius norm of ``sum_i M(i, I) - I``."""
    return float(np.linalg.norm(sum(effects(lists, dim_out, dim_in)) - np.eye(dim_in)))


def effects(lists, dim_out: int, dim_in: int) -> list:
    eye = np.eye(dim_out, dtype=np.complex128)
    return [heis(ops, eye, dim_in) for ops in lists]


def extremal_oracle(lists, dim_out: int, dim_in: int) -> tuple:
    """``(span_rank, required_rank)`` of the family ``{A_k(i)^dag A_l(i)}``.

    Both numbers are invariant under the Kraus gauge, so any minimal family
    gives them; the rank rule is the package's ``sv_rel_cutoff * s_0 * max(shape)``.
    """
    cols = []
    for ops in lists:
        minimal = minimal_ops(ops, dim_out, dim_in)
        for a in minimal:
            for b in minimal:
                cols.append((a.conj().T @ b).reshape(-1))
    required = len(cols)
    if not cols:
        return 0, 0
    gram = np.column_stack(cols)
    s = np.linalg.svd(gram, compute_uv=False)
    cut = SV_REL_CUTOFF * float(s[0]) * max(gram.shape)
    return int(np.count_nonzero(s > cut)), required


def random_probes(rng, d: int, count: int = 3) -> list:
    return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)]


def check_dilation(iso, block_dims, lists, dim_out: int, dim_in: int, rng) -> None:
    """Y^dag Y = I, Y^dag (B (x) P_i) Y = sum A^dag B A, block dims = Choi ranks."""
    iso = np.asarray(iso)
    total = sum(block_dims)
    require(iso.shape == (dim_out * total, dim_in), f"isometry shape {iso.shape}")
    close(iso.conj().T @ iso, np.eye(dim_in), "dilation Y^dag Y")
    ranks = [choi_rank(ops, dim_out, dim_in) for ops in lists]
    require(list(block_dims) == ranks, f"block dims {list(block_dims)} != Choi ranks {ranks}")
    blocks = iso.reshape(dim_out, total, dim_in)
    offset = 0
    for n, ops in zip(block_dims, lists):
        z = blocks[:, offset : offset + n, :]
        offset += n
        for b in random_probes(rng, dim_out):
            dilated = np.einsum("st,sfm,tfn->mn", b, z.conj(), z)
            close(dilated, heis(ops, b, dim_in), "Y^dag (B (x) P_i) Y")


def check_witness_halves(plus_lists, minus_lists, lists, dim_out: int, dim_in: int) -> None:
    """Halves are normalized, differ from each other, and average back."""
    eye = np.eye(dim_in)
    for half in (plus_lists, minus_lists):
        total = sum(heis(ops, np.eye(dim_out), dim_in) for ops in half)
        close(total, eye, "witness half normalization")
    differ = 0.0
    for p_ops, m_ops, ops in zip(plus_lists, minus_lists, lists):
        c_plus = choi_of(p_ops, dim_out, dim_in)
        c_minus = choi_of(m_ops, dim_out, dim_in)
        close((c_plus + c_minus) / 2.0, choi_of(ops, dim_out, dim_in), "witness halves average")
        differ = max(differ, float(np.linalg.norm(c_plus - c_minus)))
    require(differ > 1e-6, f"witness halves coincide (distance {differ:.3e})")


def halves_from_witness(witness_blocks, minimal_lists) -> tuple:
    """Split along ``I +- D(i) = S^dag S``, computed here with numpy."""
    plus, minus = [], []
    for block, ops in zip(witness_blocks, minimal_lists):
        for sign, out in ((1.0, plus), (-1.0, minus)):
            if not ops:
                out.append([])
                continue
            values, vectors = np.linalg.eigh(np.eye(len(ops)) + sign * np.asarray(block))
            values = np.clip(values, 0.0, None)
            factor = np.sqrt(values)[:, None] * vectors.conj().T
            out.append(list(np.tensordot(factor, np.stack(ops), axes=(1, 0))))
    return plus, minus


def check_witness_blocks(blocks, block_dims) -> None:
    require(len(blocks) == len(block_dims), "witness block count")
    top = 0.0
    for block, n in zip(blocks, block_dims):
        block = np.asarray(block)
        require(block.shape == (n, n), f"witness block shape {block.shape}, expected {(n, n)}")
        if n:
            close(block, block.conj().T, "witness block Hermitian")
            top = max(top, float(np.max(np.abs(np.linalg.eigvalsh((block + block.conj().T) / 2)))))
    require(abs(top - 1.0) <= 1e-8, f"witness operator norm {top}")


def psd_sqrt(a) -> np.ndarray:
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def check_factorization(phi_ops, lists, subset_index, dim_out: int, dim_in: int, rng) -> None:
    """sqrt(M(X)) Phi(B) sqrt(M(X)) = sum_{i in X} M(i, B), and Phi is unital."""
    eff = effects(lists, dim_out, dim_in)
    root = psd_sqrt(sum(eff[i] for i in subset_index))
    close(heis(phi_ops, np.eye(dim_out), dim_in), np.eye(dim_in), "factor channel unital")
    for b in random_probes(rng, dim_out):
        direct = sum(heis(lists[i], b, dim_in) for i in subset_index)
        close(root @ heis(phi_ops, b, dim_in) @ root, direct, "sqrt(M(X)) Phi(B) sqrt(M(X))")


def model_kraus(unitary, xi, block_dims, d: int) -> list:
    """Kraus lists realized by a model: ``<h_s (x) e_a| U (h_n (x) xi)>``."""
    anc = sum(block_dims)
    u = np.asarray(unitary)
    close(u.conj().T @ u, np.eye(u.shape[0]), "model unitary")
    coupled = u @ np.kron(np.eye(d), np.asarray(xi).reshape(anc, 1))
    coupled = coupled.reshape(d, anc, d)
    lists = []
    offset = 0
    for n in block_dims:
        lists.append([coupled[:, a, :] for a in range(offset, offset + n)])
        offset += n
    return lists


def check_same_maps(got_lists, lists, dim_out: int, dim_in: int, what: str) -> None:
    require(len(got_lists) == len(lists), f"{what}: outcome count")
    for got, ops in zip(got_lists, lists):
        close(choi_of(got, dim_out, dim_in), choi_of(ops, dim_out, dim_in), f"{what} Choi matrix")


def check_refinement(refined, lists, labels, dim_out: int, dim_in: int) -> None:
    """Refined outcomes ``(k, i)`` are rank one and sum back to outcome ``i``."""
    groups = {label: [] for label in labels}
    for label, ops in refined:
        require(isinstance(label, tuple) and len(label) == 2, f"refined label {label!r}")
        require(len(ops) == 1, f"refined outcome {label!r} has {len(ops)} operators")
        groups[label[1]].append(ops[0])
    for label, ops in zip(labels, lists):
        require(len(groups[label]) == choi_rank(ops, dim_out, dim_in), f"pieces of {label!r}")
        close(
            choi_of(groups[label], dim_out, dim_in),
            choi_of(ops, dim_out, dim_in),
            f"refined pieces of {label!r}",
        )


def probabilities(lists, rho, dim_out: int, dim_in: int) -> list:
    return [float(np.trace(rho @ e).real) for e in effects(lists, dim_out, dim_in)]


def check_distribution(reported, lists, rho, dim_out: int, dim_in: int) -> None:
    expected = probabilities(lists, rho, dim_out, dim_in)
    close(np.array(reported), np.array(expected), "outcome probabilities")
    require(abs(sum(reported) - 1.0) <= 1e-9, f"probabilities sum to {sum(reported)}")


def check_conditioned(state, probability, ops_lists, rho, dim_out: int, dim_in: int) -> None:
    """Posterior state is PSD with trace 1 and equals sum A rho A^dag / p."""
    state = np.asarray(state)
    raw = sum(schr(ops, rho, dim_out) for ops in ops_lists)
    weight = float(np.trace(raw).real)
    require(abs(probability - weight) <= 1e-10, f"probability {probability} != {weight}")
    close(state, raw / weight, "posterior state")
    require(abs(np.trace(state).real - 1.0) <= 1e-9, "posterior trace")
    close(state, state.conj().T, "posterior Hermitian")
    low = float(np.linalg.eigvalsh((state + state.conj().T) / 2.0)[0])
    require(low >= -1e-9, f"posterior state has eigenvalue {low:.3e}")


def check_margins(first, second, lists1, lists2, dims1, dims2) -> None:
    """First margin = first POVM; second margin = M1(Omega, E2(j))."""
    (out1, in1), (out2, _) = dims1, dims2
    for got, expected in zip(first, effects(lists1, out1, in1)):
        close(got, expected, "first margin")
    all_ops = [a for ops in lists1 for a in ops]
    for got, e2 in zip(second, effects(lists2, out2, out1)):
        close(got, heis(all_ops, e2, in1), "second margin")
