"""Inputs of full Choi rank and inputs at the count bounds.

Choi (Linear Algebra Appl. 10, 285, 1975, Theorem 5) and Li and Tam (SIAM J.
Matrix Anal. Appl. 15, 903, 1994) bound extreme points by a count: an
instrument with ``sum_i n(i)^2 > dim_in^2`` is never extreme, nor is a
correlation matrix of Gram rank ``r`` with ``r^2 > n``, while generic inputs
at or below the count are.  The seeded corpus of ``helpers`` holds random
channels of full Choi rank at d = 6 to 8 (``d^4`` Kraus products against
``d^2`` dimensions), a random d = 32 channel with 32 Kraus operators (at the
bound) and a full-rank correlation matrix at n = 64.  On each the verdict
follows the count, the span rank is numpy's, a witness splits its subject
into valid, distinct halves, and memory stays within bounds far below those
of a criterion with full singular vectors.  A d = 16 instrument with one
outcome of full Choi rank beside eight of rank one bounds the memory of the
checks that compare all outcomes at once.
"""

import tracemalloc

import numpy as np
import pytest

from instrumentum import (
    KrausSet,
    compat_channel,
    correlation_extremal,
    correlation_witness_split,
    instrument_extremal,
    lueders_factorization,
    measurement_model,
    minimal_stinespring,
    model_intertwiner,
    validate,
    verify_dilation,
    witness_decompose,
)

from helpers import (
    HIGH_RANK_SEED,
    action_distance,
    full_rank_channel,
    full_rank_correlation,
    kraus_action_distance,
    kraus_product_rank,
    projector_rank,
    rand_instrument,
)

# (d, Kraus operators): full Choi rank at d = 6, 7, 8, and generic channels at and below the bound
CHANNELS = ((6, 36), (7, 49), (8, 64), (8, 8), (8, 4), (32, 32))
# (n, Gram rank): full rank at n = 64, and generic matrices at and below the Li-Tam bound
CORRELATIONS = ((64, 64), (64, 8), (64, 5), (16, 16))


@pytest.mark.parametrize("d, kraus", CHANNELS)
def test_channel_verdict_follows_the_count_and_span_rank_is_numpys(d, kraus):
    m = full_rank_channel(d, kraus)
    report = instrument_extremal(m)
    assert report.block_dims == (kraus,)
    assert report.required_rank == kraus * kraus
    assert report.is_extreme == (kraus * kraus <= d * d)
    assert report.span_rank == kraus_product_rank(m) == min(kraus * kraus, d * d)
    assert (report.witness is None) == report.is_extreme


@pytest.mark.parametrize("n, rank", CORRELATIONS)
def test_correlation_verdict_follows_the_count_and_span_rank_is_numpys(n, rank):
    c = full_rank_correlation(n, rank)
    report = correlation_extremal(c)
    assert report.gram_rank == rank
    assert report.is_extreme == (rank * rank <= n)
    assert report.span_rank == projector_rank(c) == min(rank * rank, n)


@pytest.mark.parametrize("d", (6, 7, 8))
def test_full_rank_channel_witness_halves_are_valid_and_distinct(d):
    m = full_rank_channel(d)
    plus, minus = witness_decompose(m, instrument_extremal(m).witness)
    assert validate(plus).passed and validate(minus).passed
    assert action_distance(plus, minus) > 1e-6
    (_, kraus), (_, k_plus), (_, k_minus) = m.outcomes[0], plus.outcomes[0], minus.outcomes[0]
    pooled = np.concatenate([k_plus.stack, k_minus.stack]) / np.sqrt(2.0)
    assert kraus_action_distance(KrausSet(d, d, pooled), kraus) <= 1e-9


def test_full_rank_correlation_witness_halves_are_valid_and_distinct():
    c = full_rank_correlation(64)
    plus, minus = correlation_witness_split(correlation_extremal(c))
    for half in (plus, minus):
        assert np.max(np.abs(np.diag(half) - 1.0)) <= 1e-9
        assert np.linalg.eigvalsh((half + half.conj().T) / 2)[0] >= -1e-9
    assert np.linalg.norm(plus - minus) > 1e-6
    assert np.linalg.norm((plus + minus) / 2 - c) <= 1e-9


# tracemalloc peaks of extremal + witness_decompose on a fresh full-rank channel: 1.3 MiB at
# d = 6 and 3.3 MiB at d = 8 with the real criterion; 76 and 764 MiB with a complex SVD
# that returns every right-singular vector
@pytest.mark.parametrize("d, bound_mib", ((6, 8), (8, 16)))
def test_full_rank_channel_memory_peak(d, bound_mib):
    m = full_rank_channel(d)
    tracemalloc.start()
    try:
        witness_decompose(m, instrument_extremal(m).witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


# tracemalloc peak of instrument_extremal alone on a fresh full-rank channel at d = 10: its
# criterion R (100 x 10^4 reals) is 7.6 MiB, and with more columns than rows only its first
# rows + 1 columns are formed, the span rank coming from a Gram of side d^2 (1.7 MiB peak)
def test_full_rank_extremal_forms_no_whole_criterion():
    m = full_rank_channel(10)
    tracemalloc.start()
    try:
        report = instrument_extremal(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.is_extreme, report.span_rank, report.marginal) == (False, 100, False)
    assert peak <= 4 * 2**20


def _wide_instrument():
    """A d = 16 instrument with one outcome of Choi rank 256 and eight of rank one."""
    rng = np.random.default_rng([HIGH_RANK_SEED, 16, 9])
    return rand_instrument(rng, 16, 16, (256,) + (1,) * 8)


# tracemalloc peaks on the wide instrument: verify_dilation reads 7.0 MiB, as its check forms
# each outcome's 256 x 256 Choi difference in turn (54.0 MiB when the check took a QR core of
# the wide outcome's 512 columns, 55.0 MiB when each outcome was checked by a _difference call
# of its own, 486 MiB with all nine outcomes zero-padded to 512 columns in one stacked QR);
# measurement_model reads 10.2 MiB, as it keeps the raw QR of the 4224 x 16 dilation isometry
# and checks the same way (57.2 MiB with the QR core, 579.6 MiB when it formed the 4224-sided
# unitary and the model copied it, 872.9 MiB when its completion kept a second copy)
@pytest.mark.parametrize("name, bound_mib", (("verify_dilation", 55), ("measurement_model", 60)))
def test_stacked_checks_keep_the_memory_peak(name, bound_mib):
    m = _wide_instrument()
    dilation = minimal_stinespring(m)
    call = {
        "verify_dilation": lambda: verify_dilation(m, dilation),
        "measurement_model": lambda: measurement_model(m),
    }[name]
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if name == "verify_dilation":
        assert result.passed and result.block_span_ranks == (256,) + (1,) * 8
    assert peak <= bound_mib * 2**20


# a full-rank channel at d = 16 has a model of side 16 * 256 = 4096, whose unitary would take
# 256 MiB; the pair builds and checks it from the 4096 x 16 dilation isometry and its
# reflectors, with a tracemalloc peak of 11.1 MiB (58.1 MiB when its realization check took
# the QR core of the 512 Choi columns instead of forming the 256 x 256 difference)
def test_full_rank_model_is_checked_without_its_unitary():
    m = full_rank_channel(16)
    tracemalloc.start()
    try:
        model = measurement_model(m)
        w, report = model_intertwiner(model, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.system_dim * model.ancilla_dim == 4096
    assert "unitary" not in vars(model)
    assert report.passed and w.shape == (256, 256)
    assert np.max(np.abs(w.conj().T @ w - np.eye(256))) <= 1e-12
    assert peak <= 16 * 2**20


# at full Choi rank each map-difference check compares about 2 d^2 Kraus operators against a
# Choi side of d^2, so it forms each difference (d^4 entries) and takes no QR of its core
def test_full_rank_checks_pass(decompositions):
    m = full_rank_channel(12)
    decompositions.clear()
    assert verify_dilation(m, minimal_stinespring(m)).passed
    assert compat_channel(m).passed
    assert lueders_factorization(m)[1].passed
    model = measurement_model(m)
    w, report = model_intertwiner(model, m)
    assert report.passed and w.shape == (144, 144)
    # the only QR is the model's raw QR of its 12 * 144 x 12 dilation isometry
    assert [np.shape(a) for n, a, _ in decompositions if n == "qr"] == [(1728, 12)]
