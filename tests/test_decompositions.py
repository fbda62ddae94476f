"""Each positive operator is checked and decomposed once per public call.

A given Choi matrix, an effect, an output state and a correlation matrix
each get one ``eigh``, which yields both the positivity verdict and the
minimal factorization; a minimal Kraus set comes from one thin SVD of the
Kraus operators, and no instrument-level operation decomposes a ``(dim_out
* dim_in)``-sided matrix (extremality above Choi's count forms the Choi
blocks of an outcome, for the Gram of its criterion, but decomposes none).
Kraus sets that are minimal by construction are not decomposed again, and a
Kraus set keeps the last minimal cut of each kind with its singular values,
so no later call on it under the same cutoff decomposes or cuts it again
either.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from instrumentum import (
    DiscreteInstrument,
    KrausSet,
    Tolerances,
    action_distance,
    choi,
    compat_channel,
    correlation_extremal,
    instrument_extremal,
    kraus_from_choi,
    lueders,
    lueders_factorization,
    measurement_model,
    minimal_kraus,
    minimal_stinespring,
    model_intertwiner,
    naimark,
    nuclear,
    posterior_state,
    pvm_compat,
    rank1_nuclear_extract,
    refine_rank1,
    standard_model,
    trivial_from_povm,
    verify_dilation,
    witness_decompose,
)
from instrumentum import matkernel
from instrumentum.cpmaps import _choi_columns, _minimal_cut

from conftest import _count_package_calls
from helpers import (
    PAULI,
    basis_pvm,
    full_rank_channel,
    rand_instrument,
    rand_povm,
    rand_state,
    rand_unitary,
    rank1_povm,
    rotate_povm,
)

RNG_SEED = 5


def test_kraus_from_choi_decomposes_once(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (3,))
    c = choi(m.outcome(0))
    decompositions.clear()
    kraus_from_choi(c)
    assert decompositions.number("eigh") == decompositions.number("eigh", (6, 6)) == 1
    assert decompositions.number("eigvalsh") == 0
    assert decompositions.number("require_hermitian") == 1


def test_minimal_kraus_skips_the_hermiticity_check(decompositions):
    k = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (3,)).outcome(0)
    decompositions.clear()
    minimal_kraus(k)
    assert decompositions.number("svd") == decompositions.number("svd", (6, 3)) == 1
    assert decompositions.number("eigh") == decompositions.number("eigvalsh") == 0
    assert decompositions.number("require_hermitian") == 0


def test_action_distance_factors_once(decompositions):
    # 5 operators against a Choi side of 6: the difference itself costs 6^2 * 5 = 180
    # multiply-adds against 900 for the QR core, so it is formed and nothing is decomposed
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (3, 2))
    decompositions.clear()
    action_distance(m.outcome(0), m.outcome(1))
    assert len(decompositions) == 0
    # 3 operators against a Choi side of 24: 1728 against 792, so one QR of the 24 x 3 columns
    m = rand_instrument(np.random.default_rng(RNG_SEED), 6, 4, (2, 1))
    decompositions.clear()
    action_distance(m.outcome(0), m.outcome(1))
    assert decompositions.number("qr") == decompositions.number("qr", (24, 3)) == 1
    assert len(decompositions) == 1


def test_povm_validation_and_factors_are_one_pass(decompositions):
    p = rand_povm(np.random.default_rng(RNG_SEED), 3, 4)
    for build in (trivial_from_povm, naimark):
        decompositions.clear()
        build(p)
        assert decompositions.number("eigh") == decompositions.number("eigh", (3, 3)) == 4
        assert decompositions.number("eigvalsh") == 0


def test_compat_channel_decomposes_each_effect_and_outcome_once(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (2, 1, 2))
    decompositions.clear()
    compat_channel(m)
    assert decompositions.number("eigh") == 0  # no effect is formed and decomposed
    # per outcome, one SVD of its Kraus rows (the Naimark fiber, 3 x rows) and one of
    # its Kraus stack (6 x operators)
    shapes = [np.shape(a) for name, a, _ in decompositions if name == "svd"]
    assert shapes == [(3, 4), (6, 2), (3, 2), (6, 1), (3, 4), (6, 2)]
    assert decompositions.number("eigvalsh") == 0


def test_lueders_factorization_adds_one_svd_to_compat_channel(decompositions):
    # on fresh, equal instruments: a second call reuses what the first kept
    first, second = (
        rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (2, 1, 2)) for _ in range(2)
    )
    decompositions.clear()
    compat_channel(first)
    compat_svds = decompositions.number("svd")
    decompositions.clear()
    lueders_factorization(second, (0, 2))
    assert decompositions.number("svd") == compat_svds + 1  # of the subset-masked fibers
    assert decompositions.number("eigh") == decompositions.number("eigvalsh") == 0
    assert decompositions.number("require_hermitian") == 0
    assert decompositions.number("isometry_complete") == 0


def test_effects_of_an_instrument_are_not_rechecked():
    # the rank-deficient effects of this instrument have eigenvalues near
    # -1e-16, below -eps_psd; they are positive by construction, so the
    # factorization of the instrument's own POVM may not reject them
    m = rand_instrument(np.random.default_rng(0), 4, 2, (1, 1, 2))
    tol = Tolerances(eps_psd=1e-300)
    assert compat_channel(m, tol).passed
    assert lueders_factorization(m, None, tol)[1].passed


def test_nuclear_checks_and_decomposes_effects_and_states_once(decompositions):
    rng = np.random.default_rng(RNG_SEED)
    p = rand_povm(rng, 3, 2)
    states = [rand_state(rng, 2), rand_state(rng, 2, 1)]
    decompositions.clear()
    nuclear(p, states)
    assert decompositions.number("eigh") == 4
    assert decompositions.number("eigh", (3, 3)) == decompositions.number("eigh", (2, 2)) == 2
    assert decompositions.number("require_hermitian") == 4
    assert decompositions.number("eigvalsh") == 0


def test_correlation_extremal_decomposes_its_input_once(decompositions):
    g = np.random.default_rng(RNG_SEED).standard_normal((4, 3)) + 0j
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    c = g @ g.T
    decompositions.clear()
    correlation_extremal(c)
    assert decompositions.number("require_hermitian") == 1
    assert decompositions.number("eigh") == decompositions.number("eigh", (4, 4)) == 1
    assert decompositions.number("svd", (4, 4)) == 0
    assert decompositions.number("eigvalsh", (4, 4)) == 0


def test_full_rank_extremal_takes_no_svd_of_its_criterion(decompositions):
    # 4096 criterion columns against 64 rows: full span rank is certified from the Gram,
    # so the one SVD is the minimal Kraus set's, and the witness columns' kernel vector
    # comes from one solve of their leading 64 x 64 block, with no QR
    m = full_rank_channel(8)
    decompositions.clear()
    instrument_extremal(m)
    assert decompositions.number("svd") == decompositions.number("svd", (64, 64)) == 1
    assert decompositions.number("qr") == 0
    assert decompositions.number("solve") == decompositions.number("solve", (64, 64)) == 1
    decompositions.clear()
    instrument_extremal(m)  # the minimal Kraus set is kept
    assert decompositions.number("svd") == 0


def test_standard_model_decomposes_each_operator_once(decompositions):
    a_op = np.diag([0.0, 1.0, 2.0, 1.0])
    standard_model(a_op, PAULI["Y"], 0.4, np.array([1.0, 0.0]), ((0,), (1,)))
    assert decompositions.number("eigh") == 2
    assert decompositions.number("eigh", (4, 4)) == decompositions.number("eigh", (2, 2)) == 1


def test_posterior_state_checks_the_state_once(decompositions):
    m = rand_instrument(np.random.default_rng(RNG_SEED), 3, 2, (2, 1))
    rho = rand_state(np.random.default_rng(RNG_SEED + 1), 3)
    decompositions.clear()
    posterior_state(m, rho, 0)
    assert decompositions.number("require_hermitian") == 1
    assert decompositions.number("eigvalsh") == 1


def test_lueders_checks_each_effect_once_and_decomposes_none(decompositions):
    p = basis_pvm(4, ((0,), (1, 2), (3,)))
    decompositions.clear()
    lueders(p)
    assert decompositions.number("require_hermitian") == 3
    assert decompositions.number("eigh") == decompositions.number("eigvalsh") == 0


def _unitary_mixture(rng, d, outcomes, per_outcome):
    """Kraus operators ``U / sqrt(n)`` for ``n`` random unitaries: not extreme."""
    n = outcomes * per_outcome
    ops = [rand_unitary(rng, d) / np.sqrt(n) for _ in range(n)]
    return DiscreteInstrument(
        d,
        d,
        tuple(
            (i, KrausSet(d, d, ops[i * per_outcome : (i + 1) * per_outcome]))
            for i in range(outcomes)
        ),
    )


L2_OPERATIONS = (
    "minimal_stinespring",
    "verify_dilation",
    "instrument_extremal",
    "witness_decompose",
    "compat_channel",
    "lueders_factorization",
    "measurement_model",
    "model_intertwiner",
    "refine_rank1",
)


def _l2_calls(m, mixture):
    """Each operation of ``L2_OPERATIONS`` as a call; the inputs one needs from another are made here."""
    dilation = minimal_stinespring(m)
    model = measurement_model(m)
    witness = instrument_extremal(mixture).witness
    assert witness is not None
    return {
        "minimal_stinespring": lambda: minimal_stinespring(m),
        "verify_dilation": lambda: verify_dilation(m, dilation),
        "instrument_extremal": lambda: instrument_extremal(m),
        "witness_decompose": lambda: witness_decompose(mixture, witness),
        "compat_channel": lambda: compat_channel(m),
        "lueders_factorization": lambda: lueders_factorization(m),
        "measurement_model": lambda: measurement_model(m),
        "model_intertwiner": lambda: model_intertwiner(model, m),
        "refine_rank1": lambda: refine_rank1(m),
    }


@pytest.mark.parametrize("name", L2_OPERATIONS)
def test_no_choi_sided_decomposition(decompositions, name):
    """A 6 -> 6 instrument: no eigendecomposition or SVD factor of side 6 * 6 = 36."""
    rng = np.random.default_rng(RNG_SEED)
    m = rand_instrument(rng, 6, 6, (2, 2, 2))
    call = _l2_calls(m, _unitary_mixture(rng, 6, 3, 2))[name]
    decompositions.clear()
    call()
    assert decompositions.number("eigh", (36, 36)) == 0
    assert decompositions.number("eigvalsh", (36, 36)) == 0
    sided = [
        np.shape(a)
        for n, a, out in decompositions
        if n in ("svd", "qr") and any(np.shape(part) == (36, 36) for part in out)
    ]
    # the model's unitary acts on system (x) ancilla, 6 * 6 = 36 sided here as well, but
    # measurement_model keeps the raw QR of the 36 x 6 dilation isometry, (6, 36) reflectors,
    # and forms that unitary only when it is read
    assert sided == []


def _checked_calls(rng, d):
    """Calls on ``d``-dimensional instruments of each operation that checks its result map by map.

    Each entry is the call and the number of Kraus stacks its check factors:
    one per outcome, two for the two-sided check of ``pvm_compat``.
    """
    m = rand_instrument(rng, d, d, (2, 1, 2))
    dilation = minimal_stinespring(m)
    mixture = _unitary_mixture(rng, d, 3, 2)
    witness = instrument_extremal(mixture).witness
    blocks = tuple(tuple(int(i) for i in block) for block in np.array_split(np.arange(d), 3))
    pvm_instrument = lueders(rotate_povm(basis_pvm(d, blocks), rand_unitary(rng, d)))
    p = rank1_povm(rng, d, d)
    states = [rand_state(rng, d, 1), rand_state(rng, d, 3), rand_state(rng, d, 2)]
    nuclear_instrument = nuclear(p, (states * d)[:d])
    return {
        "verify_dilation": (lambda: verify_dilation(m, dilation), 3),
        "measurement_model": (lambda: measurement_model(m), 3),
        "compat_channel": (lambda: compat_channel(m), 3),
        "witness_decompose": (lambda: witness_decompose(mixture, witness), 3),
        "pvm_compat": (lambda: pvm_compat(pvm_instrument), 6),
        "rank1_nuclear_extract": (lambda: rank1_nuclear_extract(nuclear_instrument), d),
    }


CHECKED_OPERATIONS = [
    "verify_dilation",
    "measurement_model",
    "compat_channel",
    "witness_decompose",
    "pvm_compat",
    "rank1_nuclear_extract",
]


def _check_qrs(name, d, decompositions):
    """The shapes of the check's QRs, of Choi columns ``d * d`` long, after asserting that
    every QR is 2-D and that the only other one is the model's raw QR of its ``d * 5 x d``
    isometry."""
    shapes = [np.shape(a) for n, a, _ in decompositions if n == "qr"]
    assert all(len(shape) == 2 for shape in shapes)
    others = [shape for shape in shapes if shape[0] != d * d]
    assert others == ([(d * 5, d)] if name == "measurement_model" else [])
    return [shape for shape in shapes if shape[0] == d * d]


@pytest.mark.parametrize("name", CHECKED_OPERATIONS)
def test_a_map_difference_check_is_one_qr(decompositions, name):
    """At d = 8 (a Choi side of 64 against at most 8 columns a pair) the QR core costs less
    than forming the differences: one QR a factored side of each outcome's pair, two for
    the two-sided check."""
    call, sides = _checked_calls(np.random.default_rng(RNG_SEED), 8)[name]
    decompositions.clear()
    call()
    assert len(_check_qrs(name, 8, decompositions)) == sides


@pytest.mark.parametrize("name", CHECKED_OPERATIONS)
def test_a_small_map_difference_check_forms_its_wider_pairs(decompositions, name):
    """At d = 3 (a Choi side of 9) forming a difference costs less than the QR core for every
    pair but one of width 2 (a one-operator outcome against one operator: 9^2 * 2 = 162
    multiply-adds against 156), which only the two-sided and the witness checks lack."""
    call, _ = _checked_calls(np.random.default_rng(RNG_SEED), 3)[name]
    decompositions.clear()
    call()
    narrow = 0 if name in ("witness_decompose", "pvm_compat") else 1
    assert _check_qrs(name, 3, decompositions) == [(9, 2)] * narrow


KEPT_OPERATIONS = {
    "minimal_stinespring": minimal_stinespring,
    "verify_dilation": None,  # takes a dilation, made in _kept_case
    "instrument_extremal": instrument_extremal,
    "witness_decompose": None,  # takes a witness, made in _kept_case
    "compat_channel": compat_channel,
    "lueders_factorization": lueders_factorization,
    "measurement_model": measurement_model,
    "model_intertwiner": None,  # takes a model, made in _kept_case
    "refine_rank1": refine_rank1,
}


def _kept_case(name):
    """A maker of fresh, equal 3 -> 3 instruments for operation ``name``, and the call on one.

    The dilation, witness or model an operation takes is made from an equal
    instrument, not the one called.
    """
    if name == "witness_decompose":

        def make():
            return _unitary_mixture(np.random.default_rng(RNG_SEED), 3, 3, 2)

        witness = instrument_extremal(make()).witness
        return make, lambda m: witness_decompose(m, witness)

    def make():
        return rand_instrument(np.random.default_rng(RNG_SEED), 3, 3, (2, 1, 2))

    if name == "verify_dilation":
        dilation = minimal_stinespring(make())
        return make, lambda m: verify_dilation(m, dilation)
    if name == "model_intertwiner":
        model = measurement_model(make())
        return make, lambda m: model_intertwiner(model, m)
    return make, KEPT_OPERATIONS[name]


def test_kept_cases_cover_every_l2_operation():
    assert sorted(KEPT_OPERATIONS) == sorted(L2_OPERATIONS)


def _kraus_svds(decompositions, m):
    """The SVDs logged of the Choi columns or the conjugated rows of a Kraus set of ``m``."""
    shapes = set()
    for _, kraus in m.outcomes:
        shapes |= {(m.dim_out * m.dim_in, len(kraus)), (m.dim_in, len(kraus) * m.dim_out)}
    return sum(decompositions.number("svd", shape) for shape in shapes)


def _leaves(value) -> list:
    """Every array and scalar inside a returned value, in a fixed order."""
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in _leaves(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [x for part in value for x in _leaves(part)]
    return [value]


def _same_bytes(a, b) -> bool:
    """Whether two returned values hold the same arrays, bit for bit, and the same scalars."""
    left, right = _leaves(a), _leaves(b)
    return len(left) == len(right) and all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        if isinstance(x, np.ndarray)
        else type(x) is type(y) and repr(x) == repr(y)
        for x, y in zip(left, right)
    )


@pytest.mark.parametrize(
    "name", sorted(set(KEPT_OPERATIONS) - {"verify_dilation"})  # it decomposes no Kraus set
)
def test_a_second_call_decomposes_no_kraus_set_again(monkeypatch, decompositions, name):
    _count_package_calls(monkeypatch, decompositions, matkernel, ("_fix_phases",))
    make, call = _kept_case(name)
    m = make()
    decompositions.clear()
    call(m)
    assert _kraus_svds(decompositions, m) > 0
    decompositions.clear()
    call(m)
    assert _kraus_svds(decompositions, m) == 0
    # no minimal set is cut again: the only phases fixed are those of the call's own
    # eigendecompositions, one of each witness block D(i), which factors both I +- D(i)
    assert decompositions.number("_fix_phases") == decompositions.number("eigh")
    assert decompositions.number("eigh") == (3 if name == "witness_decompose" else 0)


@pytest.mark.parametrize("name", sorted(KEPT_OPERATIONS))
def test_first_second_and_fresh_calls_agree_bit_for_bit(name):
    make, call = _kept_case(name)
    m = make()
    first, second, fresh = call(m), call(m), call(make())
    assert _same_bytes(first, second)
    assert _same_bytes(first, fresh)


def _tolerance_pair_case():
    """A Kraus set whose Choi columns and Kraus rows each have two singular values.

    Their squares are about 1 and 1e-8 apart, so ``sv_rel_cutoff`` 1e-10
    keeps both and 1e-6 cuts the second.
    """
    return KrausSet(2, 2, (np.diag([1.0, 1e-4]), np.diag([1e-4, -1.0]) * 1e-4))


_FIELDS = {"dim_in", "dim_out", "ops", "stack"}


def _kept_cuts(k) -> dict:
    """The minimal cuts a Kraus set keeps, by kind."""
    return vars(k).get("_cuts", {})


@pytest.mark.parametrize(
    "factor",
    [minimal_kraus, lambda k, tol: _minimal_cut(k, "fiber", tol)[0]],
    ids=["minimal_kraus", "fiber"],
)
def test_each_call_cuts_under_its_own_tolerances(factor):
    keep, cut = Tolerances(), Tolerances(sv_rel_cutoff=1e-6)
    fresh = {tol: factor(_tolerance_pair_case(), tol) for tol in (keep, cut)}
    assert len(fresh[keep]) == 2 and len(fresh[cut]) == 1
    for order in ((keep, cut), (cut, keep)):
        k = _tolerance_pair_case()
        for tol in order * 3:
            result = factor(k, tol)
            assert _same_bytes(result, fresh[tol])
            assert len(_kept_cuts(k)) == 1  # the last cut only, whatever came before
            # only sv_rel_cutoff enters the cut: a repeat call under it returns the kept object
            assert factor(k, Tolerances(eps_eq=1e-6, sv_rel_cutoff=tol.sv_rel_cutoff)) is result


@pytest.mark.parametrize("empty", [False, True], ids=["nonempty", "empty"])
def test_kept_cuts_are_read_only(empty):
    k = rand_instrument(np.random.default_rng(RNG_SEED), 3, 3, (2,)).outcome(0)
    if empty:
        k = KrausSet(3, 3, ())
    for kept in (minimal_kraus(k).stack, _minimal_cut(k, "fiber", Tolerances())[0]):
        assert not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[...] = 0.0


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda k: pickle.loads(pickle.dumps(k))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_kraus_set_keeps_no_cut(duplicate):
    k = _tolerance_pair_case()
    kept = minimal_kraus(k), _minimal_cut(k, "fiber", Tolerances())[0]
    assert len(_kept_cuts(k)) == 2  # one of each kind
    twin = duplicate(k)
    assert set(vars(twin)) == _FIELDS  # neither the SVDs nor the cuts
    again = minimal_kraus(twin), _minimal_cut(twin, "fiber", Tolerances())[0]
    assert again[0] is not kept[0] and again[1] is not kept[1]
    assert _same_bytes(again, kept)


def _cut_matrix(k, kind):
    """The matrix a minimal cut of ``kind`` decomposes: Choi columns or conjugated Kraus rows."""
    return _choi_columns(k.stack) if kind == "minimal" else k.stack.reshape(-1, k.dim_in).conj().T


@pytest.mark.parametrize("kind", ["minimal", "fiber"])
def test_a_kraus_set_keeps_its_cut_and_singular_values_and_no_svd(decompositions, kind):
    k = _tolerance_pair_case()
    shape = _cut_matrix(k, kind).shape
    _, want, _ = np.linalg.svd(_cut_matrix(k, kind), full_matrices=False)
    keep, cut = Tolerances(), Tolerances(sv_rel_cutoff=1e-6)
    for tol, rank in ((keep, 2), (cut, 1), (keep, 2)):  # each a new cutoff for the kept cut
        decompositions.clear()
        value, s = _minimal_cut(k, kind, tol)
        assert decompositions.number("svd") == decompositions.number("svd", shape) == 1
        decompositions.clear()
        again = _minimal_cut(k, kind, tol)
        assert decompositions.number("svd") == 0
        assert again[0] is value and again[1] is s
        assert value is (
            minimal_kraus(k, tol) if kind == "minimal" else _minimal_cut(k, "fiber", tol)[0]
        )
        assert not s.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s[...] = 0.0
        assert s.dtype == want.dtype and s.tobytes() == want[:rank].tobytes()
        assert set(_kept_cuts(k)) == {kind}


def _zero_written(m):
    """``m`` with each empty outcome written as two zero operators instead."""
    zeros = np.zeros((2, m.dim_out, m.dim_in))
    return DiscreteInstrument(
        m.dim_in, m.dim_out, tuple((label, k if len(k) else zeros) for label, k in m.outcomes)
    )


@pytest.mark.parametrize("name", L2_OPERATIONS)
def test_an_all_zero_outcome_gives_what_an_empty_one_does(name):
    # a minimal cut of rank 0 from a non-empty Kraus set, and the empty set's own
    for seed in range(3):
        rng = np.random.default_rng(seed)
        m = rand_instrument(rng, 3, 3, (2, 0, 1))
        ops = [rand_unitary(rng, 3) / np.sqrt(6) for _ in range(6)]
        mixture = DiscreteInstrument(3, 3, ((0, ops[:3]), (1, ()), (2, ops[3:])))
        empty = _l2_calls(m, mixture)[name]()
        zero = _l2_calls(_zero_written(m), _zero_written(mixture))[name]()
        if name == "lueders_factorization":
            # the identity error is read off the QR of the pooled Kraus stack, zeros and all,
            # so it may differ in the last bit
            assert abs(zero[1].max_identity_error - empty[1].max_identity_error) <= 1e-15
            zero, empty = (
                (phi, dataclasses.replace(report, max_identity_error=0.0))
                for phi, report in (zero, empty)
            )
        assert _same_bytes(zero, empty), seed
