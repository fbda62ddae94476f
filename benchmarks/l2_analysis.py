"""l2-analysis: the full instrument-level suite on instruments with d from 8 to 24.

Per case: validate, minimal_stinespring + verify_dilation,
instrument_extremal (+ witness_decompose when not extreme), compat_channel,
lueders_factorization, measurement_model + model_intertwiner (square cases)
and refine_rank1.  The Choi eigendecompositions behind the minimal Kraus
sets do most of the work here.
"""

from __future__ import annotations

import numpy as np

import calibration
import inputs
import oracles as o
from harness import Failed, Loop

LARGEST = "d24-square"
YARDSTICK = calibration.Yardstick(calibration.eigh, every="op", reach=2)


def setup(inst, seed: int, work) -> dict:
    """Generate the cases and warm up on the smallest one."""
    state = {"cases": inputs.l2_cases(inst, seed), "rng": np.random.default_rng([seed, 1])}
    run_case(Loop(), inst, state["cases"][0], state["rng"])
    return state


def one_round(inst, state: dict):
    def body(loop):
        for case in state["cases"]:
            loop.case(case.shape.name, run_case, inst, case, state["rng"])

    return body


def run_case(loop, inst, case, rng) -> None:
    m = case.value
    sh = case.shape
    lists = case.kraus
    dims = (sh.dim_out, sh.dim_in)

    report = loop.op("validate", inst.validate, m)
    if not isinstance(report, Failed):
        expected = o.normalization_defect(lists, *dims)
        loop.check("validate", o.require,
                   report.passed and abs(report.normalization_defect - expected) <= 1e-12,
                   f"validate passed={report.passed} defect={report.normalization_defect}")

    dil = loop.op("minimal_stinespring", inst.minimal_stinespring, m)
    if not isinstance(dil, Failed):
        loop.check("minimal_stinespring", o.check_dilation, dil.isometry, dil.block_dims, lists, *dims, rng)
        report = loop.op("verify_dilation", inst.verify_dilation, m, dil)
        if not isinstance(report, Failed):
            loop.check("verify_dilation", o.require,
                       report.passed and report.block_span_ranks == dil.block_dims,
                       f"verify_dilation {report}")

    ext = loop.op("instrument_extremal", inst.instrument_extremal, m)
    if not isinstance(ext, Failed):
        span, required = o.extremal_oracle(lists, *dims)
        got = (ext.span_rank, ext.required_rank, ext.is_extreme)
        loop.check("instrument_extremal", o.require, got == (span, required, span == required),
                   f"extremal {got} vs oracle {(span, required)}")
        if not sh.can_be_extreme:
            loop.check("instrument_extremal", o.require, not ext.is_extreme,
                       "sum n_i^2 > d^2 reported extreme")
        if not ext.is_extreme:
            loop.check("witness", o.check_witness_blocks, ext.witness, ext.block_dims)
            halves = loop.op("witness_decompose", inst.witness_decompose, m, ext.witness)
            if not isinstance(halves, Failed):
                plus, minus = ([o.ops_of(k) for _, k in half.outcomes] for half in halves)
                loop.check("witness_decompose", o.check_witness_halves, plus, minus, lists, *dims)

    dec = loop.op("compat_channel", inst.compat_channel, m)
    if not isinstance(dec, Failed):
        eff_ranks = [o.psd_rank(e) for e in o.effects(lists, *dims)]
        choi_ranks = [o.choi_rank(ops, *dims) for ops in lists]
        loop.check("compat_channel", o.require,
                   dec.passed and list(dec.naimark_dims) == eff_ranks and list(dec.fiber_dims) == choi_ranks,
                   f"compat_channel passed={dec.passed} dims={dec.naimark_dims},{dec.fiber_dims}")
        for t_i, n_i in zip(dec.channels, dec.naimark_dims):
            if t_i is not None:
                loop.check("compat_channel", o.close, o.heis(o.ops_of(t_i), np.eye(sh.dim_out), n_i),
                           np.eye(n_i), "fiber channel unital")

    subset = tuple(label for label, ops in zip(sh.labels, lists) if ops)[:2]
    result = loop.op("lueders_factorization", inst.lueders_factorization, m, subset)
    if not isinstance(result, Failed):
        phi, report = result
        index = [sh.labels.index(label) for label in subset]
        loop.check("lueders_factorization", o.require, report.passed, f"factorization {report}")
        loop.check("lueders_factorization", o.check_factorization, o.ops_of(phi), lists, index, *dims, rng)

    if sh.dim_in == sh.dim_out:
        model = loop.op("measurement_model", inst.measurement_model, m)
        if not isinstance(model, Failed):
            realized = o.model_kraus(model.unitary, model.xi, model.block_dims, sh.dim_in)
            loop.check("measurement_model", o.check_same_maps, realized, lists, *dims, "model")
            result = loop.op("model_intertwiner", inst.model_intertwiner, model, m)
            if not isinstance(result, Failed) and not isinstance(dil, Failed):
                w, report = result
                loop.check("model_intertwiner", o.close, w.conj().T @ w, np.eye(w.shape[1]), "W^dag W")
                d, total = sh.dim_in, sum(dil.block_dims)
                y = dil.isometry.reshape(d, total, d)
                coupled = model.unitary @ np.kron(np.eye(d), model.xi.reshape(-1, 1))
                loop.check("model_intertwiner", o.close, np.einsum("af,sfn->san", w, y),
                           coupled.reshape(d, -1, d), "(I (x) W) Y = U (. (x) xi)")

    refined = loop.op("refine_rank1", inst.refine_rank1, m)
    if not isinstance(refined, Failed):
        pieces = [(label, o.ops_of(k)) for label, k in refined.outcomes]
        loop.check("refine_rank1", o.check_refinement, pieces, lists, sh.labels, *dims)
