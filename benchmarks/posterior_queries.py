"""posterior-queries: many small instruments (d 2-8) answer queries on fixed-seed states.

Per state: outcome_distribution, posterior_state, conditional_output and
conditional_expectation.  Per instrument: associate_povm,
associate_channel, compose_sequential with a partner, and margins of the
composition.  No call here builds a Choi matrix; Python call overhead, the
repeated validation and the ``apply_*`` loops dominate.
"""

from __future__ import annotations

import numpy as np

import calibration
import inputs
import oracles as o
from harness import Failed, Loop

LARGEST = "d8"
# a call takes a fraction of a millisecond: one block per case (about 5 ms)
YARDSTICK = calibration.Yardstick(calibration.small_numpy, every="case", reach=1)


def setup(inst, seed: int, work) -> dict:
    """Generate the cases and warm up on the first one."""
    state = {"cases": inputs.posterior_cases(inst, seed), "rng": np.random.default_rng([seed, 2])}
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
    firing = [label for label, ops in zip(sh.labels, lists) if ops]
    index = {label: i for i, label in enumerate(sh.labels)}

    for k, rho in enumerate(case.states):
        dist = loop.op("outcome_distribution", inst.outcome_distribution, m, rho)
        if not isinstance(dist, Failed):
            loop.check("outcome_distribution", o.require, [lab for lab, _ in dist] == list(sh.labels),
                       "distribution labels")
            loop.check("outcome_distribution", o.check_distribution, [p for _, p in dist], lists, rho, *dims)

        label = firing[k % len(firing)]
        post = loop.op("posterior_state", inst.posterior_state, m, rho, label)
        if not isinstance(post, Failed):
            loop.check("posterior_state", o.check_conditioned, post.state, post.probability,
                       [lists[index[label]]], rho, *dims)

        subset = tuple(firing[(k + j) % len(firing)] for j in range(min(2, len(firing))))
        cond = loop.op("conditional_output", inst.conditional_output, m, rho, subset)
        if not isinstance(cond, Failed):
            loop.check("conditional_output", o.check_conditioned, cond.state, cond.probability,
                       [lists[index[lab]] for lab in subset], rho, *dims)

        expect = loop.op("conditional_expectation", inst.conditional_expectation, m, rho, case.observable)
        if not isinstance(expect, Failed):
            loop.check("conditional_expectation", check_total_expectation, expect, lists, rho,
                       case.observable, firing, dims)

    povm = loop.op("associate_povm", inst.associate_povm, m)
    if not isinstance(povm, Failed):
        for (_, got), expected in zip(povm.effects, o.effects(lists, *dims)):
            loop.check("associate_povm", o.close, got, expected, "associate_povm effect")

    channel = loop.op("associate_channel", inst.associate_channel, m)
    if not isinstance(channel, Failed):
        pooled = [a for ops in lists for a in ops]
        for b in o.random_probes(rng, sh.dim_out, 1):
            loop.check("associate_channel", o.close, o.heis(o.ops_of(channel), b, sh.dim_in),
                       o.heis(pooled, b, sh.dim_in), "associate_channel action")

    partner_shape, partner_lists, partner = case.partner
    joint = loop.op("compose_sequential", inst.compose_sequential, m, partner)
    if not isinstance(joint, Failed):
        loop.check("compose_sequential", o.require, len(joint) == len(sh.labels) * len(partner_shape.labels),
                   "composed outcome count")
        result = loop.op("margins", inst.margins, joint)
        if not isinstance(result, Failed):
            first, second = result
            loop.check("margins", o.check_margins,
                       [e for _, e in first.effects], [e for _, e in second.effects],
                       lists, partner_lists, dims, (partner_shape.dim_out, partner_shape.dim_in))


def check_total_expectation(expect, lists, rho, b, firing, dims) -> None:
    """E[b | i] = tr(A rho A^dag b) / p_i and sum_i p_i E[b | i] = tr(rho M(Omega, b))."""
    dim_out, dim_in = dims
    o.require([lab for lab, _ in expect] == firing, "conditional_expectation labels")
    total = 0.0
    for (label, value), ops in zip(expect, [ops for ops in lists if ops]):
        raw = o.schr(ops, rho, dim_out)
        p = float(np.trace(raw).real)
        o.require(abs(value - np.trace(raw @ b) / p) <= 1e-9 * max(1.0, abs(value)),
                  f"E[b | {label!r}] = {value}")
        total += p * value
    pooled = [a for ops in lists for a in ops]
    expected = np.trace(rho @ o.heis(pooled, b, dim_in))
    o.require(abs(total - expected) <= 1e-9 * max(1.0, abs(expected)), "law of total expectation")
