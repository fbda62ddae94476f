"""cli-documents: ``python -m instrumentum.cli`` over documents written during set-up.

Per document (d = 4, 8, 16): validate, dilate -o, extremal --witness,
model -o, factorize -o, refine -o, choi -o, cp-check, compose -o and
posterior, one child process at a time.  Interpreter start, ``import
instrumentum`` and the JSON codec are most of each call, and the codec both
reads and writes here.

Four control calls run once per round on fixed documents that do not depend
on the seed: ``validate --tol-scale 1000`` and ``refine``/``compat-build``
with the same flag on documents whose normalization defect (about 1e-7)
passes the scaled threshold but not the default one, and ``cp-check`` on a
matrix that is not completely positive.  ``refine`` and ``compat-build``
exit 2 today because ``cli.py`` calls ``refine_rank1`` and
``associate_povm`` without the resolved tolerances; they are counted as
failed, and once fixed their outputs go through the same checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import calibration
import inputs
import oracles as o
import tracer
from harness import Failed

LARGEST = "d16"
# Each call is a process whose start, imports and page faults slow down
# with the machine in ways in-process numpy work does not show.
YARDSTICK = calibration.Yardstick(calibration.interpreter_start, every="op", reach=2)
HERE = Path(__file__).resolve().parent


class CliError(Exception):
    pass


def setup(inst, seed: int, work: Path) -> dict:
    """Write the documents and warm up with one child process."""
    docs = []
    for case in inputs.cli_cases(inst, seed):
        name = case.shape.name
        paths = {
            "m": work / f"{name}.json",
            "partner": work / f"{name}-partner.json",
            "rho": work / f"{name}-rho.json",
        }
        inst.save(inst.Document("instrument", case.value), paths["m"])
        inst.save(inst.Document("instrument", case.partner[2]), paths["partner"])
        inst.save(inst.Document("matrix", case.states[0]), paths["rho"])
        docs.append((case, paths))

    defect, povm, effects, coeffs = inputs.defect_documents(inst)
    controls = {
        "defect": defect,
        "effects": effects,
        "m": work / "defect.json",
        "povm": work / "defect-povm.json",
        "coeffs": work / "defect-coeffs.json",
        "notcp": work / "notcp.json",
    }
    inst.save(inst.Document("instrument", defect.value), controls["m"])
    inst.save(inst.Document("povm", povm), controls["povm"])
    inst.save(inst.Document("coefficients", coeffs), controls["coeffs"])
    # Choi matrix of the transpose map on a qubit: Hermitian, eigenvalue -1
    swap = np.eye(4)[[0, 2, 1, 3]].astype(np.complex128)
    inst.save(inst.Document("matrix", swap, meta={"dim_in": 2, "dim_out": 2}), controls["notcp"])
    state = {"docs": docs, "controls": controls, "work": work, "env": child_env(),
             "rng": np.random.default_rng([seed, 3]), "trace": None, "import_seconds": []}
    run_cli(state, ["validate", str(docs[0][1]["m"])], {0})
    return state


def start_tracing(state: dict) -> None:
    """Send later child processes through the traced launcher."""
    state["trace"] = state["work"] / "spans.npz"
    state["env"] = dict(state["env"], BENCH_TRACE_OUT=str(state["trace"]))


def one_round(inst, state: dict):
    def body(loop):
        for case, paths in state["docs"]:
            loop.case(f"d{case.shape.dim_in}", run_case, inst, state, case, paths)
        loop.case("controls", run_controls, inst, state)

    return body


def run_cli(state: dict, argv: list, ok_codes: set):
    """One child process and its JSON report; raises CliError on an unexpected exit code."""
    if state["trace"] is None:
        cmd = [sys.executable, "-m", "instrumentum.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_launcher.py"), *argv]
    proc = subprocess.run(cmd, env=state["env"], cwd=state["work"], capture_output=True, text=True,
                          timeout=120)
    if proc.returncode not in ok_codes:
        raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout) if proc.stdout.strip() else None


def cli_op(loop, state: dict, name: str, argv: list, ok_codes=frozenset({0})):
    for flag, path in zip(argv, argv[1:]):
        if flag in ("-o", "--witness") and os.path.exists(path):
            os.remove(path)  # a stale output must not pass this call's checks
    result = loop.op(name, run_cli, state, argv, ok_codes)
    trace_file = state["trace"]
    if trace_file is not None and trace_file.exists():
        spans = tracer.load_spans(trace_file)
        loop.tracer.absorb(spans, parent=loop.last_span)
        state["import_seconds"].append(float(spans["import_seconds"]))
        trace_file.unlink()
    return result


def label_arg(label) -> str:
    return json.dumps(label) if not isinstance(label, str) else label


def reload(inst, path):
    """Load a written document, and check that save -> load -> save keeps its bytes."""
    doc = inst.load(path)
    again = Path(str(path) + ".again")
    inst.save(doc, again)
    same = again.read_bytes() == Path(path).read_bytes()
    again.unlink()
    o.require(same, f"{Path(path).name}: save -> load -> save changed the bytes")
    return doc.value


def json_label(label):
    return [json_label(x) for x in label] if isinstance(label, tuple) else label


def from_json_label(node):
    return tuple(from_json_label(x) for x in node) if isinstance(node, list) else node


def kraus_lists_of(doc_value) -> list:
    return [o.ops_of(k) for _, k in doc_value.outcomes]


def step(loop, state, name: str, argv: list, check, *args, ok_codes=frozenset({0})):
    """One CLI operation, then ``check(report, *args)``; returns what the check returns."""
    report = cli_op(loop, state, name, argv, ok_codes)
    if isinstance(report, Failed):
        return None
    return loop.check(name, check, report, *args)


def run_case(loop, inst, state, case, paths) -> None:
    sh = case.shape
    m = str(paths["m"])
    out = {key: m.replace(".json", f"-{key}.out.json")
           for key in ("dil", "witness", "model", "roots", "refined", "choi", "joint")}
    firing = [label for label, ops in zip(sh.labels, case.kraus) if ops]
    rng = state["rng"]

    step(loop, state, "validate", ["validate", m], check_validate, case.kraus, sh)
    dil_lists = step(loop, state, "dilate", ["dilate", m, "-o", out["dil"]],
                     check_dilate, inst, out["dil"], case, rng)
    oracle = o.extremal_oracle(case.kraus, sh.dim_out, sh.dim_in)
    step(loop, state, "extremal", ["extremal", m, "--witness", out["witness"]],
         check_extremal, inst, out["witness"], case, oracle, dil_lists,
         ok_codes={2} if oracle[0] == oracle[1] else {0})
    step(loop, state, "model", ["model", m, "-o", out["model"]], check_model, inst, out["model"], case)
    subset = firing[:2]
    step(loop, state, "factorize",
         ["factorize", m, "--subset", ",".join(label_arg(x) for x in subset), "-o", out["roots"]],
         check_factorize, inst, out["roots"], case, subset, rng)
    step(loop, state, "refine", ["refine", m, "-o", out["refined"]],
         check_refine, inst, out["refined"], case.kraus, sh)
    step(loop, state, "choi", ["choi", m, "-o", out["choi"]], check_choi, inst, out["choi"], case)
    step(loop, state, "cp-check", ["cp-check", out["choi"]], check_cp, sh)
    step(loop, state, "compose", ["compose", m, str(paths["partner"]), "-o", out["joint"]],
         check_compose, inst, out["joint"], case)
    step(loop, state, "posterior",
         ["posterior", m, "--state", str(paths["rho"]), "--outcome", label_arg(firing[-1])],
         check_posterior, case, firing[-1])


def run_controls(loop, inst, state) -> None:
    c = state["controls"]
    defect = c["defect"]
    m = str(c["m"])
    refined = m.replace(".json", "-refined.out.json")
    built = m.replace(".json", "-built.out.json")
    step(loop, state, "validate", ["validate", "--tol-scale", "1000", m],
         check_validate, defect.kraus, defect.shape)
    step(loop, state, "refine", ["refine", "--tol-scale", "1000", m, "-o", refined],
         check_refine, inst, refined, defect.kraus, defect.shape)
    step(loop, state, "compat-build",
         ["compat-build", "--tol-scale", "1000", str(c["povm"]), str(c["coeffs"]), "-o", built],
         check_built, inst, built, c["effects"])
    step(loop, state, "cp-check", ["cp-check", str(c["notcp"])], check_not_cp, ok_codes={2})


# -- checks on CLI output: (report, ...) -------------------------------------


def check_validate(report, lists, sh) -> None:
    expected = o.normalization_defect(lists, sh.dim_out, sh.dim_in)
    o.require(report["passed"] is True, f"validate {report}")
    o.require(abs(report["normalization_defect"] - expected) <= 1e-12 + 1e-6 * expected,
              f"defect {report['normalization_defect']} vs {expected}")
    o.require([x["kraus_count"] for x in report["outcomes"]] == list(sh.given), "kraus counts")


def check_dilate(report, inst, path, case, rng) -> list:
    """Returns the Kraus sets of the written dilation, per outcome."""
    sh = case.shape
    ranks = [o.choi_rank(ops, sh.dim_out, sh.dim_in) for ops in case.kraus]
    o.require(report["passed"] is True, f"dilate {report}")
    o.require([x["block_dim"] for x in report["outcomes"]] == ranks, "block dims")
    o.require([x["span_rank"] for x in report["outcomes"]] == ranks, "span ranks")
    dil = reload(inst, path)
    o.check_dilation(dil.isometry, dil.block_dims, case.kraus, sh.dim_out, sh.dim_in, rng)
    blocks = dil.isometry.reshape(sh.dim_out, sum(dil.block_dims), sh.dim_in)
    offsets = np.cumsum((0,) + dil.block_dims)
    return [[blocks[:, f, :] for f in range(offsets[i], offsets[i + 1])]
            for i in range(len(dil.block_dims))]


def check_extremal(report, inst, path, case, oracle, dil_lists) -> None:
    """Verdict against the oracle; a written witness splits the dilation's Kraus sets."""
    sh = case.shape
    span, required = oracle
    got = (report["is_extreme"], report["span_rank"], report["required_rank"])
    o.require(got == (span == required, span, required), f"extremal {got} vs oracle {oracle}")
    o.require(sh.can_be_extreme or not report["is_extreme"], "sum n_i^2 > d^2 reported extreme")
    if report["is_extreme"]:
        o.require(not os.path.exists(path), "witness written for extreme input")
        return
    o.require(dil_lists is not None, "no dilation to check the witness against")
    sizes = [x["block_dim"] for x in report["outcomes"]]
    blocks = [np.asarray(matrix)[:n, :n] for (_, matrix), n in zip(reload(inst, path), sizes)]
    o.check_witness_blocks(blocks, sizes)
    plus, minus = o.halves_from_witness(blocks, dil_lists)
    o.check_witness_halves(plus, minus, case.kraus, sh.dim_out, sh.dim_in)


def check_model(report, inst, path, case) -> None:
    sh = case.shape
    ranks = [o.choi_rank(ops, sh.dim_out, sh.dim_in) for ops in case.kraus]
    o.require(report["ancilla_dim"] == sum(ranks), f"model {report}")
    o.require([x["block_dim"] for x in report["outcomes"]] == ranks, f"model {report}")
    model = reload(inst, path)
    realized = o.model_kraus(model.unitary, model.xi, model.block_dims, sh.dim_in)
    o.check_same_maps(realized, case.kraus, sh.dim_out, sh.dim_in, "model")


def check_factorize(report, inst, path, case, subset, rng) -> None:
    sh = case.shape
    o.require(report["passed"] is True, f"factorize {report}")
    o.require(report["subset"] == [json_label(x) for x in subset], f"factorize {report}")
    phi = kraus_lists_of(reload(inst, path))[0]
    index = [sh.labels.index(x) for x in subset]
    o.check_factorization(phi, case.kraus, index, sh.dim_out, sh.dim_in, rng)


def check_refine(report, inst, path, lists, sh) -> None:
    pieces = [(label, o.ops_of(k)) for label, k in reload(inst, path).outcomes]
    o.check_refinement(pieces, lists, sh.labels, sh.dim_out, sh.dim_in)
    o.require([from_json_label(x["label"]) for x in report["outcomes"]] == [lab for lab, _ in pieces],
              "refine labels")


def check_choi(report, inst, path, case) -> None:
    sh = case.shape
    pooled = [a for ops in case.kraus for a in ops]
    o.require(report["rank"] == o.choi_rank(pooled, sh.dim_out, sh.dim_in), f"choi rank {report}")
    o.close(reload(inst, path), o.choi_of(pooled, sh.dim_out, sh.dim_in), "choi matrix")


def check_cp(report, sh) -> None:
    o.require(report["completely_positive"] is True, f"cp-check {report}")
    o.require((report["dim_in"], report["dim_out"]) == (sh.dim_in, sh.dim_out), f"cp-check {report}")


def check_not_cp(report) -> None:
    o.require(report["completely_positive"] is False, f"cp-check {report}")


def check_built(report, inst, path, effects) -> None:
    built = reload(inst, path)
    got = o.effects(kraus_lists_of(built), built.dim_out, built.dim_in)
    for g, e in zip(got, effects):
        o.close(g, e, "built instrument effect")
    o.require(report["povm_defect"] <= 1e-8, f"povm_defect {report['povm_defect']}")


def check_compose(report, inst, path, case) -> None:
    joint = reload(inst, path)
    sh = case.shape
    partner_shape, partner_lists, _ = case.partner
    o.require(report["outcome_count"] == len(sh.labels) * len(partner_shape.labels), "composed outcome count")
    o.require((joint.dim_in, joint.dim_out) == (sh.dim_in, partner_shape.dim_out), "composed dims")
    joint_effects = dict(zip(joint.labels, o.effects(kraus_lists_of(joint), joint.dim_out, joint.dim_in)))
    first = [sum(joint_effects[(a, b)] for b in partner_shape.labels) for a in sh.labels]
    second = [sum(joint_effects[(a, b)] for a in sh.labels) for b in partner_shape.labels]
    o.check_margins(first, second, case.kraus, partner_lists, (sh.dim_out, sh.dim_in),
                    (partner_shape.dim_out, partner_shape.dim_in))


def check_posterior(report, case, label) -> None:
    sh = case.shape
    rho = case.states[0]
    probs = [x["probability"] for x in report["distribution"]]
    o.require([from_json_label(x["label"]) for x in report["distribution"]] == list(sh.labels), "labels")
    o.check_distribution(probs, case.kraus, rho, sh.dim_out, sh.dim_in)
    state = np.array([[complex(*z) for z in row] for row in report["state"]])
    index = sh.labels.index(label)
    o.check_conditioned(state, report["probability"], [case.kraus[index]], rho, sh.dim_out, sh.dim_in)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("INSTRUMENTUM_TOL", None)  # tolerances come from the command line only
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return env
