"""Command line front end.

Exit codes: 0 when the command succeeds and any checked property holds,
2 when inputs are well formed but a checked property fails (validation
failure, non-extreme under ``--assert-extreme``, not completely positive,
or any domain error), and 1 for malformed input or usage errors.

Reports go to stdout as JSON with a fixed key order, so identical inputs
produce byte-identical output.  Tolerances can be scaled globally through
the ``INSTRUMENTUM_TOL`` environment variable or ``--tol-scale``, and the
individual thresholds overridden with dedicated flags.

Each handler imports the analysis module it calls (``compat``,
``dilation``, ``extremality``, ``posterior``), so a process loads only the
modules its command uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .cpmaps import ChoiMatrix, choi, cp_check
from .errors import FormatError, InstrumentumError
from .formats import Document, _labelled, _parse_label, label_to_json, load, matrix_to_json, save
from .instruments import (
    _LABEL_DEPTH,
    DiscreteInstrument,
    _label_fault,
    _pooled,
    associate_povm,
    compose_sequential,
    refine_rank1,
    validate,
)
from .matkernel import DEFAULT_TOL, Tolerances, _rank

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tol_arguments(parser):
    group = parser.add_argument_group("tolerances")
    group.add_argument("--tol-scale", type=float, metavar="X", help="multiply every default threshold by X")
    group.add_argument("--eps-herm", type=float, metavar="X", help="hermiticity threshold")
    group.add_argument("--eps-psd", type=float, metavar="X", help="positivity threshold")
    group.add_argument("--eps-eq", type=float, metavar="X", help="equality threshold")
    group.add_argument("--sv-rel-cutoff", type=float, metavar="X", help="relative singular value cutoff")


def _resolve_tol(args) -> Tolerances:
    scale = args.tol_scale
    if scale is None:
        raw = os.environ.get("INSTRUMENTUM_TOL")
        if raw is not None:
            try:
                scale = float(raw)
            except ValueError:
                raise _UsageError(f"INSTRUMENTUM_TOL: not a number: {raw!r}")
    tol = DEFAULT_TOL if scale is None else DEFAULT_TOL.scaled(scale)
    overrides = {}
    for name in ("eps_herm", "eps_psd", "eps_eq", "sv_rel_cutoff"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        try:
            tol = replace(tol, **overrides)
        except ValueError as exc:
            raise _UsageError(str(exc))
    return tol


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, allow_nan=False))


def _load_kind(path, kinds) -> Document:
    doc = load(path)
    if doc.kind not in kinds:
        wanted = " or ".join(kinds)
        raise FormatError(f"{path}: expected a {wanted} document, got {doc.kind}")
    return doc


def _parse_cli_label(text: str):
    """A JSON label (an array names a tuple label); any other text is a string label."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        return text
    except RecursionError:  # an array nested deeper than the parser recurses
        raise _UsageError(f"label {text!r}: labels may nest at most {_LABEL_DEPTH} arrays deep")
    if isinstance(raw, list):
        return _parse_label(raw, f"label {text!r}")
    return text if _label_fault(raw, list) else raw


def _split_labels(text: str) -> list:
    """Split ``text`` at the commas outside brackets, so ``[0,1],2`` gives two labels."""
    pieces, depth, start = [], 0, 0
    for i, char in enumerate(text):
        depth += (char == "[") - (char == "]")
        if char == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    return pieces + [text[start:]]


def _parse_subset(text: str) -> tuple:
    labels = tuple(_parse_cli_label(piece) for piece in _split_labels(text) if piece != "")
    if not labels:
        raise _UsageError(f"subset {text!r}: no labels")
    return labels


def _vector_from_doc(doc: Document, path) -> np.ndarray:
    matrix = doc.value
    if matrix.shape[0] == 1 or matrix.shape[1] == 1:
        return np.asarray(matrix).ravel()
    raise FormatError(f"{path}: expected a row or column vector")


def _cmd_validate(args, tol):
    doc = _load_kind(args.file, ("instrument",))
    report = validate(doc.value, tol)
    _emit(
        {
            "command": "validate",
            "passed": report.passed,
            "normalization_defect": report.normalization_defect,
            "threshold": report.threshold,
            "outcomes": _labelled(report.outcome_kraus_counts, "kraus_count"),
        }
    )
    return 0 if report.passed else 2


def _cmd_extremal(args, tol):
    from .extremality import instrument_extremal, povm_extremal

    doc = _load_kind(args.file, ("instrument", "povm"))
    if doc.kind == "povm":
        report = povm_extremal(doc.value, tol)
    else:
        report = instrument_extremal(doc.value, tol)
    out = {
        "command": "extremal",
        "is_extreme": report.is_extreme,
        "span_rank": report.span_rank,
        "required_rank": report.required_rank,
        "marginal": report.marginal,
        "outcomes": _labelled(zip(report.labels, report.block_dims), "block_dim"),
    }
    if report.witness is not None:
        blocks = map(matrix_to_json, report.witness)
        out["witness"] = _labelled(zip(report.labels, blocks), "matrix")
    _emit(out)
    if args.witness is not None:
        if report.witness is None:
            raise InstrumentumError("no witness: the input is extreme")
        # a states document carries a single dimension, so narrower blocks
        # are zero-padded; the true sizes are in the report's block_dim fields
        dim = max(block.shape[0] for block in report.witness)
        padded = []
        for label, block in zip(report.labels, report.witness):
            full = np.zeros((dim, dim), dtype=complex)
            full[: block.shape[0], : block.shape[0]] = block
            padded.append((label, full))
        save(
            Document(kind="states", value=tuple(padded), meta={"dim": dim}),
            args.witness,
        )
    if args.assert_extreme and not report.is_extreme:
        return 2
    return 0


def _cmd_dilate(args, tol):
    from .dilation import minimal_stinespring, verify_dilation

    doc = _load_kind(args.file, ("instrument",))
    dilation = minimal_stinespring(doc.value, tol)
    report = verify_dilation(doc.value, dilation, tol)
    _emit(
        {
            "command": "dilate",
            "passed": report.passed,
            "isometry_defect": report.isometry_defect,
            "max_reconstruction_error": report.max_reconstruction_error,
            "outcomes": _labelled(
                zip(dilation.labels, report.block_dims, report.block_span_ranks),
                "block_dim",
                "span_rank",
            ),
        }
    )
    if args.output is not None:
        save(Document(kind="dilation", value=dilation), args.output)
    return 0 if report.passed else 2


def _cmd_refine(args, tol):
    doc = _load_kind(args.file, ("instrument",))
    refined = refine_rank1(doc.value, tol)
    _emit(
        {
            "command": "refine",
            "dim_in": refined.dim_in,
            "dim_out": refined.dim_out,
            "outcomes": _labelled(
                ((label, len(kraus)) for label, kraus in refined.outcomes), "kraus_count"
            ),
        }
    )
    if args.output is not None:
        save(Document(kind="instrument", value=refined), args.output)
    return 0


def _cmd_posterior(args, tol):
    from .posterior import conditional_output, outcome_distribution, posterior_state

    doc = _load_kind(args.file, ("instrument",))
    state_doc = _load_kind(args.state, ("matrix",))
    m = doc.value
    rho = state_doc.value
    out = {
        "command": "posterior",
        "distribution": _labelled(outcome_distribution(m, rho, tol), "probability"),
    }
    if args.outcome is not None:
        result = posterior_state(m, rho, _parse_cli_label(args.outcome), tol)
        out["outcome"] = label_to_json(result.label)
        out["probability"] = result.probability
        out["state"] = matrix_to_json(result.state)
    elif args.subset is not None:
        result = conditional_output(m, rho, _parse_subset(args.subset), tol)
        out["subset"] = [label_to_json(label) for label in result.label]
        out["probability"] = result.probability
        out["state"] = matrix_to_json(result.state)
    _emit(out)
    return 0


def _cmd_compose(args, tol):
    first = _load_kind(args.first, ("instrument",)).value
    second = _load_kind(args.second, ("instrument",)).value
    composed = compose_sequential(first, second, tol)
    _emit(
        {
            "command": "compose",
            "dim_in": composed.dim_in,
            "dim_out": composed.dim_out,
            "outcome_count": len(composed),
        }
    )
    if args.output is not None:
        save(Document(kind="instrument", value=composed), args.output)
    return 0


def _cmd_compat_build(args, tol):
    from .compat import compat_from_coeffs

    povm = _load_kind(args.povm, ("povm",)).value
    coeffs = _load_kind(args.coefficients, ("coefficients",)).value
    built = compat_from_coeffs(povm, coeffs, tol)
    rebuilt = associate_povm(built, tol)
    defect = max(
        float(np.linalg.norm(rebuilt.effect(label) - povm.effect(label)))
        for label in povm.labels
    )
    _emit(
        {
            "command": "compat-build",
            "dim_in": built.dim_in,
            "dim_out": built.dim_out,
            "povm_defect": defect,
            "outcomes": _labelled(
                ((label, len(kraus)) for label, kraus in built.outcomes), "kraus_count"
            ),
        }
    )
    if args.output is not None:
        save(Document(kind="instrument", value=built), args.output)
    return 0


def _cmd_compat_channel(args, tol):
    from .compat import compat_channel

    doc = _load_kind(args.file, ("instrument",))
    dec = compat_channel(doc.value, tol)
    _emit(
        {
            "command": "compat-channel",
            "passed": dec.passed,
            "max_residual": dec.max_residual,
            "outcomes": _labelled(
                zip(dec.labels, dec.naimark_dims, dec.fiber_dims), "naimark_dim", "fiber_dim"
            ),
        }
    )
    return 0 if dec.passed else 2


def _cmd_factorize(args, tol):
    from .compat import lueders_factorization

    doc = _load_kind(args.file, ("instrument",))
    subset = None if args.subset is None else _parse_subset(args.subset)
    channel, report = lueders_factorization(doc.value, subset, tol)
    _emit(
        {
            "command": "factorize",
            "passed": report.passed,
            "subset": [label_to_json(label) for label in report.subset],
            "max_identity_error": report.max_identity_error,
            "unit_defect": report.unit_defect,
            "kraus_count": len(channel.ops),
        }
    )
    if args.output is not None:
        single = DiscreteInstrument(channel.dim_in, channel.dim_out, ((0, channel),))
        save(Document(kind="instrument", value=single), args.output)
    return 0 if report.passed else 2


def _cmd_nuclear_extract(args, tol):
    from .compat import rank1_nuclear_extract

    doc = _load_kind(args.file, ("instrument",))
    povm, states, report = rank1_nuclear_extract(doc.value, tol)
    _emit(
        {
            "command": "nuclear-extract",
            "passed": report.passed,
            "max_probe_error": report.max_probe_error,
            "rebuild_error": report.rebuild_error,
            "outcomes": _labelled(zip(povm.labels)),
        }
    )
    if args.output is not None:
        save(
            Document(
                kind="states",
                value=tuple(zip(povm.labels, states)),
                meta={"dim": doc.value.dim_out},
            ),
            args.output,
        )
    return 0 if report.passed else 2


def _cmd_model(args, tol):
    from .dilation import measurement_model

    doc = _load_kind(args.file, ("instrument",))
    model = measurement_model(doc.value, xi_index=args.xi_index, tol=tol)
    _emit(
        {
            "command": "model",
            "system_dim": model.system_dim,
            "ancilla_dim": model.ancilla_dim,
            "outcomes": _labelled(zip(model.labels, model.block_dims), "block_dim"),
        }
    )
    if args.output is not None:
        save(Document(kind="model", value=model), args.output)
    return 0


def _parse_pointer(text: str) -> tuple:
    blocks = []
    for piece in text.split(";"):
        indices = tuple(int(x) for x in piece.split(",") if x != "")
        if not indices:
            raise _UsageError(f"pointer {text!r}: empty block")
        blocks.append(indices)
    return tuple(blocks)


def _cmd_standard_model(args, tol):
    from .dilation import standard_model

    a_op = _load_kind(args.a_op, ("matrix",)).value
    b_op = _load_kind(args.b_op, ("matrix",)).value
    xi = _vector_from_doc(_load_kind(args.xi, ("matrix",)), args.xi)
    pointer = _parse_pointer(args.pointer)
    labels = None
    if args.labels is not None:
        labels = tuple(_parse_cli_label(piece) for piece in _split_labels(args.labels))
    povm, kernel, m = standard_model(a_op, b_op, args.coupling, xi, pointer, labels, tol)
    _emit(
        {
            "command": "standard-model",
            "dim": povm.dim,
            "eigenvalues": list(kernel.eigenvalues.tolist()),
            "kernel": [[float(x) for x in row] for row in kernel.matrix],
            "effects": _labelled(
                ((label, matrix_to_json(effect)) for label, effect in povm.effects), "matrix"
            ),
        }
    )
    if args.output is not None:
        save(Document(kind="instrument", value=m), args.output)
    if args.povm_output is not None:
        save(Document(kind="povm", value=povm), args.povm_output)
    return 0


def _cmd_corr_extreme(args, tol):
    from .extremality import correlation_extremal

    doc = _load_kind(args.file, ("matrix",))
    report = correlation_extremal(doc.value, tol)
    out = {
        "command": "corr-extreme",
        "is_extreme": report.is_extreme,
        "gram_rank": report.gram_rank,
        "span_rank": report.span_rank,
        "marginal": report.marginal,
    }
    if report.witness is not None:
        out["witness"] = matrix_to_json(report.witness)
    _emit(out)
    if args.assert_extreme and not report.is_extreme:
        return 2
    return 0


def _cmd_choi(args, tol):
    doc = _load_kind(args.file, ("instrument",))
    m = doc.value
    if args.outcome is not None:
        kraus = m.outcome(_parse_cli_label(args.outcome))
    else:
        kraus = _pooled(m)
    matrix = choi(kraus)
    rank = _rank(matrix.matrix, tol)
    _emit(
        {
            "command": "choi",
            "dim_in": matrix.dim_in,
            "dim_out": matrix.dim_out,
            "rank": rank,
        }
    )
    if args.output is not None:
        save(
            Document(
                kind="matrix",
                value=matrix.matrix,
                meta={"dim_in": matrix.dim_in, "dim_out": matrix.dim_out},
            ),
            args.output,
        )
    return 0


def _infer_choi_dims(matrix, args, meta):
    side = matrix.shape[0]
    dim_in = args.dim_in if args.dim_in is not None else meta.get("dim_in")
    dim_out = args.dim_out if args.dim_out is not None else meta.get("dim_out")
    if dim_in is None and dim_out is None:
        root = int(round(side**0.5))
        if root * root != side:
            raise FormatError(
                f"matrix side {side} is not a perfect square; pass --dim-in/--dim-out"
            )
        return root, root
    if dim_in is None or dim_out is None:
        known = dim_in if dim_in is not None else dim_out
        if known <= 0 or side % known != 0:
            raise FormatError(f"matrix side {side} is not divisible by dimension {known}")
        other = side // known
        return (dim_in, other) if dim_in is not None else (other, dim_out)
    return dim_in, dim_out


def _cmd_cp_check(args, tol):
    doc = _load_kind(args.file, ("matrix",))
    matrix = doc.value
    if matrix.shape[0] != matrix.shape[1]:
        raise FormatError("Choi matrix must be square")
    dim_in, dim_out = _infer_choi_dims(matrix, args, doc.meta)
    if dim_in * dim_out != matrix.shape[0]:
        raise FormatError(
            f"dimensions {dim_in}x{dim_out} do not match matrix side {matrix.shape[0]}"
        )
    result = cp_check(ChoiMatrix(dim_in, dim_out, matrix), tol)
    _emit(
        {
            "command": "cp-check",
            "completely_positive": result,
            "dim_in": dim_in,
            "dim_out": dim_out,
        }
    )
    return 0 if result else 2


_SUBSET_HELP = "comma-separated outcome subset; a tuple label is a JSON array [a,b], e.g. [0,0],[1,1]"


def build_parser() -> _Parser:
    parser = _Parser(prog="instrumentum", description="Quantum instrument toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        _tol_arguments(p)
        p.set_defaults(func=func)
        return p

    p = command("validate", _cmd_validate, "Check that an instrument is normalized.")
    p.add_argument("file", help="instrument document")

    p = command("extremal", _cmd_extremal, "Decide extremality of an instrument or POVM.")
    p.add_argument("file", help="instrument or povm document")
    p.add_argument("--witness", metavar="OUT", help="write the witness blocks when not extreme")
    p.add_argument("--assert-extreme", action="store_true", help="exit 2 when not extreme")

    p = command("dilate", _cmd_dilate, "Build and verify a minimal dilation.")
    p.add_argument("file", help="instrument document")
    p.add_argument("-o", "--output", metavar="OUT", help="write the dilation document")

    p = command("refine", _cmd_refine, "Split every outcome into rank-one pieces.")
    p.add_argument("file", help="instrument document")
    p.add_argument("-o", "--output", metavar="OUT", help="write the refined instrument")

    p = command("posterior", _cmd_posterior, "Outcome distribution and post-measurement states.")
    p.add_argument("file", help="instrument document")
    p.add_argument("--state", required=True, metavar="FILE", help="input state document")
    p.add_argument("--outcome", metavar="LABEL", help="posterior state for one outcome")
    p.add_argument("--subset", metavar="LABELS", help=_SUBSET_HELP)

    p = command("compose", _cmd_compose, "Sequential composition of two instruments.")
    p.add_argument("first", help="first instrument document")
    p.add_argument("second", help="second instrument document")
    p.add_argument("-o", "--output", metavar="OUT", help="write the composed instrument")

    p = command("compat-build", _cmd_compat_build, "Build a compatible instrument from coefficients.")
    p.add_argument("povm", help="povm document")
    p.add_argument("coefficients", help="coefficients document")
    p.add_argument("-o", "--output", metavar="OUT", help="write the built instrument")

    p = command("compat-channel", _cmd_compat_channel, "Decompose outcomes through the associated channel.")
    p.add_argument("file", help="instrument document")

    p = command("factorize", _cmd_factorize, "Factor outcomes through the associated channel.")
    p.add_argument("file", help="instrument document")
    p.add_argument("--subset", metavar="LABELS", help=_SUBSET_HELP)
    p.add_argument("-o", "--output", metavar="OUT", help="write the factor channel as an instrument")

    p = command("nuclear-extract", _cmd_nuclear_extract, "Recover states of a rank-one nuclear instrument.")
    p.add_argument("file", help="instrument document")
    p.add_argument("-o", "--output", metavar="OUT", help="write the recovered states")

    p = command("model", _cmd_model, "Build an indirect measurement model.")
    p.add_argument("file", help="instrument document")
    p.add_argument("--xi-index", type=int, default=0, metavar="N", help="ancilla index of the probe vector")
    p.add_argument("-o", "--output", metavar="OUT", help="write the model document")

    p = command("standard-model", _cmd_standard_model, "Pointer statistics of a standard indirect model.")
    p.add_argument("--a-op", required=True, metavar="FILE", help="system observable document")
    p.add_argument("--b-op", required=True, metavar="FILE", help="probe observable document")
    p.add_argument("--coupling", required=True, type=float, metavar="X", help="coupling strength")
    p.add_argument("--xi", required=True, metavar="FILE", help="probe vector document")
    p.add_argument("--pointer", required=True, metavar="SPEC", help="pointer blocks, e.g. '0,1;2'")
    p.add_argument("--labels", metavar="LABELS", help="comma-separated outcome labels")
    p.add_argument("-o", "--output", metavar="OUT", help="write the realized instrument")
    p.add_argument("--povm-output", metavar="OUT", help="write the pointer POVM")

    p = command("corr-extreme", _cmd_corr_extreme, "Decide extremality of a correlation matrix.")
    p.add_argument("file", help="matrix document")
    p.add_argument("--assert-extreme", action="store_true", help="exit 2 when not extreme")

    p = command("choi", _cmd_choi, "Choi matrix of an outcome or of the full channel.")
    p.add_argument("file", help="instrument document")
    p.add_argument("--outcome", metavar="LABEL", help="restrict to one outcome")
    p.add_argument("-o", "--output", metavar="OUT", help="write the Choi matrix document")

    p = command("cp-check", _cmd_cp_check, "Check complete positivity of a Choi matrix.")
    p.add_argument("file", help="matrix document")
    p.add_argument("--dim-in", type=int, metavar="N", help="input dimension")
    p.add_argument("--dim-out", type=int, metavar="N", help="output dimension")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        tol = _resolve_tol(args)
        return args.func(args, tol)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InstrumentumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
