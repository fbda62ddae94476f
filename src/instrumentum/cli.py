"""Command line front end.

Exit codes: 0 when the command succeeds and any checked property holds,
2 when inputs are well formed but a checked property fails (validation
failure, non-extreme under ``--assert-extreme``, not completely positive,
or any domain error), and 1 for malformed input or usage errors.

``main`` loads each input document ``build_parser`` declares, in order,
checks its kind and puts the ``Document`` on ``args`` in place of its path.
Then the handler returns its report, its exit code and the documents it was
asked to write, as ``(path, Document)`` pairs (a ``None`` path is not
written).  ``main`` names the report after the command and prints it to
stdout as JSON with a fixed key order, so identical inputs produce
byte-identical output.  Only then does it write the documents, in order, so
a failed write, or a refused one (``extremal --witness`` on an extreme
input), still leaves the report on stdout.

Tolerances can be scaled globally through the ``INSTRUMENTUM_TOL``
environment variable or ``--tol-scale``, and the individual thresholds
overridden with dedicated flags.

Each handler imports the analysis module it calls (``compat``,
``dilation``, ``extremality``, ``posterior``), so a process loads only the
modules its command uses.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .cpmaps import ChoiMatrix, KrausSet, choi, cp_check
from .errors import FormatError, InstrumentumError
from .formats import Document, _labelled, _parse_label, label_to_json, load, matrix_to_json, save
from .instruments import (
    _LABEL_DEPTH,
    DiscreteInstrument,
    _label_fault,
    _pooled,
    compose_sequential,
    refine_rank1,
    require_valid,
    validate,
)
from .matkernel import DEFAULT_TOL, Tolerances, _rank

__all__ = ["main"]


class _UsageError(Exception):
    pass


# A token that float() reads as a negative number.  argparse's own test takes only "-1" and
# "-.5" for numbers, so "--coupling -1e-3" or "--coupling -inf" would lack their value.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[-+]?\d[\d_]*)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the attribute argparse (3.10 to 3.13) asks whether a token is a negative number
        self._negative_number_matcher = _NEGATIVE_NUMBER

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


def _load_kind(path, kinds, check) -> Document:
    doc = load(path)
    if doc.kind not in kinds:
        wanted = " or ".join(kinds)
        article = "an" if wanted[0] in "aeiou" else "a"
        raise FormatError(f"{path}: expected {article} {wanted} document, got {doc.kind}")
    if check is not None:
        check(doc.value, path)
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


def _require_vector(matrix, path) -> None:  # standard_model takes the probe vector flattened
    if 1 not in matrix.shape:
        raise FormatError(f"{path}: expected a row or column vector")


def _cmd_validate(args, tol):
    report = validate(args.file.value, tol)
    out = {
        "passed": report.passed,
        "normalization_defect": report.normalization_defect,
        "threshold": report.threshold,
        "outcomes": _labelled(report.outcome_kraus_counts, "kraus_count"),
    }
    return out, 0 if report.passed else 2, ()


def _cmd_extremal(args, tol):
    from .extremality import instrument_extremal, povm_extremal

    if args.file.kind == "povm":
        report = povm_extremal(args.file.value, tol)
    else:
        report = instrument_extremal(args.file.value, tol)
    out = {
        "is_extreme": report.is_extreme,
        "span_rank": report.span_rank,
        "required_rank": report.required_rank,
        "marginal": report.marginal,
        "outcomes": _labelled(zip(report.labels, report.block_dims), "block_dim"),
    }
    # main raises this in place of writing a witness, after it prints the report
    witness = InstrumentumError("no witness: the input is extreme")
    if report.witness is not None:
        blocks = map(matrix_to_json, report.witness)
        out["witness"] = _labelled(zip(report.labels, blocks), "matrix")
        # a states document carries a single dimension, so narrower blocks
        # are zero-padded; the true sizes are in the report's block_dim fields
        dim = max(block.shape[0] for block in report.witness)
        padded = []
        for label, block in zip(report.labels, report.witness):
            full = np.zeros((dim, dim), dtype=complex)
            full[: block.shape[0], : block.shape[0]] = block
            padded.append((label, full))
        witness = Document(kind="states", value=tuple(padded), meta={"dim": dim})
    code = 2 if args.assert_extreme and not report.is_extreme else 0
    return out, code, [(args.witness, witness)]


def _cmd_dilate(args, tol):
    from .dilation import minimal_stinespring, verify_dilation

    m = args.file.value
    dilation = minimal_stinespring(m, tol)
    report = verify_dilation(m, dilation, tol)
    out = {
        "passed": report.passed,
        "isometry_defect": report.isometry_defect,
        "max_reconstruction_error": report.max_reconstruction_error,
        "outcomes": _labelled(
            zip(dilation.labels, report.block_dims, report.block_span_ranks),
            "block_dim",
            "span_rank",
        ),
    }
    code = 0 if report.passed else 2
    return out, code, [(args.output, Document(kind="dilation", value=dilation))]


def _cmd_refine(args, tol):
    refined = refine_rank1(args.file.value, tol)
    out = {
        "dim_in": refined.dim_in,
        "dim_out": refined.dim_out,
        "outcomes": _labelled(
            ((label, len(kraus)) for label, kraus in refined.outcomes), "kraus_count"
        ),
    }
    return out, 0, [(args.output, Document(kind="instrument", value=refined))]


def _cmd_posterior(args, tol):
    from .posterior import conditional_output, outcome_distribution, posterior_state

    m, rho = args.file.value, args.state.value
    out = {
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
    return out, 0, ()


def _cmd_compose(args, tol):
    composed = compose_sequential(args.first.value, args.second.value, tol)
    out = {
        "dim_in": composed.dim_in,
        "dim_out": composed.dim_out,
        "outcome_count": len(composed),
    }
    return out, 0, [(args.output, Document(kind="instrument", value=composed))]


def _cmd_compat_build(args, tol):
    from .compat import compat_from_coeffs

    povm = args.povm.value
    built = compat_from_coeffs(povm, args.coefficients.value, tol)  # its labels are the POVM's, in order
    defect = max(
        float(np.linalg.norm(rebuilt - effect))
        for rebuilt, (_, effect) in zip(require_valid(built, tol), povm.effects)
    )
    out = {
        "dim_in": built.dim_in,
        "dim_out": built.dim_out,
        "povm_defect": defect,
        "outcomes": _labelled(
            ((label, len(kraus)) for label, kraus in built.outcomes), "kraus_count"
        ),
    }
    return out, 0, [(args.output, Document(kind="instrument", value=built))]


def _cmd_compat_channel(args, tol):
    from .compat import compat_channel

    dec = compat_channel(args.file.value, tol)
    out = {
        "passed": dec.passed,
        "max_residual": dec.max_residual,
        "outcomes": _labelled(
            zip(dec.labels, dec.naimark_dims, dec.fiber_dims), "naimark_dim", "fiber_dim"
        ),
    }
    return out, 0 if dec.passed else 2, ()


def _cmd_factorize(args, tol):
    from .compat import lueders_factorization

    subset = None if args.subset is None else _parse_subset(args.subset)
    channel, report = lueders_factorization(args.file.value, subset, tol)
    out = {
        "passed": report.passed,
        "subset": [label_to_json(label) for label in report.subset],
        "max_identity_error": report.max_identity_error,
        "unit_defect": report.unit_defect,
        "kraus_count": len(channel.ops),
    }
    single = DiscreteInstrument(channel.dim_in, channel.dim_out, ((0, channel),))
    code = 0 if report.passed else 2
    return out, code, [(args.output, Document(kind="instrument", value=single))]


def _cmd_nuclear_extract(args, tol):
    from .compat import rank1_nuclear_extract

    povm, states, report = rank1_nuclear_extract(args.file.value, tol)
    out = {
        "passed": report.passed,
        "max_probe_error": report.max_probe_error,
        "rebuild_error": report.rebuild_error,
        "outcomes": _labelled(zip(povm.labels)),
    }
    written = Document(
        kind="states",
        value=tuple(zip(povm.labels, states)),
        meta={"dim": args.file.value.dim_out},
    )
    return out, 0 if report.passed else 2, [(args.output, written)]


def _cmd_model(args, tol):
    from .dilation import measurement_model

    model = measurement_model(args.file.value, xi_index=args.xi_index, tol=tol)
    out = {
        "system_dim": model.system_dim,
        "ancilla_dim": model.ancilla_dim,
        "outcomes": _labelled(zip(model.labels, model.block_dims), "block_dim"),
    }
    return out, 0, [(args.output, Document(kind="model", value=model))]


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

    pointer = _parse_pointer(args.pointer)
    labels = None
    if args.labels is not None:
        labels = tuple(_parse_cli_label(piece) for piece in _split_labels(args.labels))
    povm, kernel, m = standard_model(
        args.a_op.value, args.b_op.value, args.coupling, args.xi.value, pointer, labels, tol
    )
    out = {
        "dim": povm.dim,
        "eigenvalues": list(kernel.eigenvalues.tolist()),
        "kernel": [[float(x) for x in row] for row in kernel.matrix],
        "effects": _labelled(
            ((label, matrix_to_json(effect)) for label, effect in povm.effects), "matrix"
        ),
    }
    return out, 0, [
        (args.output, Document(kind="instrument", value=m)),
        (args.povm_output, Document(kind="povm", value=povm)),
    ]


def _cmd_corr_extreme(args, tol):
    from .extremality import correlation_extremal

    report = correlation_extremal(args.file.value, tol)
    out = {
        "is_extreme": report.is_extreme,
        "gram_rank": report.gram_rank,
        "span_rank": report.span_rank,
        "marginal": report.marginal,
    }
    if report.witness is not None:
        out["witness"] = matrix_to_json(report.witness)
    code = 2 if args.assert_extreme and not report.is_extreme else 0
    return out, code, ()


def _cmd_choi(args, tol):
    m = args.file.value
    if args.outcome is not None:
        kraus = m.outcome(_parse_cli_label(args.outcome))
    else:
        kraus = KrausSet(m.dim_in, m.dim_out, _pooled(m))
    matrix = choi(kraus)
    rank = _rank(matrix.matrix, tol)
    out = {
        "dim_in": matrix.dim_in,
        "dim_out": matrix.dim_out,
        "rank": rank,
    }
    written = Document(
        kind="matrix",
        value=matrix.matrix,
        meta={"dim_in": matrix.dim_in, "dim_out": matrix.dim_out},
    )
    return out, 0, [(args.output, written)]


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
    matrix = args.file.value
    if matrix.shape[0] != matrix.shape[1]:
        raise FormatError("Choi matrix must be square")
    dim_in, dim_out = _infer_choi_dims(matrix, args, args.file.meta)
    if dim_in * dim_out != matrix.shape[0]:
        raise FormatError(
            f"dimensions {dim_in}x{dim_out} do not match matrix side {matrix.shape[0]}"
        )
    result = cp_check(ChoiMatrix(dim_in, dim_out, matrix), tol)
    out = {
        "completely_positive": result,
        "dim_in": dim_in,
        "dim_out": dim_out,
    }
    return out, 0 if result else 2, ()


_SUBSET_HELP = "comma-separated outcome subset; a tuple label is a JSON array [a,b], e.g. [0,0],[1,1]"


def build_parser() -> _Parser:
    parser = _Parser(prog="instrumentum", description="Quantum instrument toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, func, help_text, *kinds):
        """A subcommand; with ``kinds``, its ``file`` positional is a document of one of them."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        _tol_arguments(p)
        p.set_defaults(func=func, inputs=[])
        if kinds:
            document(p, "file", kinds)
        return p

    def document(p, name, kinds, help_text=None, check=None):
        """A required input document: ``main`` loads it and checks its kind before the handler runs."""
        flag = {"required": True, "metavar": "FILE"} if name.startswith("-") else {}
        action = p.add_argument(name, help=help_text or f"{' or '.join(kinds)} document", **flag)
        p.get_default("inputs").append((action.dest, kinds, check))

    command("validate", _cmd_validate, "Check that an instrument is normalized.", "instrument")

    p = command(
        "extremal", _cmd_extremal, "Decide extremality of an instrument or POVM.", "instrument", "povm"
    )
    p.add_argument("--witness", metavar="OUT", help="write the witness blocks when not extreme")
    p.add_argument("--assert-extreme", action="store_true", help="exit 2 when not extreme")

    p = command("dilate", _cmd_dilate, "Build and verify a minimal dilation.", "instrument")
    p.add_argument("-o", "--output", metavar="OUT", help="write the dilation document")

    p = command("refine", _cmd_refine, "Split every outcome into rank-one pieces.", "instrument")
    p.add_argument("-o", "--output", metavar="OUT", help="write the refined instrument")

    p = command(
        "posterior", _cmd_posterior, "Outcome distribution and post-measurement states.", "instrument"
    )
    document(p, "--state", ("matrix",), "input state document")
    query = p.add_mutually_exclusive_group()
    query.add_argument("--outcome", metavar="LABEL", help="posterior state for one outcome")
    query.add_argument("--subset", metavar="LABELS", help=_SUBSET_HELP)

    p = command("compose", _cmd_compose, "Sequential composition of two instruments.")
    document(p, "first", ("instrument",), "first instrument document")
    document(p, "second", ("instrument",), "second instrument document")
    p.add_argument("-o", "--output", metavar="OUT", help="write the composed instrument")

    p = command("compat-build", _cmd_compat_build, "Build a compatible instrument from coefficients.")
    document(p, "povm", ("povm",))
    document(p, "coefficients", ("coefficients",))
    p.add_argument("-o", "--output", metavar="OUT", help="write the built instrument")

    command(
        "compat-channel", _cmd_compat_channel, "Decompose outcomes through the associated channel.",
        "instrument",
    )

    p = command(
        "factorize", _cmd_factorize, "Factor outcomes through the associated channel.", "instrument"
    )
    p.add_argument("--subset", metavar="LABELS", help=_SUBSET_HELP)
    p.add_argument("-o", "--output", metavar="OUT", help="write the factor channel as an instrument")

    p = command(
        "nuclear-extract", _cmd_nuclear_extract, "Recover states of a rank-one nuclear instrument.",
        "instrument",
    )
    p.add_argument("-o", "--output", metavar="OUT", help="write the recovered states")

    p = command("model", _cmd_model, "Build an indirect measurement model.", "instrument")
    p.add_argument("--xi-index", type=int, default=0, metavar="N", help="ancilla index of the probe vector")
    p.add_argument("-o", "--output", metavar="OUT", help="write the model document")

    p = command("standard-model", _cmd_standard_model, "Pointer statistics of a standard indirect model.")
    document(p, "--a-op", ("matrix",), "system observable document")
    document(p, "--b-op", ("matrix",), "probe observable document")
    p.add_argument("--coupling", required=True, type=float, metavar="X", help="coupling strength")
    document(p, "--xi", ("matrix",), "probe vector document", _require_vector)
    p.add_argument("--pointer", required=True, metavar="SPEC", help="pointer blocks, e.g. '0,1;2'")
    p.add_argument("--labels", metavar="LABELS", help="comma-separated outcome labels")
    p.add_argument("-o", "--output", metavar="OUT", help="write the realized instrument")
    p.add_argument("--povm-output", metavar="OUT", help="write the pointer POVM")

    p = command("corr-extreme", _cmd_corr_extreme, "Decide extremality of a correlation matrix.", "matrix")
    p.add_argument("--assert-extreme", action="store_true", help="exit 2 when not extreme")

    p = command("choi", _cmd_choi, "Choi matrix of an outcome or of the full channel.", "instrument")
    p.add_argument("--outcome", metavar="LABEL", help="restrict to one outcome")
    p.add_argument("-o", "--output", metavar="OUT", help="write the Choi matrix document")

    p = command("cp-check", _cmd_cp_check, "Check complete positivity of a Choi matrix.", "matrix")
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
        for dest, kinds, check in args.inputs:  # each declared input, in declaration order
            setattr(args, dest, _load_kind(getattr(args, dest), kinds, check))
        report, code, documents = args.func(args, tol)
        # the report goes out before any write, so a failed or refused write still leaves it
        print(json.dumps({"command": args.command, **report}, indent=2, allow_nan=False))
        for path, written in documents:
            if path is None:
                continue
            if isinstance(written, InstrumentumError):
                raise written
            save(written, path)
        return code
    except (_UsageError, OSError) as exc:  # an OSError's text names the path and the reason
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InstrumentumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
