"""JSON document formats for every object the command line reads or writes.

A document is an object ``{"kind": ..., "version": "1", "payload": ...}``.
Complex numbers are two-element arrays ``[re, im]``; matrices are row-major
nested arrays of complex entries; labels are strings, integers, or arrays of
those (arrays decode to tuples).  Floats rely on the shortest-round-trip
decimal representation, so documents reload bit-exactly.

Kinds and payloads:

``matrix``
    ``{"matrix": M}`` with optional ``"dim_in"``/``"dim_out"`` integers
    (kept as metadata, used for Choi matrices) and optional ``"label"``.
``povm``
    ``{"dim": d, "effects": [{"label": L, "matrix": M}, ...]}``
``instrument``
    ``{"dim_in": d, "dim_out": e, "outcomes": [{"label": L, "kraus": [M, ...]}, ...]}``
``dilation``
    ``{"dim_in": d, "dim_out": e, "outcomes": [{"label": L, "block_dim": n}, ...],
    "isometry": M}`` -- structure and generalized vectors are derived from the isometry.
``model``
    ``{"system_dim": d, "outcomes": [{"label": L, "block_dim": n}, ...],
    "xi": V, "unitary": M}``
``coefficients``
    ``{"dim_k": e, "outcomes": [{"label": L, "tensor": T}, ...]}`` with ``T``
    a rank-3 nested array indexed ``[effect vector][output basis][kraus index]``.
``states``
    ``{"dim": d, "states": [{"label": L, "matrix": M}, ...]}``
``report``
    Arbitrary JSON object produced by a command; loaded verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .compat import CompatCoefficients
from .dilation import MeasurementModel, StinespringDilation
from .errors import FormatError
from .instruments import DiscreteInstrument, Povm

__all__ = ["Document", "load", "save", "matrix_to_json", "label_to_json", "complex_to_json"]

KINDS = ("matrix", "povm", "instrument", "dilation", "model", "coefficients", "states", "report")

VERSION = "1"


@dataclass(frozen=True)
class Document:
    """A typed value together with its document kind and optional metadata."""

    kind: str
    value: object
    meta: dict = field(default_factory=dict)
    version: str = VERSION


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 1:
        return [complex_to_json(z) for z in a]
    return [[complex_to_json(z) for z in row] for row in a]


def _tensor3_to_json(a) -> list:
    a = np.asarray(a, dtype=np.complex128)
    return [matrix_to_json(plane) for plane in a]


def label_to_json(label):
    """JSON form of an outcome label: tuples become (nested) arrays."""
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    return label


def _expect(node, types, path: str, what: str):
    if not isinstance(node, types) or isinstance(node, bool):
        raise FormatError(f"{path}: expected {what}")
    return node


def _parse_number(node, path: str) -> float:
    value = _expect(node, (int, float), path, "a number")
    value = float(value)
    if not np.isfinite(value):
        raise FormatError(f"{path}: number is not finite")
    return value


def _parse_int(node, path: str, minimum: int | None = None) -> int:
    value = _expect(node, int, path, "an integer")
    if minimum is not None and value < minimum:
        raise FormatError(f"{path}: must be at least {minimum}, got {value}")
    return int(value)


def _parse_complex(node, path: str) -> complex:
    pair = _expect(node, list, path, "a [re, im] pair")
    if len(pair) != 2:
        raise FormatError(f"{path}: expected exactly two entries [re, im]")
    return complex(_parse_number(pair[0], f"{path}[0]"), _parse_number(pair[1], f"{path}[1]"))


def _parse_vector(node, path: str) -> np.ndarray:
    entries = _expect(node, list, path, "an array of complex entries")
    if not entries:
        raise FormatError(f"{path}: must not be empty")
    return np.array([_parse_complex(z, f"{path}[{i}]") for i, z in enumerate(entries)])


def _parse_matrix(node, path: str) -> np.ndarray:
    rows = _expect(node, list, path, "an array of rows")
    if not rows:
        raise FormatError(f"{path}: must have at least one row")
    parsed = []
    width = None
    for i, row in enumerate(rows):
        entries = _expect(row, list, f"{path}[{i}]", "an array of complex entries")
        if width is None:
            width = len(entries)
            if width == 0:
                raise FormatError(f"{path}[{i}]: rows must not be empty")
        elif len(entries) != width:
            raise FormatError(f"{path}[{i}]: ragged row, expected {width} entries")
        parsed.append([_parse_complex(z, f"{path}[{i}][{j}]") for j, z in enumerate(entries)])
    return np.array(parsed, dtype=np.complex128)


def _parse_label(node, path: str):
    if isinstance(node, bool):
        raise FormatError(f"{path}: labels may not be booleans")
    if isinstance(node, (str, int)):
        return node
    if isinstance(node, list):
        return tuple(_parse_label(part, f"{path}[{i}]") for i, part in enumerate(node))
    raise FormatError(f"{path}: expected a string, integer, or array label")


def _parse_entries(payload, path: str, key: str) -> list:
    entries = _expect(payload.get(key), list, f"{path}.{key}", "an array")
    if not entries:
        raise FormatError(f"{path}.{key}: must not be empty")
    out = []
    for i, entry in enumerate(entries):
        out.append((_expect(entry, dict, f"{path}.{key}[{i}]", "an object"), f"{path}.{key}[{i}]"))
    return out


def _wrap_construction(path: str, builder):
    try:
        return builder()
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _decode_matrix(payload, path):
    matrix = _parse_matrix(payload.get("matrix"), f"{path}.matrix")
    meta = {}
    for key in ("dim_in", "dim_out"):
        if key in payload:
            meta[key] = _parse_int(payload[key], f"{path}.{key}", minimum=1)
    if "label" in payload:
        meta["label"] = _parse_label(payload["label"], f"{path}.label")
    return matrix, meta


def _encode_matrix(value, meta):
    payload = {"matrix": matrix_to_json(value)}
    for key in ("dim_in", "dim_out", "label"):
        if key in meta:
            payload[key] = label_to_json(meta[key]) if key == "label" else int(meta[key])
    return payload


def _decode_povm(payload, path):
    dim = _parse_int(payload.get("dim"), f"{path}.dim", minimum=1)
    effects = []
    for entry, entry_path in _parse_entries(payload, path, "effects"):
        label = _parse_label(entry.get("label"), f"{entry_path}.label")
        matrix = _parse_matrix(entry.get("matrix"), f"{entry_path}.matrix")
        effects.append((label, matrix))
    return _wrap_construction(path, lambda: Povm(dim, tuple(effects))), {}


def _encode_povm(value, meta):
    return {
        "dim": value.dim,
        "effects": [
            {"label": label_to_json(label), "matrix": matrix_to_json(matrix)}
            for label, matrix in value.effects
        ],
    }


def _decode_instrument(payload, path):
    dim_in = _parse_int(payload.get("dim_in"), f"{path}.dim_in", minimum=1)
    dim_out = _parse_int(payload.get("dim_out"), f"{path}.dim_out", minimum=1)
    outcomes = []
    for entry, entry_path in _parse_entries(payload, path, "outcomes"):
        label = _parse_label(entry.get("label"), f"{entry_path}.label")
        kraus_node = _expect(entry.get("kraus"), list, f"{entry_path}.kraus", "an array of matrices")
        ops = tuple(
            _parse_matrix(op, f"{entry_path}.kraus[{k}]") for k, op in enumerate(kraus_node)
        )
        outcomes.append((label, ops))
    return (
        _wrap_construction(
            path, lambda: DiscreteInstrument(dim_in, dim_out, tuple(outcomes))
        ),
        {},
    )


def _encode_instrument(value, meta):
    return {
        "dim_in": value.dim_in,
        "dim_out": value.dim_out,
        "outcomes": [
            {
                "label": label_to_json(label),
                "kraus": [matrix_to_json(op) for op in kraus.ops],
            }
            for label, kraus in value.outcomes
        ],
    }


def _decode_dilation(payload, path):
    dim_in = _parse_int(payload.get("dim_in"), f"{path}.dim_in", minimum=1)
    dim_out = _parse_int(payload.get("dim_out"), f"{path}.dim_out", minimum=1)
    labels = []
    block_dims = []
    for entry, entry_path in _parse_entries(payload, path, "outcomes"):
        labels.append(_parse_label(entry.get("label"), f"{entry_path}.label"))
        block_dims.append(_parse_int(entry.get("block_dim"), f"{entry_path}.block_dim", minimum=0))
    isometry = _parse_matrix(payload.get("isometry"), f"{path}.isometry")
    return (
        _wrap_construction(
            path,
            lambda: StinespringDilation(
                dim_in=dim_in,
                dim_out=dim_out,
                labels=tuple(labels),
                block_dims=tuple(block_dims),
                isometry=isometry,
            ),
        ),
        {},
    )


def _encode_dilation(value, meta):
    return {
        "dim_in": value.dim_in,
        "dim_out": value.dim_out,
        "outcomes": [
            {"label": label_to_json(label), "block_dim": n}
            for label, n in zip(value.labels, value.block_dims)
        ],
        "isometry": matrix_to_json(value.isometry),
    }


def _decode_model(payload, path):
    system_dim = _parse_int(payload.get("system_dim"), f"{path}.system_dim", minimum=1)
    labels = []
    block_dims = []
    for entry, entry_path in _parse_entries(payload, path, "outcomes"):
        labels.append(_parse_label(entry.get("label"), f"{entry_path}.label"))
        block_dims.append(_parse_int(entry.get("block_dim"), f"{entry_path}.block_dim", minimum=0))
    xi = _parse_vector(payload.get("xi"), f"{path}.xi")
    unitary = _parse_matrix(payload.get("unitary"), f"{path}.unitary")
    return (
        _wrap_construction(
            path,
            lambda: MeasurementModel(
                system_dim=system_dim,
                labels=tuple(labels),
                block_dims=tuple(block_dims),
                xi=xi,
                unitary=unitary,
            ),
        ),
        {},
    )


def _encode_model(value, meta):
    return {
        "system_dim": value.system_dim,
        "outcomes": [
            {"label": label_to_json(label), "block_dim": n}
            for label, n in zip(value.labels, value.block_dims)
        ],
        "xi": matrix_to_json(value.xi),
        "unitary": matrix_to_json(value.unitary),
    }


def _parse_tensor3(node, path):
    planes = _expect(node, list, path, "a rank-3 nested array")
    parsed = [_parse_matrix(plane, f"{path}[{i}]") for i, plane in enumerate(planes)]
    if parsed:
        shape = parsed[0].shape
        for i, plane in enumerate(parsed):
            if plane.shape != shape:
                raise FormatError(f"{path}[{i}]: planes disagree in shape")
        return np.stack(parsed)
    return np.zeros((0, 0, 0), dtype=np.complex128)


def _decode_coefficients(payload, path):
    dim_k = _parse_int(payload.get("dim_k"), f"{path}.dim_k", minimum=1)
    outcomes = []
    for entry, entry_path in _parse_entries(payload, path, "outcomes"):
        label = _parse_label(entry.get("label"), f"{entry_path}.label")
        tensor = _parse_tensor3(entry.get("tensor"), f"{entry_path}.tensor")
        if tensor.shape[0] == 0:
            tensor = np.zeros((0, dim_k, 0), dtype=np.complex128)
        outcomes.append((label, tensor))
    return (
        _wrap_construction(path, lambda: CompatCoefficients(dim_k, tuple(outcomes))),
        {},
    )


def _encode_coefficients(value, meta):
    return {
        "dim_k": value.dim_k,
        "outcomes": [
            {"label": label_to_json(label), "tensor": _tensor3_to_json(tensor)}
            for label, tensor in value.outcomes
        ],
    }


def _decode_states(payload, path):
    dim = _parse_int(payload.get("dim"), f"{path}.dim", minimum=1)
    states = []
    for entry, entry_path in _parse_entries(payload, path, "states"):
        label = _parse_label(entry.get("label"), f"{entry_path}.label")
        matrix = _parse_matrix(entry.get("matrix"), f"{entry_path}.matrix")
        if matrix.shape != (dim, dim):
            raise FormatError(f"{entry_path}.matrix: expected shape {(dim, dim)}")
        states.append((label, matrix))
    return tuple(states), {"dim": dim}


def _encode_states(value, meta):
    dim = meta.get("dim")
    if dim is None:
        dim = int(np.asarray(value[0][1]).shape[0])
    return {
        "dim": dim,
        "states": [
            {"label": label_to_json(label), "matrix": matrix_to_json(matrix)}
            for label, matrix in value
        ],
    }


def _decode_report(payload, path):
    return dict(payload), {}


def _encode_report(value, meta):
    return dict(value)


_DECODERS = {
    "matrix": _decode_matrix,
    "povm": _decode_povm,
    "instrument": _decode_instrument,
    "dilation": _decode_dilation,
    "model": _decode_model,
    "coefficients": _decode_coefficients,
    "states": _decode_states,
    "report": _decode_report,
}

_ENCODERS = {
    "matrix": _encode_matrix,
    "povm": _encode_povm,
    "instrument": _encode_instrument,
    "dilation": _encode_dilation,
    "model": _encode_model,
    "coefficients": _encode_coefficients,
    "states": _encode_states,
    "report": _encode_report,
}


def load(path) -> Document:
    """Read and validate a document; raises FormatError with a field path on failure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: top level must be an object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{path}: kind: expected one of {', '.join(KINDS)}, got {kind!r}")
    version = raw.get("version")
    if version != VERSION:
        raise FormatError(f"{path}: version: expected {VERSION!r}, got {version!r}")
    payload = raw.get("payload")
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: payload: expected an object")
    value, meta = _DECODERS[kind](payload, "payload")
    return Document(kind=kind, value=value, meta=meta, version=VERSION)


def save(doc: Document, path) -> None:
    """Write a document; floats use shortest-round-trip decimals."""
    if doc.kind not in KINDS:
        raise FormatError(f"unknown document kind {doc.kind!r}")
    payload = _ENCODERS[doc.kind](doc.value, doc.meta)
    body = {"kind": doc.kind, "version": VERSION, "payload": payload}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=2, allow_nan=False)
        handle.write("\n")
