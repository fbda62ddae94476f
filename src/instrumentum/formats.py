"""JSON document formats for every object the command line reads or writes.

A document is an object ``{"kind": ..., "version": "1", "payload": ...}``.
Complex numbers are two-element arrays ``[re, im]``; a vector, matrix or
rank-3 tensor is a row-major nested array of complex entries, the form
``matrix_to_json`` gives, written row by row by ``save`` and read back by
``_parse_array``.  A label is a string, an integer that is not a boolean,
or an array of labels, which decodes to a tuple; this is the grammar every
labelled constructor enforces, so every label a constructor accepts
round-trips, and every label ``load`` rejects a constructor rejects too.
Floats rely on the shortest-round-trip decimal representation, so documents
reload bit-exactly.

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

The ``dilation``, ``model`` and ``coefficients`` decoders import their value
types when called, so reading the other kinds loads neither ``dilation`` nor
``compat``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .instruments import DiscreteInstrument, Povm, _label_fault, _label_repr
from .matkernel import _integer

__all__ = ["Document", "load", "save", "matrix_to_json", "label_to_json"]

VERSION = "1"


@dataclass(frozen=True, eq=False)
class Document:
    """A typed value together with its document kind and optional metadata."""

    kind: str
    value: object
    meta: dict = field(default_factory=dict)


def matrix_to_json(a) -> list:
    """Nested arrays of ``[re, im]`` pairs, for an array of any rank."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def _complex(a) -> np.ndarray:
    """A numeric field as ``save`` takes it: the array whose ``matrix_to_json`` form is written."""
    return np.asarray(a, dtype=np.complex128)


def label_to_json(label):
    """JSON form of an outcome label: tuples become (nested) arrays.

    Raises FormatError for a value outside the label grammar, so ``save``
    writes no label that ``load`` rejects, even in kinds without a
    constructor (``states`` and the ``matrix`` label).
    """
    fault = _label_fault(label)
    if fault is not None:
        raise FormatError(f"label {_label_repr(label)}{fault[0]}: {fault[1]}")
    return _lists(label)


def _lists(label):
    return [_lists(part) for part in label] if isinstance(label, tuple) else label


def _expect(node, types, path: str, what: str):
    if not isinstance(node, types) or isinstance(node, bool):
        raise FormatError(f"{path}: expected {what}")
    return node


def _parse_number(node, path: str) -> float:
    value = _expect(node, (int, float), path, "a number")
    try:
        value = float(value)
    except OverflowError:
        raise FormatError(f"{path}: number is out of range") from None
    if not np.isfinite(value):
        raise FormatError(f"{path}: number is not finite")
    return value


def _parse_int(node, path: str, minimum: int | None = None) -> int:
    value = _expect(node, int, path, "an integer")
    if minimum is not None and value < minimum:
        raise FormatError(f"{path}: must be at least {minimum}, got {value}")
    return int(value)


def _parse_array(node, path: str, ndim: int, empty: tuple | None = None, stack: bool = True):
    """The rank-``ndim`` complex array that ``matrix_to_json`` writes as ``node``.

    Every level is a non-empty array whose entries agree in shape, and every
    leaf is an ``[re, im]`` pair.  When ``empty`` is a shape, the outermost
    array may be empty and then decodes to zeros of that shape.  With
    ``stack=False`` the outermost array may be empty or hold entries of
    different shapes, and decodes to the tuple of its entries, for a
    constructor that checks them against its declared dimensions.
    """
    if ndim and stack:
        dense = _dense(node, ndim)
        if dense is not None:
            return dense
    if ndim == 0:
        pair = _expect(node, list, path, "a [re, im] pair")
        if len(pair) != 2:
            raise FormatError(f"{path}: expected exactly two entries [re, im]")
        return complex(_parse_number(pair[0], f"{path}[0]"), _parse_number(pair[1], f"{path}[1]"))
    entries = _expect(node, list, path, f"a rank-{ndim} nested array")
    if not entries and stack:
        if empty is None:
            raise FormatError(f"{path}: must not be empty")
        return _wrap_construction(path, lambda: np.zeros(empty, dtype=np.complex128))
    parsed = []
    for i, entry in enumerate(entries):
        parsed.append(_parse_array(entry, f"{path}[{i}]", ndim - 1))
        if ndim > 1 and stack and parsed[i].shape != parsed[0].shape:
            shape, first = parsed[i].shape, parsed[0].shape
            raise FormatError(f"{path}[{i}]: shape {shape} disagrees with entry 0's {first}")
    return np.array(parsed, dtype=np.complex128) if stack else tuple(parsed)


def _dense(node, ndim: int):
    """``node`` read in one numpy conversion, or None to leave it to the entry-by-entry walk.

    An array comes back only where the walk would return the same one: a
    rank-``ndim`` nesting of ``[re, im]`` pairs with no empty level, every
    leaf an int or a float (numpy would also convert ``true`` and
    ``"1.5"``), and every value finite.  Each level is checked in one pass
    over all its entries; as a string or object in JSON iterates to strings,
    one at any level shows as a string leaf or as a length that disagrees.
    Anything else, including an integer too large for a double, is left to
    the walk, which reports the first fault by field path.
    """
    try:
        shape = []
        for depth in range(ndim + 1):
            lengths = set(map(len, _level(node, depth)))
            if len(lengths) != 1 or 0 in lengths:
                return None
            shape.append(lengths.pop())
        if shape[-1] != 2 or not set(map(type, _level(node, ndim + 1))) <= {float, int}:
            return None
        values = np.fromiter(_level(node, ndim + 1), np.float64, math.prod(shape))
    except (TypeError, OverflowError):  # the length of a number, an integer too large
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(np.complex128).reshape(shape[:-1])


def _level(node, depth: int):
    """An iterator over the entries ``depth`` levels below ``node``."""
    entries = iter((node,))
    for _ in range(depth):
        entries = itertools.chain.from_iterable(entries)
    return entries


def _parse_label(node, path: str):
    fault = _label_fault(node, list)
    if fault is not None:
        raise FormatError(f"{path}{fault[0]}: {fault[1]}")
    return _tuples(node)


def _tuples(node):
    return tuple(_tuples(part) for part in node) if isinstance(node, list) else node


def _parse_labelled(payload, path: str, key: str, item: str, parse) -> tuple:
    """The array ``payload[key]`` of ``{"label": L, item: X}`` objects as ``(L, parse(X))`` pairs.

    Every entry is checked to be an object before any is read; then each
    entry's label is read before its field.
    """
    entries = _expect(payload.get(key), list, f"{path}.{key}", "an array")
    if not entries:
        raise FormatError(f"{path}.{key}: must not be empty")
    paths = [f"{path}.{key}[{i}]" for i in range(len(entries))]
    for entry, entry_path in zip(entries, paths):
        _expect(entry, dict, entry_path, "an object")
    return tuple(
        (
            _parse_label(entry.get("label"), f"{entry_path}.label"),
            parse(entry.get(item), f"{entry_path}.{item}"),
        )
        for entry, entry_path in zip(entries, paths)
    )


def _labelled(rows, *keys) -> list:
    """``{"label": L, key: value, ...}`` objects from ``(L, value, ...)`` rows of JSON values."""
    return [{"label": label_to_json(label), **dict(zip(keys, values))} for label, *values in rows]


def _family_json(rows, path: str, key: str) -> list:
    """``_labelled(rows, key)`` for the family at ``path``; refused, as by ``load``, when empty."""
    entries = _labelled(rows, key)
    if not entries:
        raise FormatError(f"{path}: must not be empty")
    return entries


def _wrap_construction(path: str, builder):
    try:
        return builder()
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _decode_matrix(payload, path):
    matrix = _parse_array(payload.get("matrix"), f"{path}.matrix", 2)
    meta = {}
    for key in ("dim_in", "dim_out"):
        if key in payload:
            meta[key] = _parse_int(payload[key], f"{path}.{key}", minimum=1)
    if "label" in payload:
        meta["label"] = _parse_label(payload["label"], f"{path}.label")
    return matrix, meta


def _matrix(a, path: str) -> np.ndarray:
    """``_complex(a)``, refused unless a 2-D array with no empty axis, as ``load`` requires."""
    a = _complex(a)
    if a.ndim != 2 or not a.size:
        raise FormatError(f"{path}: expected a nonempty 2-D array, got shape {a.shape}")
    return a


def _dimension(n, path: str) -> int:
    return _wrap_construction(path, lambda: _integer(n, "dimensions"))


def _encode_matrix(value, meta):
    payload = {"matrix": _matrix(value, "payload.matrix")}
    for key in ("dim_in", "dim_out"):
        if key in meta:
            payload[key] = _dimension(meta[key], f"payload.{key}")
    if "label" in meta:
        payload["label"] = label_to_json(meta["label"])
    return payload


def _decode_povm(payload, path):
    dim = _parse_int(payload.get("dim"), f"{path}.dim", minimum=1)
    effects = _parse_labelled(
        payload, path, "effects", "matrix", lambda n, p: _parse_array(n, p, 2)
    )
    return _wrap_construction(path, lambda: Povm(dim, effects)), {}


def _encode_povm(value, meta):
    rows = ((label, _complex(matrix)) for label, matrix in value.effects)
    return {"dim": value.dim, "effects": _family_json(rows, "payload.effects", "matrix")}


def _decode_instrument(payload, path):
    dim_in = _parse_int(payload.get("dim_in"), f"{path}.dim_in", minimum=1)
    dim_out = _parse_int(payload.get("dim_out"), f"{path}.dim_out", minimum=1)
    outcomes = _parse_labelled(
        payload, path, "outcomes", "kraus", lambda n, p: _parse_array(n, p, 3, stack=False)
    )
    return _wrap_construction(path, lambda: DiscreteInstrument(dim_in, dim_out, outcomes)), {}


def _encode_instrument(value, meta):
    rows = ((label, _complex(kraus.stack)) for label, kraus in value.outcomes)
    outcomes = _family_json(rows, "payload.outcomes", "kraus")
    return {"dim_in": value.dim_in, "dim_out": value.dim_out, "outcomes": outcomes}


def _parse_blocks(payload, path):
    """The labels and the block dimensions of a dilation's or a model's outcomes."""
    outcomes = _parse_labelled(
        payload, path, "outcomes", "block_dim", lambda n, p: _parse_int(n, p, minimum=0)
    )
    return tuple(zip(*outcomes))


def _decode_dilation(payload, path):
    from .dilation import StinespringDilation

    dim_in = _parse_int(payload.get("dim_in"), f"{path}.dim_in", minimum=1)
    dim_out = _parse_int(payload.get("dim_out"), f"{path}.dim_out", minimum=1)
    labels, block_dims = _parse_blocks(payload, path)
    isometry = _parse_array(payload.get("isometry"), f"{path}.isometry", 2)
    return (
        _wrap_construction(
            path, lambda: StinespringDilation(dim_in, dim_out, labels, block_dims, isometry)
        ),
        {},
    )


def _encode_dilation(value, meta):
    return {
        "dim_in": value.dim_in,
        "dim_out": value.dim_out,
        "outcomes": _family_json(
            zip(value.labels, value.block_dims), "payload.outcomes", "block_dim"
        ),
        "isometry": _complex(value.isometry),
    }


def _decode_model(payload, path):
    from .dilation import MeasurementModel

    system_dim = _parse_int(payload.get("system_dim"), f"{path}.system_dim", minimum=1)
    labels, block_dims = _parse_blocks(payload, path)
    xi = _parse_array(payload.get("xi"), f"{path}.xi", 1)
    unitary = _parse_array(payload.get("unitary"), f"{path}.unitary", 2)
    return (
        _wrap_construction(
            path, lambda: MeasurementModel(system_dim, labels, block_dims, xi, unitary)
        ),
        {},
    )


def _encode_model(value, meta):
    return {
        "system_dim": value.system_dim,
        "outcomes": _family_json(
            zip(value.labels, value.block_dims), "payload.outcomes", "block_dim"
        ),
        "xi": _complex(value.xi),
        "unitary": _complex(value.unitary),
    }


def _decode_coefficients(payload, path):
    from .compat import CompatCoefficients

    dim_k = _parse_int(payload.get("dim_k"), f"{path}.dim_k", minimum=1)
    outcomes = _parse_labelled(
        payload, path, "outcomes", "tensor", lambda n, p: _parse_array(n, p, 3, (0, dim_k, 0))
    )
    return _wrap_construction(path, lambda: CompatCoefficients(dim_k, outcomes)), {}


def _encode_coefficients(value, meta):
    rows = ((label, _complex(tensor)) for label, tensor in value.outcomes)
    return {"dim_k": value.dim_k, "outcomes": _family_json(rows, "payload.outcomes", "tensor")}


def _decode_states(payload, path):
    dim = _parse_int(payload.get("dim"), f"{path}.dim", minimum=1)

    def parse_state(node, state_path):
        matrix = _parse_array(node, state_path, 2)
        if matrix.shape != (dim, dim):
            raise FormatError(f"{state_path}: expected shape {(dim, dim)}")
        return matrix

    return _parse_labelled(payload, path, "states", "matrix", parse_state), {"dim": dim}


def _encode_states(value, meta):
    paths = [f"payload.states[{i}].matrix" for i in range(len(value))]
    rows = [(label, _matrix(matrix, path)) for (label, matrix), path in zip(value, paths)]
    states = _family_json(rows, "payload.states", "matrix")
    dim = meta.get("dim")
    dim = len(rows[0][1]) if dim is None else _dimension(dim, "payload.dim")
    for (_, matrix), path in zip(rows, paths):
        if matrix.shape != (dim, dim):
            raise FormatError(f"{path}: expected shape {(dim, dim)}, got {matrix.shape}")
    return {"dim": dim, "states": states}


def _decode_report(payload, path):
    return dict(payload), {}


def _encode_report(value, meta):
    return dict(value)


_CODECS = {  # kind: (decode, encode)
    "matrix": (_decode_matrix, _encode_matrix),
    "povm": (_decode_povm, _encode_povm),
    "instrument": (_decode_instrument, _encode_instrument),
    "dilation": (_decode_dilation, _encode_dilation),
    "model": (_decode_model, _encode_model),
    "coefficients": (_decode_coefficients, _encode_coefficients),
    "states": (_decode_states, _encode_states),
    "report": (_decode_report, _encode_report),
}

KINDS = tuple(_CODECS)


def load(path) -> Document:
    """Read and validate a document; raises FormatError with a field path on failure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too many digits, deep nesting
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
    value, meta = _CODECS[kind][0](payload, "payload")
    return Document(kind=kind, value=value, meta=meta)


def save(doc: Document, path) -> None:
    """Write a document; floats use shortest-round-trip decimals.

    A document that ``load`` would refuse raises FormatError and writes
    nothing: a ``matrix`` or ``states`` document with arrays or dimensions
    outside ``load``'s rules, which no constructor checks, and a document
    with no outcomes, effects or states, which the constructors allow.

    The bytes are those of ``json.dump(body, indent=2, allow_nan=False)``
    and a newline, with every array in its ``matrix_to_json`` form.  The
    arrays are written one row of entries at a time, so neither the text of
    the whole document nor a nested list of a whole array is ever built.
    """
    if doc.kind not in KINDS:
        raise FormatError(f"unknown document kind {doc.kind!r}")
    payload = _CODECS[doc.kind][1](doc.value, doc.meta)
    body = {"kind": doc.kind, "version": VERSION, "payload": payload}
    pieces, arrays = _skeleton(body, doc.kind != "report")
    for array in arrays:
        if not np.isfinite(array).all():
            raise ValueError("Out of range float values are not JSON compliant")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(pieces[0])
        for array, before, after in zip(arrays, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1 :]  # the indentation, then '"key": '
            newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
            _write_array(handle.write, np.stack((array.real, array.imag), -1), newline)
            handle.write(after)
        handle.write("\n")


def _skeleton(body, with_arrays: bool) -> tuple:
    """The text of ``body`` cut where its ndarrays go, and the ndarrays in the order they go there.

    Every ndarray is encoded as one marker string; when the text holds the
    marker more often than there are ndarrays, a label holds it too, and
    another marker is tried.  Without ``with_arrays`` (a report) an ndarray
    is refused like any other value ``json`` cannot encode.
    """
    for salt in itertools.count():
        marker, found = f"\0{salt}", []

        def mark(value):
            if not (with_arrays and isinstance(value, np.ndarray)):
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            found.append(value)
            return marker

        pieces = json.dumps(body, indent=2, allow_nan=False, default=mark).split(json.dumps(marker))
        if len(pieces) == len(found) + 1:
            return pieces, found


def _write_array(write, pairs: np.ndarray, newline: str) -> None:
    """Write ``pairs.tolist()`` as ``json.dump(indent=2)`` does on a line that ``newline`` begins.

    The last axis of ``pairs`` is ``[re, im]``.  Each row of pairs is one
    ``%``-format of its floats, whose ``%r`` is ``float.__repr__``, as in ``json``.
    """
    if not len(pairs):
        write("[]")
        return
    inner = newline + "  "
    if pairs.ndim == 2:
        entry = f"[{inner}  %r,{inner}  %r{inner}]"
        row = f"[{inner}" + f",{inner}".join([entry] * len(pairs)) + f"{newline}]"
        write(row % tuple(pairs.ravel().tolist()))
    else:
        write("[" + inner)
        for i, part in enumerate(pairs):
            if i:
                write("," + inner)
            _write_array(write, part, inner)
        write(newline + "]")
