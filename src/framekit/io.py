"""The frame-file format and canonical JSON.

Frames travel as JSON objects ``{"dim": d, "field": "real"|"complex",
"vectors": [...]}`` where each vector is a row of ``dim`` numbers in
real mode or of ``[re, im]`` pairs in complex mode.  Matrices reuse the
same container (``dim`` = column count, one row per matrix row).

Serialization is deterministic: insertion-ordered keys, floats rendered
with 17 significant digits (enough to round-trip doubles bit-exactly),
arrays as nested lists with complex entries as ``[re, im]`` pairs (the
frame-file convention, so a frame's ``vectors`` array is written as it
is stored), no whitespace.  Identical values therefore serialize to
identical bytes, which the CLI relies on for reproducible reports; the
report envelope itself is written by `cli.run_command`.
"""

from __future__ import annotations

import json
import math
import reprlib
from typing import Any

import numpy as np

from .errors import FrameFileError, FramekitError
from .frames import COMPLEX, FIELD_DTYPES, REAL, Frame


class _NonFiniteError(FramekitError):
    """A non-finite float met by `canonical_json`; `keys` holds the dict
    keys that lead to it, innermost first, for the message."""

    def __init__(self, x: float) -> None:
        super().__init__(x)
        self.keys = []

    def __str__(self) -> str:
        where = f" at {'.'.join(reversed(self.keys))}" if self.keys else ""
        return f"cannot serialize non-finite value {self.args[0]!r}{where}"


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise _NonFiniteError(x)
    return format(float(x), ".17g")


def canonical_json(value: Any) -> str:
    """Render a value as deterministic JSON (see module docstring): an
    array as nested lists, a complex entry as an ``[re, im]`` pair.  A
    non-finite float raises a FramekitError that names the path of dict
    keys to it."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack([value.real, value.imag], axis=-1)
        return canonical_json(value.tolist())
    if isinstance(value, dict):
        parts = []
        for k, v in value.items():
            try:
                parts.append(json.dumps(str(k)) + ":" + canonical_json(v))
            except _NonFiniteError as exc:  # name the field: payload.a_opt, say
                exc.keys.append(str(k))
                raise
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FrameFileError(f"{where}: expected a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise FrameFileError(f"{where}: number out of float range") from None
    if not math.isfinite(number):
        raise FrameFileError(f"{where}: non-finite number")
    return number


def _parse_frame_obj(obj: Any) -> Frame:
    """Validate a decoded JSON object against the frame-file schema."""
    if not isinstance(obj, dict):
        raise FrameFileError("top level must be an object")
    for key in ("dim", "field", "vectors"):
        if key not in obj:
            raise FrameFileError(f"missing key {key!r}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FrameFileError(f"dim must be a positive integer, got {reprlib.repr(dim)}")
    field = obj["field"]
    if field not in (REAL, COMPLEX):
        raise FrameFileError(
            f"field must be 'real' or 'complex', got {reprlib.repr(field)}")
    rows = obj["vectors"]
    if not isinstance(rows, list) or not rows:
        raise FrameFileError("vectors must be a nonempty list of rows")
    # every row is checked before the array is allocated, so a huge dim
    # with short rows is refused without asking for memory
    data = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FrameFileError(f"row {i}: expected {dim} entries")
        for j, entry in enumerate(row):
            where = f"row {i}, entry {j}"
            if field == REAL:
                data.append(_require_number(entry, where))
            else:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise FrameFileError(f"{where}: expected an [re, im] pair")
                data.append(complex(_require_number(entry[0], where),
                                    _require_number(entry[1], where)))
    vectors = np.array(data, dtype=FIELD_DTYPES[field]).reshape(len(rows), dim)
    return Frame(dim=dim, field=field, vectors=vectors)


def _reject_constant(name: str) -> float:
    raise FrameFileError(f"non-finite literal {name!r} is not allowed")


def loads_frame(text: str) -> Frame:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FrameFileError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FrameFileError("invalid JSON: nested too deeply") from exc
    return _parse_frame_obj(obj)


def read_frame(path: str) -> Frame:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FrameFileError(f"{path}: {exc}") from exc
    try:
        return loads_frame(text)
    except FrameFileError as exc:
        raise FrameFileError(f"{path}: {exc}") from exc


def dumps_frame(f: Frame) -> str:
    obj = {"dim": f.dim, "field": f.field, "vectors": f.vectors}
    return canonical_json(obj) + "\n"


def write_frame(f: Frame, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_frame(f))

