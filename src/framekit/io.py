"""Frame files and deterministic report serialization.

Frames travel as JSON objects ``{"dim": d, "field": "real"|"complex",
"vectors": [...]}`` where each vector is a row of ``dim`` numbers in
real mode or of ``[re, im]`` pairs in complex mode.  Matrices reuse the
same container (``dim`` = column count, one row per matrix row).

Serialization is deterministic: insertion-ordered keys, floats rendered
with 17 significant digits (enough to round-trip doubles bit-exactly),
no whitespace.  Identical values therefore serialize to identical
bytes, which the CLI relies on for reproducible reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List

import numpy as np

from .errors import FrameFileError, FramekitError
from .frames import COMPLEX, FIELD_DTYPES, REAL, Frame, ToleranceConfig

_VERDICTS = ("pass", "fail", "n/a")


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise FramekitError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def canonical_json(value: Any) -> str:
    """Render a value as deterministic JSON (see module docstring)."""
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
        return canonical_json(value.tolist())
    if isinstance(value, dict):
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + canonical_json(v) for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def rows_obj(vectors: np.ndarray, field: str) -> List[list]:
    """A matrix (row by row) or a vector in frame-file form for the field."""
    arr = np.asarray(vectors)
    if field == REAL:
        return arr.real.tolist()
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def frame_to_obj(f: Frame) -> Dict[str, Any]:
    return {"dim": f.dim, "field": f.field, "vectors": rows_obj(f.vectors, f.field)}


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FrameFileError(f"{where}: expected a number, got {value!r}")
    if not np.isfinite(value):
        raise FrameFileError(f"{where}: non-finite number")
    return float(value)


def parse_frame_obj(obj: Any) -> Frame:
    """Validate a decoded JSON object against the frame-file schema."""
    if not isinstance(obj, dict):
        raise FrameFileError("top level must be an object")
    for key in ("dim", "field", "vectors"):
        if key not in obj:
            raise FrameFileError(f"missing key {key!r}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FrameFileError(f"dim must be a positive integer, got {dim!r}")
    field = obj["field"]
    if field not in (REAL, COMPLEX):
        raise FrameFileError(f"field must be 'real' or 'complex', got {field!r}")
    rows = obj["vectors"]
    if not isinstance(rows, list) or not rows:
        raise FrameFileError("vectors must be a nonempty list of rows")
    data = np.zeros((len(rows), dim), dtype=FIELD_DTYPES[field])
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FrameFileError(f"row {i}: expected {dim} entries")
        for j, entry in enumerate(row):
            where = f"row {i}, entry {j}"
            if field == REAL:
                data[i, j] = _require_number(entry, where)
            else:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise FrameFileError(f"{where}: expected an [re, im] pair")
                data[i, j] = complex(_require_number(entry[0], where),
                                     _require_number(entry[1], where))
    return Frame(dim=dim, field=field, vectors=data)


def _reject_constant(name: str) -> float:
    raise FrameFileError(f"non-finite literal {name!r} is not allowed")


def loads_frame(text: str) -> Frame:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FrameFileError(f"invalid JSON: {exc}") from exc
    return parse_frame_obj(obj)


def read_frame(path: str) -> Frame:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FrameFileError(f"{path}: {exc}") from exc
    try:
        return loads_frame(text)
    except FrameFileError as exc:
        raise FrameFileError(f"{path}: {exc}") from exc


def dumps_frame(f: Frame) -> str:
    return canonical_json(frame_to_obj(f)) + "\n"


def write_frame(f: Frame, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_frame(f))


def read_matrix(path: str) -> np.ndarray:
    """Read a matrix stored in the frame-file container; returns the rows
    as an (n, dim) array, float64 for a real file, complex128 for a complex one."""
    return np.array(read_frame(path).vectors)


@dataclass
class Report:
    """Machine-readable outcome of one CLI command."""

    command: str
    inputs: Dict[str, Any]
    verdict: str
    payload: Dict[str, Any]
    tolerances: ToleranceConfig

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise FramekitError(f"verdict must be one of {_VERDICTS}")

    def to_obj(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "payload": self.payload,
            "tolerances": asdict(self.tolerances),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_obj())
