"""Serialization: flat binary grid fields, and reports as plain JSON values.

Field layout: the magic line b"KHFLD1\n", one JSON header line terminated
by a newline, then the raw C-order array bytes.  The header records n, N, a
caller-chosen kind label, the numpy dtype name, and the full array shape
(grid axes plus any trailing tensor axes), which is enough to reconstruct
the array without guessing.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError

MAGIC = b"KHFLD1\n"
_ALLOWED_DTYPES = ("float64", "complex128")


def plain(value):
    """A JSON-ready copy of value: dataclasses become dicts of their fields,
    tuples become lists, numpy scalars and arrays become Python values."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def save_field(path, field: np.ndarray, n: int, N: int, kind: str = "field") -> None:
    """Write one array; grid axes must match (N,)*(2n), extras may follow."""
    field = np.ascontiguousarray(field)
    if field.dtype.name not in _ALLOWED_DTYPES:
        field = field.astype(complex if np.iscomplexobj(field) else float)
    if field.shape[: 2 * n] != (N,) * (2 * n):
        raise DomainError(
            f"leading axes {field.shape[:2 * n]} do not match the declared "
            f"grid (N={N}, n={n})"
        )
    header = {
        "n": int(n),
        "N": int(N),
        "kind": str(kind),
        "dtype": field.dtype.name,
        "shape": list(field.shape),
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(field.tobytes())


def load_field(path):
    """Read one array; returns (array, header dict)."""
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise DomainError(f"{path}: bad magic, not a field dump")
    body = raw[len(MAGIC):]
    nl = body.find(b"\n")
    if nl < 0:
        raise DomainError(f"{path}: truncated header")
    try:
        header = json.loads(body[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DomainError(f"{path}: unreadable header: {exc}") from exc
    for key in ("n", "N", "kind", "dtype", "shape"):
        if key not in header:
            raise DomainError(f"{path}: header missing {key!r}")
    if header["dtype"] not in _ALLOWED_DTYPES:
        raise DomainError(f"{path}: unsupported dtype {header['dtype']!r}")
    shape = tuple(int(s) for s in header["shape"])
    data = body[nl + 1:]
    expected = int(np.prod(shape)) * np.dtype(header["dtype"]).itemsize
    if len(data) != expected:
        raise DomainError(
            f"{path}: payload holds {len(data)} bytes, header implies {expected}"
        )
    field = np.frombuffer(data, dtype=header["dtype"]).reshape(shape).copy()
    return field, header
