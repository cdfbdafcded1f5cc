"""JSON wire formats and deterministic report output.

Complex numbers always serialize as two-element ``[re, im]`` arrays, never
as strings. Reports are written with sorted keys and a trailing newline so
that identical inputs (and seed) produce byte-identical files; writes go
through a temp file plus rename.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import DomainError
from .kernels import ExplicitGram, Kernel, kernel_from_json

__all__ = [
    "complex_to_json",
    "complex_from_json",
    "complex_matrix_to_json",
    "complex_matrix_from_json",
    "point_to_json",
    "load_json",
    "parse_points_doc",
    "parse_targets_doc",
    "parse_eval_doc",
    "canonical_dumps",
    "atomic_write_text",
]


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _is_number(v) -> bool:
    # JSON true/false load as bool, a subclass of int that the exact type
    # test leaves out; Python's json also accepts NaN and Infinity, and
    # integers too large to convert to a float.
    if type(v) is int:
        return abs(v) <= sys.float_info.max
    return type(v) is float and math.isfinite(v)


def complex_from_json(v) -> complex:
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and _is_number(v[0]) and _is_number(v[1]):
        return complex(v[0], v[1])
    raise DomainError(f"expected a number or [re, im] pair, got {v!r}")


def complex_vector_to_json(v) -> list:
    return [complex_to_json(z) for z in np.asarray(v).reshape(-1)]


def complex_matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in M]


def complex_matrix_from_json(rows) -> np.ndarray:
    try:
        return np.array(
            [[complex_from_json(v) for v in row] for row in rows], dtype=complex
        )
    except (TypeError, DomainError) as exc:
        raise DomainError(f"malformed complex matrix: {exc}") from exc


def point_to_json(p):
    if isinstance(p, np.ndarray):
        return [complex_to_json(z) for z in p]
    if isinstance(p, (int, np.integer)):
        return int(p)
    z = complex(p)
    if z.imag == 0.0:
        return float(z.real)
    return complex_to_json(z)


def _point_from_json(v):
    if _is_number(v):
        return float(v)
    if isinstance(v, list) and v and isinstance(v[0], list):
        return np.array([complex_from_json(c) for c in v], dtype=complex)
    return complex_from_json(v)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise DomainError(f"{path}: {exc.strerror or exc}") from exc


def parse_points_doc(doc, kernel_override: Kernel | None = None):
    """Resolve a points file into ``(kernel, raw_points)``.

    Accepted shapes: a bare list of points (kernel must come from the
    caller), ``{"kernel": {...}, "points": [...]}``, or an explicit-Gram
    document ``{"type": "gram", "matrix": ..., "labels": ...}`` whose points
    default to all row indices. A caller-supplied kernel wins over the
    embedded one.
    """
    if isinstance(doc, list):
        if kernel_override is None:
            raise DomainError("points file has no kernel; pass --kernel")
        return kernel_override, [_point_from_json(v) for v in doc]
    if not isinstance(doc, dict):
        raise DomainError("points file must be a JSON list or object")
    if doc.get("type") == "gram":
        kernel = kernel_override or kernel_from_json(doc)
        if not isinstance(kernel, ExplicitGram):
            raise DomainError("--kernel conflicts with an explicit-gram points file")
        points = doc.get("points", list(range(kernel.matrix.dim)))
        if not isinstance(points, list) or not all(_is_number(i) for i in points):
            raise DomainError("explicit-gram 'points' must be a list of row indices")
        return kernel, points
    kernel = kernel_override
    if kernel is None:
        if "kernel" not in doc:
            raise DomainError("points file has no kernel; pass --kernel")
        kernel = kernel_from_json(doc["kernel"])
    if not isinstance(doc.get("points"), list):
        raise DomainError("points file needs a 'points' list")
    return kernel, [_point_from_json(v) for v in doc["points"]]


def parse_targets_doc(doc) -> np.ndarray:
    """Parse the ``targets`` object of a problem file."""
    if not isinstance(doc, dict):
        raise DomainError("'targets' must be an object")
    if "scalar" in doc:
        if not isinstance(doc["scalar"], list):
            raise DomainError("scalar targets must be a list")
        return np.array([complex_from_json(v) for v in doc["scalar"]], dtype=complex)
    if "matrix" in doc:
        m = doc["matrix"]
        if not (
            isinstance(m, dict)
            and _is_number(m.get("mu"))
            and _is_number(m.get("nu"))
            and isinstance(m.get("data"), list)
        ):
            raise DomainError("matrix targets need numbers 'mu' and 'nu' and a 'data' list")
        # compared with the data's integer shape, a non-integral size never matches
        mu, nu = m["mu"], m["nu"]
        data = np.array(
            [complex_matrix_from_json(rows) for rows in m["data"]], dtype=complex
        )
        if data.ndim != 3 or data.shape[1:] != (mu, nu):
            raise DomainError(
                f"matrix targets must each be {mu}x{nu}, got shape {data.shape[1:]}"
            )
        return data
    raise DomainError("'targets' needs a 'scalar' or 'matrix' entry")


def parse_eval_doc(doc) -> list:
    pts = doc.get("points") if isinstance(doc, dict) else doc
    if not isinstance(pts, list):
        raise DomainError("evaluation file must be a list or {'points': [...]}")
    return [_point_from_json(v) for v in pts]


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline.

    Raises ``ValueError`` on a NaN or infinite number, which JSON cannot hold.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
