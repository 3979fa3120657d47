"""On-disk formats: the matrix CSV, direction vectors, and flat config files.

Matrix CSV: one `#`-prefixed metadata line (`# n=<n> p=<p> seed=<seed>`),
then n rows of p comma-separated decimals with 17 significant digits.  The
format is plain text so fixtures diff cleanly and round-trip bit-exactly
under a fixed seed.  `_jsonable` prepares any payload for the JSON writers.
"""
from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, InvalidInput
from .linalg import ColumnMatrix


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _jsonable(value, key: str = "value"):
    """Infinite floats, which JSON cannot carry, become null; a NaN raises
    DomainError naming `key`, its dict key; the rest pass."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            raise DomainError(f"{key} is NaN")
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v, k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, key) for v in value]
    return value


def matrix_to_csv(matrix: ColumnMatrix, metadata: dict) -> str:
    meta = " ".join(f"{k}={v}" for k, v in metadata.items())
    buf = io.StringIO()
    buf.write(f"# {meta}\n")
    for row in matrix.data:
        buf.write(",".join(format_float(float(x)) for x in row))
        buf.write("\n")
    return buf.getvalue()


def save_matrix(path: str | Path, matrix: ColumnMatrix, metadata: dict) -> None:
    Path(path).write_text(matrix_to_csv(matrix, metadata), encoding="utf-8")


def _parse_metadata(line: str) -> dict:
    meta: dict = {}
    for token in line.lstrip("#").split():
        if "=" in token:
            key, _, value = token.partition("=")
            meta[key] = value
    return meta


def parse_matrix_csv(text: str) -> tuple[ColumnMatrix, dict]:
    meta: dict = {}
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            meta.update(_parse_metadata(stripped))
            continue
        try:
            rows.append([float(tok) for tok in stripped.split(",")])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: not a comma-separated float row") from exc
    if not rows:
        raise FormatError("matrix file contains no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError("matrix rows have inconsistent column counts")
    try:
        return ColumnMatrix(np.array(rows)), meta
    except InvalidInput as exc:
        raise FormatError(f"matrix file invalid: {exc}") from exc


def load_matrix(path: str | Path) -> tuple[ColumnMatrix, dict]:
    return parse_matrix_csv(Path(path).read_text(encoding="utf-8"))


def load_vector(path: str | Path) -> np.ndarray:
    """A direction vector: one comma-separated row, or one value per line."""
    values: list[float] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values.extend(float(tok) for tok in stripped.split(","))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: not a float") from exc
    if not values:
        raise FormatError("vector file contains no values")
    return np.array(values)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` config, UTF-8, `#` comments; keys normalized to
    underscores so they match flag names."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out
