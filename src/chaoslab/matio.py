"""File formats: matrix files, coefficient CSV/JSON, rearrangement CSV export.

The CLI matrix format is a header line ``n m`` followed by n rows of m
whitespace-separated reals.  Coefficient matrices are also exchanged as CSV
(first line ``n,m``, then comma-separated rows) and as plain JSON nested
arrays; the loader dispatches on the file suffix.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MatrixParseError
from .rearrange import Rearrangement


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the whitespace matrix format, reporting 1-based line/column on error."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixParseError("missing 'n m' header line", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixParseError(
            f"header must be two integers 'n m', got {lines[0].strip()!r}", line=1
        )
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixParseError(
            f"header must be two integers 'n m', got {lines[0].strip()!r}", line=1
        ) from None
    if n < 1 or m < 1:
        raise MatrixParseError(f"dimensions must be positive, got {n}x{m}", line=1)
    rows = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        fields = raw.split()
        if len(rows) == n:
            raise MatrixParseError(f"expected {n} rows, found extra data", line=lineno)
        if len(fields) != m:
            raise MatrixParseError(
                f"expected {m} entries, got {len(fields)}", line=lineno
            )
        row = []
        for col, tok in enumerate(fields, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise MatrixParseError(
                    f"not a number: {tok!r}", line=lineno, column=col
                ) from None
        rows.append(row)
    if len(rows) != n:
        raise MatrixParseError(
            f"expected {n} rows, got {len(rows)}", line=lineno
        )
    return np.array(rows, dtype=np.float64)


def parse_matrix_csv(text: str) -> np.ndarray:
    """Parse the CSV coefficient format: header line 'n,m', then comma rows."""
    rewritten = "\n".join(
        " ".join(part.strip() for part in line.split(","))
        for line in text.splitlines()
    )
    return parse_matrix_text(rewritten)


def load_matrix(path: str | Path) -> np.ndarray:
    """Load a matrix file, dispatching on suffix (.csv, .json, else whitespace)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise MatrixParseError("JSON matrix must be an array of arrays", line=1)
        return arr
    if path.suffix.lower() == ".csv":
        return parse_matrix_csv(text)
    return parse_matrix_text(text)


def format_matrix_text(a: np.ndarray) -> str:
    n, m = a.shape
    lines = [f"{n} {m}"]
    for row in a:
        lines.append(" ".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def format_matrix_csv(a: np.ndarray) -> str:
    n, m = a.shape
    lines = [f"{n},{m}"]
    for row in a:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def format_number(v) -> str:
    """``NA`` for None, an integral value without a point, anything else as repr(float(v))."""
    if v is None:
        return "NA"
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def rearrangement_to_csv(r: Rearrangement) -> str:
    """Two-column plot-ready CSV: step value, cumulative measure."""
    lines = ["value,cumulative_measure"]
    for v, bound in zip(r.values, r.bounds):
        lines.append(f"{format_number(v)},{format_number(bound)}")
    return "\n".join(lines) + "\n"
