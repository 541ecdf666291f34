"""Dataset file formats: a compact binary layout and plain CSV.

Binary layout: magic bytes ``NDPT``, then point count and dimensionality as
little-endian u32, then count*dims little-endian IEEE-754 f64 in row-major
order. Ids are implicit row indices, so saving a dataset with custom ids drops
them by design.

CSV: one point per row of comma-separated decimal floats, LF line endings, no
header unless requested. A line loses its ASCII whitespace at both ends. A
coordinate with a digit group (``1_0``) or a non-ASCII character (``١٢``, or
a byte that is not UTF-8), which ``float`` would take or the decoder refuse,
is an error naming its line. Ids default to the row index; an id column can
be named on load. Its tokens are parsed with ``int``, so ids keep every
digit: a token that is not an ASCII decimal integer (``7.0``, ``1e3``,
``1_000``) or lies outside int64, a negative id and a repeated one are errors
naming their line.

Every error in a file names where it is: a line of a CSV file, an offset of
a binary one.
"""

from __future__ import annotations

import os
import string
import struct
from pathlib import Path

import numpy as np

from .core import Dataset

MAGIC = b"NDPT"
_HEADER = struct.Struct("<II")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

__all__ = ["DatasetFormatError", "save_dataset", "load_dataset", "detect_format", "MAGIC"]


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files; the message carries line/offset context."""


def detect_format(path) -> str:
    """'binary' if the file starts with the magic bytes, else 'csv'."""
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
    return "binary" if head == MAGIC else "csv"


def _format_for(path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("binary", "csv"):
            raise ValueError(f"unknown dataset format {fmt!r}")
        return fmt
    return "csv" if Path(path).suffix.lower() == ".csv" else "binary"


def save_dataset(ds: Dataset, path, format: str | None = None, header: bool = False) -> None:
    """Write a dataset; format defaults from the file suffix (.csv -> CSV)."""
    fmt = _format_for(path, format)
    if fmt == "binary":
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(_HEADER.pack(ds.n, ds.dims))
            f.write(np.ascontiguousarray(ds.coords, dtype="<f8").tobytes())
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            if header:
                f.write(",".join(f"x{j}" for j in range(ds.dims)) + "\n")
            for row in ds.coords:
                f.write(",".join(repr(float(v)) for v in row) + "\n")


def load_dataset(path, format: str | None = None, header: bool = False, id_column: int | None = None) -> Dataset:
    """Read a dataset, auto-detecting binary vs CSV from the magic bytes.

    ``header`` skips the first CSV line; ``id_column`` names the CSV column
    holding decimal int64 point ids (remaining columns are coordinates).
    """
    if format is None:
        format = detect_format(path)
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path, header=header, id_column=id_column)
    raise ValueError(f"unknown dataset format {format!r}")


def _load_binary(path) -> Dataset:
    hdr_len = len(MAGIC) + _HEADER.size
    with open(path, "rb") as f:
        head = f.read(hdr_len)
        if len(head) < hdr_len:
            raise DatasetFormatError(
                f"{path}: truncated header, got {len(head)} bytes, need {hdr_len}: the file ends at offset {len(head)}"
            )
        if head[: len(MAGIC)] != MAGIC:
            raise DatasetFormatError(f"{path}: bad magic bytes {head[:len(MAGIC)]!r} at offset 0")
        n, dims = _HEADER.unpack_from(head, len(MAGIC))
        if n == 0 or dims == 0:
            raise DatasetFormatError(f"{path}: header declares empty dataset ({n} x {dims}) at offset {len(MAGIC)}")
        expected = n * dims * 8
        payload = os.fstat(f.fileno()).st_size - hdr_len
        if payload != expected:
            raise DatasetFormatError(
                f"{path}: coordinate payload is {payload} bytes at offset {hdr_len}, expected {expected}"
            )
        coords = np.fromfile(f, dtype="<f8", count=n * dims).reshape(n, dims)
    try:
        return Dataset(coords)
    except ValueError as e:  # the finiteness check names the first bad row
        at = hdr_len + 8 * int(np.argmin(np.isfinite(coords).ravel()))
        raise DatasetFormatError(f"{path}: {e} at offset {at}") from None


def _load_csv(path, header: bool = False, id_column: int | None = None) -> Dataset:
    rows: list[list[float]] = []
    ids: list[int] = []
    width, lineno, seen = None, 0, set()
    # an undecodable byte becomes a lone surrogate, which the ASCII checks below name
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if header and lineno == 1:
                continue
            line = line.strip(string.whitespace)  # what float() strips; str.strip() also takes non-ASCII
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if id_column is not None and not 0 <= id_column < width:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: id column {id_column} out of range for {width} fields"
                    )
            elif len(fields) != width:
                raise DatasetFormatError(f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
            if id_column is not None:
                tok = fields.pop(id_column)
                try:  # int() would also take digit groups (1_000) and non-ASCII digits
                    ident = int(tok) if tok.isascii() and "_" not in tok else None
                except ValueError:
                    ident = None
                if ident is None or not _INT64_MIN <= ident <= _INT64_MAX:
                    raise DatasetFormatError(f"{path}: line {lineno}: id {tok!r} is not a decimal int64")
                ids.append(ident)
            if not line.isascii() or "_" in line:  # float() would take them; a bad id has raised above
                bad = next(tok for tok in fields if not tok.isascii() or "_" in tok)
                raise DatasetFormatError(f"{path}: line {lineno}: coordinate {bad!r} is not an ASCII decimal float")
            try:
                values = [float(tok) for tok in fields]
            except ValueError:
                raise DatasetFormatError(f"{path}: line {lineno}: unparseable value in {line!r}") from None
            for tok, v in zip(fields, values):
                if not np.isfinite(v):
                    raise DatasetFormatError(f"{path}: line {lineno}: non-finite value {tok!r}")
            if id_column is not None:  # after the coordinates, whose errors name the token
                if ident < 0:
                    raise DatasetFormatError(f"{path}: line {lineno}: id {ident} is negative; ids must be non-negative")
                if ident in seen:
                    raise DatasetFormatError(f"{path}: line {lineno}: id {ident} appears twice")
                seen.add(ident)
            rows.append(values)
    if not rows:
        raise DatasetFormatError(f"{path}: line {lineno + 1}: end of file before any data row")
    coords = np.array(rows, dtype=np.float64)
    try:
        return Dataset(coords, ids=np.array(ids, dtype=np.int64) if ids else None)
    except ValueError as e:
        raise DatasetFormatError(f"{path}: {e}") from None
