"""Table file adapters: CSV (canonical) and TBIN (columnar binary).

Cells are carried as raw lexical strings; ``None`` marks a missing cell.
The CSV adapter maps an empty field to missing on read and writes missing
as an empty field, so empty-string cells are not representable in CSV.
NUL is an ordinary character to the csv module, so CSV cells carry it.
The TBIN adapter stores an explicit per-cell missing flag and therefore
preserves the empty-string / missing distinction.

:data:`NUMBER_RE`, the one number grammar over cells, lives here too.

TBIN layout (little-endian, column-major):

    magic   8 bytes  b"TBIN0001"
    ncols   u32
    per column: u16 name length + UTF-8 name bytes
    nrows   u64
    per column, nrows cells: u8 flag (0 = missing, 1 = present),
        if present: u32 byte length + UTF-8 value bytes
"""

from __future__ import annotations

import csv
import re
import struct
from itertools import chain
from pathlib import Path
from typing import Iterable

from .errors import InputError

Cell = str | None

TBIN_MAGIC = b"TBIN0001"

# The one number grammar: sign, integer digits, fraction digits, exponent.
# At least one digit, before or after the point. ``\d`` is any Unicode
# decimal digit, as ``float`` and ``int`` accept.
NUMBER_RE = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?")


def read_table(path: str | Path, column: str | None = None) -> tuple[list[str], list[list[Cell]]]:
    """A table file's header and rows, every cell checked; with ``column``, each
    row keeps only that column's cell (none if the header lacks it)."""
    path = Path(path)
    return _by_suffix(path, _read_csv, _read_tbin)(path, column)


def write_table(path: str | Path, columns: Iterable[str], rows: Iterable[Iterable[Cell]]) -> None:
    path = Path(path)
    _by_suffix(path, _write_csv, _write_tbin)(path, columns, rows)


def _by_suffix(path: Path, for_csv, for_tbin):
    suffix = path.suffix.lower()
    if suffix in (".csv", ".tbin"):
        return for_csv if suffix == ".csv" else for_tbin
    raise InputError(f"unsupported table format: {path.name!r} (expected .csv or .tbin)")


def _kept(header: list[str], column: str | None) -> slice:
    """The cells of a row that read_table keeps: all, or ``column``'s if present."""
    i = header.index(column) if column in header else len(header)
    return slice(None) if column is None else slice(i, i + 1)


def _read_csv(path: Path, column: str | None) -> tuple[list[str], list[list[Cell]]]:
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read table file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"table file {path} is empty (header row required)")
            ncols, keep = len(header), _kept(header, column)
            rows = []
            for lineno, raw in enumerate(reader, start=2):
                if len(raw) != ncols:
                    raise InputError(
                        f"{path}:{lineno}: row has {len(raw)} cells, expected {ncols}"
                    )
                row = raw[keep]  # rebuilt only where an empty field marks a missing cell
                rows.append([cell or None for cell in row] if "" in row else row)
        except (UnicodeDecodeError, csv.Error) as exc:
            # A bad byte past the first read buffer surfaces here, mid-file.
            raise InputError(f"table file {path} is not valid UTF-8 CSV: {exc}") from exc
    return header, rows


def _write_csv(path: Path, columns: Iterable[str], rows: Iterable[Iterable[Cell]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in chain([columns], rows):
            writer.writerow(["" if cell is None else cell for cell in row])


def _read_tbin(path: Path, column: str | None) -> tuple[list[str], list[list[Cell]]]:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read table file {path}: {exc}") from exc
    if blob[:8] != TBIN_MAGIC:
        raise InputError(f"{path}: bad TBIN magic")
    try:
        return _parse_tbin(blob, column)
    except (struct.error, IndexError, ValueError) as exc:  # ValueError: also UnicodeDecodeError
        raise InputError(f"{path}: corrupt TBIN file: {exc}") from exc


def _parse_tbin(blob: bytes, column: str | None) -> tuple[list[str], list[list[Cell]]]:
    off = 8
    (ncols,) = struct.unpack_from("<I", blob, off)
    off += 4
    columns: list[str] = []
    for _ in range(ncols):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        columns.append(blob[off : off + nlen].decode("utf-8"))
        off += nlen
    (nrows,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if nrows and not ncols:  # no cell bytes bound the claim
        raise ValueError(f"{nrows} rows claimed with no columns")
    cols: list[list[Cell]] = []
    for _ in range(ncols):
        col: list[Cell] = []
        for _ in range(nrows):  # every cell decoded, the kept ones transposed to rows
            if blob[off]:
                (vlen,) = struct.unpack_from("<I", blob, off + 1)
                off += 5 + vlen
                col.append(blob[off - vlen : off].decode("utf-8"))
            else:
                off += 1
                col.append(None)
        cols.append(col)
    return columns, list(map(list, zip(*cols[_kept(columns, column)])))


def _write_tbin(path: Path, columns: Iterable[str], rows: Iterable[Iterable[Cell]]) -> None:
    columns = list(columns)
    materialized = [list(row) for row in rows]
    parts: list[bytes] = [TBIN_MAGIC, struct.pack("<I", len(columns))]
    for name in columns:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    parts.append(struct.pack("<Q", len(materialized)))
    for c in range(len(columns)):
        for row in materialized:
            cell = row[c]
            if cell is None:
                parts.append(b"\x00")
            else:
                raw = str(cell).encode("utf-8")
                parts.append(b"\x01" + struct.pack("<I", len(raw)) + raw)
    Path(path).write_bytes(b"".join(parts))
