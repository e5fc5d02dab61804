"""Inverted index from normalized cell values to (table, row) postings.

Built in one streaming pass per table file. Each posting is buffered as
one bytes key, ``value UTF-8 + NUL + %08x table + %08x row + newline``;
normalized values hold no NUL, so keys sort by value, then table, then
row. When the buffer reaches the configured cap it is sorted and spilled
to an anonymous shard file, and at the end the shards and the buffer are
merged into the index file (sorted runs merged into one file, as in a
log-structured merge tree), so peak memory stays bounded by the cap
regardless of corpus size.

The build normalizes each distinct cell once per table (a table's cells
repeat, and its map from raw cell to key bytes is dropped with the
table), and assembles one record per distinct value, decoding the pairs
of all its postings in one step.

Every index is the on-disk format below. With an index path it is
written to a temporary file beside that path and renamed into place, so
a failed build leaves an existing index untouched; without one it lives
in an anonymous temporary file that disappears when the index is closed.

On-disk index layout (little-endian), version 2:

    header    magic ``TABAUDIX`` (8 bytes), u16 version,
              u64 postings_offset, u64 postings_end,
              u64 directory_offset, u64 directory_count,
              u64 catalog_offset, u64 catalog_length
    postings  records sorted by normalized value (UTF-8 byte order, which
              is code-point order):
              u32 value_len, value UTF-8 bytes, u32 count,
              count x (u32 table_index, u32 row_id), sorted by
              (table_index, row_id) without repeats
    directory u32 value_len, value bytes, u64 offset for every 16th record
              (sparse directory; a lookup bisects it, then walks records up
              to the next entry's offset, so any stride reads the same)
    catalog   UTF-8 JSON: corpus_id, table list (id, columns, row_count),
              totals, normalization settings, build statistics

Version 2 keeps version 1's layout. Its stored values differ only for
numbers, which version 2 canonicalizes by text (see :mod:`.normalize`):
a number of more than 60 significant digits is not rounded, and an
integer of more than 51 digits that ends in 0 has the form the same
value has when written with a point or an exponent. Looking those
values up in a version-1 file would miss silently, so the reader refuses
version 1 (an ``InputError``); such an index must be rebuilt.

Every writer of this format has kept each record's pairs in
(table_index, row_id) order. The reader relies on it:
:meth:`CorpusIndex.postings` returns a view of one record in the mmap,
whose ``in`` test bisects the pairs, so "row (t, r) holds value v" is
answered from the index alone, without re-reading the row's table.

An existing index file is reopened with :meth:`CorpusIndex.load`, so
scans resume without re-indexing. The index stores normalized values
only; original lexical forms are re-read from the source tables when
evidence is rendered (:meth:`CorpusIndex.read_row`).
"""

from __future__ import annotations

import heapq
import json
import logging
import mmap
import os
import struct
import tempfile
from array import array
from binascii import a2b_hex
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator, Sequence

from ..defaults import MAX_BUFFERED as DEFAULT_MAX_BUFFERED
from ..errors import InputError
from ..tableio import Cell, read_table
from .normalize import normalize_cell

log = logging.getLogger("tabaudit.contam")

MAGIC = b"TABAUDIX"
VERSION = 2
_HEADER = struct.Struct("<8sH6Q")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_PAIR = struct.Struct("<II")
DIR_STRIDE = 16

DEFAULT_FILTERS = ("*.csv", "*.tbin")

_ROW_CACHE_TABLES = 4

# A posting key ends in NUL, 16 hex digits and a newline.
_KEY_SUFFIX = 18
_value_of = itemgetter(slice(None, -_KEY_SUFFIX))

# Records joined per write of the postings section.
_WRITE_BATCH = 1024


@dataclass(frozen=True)
class TableInfo:
    table_id: str  # relative POSIX path from the corpus root
    columns: tuple[str, ...]
    row_count: int


class Postings:
    """One value's postings, read in place from the index mmap.

    ``len`` is the value's corpus frequency, iteration yields the
    (table_index, row_id) pairs in sorted order, and ``(t, r) in view``
    bisects them. Nothing is copied, so a view of a very common value
    costs no more memory than one of a rare value. A view is valid until
    its index is closed.
    """

    __slots__ = ("_mm", "_offset", "_count")

    def __init__(self, mm: mmap.mmap | bytes, offset: int, count: int) -> None:
        self._mm = mm
        self._offset = offset
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return _PAIR.iter_unpack(self._mm[self._offset : self._offset + 8 * self._count])

    def __contains__(self, pair: tuple[int, int]) -> bool:
        mm, offset, unpack = self._mm, self._offset, _PAIR.unpack_from
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            here = unpack(mm, offset + 8 * mid)
            if here < pair:
                lo = mid + 1
            elif here == pair:
                return True
            else:
                hi = mid
        return False


_NO_POSTINGS = Postings(b"", 0, 0)


class CorpusIndex:
    """Immutable query interface over an index file (mmap'ed; reads are thread-safe)."""

    def __init__(
        self,
        *,
        corpus_id: str,
        corpus_root: str,
        tables: list[TableInfo],
        total_rows: int,
        files_present: int,
        files_indexed: int,
        fold_dates: bool,
        build_stats: dict | None = None,
        reader: "_FileReader",
    ) -> None:
        self.corpus_id = corpus_id
        self.corpus_root = Path(corpus_root)
        self.tables = tables
        self.table_index = {t.table_id: i for i, t in enumerate(tables)}
        self.total_rows = total_rows
        self.files_present = files_present
        self.files_indexed = files_indexed
        self.fold_dates = fold_dates
        self.build_stats = build_stats or {}
        self._reader = reader
        self._row_cache: dict[str, list[list[Cell]]] = {}

    # -- queries ----------------------------------------------------------

    def normalize(self, cell) -> str:
        return normalize_cell(cell, fold_dates=self.fold_dates)

    def postings(self, normalized_value: str) -> Postings:
        """Read-only view of a value's (table_index, row_id) pairs in the index."""
        return self._reader.postings(normalized_value)

    def lookup(self, normalized_value: str) -> list[tuple[int, int]]:
        """Postings for a normalized value: (table_index, row_id) pairs."""
        return list(self.postings(normalized_value))

    def frequency(self, normalized_value: str) -> int:
        """Number of corpus rows containing the value (corpus frequency)."""
        return len(self.postings(normalized_value))

    def coverage(self) -> float:
        """Fraction of corpus files actually indexed."""
        if self.files_present == 0:
            return 0.0
        return self.files_indexed / self.files_present

    def table_info(self, table_ref: int | str) -> TableInfo:
        if isinstance(table_ref, str):
            idx = self.table_index.get(table_ref)
            if idx is None:
                raise InputError(f"unknown table {table_ref!r}")
            return self.tables[idx]
        return self.tables[table_ref]

    def read_row(self, table_ref: int | str, row_id: int) -> dict[str, Cell]:
        """Re-read one corpus row (lexical cells) from its source file."""
        info = self.table_info(table_ref)
        rows = self._row_cache.get(info.table_id)
        if rows is None:
            _, rows = read_table(self.corpus_root / info.table_id)
            if len(self._row_cache) >= _ROW_CACHE_TABLES:
                self._row_cache.pop(next(iter(self._row_cache)))
            self._row_cache[info.table_id] = rows
        if not 0 <= row_id < len(rows):
            raise InputError(
                f"row {row_id} no longer readable from table {info.table_id!r}"
            )
        return dict(zip(info.columns, rows[row_id]))

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Copy the index file to ``path``, replacing any file there atomically."""
        with _replacing(Path(path)) as out:
            out.write(self._reader.mm)
        out.close()

    @classmethod
    def load(cls, path: str | Path, corpus_root: str | Path | None = None) -> "CorpusIndex":
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise InputError(f"cannot open index file {path}: {exc}") from exc
        return cls._open(handle, str(path), corpus_root)

    @classmethod
    def _open(
        cls, handle: BinaryIO, name: str, corpus_root: str | Path | None = None
    ) -> "CorpusIndex":
        """Index over an open index file; takes ownership of ``handle``."""
        reader = _FileReader(handle, name)
        doc = reader.catalog
        try:
            tables = [
                TableInfo(t["id"], tuple(t["columns"]), t["row_count"])
                for t in doc["tables"]
            ]
            return cls(
                corpus_id=doc["corpus_id"],
                corpus_root=str(corpus_root or doc["corpus_root"]),
                tables=tables,
                total_rows=doc["total_rows"],
                files_present=doc["files_present"],
                files_indexed=doc["files_indexed"],
                fold_dates=doc.get("fold_dates", False),
                build_stats=doc.get("build_stats", {}),
                reader=reader,
            )
        except (KeyError, TypeError) as exc:
            reader.close()
            raise InputError(f"index file {name} is corrupt: malformed catalog {exc!r}") from exc

    def close(self) -> None:
        self._reader.close()


def build_index(
    corpus_root: str | Path,
    filters: Sequence[str] = DEFAULT_FILTERS,
    *,
    corpus_id: str | None = None,
    index_path: str | Path | None = None,
    max_buffered_postings: int = DEFAULT_MAX_BUFFERED,
    fold_dates: bool = False,
    workers: int = 1,
) -> CorpusIndex:
    """Index every table file under ``corpus_root`` matching ``filters``.

    Unreadable or non-UTF-8 files are logged and skipped (they still count
    toward the coverage denominator). The index is written to
    ``index_path``, or without one to an anonymous temporary file.
    """
    corpus_root = Path(corpus_root)
    if not corpus_root.is_dir():
        raise InputError(f"corpus root {corpus_root} is not a directory")
    files = sorted(
        {p.relative_to(corpus_root).as_posix() for pat in filters for p in corpus_root.rglob(pat)}
    )
    if not files:
        raise InputError(f"empty corpus: no files matching {list(filters)} under {corpus_root}")

    builder = _PostingsBuilder(max_buffered_postings)
    tables: list[TableInfo] = []
    total_rows = 0
    skipped = 0

    def parse(rel: str):
        try:
            columns, rows = read_table(corpus_root / rel)
        except (InputError, OSError) as exc:
            return rel, None, None, exc
        return rel, columns, rows, None

    mapper: Iterable
    if workers > 1:
        pool = ThreadPoolExecutor(max_workers=workers)
        mapper = pool.map(parse, files)
    else:
        pool = None
        mapper = map(parse, files)
    try:
        for rel, columns, rows, exc in mapper:
            if exc is not None:
                log.warning("skipping unreadable corpus file %s: %s", rel, exc)
                skipped += 1
                continue
            tid = len(tables)
            tables.append(TableInfo(rel, tuple(columns), len(rows)))
            # Each distinct cell is normalized once per table; the map
            # goes with the table, so it is no larger than ``rows``.
            keys = {
                cell: normalize_cell(cell, fold_dates=fold_dates).encode("utf-8")
                for cell in set(chain.from_iterable(rows))
                if cell is not None
            }
            for row_id, row in enumerate(rows):
                builder.add_row({keys[cell] for cell in row if cell is not None}, tid, row_id)
            total_rows += len(rows)
    finally:
        if pool is not None:
            pool.shutdown()

    catalog = {
        "corpus_id": corpus_id or corpus_root.name,
        "corpus_root": str(corpus_root),
        "tables": [
            {"id": t.table_id, "columns": list(t.columns), "row_count": t.row_count}
            for t in tables
        ],
        "total_rows": total_rows,
        "files_present": len(files),
        "files_indexed": len(files) - skipped,
        "fold_dates": fold_dates,
        "build_stats": {
            "postings": builder.added,
            "spills": len(builder.shards),
            "files_skipped": skipped,
            "max_buffered_postings": max_buffered_postings,
        },
    }
    try:
        if index_path is None:
            out = tempfile.TemporaryFile(prefix="tabaudit-idx-")
            try:
                _write_index(out, builder.sorted_keys(), catalog)
            except BaseException:
                out.close()
                raise
        else:
            with _replacing(Path(index_path)) as out:
                _write_index(out, builder.sorted_keys(), catalog)
    finally:
        builder.close()
    return CorpusIndex._open(out, str(index_path or "<temporary index>"))


class _PostingsBuilder:
    """Buffers one sortable bytes key per posting, spilling sorted runs to disk."""

    def __init__(self, max_buffered: int) -> None:
        self.max_buffered = max(1, max_buffered)
        self.buffer: list[bytes] = []
        self.shards: list[BinaryIO] = []
        self.added = 0

    def add_row(self, values: Collection[bytes], table_idx: int, row_id: int) -> None:
        """Buffer one row's distinct UTF-8 values (so no key repeats in the merge).

        Every ``max_buffered`` postings are spilled as one run, wherever
        the row boundaries fall.
        """
        suffix = b"\x00%08x%08x\n" % (table_idx, row_id)
        self.buffer += [value + suffix for value in values]
        self.added += len(values)
        while len(self.buffer) >= self.max_buffered:
            self._spill()

    def _spill(self) -> None:
        run = self.buffer[: self.max_buffered]
        del self.buffer[: self.max_buffered]
        run.sort()
        shard = tempfile.TemporaryFile(prefix="tabaudit-shard-")
        self.shards.append(shard)
        shard.writelines(run)
        shard.seek(0)

    def sorted_keys(self) -> Iterator[bytes]:
        """Every key, in sorted order, from the shards and the buffer."""
        self.buffer.sort()
        return heapq.merge(*self.shards, self.buffer)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        self.buffer.clear()


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A new file beside ``path`` that replaces it when the block succeeds.

    On failure the new file is removed and ``path`` is left as it was. The
    handle stays open (positioned after the writes) for the caller.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        handle = open(tmp, "w+b")
    except OSError as exc:
        raise InputError(f"cannot write index file {path}: {exc}") from exc
    try:
        yield handle
        handle.flush()
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise


def _write_index(out: BinaryIO, keys: Iterable[bytes], catalog_doc: dict) -> None:
    """Write the index file for sorted posting ``keys`` to ``out``."""
    out.write(bytes(_HEADER.size))
    offset = _HEADER.size
    directory: list[bytes] = []
    batch: list[bytes] = []
    for n, (value, group) in enumerate(groupby(keys, key=_value_of)):
        # The keys' hex suffixes are big-endian u32 pairs; decode them all
        # at once and reverse each u32's bytes to get the stored form
        # (typecode "I" is 4 bytes wherever CPython runs).
        pairs = array("I", a2b_hex(b"".join([key[-17:-1] for key in group])))
        pairs.byteswap()
        head = _U32.pack(len(value)) + value
        if n % DIR_STRIDE == 0:
            directory.append(head + _U64.pack(offset))
        record = head + _U32.pack(len(pairs) // 2) + pairs.tobytes()
        batch.append(record)
        offset += len(record)
        if len(batch) == _WRITE_BATCH:
            out.write(b"".join(batch))
            batch.clear()
    out.write(b"".join(batch))
    directory_blob = b"".join(directory)
    catalog = json.dumps(catalog_doc, sort_keys=True).encode("utf-8")
    out.write(directory_blob)
    out.write(catalog)
    out.seek(0)
    out.write(
        _HEADER.pack(
            MAGIC,
            VERSION,
            _HEADER.size,
            offset,
            offset,
            len(directory),
            offset + len(directory_blob),
            len(catalog),
        )
    )
    out.flush()


class _FileReader:
    """mmap-backed reader for the on-disk index format; owns its file handle."""

    def __init__(self, handle: BinaryIO, name: str) -> None:
        self._file = handle
        self.mm: mmap.mmap | None = None
        try:
            self._parse(name)
        except BaseException:
            self.close()
            raise

    def _parse(self, name: str) -> None:
        size = os.fstat(self._file.fileno()).st_size
        if size < _HEADER.size:
            raise InputError(f"index file {name} is truncated")
        self.mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        (magic, version, postings_offset, self.postings_end,
         dir_offset, dir_count, cat_offset, cat_len) = _HEADER.unpack_from(self.mm)
        if magic != MAGIC:
            raise InputError(f"index file {name}: bad magic bytes")
        if version != VERSION:
            raise InputError(f"index file {name}: unsupported version {version}")
        if not (_HEADER.size <= postings_offset <= self.postings_end
                <= dir_offset <= cat_offset <= cat_offset + cat_len <= size):
            raise InputError(f"index file {name} is truncated or corrupt")
        try:
            self._dir_values, self._dir_offsets = self._read_directory(dir_offset, dir_count)
            self.catalog = json.loads(self.mm[cat_offset : cat_offset + cat_len].decode("utf-8"))
        except (struct.error, ValueError) as exc:  # incl. UnicodeDecodeError, JSONDecodeError
            raise InputError(f"index file {name} is corrupt: {exc}") from exc

    def _read_directory(self, off: int, count: int) -> tuple[list[bytes], list[int]]:
        values: list[bytes] = []
        offsets: list[int] = []
        for _ in range(count):
            (vlen,) = _U32.unpack_from(self.mm, off)
            off += 4
            values.append(self.mm[off : off + vlen])
            off += vlen
            (rec_off,) = _U64.unpack_from(self.mm, off)
            off += 8
            offsets.append(rec_off)
        return values, offsets

    def _scan(self, value: str) -> tuple[int, int] | None:
        """Locate a value's record: returns (count, postings offset) or None."""
        key = value.encode("utf-8")
        offsets, mm = self._dir_offsets, self.mm
        block = bisect_right(self._dir_values, key) - 1
        if block < 0:
            return None
        off = offsets[block]
        end = offsets[block + 1] if block + 1 < len(offsets) else self.postings_end
        while off < end:
            (vlen,) = _U32.unpack_from(mm, off)
            off += 4
            rec_value = mm[off : off + vlen]
            off += vlen
            (count,) = _U32.unpack_from(mm, off)
            if rec_value == key:
                return count, off + 4
            if rec_value > key:
                return None
            off += 4 + 8 * count
        return None

    def postings(self, value: str) -> Postings:
        hit = self._scan(value)
        if hit is None:
            return _NO_POSTINGS
        count, off = hit
        return Postings(self.mm, off, count)

    def close(self) -> None:
        if self.mm is not None:
            self.mm.close()
        self._file.close()
