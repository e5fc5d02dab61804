"""Inverted index from normalized cell values to (table, row) postings.

Built in one streaming pass per table file. Postings accumulate in a
bounded in-memory buffer; when the buffer exceeds the configured cap it
is sorted and spilled to a disk shard, and the shards are merged into the
final on-disk index (SSTable-style), so peak memory stays bounded by the
cap regardless of corpus size. Small corpora that never spill stay fully
in memory unless an index path is requested.

On-disk index layout (little-endian), version 1:

    header    magic ``TABAUDIX`` (8 bytes), u16 version,
              u64 postings_offset, u64 postings_end,
              u64 directory_offset, u64 directory_count,
              u64 catalog_offset, u64 catalog_length
    postings  records sorted by normalized value (code-point order):
              u32 value_len, value UTF-8 bytes, u32 count,
              count x (u32 table_index, u32 row_id)
    directory every 64th record: u32 value_len, value bytes, u64 offset
              (sparse directory; lookups bisect it, then scan <= 64 records)
    catalog   UTF-8 JSON: corpus_id, table list (id, columns, row_count),
              totals, normalization settings, build statistics

An existing index file is reopened with :meth:`CorpusIndex.load`, so
scans resume without re-indexing. The index stores normalized values
only; original lexical forms are re-read from the source tables when
evidence is rendered (:meth:`CorpusIndex.read_row`).
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import logging
import mmap
import os
import struct
import tempfile
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..errors import InputError
from ..tableio import Cell, _read_tbin
from .normalize import normalize_cell

log = logging.getLogger("tabaudit.contam")

MAGIC = b"TABAUDIX"
VERSION = 1
_HEADER = struct.Struct("<8sH6Q")
DIR_STRIDE = 64

DEFAULT_FILTERS = ("*.csv", "*.tbin")
DEFAULT_MAX_BUFFERED = 2_000_000

_ROW_CACHE_TABLES = 4


@dataclass(frozen=True)
class TableInfo:
    table_id: str  # relative POSIX path from the corpus root
    columns: tuple[str, ...]
    row_count: int


class CorpusIndex:
    """Immutable query interface over an indexed corpus.

    Backed either by an in-memory postings dict or by the on-disk format
    above (mmap'ed; reads are thread-safe).
    """

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
        postings: dict[str, list[tuple[int, int]]] | None = None,
        reader: "_FileReader | None" = None,
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
        self._postings = postings
        self._reader = reader
        self._row_cache: dict[str, list[list[Cell]]] = {}

    # -- queries ----------------------------------------------------------

    def normalize(self, cell) -> str:
        return normalize_cell(cell, fold_dates=self.fold_dates)

    def lookup(self, normalized_value: str) -> list[tuple[int, int]]:
        """Postings for a normalized value: (table_index, row_id) pairs."""
        if self._postings is not None:
            return list(self._postings.get(normalized_value, ()))
        assert self._reader is not None
        return self._reader.lookup(normalized_value)

    def frequency(self, normalized_value: str) -> int:
        """Number of corpus rows containing the value (corpus frequency)."""
        if self._postings is not None:
            return len(self._postings.get(normalized_value, ()))
        assert self._reader is not None
        return self._reader.frequency(normalized_value)

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
            _, rows = _read_table_rows(self.corpus_root / info.table_id)
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
        if self._postings is None:
            raise InputError("index is already file-backed; copy the file instead")
        records = (
            (value, sorted(self._postings[value]))
            for value in sorted(self._postings)
        )
        _write_index_file(Path(path), records, self._catalog_doc())

    @classmethod
    def load(cls, path: str | Path, corpus_root: str | Path | None = None) -> "CorpusIndex":
        reader = _FileReader(Path(path))
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
            raise InputError(f"index file {path} is corrupt: malformed catalog {exc!r}") from exc

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()

    def _catalog_doc(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "corpus_root": str(self.corpus_root),
            "tables": [
                {"id": t.table_id, "columns": list(t.columns), "row_count": t.row_count}
                for t in self.tables
            ],
            "total_rows": self.total_rows,
            "files_present": self.files_present,
            "files_indexed": self.files_indexed,
            "fold_dates": self.fold_dates,
            "build_stats": self.build_stats,
        }


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
    toward the coverage denominator). With an ``index_path``, or whenever
    the posting buffer spills, the result is the on-disk format; otherwise
    the index stays in memory.
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
            columns, rows = _read_table_rows(corpus_root / rel)
        except (InputError, OSError, UnicodeDecodeError) as exc:
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
            for row_id, row in enumerate(rows):
                values = {
                    normalize_cell(cell, fold_dates=fold_dates)
                    for cell in row
                    if cell is not None
                }
                for value in values:
                    builder.add(value, tid, row_id)
            total_rows += len(rows)
    finally:
        if pool is not None:
            pool.shutdown()

    index = CorpusIndex(
        corpus_id=corpus_id or corpus_root.name,
        corpus_root=str(corpus_root),
        tables=tables,
        total_rows=total_rows,
        files_present=len(files),
        files_indexed=len(files) - skipped,
        fold_dates=fold_dates,
        build_stats={
            "postings": builder.added,
            "spills": builder.spills,
            "files_skipped": skipped,
            "max_buffered_postings": max_buffered_postings,
        },
    )

    if index_path is None and builder.spills == 0:
        index._postings = builder.into_memory()
        return index

    if index_path is None:
        # Spilled with nowhere to put the merged index: own a temp file so
        # memory stays bounded anyway.
        tmp = tempfile.NamedTemporaryFile(
            prefix="tabaudit-idx-", suffix=".idx", delete=False
        )
        tmp.close()
        index_path = tmp.name
    _write_index_file(Path(index_path), builder.merged_records(), index._catalog_doc())
    builder.cleanup()
    index._reader = _FileReader(Path(index_path))
    return index


class _PostingsBuilder:
    """Buffers ``value\\ttable\\trow`` lines, spilling sorted shards to disk."""

    def __init__(self, max_buffered: int) -> None:
        self.max_buffered = max(1, max_buffered)
        self.buffer: list[str] = []
        self.shard_dir: Path | None = None
        self.shards: list[Path] = []
        self.added = 0
        self.spills = 0

    def add(self, value: str, table_idx: int, row_id: int) -> None:
        self.buffer.append(f"{value}\t{table_idx}\t{row_id}\n")
        self.added += 1
        if len(self.buffer) >= self.max_buffered:
            self._spill()

    def _spill(self) -> None:
        if self.shard_dir is None:
            self.shard_dir = Path(tempfile.mkdtemp(prefix="tabaudit-shards-"))
        self.buffer.sort()
        shard = self.shard_dir / f"shard-{len(self.shards):05d}.tsv"
        with open(shard, "w", encoding="utf-8") as handle:
            handle.writelines(self.buffer)
        self.shards.append(shard)
        self.buffer.clear()
        self.spills += 1

    def into_memory(self) -> dict[str, list[tuple[int, int]]]:
        postings: dict[str, list[tuple[int, int]]] = {}
        for line in self.buffer:
            value, tid, rid = line.rstrip("\n").split("\t")
            postings.setdefault(value, []).append((int(tid), int(rid)))
        self.buffer.clear()
        return postings

    def merged_records(self) -> Iterator[tuple[str, list[tuple[int, int]]]]:
        """All postings grouped by value in sorted order, duplicates removed."""
        self.buffer.sort()
        streams: list[Iterable[str]] = [self.buffer]
        handles = [open(s, "r", encoding="utf-8") for s in self.shards]
        streams.extend(handles)
        try:
            merged = heapq.merge(*streams)
            for value, lines in groupby(merged, key=lambda ln: ln.split("\t", 1)[0]):
                pairs = set()
                for line in lines:
                    _, tid, rid = line.rstrip("\n").split("\t")
                    pairs.add((int(tid), int(rid)))
                yield value, sorted(pairs)
        finally:
            for handle in handles:
                handle.close()

    def cleanup(self) -> None:
        for shard in self.shards:
            shard.unlink(missing_ok=True)
        if self.shard_dir is not None:
            try:
                self.shard_dir.rmdir()
            except OSError:
                pass
        self.shards.clear()
        self.buffer.clear()


def _write_index_file(
    path: Path,
    records: Iterable[tuple[str, list[tuple[int, int]]]],
    catalog_doc: dict,
) -> None:
    with open(path, "wb") as out:
        out.write(_HEADER.pack(MAGIC, VERSION, 0, 0, 0, 0, 0, 0))
        postings_offset = out.tell()
        directory: list[tuple[bytes, int]] = []
        n = 0
        for value, pairs in records:
            offset = out.tell()
            vb = value.encode("utf-8")
            if n % DIR_STRIDE == 0:
                directory.append((vb, offset))
            out.write(struct.pack("<I", len(vb)))
            out.write(vb)
            out.write(struct.pack("<I", len(pairs)))
            out.write(struct.pack(f"<{2 * len(pairs)}I", *[x for pair in pairs for x in pair]))
            n += 1
        postings_end = out.tell()
        directory_offset = out.tell()
        for vb, offset in directory:
            out.write(struct.pack("<I", len(vb)))
            out.write(vb)
            out.write(struct.pack("<Q", offset))
        catalog_offset = out.tell()
        catalog = json.dumps(catalog_doc, sort_keys=True).encode("utf-8")
        out.write(catalog)
        out.seek(0)
        out.write(
            _HEADER.pack(
                MAGIC,
                VERSION,
                postings_offset,
                postings_end,
                directory_offset,
                len(directory),
                catalog_offset,
                len(catalog),
            )
        )


class _FileReader:
    """mmap-backed reader for the on-disk index format."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise InputError(f"cannot open index file {path}: {exc}") from exc
        try:
            header = self._file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise InputError(f"index file {path} is truncated")
            (magic, version, self.postings_offset, self.postings_end,
             dir_offset, dir_count, cat_offset, cat_len) = _HEADER.unpack(header)
            if magic != MAGIC:
                raise InputError(f"index file {path}: bad magic bytes")
            if version != VERSION:
                raise InputError(f"index file {path}: unsupported version {version}")
            size = os.fstat(self._file.fileno()).st_size
            if not (_HEADER.size <= self.postings_offset <= self.postings_end
                    <= dir_offset <= cat_offset <= cat_offset + cat_len <= size):
                raise InputError(f"index file {path} is truncated or corrupt")
            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except InputError:
            self._file.close()
            raise
        try:
            self._dir_values, self._dir_offsets = self._read_directory(dir_offset, dir_count)
            self.catalog = json.loads(self._mm[cat_offset : cat_offset + cat_len].decode("utf-8"))
        except (struct.error, ValueError) as exc:  # incl. UnicodeDecodeError, JSONDecodeError
            self.close()
            raise InputError(f"index file {path} is corrupt: {exc}") from exc

    def _read_directory(self, off: int, count: int) -> tuple[list[str], list[int]]:
        values: list[str] = []
        offsets: list[int] = []
        for _ in range(count):
            (vlen,) = struct.unpack_from("<I", self._mm, off)
            off += 4
            values.append(self._mm[off : off + vlen].decode("utf-8"))
            off += vlen
            (rec_off,) = struct.unpack_from("<Q", self._mm, off)
            off += 8
            offsets.append(rec_off)
        return values, offsets

    def _scan(self, value: str) -> tuple[int, int] | None:
        """Locate a value's record: returns (count, postings offset) or None."""
        if not self._dir_values:
            return None
        block = bisect_right(self._dir_values, value) - 1
        if block < 0:
            return None
        off = self._dir_offsets[block]
        for _ in range(DIR_STRIDE):
            if off >= self.postings_end:
                return None
            (vlen,) = struct.unpack_from("<I", self._mm, off)
            rec_value = self._mm[off + 4 : off + 4 + vlen].decode("utf-8")
            (count,) = struct.unpack_from("<I", self._mm, off + 4 + vlen)
            if rec_value == value:
                return count, off + 8 + vlen
            if rec_value > value:
                return None
            off += 8 + vlen + 8 * count
        return None

    def lookup(self, value: str) -> list[tuple[int, int]]:
        hit = self._scan(value)
        if hit is None:
            return []
        count, off = hit
        flat = struct.unpack_from(f"<{2 * count}I", self._mm, off)
        return [(flat[i], flat[i + 1]) for i in range(0, 2 * count, 2)]

    def frequency(self, value: str) -> int:
        hit = self._scan(value)
        return 0 if hit is None else hit[0]

    def close(self) -> None:
        self._mm.close()
        self._file.close()


def _read_table_rows(path: Path) -> tuple[list[str], list[list[Cell]]]:
    """Whole-file table read used during indexing and evidence rendering.

    CSV files are decoded in one pass so a bad byte rejects the file up
    front instead of poisoning a half-indexed table.
    """
    suffix = path.suffix.lower()
    if suffix == ".tbin":
        return _read_tbin(path)
    if suffix != ".csv":
        raise InputError(f"unsupported corpus table format: {path.name!r}")
    text = path.read_bytes().decode("utf-8")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"table file {path} is empty (header row required)") from None
    ncols = len(header)
    rows: list[list[Cell]] = []
    for lineno, raw in enumerate(reader, start=2):
        if len(raw) != ncols:
            raise InputError(f"{path}:{lineno}: row has {len(raw)} cells, expected {ncols}")
        rows.append([cell if cell != "" else None for cell in raw])
    return header, rows
