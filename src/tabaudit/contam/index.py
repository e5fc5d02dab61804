"""Inverted index from normalized cell values to (table, row) postings.

Built in one streaming pass per table file. Each posting is one bytes
key, ``value UTF-8 + NUL + %08x table + %08x row + newline``; normalized
values hold no NUL, so keys sort by value, then table, then row. The
buffer sorts every ``_RUN_KEYS`` keys into one joined bytes run and holds
the keys added since as a list. Every cap's worth of postings, the runs
and the list are merged into a shard file, and at the end the shards,
runs and list are merged into the index file (sorted runs merged into
one, as in a log-structured merge tree).

Shards are kept by level. A spill writes a level-0 shard, and whenever
the newest ``_FAN_IN`` shards share a level they are merged into one
shard of the next level and closed. So between spills at most
``_FAN_IN - 1`` shards of each level are open, and the build's open
files grow with the logarithm of the spills, base ``_FAN_IN``, not with
the spills; keys are unique, so the folds leave the index bytes as
they are.

Both use one merge. It reads each source a chunk at a time (a shard or
run ``_READ_CHUNK`` bytes of keys, the list ``_WRITE_BATCH`` keys); each
round sorts every key at or below the smallest last-read key with one
``list.sort`` and yields them as a batch.

The build reads one table file at a time, in sorted path order, and
works a table and a batch at a time. Each table's values come from
:func:`.normalize.table_values`, its distinct cells normalized in one
call (a table's cells repeat, and its map from raw cell to key bytes is
dropped with the table), and all of the table's keys are made in one
step before they are buffered. The writer decodes a batch's pairs in one
step, and assembles and writes its records together. Peak memory is
therefore the cap in key bytes, plus one run's keys as objects, plus one
table's rows and postings, plus one chunk per merge source (and the
largest record), whatever the corpus size.

Every index is the on-disk format below. With an index path it is
written to a temporary file beside that path and renamed into place, so
a failed build leaves an existing index untouched; without one it lives
in an anonymous temporary file that disappears when the index is closed.

A restricted build (``build_index(only_values=...)``) is the same
per-table pass with each table's key map filtered to the given
normalized values, so it buffers each of them with all of its postings,
and still catalogues every table and row. Any other value
reads as absent, so a restricted index is never written under a name,
where a later scan would take it for a clean corpus: ``build_index``
refuses it an ``index_path``, and :meth:`CorpusIndex.save` refuses it.

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
              totals, normalization settings, build statistics, and
              ``restricted: true`` in a restricted build

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
answered from the index alone, without re-reading the row's table. A
scan asks nothing else of the corpus, so it needs only the index file.

An existing index file is reopened with :meth:`CorpusIndex.load`, so
scans resume without re-indexing. The index stores normalized values
only. :meth:`CorpusIndex.read_row` re-reads a row's lexical cells from
its source table; only the INFO-level near-miss log of the search calls
it, so only a verbose scan needs the corpus files where they were
indexed.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import struct
import tempfile
from array import array
from binascii import a2b_hex
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from io import BytesIO
from itertools import accumulate, chain, compress, count, islice
from operator import add, itemgetter, lt, ne
from pathlib import Path
from typing import AbstractSet, BinaryIO, Collection, Iterable, Iterator, Sequence

from ..defaults import MAX_BUFFERED as DEFAULT_MAX_BUFFERED
from ..errors import InputError
from ..tableio import Cell, read_table
from .normalize import normalize_cell, table_values

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
_hex_pairs_of = itemgetter(slice(1 - _KEY_SUFFIX, -1))

# A record's bytes besides its value and pairs: two u32 lengths.
_RECORD_OVERHEAD = 2 * _U32.size

# Buffered keys sorted and joined into one run.
_RUN_KEYS = 8192
# Unsealed buffered keys, and bytes of a run or shard, read per merge chunk.
_WRITE_BATCH = 1024
_READ_CHUNK = 4096
# Shards of one level merged into one shard of the next.
_FAN_IN = 16


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
    """An index file, mmap'ed and checked when it is opened.

    Queries are read-only, so they are thread-safe. The index takes
    ownership of the open ``handle`` and closes it in :meth:`close`, or
    at once if the file is refused.
    """

    def __init__(self, handle: BinaryIO, name: str) -> None:
        self._file = handle
        self._name = name
        self._mm: mmap.mmap | None = None
        self._row_cache: dict[int, list[list[Cell]]] = {}
        try:
            catalog = self._parse()
            self.tables = [
                TableInfo(t["id"], tuple(t["columns"]), t["row_count"])
                for t in catalog["tables"]
            ]
            self.corpus_id = catalog["corpus_id"]
            self.corpus_root = Path(str(catalog["corpus_root"]))
            self.total_rows = catalog["total_rows"]
            self.files_present = catalog["files_present"]
            self.files_indexed = catalog["files_indexed"]
            self.fold_dates = catalog["fold_dates"]
            self.build_stats = catalog["build_stats"]
            self.restricted = catalog.get("restricted", False)
            self.table_index = {t.table_id: i for i, t in enumerate(self.tables)}
        except (KeyError, TypeError) as exc:
            self.close()
            raise self._corrupt(f"malformed catalog {exc!r}") from exc
        except BaseException:
            self.close()
            raise

    def _corrupt(self, why: str) -> InputError:
        return InputError(f"index file {self._name} is corrupt: {why}")

    def _parse(self) -> dict:
        """Map the file, check its header and directory, and return its catalog."""
        name = self._name
        size = os.fstat(self._file.fileno()).st_size
        if size < _HEADER.size:
            raise InputError(f"index file {name} is truncated")
        mm = self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        (magic, version, postings_offset, self._postings_end,
         off, dir_count, cat_offset, cat_len) = _HEADER.unpack_from(mm)
        if magic != MAGIC:
            raise InputError(f"index file {name}: bad magic bytes")
        if version != VERSION:
            raise InputError(f"index file {name}: unsupported version {version}")
        if not (_HEADER.size <= postings_offset <= self._postings_end
                <= off <= cat_offset <= cat_offset + cat_len <= size):
            raise InputError(f"index file {name} is truncated or corrupt")
        values: list[bytes] = []
        offsets: list[int] = []
        try:
            for _ in range(dir_count):
                (vlen,) = _U32.unpack_from(mm, off)
                values.append(mm[off + 4 : off + 4 + vlen])
                (rec_off,) = _U64.unpack_from(mm, off + 4 + vlen)
                offsets.append(rec_off)
                off += 12 + vlen
            catalog = json.loads(mm[cat_offset : cat_offset + cat_len].decode("utf-8"))
        # ValueError: also UnicodeDecodeError; RecursionError: a too deeply nested catalog.
        except (struct.error, ValueError, RecursionError) as exc:
            raise self._corrupt(str(exc)) from exc
        # The directory starts at the first record, and its values and
        # offsets ascend within the postings section; otherwise a lookup
        # would walk the wrong records and miss values the file holds.
        if offsets[:1] != ([postings_offset] if postings_offset < self._postings_end else []):
            raise self._corrupt("directory does not start at the first record")
        if not (all(map(lt, values, values[1:])) and all(map(lt, offsets, offsets[1:]))
                and (not offsets or offsets[-1] < self._postings_end)):
            raise self._corrupt("directory is out of order or outside the postings")
        self._dir_values, self._dir_offsets = values, offsets
        return catalog

    # -- queries ----------------------------------------------------------

    def normalize(self, cell) -> str:
        return normalize_cell(cell, fold_dates=self.fold_dates)

    def postings(self, normalized_value: str) -> Postings:
        """Read-only view of a value's (table_index, row_id) pairs in the index.

        The directory block that can hold the value is walked record by
        record. A record that runs past the end of its block means a
        corrupt length or count, and is an ``InputError``.
        """
        key = normalized_value.encode("utf-8")
        offsets, mm = self._dir_offsets, self._mm
        block = bisect_right(self._dir_values, key) - 1
        if block < 0:
            return _NO_POSTINGS
        off = offsets[block]
        end = offsets[block + 1] if block + 1 < len(offsets) else self._postings_end
        unpack = _U32.unpack_from
        try:
            while off < end:
                (vlen,) = unpack(mm, off)
                stop = off + 4 + vlen
                (count,) = unpack(mm, stop)
                following = stop + 4 + 8 * count
                if following > end:
                    raise self._corrupt(f"record at byte {off} runs past its block")
                rec_value = mm[off + 4 : stop]
                if rec_value == key:
                    return Postings(mm, stop + 4, count)
                if rec_value > key:
                    return _NO_POSTINGS
                off = following
        except struct.error:  # a length that points past the end of the file
            raise self._corrupt(f"record at byte {off} runs past its block") from None
        return _NO_POSTINGS

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

    def read_row(self, table: int, row_id: int) -> dict[str, Cell]:
        """Re-read one corpus row (lexical cells) of table number ``table``
        from its source file. Only the near-miss log reads rows."""
        info = self.tables[table]
        rows = self._row_cache.get(table)
        if rows is None:
            _, rows = read_table(self.corpus_root / info.table_id)
            if len(self._row_cache) >= _ROW_CACHE_TABLES:
                self._row_cache.pop(next(iter(self._row_cache)))
            self._row_cache[table] = rows
        if not 0 <= row_id < len(rows):
            raise InputError(
                f"row {row_id} no longer readable from table {info.table_id!r}"
            )
        return dict(zip(info.columns, rows[row_id]))

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Copy the index file to ``path``, replacing any file there atomically.
        A restricted index is refused."""
        if self.restricted:
            raise ValueError(f"{self._name} is a restricted index and cannot be saved")
        with _replacing(Path(path)) as out:
            out.write(self._mm)
        out.close()

    @classmethod
    def load(cls, path: str | Path) -> "CorpusIndex":
        """Reopen the index file at ``path``."""
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise InputError(f"cannot open index file {path}: {exc}") from exc
        return cls(handle, str(path))

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
        self._file.close()


def build_index(
    corpus_root: str | Path,
    filters: Sequence[str] = DEFAULT_FILTERS,
    *,
    index_path: str | Path | None = None,
    max_buffered_postings: int = DEFAULT_MAX_BUFFERED,
    fold_dates: bool = False,
    workers: int = 1,
    only_values: AbstractSet[str] | None = None,
) -> CorpusIndex:
    """Index every table file under ``corpus_root`` matching ``filters``.

    Unreadable or non-UTF-8 files are logged and skipped (they still count
    toward the coverage denominator). The index is written to
    ``index_path``, or without one to an anonymous temporary file.

    With ``only_values``, a set of normalized values, the build is
    restricted to their postings (see the module docstring).

    Files are read one at a time, in sorted path order. ``workers`` is
    checked (>= 1) and has no effect: the benchmark's
    ``index.build_jobs2_s`` still passes 2, and the keyword goes with
    that metric.
    """
    if only_values is not None and index_path is not None:
        raise ValueError("a restricted index cannot be written to an index path")
    for name, value in (("max_buffered_postings", max_buffered_postings), ("workers", workers)):
        if value < 1:
            raise InputError(f"{name} must be >= 1, got {value}")
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

    for rel in files:
        try:
            columns, rows = read_table(corpus_root / rel)
        except (InputError, OSError) as exc:
            log.warning("skipping unreadable corpus file %s: %s", rel, exc)
            skipped += 1
            continue
        tid = len(tables)
        tables.append(TableInfo(rel, tuple(columns), len(rows)))
        keys = {cell: value.encode() for cell, value in table_values(rows, fold_dates).items()
                if only_values is None or value in only_values}
        builder.add_table(tid, ({keys[cell] for cell in row if cell in keys} for row in rows))
        total_rows += len(rows)
        del rows, keys  # no table is held while the next is read or the index is written

    catalog = {
        "corpus_id": corpus_root.name,
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
            "spills": builder.spills,
            "files_skipped": skipped,
            "max_buffered_postings": max_buffered_postings,
        },
    }
    if only_values is not None:
        catalog["restricted"] = True
    try:
        if index_path is None:
            out = tempfile.TemporaryFile(prefix="tabaudit-idx-")
            try:
                _write_index(out, builder.sorted_batches(), catalog)
            except BaseException:
                out.close()
                raise
        else:
            with _replacing(Path(index_path)) as out:
                _write_index(out, builder.sorted_batches(), catalog)
    finally:
        builder.close()
    return CorpusIndex(out, str(index_path or "<temporary index>"))


class _PostingsBuilder:
    """Buffers posting keys as packed sorted runs, spilling merged runs to
    disk as shards that fold ``_FAN_IN`` at a time."""

    def __init__(self, max_buffered: int) -> None:
        self.max_buffered = max_buffered
        self.runs: list[bytes] = []  # _RUN_KEYS sorted keys each, joined
        self.keys: list[bytes] = []  # keys added since the last run
        self.shards: list[tuple[int, BinaryIO]] = []  # (level, file), levels non-increasing
        self.added = 0
        self.spills = 0

    def add_table(self, table_idx: int, rows: Iterable[Collection[bytes]]) -> None:
        """Buffer one table's postings: each row's distinct UTF-8 values.

        Distinct values keep keys from repeating in the merge. Every
        ``max_buffered`` postings, in posting order, are spilled as one
        run, wherever the row and table boundaries fall; between spills,
        every ``_RUN_KEYS`` keys are sorted and joined into one run.
        """
        keys = [
            value + suffix
            for row_id, values in enumerate(rows)
            for suffix in (b"\x00%08x%08x\n" % (table_idx, row_id),)
            for value in values
        ]
        self.added += len(keys)
        start = 0
        while start < len(keys):
            buffered = len(self.runs) * _RUN_KEYS + len(self.keys)
            take = keys[start : start + min(self.max_buffered - buffered,
                                            _RUN_KEYS - len(self.keys))]
            start += len(take)
            self.keys += take
            if buffered + len(take) == self.max_buffered:
                self._spill()
            elif len(self.keys) == _RUN_KEYS:
                self.keys.sort()
                self.runs.append(b"".join(self.keys))
                self.keys = []

    def _take_buffer(self) -> list[Iterator[list[bytes]]]:
        """Chunk readers of the buffered runs and keys, which the builder lets go."""
        keys = self.keys
        keys.sort()
        sources = [_chunks(BytesIO(run)) for run in self.runs]
        sources.append(keys[i : i + _WRITE_BATCH] for i in range(0, len(keys), _WRITE_BATCH))
        self.runs, self.keys = [], []
        return sources

    def _spill(self) -> None:
        """Write the buffer as a level-0 shard, then fold the newest
        ``_FAN_IN`` shards into one of the next level while they share one."""
        self.spills += 1
        self._add_shard(0, self._take_buffer())
        # Levels never rise towards the newest shard, so the newest
        # _FAN_IN share a level when the first of them has the last's.
        while len(self.shards) >= _FAN_IN and self.shards[-_FAN_IN][0] == self.shards[-1][0]:
            folded = self.shards[-_FAN_IN:]
            del self.shards[-_FAN_IN:]
            try:
                self._add_shard(folded[0][0] + 1, [_chunks(shard) for _, shard in folded])
            finally:
                for _, shard in folded:
                    shard.close()

    def _add_shard(self, level: int, sources: list[Iterator[list[bytes]]]) -> None:
        shard = tempfile.TemporaryFile(prefix="tabaudit-shard-")
        self.shards.append((level, shard))
        for batch in _merged(sources):
            shard.writelines(batch)
        shard.seek(0)

    def sorted_batches(self) -> Iterator[list[bytes]]:
        """Every key, in sorted batches, from the shards and the buffer."""
        return _merged([*(_chunks(shard) for _, shard in self.shards), *self._take_buffer()])

    def close(self) -> None:
        for _, shard in self.shards:
            shard.close()
        self.runs, self.keys = [], []


def _chunks(source: BinaryIO) -> Iterator[list[bytes]]:
    """The lines of ``source``, about ``_READ_CHUNK`` bytes of them at a time."""
    return iter(partial(source.readlines, _READ_CHUNK), [])


def _merged(sources: list[Iterator[list[bytes]]]) -> Iterator[list[bytes]]:
    """Every key of ``sources``, sorted runs read in sorted chunks, as sorted batches.

    A round tops up each source that has used half of what it holds,
    takes from every source the keys at or below the smallest of their
    last keys (no unread key sorts before it), and sorts them with one
    ``list.sort``, which merges the sorted pieces in C.
    """
    held = [[[], 0, chunks] for chunks in sources]  # keys, first unused, reader
    while True:
        for entry in held:
            keys, used, chunks = entry
            if 2 * used >= len(keys):
                entry[:2] = keys[used:] + next(chunks, []), 0
        held = [entry for entry in held if entry[1] < len(entry[0])]
        if not held:
            return
        bound = min(keys[-1] for keys, _, _ in held)
        batch: list[bytes] = []
        for entry in held:
            keys, used, _ = entry
            entry[1] = bisect_right(keys, bound, used)
            batch += keys[used : entry[1]]
        batch.sort()
        yield batch


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


def _write_index(out: BinaryIO, batches: Iterable[list[bytes]], catalog_doc: dict) -> None:
    """Write the index file for sorted batches of posting keys to ``out``."""
    out.write(bytes(_HEADER.size))
    offset = _HEADER.size
    written = 0
    directory: list[bytes] = []
    for values, pairs in _record_batches(batches):
        value_lens = list(map(len, values))
        pair_lens = list(map(len, pairs))
        # A record is its value and pairs plus two u32 lengths.
        offsets = list(accumulate(map(_RECORD_OVERHEAD.__add__, map(add, value_lens, pair_lens)),
                                  initial=offset))
        # One directory entry for each record whose number in the file is
        # a multiple of the stride.
        first = -written % DIR_STRIDE
        directory += [
            _U32.pack(len(value)) + value + _U64.pack(at)
            for value, at in zip(values[first::DIR_STRIDE], offsets[first::DIR_STRIDE])
        ]
        counts = map(_PAIR.size.__rfloordiv__, pair_lens)
        out.write(b"".join(chain.from_iterable(
            zip(map(_U32.pack, value_lens), values, map(_U32.pack, counts), pairs)
        )))
        written += len(values)
        offset = offsets[-1]
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


def _record_batches(
        batches: Iterable[list[bytes]]) -> Iterator[tuple[list[bytes], list[bytes]]]:
    """Whole records of sorted batches of keys, as lists of values and stored pairs.

    A batch's hex suffixes are big-endian u32 pairs; one ``a2b_hex`` of
    them all and one byteswap give the stored form (typecode "I" is 4
    bytes wherever CPython runs).
    A record starts at each key whose value differs from the one before.
    The batch's last record may go on in the next batch, so it is carried
    and yielded with the next batch's records.
    """
    value, chunks = None, []  # the carried record: its value and pair bytes
    for batch in batches:
        values = list(map(_value_of, batch))
        decoded = array("I", a2b_hex(b"".join(map(_hex_pairs_of, batch))))
        decoded.byteswap()
        blob = decoded.tobytes()
        starts = [0, *compress(count(1), map(ne, values, islice(values, 1, None)))]
        if values[0] == value:
            if len(starts) == 1:
                chunks.append(blob)
                continue
            del starts[0]
            chunks.append(blob[: _PAIR.size * starts[0]])
        done_values, done_pairs = ([], []) if value is None else ([value], [b"".join(chunks)])
        cuts = list(map(_PAIR.size.__mul__, starts))
        done_values += map(values.__getitem__, starts[:-1])
        done_pairs += map(blob.__getitem__, map(slice, cuts, cuts[1:]))
        value, chunks = values[starts[-1]], [blob[cuts[-1] :]]
        # Free what the batch decoded to before the caller assembles its records.
        del values, decoded, blob, starts, cuts
        if done_values:
            yield done_values, done_pairs
    if value is not None:
        yield [value], [b"".join(chunks)]
