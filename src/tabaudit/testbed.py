"""Synthetic corpus generator with planted, ledgered contamination.

Background cell values are UUID-like hex tokens drawn from a seeded RNG,
so they cannot collide with any evaluation fixture, which makes scanner
precision measurable exactly. Each ``plant_*`` function inserts known
contamination of one taxonomy class as new table files ("chunks") and
returns a :class:`Plant` naming every planted (table, row). The caller
owns one :class:`PlantLedger` and appends each plant to it; the ledger is
what :func:`scanner_prf` scores a scan against.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .data import Dataset, read_json, write_json
from .errors import InputError
from .tableio import write_table
from .contam.search import (
    STRATEGY_ASSOCIATION,
    STRATEGY_ROW_MATCH,
    MatchEvidence,
)

PLANT_COMPLETE = "complete"
PLANT_DIRECT_DUP = "direct_dup"
PLANT_ASSOCIATION = "association"

_KIND_STRATEGY = {
    PLANT_COMPLETE: STRATEGY_ROW_MATCH,
    PLANT_DIRECT_DUP: STRATEGY_ROW_MATCH,
    PLANT_ASSOCIATION: STRATEGY_ASSOCIATION,
}


def parse_locations(pairs) -> tuple[tuple[str, int], ...]:
    """JSON ``[[table, row], ...]`` as tuples; ValueError or TypeError on any other shape."""
    locations = tuple((table, row) for table, row in pairs)
    for table, row in locations:
        if not isinstance(table, str) or type(row) is not int:
            raise ValueError(f"location {[table, row]!r} is not a [string, integer] pair")
    return locations


@dataclass(frozen=True)
class Plant:
    kind: str
    dataset_id: str
    locations: tuple[tuple[str, int], ...]
    transforms: dict


@dataclass
class PlantLedger:
    seed: int
    corpus_id: str
    plants: list[Plant] = field(default_factory=list)

    def save(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path: str | Path) -> "PlantLedger":
        doc = read_json(path, "ledger")
        try:
            ledger = cls(seed=doc["seed"], corpus_id=doc["corpus_id"])
            for p in doc["plants"]:
                if p["kind"] not in _KIND_STRATEGY:
                    raise InputError(f"{path}: unknown plant kind {p['kind']!r}")
                if not isinstance(p["dataset_id"], str):
                    raise ValueError(f"dataset_id {p['dataset_id']!r} is not a string")
                ledger.plants.append(
                    Plant(
                        kind=p["kind"],
                        dataset_id=p["dataset_id"],
                        locations=parse_locations(p["locations"]),
                        transforms=p["transforms"],
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed ledger: {exc!r}") from exc
        return ledger


@dataclass(frozen=True)
class CorpusSpec:
    tables: int = 10
    rows_per_table: int = 100
    cols_per_table: int = 4


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


def generate_corpus(spec: CorpusSpec, seed: int, out_dir: str | Path) -> Path:
    """Write a deterministic background corpus of hex-token CSV tables."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create corpus directory {out}: {exc}") from exc
    for t in range(spec.tables):
        rng = random.Random(f"{seed}:table:{t}")
        columns = [f"c{j}_{_token(rng)[:8]}" for j in range(spec.cols_per_table)]
        rows = (
            [_token(rng) for _ in range(spec.cols_per_table)]
            for _ in range(spec.rows_per_table)
        )
        write_table(out / f"bg_{t:05d}.csv", columns, rows)
    return out


_ABBREV_SUFFIXES = ("_v2", "_x", "2")
_VOWELS = set("aeiouAEIOU")


def _mutate_name(name: str, rng: random.Random, taken: set[str] | None = None) -> str:
    """Rename a column the way web re-uploads do (kids618 -> k618, etc.)."""
    style = rng.randrange(4)
    if style == 0:
        # Keep the first letter and any trailing digits.
        head = name[0] if name else "c"
        tail = name.rstrip("0123456789")
        digits = name[len(tail):]
        mutated = head + digits
    elif style == 1:
        mutated = "".join(ch for ch in name if ch not in _VOWELS) or name[:1]
    elif style == 2:
        mutated = name + rng.choice(_ABBREV_SUFFIXES)
    else:
        mutated = "col_" + name
    if mutated == name:
        mutated = name + "_r"
    if taken is not None:
        while mutated in taken:
            mutated += "_r"
        taken.add(mutated)
    return mutated


def plant_complete_overlap(
    corpus_dir: str | Path,
    dataset: Dataset,
    rename_fraction: float = 1.0,
    permute: bool = True,
    seed: int = 0,
) -> Plant:
    """Insert every dataset row (labels included) as one corpus chunk.

    ``rename_fraction`` of the columns get mutated names and ``permute``
    shuffles column order, mimicking re-uploads of the same data under a
    drifted schema. The plant records every planted (table, row).
    """
    corpus_dir = Path(corpus_dir)
    rng = random.Random(f"{seed}:complete:{dataset.id}")
    columns = list(dataset.columns)
    n_rename = round(rename_fraction * len(columns))
    rename_idx = set(rng.sample(range(len(columns)), n_rename)) if n_rename else set()
    taken = set(columns)
    renames = {
        columns[i]: _mutate_name(columns[i], rng, taken) for i in sorted(rename_idx)
    }
    order = list(range(len(columns)))
    if permute:
        rng.shuffle(order)
    out_columns = [renames.get(columns[i], columns[i]) for i in order]

    table_name = f"plant_complete_{dataset.id}.csv"
    write_table(
        corpus_dir / table_name,
        out_columns,
        ([row[i] for i in order] for row in dataset.rows),
    )
    return Plant(
        kind=PLANT_COMPLETE,
        dataset_id=dataset.id,
        locations=tuple((table_name, i) for i in range(dataset.row_count)),
        transforms={
            "rename_fraction": rename_fraction,
            "permute": permute,
            "renames": renames,
        },
    )


def plant_direct_duplicates(
    corpus_dir: str | Path,
    dataset: Dataset,
    target_column: str,
    rows: int,
    copies: int = 1,
    seed: int = 0,
) -> Plant:
    """Insert the first ``rows`` labeled rows into ``copies`` distinct corpus tables.

    Each copy holds the rows with ``target_column`` moved last, under its
    own mild schema drift.
    """
    if copies < 1:
        raise InputError("plant_direct_duplicates: copies must be >= 1")
    if min(rows, dataset.row_count) < 1:
        raise InputError("plant_direct_duplicates: no rows to plant")
    corpus_dir = Path(corpus_dir)
    rng = random.Random(f"{seed}:direct")
    target = dataset.column_index(target_column)
    order = [i for i in range(len(dataset.columns)) if i != target] + [target]
    columns = [dataset.columns[i] for i in order]
    out_rows = [[row[i] for i in order] for row in dataset.rows[:rows]]
    locations = []
    for copy in range(copies):
        # Each copy gets its own mild schema drift, like real re-posts.
        taken = set(columns)
        renames = {
            c: _mutate_name(c, rng, taken) if rng.random() < 0.5 else c for c in columns
        }
        table_name = f"plant_direct_{copy:03d}.csv"
        write_table(corpus_dir / table_name, [renames[c] for c in columns], out_rows)
        locations.extend((table_name, i) for i in range(len(out_rows)))
    return Plant(
        kind=PLANT_DIRECT_DUP,
        dataset_id=dataset.id,
        locations=tuple(locations),
        transforms={"copies": copies, "target_column": target_column},
    )


def plant_association(
    corpus_dir: str | Path,
    pairs: Sequence[tuple[str, str]],
    tables: int = 1,
    rows_per_table: int = 1,
    seed: int = 0,
) -> Plant:
    """Make each (key, target) pair co-occur in otherwise-unrelated rows.

    Only the pair values are planted (never a full evaluation row), so a
    scan sees association evidence with zero row-level matches.
    """
    if tables < 1:
        raise InputError("plant_association: tables must be >= 1")
    corpus_dir = Path(corpus_dir)
    rng = random.Random(f"{seed}:assoc")
    locations = []
    for t in range(tables):
        table_name = f"plant_assoc_{t:03d}.csv"
        columns = [f"a{j}_{_token(rng)[:8]}" for j in range(3)] + ["k", "v"]
        out_rows = []
        for key, target in pairs:
            for _ in range(rows_per_table):
                out_rows.append([_token(rng), _token(rng), _token(rng), key, target])
        write_table(corpus_dir / table_name, columns, out_rows)
        locations.extend((table_name, i) for i in range(len(out_rows)))
    return Plant(
        kind=PLANT_ASSOCIATION,
        dataset_id="",
        locations=tuple(locations),
        transforms={
            "pairs": [[k, v] for k, v in pairs],
            "tables": tables,
            "rows_per_table": rows_per_table,
        },
    )


def scanner_prf(
    ledger: PlantLedger,
    evidence_by_dataset: Mapping[str, Sequence[MatchEvidence]],
) -> dict[str, tuple[float, float]]:
    """Precision/recall of scanner evidence against planted ground truth.

    Evidence is keyed by the dataset that was scanned; each plant kind is
    scored against the evidence of its matching strategy. A hit counts
    against precision only where no plant of the ledger wrote, so two
    row-match kinds do not count each other's rows as false positives.
    """
    results: dict[str, tuple[float, float]] = {}
    kinds = {p.kind for p in ledger.plants}
    every_plant = {location for p in ledger.plants for location in p.locations}
    for kind in sorted(kinds):
        strategy = _KIND_STRATEGY[kind]
        planted: set[tuple[str, int]] = set()
        datasets: set[str] = set()
        for p in ledger.plants:
            if p.kind == kind:
                planted.update(p.locations)
                datasets.add(p.dataset_id)
        hits: set[tuple[str, int]] = set()
        for dataset_id, evidence in evidence_by_dataset.items():
            if datasets != {""} and dataset_id not in datasets:
                continue
            for ev in evidence:
                if ev.strategy == strategy:
                    hits.update(ev.matched)
        if not planted:
            raise InputError(f"scanner_prf: ledger has no locations for kind {kind!r}")
        recall = len(hits & planted) / len(planted)
        precision = len(hits & every_plant) / len(hits) if hits else 0.0
        results[kind] = (precision, recall)
    return results
