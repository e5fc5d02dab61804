"""Seeded workload generators for the tabaudit benchmark.

Every input the benchmark feeds to tabaudit is generated here from the
seed alone and written with the benchmark's own CSV and TBIN writers, so
a change to the program cannot change what it is measured on. Each part
of a workload draws from its own RNG stream (``f"{workload}:{seed}:{part}"``),
so resizing one part leaves the others' values alone.

A generator writes its files under one directory, together with a plant
ledger (``ledger.json``) naming every planted corpus location, and
returns a :class:`Workload`: the tabaudit CLI operations to time, each
with the check its output must pass, plus the inputs the traced run's
direct timing loops need.

Workloads (why each exists is recorded in README.md):

* ``hex-spill``: unique hex-token background, forced index spill, scan
  through the on-disk index with identifier and association probes.
* ``repeat-scan``: background of repeating labor-style values, scan with
  an in-memory index; candidate verification dominates.
* ``audit-prompts``: 165 datasets with two models' predictions, 4-shot
  prompts over 2k and 8k rows, quartile tasks; contamination code idles.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import struct
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("hex-spill", "repeat-scan", "audit-prompts")

# Association probes per dataset, passed to the CLI explicitly so the
# expected association counts do not depend on a CLI default.
ASSOC_PROBES = 25

SCALES = {
    "hex-spill": {
        "full": dict(tables=24, rows=1000, max_buffered=24_000,
                     dataset_rows=200, dup_rows=20, copies=4, assoc_tables=12,
                     probes=2000, misses=500),
        "tiny": dict(tables=6, rows=60, max_buffered=400,
                     dataset_rows=40, dup_rows=5, copies=2, assoc_tables=10,
                     probes=100, misses=20),
    },
    "repeat-scan": {
        "full": dict(tables=60, rows=120, test_rows=100, probes=2000, misses=500),
        "tiny": dict(tables=8, rows=40, test_rows=20, probes=100, misses=20),
    },
    "audit-prompts": {
        "full": dict(datasets=165, min_rows=50, max_rows=800, scan_rows=200,
                     prompt_rows=(2000, 8000),
                     completion_rows=2000, tables=8, rows=250, dup_rows=5, copies=2,
                     probes=1000, misses=200),
        "tiny": dict(datasets=12, min_rows=20, max_rows=60, scan_rows=30,
                     prompt_rows=(60, 120),
                     completion_rows=60, tables=3, rows=40, dup_rows=5, copies=2,
                     probes=50, misses=10),
    },
}

# Rows of each size the traced run's build_prompts timing loop uses.
PROMPT_LOOP_ROWS = {"full": (2000, 8000), "tiny": (60, 120)}

MODELS = ("model-a", "model-b")


# -- files -----------------------------------------------------------------


def write_table(path: Path, columns: list[str], rows: list[list[str | None]]) -> None:
    """Write CSV (empty field = missing) or TBIN (documented in tabaudit.tableio)."""
    if path.suffix == ".csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow(["" if c is None else c for c in row])
        return
    parts = [b"TBIN0001", struct.pack("<I", len(columns))]
    for name in columns:
        raw = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw]
    parts.append(struct.pack("<Q", len(rows)))
    for j in range(len(columns)):
        for row in rows:
            cell = row[j]
            if cell is None:
                parts.append(b"\x00")
            else:
                raw = cell.encode("utf-8")
                parts.append(b"\x01" + struct.pack("<I", len(raw)) + raw)
    path.write_bytes(b"".join(parts))


@dataclass
class DatasetFile:
    """One generated evaluation dataset and its manifest."""

    id: str
    columns: list[str]
    rows: list[list[str | None]]
    target: str
    task_type: str  # binary | categorical | quartile
    labels: list[str] | None = None
    boundaries: tuple[float, float, float] | None = None
    manifest: Path | None = None

    def column(self, name: str) -> list[str | None]:
        j = self.columns.index(name)
        return [row[j] for row in self.rows]

    def label_set(self) -> list[str]:
        if self.task_type == "quartile":
            return checks.bin_labels(self.boundaries)
        return list(self.labels)

    def gold(self, row: list[str | None]) -> str:
        value = row[self.columns.index(self.target)]
        if self.task_type == "quartile":
            return self.label_set()[checks.assign_bin(float(value), self.boundaries)]
        return value

    def write(self, directory: Path, suffix: str = ".csv") -> Path:
        """Write the table and its manifest."""
        table = directory / f"{self.id}{suffix}"
        write_table(table, self.columns, self.rows)
        doc = {"id": self.id, "task_type": self.task_type,
               "target_column": self.target, "table_path": table.name}
        if self.task_type == "quartile":
            doc["quartile_boundaries"] = list(self.boundaries)
        else:
            doc["class_labels"] = self.labels
        self.manifest = directory / f"{self.id}.json"
        self.manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return self.manifest


@dataclass
class Op:
    """One tabaudit CLI invocation and the check its output must pass."""

    metric: str  # end-to-end metric its wall time adds to
    args: list[str]
    check: Callable[[str], None]  # receives the captured stdout
    out: Path | None = None  # cleared before the invocation
    peak: str | None = None  # end-to-end metric taking its peak RSS


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    root: Path
    ops: list[Op]
    corpus: Path
    index_file: Path  # written by the workload's `index` op
    build_kwargs: dict  # build_index settings of the traced timing loops
    probes: list[tuple[str, str, int]]  # (raw value, table_id, row)
    misses: list[str]
    corpus_cells: list[str]
    scan_datasets: list[tuple[DatasetFile, str, str]]  # (dataset, id column, assoc key)
    completions: list[str]
    completion_labels: list[str]
    table_files: list[Path]  # read_table timing-loop inputs (CSV and TBIN)


# -- shared pieces ------------------------------------------------------------


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


def _renamed(names: list[str], rng: random.Random) -> list[str]:
    """Drift column names the way web re-uploads do, keeping them unique."""
    out: list[str] = []
    for name in names:
        style = rng.randrange(4)
        if style == 0:
            new = name.lower().replace(" ", "_") + "_v2"
        elif style == 1:
            new = "".join(ch for ch in name if ch.lower() not in "aeiou") + "_x"
        elif style == 2:
            new = "col_" + name
        else:
            new = name.upper() + "_1"
        while new in out or new in names:
            new += "_r"
        out.append(new)
    return out


def _plant_copy(corpus: Path, table_id: str, ds: DatasetFile, row_ids: list[int],
                rng: random.Random, planted: list) -> list[tuple[str, int]]:
    """Copy rows (labels included) into a corpus table under a drifted schema."""
    order = list(range(len(ds.columns)))
    rng.shuffle(order)
    columns = _renamed([ds.columns[j] for j in order], rng)
    rows = [[ds.rows[i][j] for j in order] for i in row_ids]
    write_table(corpus / table_id, columns, rows)
    for k, row in enumerate(rows):
        planted.append((table_id, k, row))
    return [(table_id, k) for k in range(len(rows))]


def _hex_background(corpus: Path, rng: random.Random, tables: int, rows: int,
                    tbin_every: int) -> list[tuple[str, list]]:
    """Tables of unique 64-bit hex tokens, every tbin_every-th one as TBIN."""
    background = []
    for t in range(tables):
        table_id = f"bg_{t:04d}{'.tbin' if t % tbin_every == tbin_every - 1 else '.csv'}"
        columns = [f"c{j}_{_token(rng)[:8]}" for j in range(4)]
        cells = [[_token(rng) for _ in range(4)] for _ in range(rows)]
        write_table(corpus / table_id, columns, cells)
        background.append((table_id, cells))
    return background


def _plant_duplicates(corpus: Path, ds: DatasetFile, n: int, copies: int,
                      rng: random.Random, planted: list) -> tuple[dict[int, list], dict]:
    """n random rows of ds, each copied into ``copies`` tables; returns the
    test row -> corpus locations map and the ledger entry."""
    row_ids = sorted(rng.sample(range(len(ds.rows)), n))
    copies_of: dict[int, list] = defaultdict(list)
    for c in range(copies):
        locs = _plant_copy(corpus, f"plant_dup_{c:02d}.csv", ds, row_ids, rng, planted)
        for row_id, loc in zip(row_ids, locs):
            copies_of[row_id].append(loc)
    entry = {"kind": "direct_dup", "dataset_id": ds.id,
             "locations": [[t, r] for i in row_ids for t, r in copies_of[i]]}
    return copies_of, entry


def _probes(rng: random.Random, background: list, n: int, n_miss: int):
    """Seeded probe set: indexed (value, table, row) triples plus misses."""
    probes = []
    for _ in range(n):
        table_id, rows = background[rng.randrange(len(background))]
        r = rng.randrange(len(rows))
        value = rows[r][rng.randrange(len(rows[r]))]
        probes.append((value, table_id, r))
    misses = [f"miss-{_token(rng)}" for _ in range(n_miss)]
    return probes, misses


def _completions(rng: random.Random, ds: DatasetFile, n: int):
    """Runner completions for the first n rows, each with one known answer."""
    labels = ds.label_set()
    lines, expected = [], []
    for row_id in range(n):
        label = labels[rng.randrange(len(labels))]
        form = rng.randrange(5)
        if form == 0:
            text, want = label, label
        elif form == 1:
            text, want = f"{label}<|endcompletion|>", label
        elif form == 2:
            text, want = f"  {label}\n", label
        elif form == 3:
            text, want = f"The answer is {label}.", label
        else:
            text, want = rng.choice(("unsure", "n/a", "???")), None
        lines.append(json.dumps({"row_id": row_id, "completion": text}, sort_keys=True))
        expected.append((row_id, text, want))
    return lines, expected


def _predictions(rng: random.Random, ds: DatasetFile, skill: float,
                 always_majority: bool) -> list[tuple[int, str, str | None]]:
    labels = ds.label_set()
    golds = [ds.gold(row) for row in ds.rows]
    counts: dict[str, int] = {}
    for g in golds:
        counts[g] = counts.get(g, 0) + 1
    majority = max(labels, key=lambda lab: counts.get(lab, 0))
    out = []
    for row_id, gold in enumerate(golds):
        u = rng.random()
        if always_majority:
            pred = majority
        elif u < 0.02:
            pred = rng.choice((None, "unknown"))
        elif u < skill:
            pred = gold
        else:
            pred = labels[rng.randrange(len(labels))]
        out.append((row_id, gold, pred))
    return out


def _write_predictions(path: Path, ds: DatasetFile, model: str, preds) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row_id, gold, pred in preds:
            handle.write(json.dumps({"dataset_id": ds.id, "row_id": row_id,
                                     "true_label": gold, "predicted_label": pred,
                                     "model_id": model}, sort_keys=True) + "\n")


def _audit_op(root: Path, datasets: list[DatasetFile], rng: random.Random) -> Op:
    """Two models' predictions per dataset, a partition file and the audit op."""
    pred_dir = root / "predictions"
    pred_dir.mkdir()
    expected = {}
    pred_paths = []
    for ds in datasets:
        golds = [ds.gold(row) for row in ds.rows]
        top = max(golds.count(lab) for lab in set(golds)) / len(golds)
        for model in MODELS:
            skill = rng.uniform(0.45, 0.95) if model == "model-a" else rng.uniform(0.3, 0.8)
            preds = _predictions(rng, ds, skill,
                                 always_majority=model == "model-b" and top >= 0.85)
            path = pred_dir / f"{ds.id}.{model}.jsonl"
            _write_predictions(path, ds, model, preds)
            pred_paths.append(path)
            if model == MODELS[0]:
                expected[ds.id] = checks.audit_oracle(
                    [(g, p if p in ds.label_set() else None) for _, g, p in preds])
    partition = root / "partition.json"
    partition.write_text(json.dumps(
        {ds.id: ("seen" if i % 3 == 0 else "unseen") for i, ds in enumerate(datasets)},
        sort_keys=True), encoding="utf-8")
    out = root / "out_audit"
    args = ["--out", str(out), "audit", "--model", MODELS[0],
            "--reference-model", MODELS[1], "--partition", str(partition)]
    for ds in datasets:
        args += ["--manifest", str(ds.manifest)]
    for path in pred_paths:
        args += ["--predictions", str(path)]
    return Op("audit_s", args, lambda _out: checks.check_audit(out, expected), out)


def _serialize_ops(root: Path, seed: int, tabula: DatasetFile, alpaca: DatasetFile,
                   completion_ds: DatasetFile, completion_rows: int,
                   rng: random.Random) -> tuple[list[Op], list[str], list[str]]:
    """4-shot prompts in each style over its dataset, plus completion extraction."""
    ops = []
    for style, ds in (("tabula", tabula), ("alpaca", alpaca)):
        out = root / f"out_{style}"
        name = f"prompts_{ds.id}.{style}.jsonl"
        expected = {name: (len(ds.rows), [ds.gold(r) for r in ds.rows],
                           checks.prompt_digest(ds, style, 4, seed))}
        ops.append(Op("serialize_s",
                      ["--out", str(out), "serialize", "--style", style, "--shots", "4",
                       "--seed", str(seed), "--manifest", str(ds.manifest)],
                      lambda _o, out=out, expected=expected: checks.check_prompts(out, expected),
                      out))
    lines, expected_lines = _completions(rng, completion_ds, completion_rows)
    comp = root / f"completions_{completion_ds.id}.jsonl"
    comp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = root / "out_extract"
    name = f"predictions_{completion_ds.id}.runner.jsonl"
    want = checks.extraction_file(completion_ds, expected_lines, "runner")
    ops.append(Op("serialize_s",
                  ["--out", str(out), "serialize", "--style", "tabula",
                   "--manifest", str(completion_ds.manifest),
                   "--extract-completions", str(comp), "--model-id", "runner"],
                  lambda _o: checks.check_file(out / name, want), out))
    return ops, [text for _, text, _ in expected_lines], completion_ds.label_set()


def _gen_quartile_op(root: Path, manifests: list[tuple[DatasetFile, Path]]) -> Op:
    out = root / "out_quartile"
    args = ["--out", str(out), "gen-quartile"]
    expected = []
    for ds, manifest in manifests:
        args += ["--manifest", str(manifest)]
        expected.append(checks.quartile_oracle(ds))
    return Op("gen_quartile_s", args, lambda _o: checks.check_gen_quartile(out, expected), out)


def _index_op(corpus: Path, index_file: Path, n_files: int, n_rows: int,
              probes, misses, spill: bool, extra: list[str]) -> Op:
    args = ["index", "--corpus", str(corpus), "--index-path", str(index_file), *extra]
    verified: dict[bytes, str] = {}  # index file digest -> stdout, of fully checked runs

    def check(stdout: str) -> None:
        # Reopening the index and probing it takes about as long as a small
        # command, so a run whose output repeats a checked one byte for byte
        # passes on that alone.
        digest = hashlib.sha256(index_file.read_bytes()).digest()
        if verified.get(digest) != stdout:
            checks.check_index(stdout, index_file, n_files, n_rows, probes, misses, spill)
            verified[digest] = stdout

    return Op("index_s", args, check, None, "index_peak_mb")


def _expected_scan(ds: DatasetFile, planted: list, copies_of: dict[int, list],
                   id_col: str | None, key_col: str | None, category: str) -> dict:
    """Evidence lines and verdict the scan must produce for one dataset.

    Identifier and association probes are configured only where the
    background holds no value of the probed dataset (hex tokens), so
    every such hit lies in a planted row. Row matches are the planted
    copies: a background row has too few columns to reach the overlap.
    """
    where: dict[str, set] = defaultdict(set)
    for table_id, r, cells in planted:
        for cell in cells:
            if cell is not None:
                where[cell].add((table_id, r))
    target_j = ds.columns.index(ds.target)
    lines = []
    if id_col is not None:
        for ident in sorted({c for c in ds.column(id_col) if c is not None}):
            if where.get(ident):
                lines.append(checks.evidence("identifier", sorted(where[ident]), 1.0,
                                             None, False, ident))
    for row_id in range(len(ds.rows)):
        for loc in sorted(copies_of.get(row_id, ())):
            lines.append(checks.evidence("row_match", [loc], 1.0, row_id, True,
                                         ds.rows[row_id][target_j]))
    assoc_count, assoc_tables = 0, set()
    if key_col is not None:
        key_j = ds.columns.index(key_col)
        probed = set()
        for row in ds.rows[:ASSOC_PROBES]:
            key, target = row[key_j], row[target_j]
            if key is None or target is None or (key, target) in probed:
                continue
            probed.add((key, target))
            located = sorted(where.get(key, set()) & where.get(target, set()))
            if located:
                assoc_count += len(located)
                assoc_tables.update(t for t, _ in located)
                lines.append(checks.evidence("association", located[:10], 0.0,
                                             None, False, target))
    matched_rows = sum(1 for i in copies_of if copies_of[i])
    verdict = {"category": category,
               "row_match_fraction": matched_rows / len(ds.rows),
               "association_count": assoc_count,
               "distinct_association_tables": len(assoc_tables)}
    return {"evidence": lines, "verdict": verdict}


def _scan_op(out: Path, args: list[str], expected: dict[str, dict]) -> Op:
    return Op("scan_s", ["--out", str(out), "scan", *args],
              lambda _o: checks.check_scan(out, expected), out, "scan_peak_mb")


def _write_ledger(root: Path, name: str, seed: int, plants: list[dict], expected: dict) -> None:
    ledger = {"workload": name, "seed": seed, "plants": plants,
              "verdicts": {d: e["verdict"] for d, e in expected.items()}}
    (root / "ledger.json").write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")


# -- hex-spill ----------------------------------------------------------------

PRICE_COLUMNS = ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume", "Direction"]


def prices_dataset(dataset_id: str, rng: random.Random, n: int, start: date) -> DatasetFile:
    """Daily OHLC bars: every cell but Direction is distinctive."""
    rows = []
    day = start
    close = rng.uniform(20.0, 900.0)
    for _ in range(n):
        while day.weekday() >= 5:
            day += timedelta(days=1)
        open_ = close * rng.uniform(0.97, 1.03)
        close = open_ * rng.uniform(0.95, 1.05)
        high = max(open_, close) * rng.uniform(1.0, 1.02)
        low = min(open_, close) * rng.uniform(0.98, 1.0)
        rows.append([day.isoformat(), f"{open_:.4f}", f"{high:.4f}", f"{low:.4f}",
                     f"{close:.4f}", f"{close * 0.985:.4f}", str(rng.randint(10**5, 5 * 10**7)),
                     "up" if close >= open_ else "down"])
        day += timedelta(days=1)
    return DatasetFile(dataset_id, list(PRICE_COLUMNS), rows, "Direction", "binary",
                       labels=["up", "down"])


def prices_datasets(seed: int, n: int) -> list[DatasetFile]:
    rng = random.Random(f"hex-spill:{seed}:prices")
    return [prices_dataset(f"prices-{kind}", rng, n, date(2001 + 2 * k, 1, 2))
            for k, kind in enumerate(("dup", "assoc", "clean"))]


def gen_hex_spill(seed: int, scale: str, root: Path) -> Workload:
    s = SCALES["hex-spill"][scale]
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    background = _hex_background(corpus, random.Random(f"hex-spill:{seed}:background"),
                                 s["tables"], s["rows"], 3)

    data_dir = root / "data"
    data_dir.mkdir()
    dup, assoc, clean = prices_datasets(seed, s["dataset_rows"])
    for ds in (dup, assoc, clean):
        ds.write(data_dir)

    rng = random.Random(f"hex-spill:{seed}:plants")
    planted: list = []
    copies_of, dup_entry = _plant_duplicates(corpus, dup, s["dup_rows"], s["copies"], rng,
                                             planted)
    pairs = [(row[0], row[7]) for row in assoc.rows[:ASSOC_PROBES]]
    assoc_locs = []
    for t in range(s["assoc_tables"]):
        table_id = f"plant_assoc_{t:02d}.csv"
        columns = [f"a{j}_{_token(rng)[:8]}" for j in range(3)] + ["k", "v"]
        rows = [[_token(rng), _token(rng), _token(rng), k, v] for k, v in pairs]
        write_table(corpus / table_id, columns, rows)
        for r, row in enumerate(rows):
            planted.append((table_id, r, row))
            assoc_locs.append((table_id, r))

    expected = {
        dup.id: _expected_scan(dup, planted, copies_of, "Date", "Date", "direct_with_labels"),
        assoc.id: _expected_scan(assoc, planted, {}, "Date", "Date", "task_leakage"),
        clean.id: _expected_scan(clean, planted, {}, "Date", "Date", "none"),
    }
    _write_ledger(root, "hex-spill", seed, [
        dup_entry,
        {"kind": "association", "dataset_id": assoc.id,
         "locations": [[t, r] for t, r in assoc_locs]},
    ], expected)

    rng = random.Random(f"hex-spill:{seed}:probes")
    probes, misses = _probes(rng, background, s["probes"], s["misses"])
    index_file = root / "corpus.idx"
    n_files = s["tables"] + s["copies"] + s["assoc_tables"]
    n_rows = s["tables"] * s["rows"] + s["copies"] * s["dup_rows"] + s["assoc_tables"] * len(pairs)
    ops = [_index_op(corpus, index_file, n_files, n_rows, probes, misses, True,
                     ["--max-buffered", str(s["max_buffered"])])]
    scan_args = ["--index", str(index_file)]
    for ds in (dup, assoc, clean):
        scan_args += ["--manifest", str(ds.manifest)]
    scan_args += ["--id-column", "Date", "--assoc-key-column", "Date",
                  "--assoc-probes", str(ASSOC_PROBES)]
    ops.append(_scan_op(root / "out_scan", scan_args, expected))

    rng = random.Random(f"hex-spill:{seed}:predictions")
    ops.append(_audit_op(root, [dup, assoc, clean], rng))
    ser_ops, completions, comp_labels = _serialize_ops(
        root, seed, dup, dup, dup, len(dup.rows), rng)
    ops += ser_ops
    quartile = []
    for ds in (dup, assoc, clean):
        qds = DatasetFile(f"{ds.id}-close", ds.columns, ds.rows, "Close", "quartile")
        quartile.append((qds, _unbound_manifest(data_dir, qds, ds.id + ".csv")))
    ops.append(_gen_quartile_op(root, quartile))

    return Workload(
        "hex-spill", seed, scale, root, ops, corpus, index_file,
        {"index_path": None, "max_buffered_postings": s["max_buffered"]},
        probes, misses, [c for _, rows in background for row in rows for c in row],
        [(ds, "Date", "Date") for ds in (dup, assoc, clean)],
        completions, comp_labels, _table_files(corpus))


def _unbound_manifest(directory: Path, ds: DatasetFile, table_name: str) -> Path:
    """Quartile manifest without boundaries over an existing table."""
    path = directory / f"{ds.id}.unbound.json"
    path.write_text(json.dumps({"id": ds.id, "task_type": "quartile",
                                "target_column": ds.target, "table_path": table_name},
                               indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _table_files(corpus: Path) -> list[Path]:
    return sorted(p for p in corpus.iterdir() if p.suffix in (".csv", ".tbin"))


# -- repeat-scan ----------------------------------------------------------------

# Labor-force-survey columns: (name, kind, low, high, decimals). Small and
# mid-cardinality integers and decimals repeat across corpus tables; the
# four-decimal money columns stay rare.
LABOR_SPEC = [
    ("hours", "int", 0, 3286, 0), ("kids5", "int", 0, 3, 0), ("kids618", "int", 0, 8, 0),
    ("age", "int", 30, 60, 0), ("educ", "int", 5, 17, 0), ("wage", "dec", 0.0, 25.0, 4),
    ("repwage", "dec", 0.0, 9.98, 2), ("hushrs", "int", 175, 5010, 0),
    ("husage", "int", 30, 60, 0), ("huseduc", "int", 3, 17, 0),
    ("huswage", "dec", 0.41, 40.5, 4), ("faminc", "int", 1500, 96000, 0),
    ("mtr", "dec", 0.44, 0.94, 4), ("motheduc", "int", 0, 17, 0),
    ("fatheduc", "int", 0, 17, 0), ("unem", "dec", 3.0, 14.0, 1), ("city", "int", 0, 1, 0),
    ("exper", "int", 0, 45, 0), ("nwifeinc", "dec", 0.03, 96.0, 4),
    ("wifecoll", "bool", 0, 0, 0), ("huscoll", "bool", 0, 0, 0),
]
STATES = ("AL", "AK", "AZ", "CA", "CO", "FL", "GA", "IL", "MI", "NY", "OH", "PA", "TX", "WA")
SECTORS = ("Private", "Self-emp", "Local-gov", "State-gov", "Federal-gov", "Never-worked")


def _labor_value(rng: random.Random, kind: str, lo, hi, dec: int) -> str:
    if kind == "int":
        return str(rng.randint(lo, hi))
    if kind == "dec":
        return f"{rng.uniform(lo, hi):.{dec}f}"
    return "TRUE" if rng.random() < 0.35 else "FALSE"


def labor_dataset(seed: int, n: int) -> DatasetFile:
    rng = random.Random(f"repeat-scan:{seed}:labor")
    columns = ["Unnamed: 0"] + [name for name, *_ in LABOR_SPEC] + ["lfp"]
    rows = []
    for i in range(n):
        row = [str(i)] + [_labor_value(rng, kind, lo, hi, d) for _, kind, lo, hi, d in LABOR_SPEC]
        row.append("1" if rng.random() < 0.57 else "0")
        rows.append(row)
    return DatasetFile("labor-participation", columns, rows, "lfp", "binary", labels=["1", "0"])


def gen_repeat_scan(seed: int, scale: str, root: Path) -> Workload:
    s = SCALES["repeat-scan"][scale]
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    rng = random.Random(f"repeat-scan:{seed}:background")
    background = []
    for t in range(s["tables"]):
        table_id = f"survey_{t:04d}{'.tbin' if t % 4 == 3 else '.csv'}"
        spec = rng.sample(LABOR_SPEC, 8)
        columns = _renamed([name for name, *_ in spec], rng) + ["state", "sector"]
        rows = [[_labor_value(rng, kind, lo, hi, d) for _, kind, lo, hi, d in spec]
                + [rng.choice(STATES), rng.choice(SECTORS)] for _ in range(s["rows"])]
        write_table(corpus / table_id, columns, rows)
        background.append((table_id, rows))

    data_dir = root / "data"
    data_dir.mkdir()
    labor = labor_dataset(seed, s["test_rows"])
    labor.write(data_dir)

    rng = random.Random(f"repeat-scan:{seed}:plants")
    planted: list = []
    locs = _plant_copy(corpus, "plant_complete_labor.csv", labor,
                       list(range(len(labor.rows))), rng, planted)
    copies_of = {i: [loc] for i, loc in enumerate(locs)}
    expected = {labor.id: _expected_scan(labor, planted, copies_of, None, None,
                                         "complete_overlap")}
    _write_ledger(root, "repeat-scan", seed, [
        {"kind": "complete", "dataset_id": labor.id, "locations": [[t, r] for t, r in locs]},
    ], expected)

    rng = random.Random(f"repeat-scan:{seed}:probes")
    probes, misses = _probes(rng, background, s["probes"], s["misses"])
    index_file = root / "corpus.idx"
    n_rows = s["tables"] * s["rows"] + len(labor.rows)
    ops = [_index_op(corpus, index_file, s["tables"] + 1, n_rows, probes, misses, False, [])]
    ops.append(_scan_op(root / "out_scan",
                        ["--corpus", str(corpus), "--manifest", str(labor.manifest)], expected))

    rng = random.Random(f"repeat-scan:{seed}:predictions")
    ops.append(_audit_op(root, [labor], rng))
    ser_ops, completions, comp_labels = _serialize_ops(
        root, seed, labor, labor, labor, len(labor.rows), rng)
    ops += ser_ops
    qds = DatasetFile("labor-wage", labor.columns, labor.rows, "wage", "quartile")
    ops.append(_gen_quartile_op(root, [(qds, _unbound_manifest(data_dir, qds, labor.id + ".csv"))]))

    return Workload(
        "repeat-scan", seed, scale, root, ops, corpus, index_file, {},
        probes, misses, [c for _, rows in background for row in rows for c in row],
        [(labor, "Unnamed: 0", "faminc")], completions, comp_labels,
        _table_files(corpus))


# -- audit-prompts ----------------------------------------------------------------

LEADING_TASK_TYPES = ("binary", "binary", "categorical", "quartile", "quartile")
TASK_MIX = ("binary",) * 5 + ("categorical",) * 3 + ("quartile",) * 2
CATEGORY_NAMES = ("setosa", "versicolor", "virginica", "arctica", "borealis", "australis")
COLORS = ("red", "green", "blue", "amber", "violet")


def benchmark_dataset(dataset_id: str, rng: random.Random, n: int, task_type: str) -> DatasetFile:
    """One small benchmark-style dataset: two measurements, a count, a category."""
    columns = ["f1", "f2", "f3", "color", "target"]
    if task_type == "binary":
        labels = list(rng.choice((("yes", "no"), ("1", "0"), (">50K", "<=50K"))))
        p_major = rng.choice((0.5, 0.6, 0.75, 0.9, 0.95, 0.98))
    elif task_type == "categorical":
        labels = list(CATEGORY_NAMES[: rng.randint(3, 6)])
        p_major = 0.0
    else:
        labels = None
    rows = []
    for _ in range(n):
        if task_type == "binary":
            target = labels[0] if rng.random() < p_major else labels[1]
        elif task_type == "categorical":
            target = labels[rng.randrange(len(labels))]
        else:
            target = f"{rng.lognormvariate(3.0, 1.0):.3f}"
        rows.append([
            f"{rng.gauss(50.0, 15.0):.4f}",
            None if rng.random() < 0.03 else f"{rng.uniform(0.0, 100.0):.2f}",
            None if rng.random() < 0.03 else str(rng.randint(0, 120)),
            rng.choice(COLORS),
            target,
        ])
    # Both classes present, so no dataset is degenerate.
    if task_type == "binary":
        rows[0][4], rows[1][4] = labels
    ds = DatasetFile(dataset_id, columns, rows, "target", task_type, labels=labels)
    if task_type == "quartile":
        ds.boundaries = checks.quartile_bins([float(r[4]) for r in rows])
    return ds


def prompt_dataset(seed: int, n: int) -> DatasetFile:
    """Adult-income-style rows for the few-shot prompt workload."""
    rng = random.Random(f"audit-prompts:{seed}:prompts-{n}")
    work = ("Private", "Self-emp-not-inc", "Local-gov", "State-gov", "Federal-gov")
    edu = ("HS-grad", "Some-college", "Bachelors", "Masters", "Assoc-voc", "Doctorate")
    occ = ("Tech-support", "Craft-repair", "Sales", "Exec-managerial", "Prof-specialty")
    columns = ["age", "workclass", "education", "occupation", "hours-per-week",
               "capital-gain", "income"]
    rows = []
    for _ in range(n):
        rows.append([str(rng.randint(17, 90)), rng.choice(work), rng.choice(edu),
                     None if rng.random() < 0.02 else rng.choice(occ), str(rng.randint(1, 99)),
                     str(rng.choice((0, 0, 0, rng.randint(100, 99999)))),
                     ">50K" if rng.random() < 0.24 else "<=50K"])
    return DatasetFile(f"adult-{n}", columns, rows, "income", "binary", labels=[">50K", "<=50K"])


def gen_audit_prompts(seed: int, scale: str, root: Path) -> Workload:
    s = SCALES["audit-prompts"][scale]
    data_dir = root / "data"
    data_dir.mkdir(parents=True)
    rng = random.Random(f"audit-prompts:{seed}:datasets")
    # Two binary datasets lead, for the scan, and every task type is present
    # at any size; then a benchmark-like mix, shuffled.
    mix = [TASK_MIX[i % len(TASK_MIX)] for i in range(s["datasets"] - len(LEADING_TASK_TYPES))]
    rng.shuffle(mix)
    task_types = [*LEADING_TASK_TYPES, *mix]
    # The two scanned datasets have scan_rows rows. The others' row counts
    # are log-uniform between min_rows and max_rows, stratified within each
    # task type and shuffled, so every seed does the same work.
    sizes: dict[str, list[int]] = {}
    for task_type in sorted(set(task_types)):
        count = task_types[2:].count(task_type)
        span = math.log(s["max_rows"] / s["min_rows"])
        sizes[task_type] = [int(s["min_rows"] * math.exp((k + 0.5) / count * span))
                            for k in range(count)]
        rng.shuffle(sizes[task_type])
    datasets = []
    for i, task_type in enumerate(task_types):
        n = s["scan_rows"] if i < 2 else sizes[task_type].pop()
        ds = benchmark_dataset(f"ds-{i:03d}", rng, n, task_type)
        ds.write(data_dir, ".tbin" if i % 5 == 4 else ".csv")
        datasets.append(ds)

    small, large = (prompt_dataset(seed, n) for n in s["prompt_rows"])
    small.write(data_dir)
    large.write(data_dir)

    corpus = root / "corpus"
    corpus.mkdir()
    background = _hex_background(corpus, random.Random(f"audit-prompts:{seed}:background"),
                                 s["tables"], s["rows"], 2)
    dup, clean = datasets[0], datasets[1]
    planted: list = []
    copies_of, dup_entry = _plant_duplicates(
        corpus, dup, s["dup_rows"], s["copies"], random.Random(f"audit-prompts:{seed}:plants"),
        planted)
    expected = {
        dup.id: _expected_scan(dup, planted, copies_of, None, None, "direct_with_labels"),
        clean.id: _expected_scan(clean, planted, {}, None, None, "none"),
    }
    _write_ledger(root, "audit-prompts", seed, [dup_entry], expected)

    rng = random.Random(f"audit-prompts:{seed}:probes")
    probes, misses = _probes(rng, background, s["probes"], s["misses"])
    index_file = root / "corpus.idx"
    n_rows = s["tables"] * s["rows"] + s["copies"] * s["dup_rows"]
    ops = [_index_op(corpus, index_file, s["tables"] + s["copies"], n_rows,
                     probes, misses, False, [])]
    ops.append(_scan_op(root / "out_scan", ["--index", str(index_file), "--manifest",
                                            str(dup.manifest), "--manifest", str(clean.manifest)],
                        expected))

    rng = random.Random(f"audit-prompts:{seed}:predictions")
    ops.append(_audit_op(root, datasets, rng))
    # The large set, whose few-shot pool is quadratic, in the tabula style
    # only: in both styles it would double the round.
    ser_ops, completions, comp_labels = _serialize_ops(
        root, seed, large, small, small, s["completion_rows"], rng)
    ops += ser_ops
    ops.append(_gen_quartile_op(root, [(ds, ds.manifest) for ds in datasets
                                       if ds.task_type == "quartile"]))

    return Workload(
        "audit-prompts", seed, scale, root, ops, corpus, index_file,
        {"index_path": None}, probes, misses,
        [c for _, rows in background for row in rows for c in row],
        [(dup, "f1", "color"), (clean, "f1", "color")], completions, comp_labels,
        sorted(data_dir.glob("*.csv")) + sorted(data_dir.glob("*.tbin")))


GENERATORS = {"hex-spill": gen_hex_spill, "repeat-scan": gen_repeat_scan,
              "audit-prompts": gen_audit_prompts}


def generate(name: str, seed: int, scale: str, root: Path) -> Workload:
    return GENERATORS[name](seed, scale, root)
