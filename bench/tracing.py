"""Per-layer measurements for the tabaudit benchmark (``--trace 1``).

Layers are tabaudit's modules, and every number is taken from outside
the program:

* Spans. Each layer's public functions are swapped, on their modules and
  on every module that imported them, for wrappers that record a span
  (name, layer, start, end, parent span, run id), and the workload's CLI
  commands run in-process through ``tabaudit.cli.main``. The swap is
  undone afterwards. Spans stay in memory until the run ends, then go to
  ``spans.jsonl``. A span's self time is its duration minus its child
  spans; a layer's self time is the sum over its spans.
* Direct timing loops, for functions too hot to wrap (``normalize_cell``,
  ``read_table`` over whole corpora, ``lookup``/``frequency``,
  ``build_prompts`` at 2k and 8k rows, ``extract_prediction``) and for
  index builds with settings the CLI does not expose: isolated timed loops.

The same commands also run untraced: after one unrecorded warm-up pass,
untraced and traced passes alternate in ABBA order, and
``trace.overhead_frac`` is (traced - untraced) / untraced wall time.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import shutil
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from dataclasses import asdict, dataclass
from time import perf_counter, perf_counter_ns

import checks
import workloads

# Layer -> (module, public functions wrapped in spans). normalize_cell,
# lookup and frequency are left unwrapped: a wrapper would cost as much
# as the call. Their time shows in their callers' self time and in the
# direct timing loops.
LAYER_FUNCTIONS = {
    "tableio": ("tabaudit.tableio", ("read_table",)),
    "data": ("tabaudit.data", ("load_dataset", "load_predictions", "write_manifest")),
    "contam.index": ("tabaudit.contam.index",
                     ("build_index", "CorpusIndex.load", "CorpusIndex.save",
                      "CorpusIndex.read_row")),
    "contam.search": ("tabaudit.contam.search",
                      ("scan_dataset", "row_match", "label_exposure", "association_search",
                       "identifier_search", "classify_contamination")),
    "metrics": ("tabaudit.metrics", ("audit_dataset",)),
    "stratify": ("tabaudit.stratify",
                 ("summarize_by_task", "one_way_anova", "pairwise_t", "flag_imbalance_riders",
                  "flag_negative_kappa", "partition_gap")),
    "report": ("tabaudit.report", ("write_report", "model_comparison")),
    "quartile": ("tabaudit.quartile", ("build_quartile_task", "shortcut_audit")),
    "prompts": ("tabaudit.prompts", ("build_prompts", "extract_prediction",
                                     "extract_prediction_ci")),
}
LAYERS = ("cli",) + tuple(LAYER_FUNCTIONS)

# Work counted on a span from the wrapped call's result.
COUNTERS = {
    "load_predictions": lambda result: len(result.records),
    "row_match": len,
}

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("tableio.csv_rows_per_s", "rows/s", "higher"),
    ("tableio.tbin_rows_per_s", "rows/s", "higher"),
    ("data.load_dataset_s", "s", "lower"),
    ("data.load_predictions_rows_per_s", "rows/s", "higher"),
    ("normalize.cells_per_s", "cells/s", "higher"),
    ("index.build_s", "s", "lower"),
    ("index.postings", "count", "lower"),
    ("index.postings_per_s", "postings/s", "higher"),
    ("index.spills", "count", "lower"),
    ("index.build_peak_mb", "MB", "lower"),
    ("index.bytes_per_posting", "B", "lower"),
    ("index.build_jobs2_s", "s", "lower"),
    ("index.load_s", "s", "lower"),
    ("index.lookup_us.p50", "us", "lower"),
    ("index.lookup_us.tail", "us", "lower"),
    ("index.frequency_us.p50", "us", "lower"),
    ("index.frequency_us.tail", "us", "lower"),
    ("search.scan_dataset_s", "s", "lower"),
    ("search.row_match_ms.p50", "ms", "lower"),
    ("search.row_match_ms.tail", "ms", "lower"),
    ("search.read_row_calls", "count", "lower"),
    ("search.read_row_s", "s", "lower"),
    ("search.matches", "count", "higher"),
    ("search.matches_per_read_row", "ratio", "higher"),
    ("search.association_us.p50", "us", "lower"),
    ("search.identifier_us.p50", "us", "lower"),
    ("metrics.audit_dataset_us.p50", "us", "lower"),
    ("stratify.s", "s", "lower"),
    ("report.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("quartile.build_task_s", "s", "lower"),
    ("quartile.shortcut_audit_s", "s", "lower"),
    ("prompts.build_ms_per_row.n2k", "ms", "lower"),
    ("prompts.build_ms_per_row.n8k", "ms", "lower"),
    ("prompts.extract_us.p50", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("share.index.contam_index", "ratio", "lower"),
    ("share.scan.search_read_row", "ratio", "lower"),
] + [(f"self_s.{layer}", "s", "lower") for layer in LAYERS if layer not in ("cli", "stratify")]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    run: str
    n: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; single-threaded callers only."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.run = ""
        self.paused = False  # set while the benchmark checks outputs
        self._stack: list[int] = []

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            count = COUNTERS.get(name.rsplit(".", 1)[-1])
            n = count(result) if count is not None and result is not None else None
            self.spans[sid] = Span(sid, parent, layer, name, start, end, self.run, n)

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced


@contextmanager
def patched(tracer: Tracer):
    """Swap every layer function for its traced wrapper; undo on exit."""
    importlib.import_module("tabaudit.cli")
    undo = []
    try:
        for layer, (module_name, names) in LAYER_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(tracer.wrap(layer, name, raw.__func__))
                    else:
                        new = tracer.wrap(layer, name, raw)
                    undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                orig = getattr(module, name)
                new = tracer.wrap(layer, name, orig)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("tabaudit"):
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                undo.append((mod, attr, orig))
                                setattr(mod, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(undo):
            setattr(obj, attr, old)


def _command(op) -> str:
    return op.metric[: -len("_s")]


def run_commands(wl, tracer: Tracer | None) -> tuple[dict[str, float], int, list[str]]:
    """Run the workload's CLI operations in-process; returns walls and failures."""
    from tabaudit import cli

    walls: dict[str, float] = defaultdict(float)
    failures = []
    for op in wl.ops:
        if op.out is not None:
            shutil.rmtree(op.out, ignore_errors=True)
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(list(op.args))
                else:
                    code = tracer.call("cli", _command(op), cli.main, list(op.args))
            walls[op.metric] += perf_counter() - start
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}")
            if tracer is not None:
                tracer.paused = True
            op.check(buf.getvalue())
        except Exception as exc:  # one failed operation must not stop the run
            failures.append(f"{_command(op)}: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.paused = False
    return walls, len(wl.ops), failures


# -- span analysis -------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return {s.id: s.duration - children[s.id] for s in spans}


def command_breakdown(spans: list[Span]) -> dict[str, dict]:
    """Per root command: wall time and self time per layer."""
    own = self_times(spans)
    root_of: dict[int, Span] = {}
    out: dict[str, dict] = {}
    for s in spans:  # ids follow start order, so a parent precedes its children
        root = root_of[s.id] = s if s.parent is None else root_of[s.parent]
        entry = out.setdefault(root.name, {"wall": 0.0, "layers": defaultdict(float),
                                           "read_row_s": 0.0})
        if s.parent is None:
            entry["wall"] += s.duration
        entry["layers"][s.layer] += own[s.id]
        if s.name == "CorpusIndex.read_row":
            entry["read_row_s"] += s.duration
    return out


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would not lie above the median, so
    the maximum is reported instead.
    """
    xs = sorted(values)
    return xs[-1] if len(xs) < 20 else xs[len(xs) - 11]


def span_metrics(spans: list[Span]) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    m: dict[str, float] = {}
    m["data.load_dataset_s"] = total("load_dataset")
    preds = by_name["load_predictions"]
    m["data.load_predictions_rows_per_s"] = sum(s.n for s in preds) / total("load_predictions")
    m["search.scan_dataset_s"] = total("scan_dataset")
    row_ms = [s.duration * 1e3 for s in by_name["row_match"]]
    m["search.row_match_ms.p50"] = statistics.median(row_ms)
    m["search.row_match_ms.tail"] = tail(row_ms)
    m["search.read_row_calls"] = len(by_name["CorpusIndex.read_row"])
    m["search.read_row_s"] = total("CorpusIndex.read_row")
    m["search.matches"] = sum(s.n for s in by_name["row_match"])
    m["search.matches_per_read_row"] = m["search.matches"] / max(1, m["search.read_row_calls"])
    m["metrics.audit_dataset_us.p50"] = statistics.median(
        s.duration * 1e6 for s in by_name["audit_dataset"])
    m["report.write_s"] = total("write_report")
    m["quartile.build_task_s"] = total("build_quartile_task")
    m["quartile.shortcut_audit_s"] = total("shortcut_audit")
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += own[s.id]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = layer_self[layer]
    m["stratify.s"] = m.pop("self_s.stratify")
    m["cli.self_s"] = m.pop("self_s.cli")
    cmds = command_breakdown(spans)
    index, scan = cmds["index"], cmds["scan"]
    m["share.index.contam_index"] = index["layers"]["contam.index"] / index["wall"]
    m["share.scan.search_read_row"] = (scan["layers"]["contam.search"]
                                       + scan["read_row_s"]) / scan["wall"]
    return m


# -- direct timing loops -------------------------------------------------------------


def _median_rate(work: int, fn, passes: int = 3) -> float:
    rates = []
    for _ in range(passes):
        start = perf_counter()
        fn()
        rates.append(work / (perf_counter() - start))
    return statistics.median(rates)


def _per_call_us(fn, items) -> list[float]:
    out = []
    for item in items:
        start = perf_counter_ns()
        fn(item)
        out.append((perf_counter_ns() - start) / 1e3)
    return out


def _to_tabaudit(ds):
    from tabaudit.data import Dataset, TaskSpec, TaskType

    dataset = Dataset(ds.id, tuple(ds.columns), tuple(tuple(r) for r in ds.rows))
    return dataset, TaskSpec(ds.id, TaskType(ds.task_type), ds.target,
                             class_labels=tuple(ds.labels))


def loop_metrics(wl, failures: list[str]) -> tuple[dict[str, float], int]:
    from tabaudit.contam import CorpusIndex, association_search, build_index, identifier_search
    from tabaudit.contam import normalize_cell
    from tabaudit.prompts import PromptTemplate, build_prompts, extract_prediction
    from tabaudit.tableio import read_table

    m: dict[str, float] = {}
    for suffix in ("csv", "tbin"):
        files = [p for p in wl.table_files if p.suffix == f".{suffix}"]
        rows = sum(len(read_table(p)[1]) for p in files)
        m[f"tableio.{suffix}_rows_per_s"] = _median_rate(
            rows, lambda files=files: [read_table(p) for p in files])

    cells = wl.corpus_cells[:100_000]
    m["normalize.cells_per_s"] = _median_rate(
        len(cells), lambda: [normalize_cell(c) for c in cells])

    def build(workers: int = 1):
        kwargs = dict(wl.build_kwargs)
        if "index_path" in kwargs:
            kwargs["index_path"] = wl.root / f"loop-{workers}.idx"
        start = perf_counter()
        index = build_index(wl.corpus, workers=workers, **kwargs)
        return index, perf_counter() - start

    index, m["index.build_s"] = build()
    stats = index.build_stats
    m["index.postings"] = stats["postings"]
    m["index.spills"] = stats["spills"]
    m["index.postings_per_s"] = stats["postings"] / m["index.build_s"]
    m["index.bytes_per_posting"] = wl.index_file.stat().st_size / stats["postings"]
    jobs2, m["index.build_jobs2_s"] = build(workers=2)
    jobs2.close()
    tracemalloc.start()
    try:
        build()[0].close()
        m["index.build_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    loads = []
    for _ in range(5):
        start = perf_counter()
        CorpusIndex.load(wl.index_file).close()
        loads.append(perf_counter() - start)
    m["index.load_s"] = statistics.median(loads)

    # Probe the representation the workload's scan reads: the in-memory
    # dict when the scan builds its own index, else the index file.
    if "index_path" in wl.build_kwargs:
        index.close()
        index = CorpusIndex.load(wl.index_file)
    keys = [normalize_cell(v) for v, _, _ in wl.probes] + [normalize_cell(v) for v in wl.misses]
    random.Random(f"{wl.name}:{wl.seed}:probe-order").shuffle(keys)
    lookups = _per_call_us(index.lookup, keys)
    freqs = _per_call_us(index.frequency, keys)
    for name, values in (("lookup", lookups), ("frequency", freqs)):
        m[f"index.{name}_us.p50"] = statistics.median(values)
        m[f"index.{name}_us.tail"] = tail(values)

    idents, pairs = [], []
    for ds, id_col, key_col in wl.scan_datasets:
        idents += sorted({c for c in ds.column(id_col) if c is not None})
        kj, tj = ds.columns.index(key_col), ds.columns.index(ds.target)
        pairs += [(r[kj], r[tj]) for r in ds.rows[: workloads.ASSOC_PROBES]
                  if r[kj] is not None and r[tj] is not None]
    m["search.identifier_us.p50"] = statistics.median(
        _per_call_us(lambda ident: identifier_search(index, [ident]), idents))
    m["search.association_us.p50"] = statistics.median(
        _per_call_us(lambda pair: association_search(index, *pair), pairs))
    attempted = 1
    try:
        checks.check_lookups(index, normalize_cell, wl.probes, wl.misses)
    except Exception as exc:  # a lost posting is a failed operation, not a crash
        failures.append(f"lookup probes: {exc}")

    template = PromptTemplate(style="tabula", shots=4)
    for label, n in zip(("n2k", "n8k"), workloads.PROMPT_LOOP_ROWS[wl.scale]):
        dataset, task = _to_tabaudit(workloads.prompt_dataset(wl.seed, n))
        start = perf_counter()
        build_prompts(dataset, task, template, seed=wl.seed)
        m[f"prompts.build_ms_per_row.{label}"] = (perf_counter() - start) * 1e3 / n
    m["prompts.extract_us.p50"] = statistics.median(_per_call_us(
        lambda text: extract_prediction(text, wl.completion_labels), wl.completions))
    return m, attempted


# -- entry point -----------------------------------------------------------------------


def run(wl) -> tuple[dict[str, float], int, list[str], list[str]]:
    """Traced run: returns metrics, attempted, failures and a printable report."""
    import tempfile

    tempfile.tempdir = str(wl.root / "tmp")
    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    attempted = 0
    failures: list[str] = []
    # An unrecorded warm-up pass first, then untraced/traced in ABBA order,
    # so that neither the cold first pass nor a steady drift of the machine
    # favours one mode.
    for k, modes in enumerate((("warm-up",), ("untraced", "traced"), ("traced", "untraced"))):
        for mode in modes:
            tracer.run = f"{wl.name}:{wl.seed}:pass{k}"
            if mode == "traced":
                with patched(tracer):
                    w, n, f = run_commands(wl, tracer)
            else:
                w, n, f = run_commands(wl, None)
            if mode in walls:
                walls[mode] += sum(w.values())
            attempted += n
            failures += f
    spans = [s for s in tracer.spans if s.run.endswith(":pass2")]
    with open(wl.root / "spans.jsonl", "w", encoding="utf-8") as handle:
        for s in tracer.spans:
            handle.write(json.dumps(asdict(s)) + "\n")

    metrics = span_metrics(spans)
    metrics["trace.overhead_frac"] = (walls["traced"] - walls["untraced"]) / walls["untraced"]
    looped, n = loop_metrics(wl, failures)
    metrics.update(looped)
    attempted += n

    lines = ["layer self time per command (last traced pass):"]
    for cmd, entry in command_breakdown(spans).items():
        parts = sorted(entry["layers"].items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{layer} {t / entry['wall']:.1%}" for layer, t in parts)
        lines.append(f"  {cmd:13s} {entry['wall']:8.3f} s: {shares}")
    return {name: metrics[name] for name, _, _ in PER_LAYER}, attempted, failures, lines
