"""The three contamination search strategies and verdict classification.

* Distinctive-identifier search: locate tables containing given identifier
  values (names, IDs, ticker symbols).
* Row-level value matching: schema-agnostic. A test row matches a corpus
  row when enough of its normalized cell values co-occur there, regardless
  of column names or order. A distinctiveness gate keeps ubiquitous values
  ("0", "1", "yes") from manufacturing matches on their own.
* Task-level association search: count corpus rows where a (key, target)
  value pair co-occurs, catching tasks solvable from memorized
  associations even when no evaluation row is present.

Row matching and label exposure are decided from the index alone: a
corpus row holds a value when the row is in that value's postings, which
the index keeps sorted, so the test is a bisection (see
``index.Postings``). A scan reads no source table, except that the
near-miss log below, while it is enabled, re-reads the rows it compares.

Numeric matching is exact canonical-decimal equality; near-misses within
1e-6 relative are logged (at INFO) for human review, never auto-matched.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..data import Cell, Dataset, TaskSpec, parse_cell
from ..defaults import COMPLETE_THRESHOLD as DEFAULT_COMPLETE_THRESHOLD
from ..defaults import DIVERSITY_THRESHOLD as DEFAULT_DIVERSITY_THRESHOLD
from ..defaults import MIN_DISTINCTIVE as DEFAULT_MIN_DISTINCTIVE
from ..defaults import MIN_OVERLAP as DEFAULT_MIN_OVERLAP
from ..defaults import SELECTIVITY_FRACTION as DEFAULT_SELECTIVITY_FRACTION
from ..errors import InputError
from .index import CorpusIndex, Postings
from .normalize import normalize_cells

log = logging.getLogger("tabaudit.contam")

STRATEGY_IDENTIFIER = "identifier"
STRATEGY_ROW_MATCH = "row_match"
STRATEGY_ASSOCIATION = "association"

# On small corpora 0.1% of rows rounds to nothing; values seen only a
# handful of times stay distinctive regardless of corpus size.
DEFAULT_SELECTIVITY_FLOOR = 16
DEFAULT_ASSOCIATION_SAMPLES = 10

CATEGORY_COMPLETE = "complete_overlap"
CATEGORY_DIRECT = "direct_with_labels"
CATEGORY_TASK_LEAKAGE = "task_leakage"
CATEGORY_NONE = "none"


@dataclass
class MatchEvidence:
    """One contamination finding."""

    strategy: str
    matched: list[tuple[str, int]]  # (table_id, row_id)
    overlap: float
    test_row_id: int | None = None
    label_exposed: bool = False
    exposed_value: str | None = None


@dataclass(frozen=True)
class AssociationResult:
    """Co-occurrence evidence for one (key, target) value pair."""

    key_value: str
    target_value: str
    count: int
    tables: tuple[str, ...]
    samples: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ContaminationVerdict:
    dataset_id: str
    category: str
    row_match_fraction: float
    association_count: int
    distinct_association_tables: int


@dataclass
class EvidenceBundle:
    """Everything one dataset's scan produced, ready for classification."""

    dataset_id: str
    row_evidence: list[MatchEvidence] = field(default_factory=list)
    associations: list[AssociationResult] = field(default_factory=list)
    identifier_evidence: list[MatchEvidence] = field(default_factory=list)

    def all_evidence(self) -> list[MatchEvidence]:
        out = list(self.identifier_evidence) + list(self.row_evidence)
        for assoc in self.associations:
            if assoc.samples:
                out.append(
                    MatchEvidence(
                        strategy=STRATEGY_ASSOCIATION,
                        matched=list(assoc.samples),
                        overlap=0.0,
                        exposed_value=assoc.target_value,
                    )
                )
        return out


@dataclass(frozen=True)
class ScanConfig:
    """A scan's settings, each range-checked here and nowhere else."""

    min_overlap: float = DEFAULT_MIN_OVERLAP
    min_distinctive: int = DEFAULT_MIN_DISTINCTIVE
    selectivity_fraction: float = DEFAULT_SELECTIVITY_FRACTION
    selectivity_floor: int = DEFAULT_SELECTIVITY_FLOOR
    complete_threshold: float = DEFAULT_COMPLETE_THRESHOLD
    diversity_threshold: int = DEFAULT_DIVERSITY_THRESHOLD
    association_samples: int = DEFAULT_ASSOCIATION_SAMPLES
    identifier_column: str | None = None
    association_key_column: str | None = None
    association_probes: int = 25

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("min_overlap", 0.0 < self.min_overlap <= 1.0, "in (0, 1]"),
            ("complete_threshold", 0.0 < self.complete_threshold <= 1.0, "in (0, 1]"),
            ("diversity_threshold", self.diversity_threshold >= 1, ">= 1"),
            ("min_distinctive", self.min_distinctive >= 0, ">= 0"),
            ("selectivity_fraction", 0.0 <= self.selectivity_fraction <= 1.0, "in [0, 1]"),
            ("association_probes", self.association_probes >= 0, ">= 0"),
        ):
            if not ok:
                raise InputError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def selectivity_cap(index: CorpusIndex, config: ScanConfig) -> int:
    """A value is distinctive when its corpus frequency is below this cap."""
    return max(
        config.selectivity_floor,
        math.ceil(config.selectivity_fraction * index.total_rows),
    )


def identifier_search(
    index: CorpusIndex, identifiers: Sequence[str]
) -> dict[str, list[tuple[str, int]]]:
    """Locate every (table, row) containing each identifier value."""
    if not identifiers:
        raise InputError("identifier_search: empty identifier list")
    hits: dict[str, list[tuple[str, int]]] = {}
    for ident in identifiers:
        postings = index.lookup(index.normalize(ident))
        hits[ident] = [(index.tables[t].table_id, r) for t, r in postings]
    return hits


def row_match(
    index: CorpusIndex,
    test_row: Mapping[str, Cell],
    config: ScanConfig = ScanConfig(),
    *,
    test_row_id: int | None = None,
    views: dict[str, Postings] | None = None,
) -> list[MatchEvidence]:
    """Schema-agnostic row-level matching against the corpus.

    Candidates are gathered from the postings of the row's distinctive
    normalized values. A candidate holds a test value when it is in that
    value's postings; it matches when matched-cells / non-missing-cells
    >= ``config.min_overlap`` and at least ``config.min_distinctive``
    matched cells carry values rarer than the selectivity cap. ``views``
    caches postings by value across calls (``scan_dataset`` passes one per
    dataset), so each distinct value held by the corpus is looked up once.
    Absent values are not cached: a dataset of unique values the corpus
    lacks would otherwise fill the cache with empty views.
    """
    if not test_row:
        raise InputError("row_match: empty test row")
    min_overlap, min_distinctive = config.min_overlap, config.min_distinctive
    cap = selectivity_cap(index, config)

    cells = normalize_cells(
        [v for v in test_row.values() if v is not None], fold_dates=index.fold_dates
    )
    if not cells:
        return []
    cache = {} if views is None else views
    views = {}
    for value in set(cells):
        view = cache.get(value)
        if view is None:
            view = index.postings(value)
            if view:
                cache[value] = view
        views[value] = view

    gather_from = (
        [v for v in views if 0 < len(views[v]) < cap]
        if min_distinctive > 0
        else [v for v in views if len(views[v]) > 0]
    )
    candidates: set[tuple[int, int]] = set()
    for value in gather_from:
        candidates.update(views[value])

    evidence = []
    for cand in sorted(candidates):
        held = {v for v, view in views.items() if cand in view}
        matched_cells = [v for v in cells if v in held]
        overlap = len(matched_cells) / len(cells)
        distinctive_cells = sum(1 for v in matched_cells if len(views[v]) < cap)
        if overlap >= min_overlap and distinctive_cells >= min_distinctive:
            tid, rid = cand
            evidence.append(
                MatchEvidence(
                    strategy=STRATEGY_ROW_MATCH,
                    matched=[(index.tables[tid].table_id, rid)],
                    overlap=overlap,
                    test_row_id=test_row_id,
                )
            )
        elif log.isEnabledFor(logging.INFO):
            _log_near_numeric_miss(test_row, index.read_row(*cand))
    return evidence


def _log_near_numeric_miss(
    test_row: Mapping[str, Cell], corpus_row: Mapping[str, Cell]
) -> None:
    """Log numeric values that almost coincide (<= 1e-6 relative) for review."""
    for a in _numeric_values(test_row):
        for b in _numeric_values(corpus_row):
            if a != b and abs(a - b) <= 1e-6 * max(abs(a), abs(b)):
                log.info("near-miss numeric pair (not matched): %r vs %r", a, b)


def _numeric_values(row: Mapping[str, Cell]) -> set[float]:
    return {
        f
        for f in map(parse_cell, row.values())
        if isinstance(f, float) and f != 0.0 and math.isfinite(f)
    }


def label_exposure(index: CorpusIndex, evidence: MatchEvidence, target_value: Cell) -> bool:
    """Whether the matched corpus row holds the test row's target value.

    The target is normalized as the index was, and the row holds it when
    the row is in the target's postings, so a target that row matching
    would find in the row counts as exposed.
    """
    if target_value is None:
        return False
    table_id, rid = evidence.matched[0]
    cand = (index.table_index[table_id], rid)
    if cand in index.postings(index.normalize(target_value)):
        evidence.label_exposed = True
        evidence.exposed_value = target_value if isinstance(target_value, str) else str(target_value)
        return True
    if log.isEnabledFor(logging.INFO):
        _log_near_numeric_miss({"target": target_value}, index.read_row(*cand))
    return False


def association_search(
    index: CorpusIndex,
    key_value: Cell,
    target_value: Cell,
    max_samples: int = DEFAULT_ASSOCIATION_SAMPLES,
) -> AssociationResult:
    """Count corpus rows whose cells contain both values."""
    if key_value is None or target_value is None:
        raise InputError("association_search: both values must be non-missing")
    key_norm = index.normalize(key_value)
    target_norm = index.normalize(target_value)
    located = _common_pairs(index.postings(key_norm), index.postings(target_norm))
    tables = tuple(sorted({index.tables[t].table_id for t, _ in located}))
    samples = tuple(
        (index.tables[t].table_id, r) for t, r in located[:max_samples]
    )
    return AssociationResult(
        key_value=str(key_value),
        target_value=str(target_value),
        count=len(located),
        tables=tables,
        samples=samples,
    )


def _common_pairs(a: Postings, b: Postings) -> list[tuple[int, int]]:
    """The pairs in both views, in (table, row) order: one merge of the two
    sorted walks, linear in their lengths, with no set built."""
    common = []
    rest = iter(b)
    other = next(rest, None)
    for pair in a:
        while other is not None and other < pair:
            other = next(rest, None)
        if other is None:
            break
        if other == pair:
            common.append(pair)
    return common


def classify_contamination(
    dataset: Dataset,
    bundle: EvidenceBundle,
    config: ScanConfig = ScanConfig(),
) -> ContaminationVerdict:
    """Assign the contamination category from aggregated evidence.

    complete_overlap: at least ``config.complete_threshold`` of the test
    rows matched a corpus row.
    direct_with_labels: some rows matched, with the target value exposed.
    task_leakage: no meaningful row evidence, but the task's (key, target)
    association is attested across ``config.diversity_threshold`` or more
    distinct corpus tables.
    """
    matched_rows = {
        ev.test_row_id for ev in bundle.row_evidence if ev.test_row_id is not None
    }
    fraction = len(matched_rows) / dataset.row_count if dataset.row_count else 0.0
    any_exposed = any(ev.label_exposed for ev in bundle.row_evidence)
    assoc_count = sum(a.count for a in bundle.associations)
    assoc_tables: set[str] = set()
    for a in bundle.associations:
        assoc_tables.update(a.tables)

    if fraction >= config.complete_threshold:
        category = CATEGORY_COMPLETE
    elif fraction > 0.0 and any_exposed:
        category = CATEGORY_DIRECT
    elif len(assoc_tables) >= config.diversity_threshold:
        category = CATEGORY_TASK_LEAKAGE
    else:
        category = CATEGORY_NONE
    return ContaminationVerdict(
        dataset_id=dataset.id,
        category=category,
        row_match_fraction=fraction,
        association_count=assoc_count,
        distinct_association_tables=len(assoc_tables),
    )


def scan_dataset(
    index: CorpusIndex,
    dataset: Dataset,
    task: TaskSpec,
    config: ScanConfig = ScanConfig(),
) -> tuple[EvidenceBundle, ContaminationVerdict]:
    """Run all applicable strategies for one dataset and classify it.

    Row matching uses the feature cells only (the target is withheld, as
    at evaluation time); label exposure then checks whether matched corpus
    rows reveal the target value. Identifier and association probes run
    when their columns are configured.
    """
    bundle = EvidenceBundle(dataset_id=dataset.id)
    target_idx = dataset.column_index(task.target_column)
    views: dict[str, Postings] = {}

    for row_id in range(dataset.row_count):
        row = dataset.record(row_id)
        target_value = dataset.rows[row_id][target_idx]
        features = {k: v for k, v in row.items() if k != task.target_column}
        for ev in row_match(index, features, config, test_row_id=row_id, views=views):
            label_exposure(index, ev, target_value)
            bundle.row_evidence.append(ev)

    if config.identifier_column is not None:
        idents = sorted(
            {c for c in dataset.column(config.identifier_column) if c is not None}
        )
        if idents:
            for ident, hits in identifier_search(index, idents).items():
                if hits:
                    bundle.identifier_evidence.append(
                        MatchEvidence(
                            strategy=STRATEGY_IDENTIFIER,
                            matched=hits,
                            overlap=1.0,
                            exposed_value=ident,
                        )
                    )

    if config.association_key_column is not None:
        key_idx = dataset.column_index(config.association_key_column)
        probed: set[tuple[str, str]] = set()
        for row_id in range(min(config.association_probes, dataset.row_count)):
            key = dataset.rows[row_id][key_idx]
            target = dataset.rows[row_id][target_idx]
            if key is None or target is None:
                continue
            pair = (str(key), str(target))
            if pair in probed:
                continue
            probed.add(pair)
            result = association_search(index, key, target, config.association_samples)
            if result.count > 0:
                bundle.associations.append(result)

    return bundle, classify_contamination(dataset, bundle, config)
