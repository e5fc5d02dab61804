"""Core data model: datasets, task manifests, and prediction files.

Cells keep their source lexical form (``str``) so prompts can be
serialized byte-exactly; the one typed view, a number as a float, is
taken on demand by :func:`parse_cell`. ``None`` is the missing-cell
value and is never conflated with the empty string.

A row's gold label has one rule, :func:`gold_labels`, which gives a
dataset's whole gold-label column; ``None`` marks a row outside the task.

Predictions are columns: a :class:`PredictionSet` holds parallel tuples
of row ids, true labels and predicted labels, read from a JSON Lines
file by :func:`load_predictions` and joined by row id to the gold-label
column.

Every JSON file is read by :func:`read_json` or :func:`json_records`,
with one error policy, and written by :func:`write_json` or :func:`write_jsonl`.

Loaded objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError
from .tableio import NUMBER_RE, Cell, read_table

# Bound once: CPython compiles a method call on an imported name to an
# attribute load and a bound method per call, and parse_cell runs per cell.
_is_number = NUMBER_RE.fullmatch

# Predicted-label slot for model outputs that matched no known label.
INVALID = None


class TaskType(str, Enum):
    BINARY = "binary"
    CATEGORICAL = "categorical"
    QUARTILE = "quartile"


def parse_cell(cell: Cell) -> str | float | None:
    """Typed view of a lexical cell: a float for a number, else the cell unchanged."""
    if cell is None:
        return None
    s = cell.strip()
    if _is_number(s):
        return float(s)
    return cell


@dataclass(frozen=True)
class Dataset:
    """A table: ordered columns plus rows of lexical cells.

    ``table_path`` is the file :func:`load_dataset` read the rows from
    (``None`` for a dataset built in memory); it takes no part in equality.
    """

    id: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    table_path: Path | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise InputError(f"dataset {self.id!r}: duplicate column names")
        width = len(self.columns)
        if not set(map(len, self.rows)) <= {width}:  # walk the rows only to name a bad one
            i, row = next((i, row) for i, row in enumerate(self.rows) if len(row) != width)
            raise InputError(f"dataset {self.id!r} row {i}: {len(row)} cells for {width} columns")

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise InputError(f"dataset {self.id!r}: no column {name!r}") from None

    def column(self, name: str) -> tuple[Cell, ...]:
        idx = self.column_index(name)
        return tuple(row[idx] for row in self.rows)

    def record(self, row_id: int) -> dict[str, Cell]:
        """Row as a column -> cell mapping, preserving column order."""
        if not 0 <= row_id < len(self.rows):
            raise InputError(f"dataset {self.id!r}: row_id {row_id} out of range")
        return dict(zip(self.columns, self.rows[row_id]))


@dataclass(frozen=True)
class TaskSpec:
    """Prediction task over one dataset.

    Binary and categorical tasks carry an explicit label set; quartile
    tasks carry three ascending bin boundaries from which the four bin
    labels are generated (see :mod:`tabaudit.quartile`). These checks are
    the only ones of a task's shape, a manifest's task included.
    """

    dataset_id: str
    task_type: TaskType
    target_column: str
    class_labels: tuple[str, ...] | None = None
    quartile_boundaries: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.task_type is TaskType.QUARTILE:
            if self.quartile_boundaries is None:
                raise InputError(
                    f"task {self.dataset_id!r}: quartile task requires boundaries"
                )
            if len(self.quartile_boundaries) != 3:
                raise InputError(
                    f"task {self.dataset_id!r}: boundary count must be 3, "
                    f"got {len(self.quartile_boundaries)}"
                )
            b1, b2, b3 = self.quartile_boundaries
            if not (b1 <= b2 <= b3):
                raise InputError(
                    f"task {self.dataset_id!r}: boundaries must be ascending"
                )
        else:
            if self.class_labels is None:
                raise InputError(f"task {self.dataset_id!r}: class labels required")
            n = len(self.class_labels)
            if len(set(self.class_labels)) != n:
                raise InputError(f"task {self.dataset_id!r}: duplicate class labels")
            if self.task_type is TaskType.BINARY and n != 2:
                raise InputError(
                    f"task {self.dataset_id!r}: binary task needs exactly 2 labels, got {n}"
                )
            if self.task_type is TaskType.CATEGORICAL and n < 3:
                raise InputError(
                    f"task {self.dataset_id!r}: categorical task needs >= 3 labels, got {n}"
                )

    def labels(self) -> tuple[str, ...]:
        """The full label set, generating quartile bin labels as needed."""
        if self.task_type is TaskType.QUARTILE:
            from .quartile import bin_labels

            return bin_labels(self.quartile_boundaries)
        assert self.class_labels is not None
        return self.class_labels


def gold_labels(dataset: Dataset, task: TaskSpec) -> tuple[str | None, ...]:
    """The gold label of every row of ``dataset`` under ``task``, in row order.

    ``None`` marks a row outside the task: a missing target cell, and for
    a quartile task also a text or non-finite one, which
    :func:`~tabaudit.quartile.cell_bins` gives no bin. A quartile row's
    label is its bin's label. A class task's label is the target cell
    itself, as the task spells it; a present cell outside the label set is
    an :class:`InputError` naming the dataset and the row.
    """
    cells = dataset.column(task.target_column)
    labels = task.labels()
    if task.task_type is TaskType.QUARTILE:
        from .quartile import cell_bins

        bins = cell_bins(map(parse_cell, cells), task.quartile_boundaries)
        return tuple(None if b is None else labels[b] for b in bins)
    spelled = {label: label for label in labels}
    spelled[None] = None
    try:  # the whole column in one pass; walk it only to name a bad row
        return tuple(map(spelled.__getitem__, cells))
    except KeyError:
        i, value = next((i, v) for i, v in enumerate(cells) if v not in spelled)
        raise InputError(
            f"dataset {dataset.id!r} row {i}: target value {value!r} not in the task's class set"
        ) from None


@dataclass(frozen=True)
class PredictionRecord:
    row_id: int
    true_label: str
    predicted: str | None  # None = invalid marker, scored as incorrect


@dataclass(frozen=True)
class PredictionSet:
    """Per-row predictions of one model on one dataset, joined to truth.

    Three parallel columns, one entry per row: ``row_ids``, ``true_labels``
    and ``predicted`` (a label, or the invalid marker ``None``). ``missing``
    counts the rows among them that the prediction file did not cover
    (:func:`load_predictions` holds those as invalid). ``records`` is a
    read-only view that builds a :class:`PredictionRecord` per row on each
    access; the metrics read the columns.
    """

    dataset_id: str
    model_id: str
    row_ids: tuple[int, ...] = ()
    true_labels: tuple[str, ...] = ()
    predicted: tuple[str | None, ...] = ()
    missing: int = 0

    def __post_init__(self) -> None:
        n = len(self.row_ids)
        if len(self.true_labels) != n or len(self.predicted) != n:
            raise InputError(
                f"predictions {self.dataset_id!r}/{self.model_id!r}: "
                "columns of unequal length"
            )
        _check_unique(self.row_ids, self.dataset_id, self.model_id)

    @property
    def records(self) -> tuple[PredictionRecord, ...]:
        return tuple(map(PredictionRecord, self.row_ids, self.true_labels, self.predicted))


def _check_unique(row_ids: Sequence[int], dataset_id: str, model_id: str) -> None:
    if len(set(row_ids)) != len(row_ids):
        seen: set[int] = set()
        duplicate = next(r for r in row_ids if r in seen or seen.add(r))
        raise InputError(
            f"predictions {dataset_id!r}/{model_id!r}: duplicate row_id {duplicate}"
        )


def load_dataset(
    manifest_path: str | Path, *, target_only: bool = False, data_quartiles: bool = False
) -> tuple[Dataset, TaskSpec]:
    """Load a dataset and its task spec from a manifest JSON file.

    The manifest is one JSON object:
    ``{"id", "task_type", "target_column", "class_labels" |
    "quartile_boundaries", "table_path"}``. ``table_path`` is resolved
    relative to the manifest file. A quartile manifest may leave out
    ``quartile_boundaries``; its task then bins the target column at the
    column's own quartiles (:func:`~tabaudit.quartile.build_quartile_task`),
    as with ``data_quartiles`` once stated boundaries pass their checks.
    ``target_only`` keeps the target column alone, once the whole table
    has passed the checks of a full load.
    """
    manifest_path = Path(manifest_path)
    manifest = _read_manifest(manifest_path)

    table_path = Path(manifest["table_path"])
    if not table_path.is_absolute():
        table_path = manifest_path.parent / table_path
    target = manifest["target_column"]
    # A target that is not a string names no column: a full load refuses it below.
    only = target if target_only and isinstance(target, str) else None
    columns, rows = read_table(table_path, only)
    if only is not None:  # the whole header is checked; the target's name is kept
        Dataset(manifest["id"], tuple(columns), ())
        columns = [name for name in columns if name == target]
    dataset = Dataset(manifest["id"], tuple(columns), tuple(map(tuple, rows)), table_path)

    try:
        task_type = TaskType(manifest["task_type"])
    except ValueError:
        raise InputError(
            f"manifest {manifest_path}: unknown task_type {manifest['task_type']!r}"
        ) from None
    if target not in dataset.columns:
        raise InputError(
            f"manifest {manifest_path}: target column {target!r} absent from table"
        )
    # TaskSpec alone checks the task's shape: its labels or its boundaries.
    if task_type is not TaskType.QUARTILE:
        labels = manifest.get("class_labels")
        labels = None if labels is None else tuple(map(str, labels))
        return dataset, TaskSpec(dataset.id, task_type, target, class_labels=labels)
    boundaries = manifest.get("quartile_boundaries")
    if boundaries is not None:
        boundaries = tuple(_boundary(b, dataset.id) for b in boundaries)
        task = TaskSpec(dataset.id, task_type, target, quartile_boundaries=boundaries)
        if not data_quartiles:  # else checked, then replaced by the data's quartiles
            return dataset, task
    from .quartile import build_quartile_task

    return dataset, build_quartile_task(dataset, target)


def _read_manifest(path: Path) -> dict:
    """The manifest's JSON object, its fields checked for JSON type only."""
    manifest = read_json(path, "manifest")
    if not isinstance(manifest, dict):
        raise InputError(f"malformed manifest {path}: expected a JSON object")
    for key in ("id", "task_type", "target_column", "table_path"):
        if key not in manifest:
            raise InputError(f"manifest {path}: missing field {key!r}")
    for key in ("id", "table_path"):
        if not isinstance(manifest[key], str):
            raise InputError(f"manifest {path}: field {key!r} must be a string")
    check_name_part(manifest["id"], f"manifest {path}: field 'id'")
    for key in ("class_labels", "quartile_boundaries"):
        if manifest.get(key) is not None and not isinstance(manifest[key], list):
            raise InputError(f"manifest {path}: field {key!r} must be a JSON list")
    return manifest


def check_name_part(value: str, what: str) -> None:
    """Refuse ``value`` as part of an output file name unless it is
    non-empty and holds no ``/`` or NUL."""
    if not value or "/" in value or "\x00" in value:
        raise InputError(f"{what} must be non-empty, without '/' or NUL, got {value!r}")


def _boundary(raw, dataset_id) -> float:
    """A quartile boundary: a finite JSON number, or a string in the number grammar."""
    value = parse_cell(raw) if isinstance(raw, str) else raw
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if math.isfinite(value):
                return value
    raise InputError(
        f"manifest for {dataset_id!r}: quartile boundary {raw!r} is not a finite number"
    )


def write_manifest(path: str | Path, task: TaskSpec, table_path: str) -> None:
    """Write ``task``'s manifest JSON, in the schema load_dataset consumes."""
    doc: dict = {
        "id": task.dataset_id,
        "task_type": task.task_type.value,
        "target_column": task.target_column,
        "table_path": table_path,
    }
    if task.task_type is TaskType.QUARTILE:
        doc["quartile_boundaries"] = list(task.quartile_boundaries)
    else:
        doc["class_labels"] = list(task.class_labels)
    write_json(path, doc)


def read_json(path: str | Path, what: str):
    """The JSON document in UTF-8 file ``path``. An unreadable file is an
    :class:`InputError` saying ``cannot read``; a non-UTF-8, non-JSON or too
    deeply nested one, one saying ``malformed``. Both name ``what`` it is."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: also UnicodeDecodeError
        raise InputError(f"malformed {what} {path}: {exc}") from exc


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as JSON: two-space indent, sorted keys, a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, docs: Iterable) -> None:
    """Write each of ``docs`` as one line of JSON with sorted keys."""
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps builds per call
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(encode(doc) + "\n" for doc in docs)


def read_lines(path: str | Path, what: str) -> list[str]:
    """All lines of a UTF-8 text file, from one open.

    Lines end at LF, CRLF or CR only. The file is decoded in
    the same chunks as line-by-line iteration, so a decode error names the
    same byte. An unreadable or non-UTF-8 file is an :class:`InputError`.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


# JSON's whitespace. str.strip() and str.splitlines() also take \x0b, \x0c,
# \x1c-\x1f, \x85, U+2028 and U+2029 for whitespace or line breaks; json does not.
_JSON_SPACE = " \t\r\n"

# The C scanner that JSONDecoder.raw_decode calls: (value, end) of the JSON
# value that starts at an index, StopIteration if none starts there.
_scan_json = make_scanner(json.JSONDecoder())


def json_records(
    path: str | Path, what: str, lines: list[str] | None = None
) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, object)`` for each non-blank line of a JSON Lines file.

    ``lines`` are the file's lines when :func:`read_lines` has already
    read them. Each line is decoded by json's C scanner, as
    :func:`json.loads` would decode it; :func:`json.loads` runs only on a
    line the scanner refuses, to word the error. An unreadable file, a
    line that is not JSON (or is nested past the recursion limit) and a
    line that is not a JSON object are each an :class:`InputError`
    naming the file or ``path:lineno``.
    """
    if lines is None:
        lines = read_lines(path, what)
    for lineno, line in enumerate(lines, start=1):
        if line.isspace():
            continue
        text = line.strip(_JSON_SPACE)
        try:
            obj, end = _scan_json(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(text):
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also an integer of 4300+ digits
                raise InputError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"{path}:{lineno}: {what} record must be a JSON object")
        yield lineno, obj


def json_row_id(obj: Mapping, where: str) -> int:
    """A record's ``row_id``, which must be a JSON integer (not a bool)."""
    row_id = obj["row_id"]
    if not isinstance(row_id, int) or isinstance(row_id, bool):
        raise InputError(f"{where}: row_id must be an integer, got {row_id!r}")
    return row_id


def task_gold_label(gold: Sequence[str | None], row_id: int, dataset_id: str, where: str) -> str:
    """The gold label of row ``row_id`` of :func:`gold_labels` column ``gold``.

    A row id outside the dataset, or naming a row outside the task, is an
    :class:`InputError` naming ``where``.
    """
    if not 0 <= row_id < len(gold):
        raise InputError(
            f"{where}: row_id {row_id} out of range for dataset {dataset_id!r} ({len(gold)} rows)"
        )
    label = gold[row_id]
    if label is None:
        raise InputError(f"{where}: row_id {row_id} is outside the task")
    return label


# In the order in which a line's first missing field is named.
_PREDICTION_FIELDS = ("dataset_id", "row_id", "true_label", "predicted_label", "model_id")
_field_values = itemgetter(*_PREDICTION_FIELDS)

def load_predictions(
    path: str | Path,
    task: TaskSpec,
    gold: Sequence[str | None],
    *,
    lines: list[str] | None = None,
) -> PredictionSet:
    """Load a JSON Lines prediction file and join it to the dataset's gold labels.

    ``gold`` is the dataset's gold-label column, :func:`gold_labels`. Each
    non-blank line is a JSON object ``{"dataset_id", "row_id",
    "true_label", "predicted_label", "model_id"}``, with only JSON
    whitespace around it, whose ``row_id`` is an integer in
    ``range(len(gold))`` naming a row in the task, whose ``true_label``
    is that row's gold label, and whose ``model_id`` is a string, the
    same on every line. Predicted labels outside the task's label set are
    retained with the invalid marker rather than dropped. The first bad
    line is named as ``path:lineno``; a repeated ``row_id`` is named by
    dataset, model and row id once every line has passed. ``lines`` are
    the file's lines when :func:`read_lines` has already read them.

    The result spans every row in the task, in row order, with the gold
    labels as its true labels. A row the file does not cover holds the
    invalid marker, so it scores as wrong, and is counted in ``missing``.
    So dropping rows from a file never raises its accuracy, and the
    majority baseline is the dataset's, not the file's.
    """
    labels = {label: label for label in task.labels()}
    task_id, n = task.dataset_id, len(gold)
    by_row = [INVALID] * n
    row_ids = []
    file_model_id = None  # the first record's model_id, a string once set
    # A line that passes costs no call and no string; one refused is worded as it fails.
    for lineno, obj in json_records(path, "predictions", lines):
        try:
            dataset_id, row_id, true_label, predicted, model_id = _field_values(obj)
        except KeyError:
            missing = next(key for key in _PREDICTION_FIELDS if key not in obj)
            raise InputError(f"{path}:{lineno}: missing field {missing!r}") from None
        if file_model_id is None:
            if dataset_id != task_id:
                raise InputError(
                    f"{path}:{lineno}: predictions for {dataset_id!r} loaded "
                    f"against task {task_id!r}"
                )
            if type(model_id) is not str:
                raise InputError(f"{path}:{lineno}: model_id must be a string, got {model_id!r}")
            file_model_id = model_id
        elif dataset_id != task_id or model_id != file_model_id:
            raise InputError(f"{path}:{lineno}: mixed dataset/model ids in one prediction file")
        if not (type(row_id) is int and 0 <= row_id < n and gold[row_id] is not None):
            where = f"{path}:{lineno}"
            task_gold_label(gold, json_row_id(obj, where), task_id, where)  # raises
        label = gold[row_id]
        if true_label != label and str(true_label) != label:
            raise InputError(
                f"{path}:{lineno}: true_label {str(true_label)!r} disagrees with the "
                f"dataset's label {label!r} for row_id {row_id}"
            )
        row_ids.append(row_id)
        by_row[row_id] = None if predicted is None else labels.get(str(predicted), INVALID)
    if file_model_id is None:
        raise InputError(f"{path}: no prediction records")
    _check_unique(row_ids, task_id, file_model_id)
    in_task = [i for i, label in enumerate(gold) if label is not None]
    return PredictionSet(
        task_id,
        file_model_id,
        tuple(in_task),
        tuple(map(gold.__getitem__, in_task)),
        tuple(map(by_row.__getitem__, in_task)),
        missing=len(in_task) - len(row_ids),
    )


def write_predictions(path: str | Path, preds: PredictionSet) -> None:
    write_jsonl(path, (
        {"dataset_id": preds.dataset_id, "row_id": row_id, "true_label": true_label,
         "predicted_label": predicted, "model_id": preds.model_id}
        for row_id, true_label, predicted in zip(preds.row_ids, preds.true_labels, preds.predicted)
    ))


def class_distribution(labels: Sequence[str] | Iterable[str]) -> Counter[str]:
    """Count labels, in order of first appearance. Counts sum to the input length."""
    counts = Counter(labels)
    if not counts:
        raise InputError("class_distribution: empty label sequence")
    return counts
