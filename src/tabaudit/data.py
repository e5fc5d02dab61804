"""Core data model: datasets, task manifests, and prediction files.

Cells keep their source lexical form (``str``) so prompts can be
serialized byte-exactly; typed interpretation (number / boolean) is done
on demand by :func:`parse_cell`. ``None`` is the missing-cell value and
is never conflated with the empty string.

Loaded objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import InputError
from .tableio import Cell, read_table, write_table

# The one number grammar: sign, integer digits, fraction digits, exponent.
# At least one digit, before or after the point. ``\d`` is any Unicode
# decimal digit, as ``float`` and ``int`` accept.
NUMBER_RE = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?")

# Predicted-label slot for model outputs that matched no known label.
INVALID = None


class TaskType(str, Enum):
    BINARY = "binary"
    CATEGORICAL = "categorical"
    QUARTILE = "quartile"


def parse_cell(cell: Cell) -> str | float | bool | None:
    """Typed view of a lexical cell: bool, float, or the original string."""
    if cell is None:
        return None
    s = cell.strip()
    low = s.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if NUMBER_RE.fullmatch(s):
        return float(s)
    return cell


@dataclass(frozen=True)
class Dataset:
    """A table: ordered columns plus rows of lexical cells."""

    id: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise InputError(f"dataset {self.id!r}: duplicate column names")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise InputError(
                    f"dataset {self.id!r} row {i}: {len(row)} cells for "
                    f"{len(self.columns)} columns"
                )

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
    labels are generated (see :mod:`tabaudit.quartile`).
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


@dataclass(frozen=True)
class PredictionRecord:
    row_id: int
    true_label: str
    predicted: str | None  # None = invalid marker, scored as incorrect


@dataclass(frozen=True)
class PredictionSet:
    """Per-row predictions of one model on one dataset, joined to truth."""

    dataset_id: str
    model_id: str
    records: tuple[PredictionRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for rec in self.records:
            if rec.row_id in seen:
                raise InputError(
                    f"predictions {self.dataset_id!r}/{self.model_id!r}: "
                    f"duplicate row_id {rec.row_id}"
                )
            seen.add(rec.row_id)

    def true_labels(self) -> list[str]:
        return [rec.true_label for rec in self.records]


def load_dataset(manifest_path: str | Path, *, allow_unbound_quartile: bool = False) -> tuple[Dataset, TaskSpec]:
    """Load a dataset and its task spec from a manifest JSON file.

    The manifest is one JSON object:
    ``{"id", "task_type", "target_column", "class_labels" |
    "quartile_boundaries", "table_path"}``. ``table_path`` is resolved
    relative to the manifest file.

    ``allow_unbound_quartile`` admits quartile manifests without
    boundaries (used by quartile task generation, which computes them).
    """
    manifest_path = Path(manifest_path)
    manifest = _read_manifest(manifest_path)

    table_path = Path(manifest["table_path"])
    if not table_path.is_absolute():
        table_path = manifest_path.parent / table_path
    columns, rows = read_table(table_path)
    dataset = Dataset(
        id=manifest["id"],
        columns=tuple(columns),
        rows=tuple(tuple(row) for row in rows),
    )

    task_type = _parse_task_type(manifest)
    boundaries = manifest.get("quartile_boundaries")
    if task_type is TaskType.QUARTILE and boundaries is None and allow_unbound_quartile:
        task = None
    else:
        task = _build_task(manifest, task_type)

    target = manifest["target_column"]
    if target not in dataset.columns:
        raise InputError(
            f"manifest {manifest_path}: target column {target!r} absent from table"
        )
    if task is None:
        # Unbound quartile manifests get placeholder boundaries; callers
        # compute the real ones from the data.
        task = TaskSpec(
            dataset_id=manifest["id"],
            task_type=TaskType.QUARTILE,
            target_column=target,
            quartile_boundaries=(0.0, 0.0, 0.0),
        )
    return dataset, task


def _read_manifest(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from exc
    try:
        manifest = json.loads(text)
    except ValueError as exc:  # also an integer of 4300+ digits
        raise InputError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise InputError(f"malformed manifest {path}: expected a JSON object")
    for key in ("id", "task_type", "target_column", "table_path"):
        if key not in manifest:
            raise InputError(f"manifest {path}: missing field {key!r}")
    return manifest


def _parse_task_type(manifest: Mapping) -> TaskType:
    raw = manifest["task_type"]
    try:
        return TaskType(raw)
    except ValueError:
        raise InputError(f"unknown task_type {raw!r}") from None


def _build_task(manifest: Mapping, task_type: TaskType) -> TaskSpec:
    labels = manifest.get("class_labels")
    boundaries = manifest.get("quartile_boundaries")
    if task_type is TaskType.QUARTILE:
        if boundaries is None:
            raise InputError(
                f"manifest for {manifest['id']!r}: quartile task requires "
                "quartile_boundaries"
            )
        if not isinstance(boundaries, (list, tuple)) or len(boundaries) != 3:
            raise InputError(
                f"manifest for {manifest['id']!r}: boundary count must be 3"
            )
        return TaskSpec(
            dataset_id=manifest["id"],
            task_type=task_type,
            target_column=manifest["target_column"],
            quartile_boundaries=tuple(_boundary(b, manifest["id"]) for b in boundaries),
        )
    if labels is None:
        raise InputError(
            f"manifest for {manifest['id']!r}: {task_type.value} task requires "
            "class_labels"
        )
    return TaskSpec(
        dataset_id=manifest["id"],
        task_type=task_type,
        target_column=manifest["target_column"],
        class_labels=tuple(str(lab) for lab in labels),
    )


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


def write_manifest(path: str | Path, dataset_id: str, task: TaskSpec, table_path: str) -> None:
    """Write a manifest JSON in the same schema load_dataset consumes."""
    doc: dict = {
        "id": dataset_id,
        "task_type": task.task_type.value,
        "target_column": task.target_column,
        "table_path": table_path,
    }
    if task.task_type is TaskType.QUARTILE:
        doc["quartile_boundaries"] = list(task.quartile_boundaries)
    else:
        doc["class_labels"] = list(task.class_labels)
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_dataset(dataset: Dataset, table_path: str | Path) -> None:
    """Write a dataset to a table file (CSV or TBIN by suffix)."""
    write_table(table_path, dataset.columns, dataset.rows)


def json_records(path: str | Path, what: str) -> Iterator[tuple[str, dict]]:
    """Yield ``("path:lineno", object)`` for each non-blank line of a JSON Lines file.

    An unreadable file, a line that is not JSON and a line that is not a
    JSON object are each an :class:`InputError` naming the file or line.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # also an integer of 4300+ digits
                    raise InputError(f"{where}: malformed JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise InputError(f"{where}: {what} record must be a JSON object")
                yield where, obj
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def json_row_id(obj: Mapping, where: str) -> int:
    """A record's ``row_id``, which must be a JSON integer (not a bool)."""
    row_id = obj["row_id"]
    if not isinstance(row_id, int) or isinstance(row_id, bool):
        raise InputError(f"{where}: row_id must be an integer, got {row_id!r}")
    return row_id


# In the order in which a line's first missing field is named.
_PREDICTION_FIELDS = ("dataset_id", "row_id", "true_label", "predicted_label", "model_id")


def load_predictions(path: str | Path, task: TaskSpec, row_count: int) -> PredictionSet:
    """Load a JSON Lines prediction file and validate it against a task.

    Each line is a JSON object ``{"dataset_id", "row_id", "true_label",
    "predicted_label", "model_id"}`` whose ``row_id`` is an integer in
    ``range(row_count)`` and whose ``model_id`` is a string, the same on
    every line. Predicted labels outside the task's label set are
    retained with the invalid marker rather than dropped; true labels
    outside the set are an error. The first bad line is named as
    ``path:lineno``.
    """
    canonical = {label: label for label in task.labels()}
    fields = operator.itemgetter(*_PREDICTION_FIELDS)
    decode = json.JSONDecoder().decode
    records: list[PredictionRecord] = []
    first = None  # (dataset_id, model_id) of the first record
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if line.isspace():
                    continue
                try:
                    obj = decode(line)
                except ValueError:  # also an integer of 4300+ digits
                    obj = None
                if type(obj) is not dict:
                    _reject_record(line, f"{path}:{lineno}")
                try:
                    dataset_id, row_id, true_label, predicted, model_id = fields(obj)
                except KeyError:
                    missing = next(key for key in _PREDICTION_FIELDS if key not in obj)
                    raise InputError(f"{path}:{lineno}: missing field {missing!r}") from None
                if first is None:
                    first = dataset_id, model_id
                    if dataset_id != task.dataset_id:
                        raise InputError(
                            f"{path}:{lineno}: predictions for {dataset_id!r} loaded "
                            f"against task {task.dataset_id!r}"
                        )
                    if type(model_id) is not str:
                        raise InputError(
                            f"{path}:{lineno}: model_id must be a string, got {model_id!r}"
                        )
                elif dataset_id != first[0] or model_id != first[1]:
                    raise InputError(
                        f"{path}:{lineno}: mixed dataset/model ids in one prediction file"
                    )
                label = canonical.get(str(true_label))
                if label is None:
                    raise InputError(
                        f"{path}:{lineno}: true_label {str(true_label)!r} outside task label set"
                    )
                if type(row_id) is not int or not 0 <= row_id < row_count:
                    where = f"{path}:{lineno}"
                    json_row_id(obj, where)  # raises for a non-integer
                    raise InputError(
                        f"{where}: row_id {row_id} out of range for dataset "
                        f"{task.dataset_id!r} ({row_count} rows)"
                    )
                if predicted is not None:
                    predicted = canonical.get(str(predicted), INVALID)
                records.append(PredictionRecord(row_id, label, predicted))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read predictions {path}: {exc}") from exc
    if first is None:
        raise InputError(f"{path}: no prediction records")
    return PredictionSet(dataset_id=first[0], model_id=first[1], records=tuple(records))


def _reject_record(line: str, where: str) -> NoReturn:
    """Raise the InputError for a line that is not JSON or not a JSON object."""
    try:
        json.loads(line)  # its message, e.g. for a leading byte-order mark
    except ValueError as exc:
        raise InputError(f"{where}: malformed JSON: {exc}") from exc
    raise InputError(f"{where}: predictions record must be a JSON object")


def write_predictions(path: str | Path, preds: PredictionSet) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rec in preds.records:
            handle.write(
                json.dumps(
                    {
                        "dataset_id": preds.dataset_id,
                        "row_id": rec.row_id,
                        "true_label": rec.true_label,
                        "predicted_label": rec.predicted,
                        "model_id": preds.model_id,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def class_distribution(labels: Sequence[str] | Iterable[str]) -> dict[str, int]:
    """Count labels. Counts sum to the input length; order-insensitive."""
    counts: dict[str, int] = {}
    n = 0
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
        n += 1
    if n == 0:
        raise InputError("class_distribution: empty label sequence")
    return counts
