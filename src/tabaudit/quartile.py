"""Quartile-classification task construction and structural-easiness audit.

A continuous target is discretized at its sample quartiles into four bins
that are balanced by construction. :func:`build_quartile_task` returns the
task as a :class:`~tabaudit.data.TaskSpec` of type ``QUARTILE``, whose
``labels()`` are the four bin labels. The quantile estimator is linear
interpolation between order statistics at position p * (n - 1) over the
sorted values; it is isolated in :func:`quartile_bins` so the convention
is swappable in one place.

The boundary tie rule is lower-inclusive on upper bins (v == q1 lands in
bin 1). This is deliberately at odds with the literal bin-label wording
("less than q1" / "between q1 and q2"): no label-faithful rule exists
without overlapping bins, so the rule is explicit here instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .data import Dataset, TaskSpec, TaskType, parse_cell
from .defaults import SHORTCUT_THRESHOLD as DEFAULT_SHORTCUT_THRESHOLD
from .errors import DegenerateStatisticsError, InputError

Boundaries = tuple[float, float, float]


def quartile_bins(values: Sequence[float]) -> Boundaries:
    """Sample quantiles at 0.25 / 0.50 / 0.75 by linear interpolation."""
    if len(values) < 4:
        raise InputError("quartile_bins: need at least 4 values")
    xs = sorted(float(v) for v in values)
    if not all(math.isfinite(x) for x in xs):
        raise InputError("quartile_bins: non-finite values rejected")
    if xs[0] == xs[-1]:
        raise DegenerateStatisticsError("quartile_bins: degenerate target (all values equal)")

    def at(p: float) -> float:
        pos = p * (len(xs) - 1)
        lo = int(math.floor(pos))
        frac = pos - lo
        if frac == 0.0:
            return xs[lo]
        return xs[lo] + frac * (xs[lo + 1] - xs[lo])

    return (at(0.25), at(0.50), at(0.75))


def format_boundary(value: float | int) -> str:
    """Render a boundary at full (source) precision; ints stay ints."""
    if isinstance(value, int):
        return str(value)
    return repr(value)


def bin_label(boundaries: Boundaries, bin_index: int) -> str:
    q1, q2, q3 = boundaries
    if bin_index == 0:
        return f"less than {format_boundary(q1)}"
    if bin_index == 1:
        return f"between {format_boundary(q1)} and {format_boundary(q2)}"
    if bin_index == 2:
        return f"between {format_boundary(q2)} and {format_boundary(q3)}"
    if bin_index == 3:
        return f"greater than {format_boundary(q3)}"
    raise InputError(f"bin_label: bin index {bin_index} out of range 0..3")


def bin_labels(boundaries: Boundaries) -> tuple[str, str, str, str]:
    return tuple(bin_label(boundaries, i) for i in range(4))  # type: ignore[return-value]


def assign_bin(value: float, boundaries: Boundaries) -> int:
    """Bin 0: v < q1; bin 1: q1 <= v < q2; bin 2: q2 <= v < q3; bin 3: v >= q3."""
    if not math.isfinite(value):
        raise InputError("assign_bin: non-finite value")
    q1, q2, q3 = boundaries
    if value < q1:
        return 0
    if value < q2:
        return 1
    if value < q3:
        return 2
    return 3


def build_quartile_task(dataset: Dataset, target_column: str) -> TaskSpec:
    """The quartile task over the finite numbers of a dataset's target column."""
    values = [
        v for v in map(parse_cell, dataset.column(target_column))
        if isinstance(v, float) and math.isfinite(v)
    ]
    if len(values) < 4:
        raise InputError(
            f"dataset {dataset.id!r}: target {target_column!r} has fewer than 4 finite numbers"
        )
    return TaskSpec(
        dataset.id, TaskType.QUARTILE, target_column, quartile_boundaries=quartile_bins(values)
    )


@dataclass(frozen=True)
class ShortcutFinding:
    feature: str
    n_evaluated: int
    bin_accuracy: float
    flagged: bool


@dataclass(frozen=True)
class ShortcutReport:
    dataset_id: str
    target_column: str
    threshold: float
    findings: tuple[ShortcutFinding, ...]
    note: str | None = None

    def flagged_features(self) -> list[str]:
        return [f.feature for f in self.findings if f.flagged]


def shortcut_audit(
    dataset: Dataset,
    task: TaskSpec,
    threshold: float = DEFAULT_SHORTCUT_THRESHOLD,
) -> ShortcutReport:
    """Check every numeric non-target feature for a single-feature shortcut.

    A feature's bin accuracy is the fraction of rows where dropping the
    feature's value into the *target's* quartile bins reproduces the true
    target bin. Values near 1.0 mean the task is solvable from that one
    feature (the adjusted-vs-raw price pattern); independent features sit
    near 0.25. ``task`` is a quartile task over ``dataset``. A feature is
    numeric when all its present cells are numbers; a row counts for it
    when its feature and target cells are both finite. ``threshold`` is
    in (0, 1].
    """
    if not 0.0 < threshold <= 1.0:
        raise InputError(f"shortcut threshold must be in (0, 1], got {threshold!r}")
    target_idx = dataset.column_index(task.target_column)
    boundaries = task.quartile_boundaries
    columns = [list(map(parse_cell, cells)) for cells in zip(*dataset.rows)]
    numeric_features = [
        (name, values)
        for i, (name, values) in enumerate(zip(dataset.columns, columns))
        if i != target_idx and set(map(type, values)) - {type(None)} == {float}
    ]
    if not numeric_features:
        return ShortcutReport(
            dataset_id=dataset.id,
            target_column=task.target_column,
            threshold=threshold,
            findings=(),
            note="no numeric non-target features to audit",
        )
    target_bins = cell_bins(columns[target_idx], boundaries)
    findings = []
    for name, values in numeric_features:
        hits = [
            feature_bin == target_bin
            for feature_bin, target_bin in zip(cell_bins(values, boundaries), target_bins)
            if feature_bin is not None and target_bin is not None
        ]
        n_eval = len(hits)
        acc = sum(hits) / n_eval if n_eval else 0.0
        findings.append(
            ShortcutFinding(
                feature=name,
                n_evaluated=n_eval,
                bin_accuracy=acc,
                flagged=n_eval > 0 and acc >= threshold,
            )
        )
    return ShortcutReport(
        dataset_id=dataset.id,
        target_column=task.target_column,
        threshold=threshold,
        findings=tuple(findings),
    )


def cell_bins(values: Iterable, boundaries: Boundaries) -> list[int | None]:
    """Each parsed cell's bin; None for a missing, text or non-finite cell.

    This is the one statement of which target cells a quartile task holds
    and in which bin: :func:`~tabaudit.data.gold_labels` labels its rows
    from it, and the shortcut audit bins both targets and features by it.
    """
    return [
        assign_bin(v, boundaries) if isinstance(v, float) and math.isfinite(v) else None
        for v in values
    ]
