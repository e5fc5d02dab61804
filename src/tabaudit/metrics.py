"""Per-dataset evaluation metrics: accuracy, majority baseline, lift, kappa.

Invalid predictions (the None marker) are scored as incorrect and form
their own prediction-marginal category in the kappa computation; excluding
them would inflate accuracy. So are the rows of the task that a
prediction file did not cover, which :func:`~tabaudit.data.load_predictions`
holds as invalid; ``coverage`` is the share of rows the file did cover.

Every metric reads a :class:`PredictionSet`'s columns. A ``Counter`` keeps
labels in order of first appearance, so sums over its items add the same
terms in the same order as a pass over the rows would.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import eq
from typing import Sequence

from .data import PredictionSet, class_distribution
from .errors import DegenerateStatisticsError, InputError


@dataclass(frozen=True)
class AuditMetrics:
    dataset_id: str
    model_id: str
    accuracy: float
    majority_baseline: float
    lift: float
    kappa: float
    n: int
    coverage: float = 1.0  # rows the file predicted / rows in the task


def majority_baseline(true_labels: Sequence[str]) -> float:
    """Accuracy of always predicting the most frequent class.

    Ties are harmless: the max count is unique even when the argmax class
    is not.
    """
    counts = class_distribution(true_labels)
    return max(counts.values()) / len(true_labels)


def accuracy(preds: PredictionSet) -> float:
    if not preds.predicted:
        raise InputError("accuracy: empty prediction set")
    # A true label is never None, so an invalid prediction never agrees.
    return sum(map(eq, preds.predicted, preds.true_labels)) / len(preds.predicted)


def lift(acc: float, baseline: float) -> float:
    """Improvement over naive majority prediction: accuracy - baseline."""
    return acc - baseline


def cohen_kappa(preds: PredictionSet) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    p_o is the observed agreement rate; p_e the agreement expected from
    the product of truth and prediction marginals. Invalid predictions are
    a prediction-marginal category of their own (they never agree with a
    true label, so they depress both p_o and p_e consistently).
    """
    if not preds.predicted:
        raise InputError("cohen_kappa: empty prediction set")
    n = len(preds.predicted)
    truth_counts = Counter(preds.true_labels)
    p_o = sum(map(eq, preds.predicted, preds.true_labels)) / n
    p_e = sum(
        (truth_counts[label] / n) * (count / n)
        for label, count in Counter(preds.predicted).items()
        if label is not None
    )
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise DegenerateStatisticsError(
            "cohen_kappa: degenerate agreement (p_e = 1 with imperfect observed agreement)"
        )
    return (p_o - p_e) / (1.0 - p_e)


def recovery(model_accuracy: float, reference_accuracy: float) -> float:
    """Model accuracy as a percentage of a reference model's accuracy."""
    if reference_accuracy <= 0:
        raise InputError("recovery: reference accuracy must be positive")
    return 100.0 * model_accuracy / reference_accuracy


def audit_dataset(preds: PredictionSet) -> AuditMetrics:
    """All per-dataset metrics; the lift identity holds exactly."""
    acc = accuracy(preds)
    maj = majority_baseline(preds.true_labels)
    n = len(preds.row_ids)
    return AuditMetrics(
        dataset_id=preds.dataset_id,
        model_id=preds.model_id,
        accuracy=acc,
        majority_baseline=maj,
        lift=lift(acc, maj),
        kappa=cohen_kappa(preds),
        n=n,
        coverage=(n - preds.missing) / n,
    )
