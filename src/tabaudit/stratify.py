"""Task-type stratification and heterogeneity statistics.

Aggregates per-dataset metrics by task type, runs a one-way ANOVA and
Welch unequal-variance t-tests over lift values, and flags imbalance
riders (high majority baseline, negligible lift) and negative-kappa
datasets.

The F and t statistics are computed from the textbook sum-of-squares /
Welch formulas directly; p-values come from the regularized incomplete
beta function (scipy.special.betainc), validated in the test suite at
1e-10 relative tolerance against an independent high-precision oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, median
from typing import Mapping, Sequence

from .errors import DegenerateStatisticsError, InputError
from .metrics import AuditMetrics

DEFAULT_MIN_MAJORITY = 0.85
DEFAULT_MAX_LIFT = 0.01


@dataclass(frozen=True)
class TaskTypeSummary:
    task_type: str
    n_datasets: int
    mean_lift: float
    median_lift: float
    pct_at_or_below_baseline: float


@dataclass(frozen=True)
class StatTestResult:
    test_kind: str  # "anova" | "welch_t"
    statistic: float
    p_value: float
    degrees_of_freedom: tuple[float, ...]


@dataclass(frozen=True)
class PartitionGapRow:
    group: str
    n: int
    mean_lift_a: float
    mean_lift_b: float
    gap: float


def summarize_by_task(
    metrics: Sequence[AuditMetrics], tasks: Mapping[str, str]
) -> list[TaskTypeSummary]:
    """One summary per task type present; 'at or below baseline' is lift <= 0."""
    groups: dict[str, list[float]] = {}
    for m in metrics:
        task_type = tasks.get(m.dataset_id)
        if task_type is None:
            raise InputError(f"summarize_by_task: unknown task type for {m.dataset_id!r}")
        groups.setdefault(str(task_type), []).append(m.lift)
    summaries = []
    for task_type in sorted(groups):
        lifts = groups[task_type]
        at_or_below = sum(1 for v in lifts if v <= 0.0)
        summaries.append(
            TaskTypeSummary(
                task_type=task_type,
                n_datasets=len(lifts),
                mean_lift=fmean(lifts),
                median_lift=median(lifts),
                pct_at_or_below_baseline=100.0 * at_or_below / len(lifts),
            )
        )
    return summaries


def one_way_anova(groups: Sequence[Sequence[float]]) -> StatTestResult:
    """One-way ANOVA over lift groups: F = (SSB/df1) / (SSW/df2)."""
    if len(groups) < 2:
        raise InputError("one_way_anova: need at least 2 groups")
    sizes = [len(g) for g in groups]
    if any(n < 2 for n in sizes):
        raise InputError("one_way_anova: every group needs at least 2 values")
    total_n = sum(sizes)
    grand = sum(sum(g) for g in groups) / total_n
    group_means = [sum(g) / len(g) for g in groups]
    ssb = sum(n * (gm - grand) ** 2 for n, gm in zip(sizes, group_means))
    ssw = sum(
        sum((x - gm) ** 2 for x in g) for g, gm in zip(groups, group_means)
    )
    if ssw == 0.0:
        raise DegenerateStatisticsError("one_way_anova: zero within-group variance")
    df1 = float(len(groups) - 1)
    df2 = float(total_n - len(groups))
    f_stat = (ssb / df1) / (ssw / df2)
    p = _f_sf(f_stat, df1, df2)
    return StatTestResult("anova", f_stat, p, (df1, df2))


def pairwise_t(group_a: Sequence[float], group_b: Sequence[float]) -> StatTestResult:
    """Welch unequal-variance t-test with Welch-Satterthwaite df, two-sided p."""
    na, nb = len(group_a), len(group_b)
    if na < 2 or nb < 2:
        raise InputError("pairwise_t: each group needs at least 2 values")
    mean_a, mean_b = fmean(group_a), fmean(group_b)
    var_a = sum((x - mean_a) ** 2 for x in group_a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in group_b) / (nb - 1)
    if var_a == 0.0 and var_b == 0.0:
        raise DegenerateStatisticsError("pairwise_t: degenerate variance")
    se_a, se_b = var_a / na, var_b / nb
    t_stat = (mean_a - mean_b) / math.sqrt(se_a + se_b)
    df = (se_a + se_b) ** 2 / (
        se_a**2 / (na - 1) + se_b**2 / (nb - 1)
    )
    p = _t_sf_two_sided(t_stat, df)
    return StatTestResult("welch_t", t_stat, p, (df,))


def _f_sf(f_stat: float, df1: float, df2: float) -> float:
    """Upper tail of the F distribution via the regularized incomplete beta."""
    if f_stat <= 0.0:
        return 1.0
    from scipy.special import betainc  # deferred: only p-values need scipy

    x = df2 / (df2 + df1 * f_stat)
    return float(min(1.0, max(0.0, betainc(df2 / 2.0, df1 / 2.0, x))))


def _t_sf_two_sided(t_stat: float, df: float) -> float:
    """Two-sided p for Student's t via the regularized incomplete beta."""
    if t_stat == 0.0:
        return 1.0
    from scipy.special import betainc  # deferred: only p-values need scipy

    x = df / (df + t_stat * t_stat)
    return float(min(1.0, max(0.0, betainc(df / 2.0, 0.5, x))))


def flag_imbalance_riders(
    metrics: Sequence[AuditMetrics],
    min_majority: float = DEFAULT_MIN_MAJORITY,
    max_lift: float = DEFAULT_MAX_LIFT,
) -> list[AuditMetrics]:
    """Datasets where class imbalance does the work: high baseline, no lift.

    Returns metrics with majority_baseline >= min_majority and
    lift <= max_lift, sorted by descending majority baseline.
    """
    if not 0.5 < min_majority <= 1.0:
        raise InputError("flag_imbalance_riders: min_majority must be in (0.5, 1]")
    flagged = [
        m for m in metrics if m.majority_baseline >= min_majority and m.lift <= max_lift
    ]
    return sorted(flagged, key=lambda m: (-m.majority_baseline, m.dataset_id))


def flag_negative_kappa(metrics: Sequence[AuditMetrics]) -> list[AuditMetrics]:
    """Datasets with agreement worse than chance, most negative first."""
    flagged = [m for m in metrics if m.kappa < 0.0]
    return sorted(flagged, key=lambda m: (m.kappa, m.dataset_id))


def partition_gap(
    metrics_a: Sequence[AuditMetrics],
    metrics_b: Sequence[AuditMetrics],
    partition: Mapping[str, str],
) -> list[PartitionGapRow]:
    """Per-group mean lift for two models and their difference (a - b)."""
    by_a = {m.dataset_id: m for m in metrics_a}
    by_b = {m.dataset_id: m for m in metrics_b}
    if set(by_a) != set(by_b):
        raise InputError("partition_gap: models cover different dataset sets")
    groups: dict[str, list[str]] = {}
    for dataset_id in by_a:
        group = partition.get(dataset_id)
        if group is None:
            raise InputError(f"partition_gap: dataset {dataset_id!r} missing from partition")
        groups.setdefault(group, []).append(dataset_id)
    rows = []
    for group in sorted(groups):
        ids = groups[group]
        mean_a = fmean([by_a[d].lift for d in ids])
        mean_b = fmean([by_b[d].lift for d in ids])
        rows.append(
            PartitionGapRow(
                group=group,
                n=len(ids),
                mean_lift_a=mean_a,
                mean_lift_b=mean_b,
                gap=mean_a - mean_b,
            )
        )
    return rows
