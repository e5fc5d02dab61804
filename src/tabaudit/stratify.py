"""Task-type stratification and heterogeneity statistics.

Aggregates per-dataset metrics by task type, runs a one-way ANOVA and
Welch unequal-variance t-tests over lift values, and flags imbalance
riders (high majority baseline, negligible lift) and negative-kappa
datasets.

The F and t statistics are computed from the textbook sum-of-squares /
Welch formulas directly. Their p-values come from the regularized
incomplete beta function, computed with the standard library alone:
DiDonato & Morris's continued fraction (ACM TOMS 708) summed by the
modified Lentz method, with log B(a, b) from Stirling-series differences
for large arguments. The test suite checks the F and t p-values against
a 40-digit mpmath oracle to 1e-12 relative error, for numerator degrees
of freedom 1 to 20 (1 for t), denominator degrees of freedom 1 to 10^5
and p-values down to 1e-300. Both degrees of freedom large is untested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, median
from typing import Mapping, Sequence

from .defaults import MAX_LIFT as DEFAULT_MAX_LIFT
from .defaults import MIN_MAJORITY as DEFAULT_MIN_MAJORITY
from .errors import DegenerateStatisticsError, InputError
from .metrics import AuditMetrics


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
    """Upper tail of the F distribution: I_x(df2/2, df1/2), x = df2 / (df2 + df1 F)."""
    if f_stat <= 0.0:
        return 1.0
    r = df1 * f_stat / df2
    if math.isinf(r):  # df1 * F overflowed, where p may still be representable
        return _betainc(df2 / 2.0, df1 / 2.0, r,
                        math.log(df1) + math.log(f_stat) - math.log(df2))
    return _betainc(df2 / 2.0, df1 / 2.0, r)


def _t_sf_two_sided(t_stat: float, df: float) -> float:
    """Two-sided p for Student's t: I_x(df/2, 1/2), x = df / (df + t^2)."""
    if t_stat == 0.0:
        return 1.0
    r = t_stat * t_stat / df
    if math.isinf(r):  # t * t overflowed, where p may still be representable
        return _betainc(df / 2.0, 0.5, r, 2.0 * math.log(abs(t_stat)) - math.log(df))
    return _betainc(df / 2.0, 0.5, r)


def _betainc(a: float, b: float, r: float, log_r: float = math.inf) -> float:
    """Regularized incomplete beta I_x(a, b) at x = 1 / (1 + r), for r >= 0.

    Taking r rather than x gives both x and y = 1 - x = r / (1 + r), and
    their logarithms, without the cancellation of 1 - x or of
    log r - log(1 + r). The continued fraction runs on the side where it
    converges, x < (a + 1) / (a + b + 2); otherwise I_x(a, b) = 1 - I_y(b, a).

    An r that overflowed to inf comes with log_r, its logarithm taken from
    the logs of its factors; inf there means r is infinite and p is 0.
    """
    if r == 0.0:
        return 1.0
    if math.isinf(r):
        if math.isinf(log_r):
            return 0.0
        # x = 1 / (1 + r) is 1 / r and y = 1 - x is 1 to well within an ulp.
        x = math.exp(-log_r)
        log_x, y, log_y = -log_r, 1.0, -x
    else:
        log_x = -math.log1p(r)
        log_y = -math.log1p(1.0 / r) if r > 1.0 else math.log(r) + log_x
        x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    # log of x^a y^b / B(a, b), the factor shared by both sides.
    log_front = a * log_x + b * log_y - _ln_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        p = math.exp(log_front) * _beta_cf(a, b, x, y)
    else:
        p = 1.0 - math.exp(log_front) * _beta_cf(b, a, y, x)
    return min(1.0, max(0.0, p))


_CF_EPS = 2.0**-52
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10_000


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) divided by x^a y^b / B(a, b), for x < (a + 1) / (a + b + 2).

    The continued fraction is DiDonato & Morris's (ACM TOMS 708, bfrac).
    Its terms take lambda = a - (a + b) x from whichever of x and y cancels
    less, so the fraction keeps full precision near the mean, where x is
    close to 1 for large a. It is summed by the modified Lentz method.
    """
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    c, c0, c1, yp1 = 1.0 + lam, b / a, 1.0 + 1.0 / a, 1.0 + y
    # Lentz sums g = c / c1 + alpha_1 / (beta_1 + alpha_2 / (beta_2 + ...)).
    g = lentz_c = c / c1
    lentz_d = 0.0
    p, s = 1.0, a + 1.0
    for n in range(1, _CF_MAX_TERMS):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        lentz_d = beta + alpha * lentz_d
        lentz_d = 1.0 / (lentz_d if abs(lentz_d) > _CF_TINY else _CF_TINY)
        lentz_c = beta + alpha / lentz_c
        if abs(lentz_c) < _CF_TINY:
            lentz_c = _CF_TINY
        delta = lentz_c * lentz_d
        g *= delta
        if abs(delta - 1.0) <= _CF_EPS:
            return 1.0 / g
    raise DegenerateStatisticsError("incomplete beta: continued fraction did not converge")


# Stirling series of lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2):
# B_2k / (2k (2k - 1)) / z^(2k - 1) for k = 1..8, within 1e-16 for z >= 8.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _stirling_rest(z: float) -> float:
    zz = 1.0 / (z * z)
    s = 0.0
    for coef in reversed(_STIRLING):
        s = s * zz + coef
    return s / z


def _ln_beta(a: float, b: float) -> float:
    """log B(a, b), after DiDonato & Morris, ACM TOMS 708 (1992), algdiv.

    lgamma(a) + lgamma(b) - lgamma(a + b) loses about eps * lgamma(a) when a
    is large. With q = max(a, b) of 8 or more, lgamma(q) - lgamma(p + q) is
    taken instead from the Stirling series, whose large terms cancel
    algebraically rather than in floating point.
    """
    p, q = min(a, b), max(a, b)
    if q < 8.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    rest = _stirling_rest(q) - _stirling_rest(p + q)
    u = (p + q - 0.5) * math.log1p(p / q)
    v = p * (math.log(q) - 1.0)
    return math.lgamma(p) + (rest - u - v)


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
        raise InputError(f"min_majority must be in (0.5, 1], got {min_majority!r}")
    # NaN or an infinity would flag no rider, or every one, without a word.
    if not math.isfinite(max_lift):
        raise InputError(f"max_lift must be finite, got {max_lift!r}")
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
