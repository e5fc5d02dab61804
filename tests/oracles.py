"""Independent reference implementations the toolkit is checked against.

Deliberately written on different foundations than the package code:
confusion-matrix brute force for the agreement metrics, scipy.stats for
the test statistics, mpmath's arbitrary-precision incomplete beta for
p-values (from a float x, or, in the ``_exact`` helpers, from the
statistic itself at 40 digits), and numpy for quantiles.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy import stats as scipy_stats


def brute_accuracy(truth: list[str], preds: list[str | None]) -> float:
    return sum(1 for t, p in zip(truth, preds) if p == t) / len(truth)


def brute_majority(truth: list[str]) -> float:
    best = 0
    for label in set(truth):
        best = max(best, sum(1 for t in truth if t == label))
    return best / len(truth)


def brute_kappa(truth: list[str], preds: list[str | None]) -> float:
    """Cohen's kappa from an explicit confusion matrix."""
    n = len(truth)
    truth_labels = sorted(set(truth))
    pred_labels = sorted({p for p in preds if p is not None}) + [None]
    matrix = {(t, p): 0 for t in truth_labels for p in pred_labels}
    for t, p in zip(truth, preds):
        matrix[(t, p)] += 1
    p_o = sum(matrix.get((lab, lab), 0) for lab in truth_labels) / n
    p_e = 0.0
    for lab in truth_labels:
        row_marginal = sum(matrix[(lab, p)] for p in pred_labels) / n
        col_marginal = sum(matrix.get((t, lab), 0) for t in truth_labels) / n
        p_e += row_marginal * col_marginal
    return (p_o - p_e) / (1.0 - p_e)


def scipy_anova_f(groups) -> float:
    f, _ = scipy_stats.f_oneway(*[np.asarray(g, dtype=float) for g in groups])
    return float(f)


def scipy_welch_t(a, b) -> tuple[float, float]:
    res = scipy_stats.ttest_ind(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), equal_var=False
    )
    return float(res.statistic), float(res.pvalue)


def mp_f_sf(f_stat: float, df1: float, df2: float) -> float:
    """Upper tail of F via mpmath's regularized incomplete beta."""
    if f_stat <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f_stat)
    return float(mpmath.betainc(df2 / 2, df1 / 2, 0, x, regularized=True))


def mp_t_sf_two_sided(t_stat: float, df: float) -> float:
    if t_stat == 0:
        return 1.0
    x = df / (df + t_stat * t_stat)
    return float(mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


def mp_betainc_exact(a, b, num_x, num_y) -> mpmath.mpf:
    """I_x(a, b) at 40 digits, x = num_x / (num_x + num_y), formed from the exact inputs.

    The series is summed on the side where mpmath's converges fast,
    x < (a + 1) / (a + b + 2); otherwise the value is 1 - I_y(b, a), with
    y = num_y / (num_x + num_y). Even so, mpmath can fail to converge for a
    beyond 10^4 when the result lies far below 1e-300, so the domain is
    degrees of freedom up to 10^5 and p-values of 1e-300 or more.
    """
    with mpmath.workdps(40):
        a, b, num_x, num_y = (mpmath.mpf(v) for v in (a, b, num_x, num_y))
        x, y = num_x / (num_x + num_y), num_y / (num_x + num_y)
        if x < (a + 1) / (a + b + 2):
            return +mpmath.betainc(a, b, 0, x, regularized=True)
        return 1 - mpmath.betainc(b, a, 0, y, regularized=True)


def mp_f_sf_exact(f_stat: float, df1: float, df2: float) -> mpmath.mpf:
    """Upper tail of F: I_x(df2/2, df1/2), x = df2 / (df2 + df1 F) formed exactly."""
    with mpmath.workdps(40):
        df1, df2 = mpmath.mpf(df1), mpmath.mpf(df2)
        return mp_betainc_exact(df2 / 2, df1 / 2, df2, df1 * mpmath.mpf(f_stat))


def mp_t_sf_two_sided_exact(t_stat: float, df: float) -> mpmath.mpf:
    """Two-sided p for Student's t: I_x(df/2, 1/2), x = df / (df + t^2) formed exactly."""
    with mpmath.workdps(40):
        df = mpmath.mpf(df)
        return mp_betainc_exact(df / 2, mpmath.mpf(1) / 2, df, mpmath.mpf(t_stat) ** 2)


def numpy_quartiles(values) -> tuple[float, float, float]:
    arr = np.asarray(list(values), dtype=float)
    q = np.quantile(arr, [0.25, 0.5, 0.75])  # linear interpolation default
    return float(q[0]), float(q[1]), float(q[2])


def enumeration_bin(value: float, boundaries) -> int:
    """Bin index by direct comparison against each boundary."""
    return sum(1 for b in boundaries if value >= b)
