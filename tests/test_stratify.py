import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    mp_betainc_exact,
    mp_f_sf,
    mp_f_sf_exact,
    mp_t_sf_two_sided,
    mp_t_sf_two_sided_exact,
    scipy_anova_f,
    scipy_welch_t,
)
from tabaudit.errors import DegenerateStatisticsError, InputError
from tabaudit.metrics import AuditMetrics
from tabaudit.stratify import (
    _betainc,
    _f_sf,
    _ln_beta,
    _t_sf_two_sided,
    flag_imbalance_riders,
    flag_negative_kappa,
    one_way_anova,
    pairwise_t,
    partition_gap,
    summarize_by_task,
)


def am(dataset_id, lift=0.0, maj=0.5, kappa=0.0, model="m", n=10):
    return AuditMetrics(
        dataset_id=dataset_id,
        model_id=model,
        accuracy=maj + lift,
        majority_baseline=maj,
        lift=lift,
        kappa=kappa,
        n=n,
    )


def random_groups(rng, k=None, min_size=2, max_size=30):
    k = k or rng.randint(2, 4)
    groups = []
    for _ in range(k):
        n = rng.randint(min_size, max_size)
        mu = rng.uniform(-1, 1)
        groups.append([mu + rng.gauss(0, 0.3) for _ in range(n)])
    return groups


# -- summarize -------------------------------------------------------------------


def test_summarize_single():
    out = summarize_by_task([am("d", lift=0.1)], {"d": "binary"})
    assert len(out) == 1
    s = out[0]
    assert (s.task_type, s.n_datasets, s.mean_lift, s.median_lift) == ("binary", 1, 0.1, 0.1)
    assert s.pct_at_or_below_baseline == 0.0


def test_summarize_mixed_signs():
    out = summarize_by_task(
        [am("a", lift=0.1), am("b", lift=-0.1)], {"a": "binary", "b": "binary"}
    )
    s = out[0]
    assert s.mean_lift == 0.0
    assert s.median_lift == 0.0
    assert s.pct_at_or_below_baseline == 50.0


def test_summarize_unknown_task():
    with pytest.raises(InputError, match="unknown task type"):
        summarize_by_task([am("a")], {})


def test_summarize_counts_sum():
    rng = random.Random(2)
    metrics = [am(f"d{i}", lift=rng.uniform(-1, 1)) for i in range(30)]
    tasks = {m.dataset_id: rng.choice(["binary", "categorical", "quartile"])
             for m in metrics}
    out = summarize_by_task(metrics, tasks)
    assert sum(s.n_datasets for s in out) == 30
    for s in out:
        lifts = [m.lift for m in metrics if tasks[m.dataset_id] == s.task_type]
        assert min(lifts) <= s.median_lift <= max(lifts)


# -- anova -----------------------------------------------------------------------


def test_anova_identical_groups_f_zero():
    res = one_way_anova([[1.0, 2.0], [1.0, 2.0]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_anova_textbook_example():
    res = one_way_anova([[1.0, 2.0], [3.0, 4.0]])
    # SSB = 4, SSW = 1, df = (1, 2) -> F = 8.
    assert res.statistic == pytest.approx(8.0, abs=1e-12)
    assert res.degrees_of_freedom == (1.0, 2.0)


def test_anova_zero_within_variance():
    with pytest.raises(DegenerateStatisticsError, match="zero within-group variance"):
        one_way_anova([[1.0, 1.0], [2.0, 2.0]])


def test_anova_needs_two_groups():
    with pytest.raises(InputError):
        one_way_anova([[1.0, 2.0]])
    with pytest.raises(InputError):
        one_way_anova([[1.0, 2.0], [1.0]])


def test_anova_matches_scipy_and_mpmath():
    rng = random.Random(42)
    for _ in range(100):
        groups = random_groups(rng)
        res = one_way_anova(groups)
        expected_f = scipy_anova_f(groups)
        assert res.statistic == pytest.approx(expected_f, rel=1e-10)
        expected_p = mp_f_sf(res.statistic, *res.degrees_of_freedom)
        assert res.p_value == pytest.approx(expected_p, rel=1e-10, abs=1e-300)


def test_anova_location_invariance():
    rng = random.Random(6)
    groups = random_groups(rng, k=3)
    base = one_way_anova(groups)
    shifted = one_way_anova([[x + 5.0 for x in g] for g in groups])
    assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9)


# -- welch t ---------------------------------------------------------------------


def test_t_identical_groups():
    res = pairwise_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_t_textbook_example():
    res = pairwise_t([1.0, 2.0], [3.0, 5.0])
    assert res.statistic == pytest.approx((1.5 - 4.0) / math.sqrt(0.25 + 1.0), abs=1e-12)


def test_t_degenerate_variance():
    with pytest.raises(DegenerateStatisticsError, match="degenerate variance"):
        pairwise_t([1.0, 1.0], [2.0, 2.0])


def test_t_matches_scipy_and_mpmath():
    rng = random.Random(43)
    for _ in range(100):
        a, b = random_groups(rng, k=2)
        res = pairwise_t(a, b)
        expected_t, expected_p_scipy = scipy_welch_t(a, b)
        assert res.statistic == pytest.approx(expected_t, rel=1e-10)
        expected_p = mp_t_sf_two_sided(res.statistic, res.degrees_of_freedom[0])
        assert res.p_value == pytest.approx(expected_p, rel=1e-10)
        assert res.p_value == pytest.approx(expected_p_scipy, rel=1e-8)


def test_f_equals_t_squared_two_groups():
    rng = random.Random(44)
    for _ in range(50):
        n = rng.randint(3, 20)
        a = [rng.gauss(0, 1) for _ in range(n)]
        b = [rng.gauss(0.5, 1) for _ in range(n)]  # equal sizes: Welch == pooled
        f = one_way_anova([a, b]).statistic
        t = pairwise_t(a, b).statistic
        assert f == pytest.approx(t * t, rel=1e-9)


def test_t_location_invariance():
    rng = random.Random(45)
    a, b = random_groups(rng, k=2)
    base = pairwise_t(a, b)
    shifted = pairwise_t([x + 3.0 for x in a], [x + 3.0 for x in b])
    assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9)


# -- incomplete beta ---------------------------------------------------------------


def _statistic_for(p, sf, max_log10):
    """The statistic at which the decreasing tail sf falls to p, by bisection on log10.

    Past 10**max_log10 the statistic (or its square) would overflow, so
    for few degrees of freedom the smallest p-values are out of reach.
    """
    lo, hi = -40.0, float(max_log10)
    for _ in range(60):
        mid = (lo + hi) / 2
        if sf(10.0**mid) > p:
            lo = mid
        else:
            hi = mid
    return 10.0**lo


@settings(max_examples=150)
@given(df1=st.integers(1, 20), log_df2=st.floats(0.0, 5.0), log_p=st.floats(-300.0, 0.0))
def test_f_sf_matches_exact_input_oracle_property(df1, log_df2, log_p):
    df2 = 10.0**log_df2
    f_stat = _statistic_for(10.0**log_p, lambda f: _f_sf(f, df1, df2), 300)
    expected = mp_f_sf_exact(f_stat, df1, df2)
    assert abs(_f_sf(f_stat, df1, df2) - expected) <= 1e-12 * expected


@settings(max_examples=150)
@given(log_df=st.floats(0.0, 5.0), log_p=st.floats(-300.0, 0.0))
def test_t_sf_matches_exact_input_oracle_property(log_df, log_p):
    df = 10.0**log_df
    t_stat = _statistic_for(10.0**log_p, lambda t: _t_sf_two_sided(t, df), 150)
    expected = mp_t_sf_two_sided_exact(t_stat, df)
    assert abs(_t_sf_two_sided(t_stat, df) - expected) <= 1e-12 * expected


@given(log_t=st.floats(-6.0, 6.0), log_df=st.floats(0.0, 5.0))
def test_f_of_t_squared_is_two_sided_t_property(log_t, log_df):
    t, df = 10.0**log_t, 10.0**log_df
    assert _f_sf(t * t, 1.0, df) == pytest.approx(_t_sf_two_sided(t, df), rel=1e-13)


@given(log_df2=st.floats(0.0, 5.0), df1=st.integers(1, 20), log_spread=st.floats(-3.0, 3.0))
def test_incomplete_beta_complement_property(log_df2, df1, log_spread):
    # I_x(a, b) + I_y(b, a) = 1, with x = 1 / (1 + r) and y = 1 / (1 + 1 / r),
    # over the (a, b) = (df2 / 2, df1 / 2) of the F tests above. r is drawn
    # around b / a, the mean, where x is closest to 1 for large a.
    a, b = 10.0**log_df2 / 2, df1 / 2
    r = b / a * 10.0**log_spread
    assert abs(_betainc(a, b, r) + _betainc(b, a, 1.0 / r) - 1.0) <= 1e-13


@pytest.mark.parametrize("a", [1e3, 1.2345e4, 5e4])
@pytest.mark.parametrize("b", [0.5, 4.0, 10.0])
def test_incomplete_beta_near_the_mean_for_large_a(a, b):
    # x = 1 / (1 + r) lies within an ulp or so of 1 - b / a here; taking
    # a - (a + b) x from x alone would cost up to 2e-12 of relative error.
    for k in (0.5, 0.9, 1.0, 1.1, 2.0):
        r = b / a * k
        expected = mp_betainc_exact(a, b, 1.0, r)
        assert abs(_betainc(a, b, r) - expected) <= 1e-13 * expected


@given(log_a=st.floats(-0.3, 5.0), log_b=st.floats(-0.3, 5.0))
@example(log_a=0.9031, log_b=-0.301)  # a just above 8, where the Stirling series starts
@example(log_a=0.9031, log_b=0.9031)
def test_ln_beta_matches_mpmath_property(log_a, log_b):
    # Plain lgamma sums miss this by up to 4e-11 once an argument is large.
    a, b = 10.0**log_a, 10.0**log_b
    expected = mpmath.log(mpmath.beta(a, b))
    assert abs(_ln_beta(a, b) - expected) <= 2e-14 * max(1.0, abs(expected))


def test_incomplete_beta_limits():
    assert _betainc(3.0, 2.0, 0.0) == 1.0
    assert _betainc(3.0, 2.0, math.inf) == 0.0
    assert _f_sf(0.0, 2.0, 10.0) == 1.0
    assert _t_sf_two_sided(0.0, 10.0) == 1.0
    # t with 1 degree of freedom is Cauchy: p = 1 - 2 atan(|t|) / pi.
    assert _t_sf_two_sided(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert _t_sf_two_sided(-3.0, 1.0) == pytest.approx(1 - 2 * math.atan(3.0) / math.pi,
                                                       rel=1e-14)


# -- flagging --------------------------------------------------------------------


def brain_stroke_like():
    return AuditMetrics("brain-stroke-like", "m", 0.958, 0.959, -0.001, -0.002, 1000)


def test_flag_imbalance_riders_defaults():
    flagged = flag_imbalance_riders([brain_stroke_like()])
    assert [m.dataset_id for m in flagged] == ["brain-stroke-like"]


def test_flag_imbalance_riders_excludes_good_lift():
    good = am("good", lift=0.5, maj=0.5)
    assert flag_imbalance_riders([good]) == []


def test_flag_imbalance_riders_boundary():
    below = am("below", lift=0.0, maj=0.84)
    at = am("at", lift=0.0, maj=0.85)
    flagged = flag_imbalance_riders([below, at])
    assert [m.dataset_id for m in flagged] == ["at"]


def test_flag_imbalance_sorted_descending_majority():
    ms = [am("a", lift=0.0, maj=0.86), am("b", lift=0.0, maj=0.95), am("c", lift=0.0, maj=0.9)]
    assert [m.dataset_id for m in flag_imbalance_riders(ms)] == ["b", "c", "a"]


def test_flag_negative_kappa_sorted():
    ms = [am("x", kappa=0.1), am("y", kappa=-0.005), am("z", kappa=-0.02)]
    flagged = flag_negative_kappa(ms)
    assert [m.kappa for m in flagged] == [-0.02, -0.005]


def test_flag_negative_kappa_first():
    ms = [am("airbnb-like", kappa=-0.051), am("other", kappa=-0.01)]
    assert flag_negative_kappa(ms)[0].dataset_id == "airbnb-like"


def test_flags_subset_and_permutation_stable():
    rng = random.Random(10)
    ms = [am(f"d{i}", lift=rng.uniform(-0.2, 0.2), maj=rng.uniform(0.5, 1.0),
             kappa=rng.uniform(-0.1, 0.9)) for i in range(40)]
    shuffled = ms[:]
    rng.shuffle(shuffled)
    assert flag_imbalance_riders(ms) == flag_imbalance_riders(shuffled)
    assert flag_negative_kappa(ms) == flag_negative_kappa(shuffled)
    assert set(m.dataset_id for m in flag_imbalance_riders(ms)) <= {m.dataset_id for m in ms}


# -- partition gap ----------------------------------------------------------------


def test_partition_gap_identical_models():
    a = [am("d1", lift=0.1), am("d2", lift=0.3)]
    rows = partition_gap(a, a, {"d1": "g1", "d2": "g2"})
    assert all(r.gap == 0.0 for r in rows)


def test_partition_gap_hand_arithmetic():
    a = [am("d1", lift=0.6), am("d2", lift=0.7), am("d3", lift=0.1)]
    b = [am("d1", lift=0.4, model="o"), am("d2", lift=0.5, model="o"),
         am("d3", lift=0.2, model="o")]
    rows = partition_gap(a, b, {"d1": "stock", "d2": "stock", "d3": "other"})
    by_group = {r.group: r for r in rows}
    assert by_group["stock"].n == 2
    assert by_group["stock"].mean_lift_a == pytest.approx(0.65)
    assert by_group["stock"].gap == pytest.approx(0.65 - 0.45)
    assert by_group["other"].gap == pytest.approx(-0.1)


def test_partition_gap_coverage_mismatch():
    with pytest.raises(InputError, match="coverage|different"):
        partition_gap([am("d1")], [am("d2", model="o")], {"d1": "g", "d2": "g"})
