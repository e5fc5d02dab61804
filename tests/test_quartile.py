import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumeration_bin, numpy_quartiles
from tabaudit.cli import main
from tabaudit.data import Dataset, TaskSpec, TaskType, gold_labels, load_dataset, parse_cell
from tabaudit.errors import DegenerateStatisticsError, InputError
from tabaudit.quartile import (
    ShortcutFinding,
    assign_bin,
    bin_label,
    bin_labels,
    build_quartile_task,
    quartile_bins,
    shortcut_audit,
)
from tabaudit.tableio import write_table


def test_quartiles_one_to_eight():
    assert quartile_bins(range(1, 9)) == (2.75, 4.5, 6.25)


def test_quartiles_symmetric_median():
    assert quartile_bins([-1.0, -1.0, 1.0, 1.0])[1] == 0.0


def test_quartiles_degenerate():
    with pytest.raises(DegenerateStatisticsError, match="degenerate target"):
        quartile_bins([3.0, 3.0, 3.0, 3.0])


def test_quartiles_too_few():
    with pytest.raises(InputError):
        quartile_bins([1.0, 2.0, 3.0])


def test_quartiles_nonfinite():
    with pytest.raises(InputError, match="non-finite"):
        quartile_bins([1.0, 2.0, float("nan"), 4.0])


def test_quartiles_match_numpy():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(4, 200)
        values = [rng.uniform(-1000, 1000) for _ in range(n)]
        assert quartile_bins(values) == pytest.approx(numpy_quartiles(values), rel=1e-12)


# -- bin labels -------------------------------------------------------------------


def test_bin_label_full_precision():
    bounds = (764.11325075, 7697.924072, 20297.0288085)
    assert bin_label(bounds, 3) == "greater than 20297.0288085"
    assert bin_label(bounds, 1) == "between 764.11325075 and 7697.924072"


def test_bin_label_int_boundaries():
    assert bin_label((1, 2, 3), 0) == "less than 1"


def test_bin_label_from_computed_quartiles():
    assert bin_label((2.75, 4.5, 6.25), 1) == "between 2.75 and 4.5"


def test_bin_label_out_of_range():
    with pytest.raises(InputError):
        bin_label((1.0, 2.0, 3.0), 4)


def test_bin_labels_deterministic():
    bounds = (1.5, 2.5, 3.5)
    assert bin_labels(bounds) == bin_labels(bounds)
    assert len(bin_labels(bounds)) == 4


# -- bin assignment ----------------------------------------------------------------


def test_assign_bin_boundary_rule():
    assert assign_bin(4.5, (2.75, 4.5, 6.25)) == 2  # v == q2 -> bin 2
    assert assign_bin(2.75, (2.75, 4.5, 6.25)) == 1  # v == q1 -> bin 1


def test_assign_bin_below_all():
    assert assign_bin(-100.0, (2.75, 4.5, 6.25)) == 0


def test_assign_bin_enumeration():
    bounds = (2.75, 4.5, 6.25)
    assert [assign_bin(float(v), bounds) for v in range(1, 9)] == [0, 0, 1, 1, 2, 2, 3, 3]
    for v in range(1, 9):
        assert assign_bin(float(v), bounds) == enumeration_bin(float(v), bounds)


def test_assign_bin_nonfinite():
    with pytest.raises(InputError):
        assign_bin(float("inf"), (1.0, 2.0, 3.0))


def test_assign_bin_monotone():
    rng = random.Random(2)
    bounds = (10.0, 20.0, 30.0)
    values = sorted(rng.uniform(0, 40) for _ in range(200))
    bins = [assign_bin(v, bounds) for v in values]
    assert bins == sorted(bins)


def test_balance_by_construction():
    rng = random.Random(3)
    for _ in range(100):
        n = 4 * rng.randint(1, 50)
        values = rng.sample(range(1_000_000), n)
        values = [v / 7.0 for v in values]
        bounds = quartile_bins(values)
        counts = [0, 0, 0, 0]
        for v in values:
            counts[assign_bin(v, bounds)] += 1
        assert counts == [n // 4] * 4


def test_affine_covariance():
    rng = random.Random(4)
    values = [rng.uniform(-50, 50) for _ in range(48)]
    bounds = quartile_bins(values)
    for _ in range(50):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-100.0, 100.0)
        mapped = [a * v + b for v in values]
        mapped_bounds = quartile_bins(mapped)
        expected = tuple(a * q + b for q in bounds)
        assert mapped_bounds == pytest.approx(expected, rel=1e-9)
        for v, mv in zip(values, mapped):
            assert assign_bin(v, bounds) == assign_bin(mv, mapped_bounds)


# -- shortcut audit -----------------------------------------------------------------


def make_quartile_dataset(rows, columns=("f1", "f2", "target")):
    return Dataset(id="q", columns=columns, rows=tuple(tuple(r) for r in rows))


def test_shortcut_identical_feature():
    rng = random.Random(5)
    rows = []
    for _ in range(100):
        t = rng.uniform(0, 100)
        rows.append((f"{t}", f"{rng.uniform(0, 100)}", f"{t}"))
    ds = make_quartile_dataset(rows)
    task = build_quartile_task(ds, "target")
    bounds = quartile_bins([float(r[2]) for r in rows])
    assert task == TaskSpec("q", TaskType.QUARTILE, "target", quartile_boundaries=bounds)
    assert task.labels() == bin_labels(bounds)
    report = shortcut_audit(ds, task)
    by_feature = {f.feature: f for f in report.findings}
    assert by_feature["f1"].bin_accuracy == 1.0
    assert by_feature["f1"].flagged


def test_shortcut_independent_feature_near_chance():
    rng = random.Random(10_000)
    rows = []
    for _ in range(10_000):
        rows.append((f"{rng.uniform(0, 1)}", "x", f"{rng.uniform(0, 1)}"))
    ds = make_quartile_dataset(rows)
    task = build_quartile_task(ds, "target")
    report = shortcut_audit(ds, task)
    by_feature = {f.feature: f for f in report.findings}
    assert by_feature["f1"].bin_accuracy == pytest.approx(0.25, abs=0.02)
    assert not by_feature["f1"].flagged
    assert "f2" not in by_feature  # non-numeric column is not audited


def test_shortcut_small_noise_feature():
    rng = random.Random(6)
    rows = []
    for i in range(200):
        t = float(i)  # boundaries are ~50 apart; noise of 1e-6 cannot cross them
        rows.append((f"{t + rng.uniform(-1e-6, 1e-6)}", "x", f"{t}"))
    ds = make_quartile_dataset(rows)
    task = build_quartile_task(ds, "target")
    report = shortcut_audit(ds, task)
    by_feature = {f.feature: f for f in report.findings}
    assert by_feature["f1"].bin_accuracy == 1.0


def test_shortcut_no_numeric_features():
    rows = [("a", "b", f"{i}") for i in range(10)]
    ds = make_quartile_dataset(rows)
    task = build_quartile_task(ds, "target")
    report = shortcut_audit(ds, task)
    assert report.findings == ()
    assert report.note is not None


def test_price_fixture_adj_close_shortcut(price_fixture):
    dataset, task = price_fixture
    report = shortcut_audit(dataset, task)
    by_feature = {f.feature: f for f in report.findings}
    assert by_feature["Adj Close"].bin_accuracy == 1.0
    assert by_feature["Adj Close"].flagged
    assert by_feature["Volume"].bin_accuracy < 0.9


def test_nonfinite_cells_are_skipped_like_text():
    rows = [(f"{i}", f"{i}", f"{i}") for i in range(8)]
    rows += [("1e999", "7", "3"), ("2", "5", "1e999"), ("-1e999", "-1e999", "-1e999")]
    ds = make_quartile_dataset(rows)
    task = build_quartile_task(ds, "target")
    assert task.quartile_boundaries == quartile_bins([*range(8), 3]) == (2.0, 3.0, 5.0)
    by_feature = {f.feature: f for f in shortcut_audit(ds, task).findings}
    assert (by_feature["f1"].n_evaluated, by_feature["f1"].bin_accuracy) == (8, 1.0)
    assert (by_feature["f2"].n_evaluated, by_feature["f2"].bin_accuracy) == (9, 8 / 9)


def test_build_quartile_task_counts_only_finite_numbers():
    ds = make_quartile_dataset([("0", "0", c) for c in ("1", "2", "3", "1e999", "x", None)])
    with pytest.raises(InputError, match="fewer than 4 finite numbers"):
        build_quartile_task(ds, "target")


# -- properties ----------------------------------------------------------------------

_NUMBER_CELLS = st.one_of(
    st.none(), st.integers(-6, 6).map(str), st.sampled_from(["2.5", "-0.5", "1e999", "-1e999"])
)
_ANY_CELLS = st.one_of(_NUMBER_CELLS, st.sampled_from(["x", "TRUE"]))


@st.composite
def quartile_tables(draw):
    """A dataset whose columns each hold numbers only or also text, and a
    quartile task over one of them with arbitrary ascending boundaries."""
    n_columns, n_rows = draw(st.integers(1, 5)), draw(st.integers(0, 15))
    columns = [
        draw(st.lists(draw(st.sampled_from([_NUMBER_CELLS, _ANY_CELLS])),
                      min_size=n_rows, max_size=n_rows))
        for _ in range(n_columns)
    ]
    names = tuple(f"c{i}" for i in range(n_columns))
    dataset = Dataset(id="q", columns=names, rows=tuple(zip(*columns)))
    boundaries = tuple(sorted(draw(st.lists(
        st.sampled_from([-4.0, -0.5, 0.0, 1.0, 2.5, 3.0]), min_size=3, max_size=3))))
    target = draw(st.sampled_from(names))
    return dataset, TaskSpec("q", TaskType.QUARTILE, target, quartile_boundaries=boundaries)


def brute_force_findings(dataset, task, threshold):
    """shortcut_audit's findings, row by row from the rule as stated: a
    feature is audited when it has a cell and every cell it has is a
    number, and a row counts when its feature and target are finite."""

    def number(cell):
        value = parse_cell(cell)
        return value if isinstance(value, float) else None

    records = [dataset.record(i) for i in range(dataset.row_count)]
    bounds = task.quartile_boundaries
    findings = []
    for name in dataset.columns:
        present = [r[name] for r in records if r[name] is not None]
        if name == task.target_column or not present or None in map(number, present):
            continue
        n_evaluated = agree = 0
        for record in records:
            feature, target = number(record[name]), number(record[task.target_column])
            if feature is None or target is None:
                continue
            if math.isinf(feature) or math.isinf(target):
                continue
            n_evaluated += 1
            agree += enumeration_bin(feature, bounds) == enumeration_bin(target, bounds)
        accuracy = agree / n_evaluated if n_evaluated else 0.0
        findings.append(ShortcutFinding(
            name, n_evaluated, accuracy, n_evaluated > 0 and accuracy >= threshold))
    return tuple(findings)


@settings(max_examples=300)
@given(quartile_tables(), st.sampled_from([1e-9, 0.5, 0.9, 1.0]))  # thresholds lie in (0, 1]
def test_shortcut_audit_matches_a_row_by_row_oracle(table, threshold):
    dataset, task = table
    report = shortcut_audit(dataset, task, threshold)
    assert report.findings == brute_force_findings(dataset, task, threshold)
    assert (report.note is None) == bool(report.findings)


_NOT_IN_TASK = [None, "x", "n/a", "1e999", "-1e999"]

_TARGET_NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
)


@st.composite
def unbound_target_columns(draw):
    """A target column with at least 4 distinct numbers among missing,
    text and non-finite cells."""
    numbers = draw(st.lists(_TARGET_NUMBERS, min_size=4, max_size=12, unique_by=float))
    others = draw(st.lists(st.sampled_from(_NOT_IN_TASK), max_size=6))
    return draw(st.permutations(numbers + others))


@settings(max_examples=40)
@given(unbound_target_columns())
def test_unbound_manifest_task_is_the_generated_task(column):
    finite = [float(c) for c in column if c not in _NOT_IN_TASK]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_table(tmp / "t.csv", ["f", "target"], [[str(i), c] for i, c in enumerate(column)])
        (tmp / "m.json").write_text(json.dumps({
            "id": "u", "task_type": "quartile", "target_column": "target",
            "table_path": "t.csv"}))
        dataset, task = load_dataset(tmp / "m.json")
        assert task == build_quartile_task(dataset, "target")
        assert task.quartile_boundaries == pytest.approx(numpy_quartiles(finite), rel=1e-12)
        # Gold labels leave out exactly the cells the task was built without.
        b = task.quartile_boundaries
        assert gold_labels(dataset, task) == tuple(
            None if c in _NOT_IN_TASK else bin_label(b, assign_bin(float(c), b)) for c in column
        )
        assert main(["--out", str(tmp / "o"), "gen-quartile",
                     "--manifest", str(tmp / "m.json")]) == 0
        assert load_dataset(tmp / "o" / "u.quartile.json")[1] == task
