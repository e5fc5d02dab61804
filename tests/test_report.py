from dataclasses import asdict, fields

import pytest

from tabaudit.errors import InputError
from tabaudit.metrics import AuditMetrics
from tabaudit.report import model_comparison, render_markdown, write_report
from tabaudit.stratify import PartitionGapRow, StatTestResult, audit_report


def _metrics(dataset_id, accuracy, majority, kappa):
    return {"dataset_id": dataset_id, "accuracy": accuracy, "majority_baseline": majority,
            "lift": accuracy - majority, "kappa": kappa, "n": 100}


def test_markdown_renders_every_per_dataset_metrics_table():
    rider = _metrics("stroke", 0.959, 0.959, 0.0)
    negative = _metrics("flipped", 0.4, 0.5, -0.2)
    report = {
        "config": {"min_majority": 0.9, "max_lift": 0.01},
        "datasets": [_metrics("adult", 0.85, 0.76, 0.55), rider, negative],
        "imbalance_riders": [rider],
        "negative_kappa": [negative],
    }
    md = render_markdown(report)
    header = "| Dataset | Acc. | Maj. | Lift | Kappa |\n|---|---|---|---|---|\n"
    assert (
        "## Per-dataset metrics\n\n" + header
        + "| adult | 0.850 | 0.760 | +0.090 | 0.550 |\n"
        + "| stroke | 0.959 | 0.959 | +0.000 | 0.000 |\n"
        + "| flipped | 0.400 | 0.500 | -0.100 | -0.200 |\n"
    ) in md
    assert (
        "## Imbalance riders\n\nMajority baseline >= 0.9 and lift <= 0.01.\n\n" + header
        + "| stroke | 0.959 | 0.959 | +0.000 | 0.000 |\n"
    ) in md
    assert (
        "## Datasets with negative kappa\n\n" + header
        + "| flipped | 0.400 | 0.500 | -0.100 | -0.200 |\n"
    ) in md


def test_model_comparison_refuses_different_dataset_sets():
    def am(dataset_id, model, accuracy):
        return AuditMetrics(dataset_id, model, accuracy, 0.5, accuracy - 0.5, 0.0, 10)

    same = {"m": [am("d1", "m", 0.6), am("d2", "m", 0.8)],
            "ref": [am("d2", "ref", 0.9), am("d1", "ref", 0.7)]}
    rows = {r["model_id"]: r for r in model_comparison(same, "ref")}
    assert rows["m"]["recovery"] == pytest.approx(100 * 0.7 / 0.8)
    # Without d1, its hardest dataset, "m" would read a recovery of 100%.
    for skipped in ({"m": same["m"][1:], "ref": same["ref"]},
                    {"m": same["m"], "ref": same["ref"][:1]}):
        with pytest.raises(InputError, match="models cover different dataset sets"):
            model_comparison(skipped, "ref")


def _am(dataset_id, model, accuracy, majority=0.5, kappa=0.0):
    return AuditMetrics(dataset_id, model, accuracy, majority, accuracy - majority, kappa, 10)


def test_audit_report_records_are_dataclass_fields_plus_named_keys():
    metrics = [_am("c2", "m", 0.4, majority=0.9, kappa=-0.1), _am("b1", "m", 0.6),
               _am("c1", "m", 0.9), _am("b2", "m", 0.7)]
    types = {"b1": "binary", "b2": "binary", "c1": "categorical", "c2": "categorical"}
    report = audit_report(metrics, types)
    assert report["config"] == {"model": "m", "min_majority": 0.85, "max_lift": 0.01}
    ordered = sorted(metrics, key=lambda m: m.dataset_id)
    assert report["datasets"] == [dict(asdict(m), task_type=types[m.dataset_id])
                                  for m in ordered]
    assert report["aggregate"]["n_no_positive_lift"] == 1
    assert [s["task_type"] for s in report["task_type_summary"]] == ["binary", "categorical"]
    anova = report["stat_tests"]["anova"]
    assert set(anova) == {f.name for f in fields(StatTestResult)} | {"groups"}
    assert anova["groups"] == ["binary", "categorical"]
    [pair] = report["stat_tests"]["pairwise"]
    assert set(pair) == {f.name for f in fields(StatTestResult)} | {"group_a", "group_b"}
    assert (pair["group_a"], pair["group_b"], pair["test_kind"]) == (
        "binary", "categorical", "welch_t")
    assert [d["dataset_id"] for d in report["imbalance_riders"]] == ["c2"]
    assert report["negative_kappa"] == report["imbalance_riders"]
    assert "model_comparison" not in report and "partition_gap" not in report


def test_audit_report_model_choice_and_partition():
    metrics = [_am("d1", "a", 0.6), _am("d1", "b", 0.8)]
    types = {"d1": "binary"}
    with pytest.raises(InputError, match="multiple models present"):
        audit_report(metrics, types)
    with pytest.raises(InputError, match="no predictions for model 'c'"):
        audit_report(metrics, types, model="c")
    with pytest.raises(InputError, match="--partition needs --gap-models"):
        audit_report(metrics, types, model="a", partition={"d1": "g"})
    with pytest.raises(InputError, match="no predictions for gap model 'z'"):
        audit_report(metrics, types, model="a", partition={"d1": "g"}, gap_models=["a", "z"])

    report = audit_report(metrics, types, model="a", reference_model="b",
                          partition={"d1": "g"})
    assert report["stat_tests"] == {
        "note": "too few datasets per task type for heterogeneity tests"}
    assert [c["model_id"] for c in report["model_comparison"]] == ["a", "b"]
    assert report["config"]["reference_model"] == "b"
    assert report["config"]["gap_models"] == ["a", "b"]
    assert (report["gap_model_a"], report["gap_model_b"]) == ("a", "b")
    [gap] = report["partition_gap"]
    assert set(gap) == {f.name for f in fields(PartitionGapRow)}
    assert (gap["group"], gap["n"]) == ("g", 1)
    assert gap["gap"] == pytest.approx(-0.2)


def test_plot_data_round_trips_a_nul_in_a_dataset_id(tmp_path):
    # plot_data.csv goes through tableio, whose CSV files carry NUL as an
    # ordinary character.
    from tabaudit.tableio import read_table

    row = {"dataset_id": "a\x00b", "task_type": "binary", "accuracy": 0.5,
           "majority_baseline": 0.75, "lift": -0.25, "kappa": 0.0}
    paths = write_report({"datasets": [row]}, tmp_path)
    assert read_table(paths["plot_data"]) == (
        ["id", "task_type", "accuracy", "majority", "lift", "kappa"],
        [["a\x00b", "binary", "0.5", "0.75", "-0.25", "0.0"]],
    )
