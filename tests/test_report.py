import pytest

from tabaudit.errors import InputError
from tabaudit.metrics import AuditMetrics
from tabaudit.report import model_comparison, render_markdown


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
