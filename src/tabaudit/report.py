"""Report writing and rendering.

A report is one dict, built by ``stratify.audit_report`` for an audit and
by ``cmd_scan`` and ``cmd_gen_quartile`` in ``cli`` for a contamination
scan and a quartile task. This module writes and renders it:
``report.json`` (full precision, self-contained, every threshold echoed),
``report.md`` (tables formatted the way benchmark papers print them), and
``plot_data.csv`` (one row per dataset for external figure generation).
Each record in a report is its dataclass's fields (``dataclasses.asdict``)
plus any keys named where it is built.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__
from .data import write_json
from .errors import InputError
from .tableio import write_table

if TYPE_CHECKING:  # annotations only: scan and gen-quartile load no statistics code
    from .metrics import AuditMetrics


def new_report(config: Mapping) -> dict:
    return {
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": dict(config),
    }


def model_comparison(
    metrics_by_model: Mapping[str, Sequence[AuditMetrics]], reference_model: str
) -> list[dict]:
    """Aggregate accuracy/lift per model plus recovery vs the reference.

    Every model must cover the same datasets; a model that skipped the hard
    ones would otherwise look better.
    """
    from statistics import fmean

    from .metrics import recovery

    if reference_model not in metrics_by_model:
        raise InputError(f"reference model {reference_model!r} has no metrics")
    reference_ids = {m.dataset_id for m in metrics_by_model[reference_model]}
    if any({m.dataset_id for m in ms} != reference_ids for ms in metrics_by_model.values()):
        raise InputError("model_comparison: models cover different dataset sets")
    ref_acc = fmean([m.accuracy for m in metrics_by_model[reference_model]])
    rows = []
    for model in sorted(metrics_by_model):
        ms = metrics_by_model[model]
        acc = fmean([m.accuracy for m in ms])
        rows.append(
            {
                "model_id": model,
                "mean_accuracy": acc,
                "mean_lift": fmean([m.lift for m in ms]),
                "recovery": None if model == reference_model else recovery(acc, ref_acc),
                "pct_at_or_below_baseline": 100.0
                * sum(1 for m in ms if m.lift <= 0) / len(ms),
                "n_datasets": len(ms),
            }
        )
    return rows


# -- markdown rendering -----------------------------------------------------


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _metrics_table(docs: Sequence[Mapping]) -> str:
    """Dataset / Acc. / Maj. / Lift / Kappa table of per-dataset metric dicts."""
    rows = [
        [
            d["dataset_id"],
            _f3(d["accuracy"]),
            _f3(d["majority_baseline"]),
            _signed3(d["lift"]),
            _f3(d["kappa"]),
        ]
        for d in docs
    ]
    return _table(["Dataset", "Acc.", "Maj.", "Lift", "Kappa"], rows) + "\n"


def _f3(x: float) -> str:
    return f"{x:.3f}"


def _signed3(x: float) -> str:
    return f"{x:+.3f}"


def _pp(x: float) -> str:
    """Fraction rendered as percentage points at one decimal."""
    return f"{100.0 * x:.1f}"


def _signed_pp(x: float) -> str:
    return f"{100.0 * x:+.1f}"


def render_markdown(report: Mapping) -> str:
    out = [f"# Tabular benchmark audit report\n"]
    out.append(f"Generated: {report.get('generated_at', '')}  ")
    out.append(f"Toolkit version: {report.get('version', '')}\n")

    config = report.get("config", {})
    if config:
        out.append("## Configuration\n")
        rows = [[str(k), f"`{json.dumps(v)}`"] for k, v in sorted(config.items())]
        out.append(_table(["Option", "Value"], rows) + "\n")

    datasets = report.get("datasets", [])
    if datasets:
        out.append("## Per-dataset metrics\n")
        out.append(_metrics_table(datasets))
        aggregate = report.get("aggregate")
        if aggregate:
            out.append(
                f"Aggregate over {aggregate['n_datasets']} datasets: "
                f"Acc. {_f3(aggregate['mean_accuracy'])}, "
                f"Maj. {_f3(aggregate['mean_majority_baseline'])}, "
                f"Lift {_signed3(aggregate['mean_lift'])}, "
                f"Kappa {_f3(aggregate['mean_kappa'])}.\n"
            )
        partial = [d for d in datasets if d.get("coverage", 1.0) < 1.0]
        if partial:
            out.append(
                "Coverage below 1.0 (rows without a prediction are scored as wrong): "
                + ", ".join(f"{d['dataset_id']} {_f3(d['coverage'])}" for d in partial)
                + ".\n"
            )

    summaries = report.get("task_type_summary", [])
    if summaries:
        out.append("## Performance by task type\n")
        ordered = sorted(summaries, key=lambda s: -s["mean_lift"])
        rows = [
            [
                s["task_type"],
                str(s["n_datasets"]),
                _signed_pp(s["mean_lift"]),
                _signed_pp(s["median_lift"]),
                f"{s['pct_at_or_below_baseline']:.1f}",
            ]
            for s in ordered
        ]
        out.append(
            _table(
                ["Task Type", "N", "Mean Lift", "Median Lift", "<= Baseline (%)"], rows
            )
            + "\n"
        )

    tests = report.get("stat_tests", {})
    if tests.get("anova"):
        a = tests["anova"]
        df1, df2 = a["degrees_of_freedom"]
        out.append("## Task-type heterogeneity\n")
        out.append(
            f"One-way ANOVA over per-dataset lift: F = {a['statistic']:.2f} "
            f"(df = {df1:.0f}, {df2:.0f}), p = {a['p_value']:.3g}.\n"
        )
    elif tests.get("anova_note"):
        out.append("## Task-type heterogeneity\n")
        out.append(f"One-way ANOVA over per-dataset lift not computed: {tests['anova_note']}.\n")
    elif tests.get("note"):
        out.append("## Task-type heterogeneity\n")
        out.append(f"Heterogeneity tests not computed: {tests['note']}.\n")
    if tests.get("pairwise"):
        # A test that could not be computed shows its note in place of its numbers.
        rows = [
            [f"{t['group_a']} vs {t['group_b']}", t["note"], "-"] if "note" in t else
            [f"{t['group_a']} vs {t['group_b']}", f"{t['statistic']:.2f}", f"{t['p_value']:.3g}"]
            for t in tests["pairwise"]
        ]
        out.append(_table(["Comparison", "t-statistic", "p-value"], rows) + "\n")

    riders = report.get("imbalance_riders", [])
    if riders:
        out.append("## Imbalance riders\n")
        out.append(
            f"Majority baseline >= {config.get('min_majority', '?')} and "
            f"lift <= {config.get('max_lift', '?')}.\n"
        )
        out.append(_metrics_table(riders))

    negative = report.get("negative_kappa", [])
    if negative:
        out.append("## Datasets with negative kappa\n")
        out.append(_metrics_table(negative))

    comparison = report.get("model_comparison", [])
    if comparison:
        out.append("## Model comparison\n")
        rows = [
            [
                c["model_id"],
                _pp(c["mean_accuracy"]),
                _signed_pp(c["mean_lift"]),
                "NA" if c["recovery"] is None else f"{c['recovery']:.1f}",
                f"{c['pct_at_or_below_baseline']:.1f}",
            ]
            for c in comparison
        ]
        out.append(
            _table(["Model", "Acc.", "Lift", "Recovery", "<= Baseline"], rows) + "\n"
        )

    gaps = report.get("partition_gap", [])
    if gaps:
        out.append("## Partitioned lift gap\n")
        model_a = report.get("gap_model_a", "model A")
        model_b = report.get("gap_model_b", "model B")
        rows = [
            [
                g["group"],
                str(g["n"]),
                _signed_pp(g["mean_lift_a"]),
                _signed_pp(g["mean_lift_b"]),
                _signed_pp(g["gap"]),
            ]
            for g in gaps
        ]
        out.append(_table(["Datasets", "N", model_a, model_b, "Gap"], rows) + "\n")

    contamination = report.get("contamination")
    if contamination:
        out.append("## Contamination scan\n")
        cov = contamination.get("coverage")
        if cov is not None:
            out.append(
                f"Corpus coverage: {cov['files_indexed']}/{cov['files_present']} files "
                f"indexed ({100.0 * cov['fraction']:.1f}%). Absence of evidence from a "
                f"partial scan is not evidence of absence.\n"
            )
        rows = []
        for v in contamination.get("verdicts", []):
            rows.append(
                [
                    v["dataset_id"],
                    v.get("task_type", "-"),
                    v["category"],
                    _f3(v["row_match_fraction"]),
                    str(v["association_count"]),
                    str(v["distinct_association_tables"]),
                ]
            )
        if rows:
            out.append(
                _table(
                    [
                        "Dataset",
                        "Task",
                        "Type",
                        "Row match",
                        "Assoc. rows",
                        "Assoc. tables",
                    ],
                    rows,
                )
                + "\n"
            )

    shortcuts = report.get("shortcut_reports", [])
    if shortcuts:
        out.append("## Quartile shortcut audit\n")
        rows = []
        for s in shortcuts:
            if s.get("note"):
                rows.append([s["dataset_id"], "-", "-", "-", s["note"]])
            for f in s.get("findings", []):
                rows.append(
                    [
                        s["dataset_id"],
                        f["feature"],
                        str(f["n_evaluated"]),
                        _f3(f["bin_accuracy"]),
                        "FLAGGED" if f["flagged"] else "",
                    ]
                )
        out.append(
            _table(["Dataset", "Feature", "N", "Bin accuracy", "Note"], rows) + "\n"
        )

    return "\n".join(out)


def write_report(report: Mapping, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    json_path = out / "report.json"
    write_json(json_path, report)
    paths["json"] = json_path
    md_path = out / "report.md"
    md_path.write_text(render_markdown(report), encoding="utf-8")
    paths["markdown"] = md_path
    if report.get("datasets"):
        csv_path = out / "plot_data.csv"
        write_table(csv_path, ["id", "task_type", "accuracy", "majority", "lift", "kappa"], (
            [d["dataset_id"], d.get("task_type", ""), repr(d["accuracy"]),
             repr(d["majority_baseline"]), repr(d["lift"]), repr(d["kappa"])]
            for d in report["datasets"]
        ))
        paths["plot_data"] = csv_path
    return paths
