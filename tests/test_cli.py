import json
import os
import random
import re
import subprocess
import sys
from inspect import signature
from pathlib import Path

import pytest

from tabaudit.cli import main
from tabaudit.data import write_manifest
from tabaudit.quartile import quartile_bins
from tabaudit.tableio import write_table
from tabaudit.testbed import CorpusSpec, generate_corpus, plant_complete_overlap


def write_table_csv(path, n, truth_labels, feature=lambda i: str(i)):
    lines = ["f,target"]
    for i in range(n):
        lines.append(f"{feature(i)},{truth_labels[i]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest_json(path, dataset_id, task_type, target="target",
                        labels=None, boundaries=None, table="table.csv"):
    doc = {"id": dataset_id, "task_type": task_type, "target_column": target,
           "table_path": table}
    if boundaries is not None:
        doc["quartile_boundaries"] = boundaries
    else:
        doc["class_labels"] = labels
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_predictions_jsonl(path, dataset_id, model_id, truth, preds):
    with open(path, "w", encoding="utf-8") as handle:
        for i, (t, p) in enumerate(zip(truth, preds)):
            handle.write(json.dumps({
                "dataset_id": dataset_id, "row_id": i, "true_label": t,
                "predicted_label": p, "model_id": model_id,
            }) + "\n")


def make_binary_dataset(tmp_path, dataset_id, truth, preds, model="m1"):
    d = tmp_path / dataset_id
    d.mkdir()
    write_table_csv(d / "table.csv", len(truth), truth)
    labels = sorted(set(truth))
    write_manifest_json(d / "manifest.json", dataset_id, "binary", labels=labels)
    write_predictions_jsonl(d / f"preds_{model}.jsonl", dataset_id, model, truth, preds)
    return d / "manifest.json", d / f"preds_{model}.jsonl"


def stroke_like_inputs(tmp_path):
    truth = ["0"] * 959 + ["1"] * 41
    preds = ["0"] * 1000
    return make_binary_dataset(tmp_path, "stroke-like", truth, preds)


def mixed_inputs(tmp_path, model="m1", flip=0):
    """Six datasets, two per task type, with varied accuracy.

    The tables and gold labels are the same for every ``model`` and ``flip``;
    only the predictions vary with ``flip``.
    """
    truth_rng = random.Random(100)
    rng = random.Random(100 + flip)
    manifests, predfiles = [], []
    for k, (dataset_id, task_type) in enumerate([
        ("bin-a", "binary"), ("bin-b", "binary"),
        ("cat-a", "categorical"), ("cat-b", "categorical"),
        ("quart-a", "quartile"), ("quart-b", "quartile"),
    ]):
        d = tmp_path / f"{dataset_id}-{model}"
        d.mkdir(exist_ok=True)
        n = 40
        if task_type == "binary":
            labels = ["yes", "no"]
        elif task_type == "categorical":
            labels = ["r", "g", "b"]
        else:
            labels = None
        if task_type == "quartile":
            boundaries = [1.0, 2.0, 3.0]
            from tabaudit.quartile import bin_labels

            blabels = list(bin_labels((1.0, 2.0, 3.0)))
            truth = [truth_rng.choice(blabels) for _ in range(n)]
            # Bin k of boundaries (1, 2, 3) holds [k, k + 1).
            write_table_csv(d / "table.csv", n,
                            [str(blabels.index(t) + truth_rng.random()) for t in truth])
            write_manifest_json(d / "manifest.json", dataset_id, "quartile",
                                boundaries=boundaries)
            label_pool = blabels
        else:
            truth = [truth_rng.choice(labels) for _ in range(n)]
            write_table_csv(d / "table.csv", n, truth)
            write_manifest_json(d / "manifest.json", dataset_id, task_type, labels=labels)
            label_pool = labels
        correct_rate = 0.3 + 0.1 * k + (0.05 * flip)
        preds = [t if rng.random() < correct_rate else rng.choice(label_pool)
                 for t in truth]
        write_predictions_jsonl(d / "preds.jsonl", dataset_id, model, truth, preds)
        manifests.append(d / "manifest.json")
        predfiles.append(d / "preds.jsonl")
    return manifests, predfiles


def run(argv):
    return main([str(a) for a in argv])


# -- audit ---------------------------------------------------------------------


def test_audit_single_perfect_dataset(tmp_path, capsys):
    truth = ["yes", "no"] * 20
    manifest, preds = make_binary_dataset(tmp_path, "perfect", truth, truth)
    out = tmp_path / "out"
    code = run(["--out", out, "audit", "--manifest", manifest, "--predictions", preds])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    d = report["datasets"][0]
    assert (d["accuracy"], d["lift"], d["kappa"]) == (1.0, 0.5, 1.0)
    assert (out / "report.md").exists()
    assert (out / "plot_data.csv").exists()


def test_audit_stroke_markdown_row(tmp_path):
    manifest, preds = stroke_like_inputs(tmp_path)
    out = tmp_path / "out"
    code = run(["--out", out, "audit", "--manifest", manifest, "--predictions", preds])
    assert code == 0
    md = (out / "report.md").read_text()
    assert "0.959 | 0.959 | +0.000 | 0.000" in md
    report = json.loads((out / "report.json").read_text())
    assert report["datasets"][0]["accuracy"] == 0.959
    assert report["datasets"][0]["lift"] == 0.0
    assert report["imbalance_riders"][0]["dataset_id"] == "stroke-like"


def test_audit_stratified_full_run(tmp_path):
    manifests, predfiles = mixed_inputs(tmp_path)
    out = tmp_path / "out"
    argv = ["--out", out, "audit"]
    for m in manifests:
        argv += ["--manifest", m]
    for p in predfiles:
        argv += ["--predictions", p]
    assert run(argv) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["datasets"]) == 6
    assert {s["task_type"] for s in report["task_type_summary"]} == {
        "binary", "categorical", "quartile"
    }
    assert "anova" in report["stat_tests"]
    assert len(report["stat_tests"]["pairwise"]) == 3
    csv_text = (out / "plot_data.csv").read_text()
    assert csv_text.splitlines()[0] == "id,task_type,accuracy,majority,lift,kappa"
    assert len(csv_text.splitlines()) == 7


def test_audit_of_a_majority_class_predictor_renders_its_notes(tmp_path):
    # Every lift is 0, so neither the ANOVA nor a t-test has a variance to use.
    argv = ["--out", tmp_path / "out", "audit"]
    for dataset_id, labels, truth in [
        ("bin-a", ["yes", "no"], ["yes"] * 30 + ["no"] * 10),
        ("bin-b", ["yes", "no"], ["no"] * 25 + ["yes"] * 15),
        ("cat-a", ["r", "g", "b"], ["r"] * 20 + ["g"] * 12 + ["b"] * 8),
        ("cat-b", ["r", "g", "b"], ["b"] * 18 + ["g"] * 12 + ["r"] * 10),
    ]:
        d = tmp_path / dataset_id
        d.mkdir()
        write_table_csv(d / "table.csv", len(truth), truth)
        write_manifest_json(d / "manifest.json", dataset_id,
                            "binary" if len(labels) == 2 else "categorical", labels=labels)
        write_predictions_jsonl(d / "preds.jsonl", dataset_id, "majority", truth,
                                [truth[0]] * len(truth))
        argv += ["--manifest", d / "manifest.json", "--predictions", d / "preds.jsonl"]
    assert run(argv) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert {d["lift"] for d in report["datasets"]} == {0.0}
    tests = report["stat_tests"]
    assert tests["anova_note"] == "one_way_anova: zero within-group variance"
    assert [t["note"] for t in tests["pairwise"]] == ["pairwise_t: degenerate variance"]
    md = (out / "report.md").read_text()
    assert ("One-way ANOVA over per-dataset lift not computed: "
            "one_way_anova: zero within-group variance.") in md
    assert "| binary vs categorical | pairwise_t: degenerate variance | - |" in md
    assert len((out / "plot_data.csv").read_text().splitlines()) == 5
    assert run(["--out", tmp_path / "rendered", "report", "render",
                "--report", out / "report.json"]) == 0
    assert (tmp_path / "rendered" / "report.md").read_text() == md


def test_audit_determinism_excluding_timestamp(tmp_path):
    manifests, predfiles = mixed_inputs(tmp_path)
    reports = []
    for run_dir in ("out1", "out2"):
        out = tmp_path / run_dir
        argv = ["--out", out, "audit"]
        for m in manifests:
            argv += ["--manifest", m]
        for p in predfiles:
            argv += ["--predictions", p]
        assert run(argv) == 0
        doc = json.loads((out / "report.json").read_text())
        doc.pop("generated_at")
        reports.append(doc)
    assert reports[0] == reports[1]


def test_audit_markdown_numbers_have_full_precision_in_json(tmp_path):
    manifests, predfiles = mixed_inputs(tmp_path)
    out = tmp_path / "out"
    argv = ["--out", out, "audit"]
    for m in manifests:
        argv += ["--manifest", m]
    for p in predfiles:
        argv += ["--predictions", p]
    assert run(argv) == 0
    report = json.loads((out / "report.json").read_text())
    md = (out / "report.md").read_text()
    for d in report["datasets"]:
        row = (f"| {d['dataset_id']} | {d['accuracy']:.3f} | "
               f"{d['majority_baseline']:.3f} | {d['lift']:+.3f} | {d['kappa']:.3f} |")
        assert row in md


def test_audit_recovery_and_partition(tmp_path):
    m1_manifests, m1_preds = mixed_inputs(tmp_path, model="m1")
    _, m2_preds = mixed_inputs(tmp_path, model="ref", flip=2)
    partition = {"bin-a": "g1", "bin-b": "g1", "cat-a": "g2", "cat-b": "g2",
                 "quart-a": "g2", "quart-b": "g2"}
    (tmp_path / "partition.json").write_text(json.dumps(partition))
    out = tmp_path / "out"
    argv = ["--out", out, "audit", "--model", "m1", "--reference-model", "ref",
            "--partition", tmp_path / "partition.json"]
    for m in m1_manifests:
        argv += ["--manifest", m]
    for p in m1_preds + m2_preds:
        argv += ["--predictions", p]
    assert run(argv) == 0
    report = json.loads((out / "report.json").read_text())
    comparison = {c["model_id"]: c for c in report["model_comparison"]}
    assert comparison["ref"]["recovery"] is None
    expected = 100.0 * comparison["m1"]["mean_accuracy"] / comparison["ref"]["mean_accuracy"]
    assert comparison["m1"]["recovery"] == pytest.approx(expected)
    md = (out / "report.md").read_text()
    assert "| ref |" in md and "NA" in md
    gaps = {g["group"]: g for g in report["partition_gap"]}
    assert set(gaps) == {"g1", "g2"}
    for g in gaps.values():
        assert g["gap"] == pytest.approx(g["mean_lift_a"] - g["mean_lift_b"])


def _prediction_line(row_id):
    return json.dumps({"dataset_id": "bin", "row_id": row_id, "true_label": "yes",
                       "predicted_label": "yes", "model_id": "m1"})


# Nested far past the recursion limit, which json's decoder enforces.
_DEEP = "[" * 100_000 + "]" * 100_000


def _deep_prediction_line():
    return _prediction_line(0).replace('"predicted_label": "yes"', f'"predicted_label": {_DEEP}')


@pytest.mark.parametrize("lines,message", [
    ([_prediction_line(0), _prediction_line("x")], ":2: row_id must be an integer, got 'x'"),
    ([_prediction_line(0), "7"], ":2: predictions record must be a JSON object"),
    (["[1, 2]", _prediction_line(0)], ":1: predictions record must be a JSON object"),
    ([_prediction_line(0), _prediction_line(1.9)], ":2: row_id must be an integer, got 1.9"),
    ([_prediction_line(0), _prediction_line(0).replace(": 0", ": " + "1" * 5000)],
     ":2: malformed JSON"),  # json refuses integers of 4300+ digits
    ([_prediction_line(0).replace('"bin"', '["bin"]')],
     ": predictions reference unknown dataset ['bin']"),
    ([_prediction_line(0).replace('"m1"', "[1]")], ":1: model_id must be a string, got [1]"),
    # As line 1 the dataset lookup refuses it; after a good line, the column
    # checks do and the line walk names it.
    ([_deep_prediction_line()], ":1: malformed JSON"),
    ([_prediction_line(0), _deep_prediction_line()], ":2: malformed JSON"),
])
def test_audit_rejects_malformed_prediction_lines(tmp_path, capsys, lines, message):
    manifest, preds = make_binary_dataset(tmp_path, "bin", ["yes", "no"], ["yes", "no"])
    preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--out", tmp_path / "o", "audit", "--manifest", manifest,
                "--predictions", preds]) == 2
    assert f"{preds}{message}" in capsys.readouterr().err


def test_audit_rejects_row_ids_outside_the_dataset(tmp_path, capsys):
    manifest, preds = make_binary_dataset(tmp_path, "bin", ["yes", "no", "yes"],
                                          ["yes", "no", "yes"])
    for row_id, lineno in ((-5, 1), (1000000, 2), (3, 2)):
        lines = [_prediction_line(0), _prediction_line(1)]
        lines[lineno - 1] = _prediction_line(row_id)
        preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["--out", tmp_path / "o", "audit", "--manifest", manifest,
                    "--predictions", preds]) == 2
        assert (f"{preds}:{lineno}: row_id {row_id} out of range for dataset 'bin' (3 rows)"
                in capsys.readouterr().err)


def test_audit_model_comparison_needs_the_same_datasets(tmp_path, capsys):
    m1_manifests, m1_preds = mixed_inputs(tmp_path, model="m1")
    _, ref_preds = mixed_inputs(tmp_path, model="ref", flip=2)
    argv = ["--out", tmp_path / "o", "audit", "--model", "m1", "--reference-model", "ref"]
    for m in m1_manifests:
        argv += ["--manifest", m]
    for p in m1_preds + ref_preds[1:]:  # ref skips bin-a
        argv += ["--predictions", p]
    assert run(argv) == 2
    assert "model_comparison: models cover different dataset sets" in capsys.readouterr().err


# -- gold labels come from the dataset --------------------------------------------


def _no_yes_no_yes(tmp_path):
    """Four binary rows whose gold labels are no, yes, no, yes; the file predicts yes."""
    return make_binary_dataset(tmp_path, "nyny", ["no", "yes", "no", "yes"], ["yes"] * 4)


def _audit(tmp_path, manifest, preds, out="o"):
    code = run(["--out", tmp_path / out, "audit", "--manifest", manifest, "--predictions", preds])
    return code, tmp_path / out


def test_audit_refuses_a_true_label_that_disagrees_with_the_dataset(tmp_path, capsys):
    manifest, preds = _no_yes_no_yes(tmp_path)
    preds.write_text(preds.read_text().replace('"true_label": "no"', '"true_label": "yes"'))
    assert _audit(tmp_path, manifest, preds)[0] == 2
    assert (f"{preds}:1: true_label 'yes' disagrees with the dataset's label 'no' for row_id 0"
            in capsys.readouterr().err)


def test_audit_scores_the_rows_a_file_leaves_out_as_wrong(tmp_path):
    manifest, preds = _no_yes_no_yes(tmp_path)
    code, full = _audit(tmp_path, manifest, preds, "full")
    assert code == 0
    assert "Coverage below 1.0" not in (full / "report.md").read_text()
    lines = preds.read_text().splitlines()
    preds.write_text(lines[1] + "\n" + lines[3] + "\n")  # rows 1 and 3, both right
    code, out = _audit(tmp_path, manifest, preds)
    assert code == 0
    d = json.loads((out / "report.json").read_text())["datasets"][0]
    earned = json.loads((full / "report.json").read_text())["datasets"][0]["accuracy"]
    assert (d["n"], d["coverage"], d["majority_baseline"]) == (4, 0.5, 0.5)
    assert d["accuracy"] <= earned == 0.5
    assert ("Coverage below 1.0 (rows without a prediction are scored as wrong): nyny 0.500."
            in (out / "report.md").read_text())


def _inf_quartile_manifest(tmp_path):
    """30 rows, no stated boundaries; row 7's target is 1e999, outside the task."""
    d = tmp_path / "inf"
    d.mkdir()
    targets = [str(i) for i in range(30)]
    targets[7] = "1e999"
    write_table_csv(d / "table.csv", 30, targets)
    write_manifest_json(d / "manifest.json", "qinf", "quartile")
    return d / "manifest.json"


def test_serialize_skips_a_quartile_row_without_a_finite_target(tmp_path, capsys):
    manifest = _inf_quartile_manifest(tmp_path)
    out = tmp_path / "o"
    assert run(["--out", out, "serialize", "--manifest", manifest, "--style", "tabula",
                "--shots", "4"]) == 0
    assert "wrote 29 prompts" in (stdout := capsys.readouterr().out)
    assert "; skipped 1 rows outside the task" in stdout
    prompts = [json.loads(line) for line in (out / "prompts_qinf.tabula.jsonl").open()]
    assert [p["row_id"] for p in prompts] == [i for i in range(30) if i != 7]
    assert not any("The f is 7." in p["prompt"] for p in prompts)  # never a shot either
    assert run(["--out", out, "serialize", "--manifest", manifest, "--style", "tabula",
                "--shot-rows", "1,7"]) == 2
    assert "shot_rows: row_id 7 is outside the task" in capsys.readouterr().err


def test_a_prediction_or_completion_for_a_row_outside_the_task_is_refused(tmp_path, capsys):
    manifest = _inf_quartile_manifest(tmp_path)
    completions = tmp_path / "completions.jsonl"
    completions.write_text('{"row_id": 6, "completion": "x"}\n{"row_id": 7, "completion": "x"}\n')
    assert run(["--out", tmp_path / "o", "serialize", "--manifest", manifest, "--style", "tabula",
                "--extract-completions", completions]) == 2
    assert f"{completions}:2: row_id 7 is outside the task" in capsys.readouterr().err
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"dataset_id": "qinf", "row_id": 7, "true_label": "x",
                                 "predicted_label": "x", "model_id": "m"}) + "\n")
    assert _audit(tmp_path, manifest, preds)[0] == 2
    assert f"{preds}:1: row_id 7 is outside the task" in capsys.readouterr().err


def test_a_row_id_of_minus_one_never_wraps_around(tmp_path, capsys):
    manifest = DATA / "creatures.manifest.json"
    completions = tmp_path / "completions.jsonl"
    completions.write_text('{"row_id": -1, "completion": "Dragon"}\n')
    assert run(["--out", tmp_path / "o", "serialize", "--manifest", manifest, "--style", "tabula",
                "--extract-completions", completions]) == 2
    assert (f"{completions}:1: row_id -1 out of range for dataset 'creatures' (6 rows)"
            in capsys.readouterr().err)
    manifest, preds = _no_yes_no_yes(tmp_path)
    preds.write_text(preds.read_text().splitlines()[3].replace(": 3,", ": -1,") + "\n")
    assert _audit(tmp_path, manifest, preds)[0] == 2
    assert (f"{preds}:1: row_id -1 out of range for dataset 'nyny' (4 rows)"
            in capsys.readouterr().err)
    assert run(["--out", tmp_path / "o", "serialize", "--manifest", manifest, "--style", "tabula",
                "--shot-rows", "-1"]) == 2
    assert ("shot_rows: row_id -1 out of range for dataset 'nyny' (4 rows)"
            in capsys.readouterr().err)


def test_a_target_value_outside_the_class_labels_names_the_dataset_and_row(tmp_path, capsys):
    d = tmp_path / "cat"
    d.mkdir()
    write_table_csv(d / "table.csv", 4, ["r", "g", "b", "purple"])
    write_manifest_json(d / "manifest.json", "cat", "categorical", labels=["r", "g", "b"])
    write_predictions_jsonl(d / "preds.jsonl", "cat", "m", ["r", "g", "b"], ["r", "g", "b"])
    message = "dataset 'cat' row 3: target value 'purple' not in the task's class set"
    assert run(["--out", tmp_path / "o", "serialize", "--manifest", d / "manifest.json",
                "--style", "tabula", "--shots", "0"]) == 2
    assert message in capsys.readouterr().err
    assert _audit(tmp_path, d / "manifest.json", d / "preds.jsonl")[0] == 2
    assert message in capsys.readouterr().err


def test_extraction_counts_ambiguous_completions(tmp_path, capsys):
    completions = tmp_path / "completions.jsonl"
    completions.write_text("".join(json.dumps({"row_id": i, "completion": text}) + "\n" for i, text
                                   in enumerate(["no, not yes", "no", "maybe"])))
    out = tmp_path / "o"
    assert run(["--out", out, "serialize", "--manifest", DATA / "tinybin.manifest.json",
                "--style", "tabula", "--extract-completions", completions]) == 0
    assert "extracted 3 predictions" in (stdout := capsys.readouterr().out)
    assert "; 1 ambiguous (several labels matched, the longest taken)" in stdout
    predicted = [json.loads(line)["predicted_label"]
                 for line in (out / "predictions_tinybin.model.jsonl").open()]
    assert predicted == ["yes", "no", None]  # the longest label wins, as before


def test_audit_non_utf8_predictions_is_input_error(tmp_path, capsys):
    manifest, preds = make_binary_dataset(tmp_path, "bin", ["yes", "no"], ["yes", "no"])
    preds.write_bytes(preds.read_bytes() + b"\xff\n")
    assert run(["--out", tmp_path / "o", "audit", "--manifest", manifest,
                "--predictions", preds]) == 2
    assert f"cannot read predictions {preds}" in capsys.readouterr().err


def test_audit_refuses_a_numeric_model_id_beside_a_string_one(tmp_path, capsys):
    # Sorting the models 7 and "m" would raise TypeError; the 7 is refused first.
    manifest, named = make_binary_dataset(tmp_path, "bin", ["yes", "no"], ["yes", "no"],
                                          model="m")
    numbered = tmp_path / "numbered.jsonl"
    numbered.write_text(named.read_text().replace('"model_id": "m"', '"model_id": 7'))
    assert run(["--out", tmp_path / "o", "audit", "--manifest", manifest,
                "--predictions", named, "--predictions", numbered]) == 2
    assert f"{numbered}:1: model_id must be a string, got 7" in capsys.readouterr().err


@pytest.mark.parametrize("partition", ['["stroke-like"]', '{"stroke-like": 1}'])
def test_audit_partition_must_map_datasets_to_group_names(tmp_path, capsys, partition):
    manifest, preds = stroke_like_inputs(tmp_path)
    (tmp_path / "partition.json").write_text(partition)
    assert run(["--out", tmp_path / "out", "audit", "--manifest", manifest,
                "--predictions", preds, "--gap-models", "m1", "m1",
                "--partition", tmp_path / "partition.json"]) == 2
    assert "must map dataset ids to group names" in capsys.readouterr().err


def test_audit_multiple_models_requires_choice(tmp_path, capsys):
    m1_manifests, m1_preds = mixed_inputs(tmp_path, model="m1")
    _, m2_preds = mixed_inputs(tmp_path, model="m2", flip=1)
    argv = ["--out", tmp_path / "o", "audit", "--manifest", m1_manifests[0],
            "--predictions", m1_preds[0], "--predictions", m2_preds[0]]
    assert run(argv) == 2
    assert "pick one with --model" in capsys.readouterr().err


# -- exit codes ------------------------------------------------------------------


def test_exit_usage_error(tmp_path):
    assert run(["audit", "--nonsense"]) == 1


def test_exit_input_error_missing_manifest(tmp_path):
    assert run(["audit", "--manifest", tmp_path / "nope.json",
                "--predictions", tmp_path / "nope.jsonl"]) == 2


def test_exit_compute_error_degenerate_target(tmp_path):
    d = tmp_path / "flat"
    d.mkdir()
    write_table_csv(d / "table.csv", 8, ["5"] * 8)
    write_manifest_json(d / "manifest.json", "flat", "quartile", boundaries=[1, 2, 3])
    assert run(["--out", tmp_path / "o", "gen-quartile",
                "--manifest", d / "manifest.json"]) == 3


def test_exit_partial_scan(tmp_path, workout_fixture):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=10), seed=1, out_dir=corpus)
    (corpus / "broken.csv").write_bytes(b"x\n\xff\xfe\x00\n")
    dataset, task = workout_fixture
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "w.json", task, "w.csv")
    code = run(["--out", tmp_path / "o", "scan", "--corpus", corpus,
                "--manifest", tmp_path / "w.json"])
    assert code == 4
    code = run(["--out", tmp_path / "o2", "scan", "--corpus", corpus,
                "--manifest", tmp_path / "w.json", "--coverage-floor", "0.5"])
    assert code == 0


_JSON_READERS = ["manifest", "config", "partition", "report", "ledger"]


def check_hostile_json_file(tmp_path, capsys, reader, content: bytes):
    """Each JSON document reader exits 2 on ``content`` and names the file."""
    manifest, preds = stroke_like_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    (tmp_path / "ev.jsonl").write_text(_GOOD_EVIDENCE + "\n", encoding="utf-8")
    audit = ["audit", "--manifest", manifest, "--predictions", preds]
    argv = {
        "manifest": ["audit", "--manifest", bad, "--predictions", preds],
        "config": ["--config", bad, *audit],
        "partition": [*audit, "--partition", bad, "--gap-models", "m1", "m2"],
        "report": ["report", "render", "--report", bad],
        "ledger": ["testbed", "eval", "--ledger", bad, "--evidence", f"d={tmp_path / 'ev.jsonl'}"],
    }[reader]
    assert run(["--out", tmp_path / "o", *argv]) == 2
    what = {"config": "config file", "partition": "partition file"}.get(reader, reader)
    assert f"malformed {what} {bad}: " in capsys.readouterr().err


@pytest.mark.parametrize("reader", _JSON_READERS)
def test_json_file_with_huge_integer_is_input_error(tmp_path, capsys, reader):
    # json refuses integer literals of 4300+ digits with a plain ValueError.
    check_hostile_json_file(tmp_path, capsys, reader, b'{"dataset_id": %s}' % (b"1" * 5000))


@pytest.mark.parametrize("reader", _JSON_READERS)
def test_deeply_nested_json_file_is_input_error(tmp_path, capsys, reader):
    check_hostile_json_file(tmp_path, capsys, reader, _DEEP.encode())


@pytest.mark.parametrize("reader", _JSON_READERS)
def test_non_utf8_json_file_is_input_error(tmp_path, capsys, reader):
    check_hostile_json_file(tmp_path, capsys, reader, b'{"id": "\xff"}')


@pytest.mark.parametrize("doc", ["[1]", '{"datasets": [1]}'])
def test_report_render_of_a_wrongly_shaped_report_is_input_error(tmp_path, capsys, doc):
    (tmp_path / "report.json").write_text(doc, encoding="utf-8")
    assert run(["--out", tmp_path / "o", "report", "render",
                "--report", tmp_path / "report.json"]) == 2
    assert f"malformed report {tmp_path / 'report.json'}" in capsys.readouterr().err


# -- config file and environment ----------------------------------------------------


def test_config_file_defaults_and_flag_override(tmp_path):
    manifest, preds = stroke_like_inputs(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_majority": 0.99}))
    out1 = tmp_path / "out1"
    assert run(["--config", config, "--out", out1, "audit",
                "--manifest", manifest, "--predictions", preds]) == 0
    report = json.loads((out1 / "report.json").read_text())
    assert report["config"]["min_majority"] == 0.99
    assert report["imbalance_riders"] == []  # 0.959 < 0.99
    out2 = tmp_path / "out2"
    assert run(["--config", config, "--out", out2, "audit", "--min-majority", "0.85",
                "--manifest", manifest, "--predictions", preds]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["config"]["min_majority"] == 0.85
    assert len(report2["imbalance_riders"]) == 1


def test_argv_is_parsed_once_without_config(tmp_path, monkeypatch):
    from tabaudit.cli import _Parser

    manifest, preds = stroke_like_inputs(tmp_path)
    calls = []
    parse_known_args = _Parser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(_Parser, "parse_known_args", counting)
    assert run(["--out", tmp_path / "o", "audit", "--manifest", manifest,
                "--predictions", preds]) == 0
    assert calls.count("tabaudit") == 1
    # With --config too, found first by a parser that knows only that flag.
    (tmp_path / "config.json").write_text('{"max_lift": 0.02}')
    calls.clear()
    assert run(["--config", tmp_path / "config.json", "--out", tmp_path / "o", "audit",
                "--manifest", manifest, "--predictions", preds]) == 0
    assert calls.count("tabaudit") == 1


def test_config_error_precedes_unknown_flag(tmp_path, capsys):
    assert run(["--config", tmp_path / "missing.json", "audit", "--manifest", "x",
                "--predictions", "y", "--nonsense"]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert run(["audit", "--manifest", "x", "--predictions", "y", "--nonsense"]) == 1
    assert "unrecognized arguments: --nonsense" in capsys.readouterr().err


def test_only_a_whole_config_flag_is_read_as_config(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.csv").write_text("x\nalpha\n", encoding="utf-8")
    # A subcommand flag abbreviated to a prefix of --config stays that flag.
    assert run(["index", "--co", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"filters": ["*.tbin"]}))
    capsys.readouterr()
    assert run(["--conf", config, "index", "--corpus", corpus,
                "--index-path", tmp_path / "c.idx"]) == 1
    assert "usage error: " in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"does_not_exist": 1}))
    assert run(["--config", config, "audit", "--manifest", "x", "--predictions", "y"]) == 2


@pytest.mark.parametrize("key,value", [
    ("config", "nope.json"), ("command", "scan"), ("testbed_command", "eval"),
    ("report_command", "render"), ("help", True), ("version", True),
])
def test_config_key_that_names_no_flag_is_unknown(tmp_path, capsys, key, value):
    # --config, --help, --version and the subcommand choices are not settable flags.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert run(["--config", path, "index", "--corpus", corpus,
                "--index-path", tmp_path / "c.idx"]) == 2
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    assert not (tmp_path / "c.idx").exists()


@pytest.mark.parametrize("config,key,expected", [
    ({"shots": [1]}, "shots", "an integer"),
    ({"fold_dates": "yes"}, "fold_dates", "true or false"),
    ({"max_lift": None}, "max_lift", "a number"),
    ({"max_buffered": True}, "max_buffered", "an integer"),
    ({"filters": "*.csv"}, "filters", "a list of strings"),
    ({"gap_models": ["m1"]}, "gap_models", "a list of 2 strings"),
    ({"model_id": None}, "model_id", "a string"),
    ({"model": 7}, "model", "a string or null"),
])
def test_config_value_must_fit_its_flag(tmp_path, capsys, config, key, expected):
    manifest, preds = stroke_like_inputs(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["--config", path, "--out", tmp_path / "o", "audit", "--manifest", manifest,
                "--predictions", preds]) == 2
    assert f"config file {path}: {key!r} must be {expected}" in capsys.readouterr().err


def test_config_values_that_fit_their_flags_are_accepted(tmp_path):
    manifest, preds = stroke_like_inputs(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "max_lift": 1, "min_majority": 0.9, "shots": 2, "fold_dates": True, "model": None,
        "reference_model": "m1", "gap_models": ["m1", "m1"], "filters": ["*.csv"],
    }))
    out = tmp_path / "o"
    assert run(["--config", config, "--out", out, "audit", "--manifest", manifest,
                "--predictions", preds]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["max_lift"] == 1 and report["config"]["model"] == "m1"


def _run_index_filters(tmp_path, capsys, config, flags):
    """The printed file counts of ``index`` over one CSV and one TBIN table."""
    corpus = tmp_path / "corpus"
    corpus.mkdir(exist_ok=True)
    write_table(corpus / "a.csv", ["x"], [["alpha"]])
    write_table(corpus / "b.tbin", ["x"], [["beta"]])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run(["--config", path, "index", "--corpus", corpus,
                "--index-path", tmp_path / "c.idx", *flags]) == 0
    return capsys.readouterr().out.split(",")[0]


def test_repeatable_flag_replaces_its_config_list(tmp_path, capsys):
    both = ["--filter", "*.csv", "--filter", "*.tbin"]
    assert _run_index_filters(tmp_path, capsys, {}, both) == "indexed 2/2 files"
    config = {"filters": ["*.tbin"]}
    assert _run_index_filters(tmp_path, capsys, config, []) == "indexed 1/1 files"
    assert _run_index_filters(tmp_path, capsys, config, ["--filter", "*.csv"]) == (
        "indexed 1/1 files")
    from tabaudit.cli import _apply_config, build_parser

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"manifests": ["from-config.json"]}))
    args = _apply_config(build_parser(), ["--config", str(path), "audit", "--manifest",
                                          "flag.json", "--predictions", "p.jsonl"])
    assert args.manifests == ["flag.json"]
    path.write_text(json.dumps({"plant_association": ["k=v"]}))
    args = _apply_config(build_parser(), ["--config", str(path), "testbed", "gen"])
    assert args.plant_association == ["k=v"]


def _outputs(out) -> dict[str, bytes]:
    """The bytes of every file in ``out``, without the reports' timestamp lines."""
    stamp = re.compile(rb"(?m)^.*(\"generated_at\": |Generated: ).*\n")
    return {path.name: stamp.sub(b"", path.read_bytes()) for path in sorted(out.iterdir())}


def test_config_supplies_a_required_flag(tmp_path, workout_fixture, capsys):
    dataset, task = workout_fixture
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    plant_complete_overlap(corpus, dataset, seed=3)
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "w.json", task, "w.csv")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    creatures = str(DATA / "creatures.manifest.json")
    serialize = ["serialize", "--manifest", creatures, "--style", "tabula"]
    scan = ["scan", "--index", tmp_path / "c.idx", "--manifest", tmp_path / "w.json"]
    corpus_scan = ["scan", "--corpus", corpus, "--manifest", tmp_path / "w.json"]
    for k, (config, argv, flags) in enumerate([
        ({"manifests": [creatures]}, ["serialize", "--style", "tabula"], serialize),
        ({"style": "tabula"}, ["serialize", "--manifest", creatures], serialize),
        ({"manifests": [creatures], "style": "tabula"}, ["serialize"], serialize),
        ({"index": str(tmp_path / "c.idx")}, ["scan", "--manifest", tmp_path / "w.json"], scan),
        # A flag displaces the config's choice within its exclusive group.
        ({"index": str(tmp_path / "missing.idx")}, corpus_scan, corpus_scan),
    ]):
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(config))
        assert run(["--config", path, "--out", tmp_path / f"c{k}", *argv]) == 0
        assert run(["--out", tmp_path / f"f{k}", *flags]) == 0
        assert _outputs(tmp_path / f"c{k}") == _outputs(tmp_path / f"f{k}")
    assert (tmp_path / "c3" / f"verdict_{dataset.id}.json").exists()
    # A config naming both members of the group leaves the choice to a flag.
    path.write_text(json.dumps({"corpus": str(corpus), "index": str(tmp_path / "c.idx")}))
    assert run(["--config", path, "--out", tmp_path / "both", *scan]) == 0
    assert _outputs(tmp_path / "both") == _outputs(tmp_path / "f3")
    capsys.readouterr()
    assert run(["--config", path, "scan", "--manifest", tmp_path / "w.json"]) == 1
    assert "one of the arguments --corpus --index is required" in capsys.readouterr().err
    # null supplies nothing, so the flag stays required.
    path.write_text(json.dumps({"style": None}))
    capsys.readouterr()
    assert run(["--config", path, "serialize", "--manifest", creatures]) == 1
    assert "the following arguments are required: --style" in capsys.readouterr().err


def test_scan_fold_dates_follows_the_index(tmp_path, capsys):
    # The same 20 rows, dated MM/DD/YYYY in the dataset and ISO in the corpus.
    rows = [(f"zeta{i:03d}q", f"{7919 * i:x}k", 1 + i % 12, 1 + i, "yes" if i % 2 else "no")
            for i in range(20)]
    (tmp_path / "table.csv").write_text("name,code,when,target\n" + "".join(
        f"{n},{c},{m:02d}/{d:02d}/2021,{t}\n" for n, c, m, d, t in rows), encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "copy.csv").write_text("name,code,when,target\n" + "".join(
        f"{n},{c},2021-{m:02d}-{d:02d},{t}\n" for n, c, m, d, t in rows), encoding="utf-8")
    write_manifest_json(tmp_path / "m.json", "dated", "binary", labels=["no", "yes"])
    scan = ["--manifest", tmp_path / "m.json", "--min-overlap", "1.0"]
    assert run(["--out", tmp_path / "c", "scan", "--corpus", corpus, "--fold-dates", *scan]) == 0
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "plain.idx"]) == 0
    capsys.readouterr()
    assert run(["--out", tmp_path / "p", "scan", "--index", tmp_path / "plain.idx",
                "--fold-dates", *scan]) == 2
    assert (f"index {tmp_path / 'plain.idx'} was built without --fold-dates; "
            "rebuild it with index --fold-dates") in capsys.readouterr().err
    # An index built with folding folds whatever the scan's flag says.
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "folded.idx",
                "--fold-dates"]) == 0
    assert run(["--out", tmp_path / "f", "scan", "--index", tmp_path / "folded.idx", *scan]) == 0
    for out in ("c", "f"):
        verdict = json.loads((tmp_path / out / "verdict_dated.json").read_text())
        assert verdict["category"] == "complete_overlap"
    assert (tmp_path / "c" / "evidence_dated.jsonl").read_bytes() == (
        tmp_path / "f" / "evidence_dated.jsonl").read_bytes()


# -- manifest fields that become file names ------------------------------------------


@pytest.mark.parametrize("field,value,message", [
    ("class_labels", 5, "field 'class_labels' must be a JSON list"),
    ("class_labels", "Steel", "field 'class_labels' must be a JSON list"),
    ("table_path", 5, "field 'table_path' must be a string"),
    ("id", 5, "field 'id' must be a string"),
    ("id", "a/b", "field 'id' must be non-empty, without '/' or NUL, got 'a/b'"),
    ("id", "", "field 'id' must be non-empty"),
    ("id", "a\x00b", "field 'id' must be non-empty, without '/' or NUL"),
])
@pytest.mark.parametrize("command", ["serialize", "scan", "gen-quartile", "audit"])
def test_manifest_field_of_the_wrong_kind_is_input_error(tmp_path, capsys, field, value,
                                                         message, command):
    doc = json.loads((DATA / "creatures.manifest.json").read_text())
    doc[field] = value
    doc["table_path"] = doc["table_path"] if field == "table_path" else str(DATA / "creatures.csv")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    argv = {
        "serialize": ["serialize", "--manifest", manifest, "--style", "tabula"],
        "scan": ["scan", "--corpus", DATA, "--manifest", manifest],
        "gen-quartile": ["gen-quartile", "--manifest", manifest],
        "audit": ["audit", "--manifest", manifest, "--predictions", tmp_path / "p.jsonl"],
    }[command]
    assert run(["--out", tmp_path / "o", *argv]) == 2
    assert f"manifest {manifest}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("task_type,field,value,message", [
    ("quartile", "quartile_boundaries", [3, 2, 1], "boundaries must be ascending"),
    ("quartile", "quartile_boundaries", [1, 2], "boundary count must be 3, got 2"),
    ("categorical", "class_labels", ["1", "2", "1"], "duplicate class labels"),
    ("binary", "class_labels", ["1", "2", "3"], "binary task needs exactly 2 labels, got 3"),
    ("categorical", "class_labels", ["1", "2"], "categorical task needs >= 3 labels, got 2"),
    ("binary", "class_labels", None, "class labels required"),
], ids=["descending", "two-boundaries", "duplicate-labels", "binary-3", "categorical-2",
        "no-labels"])
@pytest.mark.parametrize("command", ["serialize", "scan", "gen-quartile", "audit"])
def test_a_task_of_the_wrong_shape_is_input_error_naming_the_task(
        tmp_path, capsys, task_type, field, value, message, command):
    write_table_csv(tmp_path / "table.csv", 4, ["1", "2", "3", "4"])
    doc = {"id": "shape", "task_type": task_type, "target_column": "target",
           "table_path": "table.csv", field: value}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    argv = {
        "serialize": ["serialize", "--manifest", manifest, "--style", "tabula"],
        "scan": ["scan", "--corpus", DATA, "--manifest", manifest],
        "gen-quartile": ["gen-quartile", "--manifest", manifest],
        "audit": ["audit", "--manifest", manifest, "--predictions", tmp_path / "p.jsonl"],
    }[command]
    assert run(["--out", tmp_path / "o", *argv]) == 2
    assert f"input error: task 'shape': {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("flag,message", [
    ("--min-overlap=0", "min_overlap must be in (0, 1], got 0.0"),
    ("--min-distinctive=-1", "min_distinctive must be >= 0, got -1"),
    ("--selectivity-fraction=2", "selectivity_fraction must be in [0, 1], got 2.0"),
    ("--complete-threshold=0", "complete_threshold must be in (0, 1], got 0.0"),
    ("--complete-threshold=1.01", "complete_threshold must be in (0, 1], got 1.01"),
    ("--table-diversity=0", "diversity_threshold must be >= 1, got 0"),
    ("--assoc-probes=-1", "association_probes must be >= 0, got -1"),
])
@pytest.mark.parametrize("source", ["--corpus", "--index"])
def test_a_scan_setting_out_of_range_exits_2_before_the_corpus_is_read(
        tmp_path, capsys, flag, message, source):
    # Neither the corpus nor the index exists: the setting is refused first.
    assert run(["--out", tmp_path / "o", "scan", source, tmp_path / "absent",
                "--manifest", DATA / "creatures.manifest.json", flag]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,dest,value,message", [
    ("scan", "coverage_floor", 1.5, "coverage_floor must be in [0, 1], got 1.5"),
    ("scan", "coverage_floor", -1.0, "coverage_floor must be in [0, 1], got -1.0"),
    ("scan", "coverage_floor", float("nan"), "coverage_floor must be in [0, 1], got nan"),
    ("audit", "max_lift", float("nan"), "max_lift must be finite, got nan"),
    ("audit", "max_lift", float("-inf"), "max_lift must be finite, got -inf"),
    ("audit", "min_majority", 0.3, "min_majority must be in (0.5, 1], got 0.3"),
    ("audit", "min_majority", 1.5, "min_majority must be in (0.5, 1], got 1.5"),
    ("audit", "min_majority", float("nan"), "min_majority must be in (0.5, 1], got nan"),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_a_threshold_that_would_switch_its_check_off_exits_2_before_input_is_read(
        tmp_path, capsys, command, dest, value, message, via):
    # No input exists: the threshold is refused first. A floor outside
    # [0, 1] fails or passes every scan, a NaN or infinite max lift flags
    # no rider or all of them, and a min majority outside (0.5, 1] flags
    # no rider or ones whose classes are balanced.
    absent = tmp_path / "absent"
    argv = {"scan": ["scan", "--index", absent, "--manifest", absent],
            "audit": ["audit", "--manifest", absent, "--predictions", absent]}[command]
    if via == "flag":
        argv.append(f"--{dest.replace('_', '-')}={value}")
        config = []
    else:
        (tmp_path / "config.json").write_text(json.dumps({dest: value}))  # NaN as json writes it
        config = ["--config", tmp_path / "config.json"]
    assert run([*config, "--out", tmp_path / "o", *argv]) == 2
    assert f"input error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value", [("--max-buffered", "0"), ("--max-buffered", "-3")])
def test_an_index_count_below_one_exits_2_before_the_corpus_is_read(tmp_path, capsys, flag,
                                                                     value):
    # The corpus does not exist: the count is refused first.
    assert run(["index", "--corpus", tmp_path / "absent", "--index-path", tmp_path / "c.idx",
                flag, value]) == 2
    assert f"input error: {flag} must be >= 1, got {value}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["--corpus", "--index"])
def test_a_scan_max_buffered_below_one_exits_2_before_the_corpus_is_read(tmp_path, capsys,
                                                                         source):
    assert run(["--out", tmp_path / "o", "scan", source, tmp_path / "absent",
                "--manifest", DATA / "creatures.manifest.json", "--max-buffered", "0"]) == 2
    assert "input error: --max-buffered must be >= 1, got 0\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["0", "-0.5", "1.5", "nan"])
def test_a_shortcut_threshold_out_of_range_exits_2(tmp_path, capsys, value):
    manifest = _quartile_manifest(tmp_path, None)
    assert run(["--out", tmp_path / "o", "gen-quartile", "--manifest", manifest,
                f"--shortcut-threshold={value}"]) == 2
    assert (f"input error: shortcut threshold must be in (0, 1], got {float(value)!r}\n"
            in capsys.readouterr().err)
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("command", ["audit", "scan", "serialize", "gen-quartile"])
def test_repeated_dataset_id_is_input_error(tmp_path, capsys, command):
    manifest = _quartile_manifest(tmp_path, [2, 4, 6])
    twice = ["--manifest", manifest, "--manifest", manifest]
    argv = {
        "audit": ["audit", *twice, "--predictions", tmp_path / "p.jsonl"],
        "scan": ["scan", "--corpus", DATA, *twice],
        "serialize": ["serialize", "--style", "tabula", *twice],
        "gen-quartile": ["gen-quartile", *twice],
    }[command]
    assert run(["--out", tmp_path / "o", *argv]) == 2
    assert "duplicate dataset id 'series' across manifests" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["audit", "scan", "gen-quartile", "serialize",
                                     "report render", "testbed gen"])
def test_out_that_is_a_file_is_input_error(tmp_path, capsys, command):
    manifest, preds = stroke_like_inputs(tmp_path)
    assert run(["--out", tmp_path / "o", "audit", "--manifest", manifest,
                "--predictions", preds]) == 0
    argv = {
        "audit": ["audit", "--manifest", manifest, "--predictions", preds],
        "scan": ["scan", "--corpus", DATA, "--manifest", manifest],
        "gen-quartile": ["gen-quartile", "--manifest", manifest],
        "serialize": ["serialize", "--manifest", manifest, "--style", "tabula"],
        "report render": ["report", "render", "--report", tmp_path / "o" / "report.json"],
        "testbed gen": ["testbed", "gen", "--tables", "1", "--rows", "2"],
    }[command]
    out = tmp_path / "file"
    out.write_text("")
    capsys.readouterr()
    assert run(["--out", out, *argv]) == 2
    assert f"{out}: " in capsys.readouterr().err


@pytest.mark.parametrize("model_id", ["a/b", "", "m\x00"])
def test_serialize_refuses_a_model_id_unfit_for_a_file_name(tmp_path, capsys, model_id):
    completions = tmp_path / "completions.jsonl"
    completions.write_text('{"row_id": 0, "completion": "Dragon"}\n', encoding="utf-8")
    assert run(["--out", tmp_path / "o", "serialize", "--manifest",
                DATA / "creatures.manifest.json", "--style", "tabula",
                "--extract-completions", completions, "--model-id", model_id]) == 2
    assert "--model-id must be non-empty, without '/' or NUL" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() or list((tmp_path / "o").iterdir()) == []


def test_out_env_var(tmp_path, monkeypatch):
    manifest, preds = stroke_like_inputs(tmp_path)
    monkeypatch.setenv("TABAUDIT_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run(["audit", "--manifest", manifest, "--predictions", preds]) == 0
    assert (tmp_path / "envout" / "report.json").exists()


# -- scan ---------------------------------------------------------------------------


def test_scan_clean_corpus_all_none(tmp_path, workout_fixture):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=2, out_dir=corpus)
    dataset, task = workout_fixture
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "w.json", task, "w.csv")
    out = tmp_path / "o"
    assert run(["--out", out, "scan", "--corpus", corpus,
                "--manifest", tmp_path / "w.json"]) == 0
    report = json.loads((out / "report.json").read_text())
    verdicts = report["contamination"]["verdicts"]
    assert [v["category"] for v in verdicts] == ["none"]
    assert report["contamination"]["coverage"]["fraction"] == 1.0
    assert (out / f"evidence_{dataset.id}.jsonl").read_text() == ""


def test_scan_with_prebuilt_index_and_planted_overlap(tmp_path, workout_fixture):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    dataset, task = workout_fixture
    plant_complete_overlap(corpus, dataset, seed=3)
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "w.json", task, "w.csv")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    out = tmp_path / "o"
    assert run(["--out", out, "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "w.json"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["contamination"]["verdicts"][0]["category"] == "complete_overlap"
    evidence_lines = (out / f"evidence_{dataset.id}.jsonl").read_text().splitlines()
    assert len(evidence_lines) == dataset.row_count
    first = json.loads(evidence_lines[0])
    assert first["strategy"] == "row_match" and first["label_exposed"]


def _index_and_delete_planted_table(tmp_path, dataset, task):
    """Index a corpus with a planted copy of ``dataset``, scan it once into
    ``tmp_path / "before"``, then delete the table that holds the copy."""
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    plant = plant_complete_overlap(corpus, dataset, seed=3)
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "w.json", task, "w.csv")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    assert run(["--out", tmp_path / "before", "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "w.json"]) == 0
    (corpus / plant.locations[0][0]).unlink()


def test_scan_index_with_deleted_table_is_input_error(tmp_path, workout_fixture, capsys):
    # A scan reads only the index; the verbose near-miss log re-reads corpus rows.
    dataset, task = workout_fixture
    _index_and_delete_planted_table(tmp_path, dataset, task)
    scan = ["scan", "--index", tmp_path / "c.idx", "--manifest", tmp_path / "w.json"]
    assert run(["--out", tmp_path / "o", *scan]) == 0
    for name in (f"evidence_{dataset.id}.jsonl", f"verdict_{dataset.id}.json"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()
    # -v holds in-process, under a host (pytest) that configured logging first,
    # and does not outlive its call.
    capsys.readouterr()
    assert run(["--out", tmp_path / "v", "-v", *scan]) == 2
    assert "cannot read table file" in capsys.readouterr().err
    assert run(["--out", tmp_path / "o2", *scan]) == 0


def test_scan_refuses_version_1_index(tmp_path, workout_fixture, capsys):
    # Version 1 stored numbers in the 60-digit form, so its lookups would miss.
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    dataset, task = workout_fixture
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "w.json", task, "w.csv")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    data = bytearray((tmp_path / "c.idx").read_bytes())
    assert data[8:10] == (2).to_bytes(2, "little")
    data[8:10] = (1).to_bytes(2, "little")
    (tmp_path / "c.idx").write_bytes(bytes(data))
    capsys.readouterr()
    assert run(["--out", tmp_path / "o", "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "w.json"]) == 2
    assert "unsupported version 1" in capsys.readouterr().err



def test_scan_index_with_corrupt_record_is_input_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "t.csv").write_text("a,b\n1,x\n2,y\n", encoding="utf-8")
    (tmp_path / "table.csv").write_text("f,target\n1,x\n2,y\n", encoding="utf-8")
    write_manifest_json(tmp_path / "m.json", "d", "binary", labels=["x", "y"])
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    data = bytearray((tmp_path / "c.idx").read_bytes())
    first = int.from_bytes(data[10:18], "little")
    assert data[first : first + 5] == b"\x01\x00\x00\x001"  # the record of "1"
    data[first + 5 : first + 9] = (1000).to_bytes(4, "little")  # its pair count
    (tmp_path / "c.idx").write_bytes(bytes(data))
    capsys.readouterr()
    assert run(["--out", tmp_path / "o", "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "m.json"]) == 2
    assert "is corrupt" in capsys.readouterr().err


def _ledger_scan_inputs(tmp_path):
    """A 30-row dataset, and a corpus holding a copy of rows 0-11 (renamed,
    reordered, ISO dates for the dataset's MM/DD/YYYY), rows 12-17 with only
    the code kept and the amount off by 1e-7 (near-misses), and background."""
    regions = ("north", "south", "east")
    rows = [(f"c{i:03d}x", f"{1 + i % 12:02d}/{1 + i % 28:02d}/2021", f"{100 + 7 * i}.25",
             regions[i % 3], "yes" if i % 2 else "no") for i in range(30)]
    (tmp_path / "table.csv").write_text("code,day,amount,region,target\n" + "".join(
        ",".join(row) + "\n" for row in rows), encoding="utf-8")
    write_manifest_json(tmp_path / "m.json", "ledger", "binary", labels=["no", "yes"])
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    (corpus / "copy.csv").write_text("outcome,area,when,amt,ident\n" + "".join(
        f"{t},{r},2021-{d[:2]}-{d[3:5]},{a},{c}\n" for c, d, a, r, t in rows[:12]),
        encoding="utf-8")
    (corpus / "near.csv").write_text("ident,amt,area\n" + "".join(
        f"{c},{a}00001,west\n" for c, _, a, _, _ in rows[12:18]), encoding="utf-8")
    return corpus, tmp_path / "m.json"


@pytest.mark.parametrize("flags", [
    [], ["--fold-dates"], ["--id-column", "code", "--assoc-key-column", "region"],
    ["--id-column", "code", "--assoc-key-column", "region", "--fold-dates"],
], ids=["plain", "fold-dates", "id-assoc", "id-assoc-fold-dates"])
def test_scan_corpus_writes_what_scan_index_writes(tmp_path, monkeypatch, caplog, flags):
    # scan --corpus builds an index of the dataset's values only; every
    # output, and every near-miss line of -v, equals a scan of the full index.
    from tabaudit.contam import CorpusIndex
    from tabaudit.contam import index as index_mod

    corpus, manifest = _ledger_scan_inputs(tmp_path)
    fold = ["--fold-dates"] if "--fold-dates" in flags else []
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx", *fold]) == 0
    full = CorpusIndex.load(tmp_path / "c.idx")
    built = []
    real_build = index_mod.build_index

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(index_mod, "build_index", recording_build)
    near_misses = {}
    for verbose in ([], ["-v"]):
        for source in (["--corpus", corpus], ["--index", tmp_path / "c.idx"]):
            out = tmp_path / f"{source[0]}{''.join(verbose)}"
            caplog.clear()
            assert run(["--out", out, *verbose, "scan", *source, "--manifest", manifest,
                        *flags]) == 0
            near_misses[out.name] = [r.getMessage() for r in caplog.records
                                     if r.getMessage().startswith("near-miss")]
        assert _outputs(tmp_path / f"--corpus{''.join(verbose)}") == (
            _outputs(tmp_path / f"--index{''.join(verbose)}"))
    assert sorted(_outputs(tmp_path / "--corpus")) == [
        "evidence_ledger.jsonl", "report.json", "report.md", "verdict_ledger.json"]
    verdict = json.loads((tmp_path / "--corpus" / "verdict_ledger.json").read_bytes())
    assert verdict["row_match_fraction"] == (0.4 if fold else 0.0)
    assert near_misses["--corpus"] == near_misses["--index"] == []
    assert near_misses["--corpus-v"] == near_misses["--index-v"]
    assert len(near_misses["--corpus-v"]) == 6
    # Both --corpus scans built a restricted index, smaller than the full one.
    assert [index.restricted for index in built] == [True, True]
    assert built[0].build_stats["postings"] < full.build_stats["postings"]
    full.close()


@pytest.mark.parametrize("bad", ["missing-table", "repeated-id"])
def test_scan_corpus_checks_every_manifest_before_reading_the_corpus(tmp_path, capsys,
                                                                    monkeypatch, bad):
    from tabaudit.contam import index as index_mod

    corpus, manifest = _ledger_scan_inputs(tmp_path)
    other = tmp_path / "other.json"
    write_manifest_json(other, "other", "binary", labels=["no", "yes"], table="gone.csv")
    second = other if bad == "missing-table" else manifest
    read = []
    real_read = index_mod.read_table

    def recording_read(path):
        read.append(path)
        return real_read(path)

    monkeypatch.setattr(index_mod, "read_table", recording_read)
    capsys.readouterr()
    assert run(["--out", tmp_path / "o", "scan", "--corpus", corpus,
                "--manifest", manifest, "--manifest", second]) == 2
    err = capsys.readouterr().err
    assert ("gone.csv" if bad == "missing-table" else "duplicate dataset id 'ledger'") in err
    assert read == []
    assert not (tmp_path / "o").exists()


# -- gen-quartile ----------------------------------------------------------------------


def test_gen_quartile_boundaries_and_shortcut(tmp_path):
    d = tmp_path / "series"
    d.mkdir()
    lines = ["dup,rand,target"]
    rng = random.Random(0)
    for i in range(1, 9):
        lines.append(f"{i},{rng.uniform(0, 10):.4f},{i}")
    (d / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {"id": "series", "task_type": "quartile", "target_column": "target",
           "table_path": "table.csv"}
    (d / "manifest.json").write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["--out", out, "gen-quartile", "--manifest", d / "manifest.json"]) == 0
    generated = json.loads((out / "series.quartile.json").read_text())
    assert generated["quartile_boundaries"] == [2.75, 4.5, 6.25]
    report = json.loads((out / "report.json").read_text())
    findings = {f["feature"]: f for f in report["shortcut_reports"][0]["findings"]}
    assert findings["dup"]["bin_accuracy"] == 1.0 and findings["dup"]["flagged"]
    assert not findings["rand"]["flagged"]


@pytest.mark.parametrize("column", ["dup", "target"])
@pytest.mark.parametrize("value", ["1e999", "-1e999"])
def test_gen_quartile_skips_non_finite_cells(tmp_path, capsys, column, value):
    d = tmp_path / "series"
    d.mkdir()
    rows = [{"dup": str(i), "target": str(i)} for i in range(1, 9)]
    rows.append({"dup": "4", "target": "4", column: value})
    lines = ["dup,target", *(f"{r['dup']},{r['target']}" for r in rows)]
    (d / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest_json(d / "manifest.json", "series", "quartile", boundaries=[1, 2, 3])
    out = tmp_path / "o"
    assert run(["--out", out, "gen-quartile", "--manifest", d / "manifest.json"]) == 0
    generated = json.loads((out / "series.quartile.json").read_text())
    targets = [*range(1, 9)] + ([4] if column == "dup" else [])
    assert generated["quartile_boundaries"] == list(quartile_bins(targets))
    (finding,) = json.loads((out / "report.json").read_text())["shortcut_reports"][0]["findings"]
    assert (finding["n_evaluated"], finding["bin_accuracy"]) == (8, 1.0)


def test_unbound_quartile_manifest_works_in_every_command(tmp_path, capsys):
    d = tmp_path / "series"
    d.mkdir()
    lines = ["key,code,target", *(f"k{i:03d},c{7 * i},{i * i}" for i in range(12))]
    (d / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {"id": "series", "task_type": "quartile", "target_column": "target",
           "table_path": "table.csv"}
    (d / "manifest.json").write_text(json.dumps(doc))
    unbound = d / "manifest.json"
    assert run(["--out", tmp_path / "gq", "gen-quartile", "--manifest", unbound]) == 0
    bound = tmp_path / "gq" / "series.quartile.json"
    gold = {}
    for name, manifest in (("unbound", unbound), ("bound", bound)):
        out = tmp_path / f"ser-{name}"
        assert run(["--out", out, "serialize", "--manifest", manifest, "--style", "tabula",
                    "--shots", "0"]) == 0
        gold[name] = [json.loads(line)["gold_label"]
                      for line in (out / "prompts_series.tabula.jsonl").read_text().splitlines()]
    assert gold["unbound"] == gold["bound"] and len(set(gold["bound"])) == 4
    corpus = tmp_path / "corpus"
    assert run(["--out", corpus, "testbed", "gen", "--tables", "2", "--rows", "10",
                "--plant-complete", unbound, "--plant-duplicates", unbound,
                "--dup-rows", "3", "--copies", "2"]) == 0
    assert run(["--out", tmp_path / "scan", "scan", "--corpus", corpus,
                "--manifest", unbound]) == 0
    verdict = json.loads((tmp_path / "scan" / "verdict_series.json").read_text())
    assert verdict["task_type"] == "quartile" and verdict["category"] != "none"


def _quartile_manifest(tmp_path, boundaries):
    d = tmp_path / "series"
    d.mkdir(parents=True)
    write_table_csv(d / "table.csv", 8, [str(i) for i in range(8)])
    write_manifest_json(d / "manifest.json", "series", "quartile", boundaries=boundaries)
    return d / "manifest.json"


@pytest.mark.parametrize("bad", [
    "a", None, "1_000", "inf", "-Infinity", "nan", float("inf"), True, "", [1], 10 ** 400,
], ids=["text", "null", "underscore", "inf-text", "infinity-text", "nan-text",
        "json-infinity", "bool", "empty", "list", "beyond-float"])
def test_bad_quartile_boundary_is_input_error(tmp_path, capsys, bad):
    manifest = _quartile_manifest(tmp_path, [bad, 2, 3])
    assert run(["--out", tmp_path / "o", "serialize", "--manifest", manifest,
                "--style", "tabula", "--shots", "0"]) == 2
    assert "quartile boundary" in capsys.readouterr().err


def test_quartile_boundaries_as_number_strings(tmp_path):
    manifest = _quartile_manifest(tmp_path, [" 1.5 ", "3", "4.5e0"])
    out = tmp_path / "o"
    assert run(["--out", out, "serialize", "--manifest", manifest,
                "--style", "tabula", "--shots", "0"]) == 0
    numeric = _quartile_manifest(tmp_path / "n", [1.5, 3, 4.5])
    assert run(["--out", tmp_path / "n" / "o", "serialize", "--manifest", numeric,
                "--style", "tabula", "--shots", "0"]) == 0
    assert (out / "prompts_series.tabula.jsonl").read_bytes() == (
        tmp_path / "n" / "o" / "prompts_series.tabula.jsonl").read_bytes()


# -- serialize ---------------------------------------------------------------------------


DATA = Path(__file__).parent / "data"


def test_serialize_four_shot_alpaca(tmp_path):
    out = tmp_path / "o"
    assert run(["--out", out, "serialize", "--manifest", DATA / "creatures.manifest.json",
                "--style", "alpaca", "--shots", "4", "--seed", "1"]) == 0
    lines = (out / "prompts_creatures.alpaca.jsonl").read_text().splitlines()
    assert len(lines) == 6
    doc = json.loads(lines[0])
    assert doc["prompt"].count("Example ") == 4
    assert doc["gold_label"] == "Water"


def test_serialize_zero_shot(tmp_path):
    out = tmp_path / "o"
    assert run(["--out", out, "serialize", "--manifest", DATA / "tinybin.manifest.json",
                "--style", "tabula", "--shots", "0"]) == 0
    doc = json.loads((out / "prompts_tinybin.tabula.jsonl").read_text().splitlines()[0])
    assert "<|endcompletion|>" not in doc["prompt"]


def test_serialize_extract_completions(tmp_path):
    from tabaudit.data import gold_labels, load_dataset, load_predictions

    dataset, task = load_dataset(DATA / "creatures.manifest.json")
    golds = gold_labels(dataset, task)
    completions = tmp_path / "completions.jsonl"
    with open(completions, "w", encoding="utf-8") as handle:
        for i in range(dataset.row_count):
            gold = dataset.record(i)["Type 1"]
            text = f" {gold}<|endcompletion|>" if i % 2 else f"I think {gold.upper()} fits."
            handle.write(json.dumps({"row_id": i, "completion": text}) + "\n")
    out = tmp_path / "o"
    assert run(["--out", out, "serialize", "--manifest", DATA / "creatures.manifest.json",
                "--style", "tabula", "--extract-completions", completions,
                "--model-id", "m7", "--case-insensitive"]) == 0
    preds = load_predictions(out / "predictions_creatures.m7.jsonl", task, golds)
    assert preds.model_id == "m7"
    assert preds.predicted == preds.true_labels
    # Without case folding the upper-cased completions fail to match.
    out2 = tmp_path / "o2"
    assert run(["--out", out2, "serialize", "--manifest", DATA / "creatures.manifest.json",
                "--style", "tabula", "--extract-completions", completions]) == 0
    preds2 = load_predictions(out2 / "predictions_creatures.model.jsonl", task, golds)
    assert None in preds2.predicted


def test_serialize_extract_completions_refuses_a_repeated_row_id(tmp_path, capsys):
    completions = tmp_path / "completions.jsonl"
    completions.write_text(
        '{"row_id": 1, "completion": "Dragon"}\n{"row_id": 1, "completion": "Water"}\n',
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert run(["--out", out, "serialize", "--manifest", DATA / "creatures.manifest.json",
                "--style", "tabula", "--extract-completions", completions]) == 2
    assert "duplicate row_id 1" in capsys.readouterr().err
    assert not (out / "predictions_creatures.model.jsonl").exists()


@pytest.mark.parametrize("raw", ['"x"', "true", "1.9"])
def test_serialize_extract_completions_rejects_non_integer_row_id(tmp_path, capsys, raw):
    completions = tmp_path / "completions.jsonl"
    completions.write_text(
        '{"row_id": 0, "completion": "Dragon"}\n'
        f'{{"row_id": {raw}, "completion": "Dragon"}}\n',
        encoding="utf-8",
    )
    assert run(["--out", tmp_path / "o", "serialize", "--manifest",
                DATA / "creatures.manifest.json", "--style", "tabula",
                "--extract-completions", completions]) == 2
    assert f"{completions}:2: row_id must be an integer" in capsys.readouterr().err


def test_serialize_extract_completions_rejects_a_deeply_nested_line(tmp_path, capsys):
    completions = tmp_path / "completions.jsonl"
    completions.write_text(
        '{"row_id": 0, "completion": "Dragon"}\n' f'{{"row_id": 1, "completion": {_DEEP}}}\n',
        encoding="utf-8",
    )
    assert run(["--out", tmp_path / "o", "serialize", "--manifest",
                DATA / "creatures.manifest.json", "--style", "tabula",
                "--extract-completions", completions]) == 2
    assert f"{completions}:2: malformed JSON" in capsys.readouterr().err


def test_serialize_extract_completions_rejects_non_string_completion(tmp_path, capsys):
    completions = tmp_path / "completions.jsonl"
    completions.write_text('{"row_id": 0, "completion": 5}\n', encoding="utf-8")
    assert run(["--out", tmp_path / "o", "serialize", "--manifest",
                DATA / "creatures.manifest.json", "--style", "tabula",
                "--extract-completions", completions]) == 2
    assert f"{completions}:1: completion must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("shot_rows,message", [
    ("1,x", "--shot-rows wants comma-separated integer row ids"),
    ("1,2.5", "--shot-rows wants comma-separated integer row ids"),
    ("1,6", "row_id 6 out of range"),
    ("-1,2", "row_id -1 out of range"),
])
def test_serialize_rejects_bad_shot_rows(tmp_path, capsys, shot_rows, message):
    assert run(["--out", tmp_path / "o", "serialize", "--manifest",
                DATA / "creatures.manifest.json", "--style", "tabula",
                f"--shot-rows={shot_rows}"]) == 2
    assert message in capsys.readouterr().err


def test_serialize_non_utf8_byte_past_first_read_buffer(tmp_path, capsys):
    # The header and the first rows decode; the bad byte lies beyond the
    # text reader's first 8 KiB chunk, so it surfaces mid-iteration.
    rows = "".join(f"{i},{'yes' if i % 2 else 'no'}\n" for i in range(2000))
    (tmp_path / "t.csv").write_bytes(b"f,target\n" + rows.encode() + b"\xff,yes\n")
    write_manifest_json(tmp_path / "m.json", "bad", "binary", labels=["yes", "no"],
                        table="t.csv")
    assert run(["--out", tmp_path / "o", "serialize", "--manifest", tmp_path / "m.json",
                "--style", "tabula", "--shots", "0"]) == 2
    assert "not valid UTF-8" in capsys.readouterr().err


def test_audit_has_no_jobs_flag(tmp_path):
    manifest, preds = stroke_like_inputs(tmp_path)
    assert run(["--out", tmp_path / "o", "audit", "--manifest", manifest,
                "--predictions", preds, "--jobs", "2"]) == 1


def test_index_has_no_jobs_flag(tmp_path, capsys):
    # A corpus file is indexed one at a time; neither a flag nor a config key sets workers.
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=5), seed=3, out_dir=corpus)
    argv = ["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]
    assert run([*argv, "--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    (tmp_path / "config.json").write_text('{"jobs": 2}')
    assert run(["--config", tmp_path / "config.json", *argv]) == 2
    assert "input error: unknown config keys: ['jobs']\n" in capsys.readouterr().err
    assert not (tmp_path / "c.idx").exists()


def test_cli_startup_loads_no_scipy_or_numpy(tmp_path):
    manifests, predfiles = mixed_inputs(tmp_path)
    audit = ["--out", str(tmp_path / "out"), "audit"]
    for m, p in zip(manifests, predfiles):
        audit += ["--manifest", str(m), "--predictions", str(p)]
    script = (
        "import sys, tabaudit.cli\n"
        "try:\n"
        "    tabaudit.cli.main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        f"assert tabaudit.cli.main({audit!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.startswith("tabaudit ")
    assert proc.stdout.splitlines()[-1] == "[]"
    # The audit ran the ANOVA and the Welch tests, whose p-values need no scipy.
    stat_tests = json.loads((tmp_path / "out" / "report.json").read_text())["stat_tests"]
    assert 0.0 <= stat_tests["anova"]["p_value"] <= 1.0
    assert [0.0 <= t["p_value"] <= 1.0 for t in stat_tests["pairwise"]] == [True] * 3


_SRC = str(Path(__file__).resolve().parent.parent / "src")
_STARTUP = {"tabaudit", "tabaudit.cli", "tabaudit.defaults", "tabaudit.errors"}
_INDEX = _STARTUP | {"tabaudit.contam", "tabaudit.contam.index", "tabaudit.contam.normalize",
                     "tabaudit.tableio"}
_DATA = _STARTUP | {"tabaudit.data", "tabaudit.tableio"}
_AUDIT = _DATA | {"tabaudit.metrics", "tabaudit.stratify", "tabaudit.report"}


def _modules_loaded_by(argv) -> set[str]:
    """The tabaudit modules a fresh process holds after running one command."""
    script = (
        "import json, sys\n"
        "from tabaudit.cli import main\n"
        "try:\n"
        "    code = main(json.loads(sys.argv[1]))\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('tabaudit'))]))\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([str(a) for a in argv])],
                          capture_output=True, text=True, env=env, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


def test_version_loads_only_the_parser():
    assert _modules_loaded_by(["--version"]) == _STARTUP


def test_index_and_scan_load_only_the_corpus_modules(tmp_path, workout_fixture):
    dataset, task = workout_fixture
    corpus, manifest, index = tmp_path / "corpus", tmp_path / "w.json", tmp_path / "c.idx"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(manifest, task, "w.csv")
    assert _modules_loaded_by(["index", "--corpus", corpus, "--index-path", index]) == _INDEX
    assert _modules_loaded_by(["--out", tmp_path / "o", "scan", "--index", index,
                               "--manifest", manifest]) == (
        _INDEX | {"tabaudit.contam.search", "tabaudit.data", "tabaudit.report"})


def test_audit_loads_quartile_only_for_quartile_tasks(tmp_path):
    manifest, preds = stroke_like_inputs(tmp_path)
    assert _modules_loaded_by(["--out", tmp_path / "o1", "audit", "--manifest", manifest,
                               "--predictions", preds]) == _AUDIT
    audit = ["--out", tmp_path / "o2", "audit"]
    for m, p in zip(*mixed_inputs(tmp_path)):
        audit += ["--manifest", m, "--predictions", p]
    assert _modules_loaded_by(audit) == _AUDIT | {"tabaudit.quartile"}


def test_serialize_and_gen_quartile_load_no_corpus_or_statistics_modules(tmp_path):
    assert _modules_loaded_by(["--out", tmp_path / "o", "serialize", "--manifest",
                               DATA / "creatures.manifest.json", "--style", "tabula"]) == (
        _DATA | {"tabaudit.prompts"})
    manifest = _quartile_manifest(tmp_path, [1, 3, 5])
    assert _modules_loaded_by(["--out", tmp_path / "q", "gen-quartile",
                               "--manifest", manifest]) == (
        _DATA | {"tabaudit.quartile", "tabaudit.report"})


def test_parser_defaults_are_the_library_defaults():
    from tabaudit.cli import build_parser
    from tabaudit.contam.index import DEFAULT_MAX_BUFFERED
    from tabaudit.contam.search import ScanConfig
    from tabaudit.prompts import PromptTemplate
    from tabaudit.quartile import shortcut_audit
    from tabaudit.stratify import flag_imbalance_riders

    def parsed(*argv):
        return vars(build_parser().parse_args(list(argv)))

    scan = parsed("scan", "--index", "i", "--manifest", "m")
    config = ScanConfig()
    assert (scan["min_overlap"], scan["min_distinctive"], scan["selectivity_fraction"],
            scan["complete_threshold"], scan["table_diversity"]) == (
        config.min_overlap, config.min_distinctive, config.selectivity_fraction,
        config.complete_threshold, config.diversity_threshold)
    assert scan["max_buffered"] == DEFAULT_MAX_BUFFERED
    assert parsed("index", "--corpus", "c", "--index-path", "i")["max_buffered"] == (
        DEFAULT_MAX_BUFFERED)
    serialize = parsed("serialize", "--manifest", "m", "--style", "tabula")
    assert serialize["shots"] == PromptTemplate(style="tabula").shots
    gen = parsed("gen-quartile", "--manifest", "m")
    assert gen["shortcut_threshold"] == signature(shortcut_audit).parameters["threshold"].default
    audit = parsed("audit", "--manifest", "m", "--predictions", "p")
    riders = signature(flag_imbalance_riders).parameters
    assert (audit["min_majority"], audit["max_lift"]) == (
        riders["min_majority"].default, riders["max_lift"].default)


def test_serialize_deterministic(tmp_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run(["--out", out, "serialize", "--manifest",
                    DATA / "creatures.manifest.json", "--style", "tabula",
                    "--shots", "2", "--seed", "7"]) == 0
        outs.append((out / "prompts_creatures.tabula.jsonl").read_bytes())
    assert outs[0] == outs[1]


# -- testbed CLI -------------------------------------------------------------------------


def test_testbed_gen_and_eval_roundtrip(tmp_path, workout_fixture):
    dataset, task = workout_fixture
    write_table(tmp_path / "w.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "w.json", task, "w.csv")
    corpus = tmp_path / "corpus"
    assert run(["--out", corpus, "testbed", "gen", "--tables", "2", "--rows", "20",
                "--seed", "5", "--plant-complete", tmp_path / "w.json"]) == 0
    assert (corpus / "ledger.json").exists()
    scan_out = tmp_path / "scan"
    assert run(["--out", scan_out, "scan", "--corpus", corpus,
                "--manifest", tmp_path / "w.json"]) == 0
    assert run(["testbed", "eval", "--ledger", corpus / "ledger.json",
                "--evidence", f"{dataset.id}={scan_out / f'evidence_{dataset.id}.jsonl'}"]) == 0


# -- report render --------------------------------------------------------------------------


def test_report_render_roundtrip(tmp_path):
    manifest, preds = stroke_like_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(["--out", out, "audit", "--manifest", manifest, "--predictions", preds]) == 0
    render_out = tmp_path / "render"
    assert run(["--out", render_out, "report", "render",
                "--report", out / "report.json"]) == 0
    assert (render_out / "report.md").read_text() == (out / "report.md").read_text()


# -- index / scan resources and hostile cells ---------------------------------------------


def test_failed_scan_closes_its_index(tmp_path, workout_fixture, monkeypatch, caplog):
    from tabaudit.contam import CorpusIndex

    dataset, task = workout_fixture
    _index_and_delete_planted_table(tmp_path, dataset, task)
    closed = []
    real_close = CorpusIndex.close

    def recording_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(CorpusIndex, "close", recording_close)
    caplog.set_level("INFO", logger="tabaudit.contam")  # what -v sets outside pytest
    assert run(["--out", tmp_path / "o", "-v", "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "w.json"]) == 2
    assert len(closed) == 1
    assert closed[0]._mm.closed


def test_index_cell_beyond_int_digit_limit(tmp_path):
    from tabaudit.contam import CorpusIndex

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # int() refuses 4300+ digits, counting an exponent's leading zeros
    (corpus / "t.csv").write_text("n,m\n" + "7" * 5000 + ",x\n1e" + "0" * 5000 + "1,y\n",
                                  encoding="utf-8")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    index = CorpusIndex.load(tmp_path / "c.idx")
    assert index.lookup(index.normalize("7" * 5000)) == [(0, 0)]
    assert index.lookup("7" * 5000) == [(0, 0)]
    assert index.lookup("10") == [(0, 1)]
    index.close()


# -- testbed eval on malformed inputs --------------------------------------------------------


_GOOD_EVIDENCE = json.dumps({"strategy": "row_match", "matched": [["t.csv", 0]], "overlap": 1.0})


def _ledger_file(tmp_path):
    from tabaudit.testbed import Plant, PlantLedger

    ledger = PlantLedger(seed=1, corpus_id="c",
                         plants=[Plant("complete", "d", (("t.csv", 0),), {})])
    ledger.save(tmp_path / "ledger.json")
    return tmp_path / "ledger.json"


@pytest.mark.parametrize("line,message", [
    ("{not json", "ev.jsonl:2: malformed JSON"),
    ("[1, 2]", "ev.jsonl:2: evidence record must be a JSON object"),
    ('{"matched": [], "overlap": 1.0}', "ev.jsonl:2: missing field 'strategy'"),
    ('{"strategy": "row_match", "overlap": 1.0}', "ev.jsonl:2: missing field 'matched'"),
    ('{"strategy": "row_match", "matched": []}', "ev.jsonl:2: missing field 'overlap'"),
    ('{"strategy": "row_match", "matched": [1], "overlap": 1.0}',
     "ev.jsonl:2: matched must be [table, row] pairs"),
    ('{"strategy": "row_match", "matched": [["t", [1]]], "overlap": 1.0}',
     "ev.jsonl:2: matched must be [table, row] pairs"),
    ('{"strategy": "row_match", "matched": [[["t"], 1]], "overlap": 1.0}',
     "ev.jsonl:2: matched must be [table, row] pairs"),
    pytest.param(_DEEP, "ev.jsonl:2: malformed JSON", id="deep"),
])
def test_testbed_eval_malformed_evidence_is_input_error(tmp_path, capsys, line, message):
    (tmp_path / "ev.jsonl").write_text(_GOOD_EVIDENCE + "\n" + line + "\n", encoding="utf-8")
    assert run(["testbed", "eval", "--ledger", _ledger_file(tmp_path),
                "--evidence", f"d={tmp_path / 'ev.jsonl'}"]) == 2
    assert message in capsys.readouterr().err


def test_testbed_eval_missing_evidence_file_is_input_error(tmp_path, capsys):
    assert run(["testbed", "eval", "--ledger", _ledger_file(tmp_path),
                "--evidence", f"d={tmp_path / 'absent.jsonl'}"]) == 2
    assert "cannot read evidence" in capsys.readouterr().err


@pytest.mark.parametrize("mutate,message", [
    (lambda doc: doc.pop("seed"), "malformed ledger: KeyError('seed')"),
    (lambda doc: doc["plants"][0].update(kind="bogus"), "unknown plant kind 'bogus'"),
    (lambda doc: doc["plants"][0].update(locations=[[["x"], 0]]),
     """malformed ledger: ValueError("location [['x'], 0] is not a [string, integer] pair")"""),
    (lambda doc: doc["plants"][0].update(dataset_id=["x"]),
     """malformed ledger: ValueError("dataset_id ['x'] is not a string")"""),
])
def test_testbed_eval_malformed_ledger_is_input_error(tmp_path, capsys, mutate, message):
    path = _ledger_file(tmp_path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "ev.jsonl").write_text(_GOOD_EVIDENCE + "\n", encoding="utf-8")
    assert run(["testbed", "eval", "--ledger", path,
                "--evidence", f"d={tmp_path / 'ev.jsonl'}"]) == 2
    assert message in capsys.readouterr().err


def test_testbed_eval_non_json_ledger_is_input_error(tmp_path, capsys):
    (tmp_path / "ledger.json").write_text("{", encoding="utf-8")
    (tmp_path / "ev.jsonl").write_text(_GOOD_EVIDENCE + "\n", encoding="utf-8")
    assert run(["testbed", "eval", "--ledger", tmp_path / "ledger.json",
                "--evidence", f"d={tmp_path / 'ev.jsonl'}"]) == 2
    assert "malformed ledger" in capsys.readouterr().err


# -- refusals of hand-made inputs ------------------------------------------------------------


def _refusal_inputs(tmp):
    """A binary dataset d (m.json over t.csv), predictions of model m for it
    (p.jsonl) and one file per hostile input."""
    from tabaudit.testbed import Plant, PlantLedger

    (tmp / "t.csv").write_text("f,target\n1,r\n2,g\n3,r\n4,g\n", encoding="utf-8")
    (tmp / "corpus").mkdir()
    (tmp / "corpus" / "c.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    good = {"id": "d", "task_type": "binary", "target_column": "target",
            "class_labels": ["r", "g"], "table_path": "t.csv"}
    no_target = {key: value for key, value in good.items() if key != "target_column"}
    for name, doc in [("m", good), ("e", dict(good, id="e")),
                      ("ordinal", dict(good, task_type="ordinal")), ("list", [good]),
                      ("no-target", no_target), ("txt", dict(good, table_path="t.txt")),
                      ("cat", dict(good, task_type="categorical", class_labels=["r", "g", "b"])),
                      ("config", [good])]:
        (tmp / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp / "no-completion.jsonl").write_text('{"row_id": 0}\n', encoding="utf-8")
    (tmp / "completions.jsonl").write_text('{"row_id": 0, "completion": "r"}\n',
                                           encoding="utf-8")
    (tmp / "blank.jsonl").write_text("\n \t\n\n", encoding="utf-8")
    write_predictions_jsonl(tmp / "p.jsonl", "d", "m", "rgrg", "rrrr")
    (tmp / "partition.json").write_text('{"other": "x"}', encoding="utf-8")
    (tmp / "x.tbin").mkdir()
    (tmp / "dir.json").write_text(json.dumps(dict(good, table_path="x.tbin")), encoding="utf-8")
    (tmp / "ev.jsonl").write_text(_GOOD_EVIDENCE + "\n", encoding="utf-8")
    _ledger_file(tmp)
    PlantLedger(seed=1, corpus_id="c", plants=[Plant("complete", "d", (), {})]).save(
        tmp / "no-locations.json")


@pytest.mark.parametrize("argv,message", [
    pytest.param(["scan", "--corpus", "{tmp}/corpus", "--manifest", "{tmp}/m.json",
                  "--id-column", "nope"], "dataset 'd': no column 'nope'", id="id-column"),
    pytest.param(["gen-quartile", "--manifest", "{tmp}/ordinal.json"],
                 "manifest {tmp}/ordinal.json: unknown task_type 'ordinal'", id="task-type"),
    pytest.param(["gen-quartile", "--manifest", "{tmp}/list.json"],
                 "malformed manifest {tmp}/list.json: expected a JSON object",
                 id="manifest-list"),
    pytest.param(["gen-quartile", "--manifest", "{tmp}/no-target.json"],
                 "manifest {tmp}/no-target.json: missing field 'target_column'",
                 id="no-target-column"),
    pytest.param(["gen-quartile", "--manifest", "{tmp}/txt.json"],
                 "unsupported table format: 't.txt' (expected .csv or .tbin)", id="txt-table"),
    pytest.param(["gen-quartile", "--manifest", "{tmp}/cat.json"],
                 "{tmp}/cat.json: gen-quartile needs a quartile (numeric-target) manifest",
                 id="gen-quartile-categorical"),
    pytest.param(["serialize", "--manifest", "{tmp}/m.json", "--style", "tabula",
                  "--shots", "-1"], "shots must be >= 0", id="negative-shots"),
    pytest.param(["serialize", "--manifest", "{tmp}/m.json", "--manifest", "{tmp}/e.json",
                  "--style", "tabula", "--extract-completions", "{tmp}/completions.jsonl"],
                 "--extract-completions works on exactly one --manifest",
                 id="extract-two-manifests"),
    pytest.param(["serialize", "--manifest", "{tmp}/m.json", "--style", "tabula",
                  "--extract-completions", "{tmp}/no-completion.jsonl"],
                 "{tmp}/no-completion.jsonl:1: need row_id and completion fields",
                 id="no-completion"),
    pytest.param(["testbed", "gen", "--tables", "1", "--rows", "2",
                  "--plant-association", "k"],
                 "--plant-association wants KEY=TARGET, got 'k'", id="plant-association"),
    pytest.param(["testbed", "eval", "--ledger", "{tmp}/ledger.json", "--evidence", "f"],
                 "--evidence wants DATASET=FILE, got 'f'", id="evidence-spec"),
    pytest.param(["--config", "{tmp}/config.json", "gen-quartile", "--manifest",
                  "{tmp}/m.json"], "config file {tmp}/config.json must hold a flat JSON object",
                 id="config-list"),
    pytest.param(["audit", "--manifest", "{tmp}/m.json", "--predictions", "{tmp}/blank.jsonl"],
                 "{tmp}/blank.jsonl: no prediction records", id="blank-predictions"),
    pytest.param(["scan", "--index", "{tmp}/absent.idx", "--manifest", "{tmp}/m.json"],
                 "cannot open index file {tmp}/absent.idx: ", id="missing-index"),
    pytest.param(["index", "--corpus", "{tmp}/t.csv", "--index-path", "{tmp}/c.idx"],
                 "corpus root {tmp}/t.csv is not a directory", id="corpus-is-a-file"),
    pytest.param(["audit", "--manifest", "{tmp}/m.json", "--predictions", "{tmp}/p.jsonl",
                  "--reference-model", "nope"], "reference model 'nope' has no metrics",
                 id="unknown-reference-model"),
    pytest.param(["audit", "--manifest", "{tmp}/m.json", "--predictions", "{tmp}/p.jsonl",
                  "--partition", "{tmp}/partition.json", "--gap-models", "m", "m"],
                 "partition_gap: dataset 'd' missing from partition", id="partition-lacks-d"),
    pytest.param(["testbed", "gen", "--tables", "1", "--rows", "2",
                  "--plant-duplicates", "{tmp}/m.json", "--copies", "0"],
                 "plant_direct_duplicates: copies must be >= 1", id="zero-copies"),
    pytest.param(["testbed", "eval", "--ledger", "{tmp}/no-locations.json",
                  "--evidence", "d={tmp}/ev.jsonl"],
                 "scanner_prf: ledger has no locations for kind 'complete'",
                 id="plant-without-locations"),
    pytest.param(["serialize", "--manifest", "{tmp}/dir.json", "--style", "tabula"],
                 "cannot read table file {tmp}/x.tbin: ", id="table-is-a-directory"),
])
def test_a_refused_input_exits_2_with_its_message_and_no_traceback(tmp_path, capsys, argv,
                                                                   message):
    _refusal_inputs(tmp_path)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run(["--out", tmp_path / "o", *argv]) == 2
    err = capsys.readouterr().err
    assert f"input error: {message.format(tmp=tmp_path)}" in err
    assert "Traceback" not in err
