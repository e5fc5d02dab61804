import json
import os
import random
import subprocess
import sys
from inspect import signature
from pathlib import Path

import pytest

from tabaudit.cli import main
from tabaudit.data import write_dataset, write_manifest
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
    """Six datasets, two per task type, with varied accuracy."""
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
            truth = [rng.choice(blabels) for _ in range(n)]
            write_table_csv(d / "table.csv", n, [str(rng.uniform(0, 4)) for _ in range(n)])
            write_manifest_json(d / "manifest.json", dataset_id, "quartile",
                                boundaries=boundaries)
            label_pool = blabels
        else:
            truth = [rng.choice(labels) for _ in range(n)]
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


def test_audit_multiple_models_requires_choice(tmp_path, capsys):
    m1_manifests, m1_preds = mixed_inputs(tmp_path, model="m1")
    _, m2_preds = mixed_inputs(tmp_path, model="m2", flip=1)
    argv = ["--out", tmp_path / "o", "audit", "--manifest", m1_manifests[0],
            "--predictions", m1_preds[0], "--predictions", m2_preds[0]]
    assert run(argv) == 2


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
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(tmp_path / "w.json", dataset.id, task, "w.csv")
    code = run(["--out", tmp_path / "o", "scan", "--corpus", corpus,
                "--manifest", tmp_path / "w.json"])
    assert code == 4
    code = run(["--out", tmp_path / "o2", "scan", "--corpus", corpus,
                "--manifest", tmp_path / "w.json", "--coverage-floor", "0.5"])
    assert code == 0


@pytest.mark.parametrize("reader", ["manifest", "config", "partition", "report"])
def test_json_file_with_huge_integer_is_input_error(tmp_path, capsys, reader):
    manifest, preds = stroke_like_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    # json refuses integer literals of 4300+ digits with a plain ValueError.
    bad.write_text('{"dataset_id": %s}' % ("1" * 5000), encoding="utf-8")
    audit = ["audit", "--manifest", manifest, "--predictions", preds]
    argv = {
        "manifest": ["audit", "--manifest", bad, "--predictions", preds],
        "config": ["--config", bad, *audit],
        "partition": [*audit, "--partition", bad, "--gap-models", "m1", "m2"],
        "report": ["report", "render", "--report", bad],
    }[reader]
    assert run(["--out", tmp_path / "o", *argv]) == 2
    assert f"malformed {reader}" in capsys.readouterr().err


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


def test_config_error_precedes_unknown_flag(tmp_path, capsys):
    assert run(["--config", tmp_path / "missing.json", "audit", "--manifest", "x",
                "--predictions", "y", "--nonsense"]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert run(["audit", "--manifest", "x", "--predictions", "y", "--nonsense"]) == 1
    assert "unrecognized arguments: --nonsense" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"does_not_exist": 1}))
    assert run(["--config", config, "audit", "--manifest", "x", "--predictions", "y"]) == 2


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
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(tmp_path / "w.json", dataset.id, task, "w.csv")
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
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(tmp_path / "w.json", dataset.id, task, "w.csv")
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


def test_scan_index_with_deleted_table_is_input_error(tmp_path, workout_fixture, capsys):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    dataset, task = workout_fixture
    ledger = plant_complete_overlap(corpus, dataset, seed=3)
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(tmp_path / "w.json", dataset.id, task, "w.csv")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    (corpus / ledger.plants[0].locations[0][0]).unlink()
    capsys.readouterr()
    assert run(["--out", tmp_path / "o", "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "w.json"]) == 2
    assert "cannot read table file" in capsys.readouterr().err


def test_scan_refuses_version_1_index(tmp_path, workout_fixture, capsys):
    # Version 1 stored numbers in the 60-digit form, so its lookups would miss.
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    dataset, task = workout_fixture
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(tmp_path / "w.json", dataset.id, task, "w.csv")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    data = bytearray((tmp_path / "c.idx").read_bytes())
    assert data[8:10] == (2).to_bytes(2, "little")
    data[8:10] = (1).to_bytes(2, "little")
    (tmp_path / "c.idx").write_bytes(bytes(data))
    capsys.readouterr()
    assert run(["--out", tmp_path / "o", "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "w.json"]) == 2
    assert "unsupported version 1" in capsys.readouterr().err


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
    from tabaudit.data import load_dataset, load_predictions

    dataset, task = load_dataset(DATA / "creatures.manifest.json")
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
    preds = load_predictions(out / "predictions_creatures.m7.jsonl", task, dataset.row_count)
    assert preds.model_id == "m7"
    assert all(rec.predicted == rec.true_label for rec in preds.records)
    # Without case folding the upper-cased completions fail to match.
    out2 = tmp_path / "o2"
    assert run(["--out", out2, "serialize", "--manifest", DATA / "creatures.manifest.json",
                "--style", "tabula", "--extract-completions", completions]) == 0
    preds2 = load_predictions(out2 / "predictions_creatures.model.jsonl", task, dataset.row_count)
    assert any(rec.predicted is None for rec in preds2.records)


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
                     "tabaudit.data", "tabaudit.tableio"}
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
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(manifest, dataset.id, task, "w.csv")
    assert _modules_loaded_by(["index", "--corpus", corpus, "--index-path", index]) == _INDEX
    assert _modules_loaded_by(["--out", tmp_path / "o", "scan", "--index", index,
                               "--manifest", manifest]) == (
        _INDEX | {"tabaudit.contam.search", "tabaudit.report"})


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
        _DATA | {"tabaudit.prompts", "tabaudit.quartile"})
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
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(tmp_path / "w.json", dataset.id, task, "w.csv")
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


def test_failed_scan_closes_its_index(tmp_path, workout_fixture, monkeypatch):
    from tabaudit.contam import CorpusIndex

    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=20), seed=3, out_dir=corpus)
    dataset, task = workout_fixture
    ledger = plant_complete_overlap(corpus, dataset, seed=3)
    write_dataset(dataset, tmp_path / "w.csv")
    write_manifest(tmp_path / "w.json", dataset.id, task, "w.csv")
    assert run(["index", "--corpus", corpus, "--index-path", tmp_path / "c.idx"]) == 0
    (corpus / ledger.plants[0].locations[0][0]).unlink()
    closed = []
    real_close = CorpusIndex.close

    def recording_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(CorpusIndex, "close", recording_close)
    assert run(["--out", tmp_path / "o", "scan", "--index", tmp_path / "c.idx",
                "--manifest", tmp_path / "w.json"]) == 2
    assert len(closed) == 1
    assert closed[0]._reader.mm.closed


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
