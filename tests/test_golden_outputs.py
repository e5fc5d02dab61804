"""Pinned CLI outputs over ``tests/data``.

Runs ``audit`` (two models, ``--reference-model``, ``--partition``),
``testbed gen``, ``index``, ``scan``, ``gen-quartile`` and ``serialize``
(prompts in both styles, and ``--extract-completions``) and compares
every output file with its copy under ``tests/golden/cli``: byte for byte,
apart from the ``generated_at`` stamp, the markdown ``Generated:`` line,
and p-values, which go through libm and are compared to 1e-12 relative.

To re-pin after an intended output change, run this file with
``TABAUDIT_REGEN_GOLDEN=1`` and review the diff of ``tests/golden/cli``.
"""

import json
import math
import os
import re
from pathlib import Path

from tabaudit.cli import main
from tabaudit.data import gold_labels, load_dataset

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "cli"
REGEN = bool(os.environ.get("TABAUDIT_REGEN_GOLDEN"))

_GENERATED_AT = re.compile(r'^  "generated_at": "[^"]*",\n', re.M)
_P_VALUE = re.compile(r'("p_value": )([-+0-9.eE]+|NaN|-?Infinity)')


def run(argv):
    assert main([str(a) for a in argv]) == 0


def normalized(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.name == "report.json":
        return _GENERATED_AT.sub("", text)
    if path.name == "report.md":
        return "".join(
            line for line in text.splitlines(keepends=True) if not line.startswith("Generated:")
        )
    return text


def split_p_values(text: str) -> tuple[str, list[float]]:
    values = [float(m.group(2)) for m in _P_VALUE.finditer(text)]
    return _P_VALUE.sub(r"\1<p>", text), values


def check_pinned(out: Path, name: str, pattern: str) -> None:
    golden = GOLDEN / name
    produced = sorted(p.name for p in out.glob(pattern))
    assert produced, f"{name}: no {pattern} written"
    if REGEN:
        golden.mkdir(parents=True, exist_ok=True)
        for old in golden.glob(pattern):
            old.unlink()
        for file in produced:
            (golden / file).write_text(normalized(out / file), encoding="utf-8")
        return
    assert produced == sorted(p.name for p in golden.glob(pattern)), name
    for file in produced:
        got, got_p = split_p_values(normalized(out / file))
        want, want_p = split_p_values((golden / file).read_text(encoding="utf-8"))
        assert got == want, f"{name}/{file} differs from its golden copy"
        assert len(got_p) == len(want_p)
        for a, b in zip(got_p, want_p):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (name, file, a, b)


def _audit_inputs(tmp_path: Path) -> tuple[list[Path], list[Path], Path]:
    """Two manifests per tests/data table, two models' predictions each."""
    manifests, predictions = [], []
    partition = {}
    k = 0
    for source in sorted(DATA.glob("*.manifest.json")):
        doc = json.loads(source.read_text(encoding="utf-8"))
        for copy in ("", "-2"):
            manifest = tmp_path / f"{doc['id']}{copy}.manifest.json"
            manifest.write_text(json.dumps(dict(
                doc, id=doc["id"] + copy, table_path=str(DATA / doc["table_path"])
            )), encoding="utf-8")
            dataset, task = load_dataset(manifest)
            labels = list(task.labels())
            for model, wrong_every in (("m-a", 1 + k % 3), ("m-b", 3 + k % 2)):
                path = tmp_path / f"preds_{dataset.id}.{model}.jsonl"
                with open(path, "w", encoding="utf-8") as handle:
                    for row_id, gold in enumerate(gold_labels(dataset, task)):
                        wrong = (row_id + k) % wrong_every == 0
                        predicted = labels[(labels.index(gold) + 1) % len(labels)] if wrong else gold
                        handle.write(json.dumps({
                            "dataset_id": dataset.id, "row_id": row_id, "true_label": gold,
                            "predicted_label": predicted, "model_id": model,
                        }) + "\n")
                predictions.append(path)
            manifests.append(manifest)
            partition[dataset.id] = "seen" if copy else "unseen"
            k += 1
    partition_path = tmp_path / "partition.json"
    partition_path.write_text(json.dumps(partition), encoding="utf-8")
    return manifests, predictions, partition_path


def test_audit_outputs_match_golden(tmp_path):
    manifests, predictions, partition = _audit_inputs(tmp_path)
    out = tmp_path / "audit"
    argv = ["--out", out, "audit", "--model", "m-a", "--reference-model", "m-b",
            "--partition", partition, "--min-majority", "0.6", "--max-lift", "0.05"]
    for m in manifests:
        argv += ["--manifest", m]
    for p in predictions:
        argv += ["--predictions", p]
    run(argv)
    for pattern in ("report.json", "report.md", "plot_data.csv"):
        check_pinned(out, "audit", pattern)


def test_testbed_index_scan_outputs_match_golden(tmp_path):
    corpus = tmp_path / "corpus"
    run(["--out", corpus, "testbed", "gen", "--tables", "3", "--rows", "12", "--cols", "3",
         "--seed", "7", "--plant-complete", DATA / "creatures.manifest.json",
         "--plant-duplicates", DATA / "prices.manifest.json", "--dup-rows", "2",
         "--copies", "2", "--plant-association", "red=yes", "--assoc-tables", "3",
         "--assoc-rows", "2"])
    check_pinned(corpus, "testbed", "ledger.json")

    index = tmp_path / "corpus.idx"
    run(["index", "--corpus", corpus, "--index-path", index])
    scans = {
        "scan": [],
        "scan_probes": ["--id-column", "hue", "--assoc-key-column", "hue"],
    }
    for name, extra in scans.items():
        out = tmp_path / name
        argv = ["--out", out, "scan", "--index", index, *extra]
        manifests = ["tinybin"] if extra else ["creatures", "prices", "tinybin"]
        for dataset_id in manifests:
            argv += ["--manifest", DATA / f"{dataset_id}.manifest.json"]
        run(argv)
        for pattern in ("report.json", "report.md", "verdict_*.json", "evidence_*.jsonl"):
            check_pinned(out, name, pattern)


def test_report_render_of_a_pinned_scan_report(tmp_path):
    # A scan report.json written before the verdict table lost its dead
    # accuracy column, and one whose verdicts carry the field that column
    # read, render as the scan's own report.md does now.
    for name in ("scan", "scan_probes"):
        report = json.loads((GOLDEN / name / "report.json").read_text(encoding="utf-8"))
        older = tmp_path / f"{name}-older.json"
        for verdict in report["contamination"]["verdicts"]:
            verdict["accuracy_display"] = "0.900"
        older.write_text(json.dumps(report), encoding="utf-8")
        for path in (GOLDEN / name / "report.json", older):
            out = tmp_path / f"{name}-{path.stem}"
            run(["--out", out, "report", "render", "--report", path])
            check_pinned(out, name, "report.md")


def test_gen_quartile_outputs_match_golden(tmp_path):
    # The written manifest names its table relative to itself, so the inputs
    # sit at a fixed place beside the output directory.
    tables = tmp_path / "tables"
    tables.mkdir()
    for name in ("prices.manifest.json", "prices.csv"):
        (tables / name).write_bytes((DATA / name).read_bytes())
    out = tmp_path / "quartile"
    run(["--out", out, "gen-quartile", "--manifest", tables / "prices.manifest.json"])
    for pattern in ("report.json", "report.md", "*.quartile.json"):
        check_pinned(out, "gen_quartile", pattern)
    assert load_dataset(out / "prices.quartile.json")[0] == load_dataset(
        DATA / "prices.manifest.json")[0]


def test_serialize_outputs_match_golden(tmp_path):
    out = tmp_path / "serialize"
    for style in ("tabula", "alpaca"):
        argv = ["--out", out, "serialize", "--style", style, "--shots", "2", "--seed", "3"]
        for dataset_id in ("creatures", "prices", "tinybin"):
            argv += ["--manifest", DATA / f"{dataset_id}.manifest.json"]
        run(argv)
    check_pinned(out, "serialize", "prompts_*.jsonl")

    # One completion per row of creatures: exact, padded, a longer text that
    # holds a label, a lowercase one that only --case-insensitive reads, and
    # one that names no label.
    completions = tmp_path / "completions.jsonl"
    texts = ["Water", "  Dragon\n", "It is a Steel type, surely.", "normal", "no idea: été",
             "Flying"]
    completions.write_text("".join(
        json.dumps({"row_id": row_id, "completion": text}) + "\n"
        for row_id, text in enumerate(texts)
    ), encoding="utf-8")
    out = tmp_path / "extract"
    for model_id, extra in (("exact", []), ("folded", ["--case-insensitive"])):
        run(["--out", out, "serialize", "--style", "tabula",
             "--manifest", DATA / "creatures.manifest.json",
             "--extract-completions", completions, "--model-id", model_id, *extra])
    check_pinned(out, "extract", "predictions_*.jsonl")
