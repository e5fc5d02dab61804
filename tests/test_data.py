import json
import random

import pytest

from tabaudit.data import (
    Dataset,
    TaskSpec,
    TaskType,
    class_distribution,
    load_dataset,
    load_predictions,
    write_dataset,
    write_manifest,
    write_predictions,
    PredictionRecord,
    PredictionSet,
)
from tabaudit.errors import InputError
from tabaudit.tableio import read_table, write_table


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def make_manifest(tmp_path, *, task_type="binary", labels=("yes", "no"),
                  boundaries=None, target="b", table="t.csv", dataset_id="d1"):
    doc = {
        "id": dataset_id,
        "task_type": task_type,
        "target_column": target,
        "table_path": table,
    }
    if boundaries is not None:
        doc["quartile_boundaries"] = boundaries
    elif labels is not None:
        doc["class_labels"] = list(labels)
    path = tmp_path / "manifest.json"
    _write(path, json.dumps(doc))
    return path


def test_load_minimal_binary(tmp_path):
    _write(tmp_path / "t.csv", "a,b\n1,yes\n2,no\n3,yes\n")
    dataset, task = load_dataset(make_manifest(tmp_path))
    assert dataset.row_count == 3
    assert dataset.columns == ("a", "b")
    assert task.task_type is TaskType.BINARY
    assert task.labels() == ("yes", "no")


def test_quartile_boundary_count_error(tmp_path):
    _write(tmp_path / "t.csv", "a,b\n1,2\n")
    manifest = make_manifest(tmp_path, task_type="quartile", labels=None,
                             boundaries=[1.0, 2.0])
    with pytest.raises(InputError, match="boundary count"):
        load_dataset(manifest)


def test_labor_fixture_roundtrip_753(tmp_path, labor_fixture):
    dataset, task = labor_fixture
    write_dataset(dataset, tmp_path / "labor.csv")
    write_manifest(tmp_path / "labor.json", dataset.id, task, "labor.csv")
    loaded, loaded_task = load_dataset(tmp_path / "labor.json")
    assert loaded.row_count == 753
    assert loaded_task.target_column == "lfp"
    assert loaded_task.labels() == ("1", "0")
    assert loaded == dataset


def test_missing_target_column(tmp_path):
    _write(tmp_path / "t.csv", "a,c\n1,2\n")
    with pytest.raises(InputError, match="target column"):
        load_dataset(make_manifest(tmp_path))


def test_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_dataset(tmp_path / "nope.json")


def test_malformed_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    _write(path, "{not json")
    with pytest.raises(InputError, match="malformed"):
        load_dataset(path)


def test_binary_needs_two_labels(tmp_path):
    _write(tmp_path / "t.csv", "a,b\n1,x\n")
    manifest = make_manifest(tmp_path, labels=("x", "y", "z"))
    with pytest.raises(InputError, match="exactly 2"):
        load_dataset(manifest)


def test_empty_csv_cell_is_missing(tmp_path):
    _write(tmp_path / "t.csv", "a,b\n,yes\n")
    dataset, _ = load_dataset(make_manifest(tmp_path))
    assert dataset.rows[0][0] is None


def test_ragged_row_rejected(tmp_path):
    _write(tmp_path / "t.csv", "a,b\n1\n")
    with pytest.raises(InputError, match="cells"):
        load_dataset(make_manifest(tmp_path))


def test_unreadable_csv_past_first_read_buffer_is_input_error(tmp_path):
    good = "".join(f"{i},yes\n" for i in range(2000)).encode()
    (tmp_path / "bytes.csv").write_bytes(b"a,b\n" + good + b"\xff,no\n")
    with pytest.raises(InputError, match="not valid UTF-8 CSV: 'utf-8' codec"):
        read_table(tmp_path / "bytes.csv")
    # A field past the csv module's size limit is malformed, not a crash.
    (tmp_path / "huge.csv").write_text("a,b\n1,yes\n" + "x" * 200_000 + ",no\n")
    with pytest.raises(InputError, match="not valid UTF-8 CSV: field larger"):
        read_table(tmp_path / "huge.csv")


def test_csv_roundtrip_normalizes_line_endings(tmp_path):
    (tmp_path / "t.csv").write_bytes(b"a,b\r\n1,yes\r\n2,no\r\n")
    columns, rows = read_table(tmp_path / "t.csv")
    write_table(tmp_path / "u.csv", columns, rows)
    columns2, rows2 = read_table(tmp_path / "u.csv")
    assert columns2 == columns
    assert rows2 == rows


def test_tbin_roundtrip_preserves_missing_vs_empty(tmp_path):
    columns = ["a", "b"]
    rows = [["", None], ["x", "1.50"]]
    write_table(tmp_path / "t.tbin", columns, rows)
    columns2, rows2 = read_table(tmp_path / "t.tbin")
    assert columns2 == columns
    assert rows2 == rows


def test_duplicate_columns_rejected():
    with pytest.raises(InputError, match="duplicate column"):
        Dataset(id="d", columns=("a", "a"), rows=())


# -- predictions --------------------------------------------------------------


def _task():
    return TaskSpec("d1", TaskType.BINARY, "b", ("yes", "no"))


def _pred_line(row_id, true, pred, dataset="d1", model="m1"):
    return json.dumps({
        "dataset_id": dataset, "row_id": row_id, "true_label": true,
        "predicted_label": pred, "model_id": model,
    })


def test_load_predictions_ok(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, "\n".join([
        _pred_line(0, "yes", "yes"),
        _pred_line(1, "no", "yes"),
        _pred_line(2, "yes", "no"),
    ]) + "\n")
    preds = load_predictions(path, _task())
    assert len(preds.records) == 3
    assert preds.model_id == "m1"


def test_invalid_prediction_kept_as_marker(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "yes", "Banana") + "\n")
    preds = load_predictions(path, _task())
    assert preds.records[0].predicted is None
    assert preds.records[0].true_label == "yes"


def test_duplicate_row_id_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(7, "yes", "yes") + "\n" + _pred_line(7, "no", "no") + "\n")
    with pytest.raises(InputError, match="duplicate row_id"):
        load_predictions(path, _task())


def test_true_label_outside_set_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "maybe", "yes") + "\n")
    with pytest.raises(InputError, match="true_label"):
        load_predictions(path, _task())


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, json.dumps({"dataset_id": "d1", "row_id": 0}) + "\n")
    with pytest.raises(InputError, match="missing field"):
        load_predictions(path, _task())


def test_predictions_roundtrip(tmp_path):
    preds = PredictionSet("d1", "m1", (
        PredictionRecord(0, "yes", "yes"),
        PredictionRecord(1, "no", None),
    ))
    write_predictions(tmp_path / "p.jsonl", preds)
    loaded = load_predictions(tmp_path / "p.jsonl", _task())
    assert loaded == preds


# -- class distribution --------------------------------------------------------


def test_class_distribution_basic():
    assert class_distribution(["A", "A", "B"]) == {"A": 2, "B": 1}
    assert class_distribution(["A"]) == {"A": 1}


def test_class_distribution_empty():
    with pytest.raises(InputError, match="empty"):
        class_distribution([])


def test_class_distribution_753_generated():
    rng = random.Random(428)
    labels = ["yes"] * 428 + ["no"] * 325
    rng.shuffle(labels)
    counts = class_distribution(labels)
    # Independent linear-scan oracle.
    assert counts == {"yes": sum(1 for x in labels if x == "yes"),
                      "no": sum(1 for x in labels if x == "no")}
    assert counts == {"yes": 428, "no": 325}
    assert sum(counts.values()) == len(labels)


def test_class_distribution_permutation_invariant():
    rng = random.Random(3)
    labels = [rng.choice("ABC") for _ in range(200)]
    shuffled = labels[:]
    rng.shuffle(shuffled)
    assert class_distribution(labels) == class_distribution(shuffled)
