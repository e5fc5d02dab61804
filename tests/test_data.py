import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabaudit.data import (
    INVALID,
    Dataset,
    TaskSpec,
    TaskType,
    class_distribution,
    json_records,
    json_row_id,
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


_ROWS = 10  # rows of the dataset behind _task(), for the row_id range check


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
    preds = load_predictions(path, _task(), _ROWS)
    assert len(preds.records) == 3
    assert preds.model_id == "m1"


def test_invalid_prediction_kept_as_marker(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "yes", "Banana") + "\n")
    preds = load_predictions(path, _task(), _ROWS)
    assert preds.records[0].predicted is None
    assert preds.records[0].true_label == "yes"


def test_duplicate_row_id_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(7, "yes", "yes") + "\n" + _pred_line(7, "no", "no") + "\n")
    with pytest.raises(InputError, match="duplicate row_id"):
        load_predictions(path, _task(), _ROWS)


def test_true_label_outside_set_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "maybe", "yes") + "\n")
    with pytest.raises(InputError, match="true_label"):
        load_predictions(path, _task(), _ROWS)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, json.dumps({"dataset_id": "d1", "row_id": 0}) + "\n")
    with pytest.raises(InputError, match="missing field"):
        load_predictions(path, _task(), _ROWS)


def test_predictions_roundtrip(tmp_path):
    preds = PredictionSet("d1", "m1", (
        PredictionRecord(0, "yes", "yes"),
        PredictionRecord(1, "no", None),
    ))
    write_predictions(tmp_path / "p.jsonl", preds)
    loaded = load_predictions(tmp_path / "p.jsonl", _task(), _ROWS)
    assert loaded == preds


def test_row_count_bounds_row_ids(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "yes", "yes") + "\n" + _pred_line(2, "no", "no") + "\n")
    assert len(load_predictions(path, _task(), 3).records) == 2
    message = r"p\.jsonl:2: row_id 2 out of range for dataset 'd1' \(2 rows\)"
    with pytest.raises(InputError, match=message):
        load_predictions(path, _task(), 2)
    _write(path, _pred_line(-1, "yes", "yes") + "\n")
    with pytest.raises(InputError, match=r"p\.jsonl:1: row_id -1 out of range"):
        load_predictions(path, _task(), 2)


def test_loaded_labels_are_the_task_labels(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "yes", "no") + "\n" + _pred_line(1, "no", "Banana") + "\n")
    labels = _task().labels()
    for rec in load_predictions(path, _task(), _ROWS).records:
        assert any(rec.true_label is label for label in labels)
        assert rec.predicted is None or any(rec.predicted is label for label in labels)


def _line_by_line_load_predictions(path, task, row_count):
    """Reference loader: the earlier per-line loader, plus the row_id range check
    and a string model_id."""
    labels = set(task.labels())
    records = []
    dataset_id = model_id = None
    for where, obj in json_records(path, "predictions"):
        for key in ("dataset_id", "row_id", "true_label", "predicted_label", "model_id"):
            if key not in obj:
                raise InputError(f"{where}: missing field {key!r}")
        if dataset_id is None:
            dataset_id = obj["dataset_id"]
            model_id = obj["model_id"]
        elif obj["dataset_id"] != dataset_id or obj["model_id"] != model_id:
            raise InputError(f"{where}: mixed dataset/model ids in one prediction file")
        if dataset_id != task.dataset_id:
            raise InputError(
                f"{where}: predictions for {dataset_id!r} loaded against "
                f"task {task.dataset_id!r}"
            )
        if not isinstance(model_id, str):
            raise InputError(f"{where}: model_id must be a string, got {model_id!r}")
        true_label = str(obj["true_label"])
        if true_label not in labels:
            raise InputError(f"{where}: true_label {true_label!r} outside task label set")
        raw_pred = obj["predicted_label"]
        predicted = str(raw_pred) if raw_pred is not None else None
        if predicted not in labels:
            predicted = INVALID
        row_id = json_row_id(obj, where)
        if not 0 <= row_id < row_count:
            raise InputError(
                f"{where}: row_id {row_id} out of range for dataset "
                f"{task.dataset_id!r} ({row_count} rows)"
            )
        records.append(PredictionRecord(row_id, true_label, predicted))
    if dataset_id is None:
        raise InputError(f"{path}: no prediction records")
    return PredictionSet(dataset_id=dataset_id, model_id=model_id, records=tuple(records))


# Categorical, so that the JSON int 1 and bool true name labels once str()-ed;
# "None" tells a null prediction (invalid) from the label str(None) names.
_PROPERTY_TASK = TaskSpec("d1", TaskType.CATEGORICAL, "b", ("yes", "1", "True", "None"))
_PREDICTED = st.sampled_from(["yes", "1", "True", 1, True, False, "no", None, 1.0, ["yes"],
                              {"a": 1}, "é"])
_CLEAN_FIELDS = {
    "dataset_id": st.just("d1"),
    "model_id": st.just("m1"),
    "row_id": st.integers(0, 40),
    "true_label": st.sampled_from(["yes", "1", "True", 1, True]),
    "predicted_label": _PREDICTED,
}
_HOSTILE_FIELDS = {
    "dataset_id": st.sampled_from(["d1", "d2", 1, None]),
    "model_id": st.sampled_from(["m1", "m2", 0, True, None, [1], float("nan")]),
    "row_id": st.one_of(st.integers(-3, 3),
                        st.sampled_from([True, False, 1.0, 2.5, "3", None, 10**30])),
    "true_label": st.sampled_from(["yes", "no", None, 1.0, ["yes"]]),
    "predicted_label": _PREDICTED,
}


@st.composite
def _prediction_line(draw):
    kind = draw(st.sampled_from(["clean"] * 8 + ["hostile"] * 2 + ["partial", "blank",
                                                                    "malformed", "non-object"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t", "\x0c"]))
    if kind == "malformed":
        return draw(st.sampled_from(["{", "nope", '{"row_id": 1,}', "[1, 2", "\ufeff{}",
                                     "{} {}", '{"a": 1}\x0c', "1" * 5000]))
    if kind == "non-object":
        return draw(st.sampled_from(["7", "[1, 2]", '"text"', "null", "true"]))
    fields = dict(_CLEAN_FIELDS)
    if kind == "hostile":
        # One or two hostile values in an otherwise clean line.
        for key in draw(st.lists(st.sampled_from(list(fields)), unique=True, min_size=1,
                                 max_size=2)):
            fields[key] = _HOSTILE_FIELDS[key]
    keys = list(fields)
    if kind == "partial":
        dropped = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1))
        keys = [key for key in keys if key not in dropped]
    doc = {key: draw(fields[key]) for key in keys}
    if draw(st.booleans()):
        doc["extra"] = "kept out"
    return json.dumps(doc, sort_keys=draw(st.booleans()))


_CLEAN_LINE = _pred_line(0, "yes", "yes", model="m1")


@settings(max_examples=500)
# Two keys missing from one line: the first missing in the documented order is named.
@example(lines=[_CLEAN_LINE, '{"dataset_id": "d1", "row_id": 1, "true_label": "yes"}'],
         newline="\n", final_newline=True, row_count=41)
# A NaN model id is refused like any other non-string id.
@example(lines=[_CLEAN_LINE.replace('"m1"', "NaN")], newline="\n", final_newline=False,
         row_count=41)
@example(lines=[_CLEAN_LINE.replace('"m1"', "NaN")] * 2, newline="\n", final_newline=False,
         row_count=41)
@given(lines=st.lists(_prediction_line(), max_size=12),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), final_newline=st.booleans(),
       row_count=st.sampled_from([3, 41, 41]))
def test_load_predictions_matches_line_by_line_loader_property(lines, newline, final_newline,
                                                               row_count):
    text = newline.join(lines) + (newline if final_newline and lines else "")

    def outcome(load, path):
        try:
            return load(path, _PROPERTY_TASK, row_count)
        except InputError as exc:
            return f"InputError: {exc}"

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert outcome(load_predictions, path) == outcome(_line_by_line_load_predictions, path)


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
