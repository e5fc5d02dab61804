import csv
import io
import json
import random
import struct
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BAD_TABLES
from tabaudit.data import (
    INVALID,
    Dataset,
    TaskSpec,
    TaskType,
    class_distribution,
    gold_labels,
    json_records,
    json_row_id,
    load_dataset,
    load_predictions,
    write_manifest,
    write_predictions,
    PredictionRecord,
    PredictionSet,
)
from tabaudit.errors import DegenerateStatisticsError, InputError
from tabaudit.metrics import audit_dataset
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


def test_quartile_manifest_without_boundaries_uses_the_target_quartiles(tmp_path):
    _write(tmp_path / "t.csv", "a,b\n" + "".join(f"{i},{v}\n" for i, v in enumerate(
        ["8", "1", "n/a", "", "4", "2", "1e999", "7"])))
    manifest = make_manifest(tmp_path, task_type="quartile", labels=None)
    dataset, task = load_dataset(manifest)
    assert task == TaskSpec("d1", TaskType.QUARTILE, "b", quartile_boundaries=(2.0, 4.0, 7.0))
    _write(tmp_path / "t.csv", "a,c\n1,2\n")
    with pytest.raises(InputError, match="target column 'b' absent"):
        load_dataset(manifest)


def test_written_manifest_takes_its_id_from_the_task(tmp_path):
    _write(tmp_path / "t.csv", "a,b\n1,yes\n2,no\n")
    task = TaskSpec("d9", TaskType.BINARY, "b", class_labels=("yes", "no"))
    write_manifest(tmp_path / "m.json", task, "t.csv")
    dataset, loaded = load_dataset(tmp_path / "m.json")
    assert (dataset.id, loaded) == ("d9", task)


def test_labor_fixture_roundtrip_753(tmp_path, labor_fixture):
    dataset, task = labor_fixture
    write_table(tmp_path / "labor.csv", dataset.columns, dataset.rows)
    write_manifest(tmp_path / "labor.json", task, "labor.csv")
    loaded, loaded_task = load_dataset(tmp_path / "labor.json")
    assert loaded.row_count == 753
    assert loaded_task.target_column == "lfp"
    assert loaded_task.labels() == ("1", "0")
    assert loaded == dataset


def test_missing_target_column(tmp_path):
    _write(tmp_path / "t.csv", "a,c\n1,2\n")
    with pytest.raises(InputError, match="target column"):
        load_dataset(make_manifest(tmp_path))


@pytest.mark.parametrize("name,blob,message", BAD_TABLES, ids=[t[0] for t in BAD_TABLES])
def test_an_unreadable_table_is_input_error_naming_the_file(tmp_path, name, blob, message):
    (tmp_path / name).write_bytes(blob)
    with pytest.raises(InputError) as info:
        load_dataset(make_manifest(tmp_path, table=name))
    assert message.format(path=tmp_path / name) in str(info.value)


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


def test_dataset_names_its_first_row_of_the_wrong_width():
    with pytest.raises(InputError, match=r"dataset 'd' row 1: 1 cells for 2 columns"):
        Dataset(id="d", columns=("a", "b"), rows=(("1", "2"), ("3",), ("4", "5", "6")))


_CELLS = [None, "", "yes", "no", "x,y", "é", "1", "2.5", "-3", "7", "0.5", "12", "1e999", "nan"]


def _tbin_bytes(columns, cols):
    """A TBIN file of raw cell bytes: ``cols`` holds each column's cells, bytes or None."""
    parts = [b"TBIN0001", struct.pack("<I", len(columns))]
    for name in columns:
        parts += [struct.pack("<H", len(name.encode())), name.encode()]
    parts.append(struct.pack("<Q", len(cols[0]) if cols else 0))
    for col in cols:
        for cell in col:
            parts.append(b"\x00" if cell is None else b"\x01" + struct.pack("<I", len(cell)) + cell)
    return b"".join(parts)


@st.composite
def _manifest_and_table(draw):
    """A manifest and its table, which may have one defect a full load refuses."""
    defect = draw(st.sampled_from(["none"] * 6 + ["ragged", "bad-utf8", "truncated"]))
    bad_cell = defect == "bad-utf8"  # in a TBIN column other than the target's
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "t"]), min_size=1 + bad_cell,
                          max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 0:  # a duplicate header
        names.append(draw(st.sampled_from(names)))
    nrows = draw(st.integers(bad_cell, 12))
    rows = [[draw(st.sampled_from(_CELLS)) for _ in names] for _ in range(nrows)]
    target = draw(st.sampled_from(names + ["absent", None]))
    task_type = draw(st.sampled_from(["binary", "categorical", "quartile"]))
    doc = {"id": "d", "task_type": task_type, "target_column": target}
    if task_type == "binary":
        doc["class_labels"] = ["yes", "no"]
    elif task_type == "categorical":
        doc["class_labels"] = draw(st.lists(st.sampled_from(_CELLS[2:]), min_size=3,
                                            unique=True))
    elif draw(st.booleans()):  # else unbound: the task bins at the target's quartiles
        doc["quartile_boundaries"] = [1, 2, 3]
    fmt = {"ragged": "csv", "bad-utf8": "tbin"}.get(defect) or draw(
        st.sampled_from(["csv", "tbin"]))
    if fmt == "csv":
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            [names] + [["" if cell is None else cell for cell in row] for row in rows])
        if defect == "ragged":
            text.write(",".join(["1"] * (len(names) + draw(st.sampled_from([-1, 1])))) + "\n")
        blob = text.getvalue().encode()
    else:
        cols = [[None if row[c] is None else row[c].encode() for row in rows]
                for c in range(len(names))]
        if bad_cell:
            others = [c for c, name in enumerate(names) if name != target]
            cols[draw(st.sampled_from(others))][draw(st.integers(0, nrows - 1))] = b"\xff"
        blob = _tbin_bytes(names, cols)
        if defect == "truncated":
            blob = blob[:draw(st.integers(8, len(blob) - 1))]
    doc["table_path"] = f"t.{fmt}"
    return doc, blob


_UNBOUND = {"id": "d", "task_type": "quartile", "target_column": "t"}


@settings(max_examples=300)
# Unbound quartile tasks: the target's quartiles, over a CSV and over a TBIN with a missing cell.
@example(case=(dict(_UNBOUND, table_path="t.csv"),
               b"a,t\nx,1\n,2.5\ny,7\nz,\nw,-3\nv,nan\n"))
@example(case=(dict(_UNBOUND, table_path="t.tbin"),
               _tbin_bytes(["t", "a"], [[b"1", None, b"12", b"0.5", b"7"],
                                        [b"x", b"", None, b"y", b"z"]])))
@given(case=_manifest_and_table())
def test_a_target_only_load_matches_a_full_load_property(case):
    doc, blob = case

    def outcome(path, **options):
        try:
            dataset, task = load_dataset(path, **options)
        except (InputError, DegenerateStatisticsError) as exc:
            return type(exc).__name__, str(exc)
        try:
            gold = gold_labels(dataset, task)
        except InputError as exc:
            gold = str(exc)
        return dataset.id, dataset.row_count, dataset.table_path, task, gold

    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / doc["table_path"]).write_bytes(blob)
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        full = outcome(path)
        assert outcome(path, target_only=True) == full


# -- predictions --------------------------------------------------------------


def _task():
    return TaskSpec("d1", TaskType.BINARY, "b", ("yes", "no"))


_GOLD = ("yes", "no") * 5  # gold labels of the dataset behind _task()


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
    preds = load_predictions(path, _task(), _GOLD)
    assert preds.model_id == "m1"
    # Every row of the task, the seven the file leaves out held as invalid.
    assert preds.row_ids == tuple(range(10))
    assert preds.true_labels == _GOLD
    assert preds.predicted == ("yes", "yes", "no") + (None,) * 7
    assert preds.missing == 7


def test_invalid_prediction_kept_as_marker(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "yes", "Banana") + "\n")
    preds = load_predictions(path, _task(), _GOLD)
    assert preds.records[0].predicted is None
    assert preds.records[0].true_label == "yes"


def test_duplicate_row_id_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(7, "no", "yes") + "\n" + _pred_line(7, "no", "no") + "\n")
    with pytest.raises(InputError, match="duplicate row_id"):
        load_predictions(path, _task(), _GOLD)


def test_true_label_outside_set_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "maybe", "yes") + "\n")
    with pytest.raises(InputError, match="true_label"):
        load_predictions(path, _task(), _GOLD)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, json.dumps({"dataset_id": "d1", "row_id": 0}) + "\n")
    with pytest.raises(InputError, match="missing field"):
        load_predictions(path, _task(), _GOLD)


def test_predictions_roundtrip(tmp_path):
    preds = PredictionSet("d1", "m1", (0, 1), ("yes", "no"), ("yes", None))
    write_predictions(tmp_path / "p.jsonl", preds)
    loaded = load_predictions(tmp_path / "p.jsonl", _task(), _GOLD[:2])
    assert loaded == preds
    assert loaded.records == (PredictionRecord(0, "yes", "yes"), PredictionRecord(1, "no", None))


def test_row_count_bounds_row_ids(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "yes", "yes") + "\n" + _pred_line(2, "yes", "no") + "\n")
    assert load_predictions(path, _task(), _GOLD[:3]).missing == 1
    message = r"p\.jsonl:2: row_id 2 out of range for dataset 'd1' \(2 rows\)"
    with pytest.raises(InputError, match=message):
        load_predictions(path, _task(), _GOLD[:2])
    _write(path, _pred_line(-1, "yes", "yes") + "\n")
    with pytest.raises(InputError, match=r"p\.jsonl:1: row_id -1 out of range"):
        load_predictions(path, _task(), _GOLD[:2])


def test_loaded_labels_are_the_task_labels(tmp_path):
    path = tmp_path / "p.jsonl"
    _write(path, _pred_line(0, "yes", "no") + "\n" + _pred_line(1, "no", "Banana") + "\n")
    labels = _task().labels()
    for rec in load_predictions(path, _task(), _GOLD).records:
        assert any(rec.true_label is label for label in labels)
        assert rec.predicted is None or any(rec.predicted is label for label in labels)


def _line_by_line_load_predictions(path, task, gold):
    """Reference loader: the earlier per-line loader, plus the row_id range check,
    a string model_id, the gold-label check and the join to every row in the task."""
    labels = set(task.labels())
    row_ids, predicted_labels = [], []
    dataset_id = model_id = None
    for lineno, obj in json_records(path, "predictions"):
        where = f"{path}:{lineno}"
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
        row_id = json_row_id(obj, where)
        if not 0 <= row_id < len(gold):
            raise InputError(
                f"{where}: row_id {row_id} out of range for dataset "
                f"{task.dataset_id!r} ({len(gold)} rows)"
            )
        if gold[row_id] is None:
            raise InputError(f"{where}: row_id {row_id} is outside the task")
        true_label = str(obj["true_label"])
        if true_label != gold[row_id]:
            raise InputError(
                f"{where}: true_label {true_label!r} disagrees with the dataset's "
                f"label {gold[row_id]!r} for row_id {row_id}"
            )
        raw_pred = obj["predicted_label"]
        predicted = str(raw_pred) if raw_pred is not None else None
        if predicted not in labels:
            predicted = INVALID
        row_ids.append(row_id)
        predicted_labels.append(predicted)
    if dataset_id is None:
        raise InputError(f"{path}: no prediction records")
    if len(set(row_ids)) != len(row_ids):
        duplicate = next(r for i, r in enumerate(row_ids) if r in row_ids[:i])
        raise InputError(
            f"predictions {dataset_id!r}/{model_id!r}: duplicate row_id {duplicate}"
        )
    by_row = dict(zip(row_ids, predicted_labels))
    in_task = [i for i, label in enumerate(gold) if label is not None]
    return PredictionSet(dataset_id, model_id, tuple(in_task), tuple(gold[i] for i in in_task),
                         tuple(by_row.get(i, INVALID) for i in in_task),
                         missing=len(in_task) - len(row_ids))


# Categorical, so that the JSON int 1 and bool true name labels once str()-ed;
# "None" tells a null prediction (invalid) from the label str(None) names.
_PROPERTY_TASK = TaskSpec("d1", TaskType.CATEGORICAL, "b", ("yes", "1", "True", "None"))
# Its gold labels; every seventh row is outside the task.
_PROPERTY_GOLD = tuple(
    None if i % 7 == 6 else _PROPERTY_TASK.labels()[i % 4] for i in range(41)
)
# JSON values whose str() is each gold label (a row outside the task has none).
_SPELLINGS = {"yes": ["yes"], "1": ["1", 1], "True": ["True", True], "None": ["None", None],
              None: ["yes", 1]}
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


# Characters that str.strip() or str.splitlines() treat as whitespace or a
# line break and json does not.
_NON_JSON_SPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def _prediction_line(draw):
    kind = draw(st.sampled_from(["clean"] * 8 + ["hostile"] * 2 + ["partial", "blank",
                                                                    "malformed", "non-object",
                                                                    "padded", "odd-space",
                                                                    "raw-separator", "joined",
                                                                    "split"]))
    if kind == "padded":  # JSON whitespace around a good object
        pad = st.text(alphabet=" \t", max_size=3)
        return draw(pad) + draw(_prediction_line()) + draw(pad)
    if kind == "odd-space":  # a non-JSON space before or after an object
        space = draw(st.sampled_from(_NON_JSON_SPACE))
        line = draw(_prediction_line())
        return space + line if draw(st.booleans()) else line + space
    if kind == "raw-separator":  # unescaped, inside a string value
        space = draw(st.sampled_from(_NON_JSON_SPACE))
        doc = {key: draw(value) for key, value in _CLEAN_FIELDS.items()}
        doc[draw(st.sampled_from(["extra", "predicted_label", "model_id"]))] = f"m{space}1"
        return json.dumps(doc, ensure_ascii=False)
    if kind == "joined":  # two objects on one line
        return draw(_prediction_line()) + draw(st.sampled_from([",", ", ", " "])) + draw(
            _prediction_line())
    if kind == "split":  # one object over two lines
        line = draw(_prediction_line())
        cut = draw(st.integers(0, len(line)))
        return line[:cut] + "\n" + line[cut:]
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
    row_id = doc.get("row_id")
    if ("true_label" in doc and type(row_id) is int and 0 <= row_id < len(_PROPERTY_GOLD)
            and draw(st.integers(0, 9))):  # mostly the row's own gold label
        doc["true_label"] = draw(st.sampled_from(_SPELLINGS[_PROPERTY_GOLD[row_id]]))
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
# A duplicate row_id, then a bad line: the bad line is named, not the duplicate.
@example(lines=[_CLEAN_LINE, _CLEAN_LINE, "{"], newline="\n", final_newline=True, row_count=41)
@example(lines=[_CLEAN_LINE, _CLEAN_LINE, _pred_line(1, "no", "yes", dataset="d2")],
         newline="\r\n", final_newline=True, row_count=41)
@example(lines=[_CLEAN_LINE, _CLEAN_LINE], newline="\n", final_newline=True, row_count=41)
@example(lines=[" \t" + _CLEAN_LINE + "\t ", "\x0b" + _pred_line(1, "1", "no"),
                _pred_line(2, "True", "no") + "\x1c"], newline="\n", final_newline=True,
         row_count=41)
@example(lines=[_CLEAN_LINE + "," + _pred_line(1, "1", "no")], newline="\n",
         final_newline=True, row_count=41)
# A row outside the task, and a true_label that disagrees with the row's gold label.
@example(lines=[_CLEAN_LINE, _pred_line(6, "yes", "yes")], newline="\n", final_newline=True,
         row_count=41)
@example(lines=[_CLEAN_LINE, _pred_line(1, "yes", "yes")], newline="\n", final_newline=True,
         row_count=41)
@example(lines=[_CLEAN_LINE[:20] + "\n" + _CLEAN_LINE[20:]], newline="\n", final_newline=True,
         row_count=41)
@example(lines=[_CLEAN_LINE.replace('"m1"', '"m\u20281"'),
                _CLEAN_LINE.replace('"m1"', '"m\u20281"').replace(": 0", ": 1").replace(
                    '"predicted_label": "yes"', '"predicted_label": "y\x85s"')],
         newline="\n", final_newline=False, row_count=41)
@given(lines=st.lists(_prediction_line(), max_size=12),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), final_newline=st.booleans(),
       row_count=st.sampled_from([3, 41, 41]))
def test_load_predictions_matches_line_by_line_loader_property(lines, newline, final_newline,
                                                               row_count):
    text = newline.join(lines) + (newline if final_newline and lines else "")

    def outcome(load, path):
        try:
            return load(path, _PROPERTY_TASK, _PROPERTY_GOLD[:row_count])
        except InputError as exc:
            return f"InputError: {exc}"

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert outcome(load_predictions, path) == outcome(_line_by_line_load_predictions, path)


def _json_loads_records(path):
    """What json_records yields for ``path``, decoded by json.loads line by line,
    else the InputError it raises."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                return records, f"{where}: malformed JSON: {exc}"
            if not isinstance(obj, dict):
                return records, f"{where}: predictions record must be a JSON object"
            records.append((lineno, obj))
    return records, None


@settings(max_examples=300)
@example(line="\ufeff{}")
@example(line="{} {}")
@example(line="\x0b{}")
@example(line="NaN")
@example(line="1" * 5000)
@example(line="[" * 50000 + "]" * 50000)
@given(line=_prediction_line())
def test_json_records_decodes_each_line_as_json_loads_property(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(line + "\n")
        records, error = [], None
        try:
            for record in json_records(path, "predictions"):
                records.append(record)
        except InputError as exc:
            error = str(exc)
        # repr, so that a NaN decoded on both sides compares equal.
        assert repr((records, error)) == repr(_json_loads_records(path))


def test_load_predictions_holds_one_record_at_a_time(tmp_path):
    n = 20_000
    gold = ("yes", "no") * (n // 2)
    path = tmp_path / "p.jsonl"
    _write(path, "".join(_pred_line(i, gold[i], "yes") + "\n" for i in range(n)))
    tracemalloc.start()
    try:
        preds = load_predictions(path, _task(), gold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.missing == 0
    # The file's lines, the join's columns and one decoded record at a
    # time come to about 240 B a line; every record held at once to 1 KB.
    assert peak / n < 400


# -- gold labels and the audit join ----------------------------------------------


_AUDIT_TASKS = {
    "binary": TaskSpec("d1", TaskType.BINARY, "y", ("yes", "no")),
    "categorical": TaskSpec("d1", TaskType.CATEGORICAL, "y", ("r", "g", "b")),
    "quartile": TaskSpec("d1", TaskType.QUARTILE, "y", quartile_boundaries=(1.0, 2.0, 3.0)),
}


def _column(cells):
    return Dataset("d1", ("f", "y"), tuple((str(i), c) for i, c in enumerate(cells)))


def test_gold_labels_per_task_type():
    assert gold_labels(_column(["yes", None, "no"]), _AUDIT_TASKS["binary"]) == ("yes", None, "no")
    bins = _AUDIT_TASKS["quartile"].labels()
    assert gold_labels(_column(["0.5", "1", " 3.5 ", None, "n/a", "1e999", "-1e999", "true"]),
                       _AUDIT_TASKS["quartile"]) == (bins[0], bins[1], bins[3]) + (None,) * 5
    with pytest.raises(InputError, match=r"dataset 'd1' row 2: target value 'Yes' not in the "):
        gold_labels(_column(["yes", "no", "Yes", "maybe"]), _AUDIT_TASKS["binary"])


def _line(row_id, true_label, predicted):
    return {"dataset_id": "d1", "row_id": row_id, "true_label": true_label,
            "predicted_label": predicted, "model_id": "m"}


@st.composite
def _edited_prediction_file(draw):
    """A dataset, a prediction file covering every row in its task, and that
    file after a random mix of edits."""
    task = _AUDIT_TASKS[draw(st.sampled_from(sorted(_AUDIT_TASKS)))]
    if task.task_type is TaskType.QUARTILE:
        cell = st.one_of(st.floats(0, 4).map(repr), st.sampled_from([None, "n/a", "1e999"]))
    else:
        cell = st.sampled_from([*task.labels(), None])
    gold = gold_labels(_column(draw(st.lists(cell, min_size=1, max_size=20))), task)
    assume(any(label is not None for label in gold))
    labels = list(task.labels())
    lines = [_line(i, label, draw(st.sampled_from(labels + ["zz"])))
             for i, label in enumerate(gold) if label is not None]
    outside = [-1, len(gold)] + [i for i, label in enumerate(gold) if label is None]
    edited = list(lines)
    for edit in draw(st.lists(st.sampled_from(["drop", "duplicate", "flip", "outside"]),
                              min_size=1, max_size=4)):
        at = draw(st.integers(0, len(edited)))
        if edit == "outside":
            edited.insert(at, _line(draw(st.sampled_from(outside)), draw(st.sampled_from(labels)),
                                    draw(st.sampled_from(labels))))
        elif edited:
            k = min(at, len(edited) - 1)
            if edit == "drop":
                del edited[k]
            elif edit == "duplicate":
                edited.insert(at, edited[k])
            else:
                other = [label for label in labels if label != edited[k]["true_label"]]
                edited[k] = dict(edited[k], true_label=draw(st.sampled_from(other)))
    return task, gold, lines, edited


def _audit_lines(task, gold, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        return audit_dataset(load_predictions(path, task, gold))


@settings(max_examples=300)
# Dropping a wrong prediction: a file-trusting audit scored 1.0 on the rest.
@example(case=(_AUDIT_TASKS["binary"], ("yes", "no"),
               [_line(0, "yes", "yes"), _line(1, "no", "yes")], [_line(0, "yes", "yes")]))
# Rewriting a true_label to the predicted label.
@example(case=(_AUDIT_TASKS["binary"], ("yes", "no"),
               [_line(0, "yes", "yes"), _line(1, "no", "yes")],
               [_line(0, "yes", "yes"), _line(1, "yes", "yes")]))
@given(case=_edited_prediction_file())
def test_no_edit_of_a_prediction_file_raises_accuracy_or_coverage_property(case):
    task, gold, lines, edited = case
    before = _audit_lines(task, gold, lines)
    assert before.coverage == 1.0
    try:
        after = _audit_lines(task, gold, edited)
    except InputError:
        return
    assert after.accuracy <= before.accuracy
    assert after.coverage <= before.coverage
    assert (after.n, after.majority_baseline) == (before.n, before.majority_baseline)


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
