import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabaudit.contam import MatchEvidence, ScanConfig, build_index, scan_dataset
from tabaudit.data import Dataset, TaskSpec, TaskType
from tabaudit.errors import InputError
from tabaudit.tableio import read_table
from tabaudit.testbed import (
    CorpusSpec,
    Plant,
    PlantLedger,
    generate_corpus,
    plant_association,
    plant_complete_overlap,
    plant_direct_duplicates,
    scanner_prf,
)


def corpus_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.csv"))}


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    spec = CorpusSpec(tables=2, rows_per_table=10)
    generate_corpus(spec, seed=1, out_dir=a)
    generate_corpus(spec, seed=1, out_dir=b)
    assert corpus_bytes(a) == corpus_bytes(b)
    c = tmp_path / "c"
    generate_corpus(spec, seed=2, out_dir=c)
    assert corpus_bytes(a) != corpus_bytes(c)


def test_generate_row_counts(tmp_path):
    out = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=5, rows_per_table=17, cols_per_table=3), 0, out)
    total = 0
    for path in out.glob("*.csv"):
        columns, rows = read_table(path)
        assert len(columns) == 3
        total += len(rows)
    assert total == 5 * 17


def small_dataset(n=12):
    rows = tuple((f"id{i}", f"val{i}.5x", f"w{i * 13}", "a" if i % 2 else "b") for i in range(n))
    task = TaskSpec("small", TaskType.BINARY, "lab", ("a", "b"))
    return Dataset("small", ("rowid", "metric", "weight", "lab"), rows), task


def test_plant_complete_ledger_and_readback(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset, _ = small_dataset()
    plant = plant_complete_overlap(corpus, dataset, rename_fraction=1.0, permute=True, seed=3)
    assert plant.kind == "complete"
    assert len(plant.locations) == dataset.row_count
    table_id = plant.locations[0][0]
    columns, rows = read_table(corpus / table_id)
    # Every renamed column differs but every row's value multiset is intact.
    assert set(columns).isdisjoint(set(dataset.columns))
    for i, row in enumerate(dataset.rows):
        assert sorted(map(str, rows[i])) == sorted(map(str, row))


def test_plant_complete_rename_zero_keeps_names(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset, _ = small_dataset()
    plant = plant_complete_overlap(corpus, dataset, rename_fraction=0.0, permute=False, seed=3)
    table_id = plant.locations[0][0]
    columns, rows = read_table(corpus / table_id)
    assert tuple(columns) == dataset.columns
    assert tuple(tuple(r) for r in rows) == dataset.rows


@pytest.mark.parametrize("fraction,shown", [(1.5, "1.5"), (-0.5, "-0.5"), (float("nan"), "nan")])
def test_plant_complete_refuses_a_rename_fraction_outside_0_1(tmp_path, fraction, shown):
    dataset, _ = small_dataset()
    with pytest.raises(InputError) as exc:
        plant_complete_overlap(tmp_path, dataset, rename_fraction=fraction)
    assert str(exc.value) == f"rename_fraction must be in [0, 1], got {shown}"
    assert list(tmp_path.iterdir()) == []


def test_plant_complete_round_trips_a_nul_cell(tmp_path):
    # Every plant writes through tableio, whose CSV files carry NUL as an
    # ordinary character.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset = Dataset("nul", ("k", "v"), (("a\x00b", "1"), ("c", None)))
    plant = plant_complete_overlap(corpus, dataset, rename_fraction=0.0, permute=False)
    columns, rows = read_table(corpus / plant.locations[0][0])
    assert (tuple(columns), tuple(map(tuple, rows))) == (dataset.columns, dataset.rows)


def test_plant_753_locations(tmp_path, labor_fixture):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset, _ = labor_fixture
    plant = plant_complete_overlap(corpus, dataset, seed=5)
    assert len(plant.locations) == 753


def test_plant_direct_duplicates_counts(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset, task = small_dataset()
    plant = plant_direct_duplicates(corpus, dataset, "lab", 10, copies=3, seed=1)
    assert plant.dataset_id == "small"
    assert len(plant.locations) == 30
    assert len({t for t, _ in plant.locations}) == 3


def test_plant_direct_duplicates_copies_one(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset = Dataset("one", ("a", "lab"), (("x9", "y"),))
    plant = plant_direct_duplicates(corpus, dataset, "lab", 5, copies=1, seed=1)
    assert len(plant.locations) == 1


def test_plant_direct_duplicates_needs_a_row(tmp_path):
    dataset, _ = small_dataset()
    with pytest.raises(InputError, match="no rows to plant"):
        plant_direct_duplicates(tmp_path, dataset, "lab", 0)


@st.composite
def _direct_plant_inputs(draw):
    """A small dataset with missing cells, a target at any column, and a row count."""
    columns = draw(st.lists(st.text("abkv_19", min_size=1, max_size=4),
                            min_size=1, max_size=4, unique=True))
    cell = st.none() | st.text('ab1,"\n \x00', min_size=1, max_size=4)
    rows = draw(st.lists(st.tuples(*[cell] * len(columns)), min_size=1, max_size=6))
    target = draw(st.sampled_from(columns))
    n = draw(st.integers(1, len(rows) + 2))
    return Dataset("d", tuple(columns), tuple(rows)), target, n


@settings(max_examples=80)
@example(inputs=(Dataset("d", ("k", "lab", "v"), (("x", None, "1"), (None, "y", None))),
                 "lab", 3), copies=2)
@given(inputs=_direct_plant_inputs(), copies=st.integers(1, 3))
def test_plant_direct_duplicates_moves_target_last_property(inputs, copies):
    dataset, target, n = inputs
    t = dataset.column_index(target)
    expected = [row[:t] + row[t + 1:] + (row[t],) for row in dataset.rows[:n]]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        ledger = PlantLedger(seed=0, corpus_id="c")
        ledger.plants.append(plant_direct_duplicates(corpus, dataset, target, n, copies=copies))
        ledger.save(corpus / "ledger.json")
        tables = [f"plant_direct_{c:03d}.csv" for c in range(copies)]
        assert sorted(p.name for p in corpus.glob("*.csv")) == tables
        for name in tables:
            columns, rows = read_table(corpus / name)
            assert len(columns) == len(dataset.columns)
            assert [tuple(row) for row in rows] == expected
        loaded = PlantLedger.load(corpus / "ledger.json")
    locations = [loc for plant in loaded.plants for loc in plant.locations]
    assert sorted(locations) == [(name, i) for name in tables for i in range(len(expected))]


def test_plant_association_no_rows():
    with pytest.raises(InputError):
        plant_association("/nonexistent", [("k", "v")], tables=0)


def test_ledger_roundtrip(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset, _ = small_dataset()
    ledger = PlantLedger(seed=2, corpus_id="corpus")
    ledger.plants.append(plant_complete_overlap(corpus, dataset, seed=2))
    ledger.plants.append(plant_association(corpus, [("k", "v")], tables=2, rows_per_table=2,
                                           seed=2))
    ledger.save(tmp_path / "ledger.json")
    loaded = PlantLedger.load(tmp_path / "ledger.json")
    assert loaded.seed == ledger.seed
    assert loaded.plants == ledger.plants


def test_ledger_completeness_physical_readback(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    dataset, _ = small_dataset()
    plant = plant_complete_overlap(corpus, dataset, seed=8)
    for table_id, row_id in plant.locations:
        columns, rows = read_table(corpus / table_id)
        assert 0 <= row_id < len(rows)


# -- scanner precision/recall ------------------------------------------------------


def ev(*locations, strategy="row_match"):
    return MatchEvidence(strategy=strategy, matched=list(locations), overlap=1.0)


def test_prf_perfect():
    ledger = PlantLedger(seed=0, corpus_id="c")
    ledger.plants.append(Plant("complete", "d", (("t.csv", 0), ("t.csv", 1)), {}))
    evidence = {"d": [ev(("t.csv", 0)), ev(("t.csv", 1))]}
    assert scanner_prf(ledger, evidence) == {"complete": (1.0, 1.0)}


def test_prf_nothing_found():
    ledger = PlantLedger(seed=0, corpus_id="c")
    ledger.plants.append(Plant("complete", "d", (("t.csv", 0),), {}))
    assert scanner_prf(ledger, {"d": []}) == {"complete": (0.0, 0.0)}


def test_prf_one_spurious_hit():
    ledger = PlantLedger(seed=0, corpus_id="c")
    planted = tuple(("t.csv", i) for i in range(9))
    ledger.plants.append(Plant("complete", "d", planted, {}))
    evidence = {"d": [ev(*planted), ev(("other.csv", 3))]}
    precision, recall = scanner_prf(ledger, evidence)["complete"]
    assert (precision, recall) == (0.9, 1.0)


def test_prf_row_match_kinds_do_not_count_each_other_as_false_positives():
    ledger = PlantLedger(seed=0, corpus_id="c")
    complete = tuple(("copy.csv", i) for i in range(6))
    duplicates = (("dup_0.csv", 0), ("dup_1.csv", 0))
    ledger.plants.append(Plant("complete", "d", complete, {}))
    ledger.plants.append(Plant("direct_dup", "d", duplicates, {}))
    found = {"d": [ev(*complete), ev(*duplicates)]}
    assert scanner_prf(ledger, found) == {"complete": (1.0, 1.0), "direct_dup": (1.0, 1.0)}
    # One hit where no plant wrote lowers the precision of both kinds.
    found["d"].append(ev(("background.csv", 3)))
    assert scanner_prf(ledger, found) == {"complete": (8 / 9, 1.0), "direct_dup": (8 / 9, 1.0)}


def test_scanner_vs_ledger_end_to_end(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(tables=2, rows_per_table=50), seed=6, out_dir=corpus)
    dataset, task = small_dataset()
    ledger = PlantLedger(seed=6, corpus_id=corpus.name)
    ledger.plants.append(
        plant_complete_overlap(corpus, dataset, rename_fraction=1.0, permute=True, seed=6))
    index = build_index(corpus)
    bundle, verdict = scan_dataset(index, dataset, task, ScanConfig())
    prf = scanner_prf(ledger, {dataset.id: bundle.row_evidence})
    assert prf["complete"] == (1.0, 1.0)
    assert verdict.category == "complete_overlap"
