"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

C1  metric oracle equivalence (1e-12) + constant-prediction laws, < 5 s
C2  imbalance-rider fixture, exact values and table formatting
C3  statistics oracle equivalence (1e-10 rel), F = t^2, degenerate errors, < 5 s
C4  quartile balance/boundary/affine properties
C5  single-feature shortcut audit calibration
C6  serialization golden files byte-match + extraction round-trip
C7  planted-contamination recovery on a 100k-row corpus, < 60 s
C8  1M-row sharded index scale smoke, < 10 min
C9  (conditional) aggregate reproduction from externally supplied
    per-dataset prediction dumps
"""

import json
import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import build_labor_dataset, build_price_dataset, build_workout_dataset
from oracles import (
    brute_accuracy,
    brute_kappa,
    brute_majority,
    mp_f_sf,
    mp_t_sf_two_sided,
    numpy_quartiles,
    scipy_anova_f,
    scipy_welch_t,
)
from test_metrics import make_preds, random_prediction_set

from tabaudit.contam import ScanConfig, association_search, build_index, scan_dataset
from tabaudit.data import TaskSpec, TaskType, gold_labels, load_dataset, load_predictions
from tabaudit.errors import DegenerateStatisticsError
from tabaudit.metrics import audit_dataset
from tabaudit.prompts import PromptTemplate, build_prompts, extract_prediction
from tabaudit.quartile import assign_bin, quartile_bins, shortcut_audit
from tabaudit.stratify import one_way_anova, pairwise_t, summarize_by_task
from tabaudit.testbed import (
    CorpusSpec,
    PlantLedger,
    generate_corpus,
    plant_association,
    plant_complete_overlap,
    plant_direct_duplicates,
    scanner_prf,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE C{num} [{description}]: FAIL")
        raise
    print(f"\nACCEPTANCE C{num} [{description}]: PASS")


def test_c1_metric_oracle_suite():
    with criterion(1, "metric oracle suite, 200 seeded sets, 1e-12"):
        start = time.perf_counter()
        rng = random.Random(1001)
        for _ in range(200):
            truth, preds = random_prediction_set(rng, min_classes=2)
            m = audit_dataset(make_preds(truth, preds))
            assert abs(m.accuracy - brute_accuracy(truth, preds)) <= 1e-12
            assert abs(m.majority_baseline - brute_majority(truth)) <= 1e-12
            assert abs(m.lift - (brute_accuracy(truth, preds) - brute_majority(truth))) <= 1e-12
            assert abs(m.kappa - brute_kappa(truth, preds)) <= 1e-12
        for _ in range(50):
            truth, _ = random_prediction_set(rng, min_classes=2)
            constant = rng.choice(sorted(set(truth)))
            m = audit_dataset(make_preds(truth, [constant] * len(truth)))
            assert m.kappa == 0.0
            assert m.lift <= 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"metric oracle suite took {elapsed:.2f}s"


def test_c2_imbalance_rider_fixture():
    with criterion(2, "imbalance-rider fixture, exact values and formatting"):
        truth = ["0"] * 959 + ["1"] * 41
        m = audit_dataset(make_preds(truth, ["0"] * 1000))
        assert m.accuracy == 0.959
        assert m.majority_baseline == 0.959
        assert m.lift == 0.0
        assert m.kappa == 0.0
        row = f"{m.accuracy:.3f} | {m.majority_baseline:.3f} | {m.lift:+.3f} | {m.kappa:.3f}"
        assert row == "0.959 | 0.959 | +0.000 | 0.000"
        from dataclasses import asdict

        from tabaudit.report import render_markdown

        md = render_markdown({"datasets": [dict(asdict(m), task_type="binary")]})
        assert "0.959 | 0.959 | +0.000 | 0.000" in md


def test_c3_statistics_oracle_suite():
    with criterion(3, "statistics oracle suite, 1e-10 relative"):
        start = time.perf_counter()
        rng = random.Random(2002)
        for _ in range(100):
            k = rng.randint(2, 4)
            groups = [
                [rng.uniform(-1, 1) + rng.gauss(0, 0.4) for _ in range(rng.randint(2, 25))]
                for _ in range(k)
            ]
            res = one_way_anova(groups)
            assert math.isclose(res.statistic, scipy_anova_f(groups), rel_tol=1e-10)
            assert math.isclose(
                res.p_value, mp_f_sf(res.statistic, *res.degrees_of_freedom),
                rel_tol=1e-10, abs_tol=1e-300,
            )
            a, b = groups[0], groups[1]
            t_res = pairwise_t(a, b)
            t_expected, _ = scipy_welch_t(a, b)
            assert math.isclose(t_res.statistic, t_expected, rel_tol=1e-10)
            assert math.isclose(
                t_res.p_value, mp_t_sf_two_sided(t_res.statistic, t_res.degrees_of_freedom[0]),
                rel_tol=1e-10, abs_tol=1e-300,
            )
        for _ in range(50):
            n = rng.randint(3, 20)
            a = [rng.gauss(0, 1) for _ in range(n)]
            b = [rng.gauss(0.4, 1) for _ in range(n)]
            f_stat = one_way_anova([a, b]).statistic
            t_stat = pairwise_t(a, b).statistic
            assert math.isclose(f_stat, t_stat * t_stat, rel_tol=1e-9)
        with pytest.raises(DegenerateStatisticsError):
            one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateStatisticsError):
            pairwise_t([3.0, 3.0], [4.0, 4.0])
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"statistics oracle suite took {elapsed:.2f}s"


def test_c4_quartile_properties():
    with criterion(4, "quartile balance, boundaries, affine covariance"):
        rng = random.Random(3003)
        for _ in range(100):
            n = 4 * rng.randint(1, 60)
            values = [v / 11.0 for v in rng.sample(range(5_000_000), n)]
            bounds = quartile_bins(values)
            counts = [0, 0, 0, 0]
            for v in values:
                counts[assign_bin(v, bounds)] += 1
            assert counts == [n // 4] * 4
        assert quartile_bins(range(1, 9)) == (2.75, 4.5, 6.25)
        assert quartile_bins(range(1, 9)) == pytest.approx(numpy_quartiles(range(1, 9)))
        values = [rng.uniform(-100, 100) for _ in range(44)]
        bounds = quartile_bins(values)
        for _ in range(50):
            a, b = rng.uniform(0.05, 20.0), rng.uniform(-500, 500)
            mapped_bounds = quartile_bins([a * v + b for v in values])
            assert mapped_bounds == pytest.approx(
                tuple(a * q + b for q in bounds), rel=1e-9
            )
            for v in values:
                assert assign_bin(a * v + b, mapped_bounds) == assign_bin(v, bounds)


def test_c5_shortcut_audit_calibration():
    with criterion(5, "shortcut audit: identical=1.0, independent=0.25 +/- 0.02"):
        from tabaudit.data import Dataset

        rng = random.Random(4004)
        n = 10_000
        rows = []
        for _ in range(n):
            t = rng.uniform(0.0, 1.0)
            rows.append((f"{t!r}", f"{rng.uniform(0.0, 1.0)!r}", f"{t!r}"))
        ds = Dataset("shortcut", ("same", "indep", "target"), tuple(rows))
        task = TaskSpec(ds.id, TaskType.QUARTILE, "target",
                        quartile_boundaries=quartile_bins([float(r[2]) for r in rows]))
        report = shortcut_audit(ds, task)
        by_feature = {f.feature: f for f in report.findings}
        assert by_feature["same"].bin_accuracy == 1.0
        assert by_feature["same"].flagged
        assert abs(by_feature["indep"].bin_accuracy - 0.25) <= 0.02
        assert not by_feature["indep"].flagged


def test_c6_serialization_golden_files():
    with criterion(6, "serialization golden files + extraction round-trip"):
        cases = [
            ("creatures", "tabula", 4, [1, 2, 3, 4]),
            ("creatures", "alpaca", 4, [1, 2, 3, 4]),
            ("tinybin", "tabula", 0, None),
            ("prices", "tabula", 4, [1, 2, 3, 4]),
            ("prices", "alpaca", 4, [1, 2, 3, 4]),
        ]
        for name, style, shots, shot_rows in cases:
            dataset, task = load_dataset(DATA / f"{name}.manifest.json")
            template = PromptTemplate(style=style, shots=shots)
            row_id, prompt, _ = build_prompts(
                dataset, task, template, seed=0, shot_rows=shot_rows
            )[0]
            assert row_id == 0
            golden = (GOLDEN / f"{style}_{name}_{shots}shot_row0.txt").read_text(
                encoding="utf-8"
            )
            assert prompt == golden, f"{style}/{name} diverged from golden file"
        tabula_creatures = (GOLDEN / "tabula_creatures_4shot_row0.txt").read_text()
        assert "<|endinput|>Dragon<|endcompletion|>" in tabula_creatures
        alpaca_prices = (GOLDEN / "alpaca_prices_4shot_row0.txt").read_text()
        assert alpaca_prices.endswith("### Response:\n")
        assert "greater than 20297.0288085" in alpaca_prices
        for name in ("creatures", "tinybin", "prices"):
            _, task = load_dataset(DATA / f"{name}.manifest.json")
            labels = list(task.labels())
            for label in labels:
                assert extract_prediction(label, labels) == label


def test_c7_planted_contamination_recovery(tmp_path):
    with criterion(7, "planted recovery on 100k-row corpus, < 60 s"):
        start = time.perf_counter()
        labor, labor_task = build_labor_dataset()
        prices, prices_task = build_price_dataset()
        workout, workout_task = build_workout_dataset()

        corpus = tmp_path / "corpus100k"
        generate_corpus(CorpusSpec(tables=100, rows_per_table=1000), seed=70, out_dir=corpus)
        ledger = PlantLedger(seed=70, corpus_id=corpus.name)
        ledger.plants.append(plant_complete_overlap(
            corpus, labor, rename_fraction=1.0, permute=True, seed=70
        ))
        ledger.plants.append(plant_direct_duplicates(
            corpus, prices, "Close", 10, copies=4, seed=70
        ))
        pair = ("2021-11-30", "Tuesday")
        plant_association(corpus, [pair], tables=12, rows_per_table=6, seed=70)

        index = build_index(corpus)
        assert index.total_rows >= 100_000

        # Complete overlap under 100% renaming + permutation: precision
        # and recall both 1.0, and the verdict is complete_overlap.
        labor_bundle, labor_verdict = scan_dataset(index, labor, labor_task, ScanConfig())
        prf = scanner_prf(ledger, {labor.id: labor_bundle.row_evidence})
        assert prf["complete"] == (1.0, 1.0)
        assert labor_verdict.category == "complete_overlap"
        assert labor_verdict.row_match_fraction == 1.0

        # Direct duplicates across 4 tables: every planted copy recovered.
        prices_bundle, prices_verdict = scan_dataset(index, prices, prices_task, ScanConfig())
        prf_direct = scanner_prf(ledger, {prices.id: prices_bundle.row_evidence})
        assert prf_direct["direct_dup"][1] == 1.0  # recall
        assert prices_verdict.category == "direct_with_labels"

        # Association search returns exactly the planted counts.
        result = association_search(index, *pair)
        assert (result.count, len(result.tables)) == (12 * 6, 12)

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"index build + scan took {elapsed:.2f}s"

        # Verdict taxonomy on single-kind corpora.
        def small_corpus(name, seed):
            root = tmp_path / name
            generate_corpus(CorpusSpec(tables=4, rows_per_table=250), seed=seed, out_dir=root)
            return root

        c_complete = small_corpus("only_complete", 71)
        plant_complete_overlap(c_complete, labor, 1.0, True, seed=71)
        _, v = scan_dataset(build_index(c_complete), labor, labor_task, ScanConfig())
        assert v.category == "complete_overlap"

        c_direct = small_corpus("only_direct", 72)
        plant_direct_duplicates(c_direct, prices, "Close", 10, copies=4, seed=72)
        _, v = scan_dataset(build_index(c_direct), prices, prices_task, ScanConfig())
        assert v.category == "direct_with_labels"

        c_assoc = small_corpus("only_assoc", 73)
        workout_pairs = sorted({
            (workout.rows[i][0], workout.rows[i][3]) for i in range(workout.row_count)
        })
        plant_association(c_assoc, workout_pairs, tables=12, rows_per_table=2, seed=73)
        _, v = scan_dataset(
            build_index(c_assoc), workout, workout_task,
            ScanConfig(association_key_column="session_date"),
        )
        assert v.category == "task_leakage"
        assert v.row_match_fraction == 0.0

        c_clean = small_corpus("clean", 74)
        _, v = scan_dataset(
            build_index(c_clean), workout, workout_task,
            ScanConfig(association_key_column="session_date"),
        )
        assert v.category == "none"


def test_c8_scale_smoke_1m_rows(tmp_path):
    with criterion(8, "1M-row sharded index scale smoke, < 10 min"):
        start = time.perf_counter()
        corpus = tmp_path / "corpus1m"
        generate_corpus(CorpusSpec(tables=100, rows_per_table=10_000), seed=80, out_dir=corpus)

        sentinels = [f"sentinel-{i}-7f3a9c" for i in range(3)]
        with open(corpus / "sentinels.csv", "w", encoding="utf-8") as handle:
            handle.write("marker,payload\n")
            for s in sentinels:
                handle.write(f"{s},x\n")

        cap = 500_000
        index = build_index(
            corpus,
            index_path=tmp_path / "big.idx",
            max_buffered_postings=cap,
        )
        assert index.total_rows >= 1_000_000
        assert index.build_stats["spills"] >= 1, "disk sharding did not engage"
        assert index.build_stats["max_buffered_postings"] == cap
        for i, s in enumerate(sentinels):
            postings = index.lookup(index.normalize(s))
            assert len(postings) == 1
            table_idx, row_id = postings[0]
            assert index.tables[table_idx].table_id == "sentinels.csv"
            assert row_id == i
        index.close()
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"1M-row generate + index took {elapsed:.2f}s"
        print(f"\n  (scale smoke completed in {elapsed:.1f}s)")


def test_c9_paper_dump_reproduction():
    """Conditional: runs only when per-dataset prediction dumps are supplied.

    Set TABAUDIT_PAPER_DUMPS to a directory containing manifests/*.json and
    predictions/*.jsonl for the 165-dataset benchmark; the audit must then
    reproduce the published aggregate metrics.
    """
    dumps = os.environ.get("TABAUDIT_PAPER_DUMPS")
    if not dumps:
        print("\nACCEPTANCE C9 [aggregate reproduction]: SKIP "
              "(conditional input not supplied; set TABAUDIT_PAPER_DUMPS)")
        pytest.skip("paper prediction dumps not supplied")
    with criterion(9, "aggregate reproduction from supplied dumps"):
        root = Path(dumps)
        tasks = {}
        golds = {}
        for manifest in sorted((root / "manifests").glob("*.json")):
            dataset, task = load_dataset(manifest)
            golds[dataset.id] = gold_labels(dataset, task)
            tasks[dataset.id] = task
        metrics = []
        for pred_file in sorted((root / "predictions").glob("*.jsonl")):
            first = json.loads(pred_file.read_text().splitlines()[0])
            preds = load_predictions(pred_file, tasks[first["dataset_id"]],
                                     golds[first["dataset_id"]])
            metrics.append(audit_dataset(preds))
        assert len(metrics) == 165
        mean = lambda xs: sum(xs) / len(xs)
        assert abs(mean([m.accuracy for m in metrics]) - 0.634) <= 0.0005
        assert abs(mean([m.majority_baseline for m in metrics]) - 0.487) <= 0.0005
        assert abs(mean([m.lift for m in metrics]) - 0.146) <= 0.0005
        assert abs(mean([m.kappa for m in metrics]) - 0.336) <= 0.0005
        assert sum(1 for m in metrics if m.lift <= 0) == 65
        task_types = {d: t.task_type.value for d, t in tasks.items()}
        summaries = {s.task_type: s for s in summarize_by_task(metrics, task_types)}
        expected = {
            "quartile": (0.356, 0.329, 10.9),
            "categorical": (0.109, -0.003, 54.5),
            "binary": (0.027, 0.025, 46.9),
        }
        for task_type, (mean_l, median_l, pct) in expected.items():
            s = summaries[task_type]
            assert abs(s.mean_lift - mean_l) <= 0.001
            assert abs(s.median_lift - median_l) <= 0.001
            assert abs(s.pct_at_or_below_baseline - pct) <= 0.1
        groups = {
            t: [m.lift for m in metrics if task_types[m.dataset_id] == t]
            for t in ("binary", "categorical", "quartile")
        }
        anova = one_way_anova(list(groups.values()))
        assert abs(anova.statistic - 30.8) <= 0.05 * 30.8
        expected_t = {
            ("quartile", "binary"): 8.73,
            ("quartile", "categorical"): 4.62,
            ("categorical", "binary"): 2.25,
        }
        for (a, b), target in expected_t.items():
            t_res = pairwise_t(groups[a], groups[b])
            assert abs(abs(t_res.statistic) - target) <= 0.05 * target
