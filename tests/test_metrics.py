import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import brute_accuracy, brute_kappa, brute_majority
from tabaudit.data import PredictionSet
from tabaudit.errors import DegenerateStatisticsError, InputError
from tabaudit.metrics import (
    accuracy,
    audit_dataset,
    cohen_kappa,
    lift,
    majority_baseline,
    recovery,
)


def make_preds(truth, preds, dataset="d", model="m"):
    return PredictionSet(dataset, model, tuple(range(len(truth))), tuple(truth), tuple(preds))


def random_prediction_set(rng, allow_invalid=True, min_classes=1):
    n = rng.randint(max(1, min_classes), 50)
    k = rng.randint(max(1, min_classes), 5)
    classes = [f"c{i}" for i in range(k)]
    truth = [rng.choice(classes) for _ in range(n)]
    while len(set(truth)) < min_classes:
        truth = [rng.choice(classes) for _ in range(n)]
    preds = []
    for _ in range(n):
        if allow_invalid and rng.random() < 0.1:
            preds.append(None)
        else:
            preds.append(rng.choice(classes))
    return truth, preds


# -- majority baseline ----------------------------------------------------------


def test_majority_single_class():
    assert majority_baseline(["A", "A", "A"]) == 1.0


def test_majority_tie():
    assert majority_baseline(["A", "B"]) == 0.5


def test_majority_two_thirds():
    assert majority_baseline(["A", "A", "B"]) == 2 / 3


def test_majority_empty():
    with pytest.raises(InputError):
        majority_baseline([])


# -- accuracy --------------------------------------------------------------------


def test_accuracy_perfect():
    ps = make_preds(["a", "b"], ["a", "b"])
    assert accuracy(ps) == 1.0


def test_accuracy_all_invalid():
    ps = make_preds(["a", "b"], [None, None])
    assert accuracy(ps) == 0.0


def test_accuracy_four_of_five():
    ps = make_preds(list("aabbb"), list("aabba"))
    assert accuracy(ps) == 0.8


# -- lift ------------------------------------------------------------------------


def test_lift_paper_rows():
    assert lift(0.958, 0.959) == pytest.approx(-0.001)
    assert lift(0.845, 0.932) == pytest.approx(-0.087)


def test_lift_identity_zero():
    for x in (0.0, 0.25, 1.0):
        assert lift(x, x) == 0.0


# -- kappa -----------------------------------------------------------------------


def test_kappa_perfect_two_classes():
    ps = make_preds(["a", "b", "a"], ["a", "b", "a"])
    assert cohen_kappa(ps) == 1.0


def test_kappa_constant_majority_prediction():
    ps = make_preds(list("aaab"), ["a"] * 4)
    assert cohen_kappa(ps) == 0.0


def test_kappa_example():
    ps = make_preds(list("AAABB"), list("AABBB"))
    assert cohen_kappa(ps) == pytest.approx(0.32 / 0.52, abs=1e-12)


def test_kappa_degenerate_agreement():
    ps = make_preds(["a", "a"], ["a", "a"])
    assert cohen_kappa(ps) == 1.0


def test_kappa_brute_force_equivalence():
    rng = random.Random(12)
    for _ in range(300):
        truth, preds = random_prediction_set(rng, min_classes=1)
        ps = make_preds(truth, preds)
        if set(truth) == {truth[0]} and all(p == truth[0] for p in preds):
            assert cohen_kappa(ps) == 1.0
            continue
        assert cohen_kappa(ps) == pytest.approx(brute_kappa(truth, preds), abs=1e-12)


def test_label_permutation_invariance():
    rng = random.Random(9)
    for _ in range(50):
        truth, preds = random_prediction_set(rng, min_classes=2)
        ps = make_preds(truth, preds)
        mapping = {c: f"z{c}" for c in set(truth) | {p for p in preds if p}}
        ps2 = make_preds(
            [mapping[t] for t in truth],
            [mapping[p] if p is not None else None for p in preds],
        )
        m1, m2 = audit_dataset(ps), audit_dataset(ps2)
        assert m1.accuracy == m2.accuracy
        assert m1.majority_baseline == m2.majority_baseline
        assert m1.lift == m2.lift
        assert m1.kappa == pytest.approx(m2.kappa, abs=1e-14)


# -- recovery --------------------------------------------------------------------


def test_recovery_identity():
    assert recovery(0.42, 0.42) == 100.0


def test_recovery_reported_values():
    assert recovery(58.6, 63.5) == pytest.approx(92.3, abs=0.2)
    assert recovery(47.7, 63.5) == pytest.approx(75.1, abs=0.2)


def test_recovery_zero_reference():
    with pytest.raises(InputError):
        recovery(0.5, 0.0)


# -- audit_dataset ----------------------------------------------------------------


def test_audit_imbalance_rider_pattern():
    truth = ["0"] * 959 + ["1"] * 41
    ps = make_preds(truth, ["0"] * 1000)
    m = audit_dataset(ps)
    assert m.accuracy == 0.959
    assert m.majority_baseline == 0.959
    assert m.lift == 0.0
    assert m.kappa == 0.0
    assert m.n == 1000


def test_audit_perfect_balanced_binary():
    ps = make_preds(["a", "b"] * 10, ["a", "b"] * 10)
    m = audit_dataset(ps)
    assert (m.accuracy, m.majority_baseline, m.lift, m.kappa) == (1.0, 0.5, 0.5, 1.0)


def test_audit_kappa_embedded():
    ps = make_preds(list("AAABB"), list("AABBB"))
    assert audit_dataset(ps).kappa == pytest.approx(0.6154, abs=1e-4)


def test_lift_identity_exact():
    rng = random.Random(4)
    for _ in range(100):
        truth, preds = random_prediction_set(rng)
        m = audit_dataset(make_preds(truth, preds))
        assert m.lift == m.accuracy - m.majority_baseline


def test_constant_prediction_law():
    rng = random.Random(8)
    for _ in range(100):
        truth, _ = random_prediction_set(rng, min_classes=2)
        target = rng.choice(sorted(set(truth)))
        m = audit_dataset(make_preds(truth, [target] * len(truth)))
        assert m.kappa == 0.0
        assert m.lift <= 0.0
        counts = {c: truth.count(c) for c in set(truth)}
        if counts[target] == max(counts.values()):
            assert m.lift == 0.0
        else:
            assert m.lift < 0.0


def test_oracle_equivalence_all_metrics():
    rng = random.Random(77)
    for _ in range(200):
        truth, preds = random_prediction_set(rng, min_classes=2)
        ps = make_preds(truth, preds)
        m = audit_dataset(ps)
        assert m.accuracy == pytest.approx(brute_accuracy(truth, preds), abs=1e-12)
        assert m.majority_baseline == pytest.approx(brute_majority(truth), abs=1e-12)
        assert m.kappa == pytest.approx(brute_kappa(truth, preds), abs=1e-12)


# The per-record metrics that the column versions replaced, kept as oracles.
def _per_record_accuracy(preds):
    correct = sum(
        1 for rec in preds.records if rec.predicted is not None and rec.predicted == rec.true_label
    )
    return correct / len(preds.records)


def _per_record_majority(true_labels):
    counts = {}
    for label in true_labels:
        counts[label] = counts.get(label, 0) + 1
    return max(counts.values()) / len(true_labels)


def _per_record_kappa(preds):
    n = len(preds.records)
    truth_counts, pred_counts = {}, {}
    agree = 0
    for rec in preds.records:
        truth_counts[rec.true_label] = truth_counts.get(rec.true_label, 0) + 1
        pred_counts[rec.predicted] = pred_counts.get(rec.predicted, 0) + 1
        if rec.predicted is not None and rec.predicted == rec.true_label:
            agree += 1
    p_o = agree / n
    p_e = sum(
        (truth_counts.get(label, 0) / n) * (count / n)
        for label, count in pred_counts.items()
        if label is not None
    )
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise DegenerateStatisticsError("degenerate")
    return (p_o - p_e) / (1.0 - p_e)


@st.composite
def _label_columns(draw):
    labels = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
    n = draw(st.integers(1, 80))
    truth = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    if draw(st.booleans()):  # one constant prediction, a label or invalid
        predicted = [draw(st.sampled_from(labels + [None]))] * n
    else:
        predicted = draw(st.lists(st.sampled_from(labels + ["zz", None]), min_size=n, max_size=n))
    return truth, predicted


@example(columns=(["a"] * 7, ["a"] * 7))  # p_e == 1 and p_o == 1
@example(columns=(["a"] * 7, [None] * 7))
@example(columns=(["a", "b", "a"], ["b", "b", "b"]))
@given(columns=_label_columns())
def test_column_metrics_equal_per_record_metrics_property(columns):
    truth, predicted = columns
    ps = make_preds(truth, predicted)
    assert accuracy(ps) == _per_record_accuracy(ps)
    assert majority_baseline(ps.true_labels) == _per_record_majority(truth)
    assert cohen_kappa(ps) == _per_record_kappa(ps)
