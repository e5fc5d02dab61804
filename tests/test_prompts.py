import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabaudit.data import Dataset, TaskSpec, TaskType, gold_labels, load_dataset
from tabaudit.errors import InputError
from tabaudit.prompts import (
    PromptTemplate,
    build_prompts,
    extract_prediction,
    extract_prediction_ci,
    row_content,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("creatures", "tabula", 4, [1, 2, 3, 4]),
    ("creatures", "alpaca", 4, [1, 2, 3, 4]),
    ("tinybin", "tabula", 0, None),
    ("prices", "tabula", 4, [1, 2, 3, 4]),
    ("prices", "alpaca", 4, [1, 2, 3, 4]),
]


def build_case(name, style, shots, shot_rows):
    dataset, task = load_dataset(DATA / f"{name}.manifest.json")
    template = PromptTemplate(style=style, shots=shots)
    rows = build_prompts(dataset, task, template, seed=0, shot_rows=shot_rows)
    assert rows[0][0] == 0
    return dataset, task, rows[0]


@pytest.mark.parametrize("name,style,shots,shot_rows", GOLDEN_CASES)
def test_golden_prompts_byte_exact(name, style, shots, shot_rows):
    _, _, (row_id, prompt, gold) = build_case(name, style, shots, shot_rows)
    golden = (GOLDEN / f"{style}_{name}_{shots}shot_row0.txt").read_text(encoding="utf-8")
    assert prompt == golden


def test_tabula_minimal_structure():
    _, _, (_, prompt, _) = build_case("tinybin", "tabula", 0, None)
    assert prompt.count("The hue is red.") == 1
    assert prompt.count("<|endinput|>") == 1
    assert prompt.endswith("<|endinput|>")
    assert "<|endcompletion|>" not in prompt


def test_tabula_fewshot_answer_segment():
    _, _, (_, prompt, _) = build_case("creatures", "tabula", 4, [1, 2, 3, 4])
    assert "<|endinput|>Dragon<|endcompletion|>" in prompt
    assert prompt.startswith("<|begin_of_text|>")
    assert prompt.count("<|endcompletion|>") == 4


def test_alpaca_frame():
    _, _, (_, prompt, _) = build_case("creatures", "alpaca", 4, [1, 2, 3, 4])
    assert prompt.startswith("Below is an instruction that describes a task.")
    assert "### Instruction:" in prompt
    assert "### Input:" in prompt
    assert prompt.endswith("### Response:\n")
    for k in range(1, 5):
        assert f"Example {k}:" in prompt
    assert "Example 5:" not in prompt


def test_alpaca_zero_shot_has_no_example_blocks():
    _, _, (_, prompt, _) = build_case("tinybin", "alpaca", 0, None)
    assert "Example" not in prompt
    assert "Now complete the following:" not in prompt
    assert prompt.endswith("### Response:\n")


def test_quartile_bin_label_in_prompt():
    _, _, (_, prompt, gold) = build_case("prices", "tabula", 4, [1, 2, 3, 4])
    assert "greater than 20297.0288085" in prompt
    assert gold == "greater than 20297.0288085"


def test_content_parity_between_styles():
    dataset, task = load_dataset(DATA / "creatures.manifest.json")
    content = row_content(task, dataset.record(0))
    for style in ("tabula", "alpaca"):
        (row_id, prompt, _), *_ = build_prompts(dataset, task, PromptTemplate(style, shots=0))
        assert row_id == 0
        assert content in prompt


def test_determinism_seeded_shots():
    dataset, task = load_dataset(DATA / "creatures.manifest.json")
    template = PromptTemplate(style="tabula", shots=2)
    a = build_prompts(dataset, task, template, seed=9)
    b = build_prompts(dataset, task, template, seed=9)
    assert a == b
    c = build_prompts(dataset, task, template, seed=10)
    assert a != c


def test_missing_cell_emits_no_statement():
    task = TaskSpec("d", TaskType.BINARY, "y", ("0", "1"))
    dataset = Dataset(id="d", columns=("a", "b", "y"), rows=((None, "7", "1"),))
    [(_, prompt, _)] = build_prompts(dataset, task, PromptTemplate("tabula", shots=0))
    assert "The a is" not in prompt
    assert "The b is 7." in prompt


def test_missing_target_column_rejected():
    task = TaskSpec("d", TaskType.BINARY, "y", ("0", "1"))
    with pytest.raises(InputError, match="target column"):
        row_content(task, {"a": "1"})


def test_insufficient_shot_pool_rejected():
    dataset, task = load_dataset(DATA / "tinybin.manifest.json")
    template = PromptTemplate(style="tabula", shots=4)
    with pytest.raises(InputError, match="shots"):
        build_prompts(dataset, task, template)


def test_fixed_shot_rows_skip_the_query_row():
    dataset, task = load_dataset(DATA / "creatures.manifest.json")
    template = PromptTemplate(style="tabula", shots=4)
    prompts = build_prompts(dataset, task, template, shot_rows=[1, 2, 3, 4])
    (_, other, _), (row_id, own, gold) = prompts[:2]
    assert (row_id, gold) == (1, "Dragon")
    assert other.count("<|endcompletion|>") == 4
    # Row 1 is not its own example: its prompt has the three other shots.
    assert own.count("<|endcompletion|>") == 3
    assert "Dragon<|endcompletion|>" not in own
    assert own.count(row_content(task, dataset.record(1))) == 1
    assert own == build_prompts(dataset, task, template, shot_rows=[2, 3, 4])[1][1]


def test_fixed_shot_rows_out_of_range_rejected():
    dataset, task = load_dataset(DATA / "creatures.manifest.json")
    template = PromptTemplate(style="tabula", shots=4)
    for bad in (6, -1):
        message = rf"shot_rows: row_id {bad} out of range for dataset 'creatures' \(6 rows\)"
        with pytest.raises(InputError, match=message):
            build_prompts(dataset, task, template, shot_rows=[1, bad])


def reference_prompt(dataset, task, template, seed, row_id):
    """The original few-shot draw: sample from the explicit list of the other
    rows in the task, and give those rows as fixed shots."""
    gold = gold_labels(dataset, task)
    pool = [i for i in range(dataset.row_count) if i != row_id and gold[i] is not None]
    rng = random.Random(f"{seed}:{dataset.id}:{row_id}")
    chosen = rng.sample(pool, template.shots)
    prompts = build_prompts(dataset, task, template, shot_rows=chosen)
    return next(row for row in prompts if row[0] == row_id)


@st.composite
def fewshot_cases(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    cell = st.one_of(st.none(), st.sampled_from(["0", "7", "x y", "1.5"]))
    # A missing target puts its row outside the task.
    target = st.sampled_from(["yes", "no"] * 4 + [None]) if draw(st.booleans()) else (
        st.sampled_from(["yes", "no"]))
    rows = tuple((draw(cell), draw(cell), draw(target)) for _ in range(n))
    dataset = Dataset(id=draw(st.sampled_from(["d", "other"])), columns=("a", "b", "y"), rows=rows)
    in_task = sum(row[2] is not None for row in rows)
    shots = draw(st.integers(min_value=0, max_value=max(0, in_task - 1)))
    style = draw(st.sampled_from(["tabula", "alpaca"]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return dataset, PromptTemplate(style=style, shots=shots), seed


@given(fewshot_cases())
def test_fewshot_draw_matches_reference(case):
    dataset, template, seed = case
    task = TaskSpec(dataset.id, TaskType.BINARY, "y", ("yes", "no"))
    got = build_prompts(dataset, task, template, seed=seed)
    assert got == [
        reference_prompt(dataset, task, template, seed, row_id)
        for row_id in range(dataset.row_count)
        if dataset.rows[row_id][2] is not None
    ]


# -- extraction -----------------------------------------------------------------


def test_extract_exact():
    assert extract_prediction("Dragon", ["Water", "Dragon"]) == "Dragon"


def test_extract_trims_whitespace_and_stop_tokens():
    assert extract_prediction(" yes \n", ["yes", "no"]) == "yes"
    assert extract_prediction("no<|endcompletion|>", ["yes", "no"]) == "no"
    assert extract_prediction("<|begin_of_text|> yes", ["yes", "no"]) == "yes"


def test_extract_substring_longest_wins():
    labels = ["less than 2.75", "between 2.75 and 4.5"]
    assert extract_prediction("The answer is between 2.75 and 4.5", labels) == "between 2.75 and 4.5"


def test_extract_short_label_not_matched_inside_longer_text():
    # "no" must not match inside "nothing" when "nothing" is itself a label.
    assert extract_prediction("nothing", ["no", "nothing"]) == "nothing"


def test_extract_invalid():
    assert extract_prediction("Banana", ["yes", "no"]) is None


def test_extract_case_sensitivity():
    assert extract_prediction("YES", ["yes", "no"]) is None
    assert extract_prediction_ci("YES", ["yes", "no"]) == "yes"


@pytest.mark.parametrize("name", ["creatures", "tinybin", "prices"])
def test_extract_roundtrip_every_label(name):
    _, task = load_dataset(DATA / f"{name}.manifest.json")
    for label in task.labels():
        assert extract_prediction(label, list(task.labels())) == label
