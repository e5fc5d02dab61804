import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabaudit.data import Dataset, TaskSpec, TaskType, gold_labels, load_dataset
from tabaudit.errors import InputError
from tabaudit.prompts import (
    ALPACA_HEADER,
    ALPACA_INSTRUCTION,
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


def reference_prompt(dataset, task, template, seed, row_id, shot_rows=None):
    """The prompt as the module docstring states it: the fixed shot rows other
    than the query row, or a draw from the explicit list of the other rows in
    the task, each row rendered and framed on its own."""
    gold = gold_labels(dataset, task)
    if shot_rows is not None:
        chosen = [i for i in shot_rows if i != row_id]
    else:
        others = [i for i in range(dataset.row_count) if i != row_id and gold[i] is not None]
        chosen = random.Random(f"{seed}:{dataset.id}:{row_id}").sample(others, template.shots)
    shots = [(row_content(task, dataset.record(i)), gold[i]) for i in chosen]
    query = row_content(task, dataset.record(row_id))
    if template.style == "tabula":
        prompt = "<|begin_of_text|>" + "".join(
            f"{content}<|endinput|>{label}<|endcompletion|>" for content, label in shots
        ) + f"{query}<|endinput|>"
    else:
        blocks = [f"Example {k}:\n{content}\nResponse: {label}"
                  for k, (content, label) in enumerate(shots, start=1)]
        section = "\n" + "\n\n".join([*blocks, f"Now complete the following:\n{query}"])
        prompt = (f"{ALPACA_HEADER}\n\n### Instruction:\n{ALPACA_INSTRUCTION}\n\n"
                  f"### Input:\n{section if shots else query}\n\n### Response:\n")
    return row_id, prompt, gold[row_id]


@st.composite
def fewshot_cases(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    cell = st.one_of(st.none(), st.sampled_from(["0", "7", "x y", "1.5"]))
    dataset_id = draw(st.sampled_from(["d", "other"]))
    # A missing target, and for a quartile task a text or non-finite one,
    # puts its row outside the task; so may every row's.
    if draw(st.booleans()):
        task = TaskSpec(dataset_id, TaskType.QUARTILE, "y", quartile_boundaries=(2.0, 5.0, 10.0))
        inside = ["1", "3", "6.5", "12"]
        outside = [None, "x", "inf", "nan"]
    else:
        task = TaskSpec(dataset_id, TaskType.BINARY, "y", ("yes", "no"))
        inside, outside = ["yes", "no"], [None]
    target = draw(st.sampled_from([
        st.sampled_from(inside), st.sampled_from(inside * 4 + outside), st.sampled_from(outside),
    ]))
    rows = tuple((draw(cell), draw(cell), draw(target)) for _ in range(n))
    dataset = Dataset(id=dataset_id, columns=("a", "b", "y"), rows=rows)
    in_task = [i for i, label in enumerate(gold_labels(dataset, task)) if label is not None]
    # Up to two shots more than the other rows in the task can give.
    shots = draw(st.integers(min_value=0, max_value=len(in_task) + 1))
    # Fixed shot rows lie in the task and may include query rows.
    shot_rows = draw(st.none() | st.lists(st.sampled_from(in_task), max_size=5)) if in_task else None
    style = draw(st.sampled_from(["tabula", "alpaca"]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return dataset, task, PromptTemplate(style=style, shots=shots), seed, shot_rows


@given(fewshot_cases())
def test_fewshot_draw_matches_reference(case):
    dataset, task, template, seed, shot_rows = case
    in_task = [i for i, label in enumerate(gold_labels(dataset, task)) if label is not None]
    if shot_rows is None and len(in_task) - 1 < template.shots and in_task:
        with pytest.raises(InputError) as refused:
            build_prompts(dataset, task, template, seed=seed)
        assert str(refused.value) == (
            f"dataset {dataset.id!r}: {template.shots} shots requested but only "
            f"{len(in_task) - 1} other rows in the task available"
        )
        return
    got = build_prompts(dataset, task, template, seed=seed, shot_rows=shot_rows)
    assert got == [reference_prompt(dataset, task, template, seed, row_id, shot_rows)
                   for row_id in in_task]


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
