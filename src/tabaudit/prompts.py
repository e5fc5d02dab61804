"""Prompt construction in two serialization styles, plus answer extraction.

Both styles share the same row content:

    Predict the value of {target}: ||L1||L2||...|| The {col} is {val}.
    ... What is the value of {target}? ||L1||L2||...||

"tabula" wraps each labeled example as ``{content}<|endinput|>{label}
<|endcompletion|>`` and the query as ``{content}<|endinput|>``, with a
single ``<|begin_of_text|>`` opening the prompt and examples concatenated
directly. "alpaca" wraps the identical content in the instruction frame::

    Below is an instruction that describes a task. Write a response that
    appropriately completes the request.

    ### Instruction:
    Predict the correct value based on the input.

    ### Input:

    Example 1:
    {content}
    Response: {label}

    Now complete the following:
    {content}

    ### Response:

Feature statements follow dataset column order; the value text is the
source lexical form, untouched. Missing cells emit no statement.

Stop-token trimming in :func:`extract_prediction` is this module's own
policy: surrounding whitespace and the known special tokens are stripped
before matching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .data import Cell, Dataset, TaskSpec, TaskType, parse_cell
from .defaults import SHOTS as DEFAULT_SHOTS
from .errors import InputError
from .quartile import assign_bin, bin_label

STYLE_TABULA = "tabula"
STYLE_ALPACA = "alpaca"

BEGIN_TEXT = "<|begin_of_text|>"
END_INPUT = "<|endinput|>"
END_COMPLETION = "<|endcompletion|>"

ALPACA_HEADER = (
    "Below is an instruction that describes a task. "
    "Write a response that appropriately completes the request."
)
ALPACA_INSTRUCTION = "Predict the correct value based on the input."

_STOP_TOKENS = (END_COMPLETION, END_INPUT, BEGIN_TEXT, "<|end_of_text|>", "<|eot_id|>")


@dataclass(frozen=True)
class PromptTemplate:
    style: str
    shots: int = DEFAULT_SHOTS

    def __post_init__(self) -> None:
        if self.style not in (STYLE_TABULA, STYLE_ALPACA):
            raise InputError(f"unknown prompt style {self.style!r}")
        if self.shots < 0:
            raise InputError("shots must be >= 0")


def row_content(task: TaskSpec, row: Mapping[str, Cell]) -> str:
    """Shared serialized content for one row (no framing tokens)."""
    if task.target_column not in row:
        raise InputError(
            f"row for {task.dataset_id!r} missing target column {task.target_column!r}"
        )
    blob = label_blob(task.labels())
    parts = [f"Predict the value of {task.target_column}: {blob}"]
    for col, val in row.items():
        if col == task.target_column or val is None:
            continue
        parts.append(f"The {col} is {val}.")
    parts.append(f"What is the value of {task.target_column}? {blob}")
    return " ".join(parts)


def label_blob(labels: Sequence[str]) -> str:
    return "||" + "||".join(labels) + "||"


def serialize_row(
    style: str,
    task: TaskSpec,
    row: Mapping[str, Cell],
    few_shots: Sequence[tuple[Mapping[str, Cell], str]] = (),
) -> str:
    """Build the full prompt for one query row. Byte-deterministic."""
    labels = set(task.labels())
    for _, label in few_shots:
        if label not in labels:
            raise InputError(f"few-shot label {label!r} not in the task's class set")
    shots = [(row_content(task, shot_row), label) for shot_row, label in few_shots]
    return _frame(style, shots, row_content(task, row))


def _frame(style: str, shots: Sequence[tuple[str, str]], query: str) -> str:
    """Wrap (content, label) examples and the query content in ``style``."""
    if style == STYLE_TABULA:
        pieces = [BEGIN_TEXT]
        for content, label in shots:
            pieces.append(f"{content}{END_INPUT}{label}{END_COMPLETION}")
        pieces.append(f"{query}{END_INPUT}")
        return "".join(pieces)
    if style == STYLE_ALPACA:
        if shots:
            blocks = [
                f"Example {k}:\n{content}\nResponse: {label}"
                for k, (content, label) in enumerate(shots, start=1)
            ]
            blocks.append(f"Now complete the following:\n{query}")
            input_section = "\n" + "\n\n".join(blocks)
        else:
            input_section = query
        return (
            f"{ALPACA_HEADER}\n\n"
            f"### Instruction:\n{ALPACA_INSTRUCTION}\n\n"
            f"### Input:\n{input_section}\n\n"
            f"### Response:\n"
        )
    raise InputError(f"unknown prompt style {style!r}")


def gold_label(task: TaskSpec, row: Mapping[str, Cell]) -> str:
    """Ground-truth label for a row: the target cell, or its quartile bin."""
    value = row.get(task.target_column)
    if value is None:
        raise InputError(f"row has no value for target {task.target_column!r}")
    if task.task_type is TaskType.QUARTILE:
        numeric = parse_cell(value)
        if not isinstance(numeric, float):
            raise InputError(
                f"target value {value!r} is not numeric for a quartile task"
            )
        return bin_label(task.quartile_boundaries, assign_bin(numeric, task.quartile_boundaries))
    if value not in task.labels():
        raise InputError(f"target value {value!r} not in the task's class set")
    return value


def build_prompts(
    dataset: Dataset,
    task: TaskSpec,
    template: PromptTemplate,
    seed: int = 0,
    shot_rows: Sequence[int] | None = None,
    row_ids: Sequence[int] | None = None,
) -> list[tuple[int, str, str]]:
    """Serialize (row_id, prompt, gold_label) for each requested row.

    Few-shot rows are either caller-supplied (``shot_rows``, the same
    rows, in order, for every query, except that a query row is never its
    own shot: its prompt carries one fewer example) or drawn per query row
    from a seeded RNG over the other rows. Each row's content and gold
    label are computed once per call, however many prompts it appears in.
    """
    n = dataset.row_count
    ids = list(row_ids) if row_ids is not None else list(range(n))
    rendered: dict[int, tuple[str, str]] = {}

    def render(i: int) -> tuple[str, str]:
        hit = rendered.get(i)
        if hit is None:
            record = dataset.record(i)
            hit = rendered[i] = (row_content(task, record), gold_label(task, record))
        return hit

    out = []
    for row_id in ids:
        if shot_rows is not None:
            chosen = [i for i in shot_rows if i != row_id]
        elif template.shots > 0:
            if n - 1 < template.shots:
                raise InputError(
                    f"dataset {dataset.id!r}: {template.shots} shots requested but only "
                    f"{n - 1} other rows available"
                )
            # Sampling positions in range(n - 1) and skipping row_id draws the
            # same rows from the same RNG as sampling the list of other rows.
            rng = random.Random(f"{seed}:{dataset.id}:{row_id}")
            chosen = [i + (i >= row_id) for i in rng.sample(range(n - 1), template.shots)]
        else:
            chosen = []
        shots = [render(i) for i in chosen]
        content, gold = render(row_id)
        out.append((row_id, _frame(template.style, shots, content), gold))
    return out


def extract_prediction(
    completion: str, class_labels: Sequence[str], *, case_insensitive: bool = False
) -> str | None:
    """Map a model completion to a class label, or None when nothing matches.

    Exact match (after trimming whitespace and stop tokens) wins; failing
    that, the longest label occurring as a substring wins. Longest-first
    scanning keeps short labels from matching inside longer text ("no"
    inside "nothing"). ``case_insensitive`` compares lowercased text and
    labels, and still returns the label as the task spells it.
    """
    if not class_labels:
        raise InputError("extract_prediction: empty class label list")
    fold = str.lower if case_insensitive else str  # str() of a str is itself
    text = fold(_trim(completion))
    for label in class_labels:
        if text == fold(label):
            return label
    for label in sorted(class_labels, key=len, reverse=True):
        if fold(label) in text:
            return label
    return None


def extract_prediction_ci(completion: str, class_labels: Sequence[str]) -> str | None:
    """``extract_prediction(..., case_insensitive=True)`` under its older name."""
    return extract_prediction(completion, class_labels, case_insensitive=True)


def _trim(completion: str) -> str:
    text = completion.strip()
    changed = True
    while changed:
        changed = False
        for token in _STOP_TOKENS:
            if text.startswith(token):
                text = text[len(token) :].lstrip()
                changed = True
            if text.endswith(token):
                text = text[: -len(token)].rstrip()
                changed = True
    return text
