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

from .data import Cell, Dataset, TaskSpec, gold_labels, task_gold_label
from .defaults import SHOTS as DEFAULT_SHOTS
from .errors import InputError

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


def _frame(style: str, shots: Sequence[tuple[str, str]], query: str) -> str:
    """Wrap (content, label) examples and the query content in ``style``."""
    if style == STYLE_TABULA:
        pieces = [BEGIN_TEXT]
        for content, label in shots:
            pieces.append(f"{content}{END_INPUT}{label}{END_COMPLETION}")
        pieces.append(f"{query}{END_INPUT}")
        return "".join(pieces)
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


def build_prompts(
    dataset: Dataset,
    task: TaskSpec,
    template: PromptTemplate,
    seed: int = 0,
    shot_rows: Sequence[int] | None = None,
) -> list[tuple[int, str, str]]:
    """Serialize (row_id, prompt, gold_label) for each row in the task, in row order.

    Gold labels are :func:`~tabaudit.data.gold_labels`; a row outside the
    task (gold label ``None``) gets no prompt. Few-shot rows are either
    caller-supplied (``shot_rows``, which must lie in the task, as
    :func:`~tabaudit.data.task_gold_label` checks: the same rows, in
    order, for every query, except that a query row is never its own
    shot, so its prompt carries one fewer example) or drawn per query row
    from a seeded RNG over the other rows in the task. Each row in the
    task is rendered once, before the first prompt is framed.
    """
    gold = gold_labels(dataset, task)
    for i in shot_rows or ():
        task_gold_label(gold, i, dataset.id, "shot_rows")
    pool = [i for i, label in enumerate(gold) if label is not None]
    if shot_rows is None and pool and len(pool) - 1 < template.shots:
        raise InputError(
            f"dataset {dataset.id!r}: {template.shots} shots requested but only "
            f"{len(pool) - 1} other rows in the task available"
        )
    examples = {i: (row_content(task, dataset.record(i)), gold[i]) for i in pool}
    out = []
    for own, row_id in enumerate(pool):
        if shot_rows is not None:
            chosen = [i for i in shot_rows if i != row_id]
        elif template.shots > 0:
            # Sampling positions in range(len(pool) - 1) and skipping the
            # query's own position draws the same rows from the same RNG as
            # sampling the list of the other rows; with every row in the
            # task, the positions are the row ids.
            rng = random.Random(f"{seed}:{dataset.id}:{row_id}")
            chosen = [pool[k + (k >= own)]
                      for k in rng.sample(range(len(pool) - 1), template.shots)]
        else:
            chosen = []
        content, label = examples[row_id]
        out.append((row_id, _frame(template.style, [examples[i] for i in chosen], content), label))
    return out


def extract_prediction(
    completion: str, class_labels: Sequence[str], *, case_insensitive: bool = False
) -> str | None:
    """Map a model completion to a class label, or None when nothing matches.

    The first of :func:`label_matches`: an exact match (after trimming
    whitespace and stop tokens) wins; failing that, the longest label
    occurring as a substring wins. Longest-first scanning keeps short
    labels from matching inside longer text ("no" inside "nothing").
    ``case_insensitive`` compares lowercased text and labels, and still
    returns the label as the task spells it.
    """
    matches = label_matches(completion, class_labels, case_insensitive=case_insensitive)
    return matches[0] if matches else None


def label_matches(
    completion: str, class_labels: Sequence[str], *, case_insensitive: bool = False
) -> tuple[str, ...]:
    """The labels a completion names, best first: its exact match alone,
    else every label occurring in it as a substring, longest first.

    More than one match means the completion is ambiguous ("no, not yes"
    names both labels; :func:`extract_prediction` takes "yes", the longer).
    """
    if not class_labels:
        raise InputError("extract_prediction: empty class label list")
    fold = str.lower if case_insensitive else str  # str() of a str is itself
    text = fold(_trim(completion))
    for label in class_labels:
        if text == fold(label):
            return (label,)
    return tuple(
        label for label in sorted(class_labels, key=len, reverse=True) if fold(label) in text
    )


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
