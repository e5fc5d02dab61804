"""Output checks for every benchmarked tabaudit operation, and their oracles.

An operation counts as failed when its output differs from what the
benchmark expects. Expectations come from the generator's plant ledger
and from small independent oracles written here from the documented
formats: audit metrics, quartile boundaries and shortcut accuracies, and
the two prompt styles. Prompt files are compared by SHA-256 digest with
the bytes the reference serializer gives for the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path


class CheckFailed(Exception):
    """An operation's output is not what the workload expects."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _read_jsonl(path: Path) -> list:
    try:
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


# -- oracles -------------------------------------------------------------------

_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def numeric(cell: str | None) -> float | None:
    if cell is None or not _NUMBER.fullmatch(cell.strip()):
        return None
    return float(cell)


def quartile_bins(values: list[float]) -> tuple[float, float, float]:
    """Quantiles at 0.25/0.5/0.75, linear interpolation at p * (n - 1)."""
    xs = sorted(values)

    def at(p: float) -> float:
        pos = p * (len(xs) - 1)
        lo = math.floor(pos)
        frac = pos - lo
        return xs[lo] if frac == 0.0 else xs[lo] + frac * (xs[lo + 1] - xs[lo])

    return (at(0.25), at(0.5), at(0.75))


def bin_labels(b: tuple[float, float, float]) -> list[str]:
    return [f"less than {b[0]!r}", f"between {b[0]!r} and {b[1]!r}",
            f"between {b[1]!r} and {b[2]!r}", f"greater than {b[2]!r}"]


def assign_bin(value: float, b: tuple[float, float, float]) -> int:
    return sum(1 for q in b if value >= q)


def audit_oracle(pairs: list[tuple[str, str | None]]) -> tuple[float, float, float, float, int]:
    """(accuracy, majority baseline, lift, kappa, n) from (truth, prediction) pairs.

    An invalid prediction (None) is wrong and forms its own prediction
    category, which never agrees with a true label.
    """
    n = len(pairs)
    truth: dict[str, int] = {}
    pred: dict[str | None, int] = {}
    for t, p in pairs:
        truth[t] = truth.get(t, 0) + 1
        pred[p] = pred.get(p, 0) + 1
    acc = sum(1 for t, p in pairs if p == t) / n
    majority = max(truth.values()) / n
    p_e = sum(truth.get(lab, 0) / n * c / n for lab, c in pred.items() if lab is not None)
    kappa = 1.0 if p_e == 1.0 else (acc - p_e) / (1.0 - p_e)
    return acc, majority, acc - majority, kappa, n


def quartile_oracle(ds) -> dict:
    """Boundaries and single-feature shortcut findings gen-quartile must report."""
    tj = ds.columns.index(ds.target)
    b = quartile_bins([v for v in (numeric(r[tj]) for r in ds.rows) if v is not None])
    findings = []
    for j, name in enumerate(ds.columns):
        cells = [r[j] for r in ds.rows if r[j] is not None]
        if j == tj or not cells or any(numeric(c) is None for c in cells):
            continue
        agree = n_eval = 0
        for r in ds.rows:
            t, f = numeric(r[tj]), numeric(r[j])
            if t is None or f is None:
                continue
            n_eval += 1
            agree += assign_bin(f, b) == assign_bin(t, b)
        acc = agree / n_eval if n_eval else 0.0
        findings.append({"feature": name, "n_evaluated": n_eval, "bin_accuracy": acc,
                         "flagged": n_eval > 0 and acc >= 0.9})
    return {"dataset_id": ds.id, "boundaries": list(b), "findings": findings}


def evidence(strategy: str, matched, overlap: float, test_row_id, exposed: bool,
             exposed_value) -> dict:
    """One evidence JSONL record as the scan writes it."""
    return {"strategy": strategy, "matched": [[t, r] for t, r in matched],
            "overlap": overlap, "test_row_id": test_row_id,
            "label_exposed": exposed, "exposed_value": exposed_value}


BEGIN, END_INPUT, END_COMPLETION = "<|begin_of_text|>", "<|endinput|>", "<|endcompletion|>"
ALPACA_HEADER = ("Below is an instruction that describes a task. "
                 "Write a response that appropriately completes the request.")
ALPACA_INSTRUCTION = "Predict the correct value based on the input."


def _content(ds, row) -> str:
    blob = "||" + "||".join(ds.label_set()) + "||"
    parts = [f"Predict the value of {ds.target}: {blob}"]
    parts += [f"The {c} is {v}." for c, v in zip(ds.columns, row)
              if c != ds.target and v is not None]
    parts.append(f"What is the value of {ds.target}? {blob}")
    return " ".join(parts)


def reference_prompt(ds, style: str, row_id: int, shots: int, seed: int) -> str:
    """A k-shot prompt per the serialization documented in tabaudit.prompts.

    Shots are drawn with ``random.Random(f"{seed}:{id}:{row_id}")`` from
    the other rows: sampling ``range(n - 1)`` and skipping the query row
    draws the same rows as sampling the list of other rows.
    """
    rng = random.Random(f"{seed}:{ds.id}:{row_id}")
    chosen = [i + (i >= row_id) for i in rng.sample(range(len(ds.rows) - 1), shots)]
    examples = [(_content(ds, ds.rows[i]), ds.gold(ds.rows[i])) for i in chosen]
    query = _content(ds, ds.rows[row_id])
    if style == "tabula":
        return (BEGIN + "".join(f"{c}{END_INPUT}{lab}{END_COMPLETION}" for c, lab in examples)
                + f"{query}{END_INPUT}")
    blocks = [f"Example {k}:\n{c}\nResponse: {lab}" for k, (c, lab) in enumerate(examples, 1)]
    blocks.append(f"Now complete the following:\n{query}")
    section = "\n" + "\n\n".join(blocks) if examples else query
    return (f"{ALPACA_HEADER}\n\n### Instruction:\n{ALPACA_INSTRUCTION}\n\n"
            f"### Input:\n{section}\n\n### Response:\n")


def prompt_digest(ds, style: str, shots: int, seed: int) -> str:
    digest = hashlib.sha256()
    for row_id, row in enumerate(ds.rows):
        line = json.dumps({"row_id": row_id, "prompt": reference_prompt(ds, style, row_id,
                                                                        shots, seed),
                           "gold_label": ds.gold(row)}, sort_keys=True)
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def extraction_file(ds, completions, model_id: str) -> bytes:
    """The prediction file --extract-completions must write."""
    lines = [json.dumps({"dataset_id": ds.id, "row_id": row_id,
                         "true_label": ds.gold(ds.rows[row_id]), "predicted_label": want,
                         "model_id": model_id}, sort_keys=True) + "\n"
             for row_id, _text, want in completions]
    return "".join(lines).encode("utf-8")


# -- checks ----------------------------------------------------------------------


def check_version(stdout: str) -> None:
    _require(stdout.startswith("tabaudit "), f"--version printed {stdout!r}")


_INDEX_LINE = re.compile(r"indexed (\d+)/(\d+) files, (\d+) rows, (\d+) postings, (\d+) shard spills")


def check_index(stdout: str, index_file: Path, n_files: int, n_rows: int,
                probes, misses, spill: bool) -> None:
    """Counts as planned, and every probed value found at its (table, row)."""
    from tabaudit.contam import CorpusIndex, normalize_cell

    m = _INDEX_LINE.search(stdout)
    _require(m is not None, f"index printed {stdout!r}")
    indexed, present, rows, _postings, spills = map(int, m.groups())
    _require((indexed, present, rows) == (n_files, n_files, n_rows),
             f"indexed {indexed}/{present} files, {rows} rows; want {n_files} files, {n_rows} rows")
    _require((spills > 0) == spill, f"{spills} spills, spill path expected: {spill}")
    check_lookups(CorpusIndex.load(index_file), normalize_cell, probes, misses)


def check_lookups(index, normalize, probes, misses) -> None:
    try:
        for value, table_id, row in probes:
            postings = index.lookup(normalize(value))
            _require((index.table_index[table_id], row) in postings,
                     f"lookup({value!r}) misses {table_id}:{row}")
            _require(index.frequency(normalize(value)) == len(postings),
                     f"frequency({value!r}) != len(lookup)")
        for value in misses:
            _require(index.lookup(normalize(value)) == [], f"lookup({value!r}) not empty")
    finally:
        index.close()


def check_scan(out: Path, expected: dict[str, dict]) -> None:
    """Evidence files equal the ledger line for line; verdicts as planted."""
    for dataset_id, want in expected.items():
        got = _read_jsonl(out / f"evidence_{dataset_id}.jsonl")
        _require(len(got) == len(want["evidence"]),
                 f"{dataset_id}: {len(got)} evidence lines, want {len(want['evidence'])}")
        for i, (g, w) in enumerate(zip(got, want["evidence"])):
            _require(g == w, f"{dataset_id}: evidence line {i}: {g} != {w}")
        verdict = _read_json(out / f"verdict_{dataset_id}.json")
        for key, value in want["verdict"].items():
            _require(verdict.get(key) == value,
                     f"{dataset_id}: verdict {key} {verdict.get(key)!r}, want {value!r}")
    coverage = _read_json(out / "report.json")["contamination"]["coverage"]["fraction"]
    _require(coverage == 1.0, f"coverage {coverage}")


def check_audit(out: Path, expected: dict[str, tuple]) -> None:
    """Per-dataset accuracy, majority baseline, lift and kappa match the oracle."""
    rows = {d["dataset_id"]: d for d in _read_json(out / "report.json").get("datasets", [])}
    _require(set(rows) == set(expected), f"audit reported {len(rows)} datasets, want {len(expected)}")
    for dataset_id, (acc, maj, lift, kappa, n) in expected.items():
        d = rows[dataset_id]
        for key, want in (("accuracy", acc), ("majority_baseline", maj), ("lift", lift),
                          ("kappa", kappa)):
            _require(abs(d[key] - want) <= 1e-12, f"{dataset_id}: {key} {d[key]} != {want}")
        _require(d["n"] == n, f"{dataset_id}: n {d['n']} != {n}")


def check_prompts(out: Path, expected: dict[str, tuple]) -> None:
    """Prompt count, gold labels and the digest of the prompt file bytes."""
    for name, (count, golds, digest) in expected.items():
        path = out / name
        lines = _read_jsonl(path)
        _require(len(lines) == count, f"{name}: {len(lines)} prompts, want {count}")
        _require([d["gold_label"] for d in lines] == golds, f"{name}: gold labels differ")
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        _require(got == digest, f"{name}: digest {got[:12]} != {digest[:12]}")


def check_file(path: Path, want: bytes) -> None:
    try:
        got = path.read_bytes()
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None
    _require(got == want, f"{path.name} differs from the expected {len(want)} bytes")


def check_gen_quartile(out: Path, expected: list[dict]) -> None:
    reports = _read_json(out / "report.json").get("shortcut_reports", [])
    _require(len(reports) == len(expected), f"{len(reports)} shortcut reports, want {len(expected)}")
    for got, want in zip(reports, expected):
        picked = {"dataset_id": got["dataset_id"], "boundaries": got["boundaries"],
                  "findings": [{k: f[k] for k in ("feature", "n_evaluated", "bin_accuracy",
                                                  "flagged")} for f in got["findings"]]}
        _require(picked == want, f"{want['dataset_id']}: quartile report differs")
