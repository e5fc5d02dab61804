"""Command-line entry point.

Subcommands: audit, scan, index, gen-quartile, serialize,
testbed {gen,eval}, report render. Every threshold is settable via a
long-form flag or a flat JSON config file (flags win) and is echoed into
the report. The output directory comes from --out, else the TABAUDIT_OUT
environment variable, else ./audit_out.

Exit codes: 0 success, 1 usage error, 2 input validation failure,
3 computation/degenerate-statistics failure, 4 partial corpus scan
(coverage below the configured floor).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

# Each cmd_* imports the modules it runs, so no command pays start-up time
# for another's; the parser's defaults come from the light `defaults`.
from . import __version__, defaults
from .errors import ComputationError, DegenerateStatisticsError, InputError

log = logging.getLogger("tabaudit")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_PARTIAL_SCAN = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    # Global flags spelled out: the --config pre-parse then finds what this parser does.
    parser = _Parser(prog="tabaudit", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"tabaudit {__version__}")
    parser.add_argument("--config", help="flat JSON config file; flags override it")
    parser.add_argument("--out", help="output directory (default: $TABAUDIT_OUT or ./audit_out)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="compute metrics and task-type stratification")
    p_audit.add_argument("--manifest", action="append", required=True, dest="manifests")
    p_audit.add_argument("--predictions", action="append", required=True)
    p_audit.add_argument("--model", help="primary model id (default: sole model present)")
    p_audit.add_argument("--reference-model", help="reference model for the recovery column")
    p_audit.add_argument("--partition", help="JSON file mapping dataset_id -> group")
    p_audit.add_argument("--gap-models", nargs=2, metavar=("A", "B"),
                         help="two model ids for the partitioned lift-gap table")
    p_audit.add_argument("--min-majority", type=float, default=defaults.MIN_MAJORITY)
    p_audit.add_argument("--max-lift", type=float, default=defaults.MAX_LIFT)
    p_audit.set_defaults(run=cmd_audit)

    p_index = sub.add_parser("index", help="build a corpus index file")
    p_index.add_argument("--corpus", required=True)
    p_index.add_argument("--index-path", required=True)
    p_index.add_argument("--filter", action="append", dest="filters")
    p_index.add_argument("--max-buffered", type=int, default=defaults.MAX_BUFFERED)
    p_index.add_argument("--fold-dates", action="store_true")
    p_index.set_defaults(run=cmd_index)

    p_scan = sub.add_parser("scan", help="scan a corpus for contamination")
    group = p_scan.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus")
    group.add_argument("--index")
    p_scan.add_argument("--manifest", action="append", required=True, dest="manifests")
    p_scan.add_argument("--min-overlap", type=float, default=defaults.MIN_OVERLAP)
    p_scan.add_argument("--min-distinctive", type=int, default=defaults.MIN_DISTINCTIVE)
    p_scan.add_argument("--selectivity-fraction", type=float,
                        default=defaults.SELECTIVITY_FRACTION)
    p_scan.add_argument("--complete-threshold", type=float,
                        default=defaults.COMPLETE_THRESHOLD)
    p_scan.add_argument("--table-diversity", type=int, default=defaults.DIVERSITY_THRESHOLD)
    p_scan.add_argument("--id-column", help="column of distinctive identifiers to probe")
    p_scan.add_argument("--assoc-key-column",
                        help="key column for task-level association probes")
    p_scan.add_argument("--assoc-probes", type=int, default=25)
    p_scan.add_argument("--coverage-floor", type=float, default=1.0)
    p_scan.add_argument("--max-buffered", type=int, default=defaults.MAX_BUFFERED)
    p_scan.add_argument("--fold-dates", action="store_true")
    p_scan.set_defaults(run=cmd_scan)

    p_gen = sub.add_parser("gen-quartile", help="build quartile tasks and audit shortcuts")
    p_gen.add_argument("--manifest", action="append", required=True, dest="manifests")
    p_gen.add_argument("--shortcut-threshold", type=float,
                       default=defaults.SHORTCUT_THRESHOLD)
    p_gen.set_defaults(run=cmd_gen_quartile)

    p_ser = sub.add_parser("serialize", help="emit prompt files for external model runners")
    p_ser.add_argument("--manifest", action="append", required=True, dest="manifests")
    p_ser.add_argument("--style", choices=["tabula", "alpaca"], required=True)
    p_ser.add_argument("--shots", type=int, default=defaults.SHOTS)
    p_ser.add_argument("--seed", type=int, default=0)
    p_ser.add_argument("--shot-rows",
                       help="comma-separated row ids used as shots for every other query row")
    p_ser.add_argument("--extract-completions", metavar="FILE",
                       help="instead of emitting prompts, map a completions JSONL "
                            "({row_id, completion}) back to a prediction file")
    p_ser.add_argument("--model-id", default="model",
                       help="model id stamped into extracted prediction records")
    p_ser.add_argument("--case-insensitive", action="store_true",
                       help="extraction matches labels case-insensitively")
    p_ser.set_defaults(run=cmd_serialize)

    p_tb = sub.add_parser("testbed", help="synthetic corpora with planted contamination")
    tb_sub = p_tb.add_subparsers(dest="testbed_command", required=True)
    tb_gen = tb_sub.add_parser("gen", help="generate a corpus and plant ledger")
    tb_gen.add_argument("--tables", type=int, default=10)
    tb_gen.add_argument("--rows", type=int, default=100)
    tb_gen.add_argument("--cols", type=int, default=4)
    tb_gen.add_argument("--seed", type=int, default=0)
    tb_gen.add_argument("--plant-complete", metavar="MANIFEST",
                        help="plant a full dataset copy (complete overlap)")
    tb_gen.add_argument("--rename-fraction", type=float, default=1.0)
    tb_gen.add_argument("--no-permute", action="store_true")
    tb_gen.add_argument("--plant-duplicates", metavar="MANIFEST",
                        help="plant labeled rows into multiple tables")
    tb_gen.add_argument("--dup-rows", type=int, default=10)
    tb_gen.add_argument("--copies", type=int, default=4)
    tb_gen.add_argument("--plant-association", action="append", metavar="KEY=TARGET",
                        help="plant a co-occurring value pair (repeatable)")
    tb_gen.add_argument("--assoc-tables", type=int, default=12)
    tb_gen.add_argument("--assoc-rows", type=int, default=4)
    tb_gen.set_defaults(run=cmd_testbed_gen)
    tb_eval = tb_sub.add_parser("eval", help="score scanner evidence against a ledger")
    tb_eval.add_argument("--ledger", required=True)
    tb_eval.add_argument("--evidence", action="append", required=True,
                         metavar="DATASET=FILE",
                         help="evidence JSONL per scanned dataset (repeatable)")
    tb_eval.set_defaults(run=cmd_testbed_eval)

    p_rep = sub.add_parser("report", help="re-render reports")
    rep_sub = p_rep.add_subparsers(dest="report_command", required=True)
    rep_render = rep_sub.add_parser("render", help="render report.md from report.json")
    rep_render.add_argument("--report", required=True)
    rep_render.set_defaults(run=cmd_report_render)

    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Find --config, make its values the flags' defaults, then parse once.

    So an explicit flag wins, and a flag the config supplies is no longer
    required. Two kinds of config value are filled in after the parse, and
    only where no flag was given: a list, as argparse would append a
    repeatable flag to a copy of its default, and a member of a mutually
    exclusive group (scan's --corpus/--index), which any flag of its
    group displaces.
    """
    pre = _Parser(prog="tabaudit --config", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    late, exclusive = {}, {}
    if path:
        from .data import read_json

        config = read_json(path, "config file")
        if not isinstance(config, dict):
            raise InputError(f"config file {path} must hold a flat JSON object")
        parsers = [parser, *_iter_subparsers(parser)]
        # Only flags are settable: not --config itself, --help, --version or a subcommand.
        actions = [a for p in parsers for a in p._actions if a.option_strings
                   and a.dest != "config"
                   and not isinstance(a, (argparse._HelpAction, argparse._VersionAction))]
        unknown = set(config) - {action.dest for action in actions}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        supplied = {dest for dest, value in config.items() if value not in (None, [])}
        for action in actions:
            expected = action.dest in config and _config_misfit(action, config[action.dest])
            if expected:
                raise InputError(f"config file {path}: {action.dest!r} must be {expected}")
            if action.dest in supplied:
                action.required = False
        for group in (g for p in parsers for g in p._mutually_exclusive_groups):
            members = [a.dest for a in group._group_actions]
            exclusive.update(dict.fromkeys(members, members))
            if len(supplied.intersection(members)) == 1:  # two leave the choice to a flag
                group.required = False
        late = {a.dest: config[a.dest] for a in actions if a.dest in config and (
            isinstance(a, argparse._AppendAction) or a.dest in exclusive)}
        for p in parsers:
            p.set_defaults(**{a.dest: config[a.dest] for a in p._actions
                              if a.dest in config and a.dest not in late})
    args = parser.parse_args(argv)
    for dest, value in late.items():
        if getattr(args, dest, False) is None and all(
                getattr(args, member, None) is None for member in exclusive.get(dest, ())):
            setattr(args, dest, value)
    return args


def _iter_subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield sub
                yield from _iter_subparsers(sub)


def _config_misfit(action: argparse.Action, value) -> str | None:
    """What a config value must be to stand for ``action``'s flag; None if it is."""
    if action.nargs == 0:  # a switch
        return None if isinstance(value, bool) else "true or false"
    if isinstance(action, argparse._AppendAction) or isinstance(action.nargs, int):
        count = action.nargs if isinstance(action.nargs, int) else None
        if (isinstance(value, list) and all(isinstance(v, str) for v in value)
                and count in (None, len(value))):
            return None
        return "a list of strings" if count is None else f"a list of {count} strings"
    if action.type is int:
        return None if type(value) is int else "an integer"
    if action.type is float:
        return None if type(value) in (int, float) else "a number"
    if isinstance(value, str) or (value is None and action.default is None):
        return None
    return "a string or null" if action.default is None else "a string"


def _out_dir(args: argparse.Namespace) -> Path:
    """Create and return --out, else $TABAUDIT_OUT, else ./audit_out."""
    out_dir = Path(args.out or os.environ.get("TABAUDIT_OUT") or "audit_out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def _load_manifests(paths):
    """Yield ``(path, dataset, task)`` per manifest, one at a time; ids must differ."""
    from .data import load_dataset

    seen = set()
    for path in paths:
        dataset, task = load_dataset(path)
        if dataset.id in seen:
            raise InputError(f"duplicate dataset id {dataset.id!r} across manifests")
        seen.add(dataset.id)
        yield path, dataset, task


# -- audit -------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    from .data import gold_labels, json_records, load_predictions, read_json, read_lines
    from .metrics import audit_dataset
    from .report import audit_report, write_report
    from .stratify import flag_imbalance_riders

    flag_imbalance_riders((), args.min_majority, args.max_lift)  # refuse them before any input
    loaded = {
        dataset.id: (gold_labels(dataset, task), task)
        for _, dataset, task in _load_manifests(args.manifests)
    }
    pred_sets = []
    for path in args.predictions:
        lines = read_lines(path, "predictions")
        # The first record's dataset id picks the task to validate against.
        _, first = next(json_records(path, "predictions", lines), (None, None))
        if first is None:
            raise InputError(f"{path}: no prediction records")
        dataset_id = first.get("dataset_id")
        if not isinstance(dataset_id, str) or dataset_id not in loaded:
            raise InputError(f"{path}: predictions reference unknown dataset {dataset_id!r}")
        gold, task = loaded[dataset_id]
        pred_sets.append(load_predictions(path, task, gold, lines=lines))
    metrics = [audit_dataset(p) for p in pred_sets]

    partition = None
    if args.partition:
        partition = read_json(args.partition, "partition file")
        if not isinstance(partition, dict) or not all(
            isinstance(group, str) for group in partition.values()
        ):
            raise InputError(
                f"partition file {args.partition} must map dataset ids to group names"
            )
    report = audit_report(
        metrics,
        {d: t.task_type.value for d, (_, t) in loaded.items()},
        model=args.model,
        reference_model=args.reference_model,
        partition=partition,
        gap_models=args.gap_models,
        min_majority=args.min_majority,
        max_lift=args.max_lift,
    )
    paths = write_report(report, _out_dir(args))
    print(f"wrote {paths['json']} and {paths['markdown']}")
    return EXIT_OK


# -- index / scan --------------------------------------------------------------


def _at_least_one(flag: str, value: int) -> None:
    """Refuse a count flag below 1 before any input is read."""
    if value < 1:
        raise InputError(f"{flag} must be >= 1, got {value}")


def cmd_index(args: argparse.Namespace) -> int:
    from .contam.index import DEFAULT_FILTERS, build_index

    _at_least_one("--max-buffered", args.max_buffered)
    index = build_index(
        args.corpus,
        filters=tuple(args.filters) if args.filters else DEFAULT_FILTERS,
        index_path=args.index_path,
        max_buffered_postings=args.max_buffered,
        fold_dates=args.fold_dates,
    )
    stats = index.build_stats
    print(
        f"indexed {index.files_indexed}/{index.files_present} files, "
        f"{index.total_rows} rows, {stats['postings']} postings, "
        f"{stats['spills']} shard spills -> {args.index_path}"
    )
    index.close()
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .contam.index import CorpusIndex, build_index
    from .contam.normalize import table_values
    from .contam.search import ScanConfig, scan_dataset
    from .data import write_json, write_jsonl
    from .report import new_report, write_report

    # A bad setting fails before the index is opened or the corpus read.
    scan_config = ScanConfig(
        min_overlap=args.min_overlap,
        min_distinctive=args.min_distinctive,
        selectivity_fraction=args.selectivity_fraction,
        complete_threshold=args.complete_threshold,
        diversity_threshold=args.table_diversity,
        identifier_column=args.id_column,
        association_key_column=args.assoc_key_column,
        association_probes=args.assoc_probes,
    )
    _at_least_one("--max-buffered", args.max_buffered)
    # A floor above 1 fails every scan; one below 0, or NaN, passes a partial one.
    if not 0.0 <= args.coverage_floor <= 1.0:
        raise InputError(f"coverage_floor must be in [0, 1], got {args.coverage_floor!r}")
    if args.index:
        index = CorpusIndex.load(args.index)
        loaded = _load_manifests(args.manifests)
    else:
        # Every manifest is checked before the corpus is read. A scan looks
        # up nothing but its datasets' own cells (features in row matching,
        # targets in label exposure, identifier cells, association keys and
        # targets), normalized as the index is, so a temporary index of
        # those values answers every lookup as the full index would.
        loaded = list(_load_manifests(args.manifests))
        index = build_index(
            args.corpus,
            max_buffered_postings=args.max_buffered,
            fold_dates=args.fold_dates,
            only_values=set().union(
                *(table_values(dataset.rows, args.fold_dates).values() for _, dataset, _ in loaded)
            ),
        )
    try:
        # An index folds dates as it was built; one built without folding
        # would quietly miss every date the test set writes differently.
        if args.fold_dates and not index.fold_dates:
            raise InputError(f"index {args.index} was built without --fold-dates; "
                             "rebuild it with index --fold-dates")
        out_dir = _out_dir(args)
        report = new_report(dict(asdict(scan_config), coverage_floor=args.coverage_floor))
        verdicts = []
        for _, dataset, task in loaded:
            bundle, verdict = scan_dataset(index, dataset, task, scan_config)
            evidence_path = out_dir / f"evidence_{dataset.id}.jsonl"
            write_jsonl(evidence_path, map(asdict, bundle.all_evidence()))
            doc = dict(
                asdict(verdict), task_type=task.task_type.value, evidence_file=evidence_path.name
            )
            write_json(out_dir / f"verdict_{dataset.id}.json", doc)
            verdicts.append(doc)
            print(
                f"{dataset.id}: {verdict.category} "
                f"(rows matched {verdict.row_match_fraction:.3f}, "
                f"assoc {verdict.association_count} rows / "
                f"{verdict.distinct_association_tables} tables)"
            )

        coverage = index.coverage()
        report["contamination"] = {
            "verdicts": verdicts,
            "coverage": {
                "files_indexed": index.files_indexed,
                "files_present": index.files_present,
                "fraction": coverage,
            },
        }
        write_report(report, out_dir)
        if coverage < args.coverage_floor:
            print(
                f"warning: corpus coverage {coverage:.3f} below floor {args.coverage_floor}",
                file=sys.stderr,
            )
            return EXIT_PARTIAL_SCAN
        return EXIT_OK
    finally:
        index.close()


# -- quartile / serialize ------------------------------------------------------


def cmd_gen_quartile(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .data import TaskType, write_manifest
    from .quartile import build_quartile_task, shortcut_audit
    from .report import new_report, write_report

    out_dir = _out_dir(args)
    report = new_report({"shortcut_threshold": args.shortcut_threshold})
    shortcut_docs = []
    for manifest, dataset, task in _load_manifests(args.manifests):
        if task.task_type is not TaskType.QUARTILE:
            raise InputError(
                f"{manifest}: gen-quartile needs a quartile (numeric-target) manifest"
            )
        task = build_quartile_task(dataset, task.target_column)
        # Before any write: shortcut_audit refuses a threshold outside (0, 1].
        audit = shortcut_audit(dataset, task, args.shortcut_threshold)
        # Relative to the written manifest, which is how load_dataset resolves it.
        table_path = os.path.relpath(dataset.table_path.resolve(), out_dir.resolve())
        write_manifest(out_dir / f"{dataset.id}.quartile.json", task, table_path)
        shortcut_docs.append(
            dict(
                asdict(audit),
                boundaries=list(task.quartile_boundaries),
                bin_labels=list(task.labels()),
            )
        )
        flagged = audit.flagged_features()
        print(
            f"{dataset.id}: boundaries {task.quartile_boundaries} "
            + (f"shortcut features: {', '.join(flagged)}" if flagged else "no shortcuts")
        )
    report["shortcut_reports"] = shortcut_docs
    write_report(report, out_dir)
    return EXIT_OK


def cmd_serialize(args: argparse.Namespace) -> int:
    from .data import write_jsonl
    from .prompts import PromptTemplate, build_prompts

    out_dir = _out_dir(args)
    if args.extract_completions:
        return _extract_completions(args, out_dir)
    shot_rows = None
    if args.shot_rows:
        try:
            shot_rows = [int(x) for x in args.shot_rows.split(",") if x.strip()]
        except ValueError:
            raise InputError(
                f"--shot-rows wants comma-separated integer row ids, got {args.shot_rows!r}"
            ) from None
    template = PromptTemplate(style=args.style, shots=args.shots)
    for _, dataset, task in _load_manifests(args.manifests):
        prompts = build_prompts(
            dataset, task, template, seed=args.seed, shot_rows=shot_rows
        )
        path = out_dir / f"prompts_{dataset.id}.{args.style}.jsonl"
        write_jsonl(
            path,
            ({"row_id": row_id, "prompt": prompt, "gold_label": gold}
             for row_id, prompt, gold in prompts),
        )
        skipped = dataset.row_count - len(prompts)
        print(f"wrote {len(prompts)} prompts to {path}; "
              f"skipped {skipped} rows outside the task")
    return EXIT_OK


def _extract_completions(args: argparse.Namespace, out_dir: Path) -> int:
    """Map model completions back to labels and write a prediction file."""
    if len(args.manifests) != 1:
        raise InputError("--extract-completions works on exactly one --manifest")
    from .data import (
        INVALID,
        PredictionSet,
        check_name_part,
        gold_labels,
        json_records,
        json_row_id,
        task_gold_label,
        write_predictions,
    )
    from .prompts import label_matches

    check_name_part(args.model_id, "--model-id")
    _, dataset, task = next(_load_manifests(args.manifests))
    gold = gold_labels(dataset, task)
    labels = list(task.labels())
    rows = []
    ambiguous = 0
    for where, doc in json_records(args.extract_completions, "completions"):
        if "row_id" not in doc or "completion" not in doc:
            raise InputError(f"{where}: need row_id and completion fields")
        row_id = json_row_id(doc, where)
        label = task_gold_label(gold, row_id, dataset.id, where)
        if not isinstance(doc["completion"], str):
            raise InputError(f"{where}: completion must be a string")
        # The first match is extract_prediction's label; several make it ambiguous.
        matches = label_matches(doc["completion"], labels, case_insensitive=args.case_insensitive)
        ambiguous += len(matches) > 1
        rows.append((row_id, label, matches[0] if matches else INVALID))
    out_path = out_dir / f"predictions_{dataset.id}.{args.model_id}.jsonl"
    # Row-id, true-label and predicted columns; PredictionSet refuses a repeated row id.
    write_predictions(out_path, PredictionSet(dataset.id, args.model_id, *zip(*rows)))
    print(f"extracted {len(rows)} predictions to {out_path}; "
          f"{ambiguous} ambiguous (several labels matched, the longest taken)")
    return EXIT_OK


# -- testbed -------------------------------------------------------------------


def cmd_testbed_gen(args: argparse.Namespace) -> int:
    from .data import load_dataset
    from .testbed import (
        CorpusSpec,
        PlantLedger,
        generate_corpus,
        plant_association,
        plant_complete_overlap,
        plant_direct_duplicates,
    )

    out_dir = _out_dir(args)
    spec = CorpusSpec(tables=args.tables, rows_per_table=args.rows, cols_per_table=args.cols)
    generate_corpus(spec, args.seed, out_dir)
    ledger = PlantLedger(seed=args.seed, corpus_id=out_dir.name)
    if args.plant_complete:
        dataset, task = load_dataset(args.plant_complete)
        ledger.plants.append(
            plant_complete_overlap(
                out_dir,
                dataset,
                rename_fraction=args.rename_fraction,
                permute=not args.no_permute,
                seed=args.seed,
            )
        )
    if args.plant_duplicates:
        dataset, task = load_dataset(args.plant_duplicates)
        ledger.plants.append(
            plant_direct_duplicates(
                out_dir,
                dataset,
                task.target_column,
                args.dup_rows,
                copies=args.copies,
                seed=args.seed,
            )
        )
    if args.plant_association:
        pairs = []
        for spec_str in args.plant_association:
            if "=" not in spec_str:
                raise InputError(f"--plant-association wants KEY=TARGET, got {spec_str!r}")
            key, target = spec_str.split("=", 1)
            pairs.append((key, target))
        ledger.plants.append(
            plant_association(
                out_dir,
                pairs,
                tables=args.assoc_tables,
                rows_per_table=args.assoc_rows,
                seed=args.seed,
            )
        )
    ledger_path = out_dir / "ledger.json"
    ledger.save(ledger_path)
    print(
        f"generated {args.tables} background tables x {args.rows} rows, "
        f"{len(ledger.plants)} plant(s); ledger at {ledger_path}"
    )
    return EXIT_OK


def cmd_testbed_eval(args: argparse.Namespace) -> int:
    from .testbed import PlantLedger, scanner_prf

    ledger = PlantLedger.load(args.ledger)
    evidence_by_dataset = {}
    for spec_str in args.evidence:
        if "=" not in spec_str:
            raise InputError(f"--evidence wants DATASET=FILE, got {spec_str!r}")
        dataset_id, path = spec_str.split("=", 1)
        evidence_by_dataset[dataset_id] = _load_evidence(path)
    results = scanner_prf(ledger, evidence_by_dataset)
    print("| Plant kind | Precision | Recall |")
    print("|---|---|---|")
    for kind, (precision, recall) in sorted(results.items()):
        print(f"| {kind} | {precision:.3f} | {recall:.3f} |")
    return EXIT_OK


def _load_evidence(path: str) -> list:
    """Read a scan's evidence JSONL file into ``MatchEvidence`` records."""
    from .contam.search import MatchEvidence
    from .data import json_records
    from .testbed import parse_locations

    evidence = []
    for where, doc in json_records(path, "evidence"):
        for key in ("strategy", "matched", "overlap"):
            if key not in doc:
                raise InputError(f"{where}: missing field {key!r}")
        try:
            matched = list(parse_locations(doc["matched"]))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: matched must be [table, row] pairs") from exc
        evidence.append(
            MatchEvidence(
                strategy=doc["strategy"],
                matched=matched,
                overlap=doc["overlap"],
                test_row_id=doc.get("test_row_id"),
                label_exposed=doc.get("label_exposed", False),
                exposed_value=doc.get("exposed_value"),
            )
        )
    return evidence


def cmd_report_render(args: argparse.Namespace) -> int:
    from .data import read_json
    from .report import render_markdown

    report = read_json(args.report, "report")
    try:
        markdown = render_markdown(report)
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        # A report or field of the wrong shape fails where the renderer reads it.
        raise InputError(f"malformed report {args.report}: {exc!r}") from exc
    md_path = _out_dir(args) / "report.md"
    md_path.write_text(markdown, encoding="utf-8")
    print(f"wrote {md_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _apply_config(build_parser(), argv)
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        # basicConfig is a no-op under a host's logging; -v must not leak into the next call.
        log.setLevel(logging.DEBUG if args.verbose else logging.NOTSET)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ComputationError, DegenerateStatisticsError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
