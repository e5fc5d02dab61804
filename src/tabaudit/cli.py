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
import json
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
    parser = _Parser(prog="tabaudit", description=__doc__)
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

    p_index = sub.add_parser("index", help="build a corpus index file")
    p_index.add_argument("--corpus", required=True)
    p_index.add_argument("--index-path", required=True)
    p_index.add_argument("--filter", action="append", dest="filters")
    p_index.add_argument("--max-buffered", type=int, default=defaults.MAX_BUFFERED)
    p_index.add_argument("--fold-dates", action="store_true")
    p_index.add_argument("--jobs", type=int, default=1)

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

    p_gen = sub.add_parser("gen-quartile", help="build quartile tasks and audit shortcuts")
    p_gen.add_argument("--manifest", action="append", required=True, dest="manifests")
    p_gen.add_argument("--shortcut-threshold", type=float,
                       default=defaults.SHORTCUT_THRESHOLD)

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
    tb_eval = tb_sub.add_parser("eval", help="score scanner evidence against a ledger")
    tb_eval.add_argument("--ledger", required=True)
    tb_eval.add_argument("--evidence", action="append", required=True,
                         metavar="DATASET=FILE",
                         help="evidence JSONL per scanned dataset (repeatable)")

    p_rep = sub.add_parser("report", help="re-render reports")
    rep_sub = p_rep.add_subparsers(dest="report_command", required=True)
    rep_render = rep_sub.add_parser("render", help="render report.md from report.json")
    rep_render.add_argument("--report", required=True)

    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Load --config defaults, then reparse so explicit flags win.

    Without --config, one parse suffices unless arguments are left over,
    which the second parse reports as a usage error.
    """
    pre, extra = parser.parse_known_args(argv)
    if not pre.config and not extra:
        return pre
    if pre.config:
        try:
            config = json.loads(Path(pre.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputError(f"cannot read config file {pre.config}: {exc}") from exc
        except ValueError as exc:  # also an integer of 4300+ digits
            raise InputError(f"malformed config file {pre.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InputError(f"config file {pre.config} must hold a flat JSON object")
        known = set()
        for action_parser in [parser] + list(_iter_subparsers(parser)):
            for action in action_parser._actions:
                known.add(action.dest)
        unknown = set(config) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        for action_parser in [parser] + list(_iter_subparsers(parser)):
            action_parser.set_defaults(
                **{k: v for k, v in config.items()
                   if any(a.dest == k for a in action_parser._actions)}
            )
    return parser.parse_args(argv)


def _iter_subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield sub
                yield from _iter_subparsers(sub)


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("TABAUDIT_OUT")
    if env:
        return Path(env)
    return Path("audit_out")


def _load_manifests(paths) -> dict[str, tuple]:
    from .data import load_dataset

    loaded = {}
    for path in paths:
        dataset, task = load_dataset(path)
        if dataset.id in loaded:
            raise InputError(f"duplicate dataset id {dataset.id!r} across manifests")
        loaded[dataset.id] = (dataset, task)
    return loaded


# -- audit -------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    from statistics import fmean

    from .data import load_predictions
    from .metrics import audit_dataset
    from .report import (
        gap_to_json,
        metrics_to_json,
        model_comparison,
        new_report,
        stat_test_to_json,
        summary_to_json,
        write_report,
    )
    from .stratify import (
        flag_imbalance_riders,
        flag_negative_kappa,
        one_way_anova,
        pairwise_t,
        partition_gap,
        summarize_by_task,
    )

    loaded = _load_manifests(args.manifests)
    tasks = {d: t for d, (_, t) in loaded.items()}

    pred_sets = []
    for path in args.predictions:
        # Peek at the dataset id to find the right task for validation.
        first = _first_json_line(path)
        dataset_id = first.get("dataset_id")
        if not isinstance(dataset_id, str) or dataset_id not in tasks:
            raise InputError(f"{path}: predictions reference unknown dataset {dataset_id!r}")
        dataset, task = loaded[dataset_id]
        pred_sets.append(load_predictions(path, task, dataset.row_count))

    all_metrics = sorted(
        map(audit_dataset, pred_sets), key=lambda m: (m.model_id, m.dataset_id)
    )

    by_model: dict[str, list] = {}
    for m in all_metrics:
        by_model.setdefault(m.model_id, []).append(m)
    primary = args.model
    if primary is None:
        if len(by_model) != 1:
            raise InputError(
                f"multiple models present ({sorted(by_model)}); pick one with --model"
            )
        primary = next(iter(by_model))
    if primary not in by_model:
        raise InputError(f"no predictions for model {primary!r}")
    metrics = by_model[primary]

    config = {
        "model": primary,
        "min_majority": args.min_majority,
        "max_lift": args.max_lift,
    }
    report = new_report(config)
    task_types = {d: t.task_type.value for d, t in tasks.items()}
    report["datasets"] = [
        metrics_to_json(m, task_types.get(m.dataset_id)) for m in metrics
    ]
    report["aggregate"] = {
        "n_datasets": len(metrics),
        "mean_accuracy": fmean([m.accuracy for m in metrics]),
        "mean_majority_baseline": fmean([m.majority_baseline for m in metrics]),
        "mean_lift": fmean([m.lift for m in metrics]),
        "mean_kappa": fmean([m.kappa for m in metrics]),
        "n_no_positive_lift": sum(1 for m in metrics if m.lift <= 0),
    }
    summaries = summarize_by_task(metrics, task_types)
    report["task_type_summary"] = [summary_to_json(s) for s in summaries]

    report["stat_tests"] = {}
    groups = {
        s.task_type: [m.lift for m in metrics if task_types[m.dataset_id] == s.task_type]
        for s in summaries
    }
    testable = {k: v for k, v in groups.items() if len(v) >= 2}
    if len(testable) >= 2:
        try:
            anova = one_way_anova(list(testable.values()))
            report["stat_tests"]["anova"] = stat_test_to_json(anova)
            report["stat_tests"]["anova"]["groups"] = sorted(testable)
        except DegenerateStatisticsError as exc:
            report["stat_tests"]["anova_note"] = str(exc)
        pairwise = []
        names = sorted(testable)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                try:
                    t = pairwise_t(testable[a], testable[b])
                except DegenerateStatisticsError as exc:
                    pairwise.append({"group_a": a, "group_b": b, "note": str(exc)})
                    continue
                doc = stat_test_to_json(t)
                doc.update({"group_a": a, "group_b": b})
                pairwise.append(doc)
        report["stat_tests"]["pairwise"] = pairwise
    else:
        report["stat_tests"]["note"] = "too few datasets per task type for heterogeneity tests"

    report["imbalance_riders"] = [
        metrics_to_json(m, task_types.get(m.dataset_id))
        for m in flag_imbalance_riders(metrics, args.min_majority, args.max_lift)
    ]
    report["negative_kappa"] = [
        metrics_to_json(m, task_types.get(m.dataset_id))
        for m in flag_negative_kappa(metrics)
    ]

    if args.reference_model:
        report["config"]["reference_model"] = args.reference_model
        report["model_comparison"] = model_comparison(by_model, args.reference_model)

    if args.partition:
        gap_models = args.gap_models
        if gap_models is None:
            if args.reference_model and primary != args.reference_model:
                gap_models = [primary, args.reference_model]
            else:
                raise InputError("--partition needs --gap-models (or --reference-model)")
        try:
            partition_map = json.loads(Path(args.partition).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputError(f"cannot read partition file {args.partition}: {exc}") from exc
        except ValueError as exc:  # also an integer of 4300+ digits
            raise InputError(f"malformed partition file {args.partition}: {exc}") from exc
        a, b = gap_models
        for model in (a, b):
            if model not in by_model:
                raise InputError(f"no predictions for gap model {model!r}")
        rows = partition_gap(by_model[a], by_model[b], partition_map)
        report["partition_gap"] = [gap_to_json(r) for r in rows]
        report["gap_model_a"] = a
        report["gap_model_b"] = b
        report["config"]["gap_models"] = [a, b]

    paths = write_report(report, _out_dir(args))
    print(f"wrote {paths['json']} and {paths['markdown']}")
    return EXIT_OK


def _first_json_line(path: str) -> dict:
    from .data import json_records

    for _, obj in json_records(path, "predictions"):
        return obj
    raise InputError(f"{path}: no prediction records")


# -- index / scan --------------------------------------------------------------


def cmd_index(args: argparse.Namespace) -> int:
    from .contam.index import DEFAULT_FILTERS, build_index

    index = build_index(
        args.corpus,
        filters=tuple(args.filters) if args.filters else DEFAULT_FILTERS,
        index_path=args.index_path,
        max_buffered_postings=args.max_buffered,
        fold_dates=args.fold_dates,
        workers=max(1, args.jobs),
    )
    stats = index.build_stats
    print(
        f"indexed {index.files_indexed}/{index.files_present} files, "
        f"{index.total_rows} rows, {stats.get('postings', 0)} postings, "
        f"{stats.get('spills', 0)} shard spills -> {args.index_path}"
    )
    index.close()
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    from .contam.index import CorpusIndex, build_index
    from .contam.search import ScanConfig, scan_dataset
    from .data import load_dataset
    from .report import new_report, write_report

    if args.index:
        index = CorpusIndex.load(args.index)
    else:
        index = build_index(
            args.corpus,
            max_buffered_postings=args.max_buffered,
            fold_dates=args.fold_dates,
        )
    try:
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
        out_dir = _out_dir(args)
        out_dir.mkdir(parents=True, exist_ok=True)

        config = dict(scan_config.to_json())
        config["coverage_floor"] = args.coverage_floor
        report = new_report(config)
        verdicts = []
        for manifest in args.manifests:
            dataset, task = load_dataset(manifest)
            bundle, verdict = scan_dataset(index, dataset, task, scan_config)
            evidence_path = out_dir / f"evidence_{dataset.id}.jsonl"
            with open(evidence_path, "w", encoding="utf-8") as handle:
                for ev in bundle.all_evidence():
                    handle.write(json.dumps(ev.to_json(), sort_keys=True) + "\n")
            doc = verdict.to_json()
            doc["task_type"] = task.task_type.value
            doc["evidence_file"] = evidence_path.name
            (out_dir / f"verdict_{dataset.id}.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
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
    from .data import TaskSpec, TaskType, load_dataset, write_manifest
    from .quartile import build_quartile_task, shortcut_audit
    from .report import new_report, write_report

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = new_report({"shortcut_threshold": args.shortcut_threshold})
    shortcut_docs = []
    for manifest in args.manifests:
        dataset, task = load_dataset(manifest, allow_unbound_quartile=True)
        if task.task_type is not TaskType.QUARTILE:
            raise InputError(
                f"{manifest}: gen-quartile needs a quartile (numeric-target) manifest"
            )
        qtask = build_quartile_task(dataset, task.target_column)
        new_task = TaskSpec(
            dataset_id=dataset.id,
            task_type=TaskType.QUARTILE,
            target_column=task.target_column,
            quartile_boundaries=qtask.boundaries,
        )
        manifest_path = out_dir / f"{dataset.id}.quartile.json"
        table_path = Path(manifest).parent / json.loads(
            Path(manifest).read_text(encoding="utf-8")
        )["table_path"]
        write_manifest(manifest_path, dataset.id, new_task, str(table_path.resolve()))
        audit = shortcut_audit(dataset, qtask, args.shortcut_threshold)
        shortcut_docs.append(
            {
                "dataset_id": dataset.id,
                "target_column": audit.target_column,
                "boundaries": list(qtask.boundaries),
                "bin_labels": list(qtask.bin_labels),
                "threshold": audit.threshold,
                "note": audit.note,
                "findings": [
                    {
                        "feature": f.feature,
                        "n_evaluated": f.n_evaluated,
                        "bin_accuracy": f.bin_accuracy,
                        "flagged": f.flagged,
                    }
                    for f in audit.findings
                ],
            }
        )
        flagged = audit.flagged_features()
        print(
            f"{dataset.id}: boundaries {qtask.boundaries} "
            + (f"shortcut features: {', '.join(flagged)}" if flagged else "no shortcuts")
        )
    report["shortcut_reports"] = shortcut_docs
    write_report(report, out_dir)
    return EXIT_OK


def cmd_serialize(args: argparse.Namespace) -> int:
    from .data import load_dataset
    from .prompts import PromptTemplate, build_prompts

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    for manifest in args.manifests:
        dataset, task = load_dataset(manifest)
        prompts = build_prompts(
            dataset, task, template, seed=args.seed, shot_rows=shot_rows
        )
        path = out_dir / f"prompts_{dataset.id}.{args.style}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for row_id, prompt, gold in prompts:
                handle.write(
                    json.dumps(
                        {"row_id": row_id, "prompt": prompt, "gold_label": gold},
                        sort_keys=True,
                    )
                    + "\n"
                )
        print(f"wrote {len(prompts)} prompts to {path}")
    return EXIT_OK


def _extract_completions(args: argparse.Namespace, out_dir: Path) -> int:
    """Map model completions back to labels and write a prediction file."""
    if len(args.manifests) != 1:
        raise InputError("--extract-completions works on exactly one --manifest")
    from .data import json_records, json_row_id, load_dataset
    from .prompts import extract_prediction, gold_label

    dataset, task = load_dataset(args.manifests[0])
    labels = list(task.labels())
    completions = list(json_records(args.extract_completions, "completions"))
    out_path = out_dir / f"predictions_{dataset.id}.{args.model_id}.jsonl"
    with open(out_path, "w", encoding="utf-8") as handle:
        for where, doc in completions:
            if "row_id" not in doc or "completion" not in doc:
                raise InputError(f"{where}: need row_id and completion fields")
            row_id = json_row_id(doc, where)
            if not isinstance(doc["completion"], str):
                raise InputError(f"{where}: completion must be a string")
            handle.write(
                json.dumps(
                    {
                        "dataset_id": dataset.id,
                        "row_id": row_id,
                        "true_label": gold_label(task, dataset.record(row_id)),
                        "predicted_label": extract_prediction(
                            doc["completion"], labels, case_insensitive=args.case_insensitive
                        ),
                        "model_id": args.model_id,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    print(f"extracted {len(completions)} predictions to {out_path}")
    return EXIT_OK


# -- testbed -------------------------------------------------------------------


def cmd_testbed_gen(args: argparse.Namespace) -> int:
    from .data import load_dataset
    from .testbed import (
        CorpusSpec,
        generate_corpus,
        merge_ledgers,
        plant_association,
        plant_complete_overlap,
        plant_direct_duplicates,
    )

    out_dir = _out_dir(args)
    spec = CorpusSpec(
        tables=args.tables,
        rows_per_table=args.rows,
        cols_per_table=args.cols,
        corpus_id=out_dir.name,
    )
    generate_corpus(spec, args.seed, out_dir)
    ledgers = []
    if args.plant_complete:
        dataset, task = load_dataset(args.plant_complete)
        ledgers.append(
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
        rows = []
        for i in range(min(args.dup_rows, dataset.row_count)):
            record = dataset.record(i)
            label = record.pop(task.target_column)
            rows.append((record, label if label is not None else ""))
        ledgers.append(
            plant_direct_duplicates(
                out_dir,
                rows,
                task.target_column,
                copies=args.copies,
                seed=args.seed,
                dataset_id=dataset.id,
            )
        )
    if args.plant_association:
        pairs = []
        for spec_str in args.plant_association:
            if "=" not in spec_str:
                raise InputError(f"--plant-association wants KEY=TARGET, got {spec_str!r}")
            key, target = spec_str.split("=", 1)
            pairs.append((key, target))
        ledgers.append(
            plant_association(
                out_dir,
                pairs,
                tables=args.assoc_tables,
                rows_per_table=args.assoc_rows,
                seed=args.seed,
            )
        )
    merged = merge_ledgers(spec.corpus_id, args.seed, *ledgers)
    ledger_path = out_dir / "ledger.json"
    merged.save(ledger_path)
    print(
        f"generated {args.tables} background tables x {args.rows} rows, "
        f"{len(merged.plants)} plant(s); ledger at {ledger_path}"
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

    evidence = []
    for where, doc in json_records(path, "evidence"):
        for key in ("strategy", "matched", "overlap"):
            if key not in doc:
                raise InputError(f"{where}: missing field {key!r}")
        try:
            matched = [(t, r) for t, r in doc["matched"]]
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
    from .report import render_markdown

    try:
        report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read report {args.report}: {exc}") from exc
    except ValueError as exc:  # also an integer of 4300+ digits
        raise InputError(f"malformed report {args.report}: {exc}") from exc
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    md_path = out_dir / "report.md"
    md_path.write_text(render_markdown(report), encoding="utf-8")
    print(f"wrote {md_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config(parser, argv)
        logging.basicConfig(
            level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "index":
            return cmd_index(args)
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "gen-quartile":
            return cmd_gen_quartile(args)
        if args.command == "serialize":
            return cmd_serialize(args)
        if args.command == "testbed":
            if args.testbed_command == "gen":
                return cmd_testbed_gen(args)
            return cmd_testbed_eval(args)
        if args.command == "report":
            return cmd_report_render(args)
        raise UsageError(f"unknown command {args.command!r}")
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
