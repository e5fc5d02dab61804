"""tabaudit: audit toolkit for tabular prediction benchmarks.

The names in ``__all__`` are re-exported from their submodules, which
load on first access (PEP 562), so ``import tabaudit`` loads no analysis
module.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package whose
    re-exports, given as submodule -> names, load on first access."""
    submodule = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module = submodule[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(submodule))

    return sorted(submodule), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "data": ("Dataset", "PredictionRecord", "PredictionSet", "TaskSpec", "TaskType",
             "class_distribution", "load_dataset", "load_predictions"),
    "errors": ("AuditError", "ComputationError", "DegenerateStatisticsError", "InputError"),
    "metrics": ("AuditMetrics", "accuracy", "audit_dataset", "cohen_kappa", "lift",
                "majority_baseline", "recovery"),
    "quartile": ("QuartileTask", "assign_bin", "bin_label", "build_quartile_task",
                 "quartile_bins", "shortcut_audit"),
    "stratify": ("StatTestResult", "TaskTypeSummary", "flag_imbalance_riders",
                 "flag_negative_kappa", "one_way_anova", "pairwise_t", "partition_gap",
                 "summarize_by_task"),
})
