"""Corpus indexing and train/test contamination scanning.

The names in ``__all__`` load from their submodules on first access, so
building an index loads no search code.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "index": ("CorpusIndex", "TableInfo", "build_index"),
    "normalize": ("MISSING", "normalize_cell"),
    "search": ("AssociationResult", "ContaminationVerdict", "EvidenceBundle", "MatchEvidence",
               "ScanConfig", "association_search", "classify_contamination",
               "identifier_search", "label_exposure", "row_match", "scan_dataset"),
})
