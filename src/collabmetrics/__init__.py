"""Collaboration and productivity indicators from co-authorship corpora."""

from .aggregate import (
    AreaAggregate,
    FilterResult,
    NormalizedCell,
    aggregate_area,
    filter_small_universities,
    normalize_to_sds_mean,
)
from .corpus import (
    Corpus,
    CorpusConfig,
    CorpusError,
    CorpusLoadError,
    CorpusValidationError,
    OrgClass,
    classify_collaboration,
    load_corpus,
    validate_corpus,
    write_corpus,
)
from .indicators import (
    IndicatorError,
    IndicatorRecord,
    compute_indicators,
    fractional_contribution,
)

__version__ = "0.1.0"

__all__ = [
    "AreaAggregate",
    "Corpus",
    "CorpusConfig",
    "CorpusError",
    "CorpusLoadError",
    "CorpusValidationError",
    "FilterResult",
    "IndicatorError",
    "IndicatorRecord",
    "NormalizedCell",
    "OrgClass",
    "aggregate_area",
    "classify_collaboration",
    "compute_indicators",
    "filter_small_universities",
    "fractional_contribution",
    "load_corpus",
    "normalize_to_sds_mean",
    "validate_corpus",
    "write_corpus",
]
