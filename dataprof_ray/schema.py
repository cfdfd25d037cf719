"""Report data model: ColumnProfile / ColumnStats / ProfileReport (+ corpus schema).

Field-for-field parity with the reference (re-implemented):
- ProfileReport:       /root/reference/crates/dataprof-runtime/src/profile_report.rs:27-54
  (schema_version gate at :155-186, REPORT_SCHEMA_VERSION = 1 at :18)
- ColumnProfile:       /root/reference/crates/dataprof-core/src/profile.rs:10-48
- ColumnStats structs: profile.rs:60-227
- ExecutionMetadata:   /root/reference/crates/dataprof-core/src/execution.rs:20-88
- numeric sample stats: /root/reference/crates/dataprof-metrics/src/stats/numeric.rs:7-296
- serde rounding round_2/round_4: crates/dataprof-core/src/serde_helpers.rs

The corpus schema is the north-rule input table (BASELINE.json input_hint).
"""

from __future__ import annotations

import heapq
import json
import math
import uuid
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any, Optional

import numpy as np
import pyarrow as pa

from dataprof_ray.functions import kernels as K

REPORT_SCHEMA_VERSION = 1

# North-rule corpus input table (BASELINE.json input_hint).
CORPUS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("ms")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# Output of the quality-filter pipeline: input cols (html projected away) +
# decisions + signals.
FILTER_OUTPUT_COLUMNS = [
    "url", "warc_ts", "lang", "extracted_text", "scrubbed_text", "keep",
    "drop_reason", "langid", "langid_conf", "perplexity", "quality_score",
    "n_chars", "n_words", "pii_replacements",
]


@dataclass
class NumericStats:
    min: float = 0.0
    max: float = 0.0
    mean: float = 0.0
    std_dev: float = 0.0
    variance: float = 0.0
    median: Optional[float] = None
    q1: Optional[float] = None
    q3: Optional[float] = None
    iqr: Optional[float] = None
    mode: Optional[float] = None
    coefficient_of_variation: Optional[float] = None
    skewness: Optional[float] = None
    kurtosis: Optional[float] = None
    outlier_count: Optional[int] = None
    is_approximate: Optional[bool] = None


@dataclass
class TextStats:
    min_length: int = 0
    max_length: int = 0
    avg_length: float = 0.0
    most_frequent: list = field(default_factory=list)   # [(value, count)] top-10
    least_frequent: list = field(default_factory=list)  # bottom-10


@dataclass
class DateTimeStats:
    min_datetime: str = ""
    max_datetime: str = ""
    duration_days: float = 0.0
    year_distribution: dict = field(default_factory=dict)
    month_distribution: dict = field(default_factory=dict)
    day_of_week_distribution: dict = field(default_factory=dict)
    hour_distribution: Optional[dict] = None


@dataclass
class BooleanStats:
    true_count: int = 0
    false_count: int = 0
    true_ratio: float = 0.0


@dataclass
class ColumnProfile:
    name: str
    data_type: str
    null_count: int
    total_count: int
    unique_count: Optional[int] = None
    unique_count_is_approximate: Optional[bool] = None
    invalid_count: Optional[int] = None  # None = "not checked", never "zero"
    stats: Any = None  # NumericStats | TextStats | DateTimeStats | BooleanStats | None
    patterns: Optional[list] = None  # None = never scanned != [] = nothing matched

    @property
    def null_percentage(self) -> float:
        return (self.null_count / self.total_count * 100.0) if self.total_count else 0.0


@dataclass
class ExecutionMetadata:
    engine: str = "ray-data"
    rows_processed: int = 0
    bytes_consumed: int = 0
    scan_time_ms: float = 0.0
    memory_peak_mb: float = 0.0
    error_count: int = 0
    ragged_row_count: int = 0
    source_exhausted: bool = True
    truncation_reason: Optional[str] = None
    sampling_applied: bool = False
    sampling_ratio: Optional[float] = None
    partitions: int = 0

    @property
    def throughput_rows_sec(self) -> float:
        if self.scan_time_ms <= 0:
            return 0.0
        return self.rows_processed / (self.scan_time_ms / 1000.0)


@dataclass
class ProfileReport:
    schema_version: int = REPORT_SCHEMA_VERSION
    id: str = field(default_factory=lambda: str(uuid.uuid4()))
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )
    data_source: dict = field(default_factory=dict)
    column_profiles: list = field(default_factory=list)
    execution: ExecutionMetadata = field(default_factory=ExecutionMetadata)
    quality: Any = None  # functions.quality.QualityMetrics
    metric_confidence: str = "Exact"  # Exact | Approximate | Mixed
    semantic_hint_bindings: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return self.column_profiles[0].total_count if self.column_profiles else 0

    @property
    def columns(self) -> list[str]:
        return [p.name for p in self.column_profiles]

    def __getitem__(self, name: str) -> ColumnProfile:
        for p in self.column_profiles:
            if p.name == name:
                return p
        raise KeyError(name)

    def quality_score(self) -> Optional[float]:
        return None if self.quality is None else self.quality.overall_score()

    # ---- serialization (schema-version gated like profile_report.rs:155-186) ----

    def to_dict(self) -> dict:
        d = {
            "schema_version": self.schema_version,
            "id": self.id,
            "timestamp": self.timestamp,
            "data_source": self.data_source,
            "column_profiles": [_profile_to_dict(p) for p in self.column_profiles],
            "execution": asdict(self.execution),
            "metric_confidence": self.metric_confidence,
            "semantic_hint_bindings": self.semantic_hint_bindings,
        }
        if self.quality is not None:
            q = asdict(self.quality)
            q["overall_score"] = K.round_half_away(self.quality.overall_score(), 2)
            d["quality"] = q
        return d

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, default=str)

    @staticmethod
    def load(path: str) -> "ProfileReport":
        with open(path) as f:
            raw = json.load(f)
        version = raw.get("schema_version")
        if version is None or version > REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema_version {version!r} "
                f"(this build reads <= {REPORT_SCHEMA_VERSION})"
            )
        report = ProfileReport(
            schema_version=version,
            id=raw["id"],
            timestamp=raw["timestamp"],
            data_source=raw.get("data_source", {}),
            column_profiles=[_profile_from_dict(p) for p in raw.get("column_profiles", [])],
            execution=ExecutionMetadata(**{
                k: v for k, v in raw.get("execution", {}).items()
                if k in ExecutionMetadata.__dataclass_fields__
            }),
            metric_confidence=raw.get("metric_confidence", "Exact"),
            semantic_hint_bindings=raw.get("semantic_hint_bindings", {}),
        )
        if raw.get("quality") is not None:
            from dataprof_ray.functions.quality import quality_from_dict

            report.quality = quality_from_dict(raw["quality"])
        return report

    # ---- sinks (delegate to dataprof_ray.report; reference exposes these
    # as report methods, python/dataprof/__init__.py:1869-2357) ----

    def describe(self):
        from dataprof_ray.report import describe

        return describe(self)

    def quality_summary(self) -> dict:
        from dataprof_ray.report import quality_summary

        return quality_summary(self)

    def to_markdown(self) -> str:
        from dataprof_ray.report import to_markdown

        return to_markdown(self)

    def to_llm_context(self, max_tokens: int = 1000) -> str:
        from dataprof_ray.report import to_llm_context

        return to_llm_context(self, max_tokens=max_tokens)

    def compare(self, other: "ProfileReport") -> dict:
        from dataprof_ray.report import compare

        return compare(self, other)

    def to_dataframe(self):
        from dataprof_ray.report import describe

        return describe(self)

    def to_arrow(self):
        import pyarrow as _pa

        return _pa.Table.from_pandas(self.to_dataframe(), preserve_index=False)

    def to_polars(self):
        import polars as pl

        return pl.from_pandas(self.to_dataframe())


def _profile_to_dict(p: ColumnProfile) -> dict:
    d = {
        "name": p.name,
        "data_type": p.data_type,
        "null_count": p.null_count,
        "total_count": p.total_count,
        "unique_count": p.unique_count,
        "unique_count_is_approximate": p.unique_count_is_approximate,
        "invalid_count": p.invalid_count,
    }
    if p.stats is not None:
        kind = type(p.stats).__name__.replace("Stats", "")
        d["stats"] = {"type": kind, **_round_stats(asdict(p.stats))}
    else:
        d["stats"] = {"type": "None"}
    if p.patterns is not None:
        d["patterns"] = [
            {
                "name": pt.name,
                "regex": pt.regex,
                "match_count": pt.match_count,
                "match_percentage": K.round_half_away(pt.match_percentage, 2),
                "category": pt.category,
                "confidence": K.round_half_away(pt.confidence, 4),
            }
            for pt in p.patterns
        ]
    else:
        d["patterns"] = None
    return d


def _round_stats(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, float) and math.isfinite(v):
            out[k] = K.round_half_away(v, 4)
        else:
            out[k] = v
    return out


def _profile_from_dict(d: dict) -> ColumnProfile:
    stats_raw = d.get("stats") or {"type": "None"}
    kind = stats_raw.get("type", "None")
    body = {k: v for k, v in stats_raw.items() if k != "type"}
    stats: Any = None
    if kind == "Numeric":
        stats = NumericStats(**body)
    elif kind == "Text":
        stats = TextStats(**body)
    elif kind == "DateTime":
        stats = DateTimeStats(**body)
    elif kind == "Boolean":
        stats = BooleanStats(**body)
    patterns = d.get("patterns")
    if patterns is not None:
        from dataprof_ray.functions.patterns import Pattern

        patterns = [
            Pattern(pt["name"], pt["regex"], pt["match_count"], pt["match_percentage"],
                    pt["category"], pt["confidence"])
            for pt in patterns
        ]
    return ColumnProfile(
        name=d["name"],
        data_type=d["data_type"],
        null_count=d["null_count"],
        total_count=d["total_count"],
        unique_count=d.get("unique_count"),
        unique_count_is_approximate=d.get("unique_count_is_approximate"),
        invalid_count=d.get("invalid_count"),
        stats=stats,
        patterns=patterns,
    )


# ------------------------------------------------------------------ sample stats


def numeric_stats_from_sample(values: np.ndarray) -> NumericStats:
    """Sample-derived numeric stats (numeric.rs:7-296): Type-7 quartiles,
    smallest-most-frequent mode, CV None when |mean|<1e-3, population skew /
    excess kurtosis, Tukey outliers (k=1.5, min 4)."""
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    n = len(values)
    if n == 0:
        return NumericStats()
    s = np.sort(values)
    mean = float(values.mean())
    variance = float(values.var(ddof=1)) if n >= 2 else 0.0
    std_dev = math.sqrt(max(variance, 0.0))
    q1 = K.quantile_type7(s, 0.25)
    q3 = K.quantile_type7(s, 0.75)
    pop_std = float(values.std(ddof=0))
    return NumericStats(
        min=float(s[0]),
        max=float(s[-1]),
        mean=mean,
        std_dev=std_dev,
        variance=variance,
        median=K.quantile_type7(s, 0.5),
        q1=q1,
        q3=q3,
        iqr=q3 - q1,
        mode=K.compute_mode(values),
        coefficient_of_variation=K.coefficient_of_variation(mean, std_dev),
        skewness=K.skewness(values, mean, pop_std),
        kurtosis=K.kurtosis_excess(values, mean, pop_std),
        outlier_count=K.tukey_outlier_count(values),
    )


def text_stats_from_lengths(min_length: Optional[int], max_length: int, avg_length: float) -> TextStats:
    return TextStats(min_length=min_length or 0, max_length=max_length, avg_length=avg_length)


def text_frequencies(values: list[str], counts) -> tuple[list, list]:
    """Top/bottom-10 ``(value, count)`` over distinct sample values and their
    counts, ties broken by value (stats/text.rs:53-89); empty values are
    not counted."""
    pairs = [(v, int(c)) for v, c in zip(values, counts) if v]
    return (heapq.nsmallest(10, pairs, key=lambda kv: (-kv[1], kv[0])),
            heapq.nsmallest(10, pairs, key=lambda kv: (kv[1], kv[0])))


def datetime_stats_from_counts(values: list[str], counts) -> DateTimeStats:
    """Datetime stats over distinct sample values and their counts via the
    flexible chain (stats/datetime.rs:28-71). Values come in order of first
    appearance, so the distributions keep the per-row insertion order."""
    parsed = []
    for v, c in zip(values, counts):
        r = K.parse_flexible_datetime(v)
        if r is not None:
            parsed.append((r[0], r[1], int(c)))
    if not parsed:
        return DateTimeStats()
    dates = [d for d, _, _ in parsed]
    dmin, dmax = min(dates), max(dates)
    year_dist: dict = {}
    month_dist: dict = {}
    dow_dist: dict = {}
    weekdays = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]
    for d, _, c in parsed:
        year_dist[d.year] = year_dist.get(d.year, 0) + c
        month_dist[d.month] = month_dist.get(d.month, 0) + c
        w = weekdays[d.weekday()]
        dow_dist[w] = dow_dist.get(w, 0) + c
    hour_dist = None
    if any(dt is not None for _, dt, _ in parsed):
        hour_dist = {}
        for _, dt, c in parsed:
            if dt is not None:
                hour_dist[dt.hour] = hour_dist.get(dt.hour, 0) + c
    return DateTimeStats(
        min_datetime=dmin.strftime("%Y-%m-%d"),
        max_datetime=dmax.strftime("%Y-%m-%d"),
        duration_days=float((dmax - dmin).days),
        year_distribution=year_dist,
        month_distribution=month_dist,
        day_of_week_distribution=dow_dist,
        hour_distribution=hour_dist,
    )
