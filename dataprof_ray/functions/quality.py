"""Seven ISO-style quality dimensions + weighted overall score.

Behavior parity with the reference (re-implemented from scratch):
- dimension structs + score formulas:  /root/reference/crates/dataprof-metrics/src/quality.rs:135-411
- completeness (ISO 8000-8):           analysis/metrics/completeness.rs:31-167
- consistency (ISO 8000-61):           analysis/metrics/consistency.rs:24-210
- uniqueness (ISO 8000-110):           analysis/metrics/uniqueness.rs:34-193
- accuracy (ISO 25012):                analysis/metrics/accuracy.rs:32-226
- timeliness:                          analysis/metrics/timeliness.rs:34-165
- validity:                            analysis/metrics/validity.rs:20-72
- precision:                           analysis/metrics/precision.rs:21-72
- weights (0.25/0.20/0.15/0.15/0.10/0.10/0.05) + renormalization over
  *assessed* dimensions only:          quality.rs:379-411, config.rs:24-36

Bifurcated streaming calculation (analysis/metrics/mod.rs:463-741): Phase A
metrics (completeness, key-uniqueness, row duplicates) come exactly from the
merged accumulator counters; Phase B metrics (consistency, accuracy,
timeliness, validity, precision) are computed over the merged reservoir
sample. ``MetricConfidence`` records the provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dataprof_ray.functions import kernels as K

# ------------------------------------------------------------------ config


@dataclass
class QualityScoreWeights:
    completeness: float = 0.25
    consistency: float = 0.20
    uniqueness: float = 0.15
    accuracy: float = 0.15
    timeliness: float = 0.10
    validity: float = 0.10
    precision: float = 0.05


@dataclass
class IsoQualityConfig:
    max_null_percentage: float = 50.0
    null_report_threshold: float = 10.0
    min_type_consistency: float = 95.0
    duplicate_report_threshold: float = 5.0
    high_cardinality_threshold: float = 95.0
    outlier_iqr_multiplier: float = 1.5
    outlier_min_samples: int = 4
    max_data_age_years: float = 5.0
    stale_data_threshold: float = 20.0
    score_weights: QualityScoreWeights = field(default_factory=QualityScoreWeights)

    @classmethod
    def strict(cls) -> "IsoQualityConfig":
        return cls(max_null_percentage=30.0, high_cardinality_threshold=98.0,
                   outlier_min_samples=10, max_data_age_years=2.0)

    @classmethod
    def lenient(cls) -> "IsoQualityConfig":
        return cls(max_null_percentage=70.0, high_cardinality_threshold=90.0,
                   outlier_iqr_multiplier=2.0, max_data_age_years=10.0)


# ------------------------------------------------------------------ dimension structs


@dataclass
class CompletenessMetrics:
    missing_values_ratio: float = 0.0
    complete_records_ratio: float = 100.0
    null_columns: list = field(default_factory=list)
    total_cells: int = 0


@dataclass
class ConsistencyMetrics:
    data_type_consistency: float = 100.0
    format_violations: int = 0
    encoding_issues: int = 0
    values_checked: int = 0


@dataclass
class UniquenessMetrics:
    duplicate_rows: int = 0
    key_uniqueness: float = 100.0
    high_cardinality_warning: bool = False
    rows_checked: int = 0
    key_column: Optional[str] = None
    duplicate_rows_approximate: bool = False


@dataclass
class AccuracyMetrics:
    outlier_ratio: float = 0.0
    range_violations: int = 0
    negative_values_in_positive: int = 0
    numeric_values_checked: int = 0


@dataclass
class TimelinessMetrics:
    future_dates_count: int = 0
    stale_data_ratio: float = 0.0
    temporal_violations: int = 0
    invalid_date_values: int = 0
    date_values_checked: int = 0
    temporal_pairs_checked: int = 0


@dataclass
class ValidityMetrics:
    valid_values_ratio: float = 100.0
    invalid_values: int = 0
    values_checked: int = 0


@dataclass
class PrecisionMetrics:
    decimal_places_consistency: float = 100.0
    inconsistent_precision_values: int = 0
    numeric_values_checked: int = 0


def _clamp(v: float, lo: float = 0.0, hi: float = 100.0) -> float:
    return min(max(v, lo), hi)


@dataclass
class QualityMetrics:
    completeness: Optional[CompletenessMetrics] = None
    consistency: Optional[ConsistencyMetrics] = None
    uniqueness: Optional[UniquenessMetrics] = None
    accuracy: Optional[AccuracyMetrics] = None
    timeliness: Optional[TimelinessMetrics] = None
    validity: Optional[ValidityMetrics] = None
    precision: Optional[PrecisionMetrics] = None
    low_sample_warning: bool = False
    score_weights: QualityScoreWeights = field(default_factory=QualityScoreWeights)

    # ---- dimension scores (None = not assessed; quality.rs:232-334) ----

    def completeness_score(self) -> Optional[float]:
        c = self.completeness
        if c is None or c.total_cells == 0:
            return None
        return _clamp(((100.0 - c.missing_values_ratio) + c.complete_records_ratio) / 2.0)

    def consistency_score(self) -> Optional[float]:
        c = self.consistency
        if c is None or c.values_checked == 0:
            return None
        violation_ratio = (c.format_violations + c.encoding_issues) / c.values_checked
        return _clamp(c.data_type_consistency - violation_ratio * 100.0)

    def uniqueness_score(self) -> Optional[float]:
        u = self.uniqueness
        if u is None:
            return None
        scores = []
        if u.rows_checked > 0:
            scores.append((1.0 - u.duplicate_rows / u.rows_checked) * 100.0)
        if u.key_column is not None:
            scores.append(u.key_uniqueness)
        if not scores:
            return None
        return _clamp(sum(scores) / len(scores))

    def accuracy_score(self) -> Optional[float]:
        a = self.accuracy
        if a is None or a.numeric_values_checked == 0:
            return None
        violation_ratio = (a.range_violations + a.negative_values_in_positive) / a.numeric_values_checked
        return _clamp(100.0 - a.outlier_ratio - violation_ratio * 100.0)

    def timeliness_score(self) -> Optional[float]:
        t = self.timeliness
        if t is None or t.date_values_checked == 0:
            return None
        value_violation_ratio = (t.future_dates_count + t.invalid_date_values) / t.date_values_checked
        temporal_ratio = (
            t.temporal_violations / t.temporal_pairs_checked if t.temporal_pairs_checked > 0 else 0.0
        )
        return _clamp(100.0 - t.stale_data_ratio - (value_violation_ratio + temporal_ratio) * 100.0)

    def validity_score(self) -> Optional[float]:
        v = self.validity
        if v is None or v.values_checked == 0:
            return None
        return _clamp(v.valid_values_ratio)

    def precision_score(self) -> Optional[float]:
        p = self.precision
        if p is None or p.numeric_values_checked == 0:
            return None
        return _clamp(p.decimal_places_consistency)

    def _weighted_scores(self):
        w = self.score_weights
        return [
            ("completeness", w.completeness, self.completeness_score()),
            ("consistency", w.consistency, self.consistency_score()),
            ("uniqueness", w.uniqueness, self.uniqueness_score()),
            ("accuracy", w.accuracy, self.accuracy_score()),
            ("timeliness", w.timeliness, self.timeliness_score()),
            ("validity", w.validity, self.validity_score()),
            ("precision", w.precision, self.precision_score()),
        ]

    def assessed_dimensions(self) -> list[str]:
        return [d for d, w, s in self._weighted_scores() if w > 0.0 and s is not None]

    def dimension_scores(self) -> dict:
        """name -> score (None = not assessed), in weight order."""
        return {d: s for d, _w, s in self._weighted_scores()}

    def overall_score(self) -> float:
        """Weighted mean over assessed dimensions only; weights renormalize
        (quality.rs:395-411)."""
        total_weight = 0.0
        score = 0.0
        for _, weight, value in self._weighted_scores():
            if value is not None:
                total_weight += weight
                score += value * weight
        return min(score / total_weight, 100.0) if total_weight > 0.0 else 0.0


def quality_from_dict(d: dict) -> "QualityMetrics":
    """Rebuild QualityMetrics from its asdict() form (report JSON load
    round-trip; extra keys like the serialized overall_score are ignored)."""

    def sub(cls, key):
        v = d.get(key)
        if v is None:
            return None
        allowed = cls.__dataclass_fields__
        return cls(**{k: val for k, val in v.items() if k in allowed})

    weights = d.get("score_weights") or {}
    return QualityMetrics(
        completeness=sub(CompletenessMetrics, "completeness"),
        consistency=sub(ConsistencyMetrics, "consistency"),
        uniqueness=sub(UniquenessMetrics, "uniqueness"),
        accuracy=sub(AccuracyMetrics, "accuracy"),
        timeliness=sub(TimelinessMetrics, "timeliness"),
        validity=sub(ValidityMetrics, "validity"),
        precision=sub(PrecisionMetrics, "precision"),
        low_sample_warning=bool(d.get("low_sample_warning", False)),
        score_weights=QualityScoreWeights(**{
            k: v for k, v in weights.items()
            if k in QualityScoreWeights.__dataclass_fields__
        }),
    )


# ------------------------------------------------------------------ calculators
#
# All calculators take:
#   data:     dict[column -> ColumnSample] — the merged reservoir sample,
#             dictionary-encoded (a plain list of strings is encoded first)
#   profiles: list of profile-like objects with .name .data_type .null_count
#             .total_count .unique_count .unique_count_is_approximate .patterns
#
# Every predicate runs once per distinct sample value and is weighted by that
# value's count. Only the order-sensitive checks — the first-50 mixed date
# formats, the start/end pairs and the sample row duplicates — read the
# sample order, through ``ColumnSample.codes``.


def _floats(fn, texts: list) -> np.ndarray:
    """``fn`` of each text, NaN where it gives None."""
    out = np.full(len(texts), np.nan)
    for i, t in enumerate(texts):
        v = fn(t)
        if v is not None:
            out[i] = v
    return out


class ColumnSample:
    """A column's sample, dictionary-encoded: ``values`` are the distinct
    rendered strings, ``counts`` how often each occurs, and ``codes`` the
    sample in its order as indices into ``values``. The per-distinct facts
    the calculators share are computed once, on first use, by the same
    kernel predicates the per-value checks called."""

    def __init__(self, values: list, codes: np.ndarray) -> None:
        self.values = values
        self.codes = codes
        self.counts = np.bincount(codes, minlength=len(values))

    @classmethod
    def encode(cls, arr, render=None) -> "ColumnSample":
        """Encode an Arrow array of raw sample values. ``render`` maps a
        distinct raw value to its string; raw values that render alike
        (``-0.0`` and ``0.0``, two instants in one second) merge. A
        timestamp or date array's ``raw_year`` is read from its typed
        values, not parsed back from the rendered text."""
        enc = pc.dictionary_encode(arr)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        if render is None:
            return cls(enc.dictionary.to_pylist(), codes)
        rendered = pa.array([render(v) for v in enc.dictionary.to_pylist()], pa.string())
        again = pc.dictionary_encode(rendered)
        remap = again.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        sample = cls(again.dictionary.to_pylist(), remap[codes])
        if pa.types.is_timestamp(arr.type) or pa.types.is_date(arr.type):
            # values that render alike share a second, so they share a year
            year = np.empty(len(sample.values))
            year[remap] = pc.year(enc.dictionary).to_numpy(zero_copy_only=False)
            # "%Y" renders a year below 1000 in fewer than four digits: such
            # values go through the text grammar like any other
            short = np.nonzero(year < 1000)[0]
            year[short] = _floats(K.parse_raw_datetime_year,
                                  [sample.values[i] for i in short.tolist()])
            sample.raw_year = year
        return sample

    @classmethod
    def from_list(cls, values: list) -> "ColumnSample":
        return cls.encode(pa.array(values, pa.string()))

    def __len__(self) -> int:
        return len(self.codes)

    def total(self, mask: np.ndarray) -> int:
        """How many sample values have a distinct value where ``mask`` holds."""
        return int(self.counts[mask].sum())

    def holds(self, pred, raw: bool = False) -> np.ndarray:
        """``pred`` of each distinct trimmed (or ``raw``) value."""
        texts = self.values if raw else self.stripped
        return np.fromiter((bool(pred(t)) for t in texts), dtype=bool, count=len(texts))

    def first_codes(self, mask: np.ndarray, n: int) -> np.ndarray:
        """Codes of the first ``n`` sample values, in sample order, whose
        distinct value is in ``mask``."""
        return self.codes[mask[self.codes]][:n]

    @cached_property
    def stripped(self) -> list:
        return [v.strip() for v in self.values]

    @cached_property
    def null_like(self) -> np.ndarray:
        return self.holds(K.is_null_like_token)

    @cached_property
    def finite_f64(self) -> np.ndarray:
        """``K.parse_finite_f64`` of the trimmed value; NaN where it fails."""
        return _floats(K.parse_finite_f64, self.stripped)

    @cached_property
    def raw_year(self) -> np.ndarray:
        """``K.parse_raw_datetime_year`` of the untrimmed value; NaN where
        it fails. ``encode`` sets it for a typed temporal sample."""
        return _floats(K.parse_raw_datetime_year, self.values)


def _encoded(data: dict) -> dict:
    return {name: col if isinstance(col, ColumnSample) else ColumnSample.from_list(col)
            for name, col in data.items()}


_DATE_VALIDATION_RES = [
    __import__("re").compile(p)
    for p in (
        r"^\d{4}-\d{2}-\d{2}$", r"^\d{2}/\d{2}/\d{4}$", r"^\d{2}-\d{2}-\d{4}$",
        r"^\d{4}/\d{2}/\d{2}$", r"^\d{1,2}/\d{1,2}/\d{4}$", r"^\d{4}-\d{1,2}-\d{1,2}$",
        r"^\d{1,2}-\d{1,2}-\d{4}$",
    )
]

_DATE_FORMAT_RES = [
    ("YYYY-MM-DD", __import__("re").compile(r"^\d{4}-\d{2}-\d{2}$")),
    ("DD/MM/YYYY", __import__("re").compile(r"^\d{2}/\d{2}/\d{4}$")),
    ("DD-MM-YYYY", __import__("re").compile(r"^\d{2}-\d{2}-\d{4}$")),
    ("YYYY/MM/DD", __import__("re").compile(r"^\d{4}/\d{2}/\d{2}$")),
]

_ENCODING_ARTIFACTS = ("Ã¡", "Ã©", "Ã­", "Ã³", "Ãº", "Ã±", "Ã§")
# a value with U+FFFD or any artifact, as one substring search
_ENCODING_RE = __import__("re").compile(
    "|".join(__import__("re").escape(a) for a in ("\ufffd",) + _ENCODING_ARTIFACTS))


def is_valid_date_format(value: str) -> bool:
    return any(r.match(value) for r in _DATE_VALIDATION_RES)


def calc_completeness_from_profiles(profiles, config: IsoQualityConfig) -> CompletenessMetrics:
    """Exact from merged counters; complete_records_ratio is the pessimistic
    lower bound (completeness.rs:115-149)."""
    total_cells = sum(p.total_count for p in profiles)
    null_cells = sum(p.null_count for p in profiles)
    missing_ratio = (null_cells / total_cells * 100.0) if total_cells else 0.0
    total_rows = profiles[0].total_count if profiles else 0
    complete_ratio = (
        max(max(total_rows - null_cells, 0) / total_rows * 100.0, 0.0) if total_rows else 100.0
    )
    threshold = config.max_null_percentage / 100.0
    null_columns = [
        p.name for p in profiles
        if p.total_count > 0 and (p.null_count / p.total_count) > threshold
    ]
    return CompletenessMetrics(missing_ratio, complete_ratio, null_columns, total_cells)


def calc_consistency(data: dict, profiles) -> ConsistencyMetrics:
    data = _encoded(data)
    by_name = {p.name: p for p in profiles}
    total = 0
    consistent = 0
    for name, profile in by_name.items():
        col = data.get(name)
        if col is None:
            continue
        checked = ~col.null_like
        total += col.total(checked)
        consistent += col.total(checked & _type_consistent(name, profile.data_type, col))
    type_consistency = (consistent / total * 100.0) if total else 100.0

    violations = 0
    encoding = 0
    for name, col in data.items():
        violations += _count_mixed_date_formats(name, col)
        violations += _count_decimal_separator_violations(col)
        encoding += col.total(col.holds(_ENCODING_RE.search, raw=True))
    return ConsistencyMetrics(type_consistency, violations, encoding, total)


def _type_consistent(name: str, data_type: str, col: ColumnSample) -> np.ndarray:
    """Per distinct value: does its trimmed text parse as ``data_type``?"""
    if data_type == K.TYPE_INTEGER:
        return col.holds(lambda t: K.parse_i64(t) is not None)
    if data_type == K.TYPE_FLOAT:
        return col.holds(_parses_f64)
    if data_type == K.TYPE_BOOLEAN:
        return col.holds(lambda t: K.parse_strict_boolean_token(t) is not None)
    if data_type == K.TYPE_DATE or K.is_likely_date_column(name):
        return col.holds(is_valid_date_format)
    return np.ones(len(col.values), dtype=bool)  # String / Identifier


def _parses_f64(s: str) -> bool:
    # consistency uses plain parse (no finite filter) — consistency.rs:63
    if not s or "_" in s or " " in s:
        return False
    try:
        float(s)
        return True
    except ValueError:
        return False


def _count_mixed_date_formats(column_name: str, col: ColumnSample) -> int:
    """Minority date formats in a first-50 sample of date-named columns
    (consistency.rs:107-138)."""
    if not K.is_likely_date_column(column_name):
        return 0
    stripped = col.stripped
    counts: dict[str, int] = {}
    for code in col.first_codes(col.holds(bool), 50).tolist():
        t = stripped[code]
        for fmt_name, rx in _DATE_FORMAT_RES:
            if rx.match(t):
                counts[fmt_name] = counts.get(fmt_name, 0) + 1
                break
    if len(counts) > 1:
        return sum(counts.values()) - max(counts.values())
    return 0


def _count_decimal_separator_violations(col: ColumnSample) -> int:
    """Mixed-separator values + minority of dot-vs-comma decimals
    (consistency.rs:141-181)."""
    dot = comma = violations = 0
    for value, n in zip(col.values, col.counts.tolist()):
        if not value:
            continue
        if "." in value and "," in value:
            violations += n
            continue
        if "." in value:
            if value.count(".") == 1:
                dot += n
        elif "," in value:
            if value.count(",") == 1:
                comma += n
    if dot > 0 and comma > 0:
        violations += min(dot, comma)
    return violations


@dataclass
class RowDuplicateSummary:
    duplicate_rows: int
    rows_checked: int
    approximate: bool


def calc_uniqueness(data: dict, profiles, total_rows: int, identifier_columns: list,
                    config: IsoQualityConfig,
                    row_duplicates: Optional[RowDuplicateSummary] = None) -> UniquenessMetrics:
    if row_duplicates is not None and row_duplicates.rows_checked > 0:
        dup, checked, approx = (
            row_duplicates.duplicate_rows, row_duplicates.rows_checked, row_duplicates.approximate,
        )
    else:
        dup, checked = _count_sample_duplicate_rows(_encoded(data), profiles)
        approx = False

    key_uniqueness, key_column = _key_uniqueness(profiles, identifier_columns)
    threshold = config.high_cardinality_threshold / 100.0
    high_card = False
    if total_rows > 0:
        for p in profiles:
            if p.unique_count is None:
                continue
            is_id = p.name in identifier_columns or K.is_likely_id_column(p.name)
            if not is_id and (p.unique_count / total_rows) > threshold:
                high_card = True
                break
    return UniquenessMetrics(dup, key_uniqueness, high_card, checked, key_column, approx)


def _count_sample_duplicate_rows(data: dict, profiles) -> tuple[int, int]:
    """Sample scan refuses misaligned columns -> (0, 0) 'not assessed'
    (uniqueness.rs:73-122). Row i of the sample is the i-th value of every
    column; two rows are equal when their codes are."""
    if not data:
        return 0, 0
    lengths = {len(col) for col in data.values()}
    if len(lengths) != 1:
        return 0, 0
    total = lengths.pop()
    if profiles and profiles[0].total_count != total:
        return 0, 0
    if total == 0:
        return 0, 0
    rows = np.stack([col.codes for col in data.values()], axis=1)
    return total - len(np.unique(rows, axis=0)), total


def _key_uniqueness(profiles, identifier_columns: list) -> tuple[float, Optional[str]]:
    key = None
    for name in identifier_columns:
        key = next((p for p in profiles if p.name == name), None)
        if key is not None:
            break
    if key is None:
        key = next((p for p in profiles if K.is_likely_id_column(p.name)), None)
    if key is None or key.unique_count is None:
        return 100.0, None
    if key.total_count == 0:
        return 100.0, None
    return key.unique_count / key.total_count * 100.0, key.name


def calc_accuracy(data: dict, profiles, config: IsoQualityConfig,
                  positive_columns: list = ()) -> AccuracyMetrics:
    data = _encoded(data)
    total_numeric = 0
    total_outliers = 0
    for p in profiles:
        if p.data_type not in (K.TYPE_INTEGER, K.TYPE_FLOAT):
            continue
        col = data.get(p.name)
        if not col:
            continue
        parsed = ~np.isnan(col.finite_f64)
        # the Tukey count only sorts and compares: the sample order is moot
        nums = np.repeat(col.finite_f64[parsed], col.counts[parsed])
        if len(nums) < config.outlier_min_samples:
            continue
        total_outliers += K.tukey_outlier_count(nums, config.outlier_iqr_multiplier)
        total_numeric += len(nums)
    outlier_ratio = (total_outliers / total_numeric * 100.0) if total_numeric else 0.0

    range_violations = 0
    numeric_checked = 0
    for name, col in data.items():
        v, n = _domain_range_violations(name, col)
        range_violations += v
        numeric_checked += n

    negatives = 0
    for name, col in data.items():
        if name in positive_columns:
            negatives += col.total(~col.null_like & (_floats(_try_float, col.stripped) < 0))
    return AccuracyMetrics(outlier_ratio, range_violations, negatives, numeric_checked)


def _try_float(t: str):
    try:
        return float(t)
    except ValueError:
        return None


def _domain_range_violations(column_name: str, col: ColumnSample) -> tuple[int, int]:
    """age 0-150, percent/rate 0-100, count >=0, year 1900-2100
    (accuracy.rs:156-197)."""
    low = column_name.lower()
    if not len(col):
        return 0, 0
    num = _floats(_try_float, col.values)
    numeric = ~col.null_like & np.isfinite(num)
    rules = []
    if "age" in low:
        rules.append((num < 0.0) | (num > 150.0))
    if "percent" in low or "rate" in low:
        rules.append((num < 0.0) | (num > 100.0))
    if "count" in low:
        rules.append(num < 0.0)
    if "year" in low:
        rules.append((num < 1900.0) | (num > 2100.0))
    violations = sum(col.total(numeric & bad) for bad in rules)
    return violations, col.total(numeric)


_TEMPORAL_PAIRS = [
    ("start_date", "end_date"),
    ("start", "end"),
    ("created_at", "updated_at"),
    ("created", "updated"),
    ("begin_date", "end_date"),
    ("from_date", "to_date"),
]


def calc_timeliness(data: dict, temporal_columns: list, config: IsoQualityConfig,
                    now_year: Optional[int] = None) -> TimelinessMetrics:
    data = _encoded(data)
    current_year = now_year if now_year is not None else datetime.now(timezone.utc).year
    threshold_year = current_year - int(config.max_data_age_years)

    future = stale = valid = checked = invalid = 0
    for name in temporal_columns:
        col = data.get(name)
        if col is None:
            continue
        seen = ~col.null_like
        year = col.raw_year
        parsed = seen & ~np.isnan(year)
        checked += col.total(seen)
        valid += col.total(parsed)
        invalid += col.total(seen & ~parsed)
        future += col.total(parsed & (year > current_year))
        stale += col.total(parsed & (year < threshold_year))
    stale_ratio = (stale / valid * 100.0) if valid else 0.0

    violations = pairs = 0
    for start_col, end_col in _TEMPORAL_PAIRS:
        start = next((data[n] for n in temporal_columns if start_col in n.lower() and n in data),
                     None)
        end = next((data[n] for n in temporal_columns if end_col in n.lower() and n in data),
                   None)
        if start is None or end is None:
            continue
        # the i-th sample values of the two columns form a pair
        n = min(len(start), len(end))
        s, e = start.codes[:n], end.codes[:n]
        both = (_dated(start)[s]) & (_dated(end)[e])
        # string order works for ISO dates (timeliness.rs:139): rank every
        # distinct value of both columns once, then compare ranks
        rank = {v: i for i, v in enumerate(sorted(set(start.values) | set(end.values)))}
        s_rank = np.array([rank[v] for v in start.values], dtype=np.int64)
        e_rank = np.array([rank[v] for v in end.values], dtype=np.int64)
        pairs += int(np.count_nonzero(both))
        violations += int(np.count_nonzero(both & (s_rank[s] > e_rank[e])))
    return TimelinessMetrics(future, stale_ratio, violations, invalid, checked, pairs)


def _dated(col: ColumnSample) -> np.ndarray:
    return ~col.null_like & ~np.isnan(col.raw_year)


def calc_validity(data: dict, profiles) -> ValidityMetrics:
    """Per column with a dominant pattern (conf >= 0.5; tie-break
    confidence -> match_count -> name desc); valid = min(match_count, non_null)
    (validity.rs:20-72)."""
    data = _encoded(data)
    valid_values = 0
    checked = 0
    for p in profiles:
        patterns = getattr(p, "patterns", None)
        if patterns is None:
            continue
        eligible = [pt for pt in patterns if pt.confidence >= 0.5]
        if not eligible:
            continue
        dominant = max(eligible, key=lambda pt: (pt.confidence, pt.match_count, _neg_str(pt.name)))
        col = data.get(p.name)
        if col is None:
            continue
        non_null = col.total(~col.null_like)
        if non_null == 0:
            continue
        checked += non_null
        valid_values += min(dominant.match_count, non_null)
    invalid = max(checked - valid_values, 0)
    ratio = (valid_values / checked * 100.0) if checked else 100.0
    return ValidityMetrics(ratio, invalid, checked)


class _neg_str:
    """Reverse-ordering wrapper for the name-descending tie-break."""

    def __init__(self, s: str) -> None:
        self.s = s

    def __lt__(self, other: "_neg_str") -> bool:
        return self.s > other.s

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _neg_str) and self.s == other.s


def calc_precision(data: dict, profiles) -> PrecisionMetrics:
    data = _encoded(data)
    checked = 0
    inconsistent = 0
    for p in profiles:
        if p.data_type != K.TYPE_FLOAT:
            continue
        col = data.get(p.name)
        if not col:
            continue
        scales: dict[int, int] = {}
        for t, n in zip(col.stripped, col.counts.tolist()):
            scale = K.decimal_scale(t)  # None for null-like and non-finite values
            if scale is not None:
                scales[scale] = scales.get(scale, 0) + n
        column_count = sum(scales.values())
        dominant = max(scales.values(), default=0)
        checked += column_count
        inconsistent += max(column_count - dominant, 0)
    ratio = ((checked - inconsistent) / checked * 100.0) if checked else 100.0
    return PrecisionMetrics(ratio, inconsistent, checked)


def low_sample_warning(total_rows: int) -> bool:
    """Below 10 rows the scores are directional only (utils.rs:80-96)."""
    return total_rows < 10
