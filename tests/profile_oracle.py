"""Per-value oracle for profile report assembly.

The report used to be assembled by evaluating every detector, validator and
quality predicate once per sample row, over a rendered Python list, with
one pandas ``str.contains`` per detector and one ``strptime`` per date.
This module keeps that formulation, so the tests can check that the
assembly over distinct values (``pipelines.profile.assemble_report``)
gives the same report, field for field. It also keeps the list-backed
Algorithm-R reservoir the Arrow one replaced. Nothing in the package
imports it.
"""

from __future__ import annotations

import warnings
from datetime import datetime
from typing import Optional

import numpy as np

from dataprof_ray import schema as S
from dataprof_ray.functions import kernels as K
from dataprof_ray.functions import patterns as P
from dataprof_ray.functions import quality as Q

_WEEKDAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
             "Saturday", "Sunday"]


# ---------------------------------------------------------------- reservoir


class ListReservoir:
    """Algorithm R over a Python list, one slot write per hit."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        self.capacity = max(capacity, 1)
        self.reservoir: list = []
        self.count = 0
        self.rng = np.random.default_rng(seed & 0xFFFF_FFFF_FFFF_FFFF)

    def offer(self, values: list) -> None:
        n = len(values)
        if n == 0:
            return
        cap = self.capacity
        i = 0
        if len(self.reservoir) < cap:
            take_n = min(cap - len(self.reservoir), n)
            self.reservoir.extend(values[:take_n])
            self.count += take_n
            i = take_n
        if i >= n:
            return
        m = n - i
        t = self.count + np.arange(m, dtype=np.int64)
        draws = (self.rng.random(m) * (t + 1)).astype(np.int64)
        for j in np.nonzero(draws < cap)[0].tolist():
            self.reservoir[draws[j]] = values[i + j]
        self.count += m

    def merge(self, other: "ListReservoir") -> None:
        if other.count == 0:
            return
        combined = self.reservoir + list(other.reservoir)
        if len(combined) <= self.capacity:
            self.reservoir = combined
        else:
            idx = self.rng.choice(len(combined), size=self.capacity, replace=False)
            self.reservoir = [combined[i] for i in idx]
        self.count += other.count


# ---------------------------------------------------------------- patterns


def detect_patterns(data: list, locale: Optional[str] = None) -> list:
    import pandas as pd

    normalized_locale = None
    if locale is not None and locale.strip():
        normalized_locale = locale.strip().upper()
    s = pd.Series(data, dtype="object").astype(str).str.strip()
    s = s[s != ""]
    if s.empty:
        return []
    n = len(s)
    values = s.to_numpy()
    candidates = []
    for def_, rx in zip(P.PATTERN_DEFS, P._COMPILED):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            bitmap = s.str.contains(rx, regex=True).to_numpy()
        match_count = int(bitmap.sum())
        match_pct = match_count / n * 100.0
        if match_pct <= def_.min_threshold:
            continue
        if def_.validator is not None and match_count > 0:
            rate = sum(1 for v in values[bitmap] if def_.validator(v)) / match_count
        else:
            rate = 1.0
        if rate > 0.0:
            candidates.append((def_, match_count, match_pct, bitmap, rate))
    suppressed = [False] * len(candidates)
    order = sorted(range(len(candidates)), key=lambda i: -candidates[i][0].specificity)
    for pos, a_idx in enumerate(order):
        if suppressed[a_idx]:
            continue
        a_def, _, _, a_bitmap, _ = candidates[a_idx]
        for b_idx in order[pos + 1:]:
            if suppressed[b_idx]:
                continue
            b_def, b_count, _, b_bitmap, _ = candidates[b_idx]
            if a_def.specificity <= b_def.specificity or b_count == 0:
                continue
            if int(np.count_nonzero(a_bitmap & b_bitmap)) / b_count >= 0.80:
                suppressed[b_idx] = True
    results = []
    for idx, (def_, match_count, match_pct, bitmap, rate) in enumerate(candidates):
        if suppressed[idx]:
            continue
        confidence = P.compute_confidence(def_.specificity, match_pct, rate)
        if normalized_locale is not None:
            if def_.locale is not None:
                if def_.locale.upper() == normalized_locale:
                    confidence = min(confidence * 1.2, 1.0)
                    if match_pct >= 80.0 and rate >= 0.8:
                        confidence = max(confidence, 0.5)
                else:
                    continue
        elif def_.locale is not None:
            distinct_locales = {
                o_def.locale
                for o_idx, (o_def, _, _, o_bitmap, _) in enumerate(candidates)
                if not suppressed[o_idx]
                and (o_idx == idx
                     or (o_def.locale != def_.locale and o_def.locale is not None
                         and o_def.category == def_.category
                         and np.array_equal(o_bitmap, bitmap)))
            }
            confidence *= 0.75 / max(len(distinct_locales), 1)
        results.append(P.Pattern(def_.name, def_.regex, match_count, match_pct,
                                 def_.category, confidence))
    results.sort(key=lambda p: -p.confidence)
    return results


# ---------------------------------------------------------------- quality


def _parses_f64(s: str) -> bool:
    if not s or "_" in s or " " in s:
        return False
    try:
        float(s)
        return True
    except ValueError:
        return False


def calc_consistency(data: dict, profiles) -> Q.ConsistencyMetrics:
    total = consistent = 0
    for name, profile in {p.name: p for p in profiles}.items():
        values = data.get(name)
        if values is None:
            continue
        for value in values:
            trimmed = value.strip()
            if K.is_null_like_token(trimmed):
                continue
            total += 1
            dt = profile.data_type
            if dt == K.TYPE_INTEGER:
                ok = K.parse_i64(trimmed) is not None
            elif dt == K.TYPE_FLOAT:
                ok = _parses_f64(trimmed)
            elif dt == K.TYPE_DATE:
                ok = Q.is_valid_date_format(trimmed)
            elif dt == K.TYPE_BOOLEAN:
                ok = K.parse_strict_boolean_token(trimmed) is not None
            else:
                ok = (not K.is_likely_date_column(name)) or Q.is_valid_date_format(trimmed)
            consistent += ok
    type_consistency = (consistent / total * 100.0) if total else 100.0
    violations = encoding = 0
    for name, values in data.items():
        if K.is_likely_date_column(name):
            counts: dict = {}
            for value in [v for v in values if v.strip()][:50]:
                for fmt_name, rx in Q._DATE_FORMAT_RES:
                    if rx.match(value.strip()):
                        counts[fmt_name] = counts.get(fmt_name, 0) + 1
                        break
            if len(counts) > 1:
                violations += sum(counts.values()) - max(counts.values())
        dot = comma = 0
        for value in values:
            if not value:
                continue
            if "." in value and "," in value:
                violations += 1
                continue
            if "." in value:
                dot += value.count(".") == 1
            elif "," in value:
                comma += value.count(",") == 1
        if dot > 0 and comma > 0:
            violations += min(dot, comma)
        for v in values:
            if "�" in v or any(a in v for a in Q._ENCODING_ARTIFACTS):
                encoding += 1
    return Q.ConsistencyMetrics(type_consistency, violations, encoding, total)


def calc_uniqueness(data: dict, profiles, total_rows: int, identifier_columns: list,
                    config, row_duplicates=None) -> Q.UniquenessMetrics:
    if row_duplicates is not None and row_duplicates.rows_checked > 0:
        return Q.calc_uniqueness({}, profiles, total_rows, identifier_columns,
                                 config, row_duplicates)
    dup = checked = 0
    lengths = {len(v) for v in data.values()}
    if data and len(lengths) == 1:
        total = lengths.pop()
        if not profiles or profiles[0].total_count == total:
            seen = set()
            for i in range(total):
                sig = tuple(data[c][i] for c in data)
                dup += sig in seen
                seen.add(sig)
            checked = total
    u = Q.calc_uniqueness({}, profiles, total_rows, identifier_columns, config,
                          Q.RowDuplicateSummary(0, 0, False))
    u.duplicate_rows, u.rows_checked = dup, checked
    return u


def _parse_numeric(values: list, finite_only: bool = True) -> np.ndarray:
    out = []
    for v in values:
        t = v.strip()
        if K.is_null_like_token(t):
            continue
        f = K.parse_finite_f64(t) if finite_only else Q._try_float(t)
        if f is not None:
            out.append(f)
    return np.asarray(out, dtype=np.float64)


def calc_accuracy(data: dict, profiles, config, positive_columns=()) -> Q.AccuracyMetrics:
    total_numeric = total_outliers = 0
    for p in profiles:
        if p.data_type not in (K.TYPE_INTEGER, K.TYPE_FLOAT) or not data.get(p.name):
            continue
        nums = _parse_numeric(data[p.name])
        if len(nums) < config.outlier_min_samples:
            continue
        total_outliers += K.tukey_outlier_count(nums, config.outlier_iqr_multiplier)
        total_numeric += len(nums)
    outlier_ratio = (total_outliers / total_numeric * 100.0) if total_numeric else 0.0
    range_violations = numeric_checked = 0
    for name, values in data.items():
        low = name.lower()
        for raw in values:
            if K.is_null_like_token(raw.strip()):
                continue
            num = Q._try_float(raw)
            if num is None or not np.isfinite(num):
                continue
            numeric_checked += 1
            range_violations += ("age" in low and not 0.0 <= num <= 150.0)
            range_violations += (("percent" in low or "rate" in low)
                                 and not 0.0 <= num <= 100.0)
            range_violations += ("count" in low and num < 0.0)
            range_violations += ("year" in low and not 1900.0 <= num <= 2100.0)
    negatives = sum(int(np.count_nonzero(_parse_numeric(values, finite_only=False) < 0))
                    for name, values in data.items() if name in positive_columns)
    return Q.AccuracyMetrics(outlier_ratio, range_violations, negatives, numeric_checked)


def calc_timeliness(data: dict, temporal_columns: list, config,
                    now_year: Optional[int] = None) -> Q.TimelinessMetrics:
    from datetime import timezone

    current_year = now_year if now_year is not None else datetime.now(timezone.utc).year
    threshold_year = current_year - int(config.max_data_age_years)
    future = stale = valid = checked = invalid = 0
    for name in temporal_columns:
        for value in data.get(name) or []:
            if K.is_null_like_token(value.strip()):
                continue
            checked += 1
            year = K.parse_raw_datetime_year(value)
            if year is None:
                invalid += 1
                continue
            valid += 1
            future += year > current_year
            stale += year < threshold_year
    stale_ratio = (stale / valid * 100.0) if valid else 0.0
    violations = pairs = 0
    for start_col, end_col in Q._TEMPORAL_PAIRS:
        start_vals = next((data.get(n) for n in temporal_columns
                           if start_col in n.lower() and data.get(n) is not None), None)
        end_vals = next((data.get(n) for n in temporal_columns
                         if end_col in n.lower() and data.get(n) is not None), None)
        if start_vals is None or end_vals is None:
            continue
        for s, e in zip(start_vals, end_vals):
            if K.is_null_like_token(s.strip()) or K.is_null_like_token(e.strip()):
                continue
            if K.parse_raw_datetime_year(s) is None or K.parse_raw_datetime_year(e) is None:
                continue
            pairs += 1
            violations += s > e
    return Q.TimelinessMetrics(future, stale_ratio, violations, invalid, checked, pairs)


def calc_validity(data: dict, profiles) -> Q.ValidityMetrics:
    valid_values = checked = 0
    for p in profiles:
        eligible = [pt for pt in (p.patterns or []) if pt.confidence >= 0.5]
        if not eligible or data.get(p.name) is None:
            continue
        dominant = max(eligible, key=lambda pt: (pt.confidence, pt.match_count,
                                                 Q._neg_str(pt.name)))
        non_null = sum(1 for v in data[p.name] if not K.is_null_like_token(v.strip()))
        if non_null:
            checked += non_null
            valid_values += min(dominant.match_count, non_null)
    ratio = (valid_values / checked * 100.0) if checked else 100.0
    return Q.ValidityMetrics(ratio, max(checked - valid_values, 0), checked)


def calc_precision(data: dict, profiles) -> Q.PrecisionMetrics:
    checked = inconsistent = 0
    for p in profiles:
        if p.data_type != K.TYPE_FLOAT or not data.get(p.name):
            continue
        scales: dict = {}
        for value in data[p.name]:
            t = value.strip()
            if K.is_null_like_token(t) or K.parse_finite_f64(t) is None:
                continue
            scale = K.decimal_scale(t)
            if scale is not None:
                scales[scale] = scales.get(scale, 0) + 1
        column_count = sum(scales.values())
        checked += column_count
        inconsistent += max(column_count - max(scales.values(), default=0), 0)
    ratio = ((checked - inconsistent) / checked * 100.0) if checked else 100.0
    return Q.PrecisionMetrics(ratio, inconsistent, checked)


# ---------------------------------------------------------------- assembly


def render_sample_strings(stats) -> list:
    out = []
    for v in stats.sampler.samples():
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, float):
            out.append(str(int(v)) if stats.is_integer_type and v.is_integer() else repr(v))
        elif hasattr(v, "strftime"):
            out.append(v.strftime("%Y-%m-%dT%H:%M:%S"))
        else:
            out.append(str(v))
    return out


def infer_data_type_streaming(stats, sample: list) -> str:
    non_empty = [s for s in sample if not K.is_null_like_token(s)]
    if np.isfinite(stats.min) and np.isfinite(stats.max) and non_empty:
        if all(K.parse_i64(s) is not None for s in non_empty):
            return K.TYPE_INTEGER
        numeric = sum(1 for s in non_empty if K.parse_finite_f64(s) is not None)
        if numeric / len(non_empty) > 0.8:
            return K.TYPE_FLOAT
    if non_empty:
        head = non_empty[:100]
        if sum(1 for s in head if K._ANY_DATE_RE.match(s.strip())) / len(head) > 0.7:
            return K.TYPE_DATE
        bools = sum(1 for s in non_empty if K.parse_strict_boolean_token(s) is not None)
        if bools / len(non_empty) >= 0.9:
            return K.TYPE_BOOLEAN
    return K.TYPE_STRING


def datetime_stats_from_sample(values: list) -> S.DateTimeStats:
    parsed = [r for r in map(K.parse_flexible_datetime, values) if r is not None]
    if not parsed:
        return S.DateTimeStats()
    dates = [d for d, _ in parsed]
    year: dict = {}
    month: dict = {}
    dow: dict = {}
    for d in dates:
        year[d.year] = year.get(d.year, 0) + 1
        month[d.month] = month.get(d.month, 0) + 1
        dow[_WEEKDAYS[d.weekday()]] = dow.get(_WEEKDAYS[d.weekday()], 0) + 1
    dts = [dt for _, dt in parsed if dt is not None]
    hours = None
    if dts:
        hours = {}
        for dt in dts:
            hours[dt.hour] = hours.get(dt.hour, 0) + 1
    return S.DateTimeStats(
        min_datetime=min(dates).strftime("%Y-%m-%d"),
        max_datetime=max(dates).strftime("%Y-%m-%d"),
        duration_days=float((max(dates) - min(dates)).days),
        year_distribution=year, month_distribution=month,
        day_of_week_distribution=dow, hour_distribution=hours,
    )


def build_profile(name, stats, *, skip_patterns=False, locale=None,
                  identifier_columns=()) -> S.ColumnProfile:
    sample = render_sample_strings(stats)
    kind = stats.kind or "string"
    if kind == "boolean":
        data_type = K.TYPE_BOOLEAN
    elif kind == "timestamp":
        data_type = K.TYPE_DATE
    elif kind == "numeric":
        data_type = K.TYPE_INTEGER if stats.is_integer_type else K.TYPE_FLOAT
    elif kind == "binary":
        data_type = K.TYPE_STRING
    elif name in identifier_columns:
        data_type = K.TYPE_IDENTIFIER
    else:
        data_type = infer_data_type_streaming(stats, sample)
    invalid_count = None
    if data_type in (K.TYPE_INTEGER, K.TYPE_FLOAT):
        if kind == "numeric":
            nums = [v for v in stats.sampler.samples() if isinstance(v, float)]
        else:
            nums = [v for v in map(K.parse_finite_f64, sample) if v is not None]
        numeric_sample = np.asarray(nums, dtype=np.float64)
        col_stats = S.numeric_stats_from_sample(numeric_sample)
        exact_count = stats.welford.count
        invalid_count = max(stats.count - stats.null_count - exact_count, 0)
        if stats.invalid_count is not None:
            invalid_count = stats.invalid_count
        if exact_count > 0:
            col_stats.min, col_stats.max = stats.min, stats.max
            col_stats.mean = stats.welford.mean
            col_stats.std_dev = stats.welford.sample_std_dev()
            col_stats.variance = stats.welford.sample_variance()
            col_stats.coefficient_of_variation = K.coefficient_of_variation(
                col_stats.mean, col_stats.std_dev)
            if exact_count > len(numeric_sample):
                col_stats.is_approximate = True
    elif data_type == K.TYPE_DATE:
        if kind == "timestamp":
            col_stats = S.DateTimeStats(
                min_datetime=stats.ts_min.strftime("%Y-%m-%d") if stats.ts_min is not None else "",
                max_datetime=stats.ts_max.strftime("%Y-%m-%d") if stats.ts_max is not None else "",
                duration_days=float((stats.ts_max - stats.ts_min).days)
                if stats.ts_min is not None else 0.0,
                year_distribution=dict(stats.year_dist),
                month_distribution=dict(stats.month_dist),
                day_of_week_distribution={_WEEKDAYS[k]: v
                                          for k, v in sorted(stats.weekday_dist.items())},
                hour_distribution=dict(stats.hour_dist) if stats.has_time_component else None,
            )
            invalid_count = 0
        else:
            invalid_count = max(stats.count - stats.null_count - stats.date_match_count, 0)
            col_stats = datetime_stats_from_sample(sample) if sample else S.DateTimeStats()
    elif data_type == K.TYPE_BOOLEAN:
        if kind == "boolean":
            t, f = stats.bool_true, stats.bool_false
        else:
            t = sum(1 for s in sample if K.parse_strict_boolean_token(s) is True)
            f = sum(1 for s in sample if K.parse_strict_boolean_token(s) is False)
        col_stats = S.BooleanStats(t, f, t / (t + f) if t + f else 0.0)
    else:
        tl = stats.text_lengths
        col_stats = S.text_stats_from_lengths(tl.min_length, tl.max_length, tl.avg_length)
        non_empty = [v for v in sample if v]
        if kind == "string" and non_empty:
            counts: dict = {}
            for v in non_empty:
                counts[v] = counts.get(v, 0) + 1
            col_stats.most_frequent = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            col_stats.least_frequent = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))[:10]
    patterns = None
    if not skip_patterns:
        patterns = detect_patterns(sample, locale) if kind in ("string", "numeric") else []
    binary_or_bool = kind in ("binary", "boolean")
    return S.ColumnProfile(
        name=name, data_type=data_type, null_count=stats.null_count,
        total_count=stats.count,
        unique_count=None if binary_or_bool else stats.unique_count(),
        unique_count_is_approximate=None if binary_or_bool
        else stats.unique_count_is_approximate(),
        invalid_count=invalid_count, stats=col_stats, patterns=patterns,
    )


def assemble_report(coll, *, compute_quality=True, skip_patterns=False, locale=None,
                    config=None, identifier_columns=(), positive_columns=(),
                    temporal_columns=(), quality_dimensions=None) -> S.ProfileReport:
    config = config or Q.IsoQualityConfig()
    profiles = [build_profile(name, stats, skip_patterns=skip_patterns, locale=locale,
                              identifier_columns=identifier_columns)
                for name, stats in coll.columns.items()]
    quality = None
    confidence = "Exact"
    if compute_quality and profiles:
        data = {name: render_sample_strings(stats) for name, stats in coll.columns.items()}
        row_dups = None
        if coll.row_tracker is not None:
            row_dups = Q.RowDuplicateSummary(coll.row_tracker.duplicate_rows(),
                                             coll.row_tracker.rows_seen,
                                             coll.row_tracker.is_approximate())
        temporal = list(temporal_columns) or [
            p.name for p in profiles
            if p.data_type == K.TYPE_DATE or K.is_likely_date_column(p.name)]

        def on(dim):
            return quality_dimensions is None or dim in quality_dimensions

        quality = Q.QualityMetrics(
            completeness=Q.calc_completeness_from_profiles(profiles, config)
            if on("completeness") else None,
            consistency=calc_consistency(data, profiles) if on("consistency") else None,
            uniqueness=calc_uniqueness(data, profiles, coll.rows, list(identifier_columns),
                                       config, row_dups) if on("uniqueness") else None,
            accuracy=calc_accuracy(data, profiles, config, list(positive_columns))
            if on("accuracy") else None,
            timeliness=calc_timeliness(data, temporal, config) if on("timeliness") else None,
            validity=calc_validity(data, profiles) if on("validity") else None,
            precision=calc_precision(data, profiles) if on("precision") else None,
            low_sample_warning=Q.low_sample_warning(coll.rows),
            score_weights=config.score_weights,
        )
        sampled = any(len(stats.sampler.samples()) < stats.count - stats.null_count
                      for stats in coll.columns.values()
                      if stats.kind not in ("boolean", "binary"))
        confidence = "Mixed" if sampled else "Exact"
    return S.ProfileReport(
        column_profiles=profiles,
        execution=S.ExecutionMetadata(rows_processed=coll.rows,
                                      sampling_applied=confidence == "Mixed"),
        quality=quality, metric_confidence=confidence,
    )
