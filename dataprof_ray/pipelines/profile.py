"""Distributed profiling: Dataset -> per-partition accumulator partials ->
deterministic merge -> ProfileReport.

Replaces the reference's single-threaded chunk loop
(/root/reference/crates/dataprof-engines/src/streaming/incremental.rs:101-410)
with the Ray Data seam the reference left unused: its accumulators all have
``merge()`` but no engine ran chunks in parallel (streaming_stats.rs:289 note).
Here each input block is folded into one ``ColumnCollection`` inside
``map_batches`` (zero-copy Arrow), the tiny pickled partials (~KBs: HLL
registers + bounded reservoirs) are collected on the driver, and the merge
happens in deterministic sorted-key order. Nothing materializes the data
itself — the only driver-side payload is one small blob per block, so the
same plan holds at 100 TB (partials scale with block *count*, not bytes; a
two-level tree merge over a groupby can fold >100k partials if ever needed).
Each reservoir in a blob is one Arrow array, so the driver unpickles a few
buffers per column and the fold gathers with ``take``.

Assembly cost scales with the number of *distinct* sample values, not with
rows or sample size: ``encode_sample`` renders each column's reservoir once
per distinct raw value and dictionary-encodes it, then every detector
(RE2 over ASCII values, Python ``re`` over the rest), validator and
quality predicate runs once per distinct value, weighted by its count.
Only the order-sensitive checks read the sample order.

Assembly parity: exact-aggregate override + approximate disclosure from
/root/reference/crates/dataprof-runtime/src/profile_builder.rs:87-314; quality
bifurcation gate from report_assembler.rs:173-250.
"""

from __future__ import annotations

import pickle
import time
from typing import Optional

import numpy as np
import pyarrow as pa

from dataprof_ray.pipelines.partitioning import arrow_out, arrow_schema

from dataprof_ray import schema as S
from dataprof_ray.functions import kernels as K
from dataprof_ray.functions import patterns as P
from dataprof_ray.functions import quality as Q
from dataprof_ray.state import accumulators as A

_WEEKDAY_NAMES = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                  "Saturday", "Sunday"]


class PartialProfiler:
    """map_batches callable: one ColumnCollection per batch, emitted as a
    single-row table of (sort key, pickled blob)."""

    def __init__(self, sample_capacity: int = A.DEFAULT_RESERVOIR_CAPACITY,
                 track_row_uniqueness: bool = True) -> None:
        self.sample_capacity = sample_capacity
        self.track_row_uniqueness = track_row_uniqueness

    def __call__(self, batch: pa.Table) -> pa.Table:
        coll = A.ColumnCollection(
            sample_capacity=self.sample_capacity,
            track_row_uniqueness=self.track_row_uniqueness,
        )
        coll.update_table(batch)
        # Deterministic merge key: hash of the first row's signature + row
        # count. Stable for a given block layout; ties broken by blob bytes.
        if batch.num_rows > 0:
            key = int(A.row_signature_hashes(batch.slice(0, 1))[0])
        else:
            key = 0
        blob = pickle.dumps(coll, protocol=pickle.HIGHEST_PROTOCOL)
        return pa.table({
            "part_key": pa.array([key], pa.uint64()),
            "rows": pa.array([batch.num_rows], pa.int64()),
            "blob": pa.array([blob], pa.binary()),
        })


# Above this many input blocks the driver-side fold switches to the
# grouped (tree) merge automatically; below it the extra shuffle costs
# more than it saves.
TREE_MERGE_BLOCK_THRESHOLD = 512


def _auto_tree_groups(n_blocks: int) -> int:
    """Tree-merge group count for an estimated block count: 0 (off) under
    the threshold, else ~sqrt(n) clamped to [32, 256] so the driver folds
    at most a few hundred pre-merged blobs regardless of input size."""
    if n_blocks <= TREE_MERGE_BLOCK_THRESHOLD:
        return 0
    import math

    return int(min(256, max(32, math.isqrt(n_blocks))))


def _estimate_blocks(ds) -> int:
    try:
        return int(ds._plan.initial_num_blocks())
    except Exception:
        try:
            return len(ds.input_files())
        except Exception:
            return 0


def collect_column_state(
    ds,
    sample_capacity: int = A.DEFAULT_RESERVOIR_CAPACITY,
    track_row_uniqueness: bool = True,
    batch_size: Optional[int] = None,
    progress=None,
    tree_merge_groups: Optional[int] = None,
) -> A.ColumnCollection:
    """Run the partial-profile stage over a Dataset and fold the partials.

    ``progress``: optional callable ``(partials_done, rows_so_far)`` invoked
    as partials stream back to the driver (the reference's progress
    sink/callback hooks, profiler.rs:28-313).

    ``tree_merge_groups`` > 0 enables the scale path: partials are first
    combined inside a ``groupby(part_key % G).map_groups`` reduction so the
    driver folds G pre-merged blobs instead of one per block — required
    when block count x blob size outgrows driver memory (e.g. ~800k blobs
    for 100 TB at 128 MB blocks). Deterministic: groups and intra-group
    order are fixed by part_key. The default (``None``) decides
    automatically from the estimated input block count
    (``TREE_MERGE_BLOCK_THRESHOLD``); pass 0 to force the flat fold."""
    if tree_merge_groups is None:
        tree_merge_groups = _auto_tree_groups(_estimate_blocks(ds))
    parts_ds = ds.map_batches(
        PartialProfiler(sample_capacity, track_row_uniqueness),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if tree_merge_groups > 0:
        import pandas as pd

        groups = tree_merge_groups

        def add_group(batch: pa.Table) -> pa.Table:
            g = (batch.column("part_key").to_numpy(zero_copy_only=False)
                 % np.uint64(groups)).astype(np.int64)
            return batch.append_column("grp", pa.array(g, pa.int64()))

        def merge_group(df: pd.DataFrame) -> pd.DataFrame:
            parts = [((int(r.part_key), r.blob), pickle.loads(r.blob))
                     for r in df.itertuples(index=False)]
            merged = A.merge_collections(parts)
            return pd.DataFrame({
                "part_key": [int(df["grp"].iloc[0])],
                "rows": [int(df["rows"].sum())],
                "blob": [pickle.dumps(merged, protocol=pickle.HIGHEST_PROTOCOL)],
            })

        parts_ds = (
            parts_ds.map_batches(add_group, batch_format="pyarrow")
            .groupby("grp")
            .map_groups(arrow_out(merge_group), batch_format="pandas")
        )
    rows = []
    seen_rows = 0
    for batch in parts_ds.iter_batches(batch_format="pyarrow", batch_size=64):
        for r in batch.to_pylist():  # one tiny row per block
            rows.append(r)
            seen_rows += r["rows"]
            if progress is not None:
                progress(len(rows), seen_rows)
    parts = [((r["part_key"], r["blob"]), pickle.loads(r["blob"])) for r in rows]
    return A.merge_collections(parts)


def _render_value(v, integral: bool) -> str:
    """A sample value as the reference's formatter-based generic path
    prints it; ``integral`` for an integer column's float values."""
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return str(int(v)) if integral and v.is_integer() else repr(v)
    if hasattr(v, "strftime"):
        return v.strftime("%Y-%m-%dT%H:%M:%S")
    return str(v)


def encode_sample(stats: A.StreamingStatistics) -> Q.ColumnSample:
    """Render a column's reservoir once and dictionary-encode it: each
    distinct raw value is rendered once, and the pattern and quality passes
    read the encoding."""
    arr = stats.sampler.reservoir
    if arr is None:
        return Q.ColumnSample.from_list([])

    def render(v) -> str:
        return _render_value(v, stats.is_integer_type)

    if isinstance(arr, np.ndarray):
        # values of types with no common Arrow type: each renders by its own
        return Q.ColumnSample.from_list([render(v) for v in arr.tolist()])
    text = pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)
    return Q.ColumnSample.encode(arr, None if text else render)


def infer_data_type_streaming(stats: A.StreamingStatistics, sample: Q.ColumnSample) -> str:
    """Streaming-variant inference off the reservoir + finite min/max
    (profile_builder.rs:317-369), once per distinct sample value."""
    present = ~sample.null_like
    non_empty = sample.total(present)
    stripped = sample.stripped
    if np.isfinite(stats.min) and np.isfinite(stats.max) and non_empty:
        if sample.holds(lambda v: K.parse_i64(v) is not None)[present].all():
            return K.TYPE_INTEGER
        numeric = sample.total(present & ~np.isnan(sample.finite_f64))
        if numeric / non_empty > 0.8:
            return K.TYPE_FLOAT
    if non_empty:
        head = sample.first_codes(present, 100)
        date_like = sum(K._ANY_DATE_RE.match(stripped[c]) is not None for c in head.tolist())
        if date_like / len(head) > 0.7:
            return K.TYPE_DATE
        bools = sample.total(present & sample.holds(
            lambda v: K.parse_strict_boolean_token(v) is not None))
        if bools / non_empty >= 0.9:
            return K.TYPE_BOOLEAN
    return K.TYPE_STRING


def build_profile(
    name: str,
    stats: A.StreamingStatistics,
    sample: Q.ColumnSample,
    *,
    skip_patterns: bool = False,
    locale: Optional[str] = None,
    identifier_columns: tuple = (),
) -> S.ColumnProfile:
    """ColumnProfile assembly with the exact-over-sample contract
    (profile_builder.rs:87-215); ``sample`` is ``encode_sample(stats)``."""
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

    invalid_count: Optional[int] = None
    col_stats = None

    if data_type in (K.TYPE_INTEGER, K.TYPE_FLOAT):
        reservoir = stats.sampler.reservoir
        if kind == "numeric":
            if isinstance(reservoir, np.ndarray):  # the float values among several types
                numeric_sample = np.asarray(
                    [v for v in reservoir.tolist() if isinstance(v, float)], dtype=np.float64)
            elif reservoir is not None and pa.types.is_floating(reservoir.type):
                numeric_sample = reservoir.to_numpy(zero_copy_only=False)
            else:
                numeric_sample = np.zeros(0)
        else:
            # the parsed values in sample order: the moments sum in that order
            parsed = sample.finite_f64[sample.codes]
            numeric_sample = parsed[~np.isnan(parsed)]
        ns = S.numeric_stats_from_sample(numeric_sample)
        exact_count = stats.welford.count
        invalid_count = max(stats.count - stats.null_count - exact_count, 0)
        if stats.invalid_count is not None:
            invalid_count = stats.invalid_count
        if exact_count > 0:
            # exact stream aggregates override sample values
            ns.min = stats.min
            ns.max = stats.max
            ns.mean = stats.welford.mean
            ns.std_dev = stats.welford.sample_std_dev()
            ns.variance = stats.welford.sample_variance()
            ns.coefficient_of_variation = K.coefficient_of_variation(ns.mean, ns.std_dev)
            if exact_count > len(numeric_sample):
                ns.is_approximate = True
        col_stats = ns
    elif data_type == K.TYPE_DATE:
        if kind == "timestamp":
            col_stats = S.DateTimeStats(
                min_datetime=stats.ts_min.strftime("%Y-%m-%d") if stats.ts_min is not None else "",
                max_datetime=stats.ts_max.strftime("%Y-%m-%d") if stats.ts_max is not None else "",
                duration_days=float((stats.ts_max - stats.ts_min).days)
                if stats.ts_min is not None else 0.0,
                year_distribution=dict(stats.year_dist),
                month_distribution=dict(stats.month_dist),
                day_of_week_distribution={
                    _WEEKDAY_NAMES[k]: v for k, v in sorted(stats.weekday_dist.items())
                },
                hour_distribution=dict(stats.hour_dist) if stats.has_time_component else None,
            )
            invalid_count = 0
        else:
            parsed_dates = stats.date_match_count
            invalid_count = max(stats.count - stats.null_count - parsed_dates, 0)
            col_stats = (S.datetime_stats_from_counts(sample.values, sample.counts)
                         if len(sample) else S.DateTimeStats())
    elif data_type == K.TYPE_BOOLEAN:
        if kind == "boolean":
            t, f = stats.bool_true, stats.bool_false
        else:
            t = sample.total(sample.holds(lambda v: K.parse_strict_boolean_token(v) is True))
            f = sample.total(sample.holds(lambda v: K.parse_strict_boolean_token(v) is False))
        total = t + f
        col_stats = S.BooleanStats(t, f, t / total if total else 0.0)
    else:  # String / Identifier / binary
        tl = stats.text_lengths
        col_stats = S.text_stats_from_lengths(tl.min_length, tl.max_length, tl.avg_length)
        if kind == "string" and len(sample):
            # top/bottom-10 frequencies from the merged reservoir with the
            # deterministic (count desc, value asc) tie-break — the
            # streaming reference computes these over the reservoir too
            # (stats/text.rs:53-89); exact when the reservoir covers the
            # stream, sample-derived (and the report is Mixed) otherwise.
            col_stats.most_frequent, col_stats.least_frequent = S.text_frequencies(
                sample.values, sample.counts)

    patterns = None
    if not skip_patterns and kind in ("string", "numeric"):
        patterns = P.detect_patterns_counts(sample.stripped, sample.counts, locale)
    elif not skip_patterns:
        patterns = []

    unique_count: Optional[int] = None
    unique_approx: Optional[bool] = None
    if kind not in ("binary", "boolean"):
        unique_count = stats.unique_count()
        unique_approx = stats.unique_count_is_approximate()

    return S.ColumnProfile(
        name=name,
        data_type=data_type,
        null_count=stats.null_count,
        total_count=stats.count,
        unique_count=unique_count,
        unique_count_is_approximate=unique_approx,
        invalid_count=invalid_count,
        stats=col_stats,
        patterns=patterns,
    )


def assemble_report(
    coll: A.ColumnCollection,
    *,
    data_source: Optional[dict] = None,
    compute_quality: bool = True,
    skip_patterns: bool = False,
    locale: Optional[str] = None,
    config: Optional[Q.IsoQualityConfig] = None,
    identifier_columns: tuple = (),
    positive_columns: tuple = (),
    temporal_columns: tuple = (),
    scan_time_ms: float = 0.0,
    partitions: int = 0,
    quality_dimensions: Optional[tuple] = None,
) -> S.ProfileReport:
    """``quality_dimensions``: restrict quality assessment to the named
    dimensions (None = all seven). Unselected dimensions stay None —
    "not assessed" — so the overall score renormalizes over the selected
    weights (quality.rs renormalization semantics)."""
    config = config or Q.IsoQualityConfig()
    sample_data = {name: encode_sample(stats) for name, stats in coll.columns.items()}
    profiles = [
        build_profile(name, stats, sample_data[name], skip_patterns=skip_patterns,
                      locale=locale, identifier_columns=identifier_columns)
        for name, stats in coll.columns.items()
    ]

    quality = None
    confidence = "Exact"
    if compute_quality and profiles:
        row_dups = None
        if coll.row_tracker is not None:
            row_dups = Q.RowDuplicateSummary(
                coll.row_tracker.duplicate_rows(),
                coll.row_tracker.rows_seen,
                coll.row_tracker.is_approximate(),
            )
        temporal = list(temporal_columns) or [
            p.name for p in profiles
            if p.data_type == K.TYPE_DATE or K.is_likely_date_column(p.name)
        ]
        want = (set(quality_dimensions) if quality_dimensions is not None
                else None)

        def _on(name: str) -> bool:
            return want is None or name in want

        quality = Q.QualityMetrics(
            completeness=Q.calc_completeness_from_profiles(profiles, config)
            if _on("completeness") else None,
            consistency=Q.calc_consistency(sample_data, profiles)
            if _on("consistency") else None,
            uniqueness=Q.calc_uniqueness(
                sample_data, profiles, coll.rows, list(identifier_columns),
                config, row_dups) if _on("uniqueness") else None,
            accuracy=Q.calc_accuracy(sample_data, profiles, config,
                                     list(positive_columns))
            if _on("accuracy") else None,
            timeliness=Q.calc_timeliness(sample_data, temporal, config)
            if _on("timeliness") else None,
            validity=Q.calc_validity(sample_data, profiles)
            if _on("validity") else None,
            precision=Q.calc_precision(sample_data, profiles)
            if _on("precision") else None,
            low_sample_warning=Q.low_sample_warning(coll.rows),
            score_weights=config.score_weights,
        )
        # Bifurcated provenance (report_assembler.rs:173-250): sampled context
        # whenever any SAMPLED column's reservoir no longer covers the
        # stream. Boolean/binary columns are computed exactly from counters
        # and never feed the sampler — they must not force "Mixed".
        sampled = any(
            len(stats.sampler) < stats.count - stats.null_count
            for stats in coll.columns.values()
            if stats.kind not in ("boolean", "binary")
        )
        confidence = "Mixed" if sampled else "Exact"

    execution = S.ExecutionMetadata(
        rows_processed=coll.rows,
        scan_time_ms=scan_time_ms,
        sampling_applied=confidence == "Mixed",
        partitions=partitions,
    )
    return S.ProfileReport(
        data_source=data_source or {},
        column_profiles=profiles,
        execution=execution,
        quality=quality,
        metric_confidence=confidence,
    )


def profile_dataset(
    ds,
    *,
    sample_capacity: int = A.DEFAULT_RESERVOIR_CAPACITY,
    compute_quality: bool = True,
    skip_patterns: bool = False,
    locale: Optional[str] = None,
    config: Optional[Q.IsoQualityConfig] = None,
    identifier_columns: tuple = (),
    positive_columns: tuple = (),
    temporal_columns: tuple = (),
    data_source: Optional[dict] = None,
    batch_size: Optional[int] = None,
    quality_dimensions: Optional[tuple] = None,
) -> S.ProfileReport:
    """Profile a ray.data.Dataset end to end (the flagship profiling path).

    Duplicate column names are rejected up front, as in every reference
    engine (dataprof-core/src/validation.rs:21-41)."""
    t0 = time.perf_counter()
    names = ds.schema().names
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ValueError(f"duplicate column names: {dupes}")
    coll = collect_column_state(ds, sample_capacity, batch_size=batch_size)
    if not coll.columns:
        # Zero-row input: keep the schema's columns with empty stats
        # (record_batch_analyzer.rs:128-155 contract).
        coll.update_table(arrow_schema(ds).empty_table())
    scan_ms = (time.perf_counter() - t0) * 1000.0
    return assemble_report(
        coll,
        data_source=data_source,
        compute_quality=compute_quality,
        skip_patterns=skip_patterns,
        locale=locale,
        config=config,
        identifier_columns=identifier_columns,
        positive_columns=positive_columns,
        temporal_columns=temporal_columns,
        scan_time_ms=scan_ms,
        quality_dimensions=quality_dimensions,
    )


def profile_table(
    table: pa.Table,
    chunk_rows: int = 8192,
    **kwargs,
) -> S.ProfileReport:
    """Single-process oracle: identical kernels/accumulators over one
    pyarrow.Table, chunked like the reference's batch loop. Used by the
    parity tests to validate the distributed path."""
    coll = A.ColumnCollection(
        sample_capacity=kwargs.pop("sample_capacity", A.DEFAULT_RESERVOIR_CAPACITY)
    )
    for start in range(0, max(table.num_rows, 1), chunk_rows):
        chunk = table.slice(start, chunk_rows)
        if chunk.num_rows == 0 and table.num_rows > 0:
            break
        coll.update_table(chunk)
        if table.num_rows == 0:
            break
    return assemble_report(coll, **kwargs)
