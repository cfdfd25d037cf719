"""Public facade: ``Profiler`` builder + ``profile(...)`` one-shot.

Behavior parity (not a port) with the reference's public API:
- builder surface:   /root/reference/crates/dataprof/src/profiler.rs:28-313
  (engine, chunk_size, sampling, format override, stop_when, CSV delimiter,
  JSON policy, quality dimensions, metric packs, locale, column hints)
- dispatch by input: python/dataprof/__init__.py:987-1260 (path / bytes /
  dict / records / DataFrame / Arrow)
- auto format detect by extension: dataprof-partial/src/lib.rs:100-112

Engine selection is where this rebuild intentionally diverges: the
reference's incremental-vs-columnar adaptive choice (adaptive.rs:160-227)
is replaced by Ray Data's streaming executor — there is one engine, and
"chunking" is block/batch sizing.
"""

from __future__ import annotations

import os
from typing import Any, Optional

import pyarrow as pa

from dataprof_ray.config import PipelineConfig, SemanticHints
from dataprof_ray.schema import ProfileReport

_EXT_FORMATS = {
    ".csv": "csv", ".tsv": "csv", ".txt": "csv",
    ".json": "json", ".jsonl": "json", ".ndjson": "json",
    ".parquet": "parquet", ".pq": "parquet",
}


def detect_format(path: str) -> str:
    """Extension-based detection (dataprof-partial/src/lib.rs:100-112)."""
    ext = os.path.splitext(path)[1].lower()
    if ext not in _EXT_FORMATS:
        raise ValueError(f"cannot detect format for {path!r} (ext {ext!r})")
    return _EXT_FORMATS[ext]


class Profiler:
    """Builder-style facade. All setters return self.

    >>> report = (Profiler()
    ...           .with_sample_capacity(5000)
    ...           .with_identifier_columns("id")
    ...           .analyze_file("data.csv"))
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self._format_override: Optional[str] = None

    # ---- builder setters (profiler.rs:229-313) ----

    def with_batch_size(self, n: int) -> "Profiler":
        self.config.batch_size = n
        return self

    def with_sample_capacity(self, n: int) -> "Profiler":
        self.config.sample_capacity = n
        return self

    def with_locale(self, locale: str) -> "Profiler":
        self.config.locale = locale
        return self

    def with_format(self, fmt: str) -> "Profiler":
        if fmt not in ("csv", "json", "parquet"):
            raise ValueError(f"unknown format override: {fmt}")
        self._format_override = fmt
        return self

    def with_csv_delimiter(self, d: str) -> "Profiler":
        self.config.csv_delimiter = d
        return self

    def with_json_error_policy(self, policy: str) -> "Profiler":
        if policy not in ("skip", "strict"):
            raise ValueError(f"unknown json error policy: {policy}")
        self.config.json_error_policy = policy
        return self

    def with_quality_dimensions(self, *dims: str) -> "Profiler":
        from dataprof_ray.config import QUALITY_DIMENSIONS

        bad = set(dims) - set(QUALITY_DIMENSIONS)
        if bad:
            raise ValueError(f"unknown quality dimensions: {sorted(bad)}")
        self.config.quality_dimensions = tuple(dims)
        return self

    def with_metric_packs(self, *packs: str) -> "Profiler":
        from dataprof_ray.config import METRIC_PACKS

        bad = set(packs) - set(METRIC_PACKS)
        if bad:
            raise ValueError(f"unknown metric packs: {sorted(bad)}")
        self.config.metric_packs = tuple(packs)
        return self

    def with_identifier_columns(self, *cols: str) -> "Profiler":
        h = self.config.hints
        self.config.hints = SemanticHints(
            tuple(cols), h.positive_columns, h.temporal_columns)
        return self

    def with_positive_columns(self, *cols: str) -> "Profiler":
        h = self.config.hints
        self.config.hints = SemanticHints(
            h.identifier_columns, tuple(cols), h.temporal_columns)
        return self

    def with_temporal_columns(self, *cols: str) -> "Profiler":
        h = self.config.hints
        self.config.hints = SemanticHints(
            h.identifier_columns, h.positive_columns, tuple(cols))
        return self

    def stop_when(self, cond) -> "Profiler":
        self.config.stop_condition = cond
        return self

    # ---- analysis entry points ----

    def analyze_file(self, path: str) -> ProfileReport:
        """Auto-detected format -> Dataset -> distributed profile."""
        fmt = self._format_override or detect_format(path)
        ds = self._open(path, fmt)
        data_source = {
            "type": "File", "path": path, "format": fmt,
            "size_bytes": os.path.getsize(path) if os.path.isfile(path) else None,
        }
        if fmt == "parquet" and os.path.isfile(path):
            # footer metadata capture (parser.rs:136-200 ParquetMetadata)
            import pyarrow.parquet as pq

            meta = pq.ParquetFile(path).metadata
            data_source["parquet"] = {
                "num_rows": meta.num_rows,
                "num_row_groups": meta.num_row_groups,
                "codec": meta.row_group(0).column(0).compression
                if meta.num_row_groups else None,
                "serialized_size": meta.serialized_size,
            }
        return self._profile_ds(ds, data_source=data_source)

    def profile_stream(self, source, *, format: str = "csv", **kwargs):
        """Profile an incrementally-arriving byte stream (socket, pipe,
        HTTP body) chunk-by-chunk with this builder's config
        (profiler.rs:929 ``profile_stream``)."""
        from dataprof_ray.sources.streams import profile_stream

        cfg = self.config
        return profile_stream(
            source, format=format,
            delimiter=cfg.csv_delimiter,
            json_error_policy=cfg.json_error_policy,
            stop_condition=cfg.stop_condition,
            sample_capacity=cfg.sample_capacity,
            locale=cfg.locale,
            compute_quality=("quality" in cfg.metric_packs
                             and len(cfg.quality_dimensions) > 0),
            skip_patterns="patterns" not in cfg.metric_packs,
            quality_dimensions=cfg.quality_dimensions,
            identifier_columns=cfg.hints.identifier_columns,
            positive_columns=cfg.hints.positive_columns,
            temporal_columns=cfg.hints.temporal_columns,
            **kwargs,
        )

    def profile_url(self, url: str, **kwargs):
        """Fetch + stream-profile a URL (profiler.rs:1096 ``profile_url``;
        ``file://`` works offline). Routes through ``profile_stream`` so
        EVERY builder setting (metric packs, quality dimensions, locale,
        hints, stop condition) applies identically to URL bodies."""
        import urllib.request
        from urllib.parse import urlparse

        fmt = kwargs.pop("format", None)
        if fmt is None and self._format_override in ("csv", "json"):
            fmt = self._format_override
        if fmt is None:
            path = urlparse(url).path.lower()
            fmt = "json" if path.endswith((".json", ".jsonl", ".ndjson")) \
                else "csv"
        with urllib.request.urlopen(url) as resp:  # noqa: S310 — caller's URL
            return self.profile_stream(resp, format=fmt, **kwargs)

    def analyze_structure(self, path: str, sample_rows: int = 1000):
        """Cheap structure scan: format, quick row count (Parquet footer /
        line sampling), per-column schema from a bounded sample — no full
        profile (dataprof-partial/src/lib.rs:26-120)."""
        from dataprof_ray.sources.structure import analyze_structure

        return analyze_structure(path, sample_rows)

    def analyze_dataset(self, ds, data_source: Optional[dict] = None) -> ProfileReport:
        return self._profile_ds(ds, data_source or {"type": "Dataset"})

    def analyze(self, obj: Any) -> ProfileReport:
        """In-memory dispatch (dict / records / DataFrame / Arrow /
        polars / Dataset / path)."""
        if isinstance(obj, str):
            return self.analyze_file(obj)
        if hasattr(obj, "map_batches") and hasattr(obj, "schema"):  # Dataset
            return self.analyze_dataset(obj)
        import dataprof_ray.pipelines  # noqa: F401 -- no per-operator reservation for this read
        from dataprof_ray.sources.readers import from_any

        mod = type(obj).__module__.split(".")[0]
        return self._profile_ds(from_any(obj), data_source={
            "type": "DataFrame", "provenance": mod,
        })

    # ---- internals ----

    def _open(self, path: str, fmt: str):
        import dataprof_ray.pipelines  # noqa: F401 -- no per-operator reservation for this read
        from dataprof_ray.sources import readers as RD

        if fmt == "parquet":
            return RD.read_parquet(path)
        if fmt == "csv":
            return RD.read_csv_robust(path, delimiter=self.config.csv_delimiter,
                                      flexible=self.config.csv_flexible)
        if fmt == "json":
            return RD.read_jsonl(path, policy=self.config.json_error_policy).dataset
        raise ValueError(fmt)

    def _profile_ds(self, ds, data_source: dict) -> ProfileReport:
        from dataprof_ray.pipelines.profile import profile_dataset
        from dataprof_ray.state.stop import StopCondition, apply_stop_condition

        cfg = self.config
        if not cfg.hints.is_empty():
            cfg.hints.validate_against_schema(ds.schema().names)

        cond = cfg.stop_condition
        truncation = None
        if cond is not None and cond.kind != "never":
            applied = apply_stop_condition(ds, cond, batch_size=cfg.batch_size or 8192)
            if isinstance(applied, tuple):
                table, truncation, _ev = applied
                import ray.data as rd

                ds = rd.from_arrow(table)
            else:
                # limit-pushdown path: truncation-vs-exhaustion precision
                # (incremental.rs:216-245 lookahead) — MaxRows is only a
                # truncation if the source actually had more rows
                cap = cond.row_limit()
                if ds.limit(cap + 1).count() > cap:
                    truncation = "MaxRows"
                ds = applied

        report = profile_dataset(
            ds,
            sample_capacity=cfg.sample_capacity,
            compute_quality=("quality" in cfg.metric_packs
                             and len(cfg.quality_dimensions) > 0),
            skip_patterns="patterns" not in cfg.metric_packs,
            locale=cfg.locale,
            config=cfg.iso,
            identifier_columns=cfg.hints.identifier_columns,
            positive_columns=cfg.hints.positive_columns,
            temporal_columns=cfg.hints.temporal_columns,
            data_source=data_source,
            batch_size=cfg.batch_size,
            quality_dimensions=cfg.quality_dimensions,
        )
        if truncation is not None:
            report.execution.truncation_reason = truncation
        if not cfg.hints.is_empty():
            cfg.hints.validate_bindings(report)
        return report


def profile(obj: Any, **kwargs) -> ProfileReport:
    """One-shot convenience mirroring ``dp.profile(...)``
    (python/dataprof/__init__.py:987). kwargs become PipelineConfig fields."""
    hints = SemanticHints(
        tuple(kwargs.pop("identifier_columns", ())),
        tuple(kwargs.pop("positive_columns", ())),
        tuple(kwargs.pop("temporal_columns", ())),
    )
    cfg = PipelineConfig(hints=hints, **kwargs)
    return Profiler(cfg).analyze(obj)
