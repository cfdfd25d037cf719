"""dataprof_ray — a Ray-Data-native data profiling + web-corpus quality-filter engine.

A from-scratch rebuild of the capabilities of AndreaBozzo/dataprof (reference at
/root/reference, v0.10.0) expressed as idiomatic Ray Data pipelines:

- ``functions/``   pure kernels: type inference, date parsing, numeric order stats,
                   pattern detection, quality dimensions (vectorized, no Ray deps).
- ``stages/``      ``map_batches`` stage callables (per-batch kernels, run as tasks).
- ``sources/``     readers (parquet corpus with column pruning, CSV sniffing, JSON policy).
- ``pipelines/``   end-to-end pipelines: quality_filter (flagship), profile rollup,
                   dedup family, similarity search, text analysis.
- ``state/``       mergeable accumulators (Welford/HLL/reservoir) and lineage manifests.

Nothing in this package calls ``ray.init()``/``ray.shutdown()`` — sessions are owned
by bench.py / test fixtures / the driver.
"""

__version__ = "0.1.0"

from dataprof_ray.config import PipelineConfig, SemanticHints  # noqa: F401
from dataprof_ray.functions.patterns import list_patterns  # noqa: F401
from dataprof_ray.profiler import Profiler, profile  # noqa: F401
from dataprof_ray.schema import ProfileReport  # noqa: F401
from dataprof_ray.sources.structure import (  # noqa: F401
    analyze_structure,
    infer_schema,
    quick_row_count,
)


def capabilities() -> dict:
    """Feature availability introspection (the reference's
    ``dataprof.capabilities``, python/dataprof/__init__.py:104-177). All
    core features are always on in this build; optional integrations
    report whether their import succeeds."""
    def _has(mod: str) -> bool:
        import importlib.util

        return importlib.util.find_spec(mod) is not None

    return {
        "version": __version__,
        "engine": "ray-data",
        "profiling": True,
        "quality": True,
        "patterns": True,
        "sampling": True,
        "streaming": True,
        "database": True,
        "dedup": True,
        "similarity": True,
        "pandas": _has("pandas"),
        "polars": _has("polars"),
        "duckdb": _has("duckdb"),
        "pillow": _has("PIL"),
    }
from dataprof_ray.state.accumulators import (  # noqa: F401
    WelfordAccumulator,
    HyperLogLog,
    CardinalityEstimator,
    ReservoirSampler,
    TextLengthStats,
    StreamingStatistics,
    RowUniquenessTracker,
    ColumnCollection,
)
