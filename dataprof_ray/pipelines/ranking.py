"""Distributed global rank / NTILE / percent_rank over one order column.

Reference scope: dataprof has no windowed ranking (its percentiles are
per-column statistics, ``crates/dataprof-core``'s sampled quantiles —
see SURVEY.md §2.4); this module is part of the LLM-curation extension
surface (SURVEY.md §2.6b). Global ordering is what a training-data
pipeline needs for "take the top X% by quality score" slices and for
equal-population bucketing (NTILE) of scores before mixture weighting.

Scale design — three bounded passes, never a global sort
materialization on one worker:

1. SKETCH: ``aggregate.sketch_from_column`` folds per-block
   :class:`~dataprof_ray.state.quantile_sketch.QuantileSketch` partials
   (<= k points each) on the driver into split cut points. Driver
   memory O(blocks x k) floats.
2. COUNT: exact per-split row counts (vectorized ``searchsorted`` +
   ``bincount`` per batch, small driver fold) -> exclusive prefix
   offsets over splits in output order, broadcast once with
   ``ray.put``.
3. RANK: ``groupby(__split).map_groups`` — each task sorts ONLY its
   split by ``(value, *tiebreak)`` and adds its offset. Task memory is
   corpus/splits for a well-spread order column. A single hot VALUE
   concentrates all its ties in one split — the same caveat as any
   range partitioning; raise ``splits`` for spread skew, but a
   mega-tie needs a composite order key instead.

Determinism: ``tiebreak`` must make the full ordering unique (e.g. a
key column), else ranks within a tie depend on block boundaries.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from dataprof_ray.pipelines.partitioning import (DEFAULT_PARTITIONS,
                                                 nullable_cogroup)
from dataprof_ray.pipelines.aggregate import sketch_from_column


def _ntile_of(rank0: np.ndarray, total: int, n: int) -> np.ndarray:
    """Vectorized SQL NTILE(n) from 0-based global ranks: the first
    ``total % n`` buckets get ``total // n + 1`` rows, the rest get
    ``total // n`` (ANSI / DuckDB semantics)."""
    q, rem = divmod(total, n)
    threshold = rem * (q + 1)
    lo = rank0 // (q + 1) + 1
    hi = rem + (rank0 - threshold) // max(q, 1) + 1
    return np.where(rank0 < threshold, lo, hi).astype(np.int64)


def global_rank(
    ds,
    by: str,
    tiebreak: Sequence[str],
    descending: bool = False,
    splits: int = DEFAULT_PARTITIONS,
    rank_col: str = "rnk",
    ntile: Optional[int] = None,
    ntile_col: str = "tile",
    percent_col: Optional[str] = None,
    dense_col: Optional[str] = None,
    cume_col: Optional[str] = None,
    sketch_k: int = 256,
):
    """Append a 1-based global ``rank_col`` (== SQL ``ROW_NUMBER() OVER
    (ORDER BY by [DESC], *tiebreak)``) to every row; optionally also
    ``NTILE(ntile)`` and ``percent_rank()`` over the same window.

    ``by`` must be numeric and non-null (SQL ORDER BY over the profiled
    score columns this targets; nulls raise). ``tiebreak`` columns are
    always ascending, matching the usual ``score DESC, id`` ordering.
    Returns a lazy Dataset; rows come back range-partitioned by split,
    not in rank order (consumers that need order sort the small top-k
    slice they take).

    ``dense_col`` / ``cume_col`` add DENSE_RANK() / CUME_DIST() with
    peer groups over ``by`` ALONE (the standard semantics — with the
    unique tiebreak in the window they would degenerate to ROW_NUMBER
    and rnk/N). They cost nothing extra per row: equal values are
    forced into one split, so per-split tie groups are complete;
    dense_col adds ONE extra small pass (distinct values per split,
    a shuffle of per-batch-unique (split, value) pairs).
    """
    import ray

    if ntile is not None and ntile < 1:
        raise ValueError(f"ntile must be >= 1, got {ntile}")
    if splits < 1:
        raise ValueError(f"splits must be >= 1, got {splits}")
    if not tiebreak:
        raise ValueError("tiebreak columns are required for a "
                         "deterministic total order")

    ds = ds.materialize()  # 3 passes below; run the upstream once

    def _values(batch: pa.Table) -> np.ndarray:
        col = batch.column(by)
        if col.null_count:
            raise ValueError(f"global_rank: order column {by!r} has nulls")
        return col.to_numpy(zero_copy_only=False).astype(np.float64)

    # ---- pass 1: sketch -> split cut points (they only balance the
    # splits; ranks stay exact). NULLs raise in pass 2's _values.
    folded = sketch_from_column(ds, by, sketch_k * 4)
    total = int(round(folded.total_weight))
    if total == 0:
        # map_batches over a zero-block dataset loses the schema; build
        # the typed empty result explicitly instead
        import ray.data as rd_mod
        # to_pandas is O(0 rows) here and normalizes pandas-block inputs
        tbl = pa.Table.from_pandas(
            ds.to_pandas(), preserve_index=False).replace_schema_metadata(None)
        tbl = tbl.append_column(rank_col, pa.array([], pa.int64()))
        if ntile is not None:
            tbl = tbl.append_column(ntile_col, pa.array([], pa.int64()))
        if percent_col is not None:
            tbl = tbl.append_column(percent_col, pa.array([], pa.float64()))
        if dense_col is not None:
            tbl = tbl.append_column(dense_col, pa.array([], pa.int64()))
        if cume_col is not None:
            tbl = tbl.append_column(cume_col, pa.array([], pa.float64()))
        return rd_mod.from_arrow(tbl)
    cuts = np.unique(np.array(
        [folded.quantile(i / splits) for i in range(1, splits)]))

    # ---- pass 2: exact split counts -> offsets in OUTPUT order -------
    n_cells = len(cuts) + 1

    def split_ids(batch: pa.Table) -> np.ndarray:
        # side="right": equal values land in one split, so in-split sort
        # sees every tie (correct ranks even for hot values)
        return np.searchsorted(cuts, _values(batch), side="right")

    def count_partial(batch: pa.Table) -> pa.Table:
        cnt = np.bincount(split_ids(batch), minlength=n_cells)
        return pa.table({"cnt": pa.array(cnt, pa.int64())})

    counts = np.zeros(n_cells, dtype=np.int64)
    for part in (ds.map_batches(count_partial, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow")):
        # iter_batches may stack several per-task partials into one batch
        counts += (part.column("cnt").to_numpy(zero_copy_only=False)
                   .reshape(-1, n_cells).sum(axis=0))
    ordered = counts[::-1] if descending else counts
    excl = np.concatenate(([0], np.cumsum(ordered)[:-1]))
    offsets = excl[::-1].copy() if descending else excl
    offsets_ref = ray.put(offsets)

    # ---- optional pass 2b: distinct values per split (DENSE_RANK) ----
    dense_ref = None
    if dense_col is not None:
        def distinct_partial(batch: pa.Table) -> pa.Table:
            t = pa.table({"s": pa.array(split_ids(batch), pa.int64()),
                          "v": batch.column(by)})
            return pa.Table.from_pandas(
                t.to_pandas().drop_duplicates(),
                preserve_index=False).replace_schema_metadata(None)

        def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"s": [np.int64(df["s"].iloc[0])],
                                 "nd": [np.int64(df["v"].nunique())]})

        nd = np.zeros(n_cells, dtype=np.int64)
        per_split = (ds.map_batches(distinct_partial, batch_format="pyarrow")
                     .groupby("s")
                     .map_groups(nullable_cogroup(count_distinct),
                                 batch_format="pyarrow")
                     .to_pandas())
        nd[per_split["s"].to_numpy(dtype=np.int64)] = (
            per_split["nd"].to_numpy(dtype=np.int64))
        nd_ordered = nd[::-1] if descending else nd
        nd_excl = np.concatenate(([0], np.cumsum(nd_ordered)[:-1]))
        dense_ref = ray.put(nd_excl[::-1].copy() if descending else nd_excl)

    # ---- pass 3: per-split local sort + offset -----------------------
    sort_cols = [by, *tiebreak]
    ascending = [not descending] + [True] * len(tiebreak)

    def add_split(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__split", pa.array(split_ids(batch), pa.int64()))

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            out = df.drop(columns="__split")
            out[rank_col] = pd.Series([], dtype=np.int64)
            if ntile is not None:
                out[ntile_col] = pd.Series([], dtype=np.int64)
            if percent_col is not None:
                out[percent_col] = pd.Series([], dtype=np.float64)
            if dense_col is not None:
                out[dense_col] = pd.Series([], dtype=np.int64)
            if cume_col is not None:
                out[cume_col] = pd.Series([], dtype=np.float64)
            return out
        split = int(df["__split"].iloc[0])
        base = int(ray.get(offsets_ref)[split])
        df = (df.drop(columns="__split")
              .sort_values(sort_cols, ascending=ascending, kind="mergesort")
              .reset_index(drop=True))
        rank0 = base + np.arange(len(df), dtype=np.int64)
        df[rank_col] = rank0 + 1
        if ntile is not None:
            df[ntile_col] = _ntile_of(rank0, total, ntile)
        if percent_col is not None:
            # exact same expression DuckDB evaluates: (rank-1)/(N-1)
            df[percent_col] = (rank0 / (total - 1) if total > 1
                               else np.zeros(len(df)))
        if dense_col is not None or cume_col is not None:
            # peer groups over `by` alone; complete within the split
            # because equal values cannot straddle splits. factorize in
            # sorted order -> monotone codes 0,0,1,1,2,...
            codes, _ = pd.factorize(df[by])
            if dense_col is not None:
                dbase = int(ray.get(dense_ref)[split])
                df[dense_col] = dbase + codes.astype(np.int64) + 1
            if cume_col is not None:
                # CUME_DIST = (global position of the LAST peer + 1) / N
                sizes = np.bincount(codes)
                last_local = np.cumsum(sizes) - 1
                df[cume_col] = (base + last_local[codes] + 1) / total
        return df

    return (ds.map_batches(add_split, batch_format="pyarrow")
            .groupby("__split")
            .map_groups(nullable_cogroup(rank_group), batch_format="pyarrow"))
