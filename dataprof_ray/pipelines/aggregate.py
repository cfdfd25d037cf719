"""Pre-aggregated distributed groupby (the partial/combiner pattern).

Scale design: a naive ``ds.groupby(keys).aggregate(...)`` shuffles every row.
Here each input batch is first collapsed to one row per key (pandas groupby
inside ``map_batches``), so the all-to-all exchange moves |keys| x |batches|
partial rows — for low-cardinality keys that is thousands of rows regardless
of input size. The reference has no distributed aggregation at all (its
``EngineConfig.parallel`` is config-only, config.rs:359-369); this operator is
the Ray-native generalization of its per-chunk accumulate + merge scheme
(streaming_stats.rs:329-345).

Supported partial-mergeable aggregates: sum, count, min, max — and any
derived value (mean, ratio) computed on the tiny final frame by the caller.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dataprof_ray.pipelines.partitioning import (column_hashes,
                                                 keyed_exchange,
                                                 nullable_cogroup,
                                                 to_pandas_exact)


def round_away(values, decimals: int):
    """Round half away from zero — matches DuckDB/SQL ROUND semantics, unlike
    numpy's banker's rounding. Used so Ray results and oracle SQL agree."""
    a = np.asarray(values, dtype=np.float64)
    factor = 10.0 ** decimals
    return np.sign(a) * np.floor(np.abs(a) * factor + 0.5) / factor


def preagg_groupby(
    ds,
    keys: Sequence[str],
    specs: Sequence[tuple],
    batch_size: Optional[int] = 8192,
) -> pd.DataFrame:
    """Two-level aggregate: per-batch partials -> combine over partials.

    ``specs``: (out_name, src_col, fn) with fn in {sum, count, min, max};
    ``src_col`` is ignored for count. Returns a pandas DataFrame (small by
    construction: one row per distinct key). NULL keys form their own
    group (SQL GROUP BY): the partials move through ``keyed_exchange`` on
    the key hash, and each partition combines with an Arrow ``group_by``,
    so no user key value ever reaches Ray's sort comparator.
    """
    keys = list(keys)

    for _name, _col, _fn in specs:
        if _fn not in ("sum", "count", "min", "max"):
            raise ValueError(f"unsupported partial aggregate: {_fn}")

    def partials(batch: pa.Table) -> pa.Table:
        # Arrow-native partial collapse: pa.TableGroupBy keeps null-key
        # groups (SQL GROUP BY semantics, like the Ray groupby downstream)
        # and avoids the pandas round-trip the old path paid per batch.
        uniq: list = []
        for _, col, fn in specs:
            pair = (None, "count_all") if fn == "count" else (col, fn)
            if pair not in uniq:
                uniq.append(pair)
        res = pa.TableGroupBy(batch, keys).aggregate(
            [([] if c is None else c, f) for c, f in uniq])
        cols = {k: res.column(k) for k in keys}
        for name, col, fn in specs:
            src = "count_all" if fn == "count" else f"{col}_{fn}"
            cols[name] = res.column(src)
        return pa.table(cols)

    final = [(name, "sum" if fn == "count" else fn) for name, _c, fn in specs]

    def combine(t: pa.Table) -> pa.Table:
        res = t.group_by(keys).aggregate(final)
        cols = {k: res.column(k) for k in keys}
        for name, fn in final:
            cols[name] = res.column(f"{name}_{fn}")
        return pa.table(cols)

    out = keyed_exchange(
        ds.map_batches(partials, batch_format="pyarrow", batch_size=batch_size),
        keys, combine).to_pandas()
    if any(k not in out.columns for k in keys):
        # zero input rows -> zero groups -> column-less frame (the same
        # empty-input class funnel_counts guards); emit the typed shape
        out = pd.DataFrame({k: pd.Series(dtype=object) for k in keys})
        for name, _col, fn in specs:
            out[name] = pd.Series(
                dtype=np.int64 if fn == "count" else np.float64)
        return out
    return out.sort_values(keys).reset_index(drop=True)


def group_quantiles(
    ds,
    keys: Sequence[str],
    value_col: str,
    qs: Sequence[float] = (0.25, 0.5, 0.75),
    decimals: int = 4,
    partitions: int = None,
) -> pd.DataFrame:
    """Exact per-group quantiles with type-7 linear interpolation — the
    same formula as SQL QUANTILE_CONT, computed by the shared
    ``kernels.quantile_type7`` so the Ray result and the DuckDB oracle
    agree bit-for-bit before rounding. Null values are excluded (SQL
    aggregate semantics).

    Scale design: one ``keyed_exchange`` on the key hash; each coarse
    partition computes ALL of its groups' quantiles inside one task (a
    single in-process pandas groupby), so Ray schedules 64 groups
    regardless of key cardinality (per-key Ray groups are the measured
    per-tiny-group hotspot; see pipelines.partitioning). Exact quantiles
    still need each group's values co-located: per-group cardinality is
    bounded by worker memory (the streaming approximation for bigger
    groups is the profiler's sampled percentiles)."""
    from dataprof_ray.functions.kernels import quantile_type7

    keys = list(keys)
    qnames = [f"q{int(round(q * 100)):02d}" for q in qs]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {k: [] for k in keys}
        for name in qnames:
            rows[name] = []
        for kv, g in df.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            vals = g[value_col].dropna().to_numpy(dtype=np.float64)
            for k, v in zip(keys, kv):
                rows[k].append(v)
            if len(vals) == 0:
                for name in qnames:
                    rows[name].append(np.nan)
            else:
                sv = np.sort(vals)
                for q, name in zip(qs, qnames):
                    rows[name].append(
                        float(round_away(quantile_type7(sv, q), decimals)))
        return pd.DataFrame(rows)

    out = keyed_exchange(ds.select_columns(keys + [value_col]), keys,
                         per_partition, partitions=partitions,
                         batch_format="pandas").to_pandas()
    return out.sort_values(keys).reset_index(drop=True)


def argmax_by(
    ds,
    keys: Sequence[str],
    order_cols: Sequence[str],
    descending: bool = True,
    partitions: int = None,
) -> pd.DataFrame:
    """One surviving row per key group: the row maximal (``descending=True``,
    e.g. "latest event per user") or minimal under the lexicographic order of
    ``order_cols``. All other columns ride along as payload. Equivalent SQL:
    ``QUALIFY ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order_cols DESC)
    = 1``. For a deterministic result, ``order_cols`` must be a total order
    within each key group (append a unique id as tie-break).

    Scale design (combiner + coarse partitions): each input batch first
    collapses to at most one row per key it contains (a per-batch pandas
    sort + drop_duplicates — the argmax combiner), so the shuffle moves
    |keys-in-batch| x |batches| candidate rows, never the input. The final
    reduce runs per ``keyed_exchange`` partition, one vectorized pass for
    all keys of a partition. Output size = number of distinct keys; at
    corpus scale consume the returned frame's upstream as a Dataset write
    instead of collecting (this helper returns pandas for the
    small-result profile/query use)."""
    keys = list(keys)
    order_cols = list(order_cols)
    keep = "last" if descending else "first"

    def reduce_batch(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(order_cols, kind="stable")
                .drop_duplicates(keys, keep=keep))

    out = to_pandas_exact(
        # nullable_cogroup: payload ints/bools with nulls must ride through
        # the pandas combiner exactly (not as float64); it also emits
        # metadata-free Arrow so downstream shuffles can hash the schema
        keyed_exchange(ds.map_batches(nullable_cogroup(reduce_batch),
                                      batch_format="pyarrow"),
                       keys, nullable_cogroup(reduce_batch),
                       partitions=partitions),
        fallback_ds=ds,  # all-empty input
    )
    if out.empty and not len(out.columns):
        return out  # schema-less empty input: nothing to sort
    return out.sort_values(keys).reset_index(drop=True)


def pivot_counts(
    ds,
    index_cols: Sequence[str],
    pivot_col: str,
    values: Sequence,
) -> pd.DataFrame:
    """Crosstab: one output row per distinct ``index_cols`` combination and
    one count column per entry of ``values`` (the explicit pivot-value list
    — SQL's ``SUM(CASE WHEN pivot = v THEN 1 ELSE 0 END)`` per column; a
    NULL or unlisted pivot value counts toward no column).

    Scale design: the widening is a per-batch Arrow kernel (one indicator
    column per pivot value), which immediately collapses through
    ``preagg_groupby`` — the shuffle moves one partial row per (index,
    batch), never events, and the pivot never materializes a wide sparse
    matrix of the input."""
    import pyarrow.compute as pc

    values = list(values)
    index_cols = list(index_cols)
    names = [str(v) for v in values]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate pivot column names: {names}")

    def widen(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in index_cols}
        pv = batch.column(pivot_col)
        for name, v in zip(names, values):
            cols["__p_" + name] = pc.cast(
                pc.fill_null(pc.equal(pv, pa.scalar(v)), False), pa.int64())
        return pa.table(cols)

    out = preagg_groupby(
        ds.map_batches(widen, batch_format="pyarrow"),
        index_cols, [(n, "__p_" + n, "sum") for n in names])
    for n in names:
        out[n] = out[n].astype(np.int64)
    return out


def sketch_columns(ds, cols: Sequence[str], k: int = 512) -> dict:
    """Fold every column of ``cols`` into its own mergeable
    ``QuantileSketch`` in ONE pass: every BLOCK (``batch_size=None`` — a
    per-default-batch partial would never compress when k exceeds the
    batch size) emits a <= k-point partial per column; the driver folds
    them. The reduction moves k x blocks points per column no matter the
    input size (rank error O(d/k) for merge depth d). Returns
    ``{column: QuantileSketch}``."""
    from dataprof_ray.state.quantile_sketch import QuantileSketch

    cols = list(cols)

    def sketch_batch(batch: pa.Table) -> pa.Table:
        sks = [QuantileSketch(k).update_array(
            batch.column(c).to_numpy(zero_copy_only=False)) for c in cols]
        return pa.table({
            "ci": pa.array(np.repeat(np.arange(len(cols), dtype=np.int32),
                                     [len(sk.values) for sk in sks])),
            "v": pa.array(np.concatenate([sk.values for sk in sks]),
                          pa.float64()),
            "w": pa.array(np.concatenate([sk.weights for sk in sks]),
                          pa.float64()),
        })

    merged = {c: QuantileSketch(k) for c in cols}
    for part in (ds.select_columns(cols)
                 .map_batches(sketch_batch, batch_format="pyarrow",
                              batch_size=None)
                 .iter_batches(batch_format="pyarrow", batch_size=None)):
        ci = part.column("ci").to_numpy(zero_copy_only=False)
        v = part.column("v").to_numpy(zero_copy_only=False)
        w = part.column("w").to_numpy(zero_copy_only=False)
        for i, c in enumerate(cols):
            sel = ci == i
            merged[c].merge(QuantileSketch(k, v[sel], w[sel]))
    return merged


def sketch_from_column(ds, col: str, k: int = 512):
    """One column's :func:`sketch_columns` sketch."""
    return sketch_columns(ds, [col], k)[col]


def approx_quantiles(
    ds,
    col: str,
    qs: Sequence[float] = (0.01, 0.25, 0.5, 0.75, 0.99),
    k: int = 512,
) -> pd.DataFrame:
    """Approximate quantiles of a column at bounded memory via
    :func:`sketch_from_column`; each requested quantile interpolates the
    merged CDF (the companion audit query measures the rank error)."""
    merged = sketch_from_column(ds, col, k)
    return pd.DataFrame({
        "q": list(qs),
        "value": [merged.quantile(q) for q in qs],
        "n": np.int64(round(merged.total_weight)),
    })


def topk_per_group(
    ds,
    keys: Sequence[str],
    order_cols: Sequence[str],
    k: int,
    descending: bool = True,
    partitions: int = None,
    as_pandas: bool = True,
):
    """Top-k rows per key group under the lexicographic ``order_cols``
    order (SQL ``QUALIFY ROW_NUMBER() OVER (PARTITION BY keys ORDER BY
    order_cols DESC) <= k``). ``order_cols`` must totally order each group
    (append a unique id) for a deterministic result.

    Scale design: the ``argmax_by`` combiner generalized — each batch
    keeps at most k rows per key it contains, so the shuffle moves
    k x |keys-in-batch| x |batches| candidates; the final reduce is one
    vectorized pandas pass per ``keyed_exchange`` partition.

    ``as_pandas=False`` returns the result as a Dataset instead of
    collecting it — required when k x distinct-keys is itself corpus-sized
    (e.g. a per-domain cap over billions of domains feeding an export)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    keys = list(keys)
    order_cols = list(order_cols)

    def reduce_batch(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(order_cols, ascending=not descending,
                               kind="stable")
                .groupby(keys, sort=False, dropna=False).head(k))

    # nullable_cogroup: exact int/bool payloads through the pandas
    # combiner + metadata-free Arrow out (see argmax_by)
    out = keyed_exchange(ds.map_batches(nullable_cogroup(reduce_batch),
                                        batch_format="pyarrow"),
                         keys, nullable_cogroup(reduce_batch),
                         partitions=partitions)
    if not as_pandas:
        return out
    out = to_pandas_exact(out, fallback_ds=ds)  # fallback: all-empty input
    if out.empty and not len(out.columns):
        return out  # schema-less empty input: nothing to sort
    return out.sort_values(keys + order_cols).reset_index(drop=True)


def key_skew_stats(ds, keys, top_n: int = 10,
                   partitions: int = None):
    """Hot-key diagnostics for shuffle planning: per-key counts reduced to
    the global row count, distinct-key count, the top-``top_n`` heaviest
    keys, and each hot key's share of all rows (the number that decides
    whether a downstream groupby/join needs salting — ``hash_join``'s skew
    guard takes exactly these keys).

    Scale design: per-batch partial counts (one row per distinct key per
    batch crosses the wire), one ``keyed_exchange`` (a key lives wholly in
    one partition), per-partition top-n candidates whose first row also
    carries the partition's total and distinct count — the driver merges
    ``partitions`` candidate frames, never the key universe. Shares
    rounded half-away-from-zero to 6 decimals. Returns a pandas
    DataFrame: rank | key columns | cnt | share.
    """
    keys = list(keys)

    # Arrow-native throughout: a pandas roundtrip would launder a
    # null-bearing int key batch to float64, and the partition hash is
    # dtype-sensitive — the same key would land in different partitions
    # from null-bearing vs null-free batches (partitioning.py docstring).
    def partial(batch: pa.Table) -> pa.Table:
        out = batch.select(keys).group_by(keys).aggregate([([], "count_all")])
        return out.rename_columns(keys + ["cnt"])

    def reduce_part(t: pa.Table) -> pa.Table:
        tot = t.group_by(keys).aggregate([("cnt", "sum")]) \
            .rename_columns(keys + ["cnt"])
        order = [("cnt", "descending")] + [(k, "ascending") for k in keys]
        # the partition's summary rides its first row only (kept even at
        # top_n = 0; the driver cuts to top_n), so a plain sum folds it
        top = tot.sort_by(order).slice(0, max(top_n, 1))
        pad = [0] * (top.num_rows - 1)
        return (top
                .append_column("__total", pa.array(
                    [pc.sum(tot.column("cnt")).as_py() or 0] + pad, pa.int64()))
                .append_column("__distinct", pa.array(
                    [tot.num_rows] + pad, pa.int64())))

    cand = keyed_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                          keys, reduce_part,
                          partitions=partitions).to_pandas()
    total = int(cand["__total"].sum())
    distinct = int(cand["__distinct"].sum())
    top = cand.sort_values(["cnt"] + keys,
                           ascending=[False] + [True] * len(keys)) \
        .head(top_n).reset_index(drop=True)
    share = round_away(top["cnt"].to_numpy() / max(total, 1), 6)
    out = top[keys + ["cnt"]].copy()
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    out["share"] = share
    out.attrs["total_rows"] = total
    out.attrs["distinct_keys"] = distinct
    return out


def group_distinct(ds, keys, value_col: str,
                   partitions: int = None):
    """Distinct ``value_col`` count per key group, exchange-efficient:
    each batch ships its DISTINCT (key, 64-bit value hash) pairs — the
    value itself never moves — through one ``keyed_exchange`` on the key,
    then one Arrow ``count_distinct`` per partition (a key lives wholly in
    one partition). Null values are excluded, matching SQL COUNT(DISTINCT).

    Exactness: counts are exact modulo 64-bit hash collisions
    (~n²/2⁶⁵ — negligible below ~10⁸ distinct per key). Worker memory is
    bounded by one partition's distinct-pair set, the same contract as
    every coarse-partition operator here; if a single key's distinct set
    ever outgrows that, swap the per-key exact count for the
    state.accumulators.CardinalityEstimator HLL spill (mergeable
    registers), trading exactness for O(16KB)/key."""
    keys = list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(keys + [value_col])
        mask = pc.is_valid(t.column(value_col))
        t = t.filter(mask)
        h = column_hashes(t.column(value_col))
        pairs = t.select(keys).append_column(
            "__h", pa.array(h, pa.uint64()))
        return pairs.group_by(keys + ["__h"]).aggregate([])

    def reduce_part(t: pa.Table) -> pa.Table:
        # Arrow-native: a pandas roundtrip would launder null-bearing int
        # keys to float64 (corrupting >2^53 keys and the output dtype)
        out = t.group_by(keys).aggregate([("__h", "count_distinct")])
        return out.rename_columns(keys + ["distinct_count"])

    return keyed_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                          keys, reduce_part, partitions=partitions)


def funnel_counts(ds, key: str, ts_col: str, stage_col: str,
                  stages: Sequence[str],
                  partitions: Optional[int] = None) -> pd.DataFrame:
    """Ordered-funnel conversion: for each key, stage ``i`` is reached iff
    every earlier stage was reached and this stage's EARLIEST event is
    strictly after the previous stage's earliest (the classic
    view -> click -> purchase funnel). Returns (stage, n_keys) with one
    row per stage, n_keys monotonically non-increasing.

    Scale design: per-batch partials reduce to min-ts per (key, stage) —
    the shuffle moves one small row per key-stage pair per batch, never
    events — then ``keyed_exchange`` partitions evaluate the ordered
    condition for ALL their keys in one vectorized pandas pivot, emitting
    ``len(stages)`` counts each; the driver folds partitions x stages
    tiny rows. Null keys/timestamps are excluded (SQL GROUP BY over the
    same filter)."""
    stages = list(stages)
    stage_idx = {s: i for i, s in enumerate(stages)}

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.and_(pc.is_valid(batch.column(key)),
                       pc.is_valid(batch.column(ts_col)))
        mask = pc.and_(mask, pc.is_in(batch.column(stage_col),
                                      value_set=pa.array(stages)))
        b = batch.filter(mask)
        df = pd.DataFrame({
            "k": b.column(key).to_pandas().to_numpy(),
            "s": [stage_idx[s] for s in b.column(stage_col).to_pylist()],
            "t": b.column(ts_col).to_pandas().to_numpy(),
        })
        m = df.groupby(["k", "s"], as_index=False, sort=False)["t"].min()
        return pa.Table.from_pandas(m, preserve_index=False)

    def evaluate(df: pd.DataFrame) -> pd.DataFrame:
        m = (df.groupby(["k", "s"], as_index=False, sort=False)["t"].min()
             .pivot(index="k", columns="s", values="t"))
        reached = None
        counts = np.zeros(len(stages), dtype=np.int64)
        prev_t = None
        for i in range(len(stages)):
            t_i = m[i] if i in m.columns else pd.Series(
                pd.NaT, index=m.index)
            ok = t_i.notna() if reached is None else \
                reached & t_i.notna() & (t_i > prev_t)
            counts[i] = int(ok.sum())
            reached = ok
            # carry the stage time only where reached (NaT elsewhere keeps
            # later comparisons False)
            prev_t = t_i.where(ok)
        return pd.DataFrame({"stage": stages,
                             "n_keys": counts})

    per_part = keyed_exchange(
        ds.select_columns([key, ts_col, stage_col])
        .map_batches(partial, batch_format="pyarrow"),
        ["k"], evaluate, partitions=partitions,
        batch_format="pandas").to_pandas()
    if per_part.empty or "stage" not in per_part.columns:
        # zero qualifying events -> zero groups -> column-less frame
        return pd.DataFrame({"stage": stages,
                             "n_keys": np.zeros(len(stages), np.int64)})
    out = (per_part.groupby("stage", sort=False, as_index=False)
           ["n_keys"].sum())
    # preserve the funnel's stage order
    out["__o"] = out["stage"].map(stage_idx)
    return (out.sort_values("__o").drop(columns="__o")
            .reset_index(drop=True))


def grouped_corr(ds, keys: Sequence[str], x_col: str, y_col: str,
                 decimals: int = 4,
                 batch_size: Optional[int] = 8192) -> pd.DataFrame:
    """Per-group Pearson correlation from EXACT integer partial sums.

    Contract: ``x_col`` and ``y_col`` must hold integer-valued int64
    columns (callers scale floats first, e.g. ``_int_away`` cents/e4),
    small enough that n*max(|x|*|y|, x^2, y^2) fits int64 — then the five
    partial sums (sum x, sum y, sum xy, sum x^2, sum y^2) are order-free
    integers, every reduction order yields identical bits, and the final
    float expression matches a DuckDB oracle computing the SAME formula
    over CAST-to-DOUBLE integer sums (IEEE ops on identical inputs).
    DuckDB's own ``corr()`` uses a different single-pass recurrence whose
    float error differs run-to-run of the plan — the oracle must spell
    the formula out, not call ``corr()``.

    Scale design: the classic combiner pattern — per-batch product
    columns + per-batch group collapse, one tiny shuffle of |keys| x
    |batches| partial rows, corr computed on the driver's one-row-per-key
    frame. Rows where either side is null are excluded (SQL corr
    semantics); null keys form their own group (SQL GROUP BY).
    """
    keys = list(keys)

    def products(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(batch.column(x_col)),
                       pc.is_valid(batch.column(y_col)))
        b = batch.filter(mask)
        x = b.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = b.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {k: b.column(k) for k in keys}
        cols["__x"] = pa.array(x, pa.int64())
        cols["__y"] = pa.array(y, pa.int64())
        cols["__xy"] = pa.array(x * y, pa.int64())
        cols["__xx"] = pa.array(x * x, pa.int64())
        cols["__yy"] = pa.array(y * y, pa.int64())
        return pa.table(cols)

    stats = preagg_groupby(
        ds.map_batches(products, batch_format="pyarrow",
                       batch_size=batch_size),
        keys,
        [("n", None, "count"), ("sx", "__x", "sum"), ("sy", "__y", "sum"),
         ("sxy", "__xy", "sum"), ("sxx", "__xx", "sum"),
         ("syy", "__yy", "sum")],
        batch_size=batch_size,
    )
    n = stats["n"].to_numpy(np.float64)
    sx = stats["sx"].to_numpy(np.float64)
    sy = stats["sy"].to_numpy(np.float64)
    sxy = stats["sxy"].to_numpy(np.float64)
    sxx = stats["sxx"].to_numpy(np.float64)
    syy = stats["syy"].to_numpy(np.float64)
    num = n * sxy - sx * sy
    den = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(den == 0.0, np.nan, num / den)
    out = stats[keys].copy()
    out["n"] = stats["n"].astype(np.int64)
    out["corr"] = round_away(corr, decimals)
    return out.reset_index(drop=True)


def grouped_entropy(ds, keys: Sequence[str], value_col: str,
                    decimals: int = 4,
                    batch_size: Optional[int] = 8192) -> pd.DataFrame:
    """Per-group Shannon entropy (base 2) of ``value_col``'s value
    distribution — DuckDB ``entropy()`` semantics: nulls excluded, zero
    for single-valued groups. Returns one row per key.

    Scale design: counts per (key, value) via the partial/combiner
    groupby (the shuffle moves distinct key-value rows, never raw rows),
    then the entropy fold runs on the driver's tiny counts frame.
    Cardinality contract: |keys| x |distinct values| must be driver-small
    — the operator is for categorical columns (event types, langs,
    sources), not free text; high-cardinality values belong to the
    HLL/CMS family."""
    keys = list(keys)
    counts = preagg_groupby(
        ds.map_batches(
            lambda b: b.filter(pc.is_valid(b.column(value_col))),
            batch_format="pyarrow", batch_size=batch_size),
        keys + [value_col],
        [("cnt", None, "count")],
        batch_size=batch_size,
    )

    def _h(g: pd.DataFrame) -> float:
        c = g["cnt"].to_numpy(np.float64)
        p = c / c.sum()
        return float(-(p * np.log2(p)).sum())

    if counts.empty:
        out = pd.DataFrame({k: pd.Series(dtype=object) for k in keys})
        out["entropy"] = pd.Series(dtype=np.float64)
        return out
    out = (counts.groupby(keys, dropna=False, sort=True)
           .apply(_h, include_groups=False).rename("entropy").reset_index())
    out["entropy"] = round_away(out["entropy"].to_numpy(), decimals)
    return out


def rollup_aggregate(ds, keys: Sequence[str], specs: Sequence[tuple],
                     mode: str = "rollup",
                     grouping_sets: Optional[Sequence[Sequence[str]]] = None,
                     batch_size: Optional[int] = 8192) -> pd.DataFrame:
    """SQL ``GROUP BY ROLLUP / CUBE`` from ONE distributed pass.

    The cluster scans and shuffles exactly once, at the finest grain
    (``preagg_groupby`` over all ``keys``); every coarser grouping set is
    derived by re-folding that finest-grain frame on the driver. This is
    the scale contract: at 100 TB the only data that ever reaches the
    driver is |distinct key combos| rows, and the n-1 (rollup) or 2^n - 1
    (cube) coarser levels cost zero additional cluster work — folding
    partials is exact because the supported aggregates are distributive
    (``sum``/``count``/``min``/``max``; count folds as sum-of-counts).
    AVG callers derive it as sum/count after the fold.

    Output matches SQL semantics bit-for-bit: grouping sets are
    ``keys[:n], keys[:n-1], ..., ()`` for rollup and every subset for
    cube — or pass explicit ``grouping_sets`` (each a subset of ``keys``;
    SQL ``GROUP BY GROUPING SETS ((...), ...)``, duplicates emit their
    rows once per occurrence just like SQL). Aggregated-away key columns
    are NULL; ``grouping_id`` carries
    the ``GROUPING(keys...)`` bitmask (first key = most significant bit),
    which keeps real-NULL key groups (bit 0) distinguishable from
    rollup-total rows (bit 1). On empty input only the grand-total set
    emits its row (count 0, other aggregates NULL) — DuckDB-verified.
    """
    from itertools import combinations

    keys = list(keys)
    if mode not in ("rollup", "cube"):
        raise ValueError(f"mode must be 'rollup' or 'cube', got {mode!r}")
    if not keys:
        raise ValueError("rollup_aggregate needs at least one key")

    if grouping_sets is not None:
        sets = []
        for s in grouping_sets:
            s = tuple(s)
            extra = [k for k in s if k not in keys]
            if extra:
                raise ValueError(
                    f"grouping set {s!r} has columns outside keys: {extra}")
            if len(set(s)) != len(s):
                raise ValueError(f"grouping set {s!r} repeats a column")
            sets.append(s)
        if not sets:
            raise ValueError("grouping_sets must name at least one set")
    elif mode == "rollup":
        sets = [tuple(keys[:i]) for i in range(len(keys), -1, -1)]
    else:
        sets = [c for r in range(len(keys), -1, -1)
                for c in combinations(keys, r)]

    finest = preagg_groupby(ds, keys, specs, batch_size=batch_size)

    names = [name for name, _c, _f in specs]

    def fold(col, fn):
        # SQL: SUM over only NULLs is NULL (min_count=1); COUNT folds to 0
        if fn == "sum":
            return col.sum(min_count=1)
        return col.sum() if fn == "count" else getattr(col, fn)()

    frames = []
    for s in sets:
        gid = sum(1 << (len(keys) - 1 - i)
                  for i, k in enumerate(keys) if k not in s)
        if len(s) == len(keys):
            part = finest.copy()
        elif finest.empty:
            if s:
                continue  # SQL: keyed sets emit no rows on empty input
            part = pd.DataFrame(
                {name: [0 if fn == "count" else np.nan]
                 for name, _c, fn in specs})
        elif not s:
            part = pd.DataFrame([{name: fold(finest[name], fn)
                                  for name, _c, fn in specs}])
        else:
            g = finest.groupby(list(s), dropna=False, sort=False)
            part = pd.DataFrame({name: fold(g[name], fn)
                                 for name, _c, fn in specs}).reset_index()
        for k in keys:
            if k not in s:
                part[k] = None
        part = part[keys + names].copy()
        part["grouping_id"] = np.int64(gid)
        frames.append(part)

    out = pd.concat(frames, ignore_index=True)
    for k in keys:
        out[k] = out[k].astype(object).where(out[k].notna(), None)
    for name, _c, fn in specs:
        if fn == "count":
            out[name] = out[name].astype(np.int64)
    out["grouping_id"] = out["grouping_id"].astype(np.int64)
    return out.reset_index(drop=True)


def grouped_mode(ds, keys: Sequence[str], value_col: str,
                 batch_size: Optional[int] = 8192) -> pd.DataFrame:
    """Most frequent ``value_col`` value per key group, with the
    deterministic (count DESC, value ASC) tie-break both engines can
    express. Null values are excluded as mode candidates (SQL ``mode()``
    and the oracle's ``WHERE value IS NOT NULL`` agree); a key whose
    values are all null emits no row.

    Scale design: identical exchange to ``grouped_entropy`` — one
    partial/combiner groupby over (keys, value), so the shuffle moves one
    row per DISTINCT (key, value) pair, never raw rows; the argmax fold
    runs on the driver's tiny counts frame. Same cardinality contract:
    categorical values only.
    """
    keys = list(keys)
    counts = preagg_groupby(
        ds.map_batches(
            lambda b: b.filter(pc.is_valid(b.column(value_col))),
            batch_format="pyarrow", batch_size=batch_size),
        keys + [value_col],
        [("cnt", None, "count")],
        batch_size=batch_size,
    )
    if counts.empty:
        out = pd.DataFrame({k: pd.Series(dtype=object) for k in keys})
        out[value_col] = pd.Series(dtype=object)
        out["cnt"] = pd.Series(dtype=np.int64)
        return out
    picked = (counts
              .sort_values(keys + ["cnt", value_col],
                           ascending=[True] * len(keys) + [False, True],
                           kind="stable")
              .groupby(keys, dropna=False, sort=False)
              .head(1))
    picked["cnt"] = picked["cnt"].astype(np.int64)
    return picked.reset_index(drop=True)


def exact_column_quantiles(ds, targets: dict, k: int = 512,
                           slack: float = 0.01, max_bracket: int = 2_000_000,
                           max_rounds: int = 5) -> dict:
    """EXACT global QUANTILE_CONT (type-7) of every ``{column: qs}`` in
    ``targets`` without ever co-locating a column: one pass folds a
    mergeable :class:`QuantileSketch` per column (:func:`sketch_columns`)
    that brackets each target rank, then one counting pass per round
    ships, for every (column, quantile) pair at once, only (a) the exact
    count of values below its bracket and (b) the in-bracket values
    themselves — expected O(slack * n) points, not n. The type-7
    interpolation then reads its two order statistics straight out of the
    collected slice. If a true rank falls outside its bracket (sketch
    error), the bracket widens (slack x4) and ONLY the failed pairs
    re-run — exactness never depends on sketch quality, only the pass
    count does. Passes do not grow with the number of columns.

    Scale contract: bracket traffic is ~2 * slack * n values per
    (column, quantile) pair; pick ``k`` (sketch rank error O(1/k)) and
    ``slack`` so that fits the driver. ``max_bracket`` bounds each pair's
    collected values and hard-fails loudly, naming the column, rather
    than silently materializing it. Ties/NaN: nulls and NaNs are excluded
    (SQL aggregate semantics); heavy ties only shrink brackets.

    Returns ``{column: {q: (exact_value, n_non_null)}}``.
    """
    targets = {c: list(qs) for c, qs in targets.items()}
    for c, qs in targets.items():
        if not qs or any(not (0.0 <= q <= 1.0) for q in qs):
            raise ValueError(
                f"quantiles of {c!r} must lie in [0, 1], got {qs!r}")

    sketches = sketch_columns(ds, list(targets), k)

    pending = {(c, q): slack for c, qs in targets.items() for q in qs}
    results: dict = {c: {} for c in targets}
    for _round in range(max_rounds):
        if not pending:
            break
        pairs = sorted(pending)
        cols = sorted({c for c, _q in pairs})
        bounds = []  # (column index, lo, hi) per pair
        for c, q in pairs:
            s = pending[(c, q)]
            bounds.append((
                cols.index(c),
                -np.inf if q - s <= 0.0 else sketches[c].quantile(q - s),
                np.inf if q + s >= 1.0 else sketches[c].quantile(q + s)))

        def partial(batch: pa.Table, _cols=cols, _bounds=bounds) -> pa.Table:
            valid = []
            for c in _cols:
                v = batch.column(c).to_numpy(zero_copy_only=False)
                v = v[~pd.isna(v)].astype(np.float64, copy=False)
                valid.append(v[~np.isnan(v)])
            below = np.empty(len(_bounds), np.int64)
            n_valid = np.empty(len(_bounds), np.int64)
            pi_out, val_out = [], []
            for i, (ci, lo, hi) in enumerate(_bounds):
                v = valid[ci]
                below[i] = int((v < lo).sum())
                n_valid[i] = len(v)
                inb = v[(v >= lo) & (v <= hi)]
                pi_out.append(np.full(len(inb), i, np.int32))
                val_out.append(inb)
            n_vals = sum(map(len, val_out))
            counts = pa.table({
                "pi": pa.array(np.arange(len(_bounds), dtype=np.int32)),
                "below": pa.array(below),
                "n_valid": pa.array(n_valid),
                "val": pa.nulls(len(_bounds), pa.float64()),
            })
            vals = pa.table({
                "pi": pa.array(np.concatenate(pi_out).astype(np.int32)),
                "below": pa.nulls(n_vals, pa.int64()),
                "n_valid": pa.nulls(n_vals, pa.int64()),
                "val": pa.array(np.concatenate(val_out)),
            })
            return pa.concat_tables([counts, vals])

        below_tot = np.zeros(len(pairs), np.int64)
        n_total = np.zeros(len(pairs), np.int64)
        n_collected = np.zeros(len(pairs), np.int64)
        collected: list = [[] for _ in pairs]
        for part in (ds.select_columns(cols)
                     .map_batches(partial, batch_format="pyarrow")
                     .iter_batches(batch_format="pyarrow",
                                   batch_size=None)):
            pi = part.column("pi").to_numpy(zero_copy_only=False)
            below = part.column("below").to_numpy(zero_copy_only=False)
            nv = part.column("n_valid").to_numpy(zero_copy_only=False)
            val = part.column("val").to_numpy(zero_copy_only=False)
            is_count = ~pd.isna(below)
            np.add.at(below_tot, pi[is_count],
                      below[is_count].astype(np.int64))
            np.add.at(n_total, pi[is_count], nv[is_count].astype(np.int64))
            vpi, vval = pi[~is_count], val[~is_count]
            n_collected += np.bincount(vpi, minlength=len(pairs))
            over = np.flatnonzero(n_collected > max_bracket)
            if len(over):
                c, q = pairs[over[0]]
                raise MemoryError(
                    f"quantile bracket for {c!r} at q={q} exceeded "
                    f"max_bracket={max_bracket}; raise k or lower slack")
            for i in np.unique(vpi):
                collected[i].append(vval[vpi == i])

        still_pending = {}
        for i, (c, q) in enumerate(pairs):
            n = int(n_total[i])
            if n == 0:
                results[c][q] = (float("nan"), 0)
                continue
            vals = (np.sort(np.concatenate(collected[i]))
                    if collected[i] else np.empty(0))
            h = (n - 1) * q
            i0 = int(math.floor(h))
            i1 = min(i0 + 1, n - 1)
            b = int(below_tot[i])
            if i0 >= b and i1 < b + len(vals):
                x0, x1 = float(vals[i0 - b]), float(vals[i1 - b])
                frac = h - i0
                results[c][q] = (x0 * (1 - frac) + x1 * frac, n)
            else:
                still_pending[(c, q)] = pending[(c, q)] * 4.0
        pending = still_pending
    if pending:
        raise RuntimeError(
            f"exact quantiles did not converge for {sorted(pending)} "
            f"after {max_rounds} bracket widenings")
    return {c: {q: results[c][q] for q in qs} for c, qs in targets.items()}


def exact_global_quantiles(ds, col: str, qs: Sequence[float],
                           k: int = 512, slack: float = 0.01,
                           max_bracket: int = 2_000_000,
                           max_rounds: int = 5) -> dict:
    """EXACT global QUANTILE_CONT (type-7) of one column: the one-column
    case of :func:`exact_column_quantiles` (two passes when every bracket
    holds). Returns ``{q: (exact_value, n_non_null)}``."""
    return exact_column_quantiles(ds, {col: qs}, k=k, slack=slack,
                                  max_bracket=max_bracket,
                                  max_rounds=max_rounds)[col]


def _fold_column_partials(ds, cols, partial, fields) -> pd.DataFrame:
    """Sum the per-batch ``(column_name, *fields)`` partials of ``partial``
    into one row per column of ``cols``, in order; 0 where no batch
    reported (zero-row input yields no batches at all)."""
    parts = (ds.select_columns(cols)
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    if parts.empty:
        return pd.DataFrame(0, index=cols, columns=fields)
    return parts.groupby("column_name", sort=False)[fields].sum().reindex(
        cols, fill_value=0)


def winsorized_stats(ds, cols: Sequence[str], lo_q: float = 0.05,
                     hi_q: float = 0.95, decimals: int = 4,
                     k: int = 512) -> pd.DataFrame:
    """Winsorized (clipped-tail) summary per column: exact global
    [lo_q, hi_q] cut points of every column from one
    :func:`exact_column_quantiles` call, then one shared vectorized pass
    clips every column to its cuts and folds (count, sum) partials into
    the winsorized mean — the robust-mean feature that tames crawl-metric
    outliers without dropping rows. Three Ray Data executions (sketch,
    bracket, fold) whatever the column count, while every bracket holds.
    Clipping uses the UNROUNDED cuts (as SQL would); only the reported
    values round half-away."""
    cols = list(cols)
    qr = exact_column_quantiles(ds, {c: [lo_q, hi_q] for c in cols}, k=k)
    cuts = {c: (qr[c][lo_q][0], qr[c][hi_q][0]) for c in cols}

    def partial(batch: pa.Table) -> pa.Table:
        names, ns, sums = [], [], []
        for c in cols:
            v = batch.column(c).to_numpy(zero_copy_only=False)
            v = v[~pd.isna(v)].astype(np.float64, copy=False)
            lo, hi = cuts[c]
            names.append(c)
            ns.append(len(v))
            sums.append(float(np.clip(v, lo, hi).sum()))
        return pa.table({"column_name": pa.array(names),
                         "n": pa.array(ns, pa.int64()),
                         "s": pa.array(sums, pa.float64())})

    agg = _fold_column_partials(ds, cols, partial, ["n", "s"])
    out = pd.DataFrame({
        "column_name": cols,
        "n": agg["n"].to_numpy(np.int64),
        "lo_cut": [float(round_away(np.float64(cuts[c][0]), decimals))
                   for c in cols],
        "hi_cut": [float(round_away(np.float64(cuts[c][1]), decimals))
                   for c in cols],
        "mean_winsorized": [
            float(round_away(np.float64(s / n), decimals)) if n else np.nan
            for s, n in zip(agg["s"], agg["n"])],
    })
    return out


def robust_outlier_stats(ds, cols: Sequence[str], z: float = 3.0,
                         decimals: int = 4, k: int = 512) -> pd.DataFrame:
    """Robust (median/MAD) outlier fences per column — the
    outlier detector that, unlike mean/stddev z-scores, is not dragged by
    the outliers it is trying to find. Every column's exact global median
    comes from one :func:`exact_column_quantiles` call, every column's
    exact MAD (median of |x - median|) from a second call over one
    derived deviation pass, then one shared vectorized pass counts values
    strictly outside ``median ± z * 1.4826 * MAD`` (1.4826 = the
    normal-consistency constant, so z is in sigma units). Five Ray Data
    executions (median sketch + bracket, MAD sketch + bracket, fence
    count) whatever the column count, while every bracket holds; each
    stage needs the one before it.

    Exactness: both quantiles are exact type-7 rank selections at bounded
    memory; DuckDB's ``median()``/``mad()`` are bit-identical to type-7
    at q=0.5 on doubles (verified), so the oracle agrees before rounding.
    Fences are computed from UNROUNDED stats in float64 with the same
    multiplication order the SQL uses."""
    cols = list(cols)
    halves = {c: [0.5] for c in cols}
    med = {c: r[0.5][0] for c, r in
           exact_column_quantiles(ds, halves, k=k).items()}

    def dev_batch(batch: pa.Table) -> pa.Table:
        return pa.table({c: pc.abs(pc.subtract(
            pc.cast(batch.column(c), pa.float64()), pa.scalar(med[c])))
            for c in cols})

    devs = ds.select_columns(cols).map_batches(dev_batch,
                                               batch_format="pyarrow")
    mad = {c: r[0.5][0] for c, r in
           exact_column_quantiles(devs, halves, k=k).items()}
    stats = {c: (med[c], mad[c], med[c] - z * 1.4826 * mad[c],
                 med[c] + z * 1.4826 * mad[c]) for c in cols}

    def partial(batch: pa.Table) -> pa.Table:
        names, ns, outs = [], [], []
        for c in cols:
            v = batch.column(c).to_numpy(zero_copy_only=False)
            v = v[~pd.isna(v)].astype(np.float64, copy=False)
            _med, _mad, lo, hi = stats[c]
            names.append(c)
            ns.append(len(v))
            outs.append(int(((v < lo) | (v > hi)).sum()))
        return pa.table({"column_name": pa.array(names),
                         "n": pa.array(ns, pa.int64()),
                         "n_outliers": pa.array(outs, pa.int64())})

    agg = _fold_column_partials(ds, cols, partial, ["n", "n_outliers"])

    def _r(x):
        return float(round_away(np.float64(x), decimals))

    return pd.DataFrame({
        "column_name": cols,
        "n": agg["n"].to_numpy(np.int64),
        "median": [_r(stats[c][0]) for c in cols],
        "mad": [_r(stats[c][1]) for c in cols],
        "lo_fence": [_r(stats[c][2]) for c in cols],
        "hi_fence": [_r(stats[c][3]) for c in cols],
        "n_outliers": agg["n_outliers"].to_numpy(np.int64),
    })
