"""Joins: broadcast (map-side) and hash-partitioned cogroup (large-large).

The reference is single-table (SURVEY.md §2.6: no joins of any kind); a
training-data engine needs both join shapes:

- ``broadcast_join``: the small side is materialized ONCE into a lookup
  table, put in the object store (`ray.put`), and read by reference inside
  every map task — the big side never shuffles. The cheap shape; use it
  whenever one side fits in memory.
- ``hash_join``: both sides are partitioned by a hash of the join key and
  cogrouped (union with a side tag -> coarse ``groupby(part)`` -> one
  vectorized pandas merge per partition). Every row of BOTH sides moves
  exactly once; pick ``partitions`` >= cluster parallelism. Skewed keys
  are handled IN the operator: pass ``hot_keys`` (or use
  ``detect_hot_keys``) and hot rows are salted across ``salt_factor``
  partitions with build-side replication.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa


def broadcast_lookup(small_ds_or_table, key: str, columns: Sequence[str]) -> dict:
    """Materialize the small side to {key -> tuple(columns)} (driver-side;
    the small side must fit in memory — that is the operator's contract).

    Arrow-native (``to_pylist``): a pandas round-trip would launder nullable
    ints into float64/NaN and corrupt null semantics. Small-side keys must
    be UNIQUE — a duplicate would silently pick one row where SQL JOIN
    multiplies rows, so it raises instead."""
    table = small_ds_or_table
    if not isinstance(table, pa.Table):
        table = pa.concat_tables(
            list(table.iter_batches(batch_format="pyarrow"))
        )
    keys = table.column(key).to_pylist()
    cols = [table.column(c).to_pylist() for c in columns]
    lookup: dict = {}
    for i, k in enumerate(keys):
        if k is None:
            continue  # SQL JOIN: NULL never matches, so a NULL small-side
            # row must not become a match target for NULL big-side keys
        if k in lookup:
            raise ValueError(
                f"broadcast_join small side has duplicate key {k!r}; "
                "the operator requires unique small-side keys"
            )
        lookup[k] = tuple(col[i] for col in cols)
    return lookup


class _BroadcastJoiner:
    def __init__(self, lookup_ref, big_key: str, columns: Sequence[str],
                 types: Sequence[pa.DataType], how: str) -> None:
        import ray

        self.lookup = ray.get(lookup_ref) if not isinstance(lookup_ref, dict) \
            else lookup_ref
        self.big_key = big_key
        self.columns = list(columns)
        self.types = list(types)  # pin types: an all-null batch (left join,
        self.how = how            # no matches) must not infer a null column
        # identity sentinel — a tuple of Nones would collide with the
        # interned empty tuple when columns=[] (semi-join use)
        self.missing = object()

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.big_key).to_pylist()
        get = self.lookup.get
        miss = self.missing
        rows = [get(k, miss) for k in keys]
        if self.how == "inner":
            mask = np.fromiter((r is not miss for r in rows),
                               dtype=bool, count=len(rows))
            batch = batch.filter(pa.array(mask))
            rows = [r for r in rows if r is not miss]
        for i, col in enumerate(self.columns):
            batch = batch.append_column(
                col, pa.array([None if r is miss else r[i] for r in rows],
                              self.types[i]))
        return batch


def broadcast_join(
    big_ds,
    small,
    *,
    big_key: str,
    small_key: str,
    columns: Sequence[str],
    how: str = "inner",
    batch_size: Optional[int] = 4096,
):
    """Join a large Dataset against a small side without any shuffle.

    ``small`` may be a Dataset or pyarrow.Table; ``columns`` are the small
    side's columns appended to each matching big-side row. ``how`` is
    "inner" (drop unmatched) or "left" (null-fill). The lookup dict ships
    once via ray.put and is deserialized once per WORKER process
    (textstats._broadcast_cached), so the stage runs as STATELESS tasks:
    Ray fuses a chain of broadcast joins into one task pipeline, and —
    unlike the actor-pool form this replaced — a chain of joins cannot
    starve a small cluster by each pool pinning a CPU (three chained
    1-CPU pools on a 4-CPU test node deadlocked the read stage)."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type: {how}")
    small_schema = small.schema if isinstance(small, pa.Table) \
        else arrow_schema(small)
    types = [small_schema.field(c).type for c in columns]
    lookup_ref = ray.put(broadcast_lookup(small, small_key, columns))

    def join_batch(batch: pa.Table) -> pa.Table:
        from dataprof_ray.pipelines.textstats import _broadcast_cached

        joiner = _BroadcastJoiner(_broadcast_cached(lookup_ref), big_key,
                                  columns, types, how)
        return joiner(batch)

    return big_ds.map_batches(
        join_batch, batch_format="pyarrow", batch_size=batch_size)


# --------------------------------------------------------- hash-partitioned join


_JOIN_PARTITIONS = 64


def _key_parts(column: pa.ChunkedArray | pa.Array, partitions: int) -> np.ndarray:
    """Deterministic partition of a join-key column (any hashable type):
    polars 64-bit hash -> modulo. Null keys get partition -1 (dropped or
    left-unmatched by the caller — SQL NULL never matches)."""
    import polars as pl

    if isinstance(column, pa.Table):
        column = column.column(0)
    arr = column.combine_chunks() if isinstance(column, pa.ChunkedArray) else column
    h = pl.from_arrow(arr).hash(seed=0).to_numpy().astype(np.uint64)
    part = (h % np.uint64(partitions)).astype(np.int32)
    null_mask = np.asarray(arr.is_null())
    if null_mask.any():
        part = part.copy()
        part[null_mask] = -1
    return part


# Arrow -> pandas NULLABLE dtype mapping for the cogroup: the union's null
# padding would otherwise launder int columns to float64 (and silently lose
# precision above 2^53). Applied via to_pandas(types_mapper=...), so exact
# integer values survive the pandas round-trip and the output Arrow schema
# keeps the input integer types for BOTH join kinds. Shared with every
# other pandas-cogroup operator via pipelines.partitioning.
from dataprof_ray.pipelines.partitioning import (  # noqa: E402
    NULLABLE_DTYPES as _NULLABLE_DTYPES,
    arrow_schema,
    nullable_mapper as _nullable_mapper,
)


def _typed_null_fill(frame, carry_right, rename_right, right_types):
    """Null-fill the carried right-side columns of ``frame`` with TYPED
    nulls matching what a matched partition emits under the nullable-dtype
    cogroup: pandas nullable Int64/boolean for ints/bools (so int columns
    are never laundered to float64 — see ``hash_join``'s docstring),
    datetime64[unit] NaT for temporals, NaN for floats, None otherwise.
    Matched and unmatched partitions then emit ONE consistent block schema."""
    frame = frame.copy()
    for c in carry_right:
        t = right_types[c]
        nullable = _NULLABLE_DTYPES.get(str(t))
        if pa.types.is_timestamp(t):
            dt, fill = np.dtype(f"datetime64[{t.unit}]"), pd.NaT
        elif pa.types.is_temporal(t):
            dt, fill = np.dtype("datetime64[s]"), pd.NaT
        elif nullable is not None:
            dt, fill = pd.api.types.pandas_dtype(nullable), pd.NA
        elif pa.types.is_floating(t):
            dt, fill = np.dtype("float64"), np.nan
        else:
            dt, fill = np.dtype("object"), None
        frame[rename_right[c]] = pd.Series(fill, index=frame.index, dtype=dt)
    return frame


def _salt_parts(table: pa.Table, key_col: str, hot_values: pa.Array,
                salt_factor: int, partitions: int,
                replicate: bool) -> pa.Table:
    """Skew guard: rows whose key is in ``hot_values`` get their partition
    spread over ``salt_factor`` consecutive partitions. Probe-side rows
    (``replicate=False``) each pick ONE salted partition (round-robin within
    the batch); build-side rows (``replicate=True``) are REPLICATED to all
    ``salt_factor`` partitions so every salted probe row still finds its
    matches. Null-key rows (partition -1) are never salted."""
    import pyarrow.compute as pc

    part = table.column("__part").to_numpy(zero_copy_only=False)
    hot = np.asarray(
        pc.fill_null(pc.is_in(table.column(key_col), value_set=hot_values),
                     False))
    hot &= part >= 0
    if not hot.any() or salt_factor <= 1:
        return table
    if not replicate:
        offs = np.arange(int(hot.sum()), dtype=np.int32) % salt_factor
        part = part.copy()
        part[hot] = (part[hot] + offs) % partitions
        return table.set_column(table.schema.get_field_index("__part"),
                                "__part", pa.array(part, pa.int32()))
    cold = table.filter(pa.array(~hot))
    hot_t = table.filter(pa.array(hot))
    hot_part = hot_t.column("__part").to_numpy(zero_copy_only=False)
    idx = table.schema.get_field_index("__part")
    copies = [
        hot_t.set_column(idx, "__part",
                         pa.array((hot_part + j) % partitions, pa.int32()))
        for j in range(salt_factor)
    ]
    return pa.concat_tables([cold] + copies)


def hash_join(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    how: str = "inner",
    partitions: int = _JOIN_PARTITIONS,
    right_suffix: str = "_right",
    hot_keys: Sequence = (),
    salt_factor: int = 16,
    stats: Optional[dict] = None,
):
    """Large-large equi-join as a hash-partitioned cogroup. Returns a lazy
    Dataset with all left columns plus the right side's non-key columns
    (plus the right key itself when its name differs from the left key, as
    SQL keeps both); a right column colliding with a left name gets
    ``right_suffix``.

    Semantics pinned to SQL, all four kinds (``inner`` / ``left`` /
    ``right`` / ``outer``): NULL keys never match — NULL-key rows are
    dropped by the kinds that drop that side's unmatched rows and emitted
    null-filled by the kinds that keep them (FULL JOIN keeps both).
    Duplicate keys multiply rows, as in SQL. When the two key columns
    share one name, unmatched right rows carry their key VALUE in that
    column (SQL ``USING`` / coalesced-key semantics — the useful form);
    with distinct key names both columns appear and a kept-unmatched
    right row gets NULL in the left key column, exactly as ``FROM l FULL
    JOIN r ON l.k = r.rk`` does. Integer/bool columns
    keep their types for EVERY join kind: the cogroup converts Arrow
    blocks with pandas NULLABLE dtypes (Int64/boolean), so null-fills use
    NA instead of laundering ints to float64 (and >2^53 values survive
    exactly).

    The right key is CAST to the left key's Arrow type before both
    hashing and matching: hashes are dtype-sensitive (hash(1: int64) !=
    hash(1.0: float64)), so hashing the raw columns would silently drop
    every cross-typed match. A lossy cast raises instead.

    Skew guard: pass the dominant key values as ``hot_keys`` (find them
    with ``detect_hot_keys``) and each hot key's rows are salted across
    ``salt_factor`` partitions — probe rows spread round-robin, build rows
    replicated — so one hot key no longer serializes into a single
    partition task. Pass a ``stats`` dict to observe (driver-side) the
    plan actually chosen: hot key list, salt factor, and whether salting
    engaged — salting is deterministic given those inputs, so callers and
    tests can assert on it without introspecting worker tasks."""
    import pandas as pd

    if how not in ("inner", "left", "right", "outer"):
        raise ValueError(f"unsupported join type: {how}")
    if hot_keys and how in ("right", "outer"):
        # build-side salting REPLICATES right rows; an unmatched replica
        # would surface salt_factor times in right/outer output
        raise ValueError("hot_keys salting supports inner/left joins only")
    left_schema = arrow_schema(left)
    right_schema = arrow_schema(right)
    left_cols = list(left_schema.names)
    # plain dicts of Arrow types: capturing the Dataset objects themselves
    # in the tag closures would serialize whole execution plans into every
    # task
    left_types = {c: left_schema.field(c).type for c in left_cols}
    keep_right = [c for c in right_schema.names if c != right_key] \
        + ([right_key] if right_key != left_key else [])
    right_types = {c: right_schema.field(c).type for c in keep_right}
    rename_right = {
        c: (c + right_suffix if c in left_cols else c) for c in keep_right
    }
    key_type = left_types[left_key]
    out_cols = left_cols + [rename_right[c] for c in keep_right]
    hot_values = pa.array(list(hot_keys), key_type) if len(hot_keys) else None
    salt = max(int(salt_factor), 1)
    if stats is not None:
        stats["hot_keys"] = list(hot_keys)
        stats["salt_factor"] = salt
        stats["salted"] = hot_values is not None and salt > 1
        stats["partitions"] = partitions

    def tag_left(batch: pa.Table) -> pa.Table:
        part = _key_parts(batch.column(left_key), partitions)
        cols = {c: batch.column(c) for c in left_cols}
        cols["__part"] = pa.array(part, pa.int32())
        cols["__side"] = pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        for c in keep_right:
            cols["__r_" + c] = pa.nulls(batch.num_rows, right_types[c])
        t = pa.table(cols)
        if hot_values is not None:
            t = _salt_parts(t, left_key, hot_values, salt, partitions,
                            replicate=False)
        return t

    def tag_right(batch: pa.Table) -> pa.Table:
        # right rows ride with their join key cast into the LEFT key slot
        # (and key TYPE — see docstring) so the cogroup merges both sides
        # on one column; all other left columns are null padding (required
        # for Dataset.union's one schema)
        key_col = batch.column(right_key).cast(key_type)
        part = _key_parts(key_col, partitions)
        n = batch.num_rows
        cols = {}
        for c in left_cols:
            if c == left_key:
                cols[c] = key_col
            else:
                cols[c] = pa.nulls(n, left_types[c])
        cols["__part"] = pa.array(part, pa.int32())
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        for c in keep_right:
            cols["__r_" + c] = batch.column(c)
        t = pa.table(cols)
        if hot_values is not None:
            t = _salt_parts(t, left_key, hot_values, salt, partitions,
                            replicate=True)
        return t

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def cogroup(tbl: pa.Table) -> pd.DataFrame:
        df = tbl.to_pandas(types_mapper=_nullable_mapper)
        part = int(df["__part"].iloc[0])
        ldf = df[df["__side"] == 0]
        rdf = df[df["__side"] == 1]
        l = ldf[left_cols]
        r = rdf[[left_key] + ["__r_" + c for c in keep_right]].rename(
            columns={"__r_" + c: rename_right[c] for c in keep_right})
        if part < 0:
            # NULL join keys never match (SQL semantics). Emit each side's
            # rows unmatched as the kind requires, constructed via merges
            # against an EMPTIED other side — pandas would otherwise match
            # NA keys to each other in a real outer merge.
            pieces = []
            if how in ("left", "outer") and len(l):
                pieces.append(l.merge(r.iloc[0:0], how="left", on=left_key))
            if how in ("right", "outer") and len(r):
                pieces.append(l.iloc[0:0].merge(r, how="right", on=left_key))
            merged = (pd.concat(pieces, ignore_index=True)
                      if pieces else
                      l.iloc[0:0].merge(r.iloc[0:0], how="inner",
                                        on=left_key))[out_cols]
        elif how in ("right", "outer") and right_key != left_key:
            # distinct key names: SQL emits NULL in the LEFT key column for
            # kept-unmatched right rows; the cast right key riding in the
            # left slot must not leak through as a phantom value (the right
            # key survives in its own column)
            merged = l.merge(r, how=how, on=left_key, indicator=True)
            merged.loc[merged["_merge"] == "right_only", left_key] = pd.NA
            merged = merged[out_cols]
        else:
            merged = l.merge(r, how=how, on=left_key)[out_cols]
        # back to Arrow here (nullable Int64 -> int64 with nulls) so output
        # blocks are Arrow-typed, not pandas-extension blocks; the pandas
        # schema metadata is stripped or to_pandas would re-promote to Int64
        return pa.Table.from_pandas(
            merged, preserve_index=False).replace_schema_metadata(None)

    return (
        tagged.groupby("__part")
        .map_groups(cogroup, batch_format="pyarrow")
    )


def detect_hot_keys(ds, key: str, min_fraction: float = 0.05,
                    top_n: int = 16) -> list:
    """One pre-aggregated counting pass over ``ds``: returns up to ``top_n``
    key values that each hold >= ``min_fraction`` of the rows — feed the
    result to ``hash_join(hot_keys=...)``. Costs one extra read of the key
    column; use when a skewed key distribution is suspected."""
    from dataprof_ray.pipelines.aggregate import preagg_groupby

    counts = preagg_groupby(ds.select_columns([key]), [key],
                            [("n", None, "count")])
    total = counts["n"].sum()
    if total == 0:
        return []
    hot = counts[counts["n"] >= min_fraction * total]
    hot = hot.dropna(subset=[key]).sort_values("n", ascending=False)
    return hot[key].head(top_n).tolist()


def asof_join(
    left,
    right,
    *,
    key: str,
    left_ts: str,
    right_ts: str,
    right_columns=None,
    direction: str = "backward",
    partitions: int = _JOIN_PARTITIONS,
    right_suffix: str = "_right",
):
    """As-of join: each left row picks the right row of the SAME key whose
    timestamp is the latest at-or-before (``backward``), earliest
    at-or-after (``forward``), or closest (``nearest``) to its own.
    Left-join semantics: every left row survives; no-match rows null-fill.

    Scale design: both sides hash-partition by key (one shuffle each), and
    each partition runs ONE vectorized ``pandas.merge_asof(by=key)`` over
    its time-sorted rows — per-key state never round-trips the driver, and
    a partition holds all rows of its keys (the standard keyed-state
    contract, as in ``window.session_window``). Null keys or timestamps on
    the left pass through unmatched; on the right they are dropped.
    """
    import pandas as pd

    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unknown asof direction: {direction}")
    left_schema = arrow_schema(left)
    right_schema = arrow_schema(right)
    left_cols = list(left_schema.names)
    right_columns = list(right_columns) if right_columns is not None else \
        [c for c in right_schema.names if c not in (key, right_ts)]
    carry_right = [right_ts] + [c for c in right_columns if c != right_ts]
    rename_right = {
        c: (c + right_suffix if c in left_cols else c) for c in carry_right
    }
    left_types = {c: left_schema.field(c).type for c in left_cols}
    right_types = {c: right_schema.field(c).type for c in carry_right}
    key_type = left_types[key]
    out_cols = left_cols + [rename_right[c] for c in carry_right]

    def tag_left(batch: pa.Table) -> pa.Table:
        part = _key_parts(batch.column(key), partitions)
        cols = {c: batch.column(c) for c in left_cols}
        cols["__part"] = pa.array(part, pa.int32())
        cols["__side"] = pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        for c in carry_right:
            cols["__r_" + c] = pa.nulls(batch.num_rows, right_types[c])
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        valid = pc.and_(pc.is_valid(batch.column(key)),
                        pc.is_valid(batch.column(right_ts)))
        batch = batch.filter(valid)
        key_col = batch.column(key).cast(key_type)
        part = _key_parts(key_col, partitions)
        n = batch.num_rows
        cols = {}
        for c in left_cols:
            cols[c] = key_col if c == key else pa.nulls(n, left_types[c])
        cols["__part"] = pa.array(part, pa.int32())
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        for c in carry_right:
            cols["__r_" + c] = batch.column(c)
        return pa.table(cols)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def _null_fill(frame: pd.DataFrame) -> pd.DataFrame:
        return _typed_null_fill(frame, carry_right, rename_right, right_types)

    # deterministic tie-break: equal right timestamps within a key are
    # ordered by the carried payload columns (stable sort), so repeated
    # runs and different partition layouts pick the same tied row
    r_sort_cols_extra = [rename_right[c] for c in carry_right
                         if c != right_ts]

    def cogroup(tbl: pa.Table) -> pa.Table:
        # to_pandas HERE with nullable dtypes (not batch_format="pandas"):
        # Ray's own Arrow->pandas conversion promotes the null-padded int
        # columns of the tagged union to float64 before the UDF ever runs,
        # laundering int64 outputs to float64 (same fix as hash_join).
        df = tbl.to_pandas(types_mapper=_nullable_mapper)
        part = int(df["__part"].iloc[0])
        ldf = df[df["__side"] == 0][left_cols]
        rdf = df[df["__side"] == 1]
        r = rdf[[key] + ["__r_" + c for c in carry_right]].rename(
            columns={"__r_" + c: rename_right[c] for c in carry_right})
        matchable = ldf[ldf[left_ts].notna()] if part >= 0 else ldf.iloc[0:0]
        passthrough = ldf.drop(matchable.index)
        if len(matchable) and len(r):
            merged = pd.merge_asof(
                matchable.sort_values(left_ts, kind="stable"),
                r.sort_values([rename_right[right_ts]] + r_sort_cols_extra,
                              kind="stable"),
                left_on=left_ts, right_on=rename_right[right_ts],
                by=key, direction=direction,
            )
        else:
            merged = _null_fill(matchable)
        if len(passthrough):
            merged = pd.concat([merged, _null_fill(passthrough)],
                               ignore_index=True)
        # nullable Int64 -> int64-with-nulls on the way back to Arrow;
        # strip pandas schema metadata (see partitioning.arrow_out)
        return pa.Table.from_pandas(
            merged[out_cols], preserve_index=False).replace_schema_metadata(None)

    return (
        tagged.groupby("__part")
        .map_groups(cogroup, batch_format="pyarrow")
    )


def interval_join(
    left,
    right,
    *,
    key: str,
    left_ts: str,
    right_ts: str,
    lower,
    upper,
    right_columns=None,
    how: str = "inner",
    partitions: int = _JOIN_PARTITIONS,
    right_suffix: str = "_right",
):
    """Interval (range-band) join: each left row matches EVERY right row of
    the same key whose timestamp falls in ``[left_ts + lower, left_ts +
    upper]`` (``lower``/``upper`` are signed ``pd.Timedelta``-coercibles;
    e.g. ``lower=-pd.Timedelta(minutes=30), upper=pd.Timedelta(minutes=30)``
    is a symmetric ±30-min band). ``how="left"`` keeps unmatched left rows
    null-filled; SQL equivalent: ``l JOIN r ON l.key = r.key AND r.ts
    BETWEEN l.ts + lower AND l.ts + upper``.

    Scale design: same one-shuffle-per-side cogroup as ``asof_join`` —
    hash-partition both sides by key, then each partition sorts its right
    rows once by (key, ts) and answers all of its left rows with two
    vectorized ``searchsorted`` calls per key group (no per-pair scan); the
    matched pairs materialize via one ``np.repeat`` expansion. Output size
    is the true pair count — band width controls the blow-up, and a hot
    key's pairs stay inside one partition task (pre-filter or split hot
    keys upstream if a single key's band exceeds worker memory)."""
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type: {how}")
    lower = pd.Timedelta(lower)
    upper = pd.Timedelta(upper)
    if lower > upper:
        raise ValueError(f"lower bound {lower} exceeds upper bound {upper}")
    left_schema = arrow_schema(left)
    right_schema = arrow_schema(right)
    left_cols = list(left_schema.names)
    right_columns = list(right_columns) if right_columns is not None else \
        [c for c in right_schema.names if c not in (key, right_ts)]
    carry_right = [right_ts] + [c for c in right_columns if c != right_ts]
    rename_right = {
        c: (c + right_suffix if c in left_cols else c) for c in carry_right
    }
    left_types = {c: left_schema.field(c).type for c in left_cols}
    right_types = {c: right_schema.field(c).type for c in carry_right}
    key_type = left_types[key]
    out_cols = left_cols + [rename_right[c] for c in carry_right]

    def tag_left(batch: pa.Table) -> pa.Table:
        part = _key_parts(batch.column(key), partitions)
        cols = {c: batch.column(c) for c in left_cols}
        cols["__part"] = pa.array(part, pa.int32())
        cols["__side"] = pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        for c in carry_right:
            cols["__r_" + c] = pa.nulls(batch.num_rows, right_types[c])
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        valid = pc.and_(pc.is_valid(batch.column(key)),
                        pc.is_valid(batch.column(right_ts)))
        batch = batch.filter(valid)
        key_col = batch.column(key).cast(key_type)
        part = _key_parts(key_col, partitions)
        n = batch.num_rows
        cols = {}
        for c in left_cols:
            cols[c] = key_col if c == key else pa.nulls(n, left_types[c])
        cols["__part"] = pa.array(part, pa.int32())
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        for c in carry_right:
            cols["__r_" + c] = batch.column(c)
        return pa.table(cols)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )
    rts_out = rename_right[right_ts]

    def _null_fill(frame: pd.DataFrame) -> pd.DataFrame:
        return _typed_null_fill(frame, carry_right, rename_right, right_types)

    def cogroup(tbl: pa.Table) -> pa.Table:
        # to_pandas HERE with nullable dtypes (not batch_format="pandas"):
        # Ray's own Arrow->pandas conversion promotes the null-padded int
        # columns of the tagged union to float64 before the UDF ever runs,
        # laundering int64 outputs to float64 (same fix as hash_join).
        df = tbl.to_pandas(types_mapper=_nullable_mapper)
        part = int(df["__part"].iloc[0])
        ldf = df[df["__side"] == 0][left_cols]
        rdf = df[df["__side"] == 1]
        r = rdf[[key] + ["__r_" + c for c in carry_right]].rename(
            columns={"__r_" + c: rename_right[c] for c in carry_right})
        matchable = ldf[ldf[left_ts].notna() & ldf[key].notna()] \
            if part >= 0 else ldf.iloc[0:0]
        passthrough = ldf.drop(matchable.index)
        pieces = []
        if len(matchable) and len(r):
            r = r.sort_values([key, rts_out], kind="stable",
                              ignore_index=True)
            rts = r[rts_out].to_numpy()
            lo_abs = np.zeros(len(matchable), dtype=np.int64)
            hi_abs = np.zeros(len(matchable), dtype=np.int64)
            lts = matchable[left_ts].to_numpy()
            lo_np, up_np = lower.to_timedelta64(), upper.to_timedelta64()
            # per key group: one vectorized searchsorted over that key's
            # contiguous right slice (keys/slices found once via groupby)
            r_groups = r.groupby(key, sort=False).indices
            for kv, lidx in matchable.groupby(key, sort=False).indices.items():
                ridx = r_groups.get(kv)
                if ridx is None:
                    continue
                s, e = int(ridx[0]), int(ridx[-1]) + 1
                lo_abs[lidx] = s + np.searchsorted(
                    rts[s:e], lts[lidx] + lo_np, side="left")
                hi_abs[lidx] = s + np.searchsorted(
                    rts[s:e], lts[lidx] + up_np, side="right")
            reps = np.maximum(hi_abs - lo_abs, 0)
            total = int(reps.sum())
            if total:
                starts = np.repeat(np.cumsum(reps) - reps, reps)
                r_take = np.repeat(lo_abs, reps) + \
                    (np.arange(total, dtype=np.int64) - starts)
                l_take = np.repeat(np.arange(len(matchable)), reps)
                pieces.append(pd.concat(
                    [matchable.iloc[l_take].reset_index(drop=True),
                     r.drop(columns=key).iloc[r_take]
                     .reset_index(drop=True)], axis=1))
            if how == "left" and (reps == 0).any():
                pieces.append(_null_fill(matchable[reps == 0]))
        elif how == "left" and len(matchable):
            pieces.append(_null_fill(matchable))
        if how == "left" and len(passthrough):
            pieces.append(_null_fill(passthrough))
        out = _null_fill(ldf.iloc[0:0]) if not pieces else \
            pd.concat(pieces, ignore_index=True)
        # nullable Int64 -> int64-with-nulls on the way back to Arrow;
        # strip pandas schema metadata (see partitioning.arrow_out)
        return pa.Table.from_pandas(
            out[out_cols], preserve_index=False).replace_schema_metadata(None)

    return (
        tagged.groupby("__part")
        .map_groups(cogroup, batch_format="pyarrow")
    )


def semi_anti_join(
    big_ds,
    small,
    *,
    big_key: str,
    small_key: str,
    how: str = "semi",
    batch_size: Optional[int] = 4096,
):
    """Existence join against a broadcast key set: ``semi`` keeps big-side
    rows whose key appears in ``small``; ``anti`` keeps rows whose key does
    NOT (SQL ``EXISTS`` / ``NOT EXISTS`` with an equality predicate — a NULL
    big-side key never matches, so it is dropped by ``semi`` and kept by
    ``anti``). ``small`` may be a Dataset or pyarrow.Table; only its
    DISTINCT keys ship (``ray.put`` once), so the big side streams with no
    shuffle and the membership test is one vectorized ``pc.is_in`` per
    batch — use it whenever the distinct key set fits in memory (the same
    contract as ``broadcast_join``; else fall back to ``hash_join`` +
    project)."""
    import pyarrow.compute as pc

    import ray

    if how not in ("semi", "anti"):
        raise ValueError(f"unsupported join type: {how}")
    table = small
    if not isinstance(table, pa.Table):
        table = pa.concat_tables(
            list(small.select_columns([small_key])
                 .iter_batches(batch_format="pyarrow")))
    keys = pc.unique(table.column(small_key).combine_chunks())
    keys = keys.drop_null()  # SQL: a NULL small-side key matches nothing
    keys_ref = ray.put(keys)
    keep_matched = how == "semi"

    def membership(batch: pa.Table) -> pa.Table:
        # stateless tasks + per-worker broadcast cache (fusable; no pinned
        # actor CPUs — see broadcast_join)
        from dataprof_ray.pipelines.textstats import _broadcast_cached

        keys_local = _broadcast_cached(keys_ref)
        value_set = keys_local.cast(batch.column(big_key).type) \
            if keys_local.type != batch.column(big_key).type else keys_local
        mask = pc.fill_null(
            pc.is_in(batch.column(big_key), value_set=value_set), False)
        if not keep_matched:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return big_ds.map_batches(
        membership, batch_format="pyarrow", batch_size=batch_size)
