"""Coarse hash-partitioning helpers for keyed-state operators.

The measured pattern (see dedup.py connected_components notes): Ray's
groupby over MANY tiny groups — one per distinct key — pays per-group
scheduling that dwarfs the work (9s for 9k single-row groups where one
pandas pass takes under a second). Every keyed-state operator therefore
partitions by ``hash(key) % partitions`` (64 coarse groups regardless of
key cardinality) and processes ALL keys of a partition in one vectorized
transform. Correctness only needs all rows of one key to co-locate,
which any deterministic key hash gives.

:func:`keyed_exchange` is the one way to exchange rows by key, whether a
user key or a hash or id the operator computed itself (dedup, line
dedup, fuzzy join, trigram LM): it tags each row with the int32
partition surrogate, groups on that alone (so Ray's sort shuffle never
compares user values — a NULL string key would break its comparator),
and hands each partition to the caller's reduce. The exchanges that
are not plain hash co-location keep their own groupby
(``tests/test_one_exchange.py`` pins this list):

- ``join``'s cogroups read ``__part``: partition -1 carries NULL keys,
  and hot keys are salted.
- ``packing`` partitions on meaning, not a hash: the pack part is an
  output column.
- ``profile``'s tree merge uses ``grp`` as the merged ``part_key``.
- ``ranking.global_rank`` splits on sketch ranges of the sort key.
- ``dedup.semantic_dedup`` runs one group per centroid cell.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

DEFAULT_PARTITIONS = 64

_MIX = np.uint64(0x9E3779B97F4A7C15)


def column_hashes(column: pa.ChunkedArray | pa.Array, seed: int = 0) -> np.ndarray:
    """Deterministic 64-bit hash per value of an Arrow column (polars hash —
    note it is dtype-sensitive; cast mixed-typed keys to one type first)."""
    import polars as pl

    arr = column.combine_chunks() if isinstance(column, pa.ChunkedArray) else column
    return pl.from_arrow(arr).hash(seed=seed).to_numpy().astype(np.uint64)


def multikey_parts(batch: pa.Table, keys: Sequence[str],
                   partitions: int = DEFAULT_PARTITIONS) -> np.ndarray:
    """Coarse partition id per row from the combined hash of ``keys``.
    Null key values hash like polars hashes nulls (stable), so callers that
    must EXCLUDE null keys filter before partitioning."""
    h = None
    with np.errstate(over="ignore"):
        for i, k in enumerate(keys):
            hk = column_hashes(batch.column(k), seed=i)
            h = hk if h is None else (h * _MIX) ^ hk
    return (h % np.uint64(partitions)).astype(np.int32)


def keyed_exchange(ds, keys: Sequence[str], fn, *,
                   partitions: int = DEFAULT_PARTITIONS,
                   batch_format: str = "pyarrow"):
    """Co-locate every row of one ``keys`` value and run ``fn`` once per
    coarse partition: ``map_groups`` over ``multikey_parts(keys) %
    partitions`` (``None`` means ``DEFAULT_PARTITIONS``). ``fn`` gets the
    partition as ``batch_format`` without the surrogate column; a
    DataFrame it returns becomes metadata-free Arrow (see ``arrow_out``).
    The tagged input drops its schema metadata too, so the shuffle can
    hash block schemas. NULL keys co-locate like any other value. Returns
    the lazy Dataset of ``fn``'s outputs."""
    keys = list(keys)
    parts = partitions or DEFAULT_PARTITIONS

    def tag(batch: pa.Table) -> pa.Table:
        return batch.replace_schema_metadata(None).append_column(
            "__part", pa.array(multikey_parts(batch, keys, parts), pa.int32()))

    def untag(group):
        if isinstance(group, pa.Table):
            return fn(group.drop_columns(["__part"]))
        return fn(group.drop(columns="__part"))

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__part")
            .map_groups(arrow_out(untag), batch_format=batch_format))


def arrow_out(fn):
    """Wrap a DataFrame-returning map_groups/map_batches UDF so its output
    is a METADATA-FREE Arrow table. Ray converts a returned DataFrame via
    ``pa.Table.from_pandas``, which attaches a ``b'pandas'`` schema-metadata
    blob; a pa.Schema carrying metadata is unhashable (``hash(schema)``
    raises on the dict), so every later shuffle that unifies block schemas
    logs "Failed to hash the schemas" and pays an O(blocks) unify. Use on
    any pandas UDF whose output feeds another groupby/sort."""
    import functools

    import pandas as pd

    @functools.wraps(fn)
    def wrapped(df, *args, **kwargs):
        out = fn(df, *args, **kwargs)
        if isinstance(out, pd.DataFrame):
            return pa.Table.from_pandas(
                out, preserve_index=False).replace_schema_metadata(None)
        return out

    return wrapped


# Arrow -> pandas NULLABLE dtype mapping: Ray's batch_format="pandas"
# conversion (and a bare to_pandas) promotes int64-with-null to float64
# BEFORE a UDF runs — null-padded unions launder int payloads and silently
# corrupt values above 2^53. Converting with these dtypes instead keeps
# exact integers through any pandas cogroup.
NULLABLE_DTYPES = {
    "int8": "Int8", "int16": "Int16", "int32": "Int32", "int64": "Int64",
    "uint8": "UInt8", "uint16": "UInt16", "uint32": "UInt32",
    "uint64": "UInt64", "bool": "boolean",
}


def nullable_mapper(t: pa.DataType):
    import pandas as pd

    name = NULLABLE_DTYPES.get(str(t))
    return pd.api.types.pandas_dtype(name) if name else None


def nullable_cogroup(fn):
    """map_groups/map_batches wrapper for pandas UDFs whose PAYLOAD columns
    may hold int/bool nulls: take pyarrow, convert with NULLABLE dtypes
    ourselves (``batch_format="pandas"`` would have already promoted
    int-with-null to float64), run ``fn``, and emit a METADATA-FREE Arrow
    table (nullable Int64 -> int64-with-nulls; see ``arrow_out`` for why
    the metadata must go). The UDF sees nullable extension dtypes — use
    ``.to_numpy(dtype=...)`` on columns it does arithmetic on."""
    import functools

    import pandas as pd

    @functools.wraps(fn)
    def wrapped(tbl: pa.Table, *args, **kwargs):
        out = fn(tbl.to_pandas(types_mapper=nullable_mapper), *args, **kwargs)
        if isinstance(out, pd.DataFrame):
            return pa.Table.from_pandas(
                out, preserve_index=False).replace_schema_metadata(None)
        return out

    return wrapped


def arrow_schema(ds) -> "pa.Schema | None":
    """The Arrow schema a ``batch_format="pyarrow"`` UDF over ``ds`` sees;
    None for a schema-less empty Dataset. Pandas blocks (a ``from_pandas``
    input, or a UDF that returned a DataFrame) report a
    ``PandasBlockSchema``, which has no ``.field`` and types a string
    column as ``object``; for those, the schema is read from one
    metadata-free Arrow map of the first non-empty block."""
    schema = ds.schema()
    base = schema.base_schema if schema is not None else None
    if base is None or isinstance(base, pa.Schema):
        return base
    schema = ds.map_batches(lambda b: b.replace_schema_metadata(None),
                            batch_format="pyarrow").schema()
    return schema.base_schema if schema is not None else None


def to_pandas_exact(ds, fallback_ds=None) -> "pd.DataFrame":
    """Collect a (small) Dataset to pandas WITHOUT the int64-with-nulls ->
    float64 laundering of ``Dataset.to_pandas``: concatenate Arrow blocks,
    convert with nullable dtypes, then downcast any all-valid nullable
    column back to its plain numpy dtype — so frames look exactly like the
    historical output when no nulls are present, and stay exact (Int64 +
    pd.NA) when they are.

    An all-empty dataset yields ZERO batches and (after a groupby) no
    inferable schema; pass ``fallback_ds`` (typically the INPUT Dataset)
    so the empty frame still carries its typed columns instead of
    crashing callers that drop/select. Its schema is read only then."""
    import pandas as pd

    tables = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    if not tables:
        base = arrow_schema(ds)
        if base is None and fallback_ds is not None:
            base = arrow_schema(fallback_ds)
        if base is None:
            return pd.DataFrame()
        tables = [base.empty_table()]
    tbl = pa.concat_tables(tables, promote_options="default")
    df = tbl.to_pandas(types_mapper=nullable_mapper)
    plain = {v: k for k, v in NULLABLE_DTYPES.items()}
    for c in df.columns:
        name = str(df[c].dtype)
        if name in plain and not df[c].isna().any():
            df[c] = df[c].astype(plain[name])
    return df
