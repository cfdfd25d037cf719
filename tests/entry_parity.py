"""Shared harness: run a __ray_entry__ query and its DuckDB oracle over the
same sf_dir and compare (sorted columns, sorted rows) — a local replica of the
driver's CORRECTNESS gate."""

from __future__ import annotations

import duckdb
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def oracle_connection(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):  # pyarrow.Table or ray Dataset
        return result.to_pandas()
    raise TypeError(type(result))


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype) == "object":
            df[c] = df[c].astype(str)
        elif "datetime" in str(df[c].dtype):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(ray_result, con: duckdb.DuckDBPyConnection, sql: str) -> None:
    got = canonical(to_pandas(ray_result))
    want = canonical(con.execute(sql).df())
    assert list(got.columns) == list(want.columns), (
        f"schema mismatch: {list(got.columns)} vs {list(want.columns)}"
    )
    assert len(got) == len(want), f"row count {len(got)} vs {len(want)}"
    for c in got.columns:  # int, float, bool, string, datetime must agree
        assert got[c].dtype.kind == want[c].dtype.kind, (
            f"column {c!r}: dtype kind of {got[c].dtype} vs {want[c].dtype}")
    # check_dtype=False forgives width only (int32 vs int64)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False,
                                  rtol=0, atol=0)
