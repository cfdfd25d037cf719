"""rollup_aggregate / grouped_mode / lead_delta — DuckDB-parity and edge
cases. The entry-parity harness already pins the four driver queries
(rollup_sales_priority, cube_docs_lang_source, mode_lang_by_source,
next_event_lead) against their SQL oracles at sf0.001; these tests cover
the semantics the testdata can't reach: real-NULL key groups vs
rollup-total rows, empty input, all-null value columns, LEAD/LAG
mirroring."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from dataprof_ray.pipelines.aggregate import grouped_mode, rollup_aggregate


def _mk(ray_session, df: pd.DataFrame):
    import ray.data as rd
    return rd.from_pandas(df).repartition(3)


@pytest.fixture()
def nullkey_df():
    return pd.DataFrame({
        "k1": ["a", "a", "b", None, None, "b"],
        "k2": ["x", "y", "x", "x", "y", None],
        "val": [1.0, 2.0, 3.0, 5.0, 7.0, 11.0],
    })


def _duck(df, sql):
    con = duckdb.connect()
    con.register("t", df)
    out = con.execute(sql).fetchdf()
    con.close()
    return out


def _norm(df):
    df = df.copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].where(pd.notna(df[c]), None)
    return (df.sort_values(list(df.columns), na_position="last")
            .reset_index(drop=True))


SPECS = [("cnt", None, "count"), ("s", "val", "sum"),
         ("lo", "val", "min"), ("hi", "val", "max")]
SQL_AGGS = ("COUNT(*) AS cnt, SUM(val) AS s, MIN(val) AS lo, "
            "MAX(val) AS hi, CAST(GROUPING(k1, k2) AS BIGINT) AS grouping_id")


@pytest.mark.parametrize("mode,clause", [("rollup", "ROLLUP(k1, k2)"),
                                         ("cube", "CUBE(k1, k2)")])
def test_rollup_cube_match_duckdb_with_null_keys(ray_session, nullkey_df,
                                                 mode, clause):
    ours = rollup_aggregate(_mk(ray_session, nullkey_df), ["k1", "k2"],
                            SPECS, mode=mode)
    oracle = _duck(nullkey_df,
                   f"SELECT k1, k2, {SQL_AGGS} FROM t GROUP BY {clause}")
    a, b = _norm(ours), _norm(oracle)
    pd.testing.assert_frame_equal(
        a[sorted(a.columns)], b[sorted(b.columns)],
        check_dtype=False, check_exact=False, rtol=1e-12)
    # real-NULL key group keeps grouping bit 0; the rollup total sets it
    g0 = ours[(ours["k1"].isna()) & (ours["grouping_id"] == 0)]
    assert len(g0) == 2  # (None, 'x') and (None, 'y') are real groups


def test_rollup_empty_input_grand_total_only(ray_session):
    empty = pd.DataFrame({"k1": pd.Series(dtype=object),
                          "k2": pd.Series(dtype=object),
                          "val": pd.Series(dtype=np.float64)})
    out = rollup_aggregate(_mk(ray_session, empty), ["k1", "k2"], SPECS)
    assert len(out) == 1
    row = out.iloc[0]
    assert row["grouping_id"] == 3 and row["cnt"] == 0
    assert pd.isna(row["s"]) and pd.isna(row["lo"])


def test_explicit_grouping_sets_match_duckdb(ray_session, nullkey_df):
    ours = rollup_aggregate(
        _mk(ray_session, nullkey_df), ["k1", "k2"], SPECS,
        grouping_sets=[("k2",), ("k1", "k2"), ()])
    oracle = _duck(nullkey_df,
                   f"SELECT k1, k2, {SQL_AGGS} FROM t "
                   "GROUP BY GROUPING SETS ((k2), (k1, k2), ())")
    a, b = _norm(ours), _norm(oracle)
    pd.testing.assert_frame_equal(
        a[sorted(a.columns)], b[sorted(b.columns)],
        check_dtype=False, check_exact=False, rtol=1e-12)


def test_grouping_sets_duplicates_emit_twice_and_validate(ray_session,
                                                          nullkey_df):
    ds = _mk(ray_session, nullkey_df)
    out = rollup_aggregate(ds, ["k1", "k2"], SPECS,
                           grouping_sets=[("k1",), ("k1",)])
    assert len(out) == 2 * nullkey_df["k1"].nunique(dropna=False)
    with pytest.raises(ValueError):
        rollup_aggregate(ds, ["k1"], SPECS, grouping_sets=[("nope",)])
    with pytest.raises(ValueError):
        rollup_aggregate(ds, ["k1", "k2"], SPECS,
                         grouping_sets=[("k1", "k1")])
    with pytest.raises(ValueError):
        rollup_aggregate(ds, ["k1"], SPECS, grouping_sets=[])


def test_rollup_rejects_bad_mode_and_no_keys(ray_session, nullkey_df):
    ds = _mk(ray_session, nullkey_df)
    with pytest.raises(ValueError):
        rollup_aggregate(ds, ["k1"], SPECS, mode="grouping_sets")
    with pytest.raises(ValueError):
        rollup_aggregate(ds, [], SPECS)


def test_grouped_mode_tie_break_and_null_values(ray_session):
    df = pd.DataFrame({
        # key 'a': tie between x and y -> min value 'x' wins
        # key 'b': nulls never count as candidates; 'z' wins at 1
        # key 'c': all-null values -> no output row
        "k": ["a", "a", "a", "a", "b", "b", "b", "c"],
        "v": ["x", "y", "y", "x", None, None, "z", None],
    })
    out = grouped_mode(_mk(ray_session, df), ["k"], "v")
    got = {r["k"]: (r["v"], r["cnt"]) for _, r in out.iterrows()}
    assert got == {"a": ("x", 2), "b": ("z", 1)}


def test_grouped_mode_empty_typed(ray_session):
    empty = pd.DataFrame({"k": pd.Series(dtype=object),
                          "v": pd.Series(dtype=object)})
    out = grouped_mode(_mk(ray_session, empty), ["k"], "v")
    assert list(out.columns) == ["k", "v", "cnt"] and out.empty
    assert out["cnt"].dtype == np.int64


def test_lead_mirrors_lag(ray_session):
    """Every (row, its successor) LEAD pair is the successor's LAG pair:
    joining on the predecessor's id must reproduce prev_ts/next_ts and
    the SAME gap (both are defined as later - earlier)."""
    import ray.data as rd

    from dataprof_ray.pipelines.window import lag_delta, lead_delta

    rng = np.random.default_rng(7)
    n = 400
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.integers(0, 12, n),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 10**7, n), unit="us"),
    })
    ds = rd.from_pandas(df).repartition(5)
    lead = lead_delta(ds, "ts", "user_id",
                      order_extra=["event_id"]).to_pandas()
    lag = lag_delta(ds, "ts", "user_id",
                    order_extra=["event_id"]).to_pandas()

    lead_pairs = lead[lead["next_ts"].notna()].sort_values(
        ["user_id", "ts", "event_id"]).reset_index(drop=True)
    lag_pairs = lag[lag["prev_ts"].notna()].sort_values(
        ["user_id", "prev_ts"]).reset_index(drop=True)
    assert len(lead_pairs) == len(lag_pairs) == n - 12
    assert (lead_pairs["ts"].to_numpy()
            == lag_pairs["prev_ts"].to_numpy()).all()
    assert (lead_pairs["next_ts"].to_numpy()
            == lag_pairs["ts"].to_numpy()).all()
    assert (lead_pairs["gap_us"].to_numpy()
            == lag_pairs["gap_us"].to_numpy()).all()
    assert (lead_pairs["gap_us"] >= 0).all()


def test_lead_null_rows_pass_through(ray_session):
    import ray.data as rd

    from dataprof_ray.pipelines.window import lead_delta

    df = pd.DataFrame({
        "event_id": [1, 2, 3],
        "user_id": pd.array([5, None, 5], dtype="Int64"),
        "ts": pd.to_datetime(["2024-01-01", "2024-01-02", None]),
    })
    out = lead_delta(rd.from_pandas(df), "ts", "user_id",
                     order_extra=["event_id"]).to_pandas()
    assert len(out) == 3
    skipped = out[out["event_id"].isin([2, 3])]
    assert skipped["next_ts"].isna().all() and skipped["gap_us"].isna().all()
    first = out[out["event_id"] == 1].iloc[0]
    assert pd.isna(first["next_ts"])  # its only same-key peer has null ts


# ------------------------- exact_global_quantiles / winsorized_stats


def _num_ds(ray_session, vals, parts=4):
    import ray.data as rd
    return rd.from_pandas(pd.DataFrame({"x": vals})).repartition(parts)


def test_exact_quantiles_bit_equal_type7(ray_session):
    """The distributed bracket selection must reproduce the single-process
    type-7 kernel BIT-FOR-BIT (numpy's np.quantile lerp differs by 1 ulp
    from the x0*(1-f)+x1*f form, so the kernel is the reference — the same
    one group_quantiles and the SQL oracles are pinned to)."""
    from dataprof_ray.functions.kernels import quantile_type7
    from dataprof_ray.pipelines.aggregate import exact_global_quantiles

    rng = np.random.default_rng(11)
    vals = rng.lognormal(2, 1.2, 50_000)
    qs = [0.0, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0]
    res = exact_global_quantiles(_num_ds(ray_session, vals), "x", qs,
                                 slack=0.005)
    sv = np.sort(vals)
    for q in qs:
        assert res[q] == (quantile_type7(sv, q), 50_000)
        assert abs(res[q][0] - np.quantile(vals, q)) <= \
            1e-12 * max(1.0, abs(res[q][0]))


def test_exact_quantiles_converges_past_bad_bracket(ray_session):
    """A deliberately coarse sketch (k=8, the minimum) with a near-zero
    initial slack misses brackets; the widening loop must still land on
    the exact type-7 value."""
    from dataprof_ray.functions.kernels import quantile_type7
    from dataprof_ray.pipelines.aggregate import exact_global_quantiles

    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.normal(0, 1, 20_000),
                           rng.normal(500, 1, 50)])  # far outlier cluster
    res = exact_global_quantiles(_num_ds(ray_session, vals), "x",
                                 [0.5, 0.999], k=8, slack=1e-6,
                                 max_rounds=12)
    sv = np.sort(vals)
    assert res[0.5][0] == quantile_type7(sv, 0.5)
    assert res[0.999][0] == quantile_type7(sv, 0.999)


def test_exact_quantiles_ties_nulls_empty(ray_session):
    from dataprof_ray.pipelines.aggregate import exact_global_quantiles

    ties = np.array([5.0] * 1000 + [1.0, 9.0])
    res = exact_global_quantiles(_num_ds(ray_session, ties), "x", [0.5])
    assert res[0.5] == (5.0, 1002)

    withnull = pd.array([1.0, None, 3.0, None], dtype="Float64")
    res = exact_global_quantiles(_num_ds(ray_session, withnull), "x", [0.5])
    assert res[0.5] == (2.0, 2)

    empty = exact_global_quantiles(
        _num_ds(ray_session, pd.array([None, None], dtype="Float64")),
        "x", [0.5])
    assert np.isnan(empty[0.5][0]) and empty[0.5][1] == 0

    with pytest.raises(ValueError):
        exact_global_quantiles(_num_ds(ray_session, ties), "x", [1.5])


def test_exact_quantiles_max_bracket_fails_loud(ray_session):
    from dataprof_ray.pipelines.aggregate import exact_global_quantiles

    vals = np.arange(10_000, dtype=np.float64)
    with pytest.raises(MemoryError, match="max_bracket"):
        exact_global_quantiles(_num_ds(ray_session, vals), "x", [0.5],
                               slack=0.5, max_bracket=100)


def test_winsorized_stats_matches_pandas(ray_session):
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import winsorized_stats

    rng = np.random.default_rng(13)
    df = pd.DataFrame({"a": rng.normal(10, 3, 30_000),
                       "b": rng.exponential(4, 30_000)})
    df.loc[rng.choice(30_000, 700, replace=False), "a"] = np.nan
    out = winsorized_stats(rd.from_pandas(df).repartition(6), ["a", "b"])
    for _, r in out.iterrows():
        v = df[r["column_name"]].dropna().to_numpy()
        lo, hi = np.quantile(v, [0.05, 0.95])
        assert r["n"] == len(v)
        assert abs(r["mean_winsorized"] - np.clip(v, lo, hi).mean()) < 1e-3


def test_robust_outlier_stats_matches_numpy(ray_session):
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import robust_outlier_stats

    rng = np.random.default_rng(17)
    base = rng.normal(50, 5, 20_000)
    base[:40] = rng.normal(500, 10, 40)  # planted far outliers
    df = pd.DataFrame({"a": base})
    df.loc[rng.choice(20_000, 300, replace=False), "a"] = np.nan
    out = robust_outlier_stats(rd.from_pandas(df).repartition(6), ["a"])
    r = out.iloc[0]
    v = df["a"].dropna().to_numpy()
    med = np.quantile(v, 0.5)
    mad = np.quantile(np.abs(v - med), 0.5)
    lo, hi = med - 3 * 1.4826 * mad, med + 3 * 1.4826 * mad
    assert r["n"] == len(v)
    assert abs(r["median"] - med) < 1e-3 and abs(r["mad"] - mad) < 1e-3
    assert r["n_outliers"] == int(((v < lo) | (v > hi)).sum())
    assert r["n_outliers"] >= 35  # the planted cluster is caught


@pytest.mark.parametrize("mode,clause", [("rollup", "ROLLUP(k1, k2)"),
                                         ("cube", "CUBE(k1, k2)")])
def test_rollup_all_null_sum_group_is_null(ray_session, mode, clause):
    """SQL SUM over only NULLs is NULL at every level, not 0.0: k1 = 'b'
    has only NULL values; its count still folds to the row count."""
    df = pd.DataFrame({
        "k1": ["a", "a", "b", "b", "c"],
        "k2": ["x", "y", "x", "y", "x"],
        "val": pd.array([1.5, 2.0, None, None, 4.0], dtype="Float64"),
    })
    ours = rollup_aggregate(_mk(ray_session, df), ["k1", "k2"], SPECS,
                            mode=mode)
    oracle = _duck(df, f"SELECT k1, k2, {SQL_AGGS} FROM t GROUP BY {clause}")
    a, b = _norm(ours), _norm(oracle)
    pd.testing.assert_frame_equal(
        a[sorted(a.columns)], b[sorted(b.columns)],
        check_dtype=False, check_exact=False, rtol=1e-12)
    b_total = ours[(ours["k1"] == "b") & (ours["grouping_id"] == 1)].iloc[0]
    assert pd.isna(b_total["s"]) and b_total["cnt"] == 2


def test_winsorized_and_robust_stats_zero_rows(ray_session, tmp_path):
    """Zero-row input gives the typed n = 0 frame, one row per column."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import (robust_outlier_stats,
                                                  winsorized_stats)

    path = str(tmp_path / "zero.parquet")
    pq.write_table(pa.table({"v": pa.array([], pa.float64()),
                             "w": pa.array([], pa.int64())}), path)
    win = winsorized_stats(rd.read_parquet(path), ["v", "w"])
    rob = robust_outlier_stats(rd.read_parquet(path), ["v", "w"])
    for out, stats in [(win, ["lo_cut", "hi_cut", "mean_winsorized"]),
                       (rob, ["median", "mad", "lo_fence", "hi_fence"])]:
        assert out["column_name"].tolist() == ["v", "w"]
        assert out["n"].dtype == np.int64 and (out["n"] == 0).all()
        assert out[stats].isna().all().all()
    assert rob["n_outliers"].dtype == np.int64
    assert (rob["n_outliers"] == 0).all()


def test_null_string_keys_across_many_blocks(ray_session):
    """A string key that is mostly NULL, spread over 16 blocks of one
    batch each: the exchange must never compare user key values (Ray's
    sort shuffle raised TypeError comparing None with str). The default
    batch_size would fold all 8,000 rows into one partial batch and hide
    it, so every block is its own batch here."""
    import pyarrow as pa
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import preagg_groupby

    rng = np.random.default_rng(7)
    tables = []
    for _ in range(16):
        cat = rng.choice(["a", "b", "c", "d"], 500).astype(object)
        cat[rng.random(500) < 0.6] = None
        tables.append(pa.table({
            "region": pa.array(rng.choice(["n", "s", "e"], 500)),
            "cat": pa.array(cat.tolist(), pa.string()),
            "val": pa.array(rng.integers(0, 100, 500), pa.int64())}))
    ds = rd.from_arrow(tables)
    df = pa.concat_tables(tables).to_pandas()
    aggs = "COUNT(*) AS cnt, SUM(val) AS s, MIN(val) AS lo, MAX(val) AS hi"

    def check(ours, sql):
        a, b = _norm(ours), _norm(_duck(df, sql))
        pd.testing.assert_frame_equal(a[sorted(a.columns)],
                                      b[sorted(b.columns)], check_dtype=False)

    for keys in (["region", "cat"], ["cat"]):
        k = ", ".join(keys)
        check(preagg_groupby(ds, keys, SPECS, batch_size=None),
              f"SELECT {k}, {aggs} FROM t GROUP BY {k}")
    check(rollup_aggregate(ds, ["region", "cat"], SPECS, batch_size=None),
          f"SELECT region, cat, {aggs}, CAST(GROUPING(region, cat) AS BIGINT)"
          " AS grouping_id FROM t GROUP BY ROLLUP(region, cat)")


def test_max_bracket_is_per_column_and_quantile(ray_session):
    """Each (column, quantile) pair has the whole max_bracket: two
    ~1,000-value brackets pass under 1,500 in one call, and a call whose
    one pair is over budget fails naming that column."""
    import ray.data as rd

    from dataprof_ray.functions.kernels import quantile_type7
    from dataprof_ray.pipelines.aggregate import exact_column_quantiles

    rng = np.random.default_rng(3)
    n = 10_000
    df = pd.DataFrame({"a": rng.normal(0, 1, n), "b": rng.normal(5, 2, n),
                       "c": rng.normal(0, 1, n)})
    df.loc[rng.random(n) < 0.9, "c"] = np.nan  # ~100 values in its bracket
    ds = rd.from_pandas(df).repartition(4).materialize()

    res = exact_column_quantiles(ds, {"a": [0.5], "b": [0.5]}, slack=0.05,
                                 max_bracket=1500)
    for c in "ab":
        assert res[c][0.5] == (quantile_type7(np.sort(df[c]), 0.5), n)
    with pytest.raises(MemoryError, match="'a'"):
        exact_column_quantiles(ds, {"a": [0.5], "c": [0.5]}, slack=0.05,
                               max_bracket=500)
    assert exact_column_quantiles(ds, {"c": [0.5]}, slack=0.05,
                                  max_bracket=500)["c"][0.5][1] == \
        df["c"].notna().sum()


@pytest.mark.parametrize("ncols", [1, 3])
def test_robust_stats_executions_do_not_grow_with_columns(ray_session,
                                                          monkeypatch,
                                                          ncols):
    """winsorized_stats is sketch + bracket + fold, robust_outlier_stats
    is median (sketch + bracket) + MAD (sketch + bracket) + fence count,
    whatever the number of columns."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from dataprof_ray.pipelines.aggregate import (robust_outlier_stats,
                                                  winsorized_stats)

    rng = np.random.default_rng(19)
    cols = [f"c{i}" for i in range(ncols)]
    df = pd.DataFrame({c: rng.normal(i, 1 + i, 20_000)
                       for i, c in enumerate(cols)})
    ds = rd.from_pandas(df).repartition(4).materialize()
    executions = []
    orig = StreamingExecutor.execute

    def counted(executor, dag, *args, **kwargs):
        executions.append(dag)
        return orig(executor, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    win = winsorized_stats(ds, cols)
    assert len(executions) == 3
    executions.clear()
    rob = robust_outlier_stats(ds, cols)
    assert len(executions) == 5
    assert win["column_name"].tolist() == rob["column_name"].tolist() == cols
    for c in cols:
        v = df[c].to_numpy()
        med = np.quantile(v, 0.5)
        r = rob.set_index("column_name").loc[c]
        assert abs(r["median"] - med) < 1e-3
        assert abs(r["mad"] - np.quantile(np.abs(v - med), 0.5)) < 1e-3
