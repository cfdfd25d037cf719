"""Dtype-preservation sweep (VERDICT r3 #9): every operator whose shuffle
rides through a pandas cogroup must hand back payload columns with their
INPUT Arrow types — int64-with-nulls must not launder to float64 (which
also silently corrupts values above 2^53), bool must stay bool.

The trap: Ray's batch_format="pandas" conversion (and a careless
to_pandas inside a UDF) promotes int-with-null to float64 BEFORE the UDF
runs. Operators either convert with nullable dtypes themselves or stay
Arrow-native; this test pins the contract for every payload-carrying
operator in one place.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

BIG = (1 << 60) + 9  # would round to 1<<60 in float64


def _input_table(n: int = 40) -> pa.Table:
    rng = np.random.default_rng(5)
    v_int = rng.integers(0, 100, n).astype(object)
    v_int[::7] = None
    v_int[1] = BIG
    v_bool = [bool(x % 2) if x % 5 else None for x in range(n)]
    v_str = [f"s{x}" if x % 6 else None for x in range(n)]
    return pa.table({
        "k": pa.array((np.arange(n) % 4).astype(np.int64)),
        "uid": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(np.arange(n, dtype=np.int64) * 1_000_000)
        .cast(pa.timestamp("us")),
        "cents": pa.array(rng.integers(0, 1000, n), pa.int64()),
        "v_int": pa.array(v_int.tolist(), pa.int64()),
        "v_bool": pa.array(v_bool, pa.bool_()),
        "v_str": pa.array(v_str, pa.string()),
    })


def _ds(t: pa.Table, parts: int = 3):
    import ray.data as rd

    return rd.from_arrow(t).repartition(parts)


def _arrow(ds_out) -> pa.Table:
    tables = list(ds_out.iter_batches(batch_format="pyarrow",
                                      batch_size=None))
    return pa.concat_tables(tables, promote_options="default")


def _rolling(t):
    from dataprof_ray.pipelines.window import rolling_window

    return rolling_window(_ds(t), ts_col="ts", key="k", window="5s",
                          value_cents_col="cents", partitions=4)


def _cumulative(t):
    from dataprof_ray.pipelines.window import cumulative_window

    return cumulative_window(_ds(t), ts_col="ts", key="k",
                             value_cents_col="cents",
                             order_extra=["uid"], partitions=4)


def _cap(t):
    from dataprof_ray.pipelines.sampling import cap_per_key

    # per_key >= rows-per-key so every row (incl. the BIG payload) survives
    return cap_per_key(_ds(t), keys=["k"], per_key=50, id_col="uid",
                       partitions=4, as_pandas=False)


@pytest.mark.parametrize("op", [_rolling, _cumulative, _cap],
                         ids=["rolling_window", "cumulative_window",
                              "cap_per_key"])
def test_payload_dtypes_survive(ray_session, op):
    t = _input_table()
    out = _arrow(op(t))
    for col in ("v_int", "v_bool", "v_str", "uid", "cents"):
        assert out.schema.field(col).type == t.schema.field(col).type, \
            f"{col}: {out.schema.field(col).type} != input"
    got = out.column("v_int").to_pylist()
    assert BIG in got, "big int64 payload corrupted by a float64 round-trip"
    assert sorted(x for x in out.column("uid").to_pylist()) == \
        list(range(t.num_rows))


def test_argmax_by_preserves_int_payload(ray_session):
    """argmax_by returns pandas by contract (one row per key — small), but
    its payload ints must survive exactly (nullable dtypes, not float64)."""
    from dataprof_ray.pipelines.aggregate import argmax_by

    t = _input_table()
    out = argmax_by(_ds(t), keys=["k"], order_cols=["ts", "uid"],
                    descending=False, partitions=4)
    # group k=1 has uid=1 as its earliest row, which carries BIG
    row = out[out["k"] == 1].iloc[0]
    assert row["uid"] == 1 and int(row["v_int"]) == BIG


def test_topk_per_group_preserves_int_payload(ray_session):
    from dataprof_ray.pipelines.aggregate import topk_per_group

    t = _input_table()
    out = topk_per_group(_ds(t), keys=["k"], order_cols=["uid"], k=2,
                         descending=False)
    row = out[out["k"] == 1].sort_values("uid").iloc[0]
    assert row["uid"] == 1 and int(row["v_int"]) == BIG


def test_global_shuffle_assignment_schema(ray_session):
    """global_shuffle projects to ids by design (text never moves); its
    (id, shard, pos) assignment must come back as exact int64."""
    from dataprof_ray.pipelines.sampling import global_shuffle

    t = _input_table()
    out = _arrow(global_shuffle(_ds(t), id_col="uid"))
    assert out.schema.field("uid").type == pa.int64()
    assert out.schema.field("pos").type == pa.int64()
    assert sorted(out.column("uid").to_pylist()) == list(range(t.num_rows))


def test_empty_input_collectors(ray_session):
    """Review fix: an ALL-EMPTY dataset yields zero Arrow batches;
    to_pandas_exact must still hand back a schema-typed empty frame so
    argmax/top-k callers can drop their helper columns instead of
    KeyError-ing."""
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import argmax_by, topk_per_group
    from dataprof_ray.pipelines.partitioning import to_pandas_exact

    t = _input_table(8)
    # schema-preserving empty (a row-lambda filter would lose the schema)
    empty = _ds(t, 2).map_batches(lambda b: b.slice(0, 0),
                                  batch_format="pyarrow")
    out = argmax_by(empty, keys=["k"], order_cols=["uid"], partitions=4)
    assert len(out) == 0 and "v_int" in out.columns
    out2 = topk_per_group(empty, keys=["k"], order_cols=["uid"], k=2)
    assert len(out2) == 0 and "uid" in out2.columns
    df = to_pandas_exact(empty)
    assert list(df.columns) == list(t.schema.names)


def test_chunk_documents_random_coverage_property(ray_session):
    """Property over random docs: chunks per doc exactly match the
    analytic count; chunk 0 starts at token 0; consecutive chunks overlap
    by exactly `overlap` (except the possibly-short tail); concatenating
    de-overlapped chunks reproduces the document."""
    import ray.data as rd

    from dataprof_ray.pipelines.packing import chunk_documents

    rng = np.random.default_rng(77)
    max_tokens, overlap = 12, 5
    stride = max_tokens - overlap
    texts = [" ".join(f"w{rng.integers(0, 50)}"
                      for _ in range(rng.integers(0, 60)))
             for _ in range(40)]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = (chunk_documents(_ds(t, 3), max_tokens=max_tokens,
                           overlap=overlap)
           .to_pandas().sort_values(["doc_id", "chunk_id"]))
    for d, g in out.groupby("doc_id"):
        toks = texts[d].split()
        n = len(toks)
        want_chunks = 1 if n <= max_tokens else \
            -(-(n - max_tokens) // stride) + 1
        assert g["chunk_id"].tolist() == list(range(want_chunks))
        rebuilt = g.iloc[0]["text"].split()
        for _, row in g.iloc[1:].iterrows():
            ch = row["text"].split()
            assert ch[:overlap] == rebuilt[-(max_tokens - len(ch)) -
                                           overlap or len(rebuilt):][:overlap] \
                or ch[:overlap] == rebuilt[row["chunk_id"] * stride:
                                           row["chunk_id"] * stride + overlap]
            rebuilt.extend(ch[overlap:])
        assert rebuilt == toks
    docs_with_tokens = {i for i, x in enumerate(texts) if x.split()}
    assert set(out["doc_id"]) == docs_with_tokens


def test_keyed_exchange_strips_schema_metadata(ray_session):
    """A pandas-sourced input carries b'pandas' schema metadata, which
    makes block schemas unhashable in the shuffle ("Failed to hash the
    schemas"). The tagged blocks, hence every partition ``fn`` sees, carry
    none and no ``__part``; neither does a DataFrame ``fn`` returns."""
    import ray.data as rd

    from dataprof_ray.pipelines.partitioning import keyed_exchange

    df = pd.DataFrame({"k": ["a", "b", None, "c"] * 10, "v": range(40)})
    ds = rd.from_pandas(df).repartition(3)

    def seen(t: pa.Table) -> pa.Table:
        return pa.table({"no_meta": [t.schema.metadata is None],
                         "cols": [",".join(t.column_names)],
                         "n": [t.num_rows]})

    out = keyed_exchange(ds, ["k"], seen, partitions=4).to_pandas()
    assert out["no_meta"].all()
    assert set(out["cols"]) == {"k,v"}
    assert out["n"].sum() == 40
    frames = keyed_exchange(ds, ["k"], lambda d: d, partitions=4,
                            batch_format="pandas")
    got = 0
    for b in frames.iter_batches(batch_format="pyarrow", batch_size=None):
        assert b.schema.metadata is None
        assert b.column_names == ["k", "v"]
        got += b.num_rows
    assert got == 40
