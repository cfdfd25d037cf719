"""Driver contract: entry() smoke, queries() per-operator callables, and
oracle_sql() DuckDB equivalents (run side-by-side at sf=0.01).

Ray is initialised by the driver BEFORE this module is imported: nothing in
here (or in dataprof_ray) calls ray.init()/ray.shutdown().

Column-name discipline: every computed/aggregate column is named identically
in the Ray callable and the SQL (the driver sorts columns by name and
value-hashes). Floats that depend on summation order are rounded the same
way on both sides (ROUND = half away from zero, see
dataprof_ray.pipelines.aggregate.round_away); exact values (min/max, counts,
hashes) are left unrounded.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# before any read: turns off Ray Data's per-operator resource reservation
import dataprof_ray.pipelines  # noqa: F401

SF001 = "/root/testdata/sf0.001"

_NULL_LIKE = "({c} IS NULL OR LOWER(TRIM({c}, ' \t\n\r')) IN ('', 'null', 'nan'))"

_LINEITEM_NUMERIC = [
    "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
    "l_quantity", "l_extendedprice", "l_discount", "l_tax",
]
_EVENTS_COLS = [
    ("event_id", False), ("ts", False), ("user_id", False),
    ("event_type", True), ("value", False), ("props", True),
]
_DOC_COLS = [
    ("doc_id", False), ("text", True), ("lang", True),
    ("source", True), ("n_chars", False),
]


def _read(sf_dir: str, table: str, columns=None, **kwargs):
    # one testdata table = one parquet file; the reader sizes it to one
    # block per CPU of the session
    from dataprof_ray.sources.readers import read_parquet

    return read_parquet(f"{sf_dir}/{table}.parquet", columns=columns, **kwargs)



def _int_away(col, factor: float = 100.0):
    """Scale a float column and round HALF-AWAY-FROM-ZERO to int64 —
    DuckDB/SQL ROUND semantics. pc.round is half-to-even and silently
    diverges from the oracle on exact .5 ties (none exist in 2-decimal
    testdata, but nothing enforces that granularity)."""
    scaled = pc.multiply(pc.cast(col, pa.float64()), pa.scalar(factor))
    mag = pc.floor(pc.add(pc.abs(scaled), pa.scalar(0.5)))
    return pc.cast(pc.multiply(pc.sign(scaled), mag), pa.int64())

def _docs_as_corpus_stage(batch: pa.Table) -> pa.Table:
    """Adapt the documents table to the corpus schema (url, warc_ts, html,
    text, lang) so the flagship filter runs over driver testdata."""
    n = batch.num_rows
    ids = batch.column("doc_id").to_pylist()
    sources = batch.column("source").to_pylist()
    urls = [f"https://{s}.example.com/doc/{i}" for s, i in zip(sources, ids)]
    ts = pa.array(np.full(n, np.datetime64("2025-06-01T00:00:00", "ms")), pa.timestamp("ms"))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": ts,
        "html": pa.array([b""] * n, pa.binary()),
        "text": batch.column("text").cast(pa.string()),
        "lang": batch.column("lang").cast(pa.string()),
    })


def entry() -> Any:
    """Flagship: quality-filter + PII scrub over sf0.001 documents mapped to
    the corpus schema. Returns the lazy output Dataset (stable schema)."""
    from dataprof_ray.pipelines import quality_filter as QF

    corpus = _read(SF001, "documents").map_batches(
        _docs_as_corpus_stage, batch_format="pyarrow"
    )
    return QF.run_quality_filter(corpus)


# --------------------------------------------------------------- queries


def _q1_pricing(sf_dir: str) -> pd.DataFrame:
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.aggregate import preagg_groupby, round_away

    ds = _read(sf_dir, "lineitem", columns=[
        "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount",
    ])

    def add_cents(b: pa.Table) -> pa.Table:
        # Money columns are 2-decimal; per-row cents conversion is a
        # deterministic float op, and int64 sums are order-independent —
        # so the distributed sum matches the SQL oracle exactly.
        price = b.column("l_extendedprice")
        disc = pc.multiply(pc.multiply(price, pc.subtract(pa.scalar(1.0), b.column("l_discount"))),
                           pa.scalar(10000.0))
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "l_linestatus": b.column("l_linestatus"),
            "l_quantity": b.column("l_quantity"),
            "l_discount": b.column("l_discount"),
            "base_cents": _int_away(price),
            "disc_e4": _int_away(disc, factor=1.0),
        })

    ds = ds.map_batches(add_cents, batch_format="pyarrow")
    df = preagg_groupby(ds, ["l_returnflag", "l_linestatus"], [
        ("sum_qty", "l_quantity", "sum"),
        ("sum_base_cents", "base_cents", "sum"),
        ("sum_disc_e4", "disc_e4", "sum"),
        ("sum_disc", "l_discount", "sum"),
        ("count_order", None, "count"),
    ])
    df["avg_qty"] = round_away(df["sum_qty"] / df["count_order"], 4)
    df["avg_disc"] = round_away(df["sum_disc"] / df["count_order"], 4)
    df["sum_qty"] = df["sum_qty"].astype(np.int64)
    df["sum_base_cents"] = df["sum_base_cents"].astype(np.int64)
    df["sum_disc_e4"] = df["sum_disc_e4"].astype(np.int64)
    return df.drop(columns=["sum_disc"])


def _profile_numeric_lineitem(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.aggregate import round_away
    from dataprof_ray.pipelines.profile import collect_column_state

    ds = _read(sf_dir, "lineitem", columns=_LINEITEM_NUMERIC)
    coll = collect_column_state(ds, track_row_uniqueness=False)
    rows = []
    for name in _LINEITEM_NUMERIC:
        st = coll.columns[name]
        rows.append({
            "column_name": name,
            "total_count": st.count,
            "null_count": st.null_count,
            "min": float(st.min),
            "max": float(st.max),
            "mean": float(round_away(st.welford.mean, 4)),
            "std_dev": float(round_away(st.welford.sample_std_dev(), 4)),
        })
    return pd.DataFrame(rows)


def _null_stats_events(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.profile import collect_column_state

    ds = _read(sf_dir, "events")
    coll = collect_column_state(ds, track_row_uniqueness=False)
    rows = [
        {"column_name": name, "total_count": coll.columns[name].count,
         "null_count": coll.columns[name].null_count}
        for name, _ in _EVENTS_COLS
    ]
    return pd.DataFrame(rows)


def _distinct_counts_documents(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.profile import collect_column_state

    ds = _read(sf_dir, "documents")
    coll = collect_column_state(ds, track_row_uniqueness=False)
    rows = [
        {"column_name": name, "unique_count": coll.columns[name].unique_count()}
        for name, _ in _DOC_COLS
    ]
    return pd.DataFrame(rows)


def _value_counts_source(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.aggregate import preagg_groupby

    ds = _read(sf_dir, "documents", columns=["source"])
    df = preagg_groupby(ds, ["source"], [("cnt", None, "count")])
    return (
        df.sort_values(["cnt", "source"], ascending=[False, True])
        .head(10).reset_index(drop=True)
    )


def _events_by_type(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.aggregate import preagg_groupby, round_away

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    df = preagg_groupby(ds, ["event_type"], [
        ("cnt", None, "count"),
        ("sum_value", "value", "sum"),
        ("min_value", "value", "min"),
        ("max_value", "value", "max"),
    ])
    df["avg_value"] = round_away(df["sum_value"] / df["cnt"], 4)
    df["sum_value"] = round_away(df["sum_value"], 2)
    return df


def _orders_monthly(sf_dir: str) -> pd.DataFrame:
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.aggregate import preagg_groupby, round_away

    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def add_ym(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        cents = _int_away(b.column("o_totalprice"))
        return pa.table({
            "y": pc.cast(pc.year(d), pa.int64()),
            "m": pc.cast(pc.month(d), pa.int64()),
            "price_cents": cents,
        })

    df = preagg_groupby(ds.map_batches(add_ym, batch_format="pyarrow"), ["y", "m"], [
        ("cnt", None, "count"),
        ("sum_price_cents", "price_cents", "sum"),
    ])
    df["sum_price_cents"] = df["sum_price_cents"].astype(np.int64)
    return df


def _filter_highvalue(sf_dir: str):
    import pyarrow.dataset as pds

    expr = (pds.field("l_quantity") >= 45) & (pds.field("l_discount") < 0.05)
    return _read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
                 filter=expr)


def _token_stats_documents(sf_dir: str):
    from dataprof_ray.pipelines import textstats as T

    return T.token_stats(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _char_classes_documents(sf_dir: str):
    from dataprof_ray.pipelines import textstats as T

    return T.char_classes(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _dedup_exact_documents(sf_dir: str):
    from dataprof_ray.pipelines import dedup as D

    return D.exact_dedup(_read(sf_dir, "documents"))


def _substring_dedup_documents(sf_dir: str):
    """Cross-document substring REMOVAL (Lee et al. action for the
    ★duplicate_spans_documents signal): 13-gram spans occurring in >= 2
    docs survive only in the smallest doc_id. Deterministic -> pinned
    golden."""
    from dataprof_ray.pipelines import dedup as D

    return D.remove_duplicate_spans(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _incremental_dedup_documents(sf_dir: str):
    """Incremental crawl dedup: prior corpus = every third document (a
    stand-in earlier crawl), new corpus = all documents; survivors are the
    docs whose text never appeared in the prior crawl. Exercises the Bloom
    prefilter + exact-verify rescue path end to end."""
    from dataprof_ray.pipelines import dedup as D

    def every_3rd(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 3 == 0))

    docs = _read(sf_dir, "documents")
    prior = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(every_3rd, batch_format="pyarrow")
    return D.dedup_against_prior(docs, prior)


def _fingerprint_md5(sf_dir: str):
    import hashlib

    def stage(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
        return pa.table({"doc_id": b.column("doc_id"),
                         "md5": pa.array(md5s, pa.string())})

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        stage, batch_format="pyarrow"
    )


def _repetition_stats_documents(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines import textstats as T

    return (T.repetition_stats(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))
        .to_pandas().sort_values("doc_id").reset_index(drop=True))


def _contamination_documents(sf_dir: str):
    """Decontamination scan: benchmark = every 20th document (a stand-in
    eval set), corpus = all documents; 8-gram overlap per document."""
    from dataprof_ray.pipelines import decontam as DC

    def every_20th(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 20 == 0))

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bench = DC.benchmark_ngram_set(
        docs.map_batches(every_20th, batch_format="pyarrow"), n=8)
    return DC.contamination_check(docs, bench, n=8)


def _compression_ratio_documents(sf_dir: str):
    """zlib compression-ratio quality signal; deterministic (pure function
    of bytes + zlib level) — pinned golden, not SQL-expressible."""
    from dataprof_ray.pipelines.textstats import compression_ratio

    return compression_ratio(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _temperature_mixture_documents(sf_dir: str) -> pd.DataFrame:
    """Temperature mixture rates (count^0.5, keep ~50%): alpha=0.5 is
    IEEE-exact sqrt on both engines, so the 6-place rounding matches."""
    from dataprof_ray.pipelines.sampling import temperature_mixture_rates

    return temperature_mixture_rates(
        _read(sf_dir, "documents", columns=["source"]),
        alpha=0.5, target_fraction=0.5)


def _global_shuffle_documents(sf_dir: str):
    """Deterministic global shuffle: stable (shard, pos) training order
    from md5(doc_id); 16 shards. SQL ROW_NUMBER oracle."""
    from dataprof_ray.pipelines.sampling import global_shuffle

    return global_shuffle(_read(sf_dir, "documents", columns=["doc_id"]))


def _pack_sequences_documents(sf_dir: str):
    """Concat-and-chunk sequence packing: per-document (partition, token
    offset, first/last sequence index) under max_len=128 over doc_id % 8
    partition streams. Exact SQL window-function oracle."""
    from dataprof_ray.pipelines.packing import pack_concat_chunk

    return pack_concat_chunk(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_len=128, parts=8)


def _packed_sequences_documents(sf_dir: str) -> pd.DataFrame:
    """Materialized training sequences (concat-and-chunk, max_len=128,
    8 partition streams): deterministic -> pinned golden; consistency
    with the ★pack_sequences_documents mapping is asserted in pytest."""
    from dataprof_ray.pipelines.packing import packed_sequences

    return packed_sequences(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_len=128, parts=8, docs_per_bucket=64)


def _packing_efficiency_audit(sf_dir: str) -> pd.DataFrame:
    """Self-measuring audit of first-fit-decreasing bin packing: bins used
    vs the token lower bound, oversize docs, and the max bin fill (must
    be <= max_len by construction; pinned in tests/test_entry_contract)."""
    from dataprof_ray.pipelines.packing import packing_efficiency

    return packing_efficiency(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_len=256, parts=8)


def _heavy_hitters_cms_audit(sf_dir: str) -> pd.DataFrame:
    """Self-measuring audit of the count-min-sketch heavy hitters: recall
    of the CMS top-20 terms against the exact partial-Counter top-20,
    plus the worst overcount (CMS estimates can only overcount, by at
    most error_bound with ~98% per-item probability)."""
    from dataprof_ray.pipelines.textstats import heavy_hitters_cms, top_terms

    docs = _read(sf_dir, "documents", columns=["text"])
    exact = top_terms(docs, k=20)
    approx = heavy_hitters_cms(docs, k=20)
    true = dict(zip(exact["term"], exact["term_count"]))
    matched = [t for t in approx["term"] if t in true]
    overcount = max((int(e) - int(true[t])
                     for t, e in zip(approx["term"], approx["est_count"])
                     if t in true), default=0)
    return pd.DataFrame([{
        "k": 20,
        "recall": round(len(set(approx["term"]) & set(exact["term"])) / 20, 4),
        "n_matched": len(matched),
        "max_overcount": overcount,
        "error_bound": round(float(approx.attrs["error_bound"]), 1),
    }])


def _neardup_vs_prior_audit(sf_dir: str) -> pd.DataFrame:
    """Self-measuring audit of incremental near-dup screening: prior =
    every 3rd document, new = all documents. Docs that ARE prior members
    have identical MinHash signatures, so all 16 bands must hit (recall
    1.0 on exact dups — pinned in tests); the flag rate among the rest
    reports LSH near-dup + false-positive incidence."""
    from dataprof_ray.pipelines import dedup as D

    def every_3rd(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 3 == 0))

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    prior = docs.map_batches(every_3rd, batch_format="pyarrow")
    out = (D.neardup_flags_vs_prior(docs, prior).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    is_prior = (out["doc_id"] % 3 == 0).to_numpy()
    return pd.DataFrame([{
        "n_docs": len(out),
        "prior_members": int(is_prior.sum()),
        "prior_members_flagged": int(out.loc[is_prior, "flagged"].sum()),
        "prior_members_full_hits": int(
            (out.loc[is_prior, "n_band_hits"] == 16).sum()),
        "others_flagged": int(out.loc[~is_prior, "flagged"].sum()),
        "others_flag_rate": round(
            float(out.loc[~is_prior, "flagged"].mean()), 4),
    }])


def _neardup_vs_prior_verified(sf_dir: str) -> pd.DataFrame:
    """Verified incremental near-dup matching (prior = every 3rd doc):
    every prior-member document is an exact dup of itself in the prior
    corpus, so it MUST be matched (pinned in tests); other matches are
    true near-dup families crossing the corpus boundary."""
    from dataprof_ray.pipelines import dedup as D

    def every_3rd(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 3 == 0))

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    prior = docs.map_batches(every_3rd, batch_format="pyarrow")
    return D.neardup_vs_prior_verified(docs, prior, threshold=0.7)


def _quality_classifier_audit(sf_dir: str) -> pd.DataFrame:
    """Self-measuring audit of the trainable fastText-style quality
    classifier (`pipelines/classifier.py`): every document yields a clean
    copy (label 1) and a deterministically corrupted copy with half its
    words replaced by seeded gibberish (label 0); the model trains on
    doc_id % 5 != 0 and is scored on the held-out fifth. A working
    training loop must reach AUC ~1 on this separable task — pinned
    >= 0.95 in tests/test_entry_contract.py. Test scores are collected to
    the driver for the rank-sum AUC (test split is sampled and bounded by
    construction at scale)."""
    from dataprof_ray.pipelines.classifier import (auc_score,
                                                   score_with_classifier,
                                                   train_text_classifier)

    def make_pairs(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        texts = b.column("text").to_pylist()
        out_id, out_text, out_label = [], [], []
        for i, t in zip(ids, texts):
            rng = np.random.default_rng(int(i))
            words = (t or "").split()
            bad = " ".join(
                "zq" + rng.bytes(3).hex() if k % 2 else w
                for k, w in enumerate(words))
            out_id += [int(i), int(i)]
            out_text += [t, bad]
            out_label += [1, 0]
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "text": pa.array(out_text, pa.string()),
            "label": pa.array(out_label, pa.int64()),
        })

    pairs = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(make_pairs, batch_format="pyarrow")
    def split(keep_test: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            mask = (ids % 5 == 0) if keep_test else (ids % 5 != 0)
            return b.filter(pa.array(mask))
        return f

    # materialize once: the corruption pipeline would otherwise re-run
    # for featurize, scoring, and the count (audit corpus is 2x docs)
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    train = pairs.map_batches(split(False), batch_format="pyarrow")
    test = pairs.map_batches(split(True), batch_format="pyarrow")
    clf = train_text_classifier(train, rounds=2, local_steps=30)
    scored = score_with_classifier(test, clf).to_pandas()
    auc = auc_score(scored["label"].to_numpy(), scored["clf_score"].to_numpy())
    acc = float(((scored["clf_score"] > 0.5).astype(int)
                 == scored["label"]).mean())
    return pd.DataFrame([{
        "n_train": n_pairs - len(scored), "n_test": len(scored),
        "test_auc": round(float(auc), 4), "test_acc": round(acc, 4),
        "model_kb": round(clf.w.nbytes / 1024, 1),
    }])


def _contamination_bloom_audit(sf_dir: str) -> pd.DataFrame:
    """Self-measuring audit of the Bloom-filter decontamination path (the
    broadcast form for eval suites too big to ship as a frozenset): runs
    the same every-20th-doc scan with the exact set AND the Bloom filter
    and reports agreement. ``false_negative_docs`` must be 0 by
    construction (Bloom filters cannot miss); ``extra_flagged_docs`` is
    bounded by the fp rate. Pinned by tests/test_bloom.py +
    tests/test_entry_contract.py."""
    from dataprof_ray.pipelines import decontam as DC

    def every_20th(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 20 == 0))

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bench_ds = docs.map_batches(every_20th, batch_format="pyarrow")
    exact = DC.contamination_check(
        docs, DC.benchmark_ngram_set(bench_ds, n=8), n=8, as_dataset=False)
    bloom = DC.benchmark_ngram_bloom(bench_ds, n=8, fp_rate=1e-4)
    approx = DC.contamination_check(docs, bloom, n=8, as_dataset=False)
    e_hit = exact["n_contaminated"] > 0
    b_hit = approx["n_contaminated"] > 0
    return pd.DataFrame([{
        "n_docs": len(exact),
        "exact_contaminated_docs": int(e_hit.sum()),
        "bloom_contaminated_docs": int(b_hit.sum()),
        "false_negative_docs": int((e_hit & ~b_hit).sum()),
        "extra_flagged_docs": int((~e_hit & b_hit).sum()),
        "bloom_mb": round(bloom.bits.nbytes / 2**20, 3),
        "bloom_fill_ratio": round(bloom.fill_ratio(), 4),
    }])


def _top3_orders_per_priority(sf_dir: str) -> pd.DataFrame:
    """Group-wise top-k: the 3 most expensive orders per priority."""
    from dataprof_ray.pipelines.aggregate import topk_per_group

    return topk_per_group(
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_orderpriority", "o_totalprice"]),
        keys=["o_orderpriority"],
        order_cols=["o_totalprice", "o_orderkey"], k=3)


def _running_user_totals(sf_dir: str):
    """Per-user running event count + exact cents running sum."""
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.window import cumulative_window

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "ts": b.column("ts"),
            "user_id": b.column("user_id"),
            "value_cents": _int_away(b.column("value")),
        })

    return cumulative_window(ev.map_batches(cents, batch_format="pyarrow"),
                             "ts", "user_id",
                             value_cents_col="value_cents",
                             order_extra=["event_id"])


def _approx_quantiles_audit(sf_dir: str) -> pd.DataFrame:
    """Self-measuring accuracy audit (like ivf_recall): sketch quantiles of
    l_extendedprice vs the exact type-7 values, reporting the worst rank
    error. No SQL oracle — the result IS the measurement."""
    from dataprof_ray.functions.kernels import quantile_type7
    from dataprof_ray.pipelines.aggregate import approx_quantiles

    qs = [0.01, 0.25, 0.5, 0.75, 0.99]
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    approx = approx_quantiles(ds, "l_extendedprice", qs=qs, k=512)
    col = np.sort(np.concatenate([
        b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        for b in ds.iter_batches(batch_format="pyarrow")]))
    rows = []
    for q, av in zip(qs, approx["value"]):
        exact = quantile_type7(col, q)
        # achieved rank of the approx value vs requested rank
        rank = np.searchsorted(col, av) / max(len(col) - 1, 1)
        rows.append({"q": q, "approx": float(av), "exact": float(exact),
                     "rank_err": float(abs(rank - q))})
    out = pd.DataFrame(rows)
    out["max_rank_err"] = out["rank_err"].max()
    return out


def _approx_quantile_rank_check(sf_dir: str) -> pd.DataFrame:
    """Oracle-anchored sketch check (VERDICT r3 #7): each k=512 sketch
    quantile of l_extendedprice must land within eps=0.02 of its requested
    rank (analytic bound is O(merge_depth/k); the self-measuring companion
    ``approx_quantiles_audit`` reports the achieved error, this one lets
    the DRIVER fail the sketch). The achieved rank is measured
    distributedly — per-batch counts of values below / at-or-below each
    sketch value, pre-aggregated — so only the 3 sketch values and 3 count
    rows ever reach the driver. The oracle pins within_bound TRUE per
    quantile, so a sketch regression hash-mismatches."""
    from dataprof_ray.pipelines.aggregate import (approx_quantiles,
                                                  preagg_groupby)

    qs = [0.25, 0.5, 0.75]
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    approx = approx_quantiles(ds, "l_extendedprice", qs=qs, k=512)
    vals = np.asarray(approx["value"], dtype=np.float64)
    qarr = np.asarray(qs, dtype=np.float64)

    def counts(b: pa.Table) -> pa.Table:
        x = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        x = x[~np.isnan(x)]
        return pa.table({
            "q": pa.array(qarr, pa.float64()),
            "n_lt": pa.array([int((x < v).sum()) for v in vals], pa.int64()),
            "n_le": pa.array([int((x <= v).sum()) for v in vals], pa.int64()),
            "n": pa.array([len(x)] * len(qs), pa.int64()),
        })

    agg = preagg_groupby(
        ds.map_batches(counts, batch_format="pyarrow"), ["q"],
        [("n_lt", "n_lt", "sum"), ("n_le", "n_le", "sum"), ("n", "n", "sum")],
    ).sort_values("q").reset_index(drop=True)
    eps = 0.02
    n = np.maximum(agg["n"].to_numpy(), 1)
    # the sketch value's true rank is anywhere in [n_lt/n, n_le/n] (ties);
    # the requested rank must fall in that interval widened by eps
    lo = agg["n_lt"].to_numpy() / n - eps
    hi = agg["n_le"].to_numpy() / n + eps
    within = (qarr >= lo) & (qarr <= hi)
    return pd.DataFrame({"q": qarr, "within_bound": within.astype(bool)})


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _weekday_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Crosstab: weekday rows x event-type count columns (NULL types count
    toward no column, as in the SQL CASE formulation)."""
    from dataprof_ray.pipelines.aggregate import pivot_counts

    ev = _read(sf_dir, "events", columns=["ts", "event_type"])

    def weekday(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"weekday": df["ts"].dt.day_name(),
                             "event_type": df["event_type"]})

    return pivot_counts(ev.map_batches(weekday, batch_format="pandas"),
                        ["weekday"], "event_type", _EVENT_TYPES)


def _rolling_user_events(sf_dir: str):
    """Trailing 7-day per-user rolling count + exact cents sum per event."""
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.window import rolling_window

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "ts": b.column("ts"),
            "user_id": b.column("user_id"),
            "value_cents": _int_away(b.column("value")),
        })

    return rolling_window(ev.map_batches(cents, batch_format="pyarrow"),
                          "ts", "user_id", "7d",
                          value_cents_col="value_cents")


def _customers_urgent_orders(sf_dir: str):
    """Semi join: customers holding at least one URGENT order (broadcast
    distinct key set, no shuffle on the customer side; the anti flavor is
    unit-tested — the TPC-H generator leaves no orderless customers)."""
    from dataprof_ray.pipelines.join import semi_anti_join

    urgent = (_read(sf_dir, "orders",
                    columns=["o_custkey", "o_orderpriority"])
              .filter(expr="o_orderpriority == '1-URGENT'"))
    return semi_anti_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        urgent, big_key="c_custkey", small_key="o_custkey", how="semi")


def _jaccard_pairs_exact(sf_dir: str):
    """EXACT 3-gram Jaccard pairs >= 0.5 via the distributed inverted-gram
    index (ground truth for the LSH-gated ★ngram_jaccard_pairs — whose
    recall this pins externally: SQL computes the identical all-pairs
    join)."""
    from dataprof_ray.pipelines.dedup import exact_jaccard_pairs

    return exact_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        n=3, threshold=0.5)


def _within_doc_line_dedup(sf_dir: str):
    """WITHIN-document line dedup: repeated non-whitespace lines keep
    their first occurrence; whitespace-only lines always survive."""
    from dataprof_ray.pipelines.linededup import within_doc_line_dedup

    return within_doc_line_dedup(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _funnel_events(sf_dir: str) -> pd.DataFrame:
    """Ordered view -> click -> purchase funnel per user: stage i counts a
    user only if its earliest event is strictly after stage i-1's
    earliest. One min-reduce shuffle; events never move."""
    from dataprof_ray.pipelines.aggregate import funnel_counts

    return funnel_counts(
        _read(sf_dir, "events", columns=["user_id", "ts", "event_type"]),
        key="user_id", ts_col="ts", stage_col="event_type",
        stages=["view", "click", "purchase"])


def _chunk_documents(sf_dir: str):
    """Overlapping token-window chunking (64-token windows, 16 overlap —
    small enough that the synthetic docs produce multi-chunk output):
    every token covered, per-chunk repeat of 16 context tokens, exact SQL
    twin via 1-based inclusive list slices."""
    from dataprof_ray.pipelines.packing import chunk_documents

    return chunk_documents(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_tokens=64, overlap=16)


def _snapshot_diff_documents(sf_dir: str) -> pd.DataFrame:
    """Crawl-snapshot diff: snapshot A = docs with doc_id % 5 != 4,
    snapshot B = docs with doc_id % 5 != 0 and every 7th doc's text
    edited — so all four statuses (added / removed / changed / unchanged)
    genuinely occur. One full-outer join of (key, md5) rows."""
    from dataprof_ray.pipelines.drift import snapshot_diff

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side_a(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 5 != 4))

    def side_b(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(ids % 5 != 0))
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        texts = b.column("text").to_pylist()
        edited = [
            ((t or "") + " updated") if i % 7 == 0 else t
            for i, t in zip(ids, texts)
        ]
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(edited, pa.string())})

    return snapshot_diff(
        docs.map_batches(side_a, batch_format="pyarrow"),
        docs.map_batches(side_b, batch_format="pyarrow"))


def _jaccard_lsh_recall_audit(sf_dir: str) -> pd.DataFrame:
    """Measured recall of the LSH-gated pairs op against the EXACT
    inverted-index ground truth (★jaccard_pairs_exact) on the same corpus
    and threshold — the external anchor VERDICT-style audits want: if a
    banding regression drops recall, this row changes."""
    from dataprof_ray.pipelines.dedup import (exact_jaccard_pairs,
                                              ngram_jaccard_duplicate_pairs)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    exact = exact_jaccard_pairs(docs, n=3, threshold=0.5).to_pandas()
    gated = ngram_jaccard_duplicate_pairs(docs, n=3, threshold=0.5)
    e = set(zip(exact["id_a"], exact["id_b"]))
    g = set(zip(gated["id_a"].astype(int), gated["id_b"].astype(int)))
    return pd.DataFrame([{
        "exact_pairs": len(e),
        "lsh_pairs": len(g),
        "false_pairs": len(g - e),
        "recall": round(len(g & e) / len(e), 4) if e else 1.0,
    }])


def _user_click_purchase_counts(sf_dir: str):
    """FULL OUTER join driver coverage: per-user click counts (users with
    user_id % 3 == 0) full-joined to purchase counts (user_id % 2 == 0) —
    the sparsity filters guarantee one-sided rows so the outer semantics
    (kept unmatched rows, coalesced key, int64-with-null counts) are
    actually exercised."""
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.join import hash_join

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def side(event_type: str, mod: int, out_name: str) -> pd.DataFrame:
        def pick(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            ids = b.column("user_id")
            keep = pc.and_(pc.is_valid(ids),
                           pc.equal(b.column("event_type"), event_type))
            b = b.filter(keep)
            ids = b.column("user_id").to_numpy(zero_copy_only=False)
            return b.filter(pa.array(ids % mod == 0))
        agg = preagg_groupby(ev.map_batches(pick, batch_format="pyarrow"),
                             ["user_id"], [(out_name, "user_id", "count")])
        return rd.from_arrow(pa.Table.from_pandas(
            agg, preserve_index=False).replace_schema_metadata(None))

    clicks = side("click", 3, "n_clicks")
    purchases = side("purchase", 2, "n_purchases")
    return hash_join(clicks, purchases, left_key="user_id",
                     right_key="user_id", how="outer", partitions=16)


def _vocab_drift_documents(sf_dir: str) -> pd.DataFrame:
    """Corpus-snapshot vocabulary drift: even-doc_id docs stand in for the
    prior crawl, odd for the new one; top-30 terms by absolute count
    change with per-side counts (exact oracle: same tokenizer contract as
    ★top_terms_documents)."""
    from dataprof_ray.pipelines.drift import vocab_drift

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side(parity: int):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            return b.filter(pa.array(ids % 2 == parity))
        return f

    return vocab_drift(
        docs.map_batches(side(0), batch_format="pyarrow"),
        docs.map_batches(side(1), batch_format="pyarrow"),
        top_n=30)


def _customers_no_urgent_orders(sf_dir: str):
    """Anti join (NOT EXISTS): customers holding NO urgent order — the
    complement of ★customers_urgent_orders, driver-checking the anti
    flavor of semi_anti_join (null/missing keys kept, SQL NOT EXISTS
    semantics)."""
    from dataprof_ray.pipelines.join import semi_anti_join

    urgent = (_read(sf_dir, "orders",
                    columns=["o_custkey", "o_orderpriority"])
              .filter(expr="o_orderpriority == '1-URGENT'"))
    return semi_anti_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        urgent, big_key="c_custkey", small_key="o_custkey", how="anti")


def _event_gaps_users(sf_dir: str):
    """LAG() as a distributed operator: per user, each event's previous
    same-user timestamp and the exact microsecond gap (inter-event-time —
    the burst/bot signal). Null user/ts rows are filtered to match the
    SQL window's partition."""
    from dataprof_ray.pipelines.window import lag_delta

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def drop_nulls(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.and_(pc.is_valid(b.column("user_id")),
                                pc.is_valid(b.column("ts"))))

    return lag_delta(ev.map_batches(drop_nulls, batch_format="pyarrow"),
                     ts_col="ts", key="user_id", order_extra=["event_id"])


def _duplicate_spans_documents(sf_dir: str):
    """Cross-document duplicate 13-gram spans (substring-dedup signal);
    returns the lazy per-doc Dataset (as_dataset default)."""
    from dataprof_ray.pipelines.dedup import duplicate_span_stats

    return duplicate_span_stats(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), n=13)


def _line_dedup_documents(sf_dir: str):
    """C4-style cross-document line dedup: per-doc accounting of lines
    removed because their exact text occurs in >1 distinct document."""
    from dataprof_ray.pipelines.linededup import line_dedup

    return line_dedup(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        max_docs=1, include_text=False)


def _views_near_clicks(sf_dir: str) -> pd.DataFrame:
    """Interval join: for each click, count same-user views within ±30
    minutes (left semantics: clicks with no nearby view count 0)."""
    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.join import interval_join

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])
    clicks = (ev.filter(expr="event_type == 'click'")
              .drop_columns(["event_type"]))
    views = (ev.filter(expr="event_type == 'view'")
             .drop_columns(["event_type"]))
    pairs = interval_join(
        clicks, views, key="user_id", left_ts="ts", right_ts="ts",
        lower="-12h", upper="12h", right_columns=[], how="left")

    def matched(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "user_id": b.column("user_id"),
            "event_id": b.column("event_id"),
            "m": pc.cast(pc.is_valid(b.column("ts_right")), pa.int64()),
        })

    return preagg_groupby(
        pairs.map_batches(matched, batch_format="pyarrow"),
        ["user_id", "event_id"], [("n_views", "m", "sum")])


def _latest_event_per_user(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.aggregate import argmax_by

    return argmax_by(
        _read(sf_dir, "events",
              columns=["user_id", "event_id", "ts", "event_type"]),
        keys=["user_id"], order_cols=["ts", "event_id"], descending=True,
    )


def _tumbling_events(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.window import tumbling_window

    return tumbling_window(
        _read(sf_dir, "events", columns=["ts", "event_type", "value"]),
        "ts", unit="day", keys=["event_type"], value_col="value",
    )


def _hopping_events(sf_dir: str) -> pd.DataFrame:
    """6h windows hopping every 2h: each event lands in 3 windows; the
    replication collapses to per-batch partials before the shuffle."""
    from dataprof_ray.pipelines.window import hopping_window

    return hopping_window(
        _read(sf_dir, "events", columns=["ts", "event_type", "value"]),
        "ts", width_seconds=21600, slide_seconds=7200,
        keys=["event_type"], value_col="value",
    )


def _weekday_orders(sf_dir: str) -> pd.DataFrame:
    """Weekday distribution via the profiler's DateTimeStats accumulator."""
    from dataprof_ray.pipelines.profile import _WEEKDAY_NAMES, collect_column_state

    coll = collect_column_state(_read(sf_dir, "orders", columns=["o_orderdate"]))
    dist = coll.columns["o_orderdate"].weekday_dist
    return pd.DataFrame(
        [{"weekday": _WEEKDAY_NAMES[k], "cnt": v} for k, v in sorted(dist.items())]
    )


def _row_duplicates_documents(sf_dir: str) -> pd.DataFrame:
    """Full-stream duplicate-row counting over a projected (lang, source)
    view — the reference's RowUniquenessTracker semantics."""
    from dataprof_ray.pipelines.profile import collect_column_state

    coll = collect_column_state(
        _read(sf_dir, "documents", columns=["lang", "source"]),
        track_row_uniqueness=True,
    )
    t = coll.row_tracker
    return pd.DataFrame([{
        "rows_seen": t.rows_seen,
        "duplicate_rows": t.duplicate_rows(),
    }])


def _top_expensive_orders(sf_dir: str):
    """Global distributed sort (ds.sort is the one all-to-all primitive the
    profiler never needs — demonstrated here) + limit, with a total
    deterministic tie-break mirrored in the SQL."""
    return (
        _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(20)
    )


def _sales_by_segment(sf_dir: str) -> pd.DataFrame:
    """Broadcast join (orders x customer, no shuffle of the big side) +
    pre-aggregated groupby."""
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.join import broadcast_join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = broadcast_join(orders, customer, big_key="o_custkey",
                            small_key="c_custkey", columns=["c_mktsegment"],
                            how="inner")

    def add_cents(b: pa.Table) -> pa.Table:
        cents = _int_away(b.column("o_totalprice"))
        return pa.table({"c_mktsegment": b.column("c_mktsegment"),
                         "price_cents": cents})

    df = preagg_groupby(joined.map_batches(add_cents, batch_format="pyarrow"),
                        ["c_mktsegment"], [
        ("cnt", None, "count"),
        ("sum_cents", "price_cents", "sum"),
    ])
    df["sum_cents"] = df["sum_cents"].astype(np.int64)
    return df


def _stratified_customer(sf_dir: str):
    from dataprof_ray.pipelines import sampling as SA

    return SA.stratified_sample(
        _read(sf_dir, "customer"), ["c_mktsegment"], 20, order_col="c_custkey"
    )


def _systematic_orders(sf_dir: str):
    from dataprof_ray.pipelines import sampling as SA

    return SA.systematic_by_key(_read(sf_dir, "orders"), "o_orderkey", 40)


def _load_queries(sf_dir: str, n: int = 5) -> tuple[np.ndarray, list[int]]:
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    df = tbl.to_pandas().sort_values("vec_id").head(n)
    qids = df["vec_id"].astype(int).tolist()
    mat = np.stack(df["embedding"].map(lambda v: np.asarray(v, dtype=np.float64)))
    return mat, qids


def _topk_cosine(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.aggregate import round_away
    from dataprof_ray.pipelines.similarity import brute_force_topk

    queries, qids = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = brute_force_topk(ds, queries, k=10)
    out["query_id"] = out["query_id"].map(lambda i: qids[i]).astype(np.int64)
    out["cosine"] = round_away(out["cosine"], 4)
    return out


def _revenue_by_priority(sf_dir: str) -> pd.DataFrame:
    """Large-large join: lineitem x orders via the hash-partitioned cogroup
    (both sides shuffle once), then the pre-aggregated groupby."""
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.join import hash_join

    def add_cents(b: pa.Table) -> pa.Table:
        cents = _int_away(b.column("l_extendedprice"))
        return pa.table({"l_orderkey": b.column("l_orderkey"),
                         "price_cents": cents})

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"]) \
        .map_batches(add_cents, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = hash_join(li, orders, left_key="l_orderkey",
                       right_key="o_orderkey", partitions=32)
    df = preagg_groupby(joined, ["o_orderpriority"], [
        ("cnt", None, "count"),
        ("sum_cents", "price_cents", "sum"),
    ])
    df["sum_cents"] = df["sum_cents"].astype(np.int64)
    return df


def _audits_summary(sf_dir: str) -> pd.DataFrame:
    """One driver-checkable row per self-audit (VERDICT r4 #7): each
    rows-only audit query measures its own metric distributedly (recall vs
    planted/exact ground truth, sketch error vs analytic bound, held-out
    AUC) and this summary reduces every one to (audit, passed) with the
    SAME thresholds the pytest pins assert. The SQL oracle is the constant
    truth table (the approx_quantile_rank_check pattern): a hash mismatch
    means some audit's measured metric broke its bound."""
    checks = [
        ("approx_quantiles_audit",
         lambda df: bool((df["rank_err"] <= df["max_rank_err"]).all())),
        ("contamination_bloom_audit",
         lambda df: bool((df.iloc[0]["false_negative_docs"] == 0)
                         and (df.iloc[0]["extra_flagged_docs"]
                              <= max(1, 0.01 * df.iloc[0]["n_docs"])))),
        ("embedding_neardup_recall",
         lambda df: bool((df.iloc[0]["recall"] >= 0.9)
                         and (df.iloc[0]["precision"] >= 0.99))),
        ("heavy_hitters_cms_audit",
         lambda df: bool((df.iloc[0]["recall"] >= 0.9)
                         and (0 <= df.iloc[0]["max_overcount"]
                              <= df.iloc[0]["error_bound"]))),
        ("ivf_recall",
         lambda df: bool(df.iloc[0]["mean_recall"] >= 0.6)),
        ("jaccard_lsh_recall_audit",
         lambda df: bool((df.iloc[0]["recall"] == 1.0)
                         and (df.iloc[0]["false_pairs"] == 0))),
        ("neardup_vs_prior_audit",
         lambda df: bool((df.iloc[0]["prior_members_flagged"]
                          == df.iloc[0]["prior_members"])
                         and (df.iloc[0]["others_flag_rate"] <= 0.2))),
        ("packing_efficiency_audit",
         lambda df: bool((df.iloc[0]["max_bin_tokens"] <= df.iloc[0]["max_len"])
                         and (df.iloc[0]["oversize_docs"] == 0)
                         and (df.iloc[0]["n_bins"]
                              <= 2 * df.iloc[0]["lb_bins"] + 8))),
        ("pca_audit_embeddings",
         lambda df: bool((df.iloc[0]["rel_gap_e12"] <= 1.0)
                         and (0.0 < df.iloc[0]["explained_ratio"] < 1.0))),
        ("quality_classifier_audit",
         lambda df: bool((df.iloc[0]["test_auc"] >= 0.95)
                         and (df.iloc[0]["test_acc"] >= 0.9))),
        ("quantization_audit",
         lambda df: bool((df.iloc[0]["mean_recall"] >= 0.9)
                         and (df.iloc[0]["max_unit_err"] <= 0.5))),
    ]
    qs = queries()
    rows = []
    for name, check in checks:
        out = qs[name](sf_dir)
        df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        rows.append({"audit": name, "passed": check(df)})
    return (pd.DataFrame(rows).sort_values("audit")
            .reset_index(drop=True))


def _skewed_join_events(sf_dir: str) -> pd.DataFrame:
    """Hot-key join stress (VERDICT r4 #6): ~40% of event rows collapse
    onto one synthetic user key, ``detect_hot_keys`` finds it from a
    counting pass, and ``hash_join`` salts that key across 8 partitions
    (probe rows round-robin, build rows replicated) so the hot key cannot
    serialize into one cogroup task. A ValueError guards that salting
    actually engaged (``stats`` hook) — the driver's oracle gate then
    certifies the salted join's VALUES, end-to-end."""
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.join import detect_hot_keys, hash_join

    def skew(b: pa.Table) -> pa.Table:
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        cents = _int_away(b.column("value"))
        return pa.table({
            "skew_uid": pa.array(np.where(uid % 5 < 2, 7, uid), pa.int64()),
            "cents": cents,
        })

    ev = _read(sf_dir, "events", columns=["user_id", "value"]) \
        .map_batches(skew, batch_format="pyarrow")
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    hot = detect_hot_keys(ev, "skew_uid", min_fraction=0.2)
    stats: dict = {}
    joined = hash_join(ev, cust, left_key="skew_uid", right_key="c_custkey",
                       how="inner", partitions=32, hot_keys=hot,
                       salt_factor=8, stats=stats)
    if not (stats["salted"] and 7 in stats["hot_keys"]):
        raise ValueError(f"hot-key salting did not engage: {stats}")
    df = preagg_groupby(joined, ["c_mktsegment"], [
        ("n_events", None, "count"),
        ("sum_cents", "cents", "sum"),
    ])
    df["sum_cents"] = df["sum_cents"].astype(np.int64)
    return df.sort_values("c_mktsegment").reset_index(drop=True)


def _drift_price_bins(sf_dir: str) -> pd.DataFrame:
    """Numeric drift histogram: lineitem split into even/odd order keys,
    l_extendedprice binned over 10 shared equal-width bins. Bucket
    arithmetic (min(floor((x-lo)/w), bins-1)) matches the SQL oracle
    exactly, so counts are integer-exact."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds

    from dataprof_ray.pipelines.drift import numeric_drift_bins

    # Expression algebra lacks %; bit_wise_and is % 2 for non-negative keys
    parity = pc.bit_wise_and(pds.field("l_orderkey"), 1)
    even = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"],
                 filter=(parity == 0))
    odd = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"],
                filter=(parity == 1))
    out = numeric_drift_bins(even, odd, "l_extendedprice", bins=10)
    return out[["bin_id", "cnt_a", "cnt_b"]]


def _revenue_by_region(sf_dir: str) -> pd.DataFrame:
    """Chained broadcast joins (orders -> customer -> nation -> region; each
    small side ships once via ray.put, the orders stream never shuffles)
    feeding the pre-aggregated groupby — the TPC-H Q5 shape without the
    lineitem leg."""
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.join import broadcast_join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"])
    region = _read(sf_dir, "region", columns=["r_regionkey", "r_name"])
    j = broadcast_join(orders, customer, big_key="o_custkey",
                       small_key="c_custkey", columns=["c_nationkey"],
                       how="inner")
    j = broadcast_join(j, nation, big_key="c_nationkey",
                       small_key="n_nationkey", columns=["n_regionkey"],
                       how="inner")
    j = broadcast_join(j, region, big_key="n_regionkey",
                       small_key="r_regionkey", columns=["r_name"],
                       how="inner")

    def add_cents(b: pa.Table) -> pa.Table:
        cents = _int_away(b.column("o_totalprice"))
        return pa.table({"r_name": b.column("r_name"), "price_cents": cents})

    df = preagg_groupby(j.map_batches(add_cents, batch_format="pyarrow"),
                        ["r_name"], [
        ("cnt", None, "count"),
        ("sum_cents", "price_cents", "sum"),
    ])
    df["sum_cents"] = df["sum_cents"].astype(np.int64)
    return df


def _parts_by_brand(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.aggregate import preagg_groupby, round_away

    ds = _read(sf_dir, "part", columns=["p_brand", "p_size", "p_retailprice"])
    df = preagg_groupby(ds, ["p_brand"], [
        ("cnt", None, "count"),
        ("sum_size", "p_size", "sum"),
        ("max_price", "p_retailprice", "max"),
    ])
    df["avg_size"] = round_away(df["sum_size"] / df["cnt"], 4)
    df["sum_size"] = df["sum_size"].astype(np.int64)
    return df


def _asof_click_view(sf_dir: str) -> pd.DataFrame:
    """As-of join: each click event picks the same user's latest view at or
    before it (backward as-of). Left-join semantics: clicks with no prior
    view null-fill."""
    import pyarrow.dataset as pds

    from dataprof_ray.pipelines.join import asof_join

    valid = pds.field("user_id").is_valid() & pds.field("ts").is_valid()
    clicks = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"],
                   filter=((pds.field("event_type") == "click") & valid))
    views = _read(sf_dir, "events", columns=["user_id", "ts"],
                  filter=((pds.field("event_type") == "view") & valid))
    out = asof_join(clicks, views, key="user_id", left_ts="ts",
                    right_ts="ts", right_columns=[], partitions=16)
    df = out.to_pandas().rename(columns={"ts_right": "last_view_ts"})
    # the cogroup's null-padded union launders ints to float64 in pandas
    # blocks; the filters above guarantee no nulls, so restore exactly
    df["event_id"] = df["event_id"].astype(np.int64)
    df["user_id"] = df["user_id"].astype(np.int64)
    return df.sort_values("event_id").reset_index(drop=True)


def _session_events(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.window import session_window

    return session_window(
        _read(sf_dir, "events", columns=["ts", "user_id"]),
        "ts", "user_id", gap_seconds=1800.0, as_dataset=False,
    )


def _quantiles_lineitem(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.aggregate import group_quantiles

    return group_quantiles(
        _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"]),
        ["l_returnflag"], "l_quantity",
    )


def _top_terms_documents(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines import textstats as T

    return T.top_terms(_read(sf_dir, "documents", columns=["text"]), k=20)


def _top_bigrams_documents(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines import textstats as T

    return T.top_ngrams(_read(sf_dir, "documents", columns=["text"]), n=2, k=20)


def _doc_frequency_documents(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines import textstats as T

    return T.doc_frequency(_read(sf_dir, "documents", columns=["text"]), k=50)


def _gopher_signals_documents(sf_dir: str):
    from dataprof_ray.pipelines import textstats as T

    return T.gopher_signals(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _doc_quality_documents(sf_dir: str):
    from dataprof_ray.pipelines import textstats as T

    return T.doc_quality(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _embedding_stats(sf_dir: str):
    """Per-vector order-free stats (dim / min / max — exact floats, no
    summation-order hazard) over the zero-copy matrix extraction."""
    from dataprof_ray.pipelines.similarity import _to_matrix

    def stage(b: pa.Table) -> pa.Table:
        m = _to_matrix(b.column("embedding"))
        return pa.table({
            "vec_id": b.column("vec_id"),
            "dim": pa.array(np.full(len(m), m.shape[1] if len(m) else 0,
                                    dtype=np.int64)),
            "vmin": pa.array(m.min(axis=1) if len(m) else [], pa.float64()),
            "vmax": pa.array(m.max(axis=1) if len(m) else [], pa.float64()),
        })

    return _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]) \
        .map_batches(stage, batch_format="pyarrow")


# ----- rows-only (model / sketch based; no SQL equivalent) -----


def _langid_documents(sf_dir: str):
    from dataprof_ray.pipelines import textstats as T

    return T.langid(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _quality_filter_documents(sf_dir: str):
    from dataprof_ray.pipelines import quality_filter as QF

    corpus = _read(sf_dir, "documents").map_batches(
        _docs_as_corpus_stage, batch_format="pyarrow"
    )
    return QF.run_quality_filter(corpus)


def _minhash_duplicate_groups(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines import dedup as D

    return D.minhash_lsh_duplicate_groups(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        verify_threshold=0.5,
    )


def _ngram_jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines import dedup as D

    return D.ngram_jaccard_duplicate_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        n=3, threshold=0.5,
    )


def _simhash_signatures(sf_dir: str):
    from dataprof_ray.pipelines import dedup as D

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lambda b: D.simhash_stage(b), batch_format="pyarrow"
    )


def _embedding_neardup(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines import dedup as D

    return D.embedding_neardup_pairs(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    )


def _planted_embeddings(sf_dir: str) -> pa.Table:
    """The testdata embeddings contain NO cosine>=0.95 pairs (max observed
    ~0.6), so near-duplicates are PLANTED deterministically: every 5th
    vector gets a perturbed clone at cosine ~0.97. Used by the recall audit
    and the clustering query so both exercise non-trivial output."""
    import pyarrow.parquet as pq

    from dataprof_ray.pipelines.similarity import _to_matrix

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    vecs = _to_matrix(tbl.column("embedding"))
    rng = np.random.default_rng(42)
    base = vecs[::5]
    norms = np.linalg.norm(base, axis=1, keepdims=True)
    unit = base / np.maximum(norms, 1e-12)
    noise = rng.normal(size=base.shape)
    noise -= (np.einsum("ij,ij->i", noise, unit)[:, None]) * unit
    noise /= np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
    clones = (unit + 0.25 * noise) * norms  # cosine ~0.97 to the original
    clone_ids = ids.max() + 1 + np.arange(len(clones), dtype=np.int64)
    return pa.table({
        "vec_id": pa.array(np.concatenate([ids, clone_ids]), pa.int64()),
        "embedding": pa.array(
            [list(map(float, v)) for v in np.vstack([vecs, clones])],
            pa.list_(pa.float64())),
    })


def _embedding_neardup_recall(sf_dir: str) -> pd.DataFrame:
    """Measured LSH recall vs brute force on the planted-clone corpus: the
    audit reports recall/precision of the banded hyperplane LSH against the
    brute-force ground truth."""
    import ray.data as rd

    from dataprof_ray.pipelines import dedup as D

    planted = _planted_embeddings(sf_dir)
    return D.embedding_neardup_recall(rd.from_arrow(planted).repartition(4),
                                      threshold=0.95)


def _embedding_neardup_groups(sf_dir: str) -> pd.DataFrame:
    """Near-dup CLUSTER membership over the planted-clone corpus: every
    (original, clone) family collapses to the original's id via distributed
    cosine verify + connected_components."""
    import ray.data as rd

    from dataprof_ray.pipelines import dedup as D

    planted = _planted_embeddings(sf_dir)
    return D.embedding_neardup_groups(rd.from_arrow(planted).repartition(4),
                                      threshold=0.95)


def _ivf_topk(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.similarity import ivf_topk

    queries, qids = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = ivf_topk(ds, queries, k=10, n_cells=8, nprobe=4)
    if not out.empty:
        out["query_id"] = out["query_id"].map(lambda i: qids[i]).astype(np.int64)
    return out


def _ivf_recall(sf_dir: str) -> pd.DataFrame:
    """Measured IVF recall vs the in-repo brute-force oracle (recall@10,
    nprobe=4 of 8 cells): approximate operators report their accuracy
    instead of asserting it."""
    from dataprof_ray.pipelines.similarity import brute_force_topk, ivf_topk

    queries, qids = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact = brute_force_topk(ds, queries, k=10)
    approx = ivf_topk(ds, queries, k=10, n_cells=8, nprobe=4)
    recalls = []
    for qi in range(len(qids)):
        e = set(exact[exact.query_id == qi].vec_id)
        a = set(approx[approx.query_id == qi].vec_id) if not approx.empty else set()
        recalls.append(len(e & a) / len(e) if e else 1.0)
    return pd.DataFrame([{
        "n_queries": len(qids),
        "k": 10,
        "mean_recall": float(np.mean(recalls)),
        "min_recall": float(np.min(recalls)),
    }])


def _domain_rollup(sf_dir: str) -> pd.DataFrame:
    """Salted per-domain rollup over the filtered corpus (the north rule's
    skew-handled groupby)."""
    from dataprof_ray.pipelines import quality_filter as QF

    corpus = _read(sf_dir, "documents").map_batches(
        _docs_as_corpus_stage, batch_format="pyarrow"
    )
    filtered = QF.run_quality_filter(corpus)
    return QF.domain_rollup(filtered)


def _image_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal task stages over a deterministic synthetic media table
    (decode stubbed per TESTDATA constraints; plumbing is real)."""
    import ray.data as rd

    from dataprof_ray.stages import multimodal as MM

    ds = rd.from_arrow(MM.synthetic_media_table(64))
    dims = MM.decode_images(ds).to_pandas()
    feats = MM.extract_image_features(ds).to_pandas()
    return dims.merge(feats.drop(columns=["decode_ok"]), on="media_id")


def _approx_distinct_lineitem(sf_dir: str) -> pd.DataFrame:
    """HLL spill path: distinct counts over >10k-cardinality columns are
    approximate (flagged), exercising the exact->HLL regime distributed."""
    from dataprof_ray.pipelines.profile import collect_column_state

    coll = collect_column_state(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"]))
    rows = []
    for name in ("l_orderkey", "l_extendedprice"):
        st = coll.columns[name]
        rows.append({"column_name": name, "unique_count": st.unique_count(),
                     "is_approximate": st.unique_count_is_approximate()})
    return pd.DataFrame(rows)


def _hll_error_check(sf_dir: str) -> pd.DataFrame:
    """Oracle-anchored HLL check (companion to the rank-check pattern of
    ★approx_quantile_rank_check): the p=14 sketch estimate of each
    >10k-cardinality lineitem column must land within 3% (3.7 sigma) of
    the TRUE distinct count, which is computed distributedly — per-batch
    distinct values shuffle as 8-byte hashes into 64 coarse partitions,
    each partition counts its disjoint value set, counts sum. The HLL
    hash is fixed, so the achieved error is deterministic per dataset
    (measured 0.4-1.9% at the gate scales); the oracle pins within_bound
    TRUE, so an estimator regression hash-mismatches."""
    from dataprof_ray.pipelines.profile import collect_column_state

    cols = ["l_orderkey", "l_extendedprice"]
    ds = _read(sf_dir, "lineitem", columns=cols)
    coll = collect_column_state(ds)

    def distinct_parts(b: pa.Table) -> pa.Table:
        import polars as pl
        outs = {"col": [], "h": []}
        for ci, c in enumerate(cols):
            arr = b.column(c).combine_chunks()
            u = np.unique(
                pl.from_arrow(arr).hash(seed=0).to_numpy().astype(np.uint64))
            outs["col"].append(np.full(len(u), ci, np.int8))
            outs["h"].append(u)
        col = np.concatenate(outs["col"])
        h = np.concatenate(outs["h"])
        return pa.table({
            "col": pa.array(col, pa.int8()),
            "h": pa.array(h, pa.uint64()),
            "__part": pa.array((h % np.uint64(64)).astype(np.int32),
                               pa.int32()),
        })

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("col")["h"].nunique().reset_index(name="n")
        return g

    from dataprof_ray.pipelines.partitioning import arrow_out

    exact = (ds.map_batches(distinct_parts, batch_format="pyarrow")
             .groupby("__part")
             .map_groups(arrow_out(count_part), batch_format="pandas")
             .to_pandas().groupby("col")["n"].sum())
    rows = []
    for ci, c in enumerate(cols):
        est = coll.columns[c].unique_count()
        true = int(exact[ci])
        rows.append({"column_name": c,
                     "within_bound": abs(est - true) / true <= 0.03})
    return pd.DataFrame(rows)


def _profile_report_documents(sf_dir: str) -> pd.DataFrame:
    """Full ProfileReport (patterns + 7 quality dimensions) flattened to one
    row per column; report-level values (overall score + the seven
    dimension scores) repeat per row so the rows-only check pins every
    dimension, not just the weighted total."""
    from dataprof_ray.pipelines.profile import profile_dataset
    from dataprof_ray.report import quality_summary

    report = profile_dataset(_read(sf_dir, "documents"))
    score = report.quality_score()
    dims = quality_summary(report)["dimensions"]
    rows = []
    for p in report.column_profiles:
        row = {
            "column_name": p.name,
            "data_type": p.data_type,
            "total_count": p.total_count,
            "null_count": p.null_count,
            "unique_count": p.unique_count if p.unique_count is not None else -1,
            "n_patterns": len(p.patterns) if p.patterns is not None else -1,
            "overall_quality_score": round(score, 2) if score is not None else -1.0,
        }
        for d, v in sorted(dims.items()):
            row[f"score_{d}"] = round(v, 2) if v is not None else -1.0
        rows.append(row)
    return pd.DataFrame(rows)


def _corr_qty_disc_lineitem(sf_dir: str) -> pd.DataFrame:
    """Per-group Pearson correlation from exact integer partial sums
    (pipelines/aggregate.grouped_corr): corr(quantity, discount_e4) by
    return flag. Integer scaling makes every partial sum order-free, so
    the Ray reduction and the DuckDB oracle (same explicit formula over
    CAST-to-DOUBLE exact sums) agree bit-for-bit before ROUND."""
    from dataprof_ray.pipelines.aggregate import grouped_corr

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])

    def to_int(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "qty": _int_away(b.column("l_quantity"), factor=1.0),
            "disc_e4": _int_away(b.column("l_discount"), factor=10000.0),
        })

    out = grouped_corr(li.map_batches(to_int, batch_format="pyarrow"),
                       ["l_returnflag"], "qty", "disc_e4")
    return out.sort_values("l_returnflag").reset_index(drop=True)


def _entropy_event_types(sf_dir: str) -> pd.DataFrame:
    """Per-group Shannon entropy (base 2) of the event-type mix for 16
    user buckets — pipelines/aggregate.grouped_entropy vs DuckDB's
    entropy() aggregate."""
    from dataprof_ray.pipelines.aggregate import grouped_entropy

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def bucket(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("user_id")))
        u = b.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table({"bucket": pa.array(u % 16, pa.int64()),
                         "event_type": b.column("event_type")})

    out = grouped_entropy(ev.map_batches(bucket, batch_format="pyarrow"),
                          ["bucket"], "event_type")
    return out.sort_values("bucket").reset_index(drop=True)


def _fuzzy_name_pairs(sf_dir: str):
    """FastSS edit-distance self-join (pipelines/fuzzy.py): all customer
    pairs whose names are within Levenshtein distance 1, exact by
    deletion-neighborhood candidates + in-bucket verify, pinned against
    DuckDB's levenshtein() cross-join oracle."""
    from dataprof_ray.pipelines.fuzzy import fuzzy_pairs

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return fuzzy_pairs(cust, "c_name", "c_custkey", max_distance=1)


def _order_rank_ntile(sf_dir: str):
    """Distributed global ROW_NUMBER / NTILE / percent_rank over orders
    by (o_totalprice DESC, o_orderkey) — pipelines/ranking.global_rank:
    sketch splits -> exact split counts -> per-split local rank, no
    single-worker global sort."""
    from dataprof_ray.pipelines.ranking import global_rank

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return global_rank(orders, by="o_totalprice", tiebreak=["o_orderkey"],
                       descending=True, ntile=8, percent_col="pct",
                       dense_col="drnk", cume_col="cume")


def _mojibake_repair_documents(sf_dir: str):
    """Mojibake repair (functions/mojibake.py): plant the canonical
    UTF-8-as-cp1252 defect into the ASCII corpus deterministically
    ('spark' -> 'spÃ¤rk', i.e. 'spärk' mis-decoded), run the generic
    codec-round-trip repair, and emit per-doc (changed-flag, md5 of the
    repaired text) — the SQL oracle states the expected repaired text
    directly via replace()."""
    import hashlib

    from dataprof_ray.functions.mojibake import repair_mojibake

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        txt = pc.replace_substring(batch.column("text"), "spark", "spÃ¤rk")
        return batch.set_column(
            batch.schema.get_field_index("text"), "text", txt)

    repaired = repair_mojibake(
        docs.map_batches(plant, batch_format="pyarrow"))

    def digest(batch: pa.Table) -> pa.Table:
        md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
                for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "mojibake_fixed": batch.column("mojibake_fixed"),
            "text_md5": pa.array(md5s, pa.string()),
        })

    return repaired.map_batches(digest, batch_format="pyarrow")


def _rollup_sales_priority(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP from ONE distributed pass (aggregate.rollup_aggregate):
    finest-grain partial/combiner groupby once, coarser levels folded from
    the finest frame on the driver; grouping_id = SQL GROUPING() bitmask.
    Integer-cents sums keep the fold order-independent and exact."""
    from dataprof_ray.pipelines.aggregate import rollup_aggregate

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_orderstatus",
                            "o_totalprice"])

    def add_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "o_orderstatus": b.column("o_orderstatus"),
            "price_cents": _int_away(b.column("o_totalprice")),
        })

    df = rollup_aggregate(
        orders.map_batches(add_cents, batch_format="pyarrow"),
        ["o_orderpriority", "o_orderstatus"],
        [("cnt", None, "count"), ("sum_cents", "price_cents", "sum")],
    )
    df["sum_cents"] = df["sum_cents"].astype(np.int64)
    return df


def _cube_docs_lang_source(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE — all 2^n grouping sets from the same single scan."""
    from dataprof_ray.pipelines.aggregate import rollup_aggregate

    docs = _read(sf_dir, "documents",
                 columns=["lang", "source", "n_chars"])
    df = rollup_aggregate(
        docs, ["lang", "source"],
        [("cnt", None, "count"), ("sum_chars", "n_chars", "sum")],
        mode="cube",
    )
    df["sum_chars"] = df["sum_chars"].astype(np.int64)
    return df


_WINSOR_COLS = ("l_quantity", "l_extendedprice", "l_discount")


def _winsorized_lineitem(sf_dir: str) -> pd.DataFrame:
    """Winsorized (5%/95% clipped-tail) means via EXACT global quantiles
    at bounded memory (aggregate.exact_global_quantiles: sketch brackets
    each rank, one counting pass ships only the ~2*slack*n in-bracket
    values, type-7 reads its order stats from the slice — exactness never
    depends on sketch quality, only the pass count)."""
    from dataprof_ray.pipelines.aggregate import winsorized_stats

    return winsorized_stats(
        _read(sf_dir, "lineitem", columns=list(_WINSOR_COLS)),
        list(_WINSOR_COLS))


def _winsorized_sql() -> str:
    # CASE guard: DuckDB's GREATEST/LEAST IGNORE nulls, so a bare
    # AVG(LEAST(GREATEST(x, lo), hi)) silently turns every NULL x into
    # lo_cut; clipping must only see non-null values (measured divergence
    # -3.86 vs 0.26 on a 2.5%-null column).
    parts = []
    for c in _WINSOR_COLS:
        parts.append(
            f"SELECT '{c}' AS column_name, COUNT({c}) AS n, "
            f"ROUND(qq.lo, 4) AS lo_cut, ROUND(qq.hi, 4) AS hi_cut, "
            f"ROUND(AVG(CASE WHEN {c} IS NULL THEN NULL "
            f"ELSE LEAST(GREATEST({c}, qq.lo), qq.hi) END), 4) "
            f"AS mean_winsorized "
            f"FROM lineitem, (SELECT quantile_cont({c}, 0.05) AS lo, "
            f"quantile_cont({c}, 0.95) AS hi FROM lineitem) qq "
            f"GROUP BY qq.lo, qq.hi"
        )
    return " UNION ALL ".join(parts)


_EXACT_QS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def _exact_quantiles_price(sf_dir: str) -> pd.DataFrame:
    """Direct driver check of the bounded-memory exact rank selection:
    seven exact global quantiles of l_extendedprice, each bit-equal to
    QUANTILE_CONT before the shared 4-decimal rounding."""
    from dataprof_ray.pipelines.aggregate import (exact_global_quantiles,
                                                  round_away)

    res = exact_global_quantiles(
        _read(sf_dir, "lineitem", columns=["l_extendedprice"]),
        "l_extendedprice", list(_EXACT_QS))
    return pd.DataFrame({
        "q": [float(q) for q in _EXACT_QS],
        "value": [float(round_away(np.float64(res[q][0]), 4))
                  for q in _EXACT_QS],
        "n": np.int64(res[_EXACT_QS[0]][1]),
    })


def _exact_quantiles_sql() -> str:
    parts = []
    for q in _EXACT_QS:
        parts.append(
            f"SELECT CAST({q} AS DOUBLE) AS q, "
            f"ROUND(quantile_cont(l_extendedprice, {q}), 4) AS value, "
            f"COUNT(l_extendedprice) AS n FROM lineitem"
        )
    return " UNION ALL ".join(parts)


def _robust_outliers_lineitem(sf_dir: str) -> pd.DataFrame:
    """Median/MAD outlier fences (aggregate.robust_outlier_stats): two
    bracketed exact-quantile passes per column (median, then median of
    |x - median|) + one shared fence-count pass. DuckDB median()/mad()
    are bit-identical to type-7 at q=0.5 on doubles, so counts match
    exactly."""
    from dataprof_ray.pipelines.aggregate import robust_outlier_stats

    return robust_outlier_stats(
        _read(sf_dir, "lineitem", columns=list(_WINSOR_COLS)),
        list(_WINSOR_COLS))


def _robust_outliers_sql() -> str:
    # CAST the consistency constant: a bare 1.4826 literal is
    # DECIMAL(5,4) in DuckDB and decimal x decimal arithmetic would
    # diverge from the engine's float64 fence by ulps — enough to flip a
    # strict comparison on a fence-adjacent value.
    parts = []
    for c in _WINSOR_COLS:
        fence = ("CAST(3.0 AS DOUBLE) * CAST(1.4826 AS DOUBLE) * mm.d")
        parts.append(
            f"SELECT '{c}' AS column_name, COUNT({c}) AS n, "
            f"ROUND(mm.med, 4) AS median, ROUND(mm.d, 4) AS mad, "
            f"ROUND(mm.med - {fence}, 4) AS lo_fence, "
            f"ROUND(mm.med + {fence}, 4) AS hi_fence, "
            f"COUNT(*) FILTER (WHERE {c} < mm.med - {fence} "
            f"OR {c} > mm.med + {fence}) AS n_outliers "
            f"FROM lineitem, (SELECT median({c}) AS med, mad({c}) AS d "
            f"FROM lineitem) mm GROUP BY mm.med, mm.d"
        )
    return " UNION ALL ".join(parts)


def _grouping_sets_orders(sf_dir: str) -> pd.DataFrame:
    """Explicit GROUPING SETS ((priority), (status)) — two independent
    1-D summaries from the same single finest-grain scan; neither set is
    a rollup prefix of the other."""
    from dataprof_ray.pipelines.aggregate import rollup_aggregate

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_orderstatus"])
    return rollup_aggregate(
        orders, ["o_orderpriority", "o_orderstatus"],
        [("cnt", None, "count")],
        grouping_sets=[("o_orderpriority",), ("o_orderstatus",)],
    )


def _hourly_active_users(sf_dir: str):
    """Windowed COUNT(DISTINCT): distinct users per clock hour. The
    tumbling window is a zero-shuffle map (truncate ts); the distinct
    count rides group_distinct's pair exchange (distinct (hour, hash)
    pairs move, never raw events)."""
    from dataprof_ray.pipelines.aggregate import group_distinct

    ev = _read(sf_dir, "events", columns=["ts", "user_id"])

    def add_hour(b: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(b.column("ts"), unit="hour")
        return pa.table({"hour": hour, "user_id": b.column("user_id")})

    return group_distinct(
        ev.map_batches(add_hour, batch_format="pyarrow"),
        ["hour"], "user_id")


def _mode_lang_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source modal language (aggregate.grouped_mode): the shuffle
    moves one row per distinct (source, lang) pair; deterministic
    (count DESC, lang ASC) tie-break mirrored in the oracle's window."""
    from dataprof_ray.pipelines.aggregate import grouped_mode

    return grouped_mode(
        _read(sf_dir, "documents", columns=["source", "lang"]),
        ["source"], "lang")


def _next_event_lead(sf_dir: str):
    """LEAD() as a distributed operator (window.lead_delta): per user,
    each event's NEXT same-user timestamp and the exact microsecond
    time-to-next-event (dwell/abandonment signal) — the mirror of
    ★event_gaps_users' LAG."""
    from dataprof_ray.pipelines.window import lead_delta

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def drop_nulls(b: pa.Table) -> pa.Table:
        return b.filter(pc.and_(pc.is_valid(b.column("user_id")),
                                pc.is_valid(b.column("ts"))))

    return lead_delta(ev.map_batches(drop_nulls, batch_format="pyarrow"),
                      ts_col="ts", key="user_id", order_extra=["event_id"])


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # oracle-backed (driver hash-checks its window against
        # oracle_sql). Round-5 rotation (VERDICT r4 #1): the 14
        # never-driver-checked oracle queries move INTO the first-50
        # window; 16 queries green in >=2 prior rounds move after it.
        "profile_numeric_lineitem": _profile_numeric_lineitem,
        "distinct_counts_documents": _distinct_counts_documents,
        "incremental_dedup_documents": _incremental_dedup_documents,
        "topk_cosine": _topk_cosine,
        "repetition_stats_documents": _repetition_stats_documents,
        "contamination_documents": _contamination_documents,
        "latest_event_per_user": _latest_event_per_user,
        "views_near_clicks": _views_near_clicks,
        "duplicate_spans_documents": _duplicate_spans_documents,
        "line_dedup_documents": _line_dedup_documents,
        "customers_urgent_orders": _customers_urgent_orders,
        "customers_no_urgent_orders": _customers_no_urgent_orders,
        "event_gaps_users": _event_gaps_users,
        "vocab_drift_documents": _vocab_drift_documents,
        "user_click_purchase_counts": _user_click_purchase_counts,
        "jaccard_pairs_exact": _jaccard_pairs_exact,
        "hll_error_check": _hll_error_check,
        "snapshot_diff_documents": _snapshot_diff_documents,
        "chunk_documents": _chunk_documents,
        "funnel_events": _funnel_events,
        "within_doc_line_dedup": _within_doc_line_dedup,
        "rolling_user_events": _rolling_user_events,
        "weekday_type_pivot": _weekday_type_pivot,
        "top3_orders_per_priority": _top3_orders_per_priority,
        "running_user_totals": _running_user_totals,
        "row_duplicates_documents": _row_duplicates_documents,
        "sales_by_segment": _sales_by_segment,
        "revenue_by_priority": _revenue_by_priority,
        "session_events": _session_events,
        "asof_click_view": _asof_click_view,
        "revenue_by_region": _revenue_by_region,
        "drift_price_bins": _drift_price_bins,
        "parts_by_brand": _parts_by_brand,
        "quantiles_lineitem": _quantiles_lineitem,
        # -- never driver-checked before round 5:
        "approx_quantile_rank_check": _approx_quantile_rank_check,
        "key_skew_orders": _key_skew_orders,
        "normalize_text_documents": _normalize_text_documents,
        "source_mixture_documents": _source_mixture_documents,
        "normalized_dedup_documents": _normalized_dedup_documents,
        "distinct_customers_by_priority": _distinct_customers_by_priority,
        "paragraph_dedup_documents": _paragraph_dedup_documents,
        "cap_per_source_documents": _cap_per_source_documents,
        "budget_select_documents": _budget_select_documents,
        "dsir_bucket_counts": _dsir_bucket_counts,
        "token_budget_by_source": _token_budget_by_source,
        "pack_sequences_documents": _pack_sequences_documents,
        "global_shuffle_documents": _global_shuffle_documents,
        "temperature_mixture_documents": _temperature_mixture_documents,
        # -- new in round 5:
        "skewed_join_events": _skewed_join_events,
        "audits_summary": _audits_summary,
        # -- round-5 additions (oracle-backed; outside the 50-slot
        #    window, parity-asserted by the pytest oracle harness):
        "corr_qty_disc_lineitem": _corr_qty_disc_lineitem,
        "entropy_event_types": _entropy_event_types,
        "fuzzy_name_pairs": _fuzzy_name_pairs,
        "order_rank_ntile": _order_rank_ntile,
        "mojibake_repair_documents": _mojibake_repair_documents,
        "rollup_sales_priority": _rollup_sales_priority,
        "cube_docs_lang_source": _cube_docs_lang_source,
        "mode_lang_by_source": _mode_lang_by_source,
        "next_event_lead": _next_event_lead,
        "grouping_sets_orders": _grouping_sets_orders,
        "hourly_active_users": _hourly_active_users,
        "winsorized_lineitem": _winsorized_lineitem,
        "robust_outliers_lineitem": _robust_outliers_lineitem,
        "exact_quantiles_price": _exact_quantiles_price,
        "top_terms_documents": _top_terms_documents,
        "top_bigrams_documents": _top_bigrams_documents,
        "doc_frequency_documents": _doc_frequency_documents,
        "gopher_signals_documents": _gopher_signals_documents,
        "hash_split_documents": _hash_split_documents,
        "c4_line_stats_documents": _c4_line_stats_documents,
        "tfidf_top_terms_documents": _tfidf_top_terms_documents,
        "url_features_documents": _url_features_documents,
        "doc_quality_documents": _doc_quality_documents,
        "embedding_stats": _embedding_stats,
        "langid_documents": _langid_documents,
        # -- multi-round-green, rotated out of the window:
        "q1_pricing": _q1_pricing,
        "null_stats_events": _null_stats_events,
        "value_counts_source": _value_counts_source,
        "events_by_type": _events_by_type,
        "orders_monthly": _orders_monthly,
        "filter_highvalue": _filter_highvalue,
        "token_stats_documents": _token_stats_documents,
        "char_classes_documents": _char_classes_documents,
        "dedup_exact_documents": _dedup_exact_documents,
        "fingerprint_md5": _fingerprint_md5,
        "stratified_customer": _stratified_customer,
        "systematic_orders": _systematic_orders,
        "tumbling_events": _tumbling_events,
        "hopping_events": _hopping_events,
        "weekday_orders": _weekday_orders,
        "top_expensive_orders": _top_expensive_orders,
        # no-oracle (driver rows-only check; pinned by goldens/self-audits):
        "substring_dedup_documents": _substring_dedup_documents,
        "approx_quantiles_audit": _approx_quantiles_audit,
        "url_dedup_documents": _url_dedup_documents,
        "quality_filter_documents": _quality_filter_documents,
        "minhash_duplicate_groups": _minhash_duplicate_groups,
        "ngram_jaccard_pairs": _ngram_jaccard_pairs,
        "simhash_signatures": _simhash_signatures,
        "embedding_neardup": _embedding_neardup,
        "embedding_neardup_recall": _embedding_neardup_recall,
        "embedding_neardup_groups": _embedding_neardup_groups,
        "ivf_topk": _ivf_topk,
        "ivf_recall": _ivf_recall,
        "profile_report_documents": _profile_report_documents,
        "domain_rollup": _domain_rollup,
        "image_features": _image_features,
        "approx_distinct_lineitem": _approx_distinct_lineitem,
        "corpus_ppl_documents": _corpus_ppl_documents,
        "ppl_buckets_documents": _ppl_buckets_documents,
        "curated_split_counts": _curated_split_counts,
        "quantization_audit": _quantization_audit,
        "dsir_weights_documents": _dsir_weights_documents,
        "dsir_top_documents": _dsir_top_documents,
        "semantic_dedup_embeddings": _semantic_dedup_embeddings,
        "pca_audit_embeddings": _pca_audit_embeddings,
        "contamination_bloom_audit": _contamination_bloom_audit,
        "quality_classifier_audit": _quality_classifier_audit,
        "compression_ratio_documents": _compression_ratio_documents,
        "neardup_vs_prior_audit": _neardup_vs_prior_audit,
        "neardup_vs_prior_verified": _neardup_vs_prior_verified,
        "heavy_hitters_cms_audit": _heavy_hitters_cms_audit,
        "packed_sequences_documents": _packed_sequences_documents,
        "packing_efficiency_audit": _packing_efficiency_audit,
        "jaccard_lsh_recall_audit": _jaccard_lsh_recall_audit,
    }


# --------------------------------------------------------------- oracles


def _profile_numeric_sql() -> str:
    parts = []
    for c in _LINEITEM_NUMERIC:
        parts.append(
            f"SELECT '{c}' AS column_name, COUNT(*) AS total_count, "
            f"COUNT(*) - COUNT({c}) AS null_count, "
            f"MIN({c})::DOUBLE AS \"min\", MAX({c})::DOUBLE AS \"max\", "
            f"ROUND(AVG({c}), 4) AS mean, ROUND(STDDEV_SAMP({c}), 4) AS std_dev "
            f"FROM lineitem"
        )
    return " UNION ALL ".join(parts)


def _null_stats_sql() -> str:
    parts = []
    for c, stringy in _EVENTS_COLS:
        null_expr = (
            f"COUNT(*) FILTER (WHERE {_NULL_LIKE.format(c=c)})"
            if stringy else f"COUNT(*) - COUNT({c})"
        )
        parts.append(
            f"SELECT '{c}' AS column_name, COUNT(*) AS total_count, "
            f"{null_expr} AS null_count FROM events"
        )
    return " UNION ALL ".join(parts)


def _langid_sql() -> str:
    """DuckDB replica of LangIdModel: stopword-hit counting with the same
    (hits DESC, lang ASC) argmax tie-break and hits/total confidence. The
    word regex is [A-Za-z]+ — equal to the model's unicode \\w-class on
    this corpus, which is pure ASCII (verified; a non-ASCII corpus would
    need the model's exact class)."""
    from dataprof_ray.functions.docquality import _STOPWORDS

    values = ", ".join(
        f"('{lang}', '{w}')"
        for lang in sorted(_STOPWORDS) for w in sorted(_STOPWORDS[lang])
    )
    return (
        "WITH toks AS (SELECT doc_id, "
        "LOWER(UNNEST(REGEXP_EXTRACT_ALL(text, '[A-Za-z]+'))) AS w "
        "FROM documents), "
        f"sw(lang, w) AS (SELECT * FROM (VALUES {values})), "
        "hits AS (SELECT t.doc_id, s.lang, COUNT(*) AS h "
        "FROM toks t JOIN sw s ON t.w = s.w GROUP BY t.doc_id, s.lang), "
        "tot AS (SELECT doc_id, SUM(h) AS total FROM hits GROUP BY doc_id), "
        "best AS (SELECT doc_id, lang, h, ROW_NUMBER() OVER "
        "(PARTITION BY doc_id ORDER BY h DESC, lang) AS rn FROM hits) "
        "SELECT d.doc_id, COALESCE(b.lang, 'und') AS langid, "
        "CASE WHEN b.lang IS NULL THEN 0.0 ELSE b.h / t.total END AS langid_conf "
        "FROM documents d "
        "LEFT JOIN (SELECT * FROM best WHERE rn = 1) b ON d.doc_id = b.doc_id "
        "LEFT JOIN tot t ON d.doc_id = t.doc_id"
    )


def _distinct_counts_sql() -> str:
    parts = []
    for c, stringy in _DOC_COLS:
        expr = (
            f"COUNT(DISTINCT CASE WHEN {_NULL_LIKE.format(c=c)} THEN NULL ELSE {c} END)"
            if stringy else f"COUNT(DISTINCT {c})"
        )
        parts.append(f"SELECT '{c}' AS column_name, {expr} AS unique_count FROM documents")
    return " UNION ALL ".join(parts)


def _hash_split_documents(sf_dir: str):
    from dataprof_ray.pipelines.sampling import hash_split

    return hash_split(_read(sf_dir, "documents", columns=["doc_id"]))


def _paragraph_dedup_documents(sf_dir: str):
    from dataprof_ray.pipelines.linededup import paragraph_dedup

    return paragraph_dedup(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        include_text=False)


def _quantization_audit(sf_dir: str) -> pd.DataFrame:
    """Self-measuring int8-quantization audit: recall@10 of cosine top-k
    over quantized vectors vs the in-repo float brute force, plus the max
    per-element reconstruction error in units of each vector's scale
    (bounded by 0.5 for round-to-nearest by construction)."""
    from dataprof_ray.pipelines.similarity import (_to_matrix,
                                                   brute_force_topk,
                                                   quantize_embeddings,
                                                   quantized_topk)

    queries, qids = _load_queries(sf_dir)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact = brute_force_topk(ds, queries, k=10)
    approx = quantized_topk(quantize_embeddings(ds), queries, k=10)
    recalls = []
    for qi in range(len(qids)):
        want = set(exact[exact.query_id == qi]["vec_id"])
        got = set(approx[approx.query_id == qi]["vec_id"])
        recalls.append(len(want & got) / max(len(want), 1))

    # reconstruction error measured DISTRIBUTED: quantize-and-compare in
    # one pass per batch, driver folds one scalar per batch (never the
    # vectors — the driver-never-sees-the-data contract)
    def err_stage(b: pa.Table) -> pa.Table:
        m = _to_matrix(b.column("embedding"))
        if not len(m):
            return pa.table({"e": pa.array([], pa.float64())})
        amax = np.abs(m).max(axis=1)
        scale = amax / 127.0
        safe = np.where(scale > 0, scale, 1.0)
        q = np.clip(np.round(m / safe[:, None]), -127, 127)
        err = np.abs(q * safe[:, None] - m) / safe[:, None]
        err[scale == 0] = 0.0
        return pa.table({"e": pa.array([float(err.max())], pa.float64())})

    errs = ds.map_batches(err_stage, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    max_err = float(errs["e"].max()) if len(errs) else 0.0
    return pd.DataFrame([{
        "n_queries": len(qids), "k": 10,
        "mean_recall": float(np.mean(recalls)),
        "min_recall": float(np.min(recalls)),
        "max_unit_err": max_err,
    }])


def _token_budget_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source token budget (docs, whitespace tokens, chars) — the
    number every mixture/selection decision starts from. Pre-aggregated
    per batch; the groupby folds one tiny row per (batch, source)."""
    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.textstats import token_count

    def stage(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = np.fromiter(
            (token_count(t) for t in b.column("text").to_pylist()),
            dtype=np.int64, count=b.num_rows)
        return pa.table({
            "source": b.column("source"),
            "n_tokens": pa.array(toks, pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(b.column("text")), pa.int64()),
        })

    ds = _read(sf_dir, "documents", columns=["source", "text"]) \
        .map_batches(stage, batch_format="pyarrow")
    return preagg_groupby(ds, ["source"], [
        ("n_docs", None, "count"),
        ("sum_tokens", "n_tokens", "sum"),
        ("sum_chars", "n_chars", "sum"),
    ])


def _ppl_buckets_documents(sf_dir: str):
    """CCNet-style head/middle/tail perplexity bucketing under the
    corpus-trained trigram LM; rows-only (the LM is not SQL-expressible),
    bucket-evenness and monotonicity pinned in tests."""
    from dataprof_ray.pipelines.lm import perplexity_buckets

    return perplexity_buckets(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), buckets=3)


def _curated_split_counts(sf_dir: str) -> pd.DataFrame:
    """Flagship COMPOSITION end-to-end: quality filter + scrub -> line
    dedup -> normalized dedup -> deterministic split -> hive-partitioned
    export (to /tmp), reported as per-split row counts. Deterministic
    (every stage is a pure function of the corpus), exercised in depth by
    tests/test_curate.py; rows-only here because the pipeline's value is
    the written corpus, not a relational result."""
    import tempfile

    import ray.data as rd

    from dataprof_ray.pipelines.curate import curate_corpus

    corpus = _read(sf_dir, "documents").map_batches(
        _docs_as_corpus_stage, batch_format="pyarrow")
    with tempfile.TemporaryDirectory(prefix="curate_") as tmp:
        out = curate_corpus(corpus, tmp)
        back = rd.read_parquet(out).to_pandas()
    counts = back.groupby("split", as_index=False).size() \
        .rename(columns={"size": "n_docs"}).sort_values("split") \
        .reset_index(drop=True)
    return counts


def _distinct_customers_by_priority(sf_dir: str):
    from dataprof_ray.pipelines.aggregate import group_distinct

    out = group_distinct(
        _read(sf_dir, "orders", columns=["o_orderpriority", "o_custkey"]),
        ["o_orderpriority"], "o_custkey")
    return out.to_pandas().rename(columns={"distinct_count":
                                           "distinct_customers"})


def _normalized_dedup_documents(sf_dir: str):
    from dataprof_ray.pipelines.dedup import normalized_dedup

    return normalized_dedup(_read(sf_dir, "documents"))


_MIX_RATES = {"src0": 1.0, "src1": 0.5, "src2": 0.25}
_MIX_DEFAULT = 0.1


def _source_mixture_documents(sf_dir: str):
    from dataprof_ray.pipelines.sampling import weighted_source_sample

    return weighted_source_sample(
        _read(sf_dir, "documents", columns=["doc_id", "source"]),
        rates=_MIX_RATES, default_rate=_MIX_DEFAULT)


def _source_mixture_sql() -> str:
    from dataprof_ray.pipelines.sampling import rate_bound

    case = "CASE source"
    for s, r in _MIX_RATES.items():
        case += f" WHEN '{s}' THEN '{rate_bound(round(r * 10 ** 6))}'"
    case += f" ELSE '{rate_bound(round(_MIX_DEFAULT * 10 ** 6))}' END"
    return ("SELECT doc_id, source FROM documents "
            f"WHERE MD5(CAST(doc_id AS VARCHAR)) < {case}")


def _normalize_text_documents(sf_dir: str):
    from dataprof_ray.pipelines import textstats as T

    return T.normalize_text(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _key_skew_orders(sf_dir: str):
    from dataprof_ray.pipelines.aggregate import key_skew_stats

    return key_skew_stats(
        _read(sf_dir, "orders", columns=["o_custkey"]), ["o_custkey"],
        top_n=10)


def _corpus_ppl_documents(sf_dir: str):
    """Per-doc perplexity under a trigram LM TRAINED ON THIS CORPUS
    (distributed counting; see pipelines/lm.py). Non-SQL-expressible
    (iterative model build); pinned to the single-process training oracle
    by tests/test_lm.py::test_query_matches_single_process_training."""
    from dataprof_ray.pipelines.lm import corpus_perplexity

    return corpus_perplexity(
        _read(sf_dir, "documents", columns=["doc_id", "text"]))


def _url_dedup_documents(sf_dir: str):
    """Crawl-level URL dedup: consecutive doc pairs get the SAME page in
    different surface forms (www prefix, tracking params, fragment,
    trailing slash), so url_dedup must halve the corpus keeping the even
    (smaller) ids. Deterministic -> pinned golden; the pair structure is
    additionally asserted in tests/test_entry_contract.py."""
    from dataprof_ray.pipelines.quality_filter import url_dedup

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        urls = []
        for i in ids:
            page = i // 2
            if i % 2 == 0:
                urls.append(f"https://site{page % 7}.com/p/{page}?x=1")
            else:
                urls.append(f"HTTPS://WWW.site{page % 7}.com/p/{page}/"
                            f"?utm_source=t&x=1#frag")
        return pa.table({"doc_id": b.column("doc_id"),
                         "url": pa.array(urls, pa.string())})

    ds = _read(sf_dir, "documents", columns=["doc_id"])         .map_batches(synth, batch_format="pyarrow")
    return url_dedup(ds)


def _url_features_documents(sf_dir: str):
    """Synthesize a deterministic URL per document (scheme / eTLD / path
    depth / query params all vary with doc_id so the parser is exercised),
    then run the url_features operator; the oracle constructs the same URLs
    and states their expected decomposition directly."""
    from dataprof_ray.pipelines.quality_filter import url_features

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        srcs = b.column("source").to_pylist()
        urls = []
        for i, s in zip(ids, srcs):
            scheme = "http" if i % 5 == 0 else "https"
            suffix = "co.uk" if i % 3 == 0 else "com"
            path = f"/a/b/doc/{i}" if i % 2 == 0 else f"/doc/{i}"
            q = "?ref=abc&src=feed" if i % 4 == 0 else ""
            urls.append(f"{scheme}://{s}.example.{suffix}{path}{q}")
        return pa.table({"doc_id": b.column("doc_id"),
                         "url": pa.array(urls, pa.string())})

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"]) \
        .map_batches(synth, batch_format="pyarrow")
    return url_features(ds)


def _url_features_sql() -> str:
    return (
        "SELECT doc_id, "
        "CASE WHEN doc_id % 5 = 0 THEN 'http' ELSE 'https' END AS scheme, "
        "source || '.example.' || "
        "CASE WHEN doc_id % 3 = 0 THEN 'co.uk' ELSE 'com' END AS host, "
        "'example.' || CASE WHEN doc_id % 3 = 0 THEN 'co.uk' ELSE 'com' END "
        "AS domain, "
        "CASE WHEN doc_id % 2 = 0 THEN 4 ELSE 2 END AS path_depth, "
        "CASE WHEN doc_id % 4 = 0 THEN 2 ELSE 0 END AS n_query_params, "
        "CASE WHEN doc_id % 5 = 0 THEN 0 ELSE 1 END AS is_https "
        "FROM documents"
    )


def _tfidf_top_terms_documents(sf_dir: str):
    from dataprof_ray.pipelines import textstats as T

    return T.tfidf_top_terms(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        k=3, vocab_size=1000)


def _tfidf_top_terms_sql() -> str:
    return (
        "WITH n AS (SELECT COUNT(*) AS n_docs FROM documents), "
        "tok AS (SELECT doc_id, LOWER(UNNEST(REGEXP_SPLIT_TO_ARRAY("
        "TRIM(text, ' \t\n\r'), '\\s+'))) AS term FROM documents "
        "WHERE TRIM(text, ' \t\n\r') != ''), "
        "df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok "
        "GROUP BY term), "
        "vocab AS (SELECT term, "
        "ROUND(LN((n_docs + 1.0) / (df + 1.0)) + 1.0, 6) AS idf "
        "FROM df, n ORDER BY df DESC, term LIMIT 1000), "
        "tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok "
        "GROUP BY doc_id, term), "
        "s AS (SELECT tf.doc_id, tf.term, tf.tf, tf.tf * v.idf AS raw "
        "FROM tf JOIN vocab v USING (term)), "
        "r AS (SELECT doc_id, term, tf, ROUND(raw, 4) AS tfidf, "
        "ROW_NUMBER() OVER (PARTITION BY doc_id "
        "ORDER BY raw DESC, term) AS rn FROM s) "
        "SELECT doc_id, term, tf, tfidf FROM r WHERE rn <= 3"
    )


def _c4_line_stats_documents(sf_dir: str):
    from dataprof_ray.pipelines.linededup import c4_line_stats

    return c4_line_stats(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _c4_line_stats_sql() -> str:
    wc = "LEN(REGEXP_SPLIT_TO_ARRAY(s, '\\s+'))"
    punct = "('.', '!', '?', '\"')"
    return (
        "WITH W AS (SELECT ' ' || CHR(9) || CHR(13) || CHR(10) || CHR(11) "
        "|| CHR(12) AS ws), "
        "d AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
        "L AS (SELECT doc_id, UNNEST(STRING_SPLIT(text, CHR(10))) AS ln "
        "FROM d), "
        "C AS (SELECT doc_id, TRIM(ln, ws) AS s FROM L, W), "
        "A AS (SELECT doc_id, COUNT(*) AS n_lines, "
        "COUNT(*) FILTER (WHERE s = '') AS n_blank, "
        f"COUNT(*) FILTER (WHERE s != '' AND {wc} < 5) AS n_short, "
        f"COUNT(*) FILTER (WHERE s != '' AND {wc} >= 5 "
        f"AND RIGHT(s, 1) NOT IN {punct}) AS n_nopunct, "
        f"COUNT(*) FILTER (WHERE s != '' AND {wc} >= 5 "
        f"AND RIGHT(s, 1) IN {punct}) AS n_kept "
        "FROM C GROUP BY doc_id) "
        "SELECT d.doc_id, A.n_lines, A.n_blank, A.n_short, A.n_nopunct, "
        "A.n_kept, "
        "CASE WHEN POSITION('{' IN d.text) > 0 THEN 1 ELSE 0 END AS has_brace, "
        "CASE WHEN LOWER(d.text) LIKE '%lorem ipsum%' THEN 1 ELSE 0 END "
        "AS has_lorem "
        "FROM d JOIN A ON d.doc_id = A.doc_id"
    )


def _hash_split_sql() -> str:
    """CASE over the same exact-integer md5-hex boundaries the Ray side
    computes (sampling.split_boundaries) — string comparison of fixed-width
    lowercase hex == numeric comparison."""
    from dataprof_ray.pipelines.sampling import split_boundaries

    bounds = split_boundaries({"train": 0.9, "val": 0.05, "test": 0.05})
    case = "CASE"
    for name, b in bounds[:-1]:
        case += f" WHEN MD5(CAST(doc_id AS VARCHAR)) < '{b}' THEN '{name}'"
    case += f" ELSE '{bounds[-1][0]}' END"
    return f"SELECT doc_id, {case} AS split FROM documents"


def _gopher_signals_sql() -> str:
    """DuckDB replica of docquality.doc_metrics' Gopher-style signals.
    Token = \\s+ split of trimmed text (the repo-wide pinned definition);
    lines split on \\n, non-blank after strip; the symbol class, bullet
    prefixes, ellipsis suffix, stopword table and boilerplate markers
    mirror functions/docquality.py exactly (ASCII corpus — verified for
    the langid oracle — so [A-Za-z] equals the unicode letter class)."""
    from dataprof_ray.functions.docquality import (
        _BOILERPLATE_MARKERS, _STOPWORDS)

    sw = ", ".join(f"('{w}')" for w in sorted(_STOPWORDS["en"]))
    boiler = " OR ".join(
        f"LOWER(d.text) LIKE '%{m}%'" for m in _BOILERPLATE_MARKERS)
    # RE2 char class for docquality._SYMBOL_RE: [#<>{}\[\]\\^~|`$%&@+=_]
    sym_class = "[#<>{}\\[\\]\\\\^~|`$%&@+=_]"
    return (
        "WITH W AS (SELECT ' ' || CHR(9) || CHR(13) || CHR(10) || CHR(11) "
        "|| CHR(12) AS ws), "
        "d AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents), "
        f"sw(w) AS (SELECT * FROM (VALUES {sw})), "
        "tok AS (SELECT doc_id, UNNEST(REGEXP_SPLIT_TO_ARRAY("
        "TRIM(text, ws), '\\s+')) AS w FROM d, W WHERE TRIM(text, ws) != ''), "
        "tw AS (SELECT doc_id, COUNT(*) AS n_words, "
        "COUNT(*) FILTER (WHERE REGEXP_MATCHES(w, '[A-Za-z]')) AS alpha_words, "
        "COUNT(*) FILTER (WHERE LOWER(w) IN (SELECT w FROM sw)) AS stop_cnt "
        "FROM tok GROUP BY doc_id), "
        "ln AS (SELECT doc_id, UNNEST(STRING_SPLIT(text, CHR(10))) AS ln "
        "FROM d), "
        "nb AS (SELECT doc_id, ln FROM ln, W WHERE TRIM(ln, ws) != ''), "
        "ls AS (SELECT doc_id, COUNT(*) AS n_lines, "
        "COUNT(*) - COUNT(DISTINCT ln) AS n_dup, "
        "COUNT(*) FILTER (WHERE LEFT(LTRIM(ln, ws), 1) IN "
        "('-', '*', '•', '·')) AS n_bullet, "
        "COUNT(*) FILTER (WHERE RIGHT(RTRIM(ln, ws), 3) = '...') AS n_ell "
        "FROM nb, W GROUP BY doc_id) "
        "SELECT d.doc_id, COALESCE(tw.n_words, 0) AS n_words, "
        "COALESCE(ROUND(LENGTH(REGEXP_REPLACE(d.text, '\\s', '', 'g')) "
        "* 1.0 / tw.n_words, 4), 0.0) AS mean_word_len, "
        "CASE WHEN LENGTH(d.text) = 0 THEN 0.0 ELSE "
        f"ROUND(LEN(REGEXP_EXTRACT_ALL(d.text, '{sym_class}')) * 1.0 "
        "/ LENGTH(d.text), 4) END AS symbol_ratio, "
        "COALESCE(ROUND(tw.alpha_words * 1.0 / tw.n_words, 4), 0.0) "
        "AS alpha_word_ratio, "
        "COALESCE(tw.stop_cnt, 0) AS stopword_count, "
        "COALESCE(ROUND(ls.n_bullet * 1.0 / ls.n_lines, 4), 0.0) "
        "AS bullet_line_frac, "
        "COALESCE(ROUND(ls.n_ell * 1.0 / ls.n_lines, 4), 0.0) "
        "AS ellipsis_line_frac, "
        "COALESCE(ROUND(ls.n_dup * 1.0 / ls.n_lines, 4), 0.0) "
        "AS duplicate_line_frac, "
        f"CASE WHEN {boiler} THEN 1 ELSE 0 END AS has_boilerplate "
        "FROM d LEFT JOIN tw ON d.doc_id = tw.doc_id "
        "LEFT JOIN ls ON d.doc_id = ls.doc_id"
    )


def oracle_sql() -> dict[str, str]:
    # Whitespace convention, shared by every text oracle: SQL splits with
    # RE2 '\\s+' and trims ' \\t\\n\\r', while the python side splits on
    # str.split() whitespace (adds \\x0b\\x0c\\x85\\xa0 + unicode Zs).
    # They agree on every corpus the driver runs (the generators emit no
    # exotic whitespace); the operator-level unicode contracts are pinned
    # separately by the adversarial parity tests in pytest.
    return {
        "q1_pricing": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(SUM(l_quantity) AS BIGINT) AS sum_qty, "
            "CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_cents, "
            "CAST(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS sum_disc_e4, "
            "COUNT(*) AS count_order, "
            "ROUND(SUM(l_quantity) / COUNT(*), 4) AS avg_qty, "
            "ROUND(SUM(l_discount) / COUNT(*), 4) AS avg_disc "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "profile_numeric_lineitem": _profile_numeric_sql(),
        "null_stats_events": _null_stats_sql(),
        "distinct_counts_documents": _distinct_counts_sql(),
        "langid_documents": _langid_sql(),
        "value_counts_source": (
            "SELECT source, COUNT(*) AS cnt FROM documents "
            "GROUP BY source ORDER BY cnt DESC, source LIMIT 10"
        ),
        "events_by_type": (
            "SELECT event_type, COUNT(*) AS cnt, ROUND(SUM(value), 2) AS sum_value, "
            "MIN(value) AS min_value, MAX(value) AS max_value, "
            "ROUND(SUM(value) / COUNT(*), 4) AS avg_value "
            "FROM events GROUP BY event_type"
        ),
        "orders_monthly": (
            "SELECT YEAR(o_orderdate) AS y, MONTH(o_orderdate) AS m, "
            "COUNT(*) AS cnt, "
            "CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents "
            "FROM orders GROUP BY 1, 2"
        ),
        "filter_highvalue": (
            "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
            "FROM lineitem WHERE l_quantity >= 45 AND l_discount < 0.05"
        ),
        "token_stats_documents": (
            "SELECT doc_id, LENGTH(text) AS n_chars, "
            "CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0 "
            "ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')) END AS n_tokens, "
            "LEN(REGEXP_EXTRACT_ALL(text, '[A-Za-z]+|[0-9]|[^\\sA-Za-z0-9]')) AS n_subwords "
            "FROM documents"
        ),
        "char_classes_documents": (
            "SELECT doc_id, LENGTH(text) AS n_chars, "
            "LEN(REGEXP_EXTRACT_ALL(text, '[A-Z]')) AS n_upper, "
            "LEN(REGEXP_EXTRACT_ALL(text, '[0-9]')) AS n_digit, "
            "LEN(REGEXP_EXTRACT_ALL(text, '[A-Za-z]')) AS n_alpha, "
            "LEN(REGEXP_EXTRACT_ALL(text, '\\s')) AS n_space "
            "FROM documents"
        ),
        "dedup_exact_documents": (
            "SELECT * FROM documents "
            "WHERE doc_id IN (SELECT MIN(doc_id) FROM documents GROUP BY text)"
        ),
        "temperature_mixture_documents": (
            "WITH c AS (SELECT source, COUNT(*) AS n_docs FROM documents "
            "GROUP BY source), t AS (SELECT SUM(SQRT(n_docs)) AS z, "
            "SUM(n_docs) AS tot FROM c) "
            "SELECT source, CAST(n_docs AS BIGINT) AS n_docs, "
            "ROUND(LEAST(1.0, 0.5 * tot * SQRT(n_docs) / z / n_docs), 6) AS rate "
            "FROM c, t"
        ),
        "skewed_join_events": (
            "WITH ev AS (SELECT CASE WHEN user_id % 5 < 2 THEN 7 "
            "ELSE user_id END AS skew_uid, "
            "CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events) "
            "SELECT c_mktsegment, COUNT(*) AS n_events, "
            "CAST(SUM(cents) AS BIGINT) AS sum_cents "
            "FROM ev JOIN customer ON skew_uid = c_custkey "
            "GROUP BY c_mktsegment ORDER BY c_mktsegment"
        ),
        "audits_summary": (
            # constant truth table (the approx_quantile_rank_check
            # pattern): Ray MEASURES each audit's metric distributedly and
            # reduces it to passed per the pytest-pinned bound; the oracle
            # pins that every audit passes
            "SELECT audit, passed FROM (VALUES "
            "('approx_quantiles_audit', TRUE), "
            "('contamination_bloom_audit', TRUE), "
            "('embedding_neardup_recall', TRUE), "
            "('heavy_hitters_cms_audit', TRUE), "
            "('ivf_recall', TRUE), "
            "('jaccard_lsh_recall_audit', TRUE), "
            "('neardup_vs_prior_audit', TRUE), "
            "('packing_efficiency_audit', TRUE), "
            "('pca_audit_embeddings', TRUE), "
            "('quality_classifier_audit', TRUE), "
            "('quantization_audit', TRUE)"
            ") AS t(audit, passed) ORDER BY audit"
        ),
        "corr_qty_disc_lineitem": (
            # the explicit corr formula over CAST-to-DOUBLE exact integer
            # sums — NOT corr(): DuckDB's single-pass recurrence carries
            # plan-order float error; this form is bit-identical to the
            # Ray side's numpy expression on the same exact partials
            "WITH t AS (SELECT l_returnflag, "
            "CAST(ROUND(l_quantity) AS BIGINT) AS qty, "
            "CAST(ROUND(l_discount * 10000) AS BIGINT) AS disc_e4 "
            "FROM lineitem WHERE l_quantity IS NOT NULL "
            "AND l_discount IS NOT NULL), "
            "s AS (SELECT l_returnflag, COUNT(*) AS n, SUM(qty) AS sx, "
            "SUM(disc_e4) AS sy, SUM(qty * disc_e4) AS sxy, "
            "SUM(qty * qty) AS sxx, SUM(disc_e4 * disc_e4) AS syy "
            "FROM t GROUP BY l_returnflag) "
            "SELECT l_returnflag, CAST(n AS BIGINT) AS n, "
            "ROUND((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE) "
            "- CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) "
            "/ (SQRT(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE) "
            "- CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) "
            "* SQRT(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE) "
            "- CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))), 4) AS corr "
            "FROM s ORDER BY l_returnflag"
        ),
        "entropy_event_types": (
            "SELECT user_id % 16 AS bucket, "
            "ROUND(entropy(event_type), 4) AS entropy FROM events "
            "WHERE user_id IS NOT NULL GROUP BY 1 ORDER BY 1"
        ),
        "fuzzy_name_pairs": (
            "SELECT a.c_custkey AS id_a, b.c_custkey AS id_b, "
            "CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE levenshtein(a.c_name, b.c_name) <= 1 "
            "ORDER BY id_a, id_b"
        ),
        "mojibake_repair_documents": (
            "SELECT doc_id, (text LIKE '%spark%') AS mojibake_fixed, "
            "md5(replace(text, 'spark', 'spärk')) AS text_md5 "
            "FROM documents"
        ),
        "rollup_sales_priority": (
            "SELECT o_orderpriority, o_orderstatus, COUNT(*) AS cnt, "
            "CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)"
            " AS sum_cents, "
            "CAST(GROUPING(o_orderpriority, o_orderstatus) AS BIGINT)"
            " AS grouping_id "
            "FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)"
        ),
        "cube_docs_lang_source": (
            "SELECT lang, source, COUNT(*) AS cnt, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
            "CAST(GROUPING(lang, source) AS BIGINT) AS grouping_id "
            "FROM documents GROUP BY CUBE(lang, source)"
        ),
        "mode_lang_by_source": (
            "SELECT source, lang, cnt FROM ("
            "SELECT source, lang, COUNT(*) AS cnt, "
            "ROW_NUMBER() OVER (PARTITION BY source "
            "ORDER BY COUNT(*) DESC, lang) AS rn "
            "FROM documents WHERE lang IS NOT NULL "
            "GROUP BY source, lang) WHERE rn = 1"
        ),
        "grouping_sets_orders": (
            "SELECT o_orderpriority, o_orderstatus, COUNT(*) AS cnt, "
            "CAST(GROUPING(o_orderpriority, o_orderstatus) AS BIGINT)"
            " AS grouping_id "
            "FROM orders GROUP BY GROUPING SETS "
            "((o_orderpriority), (o_orderstatus))"
        ),
        "winsorized_lineitem": _winsorized_sql(),
        "robust_outliers_lineitem": _robust_outliers_sql(),
        "exact_quantiles_price": _exact_quantiles_sql(),
        "hourly_active_users": (
            "SELECT date_trunc('hour', ts) AS hour, "
            "COUNT(DISTINCT user_id) AS distinct_count "
            "FROM events GROUP BY 1"
        ),
        "next_event_lead": (
            "SELECT event_id, user_id, ts, "
            "LEAD(ts) OVER w AS next_ts, "
            "DATEDIFF('microseconds', ts, LEAD(ts) OVER w) AS gap_us "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        "order_rank_ntile": (
            "SELECT o_orderkey, o_totalprice, "
            "ROW_NUMBER() OVER w AS rnk, NTILE(8) OVER w AS tile, "
            "percent_rank() OVER w AS pct, "
            "DENSE_RANK() OVER w2 AS drnk, CUME_DIST() OVER w2 AS cume "
            "FROM orders "
            "WINDOW w AS (ORDER BY o_totalprice DESC, o_orderkey), "
            "w2 AS (ORDER BY o_totalprice DESC)"
        ),
        "global_shuffle_documents": (
            "SELECT doc_id, "
            "CAST(STRPOS('0123456789abcdef', "
            "SUBSTR(MD5(CAST(doc_id AS VARCHAR)), 1, 1)) - 1 AS BIGINT) AS shard, "
            "CAST(ROW_NUMBER() OVER (PARTITION BY SUBSTR(MD5(CAST(doc_id AS VARCHAR)), 1, 1) "
            "ORDER BY MD5(CAST(doc_id AS VARCHAR)), doc_id) - 1 AS BIGINT) AS pos "
            "FROM documents"
        ),
        "token_budget_by_source": (
            "SELECT source, COUNT(*) AS n_docs, "
            "CAST(SUM(CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0 "
            "ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')) END"
            ") AS BIGINT) AS sum_tokens, "
            "CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_chars "
            "FROM documents GROUP BY source"
        ),
        "pack_sequences_documents": (
            "WITH toks AS (SELECT doc_id, doc_id % 8 AS part, "
            "CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0 "
            "ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')) END "
            "AS n_tokens FROM documents), offs AS ("
            "SELECT doc_id, part, n_tokens, CAST(COALESCE(SUM(n_tokens) OVER ("
            "PARTITION BY part ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING "
            "AND 1 PRECEDING), 0) AS BIGINT) AS tok_offset FROM toks) "
            "SELECT doc_id, n_tokens, part, tok_offset, "
            "CAST(tok_offset // 128 AS BIGINT) AS seq_start, "
            "CAST(CASE WHEN n_tokens = 0 THEN tok_offset // 128 "
            "ELSE (tok_offset + n_tokens - 1) // 128 END AS BIGINT) AS seq_end "
            "FROM offs"
        ),
        "incremental_dedup_documents": (
            "SELECT * FROM documents d WHERE NOT EXISTS ("
            "SELECT 1 FROM documents p WHERE p.doc_id % 3 = 0 "
            "AND p.text = d.text)"
        ),
        "fingerprint_md5": "SELECT doc_id, MD5(text) AS md5 FROM documents",
        "stratified_customer": (
            "SELECT * FROM customer QUALIFY "
            "ROW_NUMBER() OVER (PARTITION BY c_mktsegment ORDER BY c_custkey) <= 20"
        ),
        "systematic_orders": "SELECT * FROM orders WHERE o_orderkey % 40 = 0",
        "tumbling_events": (
            "SELECT DATE_TRUNC('day', ts) AS window, event_type, COUNT(*) AS cnt, "
            "ROUND(SUM(value), 2) AS sum_value, MIN(value) AS min_value, "
            "MAX(value) AS max_value FROM events GROUP BY 1, 2"
        ),
        "hopping_events": (
            # 6h windows every 2h: event joins k=0..2 -> 3 aligned starts
            "SELECT make_timestamp((epoch_us(ts) // 7200000000 - k) "
            "* 7200000000) AS window, event_type, COUNT(*) AS cnt, "
            "ROUND(SUM(value), 2) AS sum_value, MIN(value) AS min_value, "
            "MAX(value) AS max_value FROM events "
            "CROSS JOIN (SELECT unnest(range(0, 3)) AS k) ks GROUP BY 1, 2"
        ),
        "repetition_stats_documents": (
            "WITH d AS (SELECT doc_id, CASE WHEN text IS NULL OR "
            "TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[]) "
            "ELSE REGEXP_SPLIT_TO_ARRAY(LOWER(TRIM(text, ' \t\n\r')), "
            "'\\s+') END AS arr FROM documents), "
            "g AS (SELECT doc_id, arr[i] || ' ' || arr[i+1] AS g "
            "FROM d, UNNEST(RANGE(1, LEN(arr))) AS t(i)), "
            "bg AS (SELECT doc_id, MAX(c) AS maxc, SUM(c) AS tot FROM "
            "(SELECT doc_id, g, COUNT(*) AS c FROM g GROUP BY doc_id, g) "
            "GROUP BY doc_id) "
            "SELECT d.doc_id, LEN(arr) AS n_words, "
            "CASE WHEN LEN(arr) = 0 THEN 0.0 ELSE ROUND(1.0 - "
            "LEN(LIST_DISTINCT(arr)) * 1.0 / LEN(arr), 4) END AS "
            "dup_word_frac, "
            "COALESCE(ROUND(bg.maxc * 1.0 / bg.tot, 4), 0.0) AS "
            "top_bigram_frac "
            "FROM d LEFT JOIN bg ON d.doc_id = bg.doc_id"
        ),
        "contamination_documents": (
            "WITH d AS (SELECT doc_id, CASE WHEN text IS NULL OR "
            "TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[]) "
            "ELSE REGEXP_SPLIT_TO_ARRAY(LOWER(TRIM(text, ' \t\n\r')), "
            "'\\s+') END AS arr FROM documents), "
            "dg AS (SELECT doc_id, ARRAY_TO_STRING(arr[i:i+7], ' ') AS g "
            "FROM d, UNNEST(RANGE(1, LEN(arr) - 6)) AS t(i)), "
            "bg AS (SELECT DISTINCT g FROM dg WHERE doc_id % 20 = 0), "
            "cnt AS (SELECT doc_id, COUNT(*) AS n_grams, "
            "CAST(SUM(CASE WHEN g IN (SELECT g FROM bg) THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_contaminated FROM dg GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(n_grams, 0) AS n_grams, "
            "COALESCE(n_contaminated, 0) AS n_contaminated, "
            "COALESCE(ROUND(n_contaminated * 1.0 / n_grams, 4), 0.0) AS "
            "contam_frac FROM d LEFT JOIN cnt ON d.doc_id = cnt.doc_id"
        ),
        "latest_event_per_user": (
            "SELECT user_id, event_id, ts, event_type FROM events "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id "
            "ORDER BY ts DESC, event_id DESC) = 1"
        ),
        "views_near_clicks": (
            "SELECT l.user_id, l.event_id, COUNT(r.event_id) AS n_views "
            "FROM events l LEFT JOIN events r ON l.user_id = r.user_id "
            "AND r.event_type = 'view' "
            "AND r.ts BETWEEN l.ts - INTERVAL 12 HOUR "
            "AND l.ts + INTERVAL 12 HOUR "
            "WHERE l.event_type = 'click' GROUP BY 1, 2"
        ),
        "duplicate_spans_documents": (
            "WITH d AS (SELECT doc_id, CASE WHEN text IS NULL OR "
            "TRIM(text, ' \t\n\r') = '' THEN CAST([] AS VARCHAR[]) "
            "ELSE REGEXP_SPLIT_TO_ARRAY(LOWER(TRIM(text, ' \t\n\r')), "
            "'\\s+') END AS arr FROM documents), "
            "dg AS (SELECT doc_id, ARRAY_TO_STRING(arr[i:i+12], ' ') AS g "
            "FROM d, UNNEST(RANGE(1, LEN(arr) - 11)) AS t(i)), "
            "dup AS (SELECT g FROM (SELECT g, COUNT(DISTINCT doc_id) AS nd "
            "FROM dg GROUP BY g) WHERE nd >= 2), "
            "cnt AS (SELECT doc_id, COUNT(*) AS n_grams, "
            "CAST(SUM(CASE WHEN g IN (SELECT g FROM dup) THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_dup_positions FROM dg GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(n_grams, 0) AS n_grams, "
            "COALESCE(n_dup_positions, 0) AS n_dup_positions, "
            "COALESCE(ROUND(n_dup_positions * 1.0 / n_grams, 4), 0.0) AS "
            "dup_span_frac FROM d LEFT JOIN cnt ON d.doc_id = cnt.doc_id"
        ),
        "line_dedup_documents": (
            "WITH L AS (SELECT doc_id, UNNEST(STRING_SPLIT("
            "COALESCE(text, ''), CHR(10))) AS line FROM documents), "
            "W AS (SELECT ' ' || CHR(9) || CHR(13) || CHR(10) || CHR(11) "
            "|| CHR(12) AS ws), "
            "F AS (SELECT line, COUNT(DISTINCT doc_id) AS nd FROM L, W "
            "WHERE TRIM(line, ws) <> '' GROUP BY line) "
            "SELECT doc_id, COUNT(*) AS n_lines, "
            "COUNT(*) FILTER (WHERE TRIM(line, ws) = '' "
            "OR COALESCE(nd, 0) <= 1) AS n_kept, "
            "COUNT(*) FILTER (WHERE TRIM(line, ws) <> '' "
            "AND COALESCE(nd, 0) > 1) AS n_removed "
            "FROM L LEFT JOIN F USING (line), W GROUP BY doc_id"
        ),
        "paragraph_dedup_documents": (
            "WITH L AS (SELECT doc_id, UNNEST(STRING_SPLIT("
            "COALESCE(text, ''), CHR(10) || CHR(10))) AS seg "
            "FROM documents), "
            "W AS (SELECT ' ' || CHR(9) || CHR(13) || CHR(10) || CHR(11) "
            "|| CHR(12) AS ws), "
            "F AS (SELECT seg, COUNT(DISTINCT doc_id) AS nd FROM L, W "
            "WHERE TRIM(seg, ws) <> '' GROUP BY seg) "
            "SELECT doc_id, COUNT(*) AS n_lines, "
            "COUNT(*) FILTER (WHERE TRIM(seg, ws) = '' "
            "OR COALESCE(nd, 0) <= 1) AS n_kept, "
            "COUNT(*) FILTER (WHERE TRIM(seg, ws) <> '' "
            "AND COALESCE(nd, 0) > 1) AS n_removed "
            "FROM L LEFT JOIN F USING (seg), W GROUP BY doc_id"
        ),
        "customers_urgent_orders": (
            "SELECT c_custkey, c_mktsegment FROM customer WHERE EXISTS "
            "(SELECT 1 FROM orders WHERE o_custkey = c_custkey "
            "AND o_orderpriority = '1-URGENT')"
        ),
        "customers_no_urgent_orders": (
            "SELECT c_custkey, c_mktsegment FROM customer WHERE NOT EXISTS "
            "(SELECT 1 FROM orders WHERE o_custkey = c_custkey "
            "AND o_orderpriority = '1-URGENT')"
        ),
        "event_gaps_users": (
            "SELECT event_id, user_id, ts, "
            "LAG(ts) OVER w AS prev_ts, "
            "DATEDIFF('microseconds', LAG(ts) OVER w, ts) AS gap_us "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        # rn over (doc, line) picks first occurrences; whitespace-only
        # lines (the python _WS set = ' \t\r\n\x0b\x0c') always survive
        "within_doc_line_dedup": (
            "WITH t AS (SELECT doc_id, REGEXP_SPLIT_TO_ARRAY("
            "COALESCE(text, ''), '\n') AS arr FROM documents), "
            "l AS (SELECT doc_id, i, arr[i] AS ln, "
            "TRIM(arr[i], ' ' || chr(9) || chr(13) || chr(10) || chr(11) "
            "|| chr(12)) <> '' AS is_content "
            "FROM t, UNNEST(RANGE(1, LEN(arr) + 1)) s(i)), "
            "k AS (SELECT doc_id, i, ln, is_content, "
            "ROW_NUMBER() OVER (PARTITION BY doc_id, is_content, ln "
            "ORDER BY i) AS rn FROM l), "
            "kept AS (SELECT doc_id, i, ln FROM k "
            "WHERE NOT is_content OR rn = 1) "
            "SELECT t.doc_id, LEN(t.arr) AS n_lines, "
            "COALESCE(c.n_kept, 0) AS n_kept, "
            "LEN(t.arr) - COALESCE(c.n_kept, 0) AS n_removed, "
            "COALESCE(c.txt, '') AS cleaned_text FROM t LEFT JOIN ("
            "SELECT doc_id, COUNT(*) AS n_kept, "
            "STRING_AGG(ln, chr(10) ORDER BY i) AS txt "
            "FROM kept GROUP BY doc_id) c ON t.doc_id = c.doc_id"
        ),
        "funnel_events": (
            "WITH m AS (SELECT user_id, "
            "MIN(CASE WHEN event_type = 'view' THEN ts END) AS t0, "
            "MIN(CASE WHEN event_type = 'click' THEN ts END) AS t1, "
            "MIN(CASE WHEN event_type = 'purchase' THEN ts END) AS t2 "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "GROUP BY user_id) "
            "SELECT stage, n_keys FROM (VALUES "
            "('view', (SELECT COUNT(*) FROM m WHERE t0 IS NOT NULL)), "
            "('click', (SELECT COUNT(*) FROM m WHERE t0 IS NOT NULL "
            "AND t1 > t0)), "
            "('purchase', (SELECT COUNT(*) FROM m WHERE t0 IS NOT NULL "
            "AND t1 > t0 AND t2 > t1))) t(stage, n_keys)"
        ),
        # chunk k covers tokens [k*stride+1 .. k*stride+max] (1-based
        # inclusive DuckDB slices); stride = max - overlap = 48
        "chunk_documents": (
            "WITH toks AS (SELECT doc_id, REGEXP_SPLIT_TO_ARRAY("
            "TRIM(text, ' \t\n\r'), '\\s+') AS arr, "
            "LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')) AS n "
            "FROM documents WHERE TRIM(text, ' \t\n\r') <> ''), "
            "spans AS (SELECT doc_id, arr, n, UNNEST(RANGE(0, "
            "CASE WHEN n <= 64 THEN 1 "
            "ELSE CAST(CEIL((n - 64) / 48.0) AS BIGINT) + 1 END)) AS k "
            "FROM toks) "
            "SELECT doc_id, k AS chunk_id, "
            "ARRAY_TO_STRING(arr[k * 48 + 1 : LEAST(k * 48 + 64, n)], ' ') "
            "AS text, "
            "LEAST(k * 48 + 64, n) - k * 48 AS n_tokens FROM spans"
        ),
        "snapshot_diff_documents": (
            "WITH a AS (SELECT doc_id, MD5(COALESCE(text, '')) AS h "
            "FROM documents WHERE doc_id % 5 <> 4), "
            "b AS (SELECT doc_id, MD5(COALESCE(CASE WHEN doc_id % 7 = 0 "
            "THEN COALESCE(text, '') || ' updated' ELSE text END, '')) AS h "
            "FROM documents WHERE doc_id % 5 <> 0) "
            "SELECT status, COUNT(*) AS n_docs FROM ("
            "SELECT CASE WHEN a.doc_id IS NULL THEN 'added' "
            "WHEN b.doc_id IS NULL THEN 'removed' "
            "WHEN a.h = b.h THEN 'unchanged' ELSE 'changed' END AS status "
            "FROM a FULL JOIN b ON a.doc_id = b.doc_id) "
            "GROUP BY status ORDER BY status"
        ),
        # distributed exact-distinct vs p=14 HLL; oracle pins the 3%
        # error bound (deterministic: fixed sketch hash)
        "hll_error_check": (
            "SELECT column_name, within_bound FROM (VALUES "
            "('l_extendedprice', TRUE), ('l_orderkey', TRUE)) "
            "t(column_name, within_bound) ORDER BY column_name"
        ),
        # exact inverted-index all-pairs Jaccard — identical algorithm in
        # SQL; jaccard rounded half-away 6 places on both engines
        "jaccard_pairs_exact": (
            "WITH toks AS (SELECT doc_id, REGEXP_SPLIT_TO_ARRAY("
            "TRIM(LOWER(text), ' \t\n\r'), '\\s+') AS arr "
            "FROM documents WHERE TRIM(text, ' \t\n\r') <> ''), "
            "sh AS (SELECT DISTINCT doc_id, "
            "arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] AS g "
            "FROM toks, UNNEST(RANGE(1, LEN(arr) - 1)) t(i) "
            "WHERE LEN(arr) >= 3), "
            "sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id), "
            "inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "COUNT(*) AS m FROM sh a JOIN sh b ON a.g = b.g "
            "AND a.doc_id < b.doc_id GROUP BY 1, 2) "
            "SELECT id_a, id_b, "
            "ROUND(m * 1.0 / (sa.n + sb.n - m), 6) AS jaccard "
            "FROM inter JOIN sizes sa ON sa.doc_id = id_a "
            "JOIN sizes sb ON sb.doc_id = id_b "
            "WHERE m * 1.0 / (sa.n + sb.n - m) >= 0.5"
        ),
        "user_click_purchase_counts": (
            "WITH c AS (SELECT user_id, COUNT(*) AS n_clicks FROM events "
            "WHERE event_type = 'click' AND user_id IS NOT NULL "
            "AND user_id % 3 = 0 GROUP BY user_id), "
            "p AS (SELECT user_id, COUNT(*) AS n_purchases FROM events "
            "WHERE event_type = 'purchase' AND user_id IS NOT NULL "
            "AND user_id % 2 = 0 GROUP BY user_id) "
            "SELECT COALESCE(c.user_id, p.user_id) AS user_id, "
            "c.n_clicks, p.n_purchases "
            "FROM c FULL JOIN p ON c.user_id = p.user_id"
        ),
        "vocab_drift_documents": (
            "WITH toks AS (SELECT doc_id % 2 AS side, "
            "LOWER(UNNEST(REGEXP_SPLIT_TO_ARRAY("
            "TRIM(text, ' \t\n\r'), '\\s+'))) AS term "
            "FROM documents WHERE TRIM(text, ' \t\n\r') <> ''), "
            "c AS (SELECT term, "
            "SUM(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS n_a, "
            "SUM(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS n_b "
            "FROM toks GROUP BY term) "
            "SELECT term, CAST(n_a AS BIGINT) AS n_a, "
            "CAST(n_b AS BIGINT) AS n_b, "
            "CAST(n_b - n_a AS BIGINT) AS delta "
            "FROM c ORDER BY ABS(n_b - n_a) DESC, term LIMIT 30"
        ),
        "rolling_user_events": (
            "SELECT event_id, ts, user_id, "
            "CAST(ROUND(value * 100) AS BIGINT) AS value_cents, "
            "COUNT(*) OVER w AS w_cnt, "
            "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS BIGINT) "
            "AS w_sum_cents FROM events WINDOW w AS (PARTITION BY user_id "
            "ORDER BY ts RANGE BETWEEN INTERVAL 7 DAY PRECEDING "
            "AND CURRENT ROW)"
        ),
        "top3_orders_per_priority": (
            "SELECT o_orderkey, o_orderpriority, o_totalprice FROM orders "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderpriority "
            "ORDER BY o_totalprice DESC, o_orderkey DESC) <= 3"
        ),
        "running_user_totals": (
            "SELECT event_id, ts, user_id, "
            "CAST(ROUND(value * 100) AS BIGINT) AS value_cents, "
            "COUNT(*) OVER w AS r_cnt, "
            "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w AS BIGINT) "
            "AS r_sum_cents FROM events WINDOW w AS (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS BETWEEN UNBOUNDED PRECEDING "
            "AND CURRENT ROW)"
        ),
        "weekday_type_pivot": (
            "SELECT DAYNAME(ts) AS weekday, "
            + ", ".join(
                f"CAST(SUM(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) "
                f"AS BIGINT) AS {t}" for t in _EVENT_TYPES)
            + " FROM events GROUP BY 1"
        ),
        "weekday_orders": (
            "SELECT DAYNAME(o_orderdate) AS weekday, COUNT(*) AS cnt "
            "FROM orders GROUP BY 1"
        ),
        "top_expensive_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 20"
        ),
        "sales_by_segment": (
            "SELECT c_mktsegment, COUNT(*) AS cnt, "
            "CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_mktsegment"
        ),
        "row_duplicates_documents": (
            "SELECT COUNT(*) AS rows_seen, "
            "COUNT(*) - COUNT(DISTINCT COALESCE(lang, '') || '\x1f' || "
            "COALESCE(source, '')) AS duplicate_rows "
            "FROM documents"
        ),
        "revenue_by_priority": (
            "SELECT o_orderpriority, COUNT(*) AS cnt, "
            "CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
            "GROUP BY o_orderpriority"
        ),
        "session_events": (
            "WITH e AS (SELECT user_id, ts FROM events "
            "WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
            "d AS (SELECT user_id, ts, CASE WHEN LAG(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) IS NULL "
            "OR ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) "
            "> INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s FROM e), "
            "s AS (SELECT user_id, ts, SUM(new_s) OVER "
            "(PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS session_id "
            "FROM d) "
            "SELECT user_id, CAST(session_id AS BIGINT) AS session_id, "
            "MIN(ts) AS session_start, MAX(ts) AS session_end, "
            "COUNT(*) AS n_events FROM s GROUP BY user_id, session_id"
        ),
        "drift_price_bins": (
            "WITH bounds AS (SELECT MIN(l_extendedprice) AS lo, "
            "MAX(l_extendedprice) AS hi FROM lineitem), "
            "buck AS (SELECT LEAST(CAST(FLOOR((l_extendedprice - lo) / "
            "((hi - lo) / 10.0)) AS BIGINT), 9) AS bin_id, "
            "l_orderkey % 2 AS side FROM lineitem, bounds) "
            "SELECT r.range AS bin_id, "
            "COUNT(*) FILTER (WHERE side = 0) AS cnt_a, "
            "COUNT(*) FILTER (WHERE side = 1) AS cnt_b "
            "FROM RANGE(0, 10) r LEFT JOIN buck ON r.range = buck.bin_id "
            "GROUP BY r.range"
        ),
        "revenue_by_region": (
            "SELECT r_name, COUNT(*) AS cnt, "
            "CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM orders "
            "JOIN customer ON o_custkey = c_custkey "
            "JOIN nation ON c_nationkey = n_nationkey "
            "JOIN region ON n_regionkey = r_regionkey "
            "GROUP BY r_name"
        ),
        "parts_by_brand": (
            "SELECT p_brand, COUNT(*) AS cnt, "
            "CAST(SUM(p_size) AS BIGINT) AS sum_size, "
            "MAX(p_retailprice) AS max_price, "
            "ROUND(SUM(p_size) * 1.0 / COUNT(*), 4) AS avg_size "
            "FROM part GROUP BY p_brand"
        ),
        "asof_click_view": (
            "WITH c AS (SELECT event_id, user_id, ts FROM events "
            "WHERE event_type = 'click' AND user_id IS NOT NULL "
            "AND ts IS NOT NULL), "
            "v AS (SELECT user_id, ts AS view_ts FROM events "
            "WHERE event_type = 'view' AND user_id IS NOT NULL "
            "AND ts IS NOT NULL) "
            "SELECT c.event_id, c.user_id, c.ts, MAX(v.view_ts) AS last_view_ts "
            "FROM c LEFT JOIN v ON c.user_id = v.user_id AND v.view_ts <= c.ts "
            "GROUP BY c.event_id, c.user_id, c.ts"
        ),
        "quantiles_lineitem": (
            "SELECT l_returnflag, "
            "ROUND(QUANTILE_CONT(l_quantity, 0.25), 4) AS q25, "
            "ROUND(QUANTILE_CONT(l_quantity, 0.50), 4) AS q50, "
            "ROUND(QUANTILE_CONT(l_quantity, 0.75), 4) AS q75 "
            "FROM lineitem GROUP BY l_returnflag"
        ),
        # the Ray side MEASURES the sketch's achieved rank distributedly
        # and reports whether it sits inside the eps=0.02 analytic bound;
        # the oracle pins the expected verdict, so any sketch regression
        # hash-mismatches (the self-measuring twin is approx_quantiles_audit)
        "approx_quantile_rank_check": (
            "SELECT CAST(q AS DOUBLE) AS q, within_bound "
            "FROM (VALUES (0.25, TRUE), (0.5, TRUE), (0.75, TRUE)) "
            "t(q, within_bound) ORDER BY q"
        ),
        "top_terms_documents": (
            "SELECT term, COUNT(*) AS term_count FROM ("
            "SELECT LOWER(UNNEST(REGEXP_SPLIT_TO_ARRAY("
            "TRIM(text, ' \t\n\r'), '\\s+'))) AS term FROM documents "
            "WHERE TRIM(text, ' \t\n\r') != '') "
            "GROUP BY term ORDER BY term_count DESC, term LIMIT 20"
        ),
        "top_bigrams_documents": (
            "WITH d AS (SELECT REGEXP_SPLIT_TO_ARRAY("
            "LOWER(TRIM(text, ' \t\n\r')), '\\s+') AS arr FROM documents "
            "WHERE text IS NOT NULL AND TRIM(text, ' \t\n\r') != ''), "
            "g AS (SELECT arr[i] || ' ' || arr[i+1] AS term "
            "FROM d, UNNEST(RANGE(1, LEN(arr))) AS t(i)) "
            "SELECT term, COUNT(*) AS term_count FROM g "
            "GROUP BY term ORDER BY term_count DESC, term LIMIT 20"
        ),
        "doc_frequency_documents": (
            "WITH n AS (SELECT COUNT(*) AS n_docs FROM documents), "
            "t AS (SELECT DISTINCT doc_id, term FROM ("
            "SELECT doc_id, LOWER(UNNEST(REGEXP_SPLIT_TO_ARRAY("
            "TRIM(text, ' \t\n\r'), '\\s+'))) AS term FROM documents "
            "WHERE TRIM(text, ' \t\n\r') != '')) "
            "SELECT term, COUNT(*) AS doc_freq, "
            "ROUND(LN((n_docs + 1.0) / (COUNT(*) + 1.0)) + 1.0, 6) AS idf "
            "FROM t, n GROUP BY term, n_docs "
            "ORDER BY doc_freq DESC, term LIMIT 50"
        ),
        "gopher_signals_documents": _gopher_signals_sql(),
        "hash_split_documents": _hash_split_sql(),
        "c4_line_stats_documents": _c4_line_stats_sql(),
        "tfidf_top_terms_documents": _tfidf_top_terms_sql(),
        "url_features_documents": _url_features_sql(),
        "source_mixture_documents": _source_mixture_sql(),
        "distinct_customers_by_priority": (
            "SELECT o_orderpriority, COUNT(DISTINCT o_custkey) AS "
            "distinct_customers FROM orders GROUP BY o_orderpriority"
        ),
        "normalized_dedup_documents": (
            "WITH n AS (SELECT doc_id, TRIM(REGEXP_REPLACE(LOWER("
            "STRIP_ACCENTS(NFC_NORMALIZE(COALESCE(text, '')))), "
            "'[\\t-\\r\\x1c-\\x1f\\x85\\p{Z}]+', ' ', 'g'), ' ') AS norm "
            "FROM documents) "
            "SELECT d.* FROM documents d WHERE d.doc_id IN "
            "(SELECT MIN(doc_id) FROM n GROUP BY norm)"
        ),
        # the whitespace class is RE2's spelling of Python's unicode \s
        # (ASCII ws + \x1c-\x1f + NEL + all Z-category separators) so the
        # oracle matches make_normalizer beyond ASCII corpora too
        "normalize_text_documents": (
            "WITH n AS (SELECT doc_id, COALESCE(text, '') AS t, "
            "TRIM(REGEXP_REPLACE(LOWER(STRIP_ACCENTS(NFC_NORMALIZE("
            "COALESCE(text, '')))), "
            "'[\\t-\\r\\x1c-\\x1f\\x85\\p{Z}]+', ' ', 'g'), ' ') AS norm_text "
            "FROM documents) "
            "SELECT doc_id, norm_text, "
            "CASE WHEN norm_text != t THEN 1 ELSE 0 END AS changed FROM n"
        ),
        "key_skew_orders": (
            "WITH c AS (SELECT o_custkey, COUNT(*) AS cnt FROM orders "
            "GROUP BY o_custkey), "
            "t AS (SELECT SUM(cnt) AS total FROM c) "
            "SELECT ROW_NUMBER() OVER (ORDER BY cnt DESC, o_custkey) AS rank, "
            "o_custkey, cnt, ROUND(cnt * 1.0 / total, 6) AS share "
            "FROM c, t ORDER BY cnt DESC, o_custkey LIMIT 10"
        ),
        "doc_quality_documents": (
            "SELECT doc_id, LENGTH(text) AS n_chars, "
            "CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0 "
            "ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')) END AS n_tokens, "
            "CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0.0 "
            "ELSE ROUND(LENGTH(REGEXP_REPLACE(text, '\\s', '', 'g')) * 1.0 "
            "/ LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')), 4) END "
            "AS avg_token_len, "
            "CASE WHEN LENGTH(text) = 0 THEN 0.0 "
            "ELSE ROUND(LEN(REGEXP_EXTRACT_ALL(text, '[A-Z]')) * 1.0 "
            "/ LENGTH(text), 4) END AS uppercase_ratio, "
            "CASE WHEN LENGTH(text) = 0 THEN 0.0 "
            "ELSE ROUND(LEN(REGEXP_EXTRACT_ALL(text, '[0-9]')) * 1.0 "
            "/ LENGTH(text), 4) END AS digit_ratio "
            "FROM documents"
        ),
        "embedding_stats": (
            "SELECT vec_id, CAST(LEN(embedding) AS BIGINT) AS dim, "
            "LIST_MIN(CAST(embedding AS DOUBLE[])) AS vmin, "
            "LIST_MAX(CAST(embedding AS DOUBLE[])) AS vmax "
            "FROM embeddings"
        ),
        "cap_per_source_documents": (
            "SELECT doc_id, source FROM documents "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY source "
            "ORDER BY MD5(CAST(doc_id AS VARCHAR)), doc_id) "
            f"<= {_CAP_PER_SOURCE}"
        ),
        "budget_select_documents": _budget_select_sql(),
        "dsir_bucket_counts": _dsir_bucket_counts_sql(),
        "topk_cosine": (
            "WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv "
            "FROM embeddings WHERE vec_id < 5), "
            "s AS (SELECT q.query_id, e.vec_id, "
            "list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS cos "
            "FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, cos, "
            "ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rn FROM s) "
            "SELECT query_id, vec_id, ROUND(cos, 4) AS cosine FROM r WHERE rn <= 10"
        ),
    }


# ------------------------------------------------- round-3 selection family


_CAP_PER_SOURCE = 15
_BUDGET_FRACTION = 0.5
_DSIR_BUCKETS = 256
_NON_ALPHA = re.compile(r"[^A-Za-z]")


def _cap_per_source_documents(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.sampling import cap_per_key

    return cap_per_key(
        _read(sf_dir, "documents", columns=["doc_id", "source"]),
        ["source"], per_key=_CAP_PER_SOURCE)


def _score_tokens_stage(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, score) with score = [A-Za-z] char fraction —
    chosen because both terms are exactly SQL-replicable (the IEEE division
    of two identical ints matches DuckDB bit-for-bit)."""
    from dataprof_ray.pipelines.textstats import token_count

    texts = batch.column("text").to_pylist()
    toks = np.fromiter((token_count(t) for t in texts), dtype=np.int64,
                       count=len(texts))
    score = np.fromiter(
        (len(_NON_ALPHA.sub("", t or "")) / max(len(t or ""), 1)
         for t in texts), dtype=np.float64, count=len(texts))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens": pa.array(toks, pa.int64()),
        "score": pa.array(score, pa.float64()),
    })


def _budget_select_documents(sf_dir: str):
    from dataprof_ray.pipelines.selection import select_by_budget

    scored = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(_score_tokens_stage, batch_format="pyarrow")
    out = select_by_budget(scored, budget_fraction=_BUDGET_FRACTION,
                           score_col="score", weight_col="n_tokens")
    return out.select_columns(["doc_id", "n_tokens"])


def _budget_select_sql() -> str:
    return (
        "WITH scored AS (SELECT doc_id, "
        "CASE WHEN TRIM(text, ' \t\n\r') = '' THEN 0 "
        "ELSE LEN(REGEXP_SPLIT_TO_ARRAY(TRIM(text, ' \t\n\r'), '\\s+')) "
        "END AS n_tokens, "
        "LENGTH(REGEXP_REPLACE(text, '[^A-Za-z]', '', 'g')) * 1.0 "
        "/ GREATEST(LENGTH(text), 1) AS score FROM documents), "
        "tot AS (SELECT SUM(n_tokens) * 1.0 AS t FROM scored), "
        "cum AS (SELECT doc_id, n_tokens, SUM(n_tokens) OVER ("
        "ORDER BY score DESC, doc_id "
        "ROWS UNBOUNDED PRECEDING) AS c FROM scored) "
        f"SELECT doc_id, n_tokens FROM cum, tot WHERE c <= {_BUDGET_FRACTION} * t"
    )


def _dsir_bucket_counts(sf_dir: str) -> pd.DataFrame:
    from dataprof_ray.pipelines.selection import hashed_token_counts

    counts = hashed_token_counts(
        _read(sf_dir, "documents", columns=["text"]), buckets=_DSIR_BUCKETS)
    nz = np.nonzero(counts)[0]
    return pd.DataFrame({"bucket": nz.astype(np.int64), "cnt": counts[nz]})


def _dsir_bucket_counts_sql() -> str:
    return (
        "WITH term AS (SELECT LOWER(UNNEST(REGEXP_SPLIT_TO_ARRAY("
        "TRIM(text, ' \t\n\r'), '\\s+'))) AS term FROM documents "
        "WHERE TRIM(text, ' \t\n\r') != '') "
        "SELECT ('0x' || SUBSTR(MD5(term), 1, 8))::BIGINT "
        f"% {_DSIR_BUCKETS} AS bucket, COUNT(*) AS cnt "
        "FROM term GROUP BY bucket ORDER BY bucket"
    )


def _dsir_weighted(sf_dir: str):
    """Shared DSIR pipeline: target = src0 docs, raw = whole corpus."""
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.selection import (dsir_log_ratios,
                                                  dsir_weights,
                                                  hashed_token_counts)

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    target = docs.map_batches(
        lambda b: b.filter(pc.equal(b.column("source"), "src0")),
        batch_format="pyarrow")
    raw_counts = hashed_token_counts(docs, buckets=1024)
    tgt_counts = hashed_token_counts(target, buckets=1024)
    return dsir_weights(docs, dsir_log_ratios(tgt_counts, raw_counts))


def _dsir_weights_documents(sf_dir: str):
    """Per-doc DSIR importance weight (target = src0). Non-SQL-expressible
    (log of smoothed count ratios diverges across libm builds); pinned to
    a single-process oracle by tests/test_selection.py."""
    return _dsir_weighted(sf_dir)


def _dsir_top_documents(sf_dir: str) -> pd.DataFrame:
    """Gumbel-top-50 DSIR resample — deterministic (md5-seeded Gumbel
    noise), pinned by tests/test_selection.py."""
    from dataprof_ray.pipelines.selection import dsir_select

    out = dsir_select(_dsir_weighted(sf_dir), k=50).to_pandas()
    return out.sort_values("gumbel_key", ascending=False) \
        .reset_index(drop=True)[["doc_id", "n_tokens"]]


def _semantic_dedup_embeddings(sf_dir: str) -> pd.DataFrame:
    """SemDeDup over the embeddings table. Rows-only: k-means is
    iterative (non-SQL); the greedy-keep semantics are pinned by
    tests/test_dedup.py planted-clone + invariant tests. max_cos rounded
    so block-order float noise cannot flip a hash."""
    from dataprof_ray.pipelines.dedup import semantic_dedup

    out = semantic_dedup(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        threshold=0.45, n_cells=8).to_pandas()
    out["max_cos_to_kept"] = out["max_cos_to_kept"].round(4)
    return out.sort_values("vec_id").reset_index(drop=True)


def _pca_audit_embeddings(sf_dir: str) -> pd.DataFrame:
    """Self-measuring distributed PCA: reconstruction MSE must equal the
    dropped-eigenvalue sum (exact PCA identity) — rel_gap is the numeric
    error of the covariance-partials pipeline, asserted tiny in
    tests/test_selection.py."""
    from dataprof_ray.pipelines.similarity import pca_audit

    a = pca_audit(_read(sf_dir, "embeddings",
                        columns=["vec_id", "embedding"]), k=8)
    return pd.DataFrame([{
        "d": a["d"], "k": a["k"], "n": a["n"],
        "explained_ratio": round(a["explained_ratio"], 6),
        "recon_mse": round(a["recon_mse"], 6),
        "expected_mse": round(a["expected_mse"], 6),
        "rel_gap_e12": round(a["rel_gap"] * 1e12, 2),
    }])
