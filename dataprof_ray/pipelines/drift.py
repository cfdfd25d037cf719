"""Distribution drift between two datasets (training-data monitoring).

The reference compares two PROFILES structurally (``report.compare``,
python/dataprof/__init__.py:2277); a 100-TB training pipeline also needs
VALUE-distribution drift between corpus versions. Operators:

- ``numeric_drift_bins``: shared-bounds equal-width histogram of a numeric
  column on both datasets. Scale pattern: one min/max aggregate per side
  (column stats, no shuffle), then per-batch bincount partials folded on
  the driver — the exchange is ``bins`` integers per batch. Bucket
  assignment is ``min(floor((x - lo) / w), bins-1)`` with w =
  (hi - lo)/bins, the exact arithmetic the DuckDB oracle uses, so bin
  counts are integer-exact.
- ``population_stability_index`` (PSI) over the bin table: the standard
  drift score (<0.1 stable, 0.1-0.25 moderate, >0.25 major).
- ``categorical_drift``: per-value frequency deltas + PSI over the top-N
  categories (tail folded into ``__other__``), built on the partial-
  combiner groupby.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from dataprof_ray.pipelines.partitioning import arrow_schema, keyed_exchange


def _finite_min_max(ds, col: str) -> tuple[float, float]:
    """Min/max over FINITE values only — a raw Min/Max aggregate passes
    ±inf through and a single -inf poisoned the bin width into NaN.
    Returns (+inf, -inf) when the side has no finite values (neutral
    bounds that defer to the other side)."""
    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        x = x[np.isfinite(x)]
        if not len(x):
            return pa.table({"lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64())})
        return pa.table({"lo": pa.array([float(x.min())]),
                         "hi": pa.array([float(x.max())])})

    lo, hi = np.inf, -np.inf
    for batch in (ds.select_columns([col])
                  .map_batches(partial, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow")):
        for l_, h_ in zip(batch.column("lo").to_pylist(),
                          batch.column("hi").to_pylist()):
            lo, hi = min(lo, l_), max(hi, h_)
    return lo, hi


def numeric_drift_bins(ds_a, ds_b, col: str, bins: int = 10) -> pd.DataFrame:
    """(bin_id, bin_lo, bin_hi, cnt_a, cnt_b) over shared equal-width bins
    spanning min/max of BOTH datasets. Null values are excluded; all
    ``bins`` rows are emitted even when empty on both sides."""
    lo_a, hi_a = _finite_min_max(ds_a, col)
    lo_b, hi_b = _finite_min_max(ds_b, col)
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    if not np.isfinite(lo):  # neither side has any finite value
        lo, hi = 0.0, 1.0
    elif hi <= lo:  # constant column: everything lands in bin 0
        hi = lo + 1.0
    w = (hi - lo) / bins

    def hist(ds):
        def partial(batch: pa.Table) -> pa.Table:
            x = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            x = x[np.isfinite(x)]
            if not len(x):
                counts = np.zeros(bins, dtype=np.int64)
            else:
                b = np.minimum(np.floor((x - lo) / w).astype(np.int64),
                               bins - 1)
                counts = np.bincount(b, minlength=bins).astype(np.int64)
            return pa.table({"counts": pa.array([counts.tolist()],
                                                pa.list_(pa.int64()))})

        total = np.zeros(bins, dtype=np.int64)
        for batch in (ds.select_columns([col])
                      .map_batches(partial, batch_format="pyarrow")
                      .iter_batches(batch_format="pyarrow")):
            for row in batch.column("counts").to_pylist():
                total += np.asarray(row, dtype=np.int64)
        return total

    cnt_a = hist(ds_a)
    cnt_b = hist(ds_b)
    edges = lo + w * np.arange(bins + 1)
    return pd.DataFrame({
        "bin_id": np.arange(bins, dtype=np.int64),
        "bin_lo": edges[:-1],
        "bin_hi": edges[1:],
        "cnt_a": cnt_a,
        "cnt_b": cnt_b,
    })


def population_stability_index(cnt_a, cnt_b, epsilon: float = 1e-6) -> float:
    """PSI = sum((pa - pb) * ln(pa / pb)) with epsilon-smoothed
    proportions (the standard guard against empty bins)."""
    a = np.asarray(cnt_a, dtype=np.float64)
    b = np.asarray(cnt_b, dtype=np.float64)
    pa_ = np.maximum(a / max(a.sum(), 1.0), epsilon)
    pb_ = np.maximum(b / max(b.sum(), 1.0), epsilon)
    return float(np.sum((pa_ - pb_) * np.log(pa_ / pb_)))


def numeric_drift(ds_a, ds_b, col: str, bins: int = 10) -> dict:
    """Convenience: bin table + PSI + verdict. A side with no finite data
    is a monitoring failure, not stability — verdict ``no_data`` (a
    vanished input must not read as healthy)."""
    table = numeric_drift_bins(ds_a, ds_b, col, bins)
    if table["cnt_a"].sum() == 0 or table["cnt_b"].sum() == 0:
        return {"column": col, "psi": float("nan"), "verdict": "no_data",
                "bins": table}
    psi = population_stability_index(table["cnt_a"], table["cnt_b"])
    return {
        "column": col,
        "psi": psi,
        "verdict": ("stable" if psi < 0.1
                    else "moderate_drift" if psi < 0.25 else "major_drift"),
        "bins": table,
    }


def categorical_drift(ds_a, ds_b, col: str, top_n: int = 50) -> dict:
    """Frequency comparison of a categorical column: top-N categories by
    combined count (tail folded into ``__other__``, nulls into
    ``__null__``), with per-category proportions and PSI."""
    from dataprof_ray.pipelines.aggregate import preagg_groupby

    def counts(ds) -> pd.DataFrame:
        df = preagg_groupby(ds.select_columns([col]), [col],
                            [("cnt", None, "count")])
        df[col] = df[col].fillna("__null__")
        return df

    ca = counts(ds_a).rename(columns={"cnt": "cnt_a"})
    cb = counts(ds_b).rename(columns={"cnt": "cnt_b"})
    merged = ca.merge(cb, how="outer", on=col).fillna(0)
    merged["total"] = merged["cnt_a"] + merged["cnt_b"]
    merged = merged.sort_values(["total", col], ascending=[False, True])
    head = merged.head(top_n).drop(columns=["total"])
    tail = merged.iloc[top_n:]
    if len(tail):
        head = pd.concat([head, pd.DataFrame({
            col: ["__other__"],
            "cnt_a": [int(tail["cnt_a"].sum())],
            "cnt_b": [int(tail["cnt_b"].sum())],
        })], ignore_index=True)
    head["cnt_a"] = head["cnt_a"].astype(np.int64)
    head["cnt_b"] = head["cnt_b"].astype(np.int64)
    psi = population_stability_index(head["cnt_a"], head["cnt_b"])
    return {
        "column": col,
        "psi": psi,
        "verdict": ("stable" if psi < 0.1
                    else "moderate_drift" if psi < 0.25 else "major_drift"),
        "categories": head.reset_index(drop=True),
    }


def drift_report(ds_a, ds_b, columns: Optional[list] = None,
                 bins: int = 10, top_n: int = 50) -> pd.DataFrame:
    """Whole-table drift: one row per column with PSI + verdict. Numeric
    columns use shared-bin histograms, string columns categorical
    frequencies; other types are skipped. ``columns`` restricts the scan
    (recommended at scale: each column costs an extra pass per side)."""
    schema = arrow_schema(ds_a)
    names = columns if columns is not None else schema.names
    rows = []
    for name in names:
        t = schema.field(name).type
        if pa.types.is_integer(t) or pa.types.is_floating(t):
            out = numeric_drift(ds_a, ds_b, name, bins=bins)
            kind = "numeric"
        elif pa.types.is_string(t) or pa.types.is_large_string(t):
            out = categorical_drift(ds_a, ds_b, name, top_n=top_n)
            kind = "categorical"
        else:
            continue
        rows.append({"column": name, "kind": kind,
                     "psi": out["psi"], "verdict": out["verdict"]})
    return pd.DataFrame(rows)


def vocab_drift(ds_a, ds_b, text_col: str = "text", top_n: int = 30,
                partitions: int = None) -> pd.DataFrame:
    """Token-frequency drift between two corpus SNAPSHOTS (this week's
    crawl vs last week's): exact global unigram counts per side, aligned
    full-outer, returning the ``top_n`` terms by absolute count change
    (ties broken by term) with per-side counts and the signed delta. The
    vocabulary view of :func:`categorical_drift` — the monitoring signal
    that catches a template flood, a language-mix shift or a spam burst
    between crawls before it poisons a training mix.

    Token contract matches ``textstats.top_terms`` (lowercase, ``\\s+``
    split, empty-stripped documents contribute nothing), so the DuckDB
    oracle is exact.

    Scale design: per-batch partial Counters per side -> (term, n, side)
    rows through one ``keyed_exchange`` on the term (each term lives
    wholly in one partition) -> one vectorized pivot per partition, which
    keeps only its own top_n candidates — the driver concatenates
    ``partitions x top_n`` rows and cuts the global top_n. Documents never move; the shuffle is
    term partials."""
    from collections import Counter

    from dataprof_ray.pipelines.textstats import _WS_SPLIT

    def partials(side: int):
        def f(batch: pa.Table) -> pa.Table:
            counts: Counter = Counter()
            for t in batch.column(text_col).to_pylist():
                toks = _WS_SPLIT.split((t or "").lower().strip())
                if toks == [""]:
                    continue
                counts.update(toks)
            return pa.table({
                "term": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
                "side": pa.array(np.full(len(counts), side, np.int8)),
            })
        return f

    rows = (ds_a.select_columns([text_col])
              .map_batches(partials(0), batch_format="pyarrow")
              .union(ds_b.select_columns([text_col])
                     .map_batches(partials(1), batch_format="pyarrow")))

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        piv = (df.pivot_table(index="term", columns="side", values="n",
                              aggfunc="sum", fill_value=0)
               .reindex(columns=[0, 1], fill_value=0))
        out = pd.DataFrame({
            "term": piv.index.to_numpy(),
            "n_a": piv[0].to_numpy(dtype=np.int64),
            "n_b": piv[1].to_numpy(dtype=np.int64),
        })
        out["delta"] = out["n_b"] - out["n_a"]
        out["__abs"] = out["delta"].abs()
        out = out.sort_values(["__abs", "term"],
                              ascending=[False, True]).head(top_n)
        return out.drop(columns="__abs")

    cand = keyed_exchange(rows, ["term"], reduce_part,
                          partitions=partitions,
                          batch_format="pandas").to_pandas()
    if cand.empty:
        return pd.DataFrame({"term": pd.Series([], dtype=str),
                             "n_a": pd.Series([], dtype=np.int64),
                             "n_b": pd.Series([], dtype=np.int64),
                             "delta": pd.Series([], dtype=np.int64)})
    cand["__abs"] = cand["delta"].abs()
    return (cand.sort_values(["__abs", "term"], ascending=[False, True])
            .head(top_n).drop(columns="__abs").reset_index(drop=True))


def snapshot_diff(ds_a, ds_b, key_col: str = "doc_id",
                  text_col: str = "text",
                  partitions: int = 64) -> pd.DataFrame:
    """Crawl-snapshot diff: per-status document counts between two corpus
    snapshots keyed by ``key_col`` — ``added`` (key only in B),
    ``removed`` (only in A), ``changed`` / ``unchanged`` (md5 of text
    decides; md5-hex matches SQL ``md5(coalesce(text, ''))`` exactly —
    the fingerprint contract). The incremental-crawl bookkeeping signal:
    how much of this week's crawl is actually new content vs re-serves.

    Scale design: each side reduces to (key, 32-char digest) rows inside
    ``map_batches`` — text never moves — then ONE full-outer
    ``hash_join`` on the key and a pre-aggregated count by status. Output
    is at most 4 rows."""
    import hashlib

    from dataprof_ray.pipelines.aggregate import preagg_groupby
    from dataprof_ray.pipelines.join import hash_join

    def sig(out_name: str):
        def f(b: pa.Table) -> pa.Table:
            hs = [hashlib.md5((t or "").encode()).hexdigest()
                  for t in b.column(text_col).to_pylist()]
            return pa.table({key_col: b.column(key_col),
                             out_name: pa.array(hs, pa.string())})
        return f

    a = ds_a.select_columns([key_col, text_col]) \
        .map_batches(sig("ha"), batch_format="pyarrow")
    b = ds_b.select_columns([key_col, text_col]) \
        .map_batches(sig("hb"), batch_format="pyarrow")
    joined = hash_join(a, b, left_key=key_col, right_key=key_col,
                       how="outer", partitions=partitions)

    def status(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ha, hb = batch.column("ha"), batch.column("hb")
        st = pc.if_else(
            pc.is_null(ha), pa.scalar("added"),
            pc.if_else(pc.is_null(hb), pa.scalar("removed"),
                       pc.if_else(pc.equal(ha, hb),
                                  pa.scalar("unchanged"),
                                  pa.scalar("changed"))))
        return pa.table({"status": st.combine_chunks()
                         if isinstance(st, pa.ChunkedArray) else st})

    out = preagg_groupby(
        joined.map_batches(status, batch_format="pyarrow"),
        ["status"], [("n_docs", None, "count")])
    return out.sort_values("status").reset_index(drop=True)
