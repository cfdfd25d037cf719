"""Distributed character-trigram LM training + corpus-trained perplexity.

The flagship perplexity stage (quality_filter.PerplexityStage) scores
against the fixed miniature English model. This module trains the SAME
model family on the corpus itself — the KenLM-style workflow of the north
rule — entirely as Ray Data aggregations:

1. **Counting** is a per-batch dense `np.bincount` over trigram cell ids
   (one numpy pass, no Python char loops), emitted as SPARSE
   (cell, count) partials. The model state is tiny and FIXED —
   (29*29) contexts x 29 next-chars = 24,389 cells — so every exchange is
   bounded by the vocabulary, never the corpus: a batch contributes at most
   24,389 rows regardless of how many documents it holds.
2. **Reduction** is the repo-standard ``partitioning.keyed_exchange``
   on the cell id: cells shuffle into 64 partitions, one
   vectorized pandas sum each, and the driver collects <= 24,389
   (cell, count) rows total — independent of corpus size.
3. **Scoring** broadcasts the trained log-prob matrix once via ``ray.put``;
   stateless tasks fetch it from the object store once per WORKER PROCESS
   (module-level cache keyed by the ref — no actor-pool spin-up, which
   measurably dominated wall time on small corpora) and score batches
   vectorized.

Trigrams are counted PER DOCUMENT (no cross-document context): document
boundaries are real discontinuities in a corpus, exactly like the
sentence-boundary handling of real LM tokenizers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from dataprof_ray.functions.docquality import TrigramLM
from dataprof_ray.pipelines.partitioning import (DEFAULT_PARTITIONS,
                                                 keyed_exchange)

_V = len(TrigramLM.VOCAB)
_CELLS = _V * _V * _V


# Per-worker-process caches so both passes run as STATELESS tasks (no
# actor-pool spin-up — the pools measurably dominated wall time on small
# corpora): the 256-entry charmap is built once per worker, and the trained
# log-prob matrix is fetched from the object store once per (worker, ref).
_CHARMAP_CACHE: dict = {}
_LOGPROB_CACHE: dict = {}


def _charmap() -> TrigramLM:
    lm = _CHARMAP_CACHE.get("lm")
    if lm is None:
        lm = TrigramLM.__new__(TrigramLM)
        lm._init_charmap()
        _CHARMAP_CACHE["lm"] = lm
    return lm


def _count_batch(batch: pa.Table, text_col: str) -> pa.Table:
    lm = _charmap()
    v = lm.v
    # collect per-doc cell ids, ONE bincount per batch: a per-doc
    # bincount(minlength=24389) would pay an O(cells) allocation+add per
    # document regardless of its length
    cell_arrays = []
    for t in batch.column(text_col).to_pylist():
        idx = lm._indices(t or "")
        if len(idx) < 3:
            continue
        cell_arrays.append((idx[:-2] * v + idx[1:-1]) * v + idx[2:])
    if cell_arrays:
        dense = np.bincount(np.concatenate(cell_arrays), minlength=_CELLS)
    else:
        dense = np.zeros(_CELLS, dtype=np.int64)
    nz = np.nonzero(dense)[0]
    return pa.table({
        "cell": pa.array(nz.astype(np.int64), pa.int64()),
        "count": pa.array(dense[nz], pa.int64()),
    })


def train_trigram_lm(ds, text_col: str = "text",
                     partitions: int = DEFAULT_PARTITIONS) -> TrigramLM:
    """Count trigrams over the corpus (per document) and return the
    add-one-smoothed ``TrigramLM`` built from the merged counts."""
    def reduce_cells(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("cell", as_index=False, sort=False)["count"].sum()

    counts = ds.map_batches(lambda b: _count_batch(b, text_col),
                            batch_format="pyarrow")
    merged = keyed_exchange(counts, ["cell"], reduce_cells,
                            partitions=partitions,
                            batch_format="pandas").to_pandas()
    raw = np.zeros(_CELLS, dtype=np.int64)
    raw[merged["cell"].to_numpy()] = merged["count"].to_numpy()
    return TrigramLM.from_counts(raw.reshape(_V * _V, _V))


def _score_batch(batch: pa.Table, log_prob_ref, text_col: str,
                 id_col: str) -> pa.Table:
    import ray

    key = log_prob_ref.hex()
    lm = _LOGPROB_CACHE.get(key)
    if lm is None:
        lm = TrigramLM.__new__(TrigramLM)
        lm._init_charmap()
        lm.log_prob = ray.get(log_prob_ref)
        _LOGPROB_CACHE.clear()  # one model per worker is plenty
        _LOGPROB_CACHE[key] = lm
    texts = batch.column(text_col).to_pylist()
    ppl = lm.perplexity_batch(texts)
    return pa.table({
        id_col: batch.column(id_col),
        "corpus_ppl": pa.array(ppl, pa.float64()),
    })


def corpus_perplexity(ds, lm: Optional[TrigramLM] = None,
                      text_col: str = "text", id_col: str = "doc_id"):
    """Per-document perplexity under a CORPUS-trained trigram LM (trained
    here if not supplied). Self-scoring is the classic in-domain signal:
    boilerplate and templated spam score low (predictable), gibberish and
    off-language text score high."""
    import ray

    lm = lm or train_trigram_lm(ds, text_col=text_col)
    ref = ray.put(lm.log_prob)
    return ds.map_batches(
        lambda b: _score_batch(b, ref, text_col, id_col),
        batch_format="pyarrow",
    )


def perplexity_buckets(ds, lm=None, buckets: int = 3,
                       text_col: str = "text", id_col: str = "doc_id",
                       sketch_k: int = 2048):
    """CCNet-style perplexity bucketing (Wenzek et al. 2019: split the
    corpus into head/middle/tail by LM perplexity; train on the head,
    inspect the tail). Pipeline: score every document under the
    corpus-trained trigram LM, estimate the ``buckets - 1`` cutoffs with
    the mergeable quantile sketch (the boundaries never need the column
    co-located), broadcast them, and assign ``bucket = #cutoffs below
    ppl`` in a final streaming pass (bucket 0 = head / most predictable).

    Scale design: the scored dataset is materialized once (it feeds both
    the sketch fold and the assignment); the sketch reduction moves
    ``sketch_k x blocks`` points regardless of corpus size; cutoffs are a
    tiny broadcast. Bucket sizes are approximately equal (sketch rank
    error O(depth/k) — the pytest pin allows the documented tolerance)."""
    import ray

    from dataprof_ray.pipelines.aggregate import sketch_from_column

    if buckets < 2:
        raise ValueError(f"buckets must be >= 2, got {buckets}")
    scored = corpus_perplexity(ds, lm, text_col=text_col,
                               id_col=id_col).materialize()
    merged = sketch_from_column(scored, "corpus_ppl", sketch_k)
    cuts = np.array([merged.quantile(i / buckets)
                     for i in range(1, buckets)], dtype=np.float64)
    cuts_ref = ray.put(cuts)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cuts_ref)
        ppl = batch.column("corpus_ppl").to_numpy(zero_copy_only=False)
        b = np.searchsorted(c, ppl, side="right").astype(np.int64)
        return batch.append_column("bucket", pa.array(b, pa.int64()))

    return scored.map_batches(assign, batch_format="pyarrow")
