"""Text-analysis operators over a documents table (doc_id, text, lang, ...).

Each operator is a streaming map_batches (or partial-aggregate + tiny
groupby) and has a matching DuckDB oracle in __ray_entry__.oracle_sql where
SQL can express it. Token definition is pinned: non-empty runs split on
whitespace (``\\s+``) — identical in Python and in the SQL oracle
(regexp_split_to_array).
"""

from __future__ import annotations

import hashlib
import re
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dataprof_ray.pipelines.partitioning import keyed_exchange

_WS_SPLIT = re.compile(r"\s+")

# per-worker-process cache for ray.put broadcasts consumed by stateless
# tasks: one object-store fetch + deserialize per worker, not per batch.
# Holds a FEW entries (FIFO-evicted), not one: a fused task chain of
# several broadcast stages (e.g. three chained broadcast_joins) alternates
# refs on EVERY batch, and a single-slot cache would re-deserialize each
# broadcast per batch. Memory stays bounded — broadcasts are <= the 64 MB
# tier ceilings by contract, and the one legitimately-large broadcast
# (a decontam Bloom) is used alone in its pipeline.
_BROADCAST_CACHE: dict = {}
_BROADCAST_CACHE_SLOTS = 4


def _broadcast_cached(ref):
    import ray

    key = ref.hex()
    obj = _BROADCAST_CACHE.get(key)
    if obj is None:
        obj = ray.get(ref)
        while len(_BROADCAST_CACHE) >= _BROADCAST_CACHE_SLOTS:
            _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
        _BROADCAST_CACHE[key] = obj
    return obj

# BPE-ish subword token estimate: runs of letters, digits, or single
# punctuation — a deterministic stand-in for a real tokenizer's token count.
_BPE_ISH = re.compile(r"[A-Za-z]+|[0-9]|[^\sA-Za-z0-9]")


def token_count(text: str) -> int:
    t = (text or "").strip()
    return len(_WS_SPLIT.split(t)) if t else 0


def bpe_ish_count(text: str) -> int:
    return len(_BPE_ISH.findall(text or ""))


def token_stats_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    n_tokens = np.fromiter((token_count(t) for t in texts), dtype=np.int64, count=len(texts))
    n_subwords = np.fromiter((bpe_ish_count(t) for t in texts), dtype=np.int64, count=len(texts))
    n_chars = pc.utf8_length(batch.column(text_col))
    return pa.table({
        id_col: batch.column(id_col),
        "n_chars": pc.cast(n_chars, pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
        "n_subwords": pa.array(n_subwords, pa.int64()),
    })


def token_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document character / whitespace-token / BPE-ish counts."""
    return ds.map_batches(
        lambda b: token_stats_stage(b, text_col, id_col), batch_format="pyarrow"
    )


def fingerprint_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Document fingerprints: md5 hex + a 64-bit rolling (polynomial) hash."""
    texts = batch.column(text_col).to_pylist()
    md5s = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
    rolls = np.fromiter((_rolling_hash(t or "") for t in texts), dtype=np.uint64, count=len(texts))
    return pa.table({
        id_col: batch.column(id_col),
        "md5": pa.array(md5s, pa.string()),
        "rolling_hash": pa.array(rolls, pa.uint64()),
    })


_ROLL_BASE = np.uint64(1099511628211)  # FNV-ish multiplier


def _rolling_hash(text: str) -> int:
    h = np.uint64(14695981039346656037)
    with np.errstate(over="ignore"):
        for b in text.encode("utf-8"):
            h = (h ^ np.uint64(b)) * _ROLL_BASE
    return int(h)


def fingerprints(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        lambda b: fingerprint_stage(b, text_col, id_col), batch_format="pyarrow"
    )


def top_terms(ds, k: int = 20, text_col: str = "text", min_len: int = 1):
    """Corpus-wide term frequency top-k — ``top_ngrams`` with n=1.
    ``min_len`` drops tokens shorter than the bound before counting."""
    return top_ngrams(ds, n=1, k=k, text_col=text_col, min_len=min_len)


def top_ngrams(ds, n: int = 2, k: int = 20, text_col: str = "text",
               min_len: int = 1):
    """Corpus-wide word n-gram frequency top-k (n=1 is ``top_terms``).
    Scale pattern: per-batch partial Counter -> groupby(term).sum over
    partials -> driver sorts the small aggregate; the shuffle moves n-gram
    partials, never documents. N-grams are space-joined lowercase tokens,
    matching the DuckDB oracle's ``arr[i] || ' ' || arr[i+1]``
    construction. ``min_len`` filters tokens BEFORE gram assembly (for
    n>1 this changes adjacency; leave it at 1 for oracle-aligned runs)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            toks = _WS_SPLIT.split((t or "").lower().strip())
            if toks == [""]:
                continue
            if min_len > 1:
                toks = [w for w in toks if len(w) >= min_len]
            for i in range(len(toks) - n + 1):
                counts[" ".join(toks[i: i + n])] += 1
        if not counts:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        terms, values = zip(*counts.items())
        return pa.table({"term": pa.array(terms, pa.string()),
                         "cnt": pa.array(values, pa.int64())})

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="term_count"))
        .to_pandas()
    )
    return (
        agg.sort_values(["term_count", "term"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


_UPPER = re.compile(r"[A-Z]")
_DIGIT = re.compile(r"[0-9]")
_ALPHA = re.compile(r"[A-Za-z]")
_SPACE = re.compile(r"\s")


def char_classes_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-document ASCII character-class counts. Integer-exact and pinned to
    RE2-compatible classes so the DuckDB oracle (regexp_extract_all) matches
    bit-for-bit — unlike ``str.isupper``-style unicode predicates."""
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    n_chars = np.zeros(n, dtype=np.int64)
    n_upper = np.zeros(n, dtype=np.int64)
    n_digit = np.zeros(n, dtype=np.int64)
    n_alpha = np.zeros(n, dtype=np.int64)
    n_space = np.zeros(n, dtype=np.int64)
    for i, t in enumerate(texts):
        t = t or ""
        n_chars[i] = len(t)
        n_upper[i] = len(_UPPER.findall(t))
        n_digit[i] = len(_DIGIT.findall(t))
        n_alpha[i] = len(_ALPHA.findall(t))
        n_space[i] = len(_SPACE.findall(t))
    return pa.table({
        id_col: batch.column(id_col),
        "n_chars": pa.array(n_chars, pa.int64()),
        "n_upper": pa.array(n_upper, pa.int64()),
        "n_digit": pa.array(n_digit, pa.int64()),
        "n_alpha": pa.array(n_alpha, pa.int64()),
        "n_space": pa.array(n_space, pa.int64()),
    })


def char_classes(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        lambda b: char_classes_stage(b, text_col, id_col), batch_format="pyarrow"
    )


def langid(ds):
    """Language-ID over a documents table (stateless tasks; the model is
    built once per worker process)."""
    from dataprof_ray.functions.docquality import LangIdModel, shared_model

    def stage(batch: pa.Table) -> pa.Table:
        langs, confs = shared_model(LangIdModel).predict_batch(
            batch.column("text").to_pylist())
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "langid": pa.array(langs, pa.string()),
            "langid_conf": pa.array(confs, pa.float64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


def doc_quality(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Per-document heuristic quality metrics (SQL-checkable: classes are
    the same ASCII regex sets as char_classes — unicode predicates like
    str.isupper would silently diverge from the oracle — and rounding is
    half-away like SQL ROUND)."""
    from dataprof_ray.pipelines.aggregate import round_away

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        n = len(texts)
        n_chars = np.zeros(n, dtype=np.int64)
        n_tokens = np.zeros(n, dtype=np.int64)
        avg_token_len = np.zeros(n, dtype=np.float64)
        uppercase_ratio = np.zeros(n, dtype=np.float64)
        digit_ratio = np.zeros(n, dtype=np.float64)
        for i, t in enumerate(texts):
            t = t or ""
            n_chars[i] = len(t)
            toks = _WS_SPLIT.split(t.strip()) if t.strip() else []
            n_tokens[i] = len(toks)
            avg_token_len[i] = (sum(len(w) for w in toks) / len(toks)) if toks else 0.0
            if t:
                uppercase_ratio[i] = len(_UPPER.findall(t)) / len(t)
                digit_ratio[i] = len(_DIGIT.findall(t)) / len(t)
        return pa.table({
            id_col: batch.column(id_col),
            "n_chars": pa.array(n_chars, pa.int64()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "avg_token_len": pa.array(round_away(avg_token_len, 4), pa.float64()),
            "uppercase_ratio": pa.array(round_away(uppercase_ratio, 4), pa.float64()),
            "digit_ratio": pa.array(round_away(digit_ratio, 4), pa.float64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


def repetition_stats_stage(batch: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Per-document repetition signals (Gopher-style quality rules, Rae et
    al. 2021 §A1.1): duplicate-token fraction (1 - distinct/total) and the
    fraction of bigram occurrences taken by the most frequent bigram. High
    values flag boilerplate / machine-generated pages that length and
    stop-word checks miss. Token definition matches the module contract
    (lowercased, ``\\s+`` split); fractions round half-away (4 places) to
    align with the SQL oracle."""
    from collections import Counter

    from dataprof_ray.pipelines.aggregate import round_away

    ids = batch.column(id_col)
    n_words, dup_frac, top_bigram_frac = [], [], []
    for t in batch.column(text_col).to_pylist():
        toks = _WS_SPLIT.split((t or "").lower().strip())
        if toks == [""]:
            toks = []
        nw = len(toks)
        n_words.append(nw)
        dup_frac.append(1.0 - len(set(toks)) / nw if nw else 0.0)
        if nw >= 2:
            counts = Counter(zip(toks, toks[1:]))
            top_bigram_frac.append(max(counts.values()) / (nw - 1))
        else:
            top_bigram_frac.append(0.0)
    return pa.table({
        id_col: ids,
        "n_words": pa.array(n_words, pa.int64()),
        "dup_word_frac": pa.array(round_away(dup_frac, 4), pa.float64()),
        "top_bigram_frac": pa.array(round_away(top_bigram_frac, 4),
                                    pa.float64()),
    })


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Streaming per-document repetition signals: one stateless map_batches,
    no shuffle (output rides the input's partitioning)."""
    return ds.map_batches(
        lambda b: repetition_stats_stage(b, text_col, id_col),
        batch_format="pyarrow")


def doc_frequency(ds, k: int = 50, text_col: str = "text",
                  partitions: int = None):
    """Top-``k`` terms by DOCUMENT frequency, with smoothed IDF
    (``ln((N+1)/(df+1)) + 1``, rounded half-away-from-zero to 6 decimals —
    the sklearn-style smooth variant). ``N`` counts ALL documents; terms
    come only from documents with non-empty stripped text (the same token
    definition as ``top_terms``: lowercase, split on ``\\s+``).

    Scale design: per-batch partial df Counters over per-doc UNIQUE tokens
    (the exchange moves term partials, never documents), through one
    ``keyed_exchange`` on the term (pipelines.partitioning — Ray's
    per-term groups are the measured per-tiny-group hotspot top_ngrams
    tolerates only because its partial vocabulary is small). Each partition reduces and keeps its own
    top-k (a term lives wholly in one partition, so the global top-k is a
    driver-side merge of 64 x k candidate rows)."""
    import math
    from collections import Counter

    import pandas as pd

    from dataprof_ray.pipelines.aggregate import round_away

    n_docs = ds.count()

    def partials(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            toks = _WS_SPLIT.split((t or "").lower().strip())
            if toks == [""]:
                continue
            counts.update(set(toks))
        if not counts:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        terms, values = zip(*counts.items())
        return pa.table({"term": pa.array(terms, pa.string()),
                         "df": pa.array(values, pa.int64())})

    def reduce_topk(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("term", as_index=False, sort=False)["df"].sum()
        return (tot.sort_values(["df", "term"], ascending=[False, True])
                .head(k))

    cand = keyed_exchange(ds.map_batches(partials, batch_format="pyarrow"),
                          ["term"], reduce_topk, partitions=partitions,
                          batch_format="pandas").to_pandas()
    out = (cand.sort_values(["df", "term"], ascending=[False, True])
           .head(k).reset_index(drop=True)
           .rename(columns={"df": "doc_freq"}))
    out["idf"] = [round_away(math.log((n_docs + 1.0) / (d + 1.0)) + 1.0, 6)
                  for d in out["doc_freq"]]
    return out


def gopher_signals(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document Gopher-style quality signals (Rae et al. heuristics,
    computed by ``functions.docquality.doc_metrics`` — the same kernels the
    flagship quality filter thresholds on, exposed here as an
    oracle-checkable per-doc table over the documents corpus):

    n_words, mean_word_len, symbol_ratio, alpha_word_ratio, stopword_count,
    bullet_line_frac, ellipsis_line_frac, duplicate_line_frac,
    has_boilerplate (int 0/1). Fractions rounded half-away-from-zero to 4
    decimals to match the DuckDB oracle.

    Streaming map_batches — no shuffle; per-doc scans are regex/str kernels
    compiled at module import."""
    from dataprof_ray.functions.docquality import doc_metrics
    from dataprof_ray.pipelines.aggregate import round_away

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ms = [doc_metrics(t or "") for t in texts]
        r4 = lambda vals: pa.array(round_away(np.array(vals, np.float64), 4),
                                   pa.float64())
        return pa.table({
            id_col: batch.column(id_col),
            "n_words": pa.array([m.n_words for m in ms], pa.int64()),
            "mean_word_len": r4([m.mean_word_len for m in ms]),
            "symbol_ratio": r4([m.symbol_ratio for m in ms]),
            "alpha_word_ratio": r4([m.alpha_word_ratio for m in ms]),
            "stopword_count": pa.array([m.stopword_count for m in ms],
                                       pa.int64()),
            "bullet_line_frac": r4([m.bullet_line_frac for m in ms]),
            "ellipsis_line_frac": r4([m.ellipsis_line_frac for m in ms]),
            "duplicate_line_frac": r4([m.duplicate_line_frac for m in ms]),
            "has_boilerplate": pa.array(
                [int(m.has_boilerplate) for m in ms], pa.int64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


def tfidf_top_terms(ds, k: int = 3, vocab_size: int = 1000,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Top-``k`` TF-IDF terms per document over a BOUNDED vocabulary: the
    ``vocab_size`` highest-document-frequency terms (ties broken term ASC),
    with the smoothed IDF from ``doc_frequency``. Scores are
    ``tf * idf`` rounded half-away-from-zero to 4 decimals; per-doc ties
    break (tfidf DESC, term ASC). Docs containing no vocabulary term emit
    no rows.

    Scale design: the vocabulary is the broadcast small side (``ray.put`` of
    a term->idf dict built from the distributed df aggregation — 64 coarse
    partitions, term partials only ever shuffle as (term, count) rows); the
    scoring pass is then a pure streaming map_batches over the corpus with
    no shuffle. Vocabulary size bounds driver and worker memory at
    O(vocab_size), independent of corpus size."""
    from collections import Counter

    import ray

    from dataprof_ray.pipelines.aggregate import round_away

    vocab_df = doc_frequency(ds, k=vocab_size, text_col=text_col)
    idf = dict(zip(vocab_df["term"], vocab_df["idf"]))
    idf_ref = ray.put(idf)

    def score(batch: pa.Table) -> pa.Table:
        vocab = _broadcast_cached(idf_ref)
        ids, terms, tfs, scores = [], [], [], []
        for i, t in zip(batch.column(id_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            toks = _WS_SPLIT.split((t or "").lower().strip())
            if toks == [""]:
                continue
            counts = Counter(tok for tok in toks if tok in vocab)
            best = sorted(counts.items(),
                          key=lambda kv: (-kv[1] * vocab[kv[0]], kv[0]))[:k]
            for term, tf in best:
                ids.append(i)
                terms.append(term)
                tfs.append(tf)
                scores.append(float(round_away(tf * vocab[term], 4)))
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "term": pa.array(terms, pa.string()),
            "tf": pa.array(tfs, pa.int64()),
            "tfidf": pa.array(scores, pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def make_normalizer(nfc: bool = True, strip_accents: bool = True,
                    lowercase: bool = True, collapse_ws: bool = True):
    """str -> str canonical normalizer in a PINNED order: NFC -> strip
    accents (NFD, drop combining marks, NFC) -> lowercase -> collapse
    whitespace runs to one space + strip ends. Each step independently
    toggleable; all four match DuckDB's nfc_normalize / strip_accents /
    LOWER / REGEXP_REPLACE so oracles replicate the exact composition.
    The whitespace collapse uses Python's unicode ``\\s``; its RE2/DuckDB
    spelling is ``[\\t-\\r\\x1c-\\x1f\\x85\\p{Z}]`` (verified equal in
    tests over NBSP / thin space / ideographic space / NEL / \\u2028)."""
    import unicodedata

    def norm_one(t: Optional[str]) -> str:
        s = t or ""
        if nfc:
            s = unicodedata.normalize("NFC", s)
        if strip_accents:
            s = unicodedata.normalize(
                "NFC",
                "".join(c for c in unicodedata.normalize("NFD", s)
                        if unicodedata.category(c) != "Mn"))
        if lowercase:
            s = s.lower()
        if collapse_ws:
            s = _WS_SPLIT.sub(" ", s).strip()
        return s

    return norm_one


def normalize_text(ds, text_col: str = "text", id_col: str = "doc_id",
                   nfc: bool = True, strip_accents: bool = True,
                   lowercase: bool = True, collapse_ws: bool = True):
    """Canonical text normalization for dedup/tokenization pipelines (see
    ``make_normalizer`` for the pinned step order). Emits (id, norm_text,
    changed 0/1). Stateless streaming map_batches — no shuffle."""
    norm_one = make_normalizer(nfc, strip_accents, lowercase, collapse_ws)

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        out = [norm_one(t) for t in texts]
        changed = [int(o != (t or "")) for o, t in zip(out, texts)]
        return pa.table({
            id_col: batch.column(id_col),
            "norm_text": pa.array(out, pa.string()),
            "changed": pa.array(changed, pa.int64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


def compression_ratio_stage(batch: pa.Table, text_col: str = "text",
                            id_col: str = "doc_id",
                            level: int = 6) -> pa.Table:
    import zlib

    from dataprof_ray.pipelines.aggregate import round_away

    texts = batch.column(text_col).to_pylist()
    n_bytes, n_comp = [], []
    for t in texts:
        raw = (t or "").encode("utf-8")
        n_bytes.append(len(raw))
        n_comp.append(len(zlib.compress(raw, level)))
    b = np.asarray(n_bytes, dtype=np.float64)
    c = np.asarray(n_comp, dtype=np.float64)
    ratio = round_away(np.divide(c, b, out=np.zeros_like(c),
                                 where=b > 0), 4)
    return pa.table({
        id_col: batch.column(id_col),
        "n_bytes": pa.array(n_bytes, pa.int64()),
        "n_compressed": pa.array(n_comp, pa.int64()),
        "compression_ratio": pa.array(ratio, pa.float64()),
    })


def compression_ratio(ds, text_col: str = "text", id_col: str = "doc_id",
                      level: int = 6):
    """Per-document zlib compression ratio — the classic cheap
    repetition/boilerplate quality signal (highly repetitive or
    templated pages compress far below ~0.4x; random/encrypted blobs
    sit near 1.0). Deterministic: zlib output is a pure function of
    (bytes, level) for a given zlib build, so values are pinned by a
    golden test rather than a SQL oracle. Stateless streaming scan, no
    shuffle."""
    from functools import partial

    return ds.map_batches(
        partial(compression_ratio_stage, text_col=text_col, id_col=id_col,
                level=level),
        batch_format="pyarrow")


def heavy_hitters_cms(ds, k: int = 20, n: int = 1, width: int = 2 ** 16,
                      depth: int = 4, text_col: str = "text",
                      min_len: int = 1, candidates_per_batch: int = None):
    """Bounded-memory top-k terms/n-grams via a count-min sketch — the
    scale path for when the distinct-gram universe outgrows the exact
    partial-Counter shuffle of :func:`top_ngrams` (open-vocabulary
    n-grams at 100 TB). Each batch emits ONE row: its CMS partial
    (``depth x width`` int64, shape-validated merge) plus its local
    top-``candidates_per_batch`` terms; the driver folds the sketches,
    estimates every candidate against the MERGED sketch (estimates never
    undercount), and keeps the global top-k.

    Contract: counts are CMS estimates, ``true <= est <= true +
    error_bound()``; the candidate union can miss a globally-heavy term
    that is locally light EVERYWHERE (rare for true heavy hitters —
    `heavy_hitters_cms_audit` measures recall against the exact path).
    Tokenization matches :func:`top_ngrams` exactly."""
    from collections import Counter

    import pandas as pd
    import polars as pl

    from dataprof_ray.state.cms import CountMinSketch

    m = candidates_per_batch or max(4 * k, 64)

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            toks = _WS_SPLIT.split((t or "").lower().strip())
            if toks == [""]:
                continue
            if min_len > 1:
                toks = [w for w in toks if len(w) >= min_len]
            for i in range(len(toks) - n + 1):
                counts[" ".join(toks[i: i + n])] += 1
        cms = CountMinSketch(width, depth)
        if counts:
            terms = list(counts.keys())
            vals = np.fromiter(counts.values(), dtype=np.int64,
                               count=len(terms))
            keys = pl.Series(terms).hash(seed=0).to_numpy().astype(np.uint64)
            cms.add_u64(keys, vals)
        cand = [t for t, _ in sorted(counts.items(),
                                     key=lambda kv: (-kv[1], kv[0]))[:m]]
        return pa.table({
            "counts": pa.array([cms.counts.tobytes()], pa.large_binary()),
            "total": pa.array([cms.total], pa.int64()),
            "cand": pa.array([cand], pa.list_(pa.string())),
        })

    merged = CountMinSketch(width, depth)
    candidates: set = set()
    for part in (ds.select_columns([text_col])
                 .map_batches(partial, batch_format="pyarrow",
                              batch_size=None)
                 .iter_batches(batch_format="pyarrow")):
        for counts, total, cand in zip(part.column("counts").to_pylist(),
                                       part.column("total").to_pylist(),
                                       part.column("cand").to_pylist()):
            merged.merge_bytes(counts, total)
            candidates.update(cand)
    if not candidates:
        return pd.DataFrame({"term": pd.Series([], dtype=str),
                             "est_count": pd.Series([], dtype="int64")})
    terms = sorted(candidates)
    keys = pl.Series(terms).hash(seed=0).to_numpy().astype(np.uint64)
    est = merged.estimate_u64(keys)
    out = (pd.DataFrame({"term": terms, "est_count": est})
           .sort_values(["est_count", "term"], ascending=[False, True])
           .head(k).reset_index(drop=True))
    out.attrs["error_bound"] = merged.error_bound()
    return out
