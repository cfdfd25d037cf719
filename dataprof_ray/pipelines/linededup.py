"""Cross-document LINE deduplication (C4-style corpus cleaning).

A line whose exact text occurs in more than ``max_docs`` distinct documents
is removed from EVERY document containing it (boilerplate navigation, cookie
banners, repeated headers). Whitespace-only lines are never candidates —
they carry formatting, not content, and removing "the empty line" corpus-wide
would mangle every document.

Scale design (the operator the reference lacks; extends its exact-dedup
family to sub-document granularity):

1. **Line counting** ships 16-byte identities, never line text: each batch
   splits its documents with the Arrow ``split_pattern`` kernel (C++,
   zero-copy), hashes every distinct (doc, line) once via two-seed polars
   xxhash (128 bits — collisions are ~2^-64 per pair, the same contract as
   the MD5/MinHash family), and pre-aggregates counts per hash INSIDE the
   batch. The shuffle therefore moves (hash128, partial_count) rows — O(
   distinct lines per batch), not O(line occurrences) — through
   ``partitioning.keyed_exchange`` on h1 (per-tiny-group Ray aggregates are
   the measured hotspot; one vectorized pandas sum per partition is not).
2. **The common-line set is TIERED on its measured size** (the count is
   one cheap aggregate over the pass-1 output). Below ``broadcast_limit``
   — the normal case; boilerplate is heavy-tailed — the driver assembles
   a sorted (n, 2) uint64 array and ``ray.put``s it once; every filter
   task memcpy-deserializes it (numpy, not boxed Python — see graft bench
   notes). Above the limit (a pathologically templated corpus at crawl
   scale) no O(common-lines) broadcast happens: only a Bloom filter of h1
   ships; Bloom-hit lines emit (h1, h2, doc, line_idx) candidate rows
   that exact-verify against the PARTITIONED common table on the h1
   bucket (a 128-bit compare, so false positives are dropped, never
   removed), and verified removals cogroup with the corpus on a 128-bit
   DOCUMENT-TEXT-hash bucket. Matching on text content rather than the id
   keeps the two tiers row-identical even for null or duplicate document
   ids: a line's removal depends only on its text, so identical documents
   share identical (correct) removal sets.
3. **Rewrite**: broadcast tier — embarrassingly parallel second pass, no
   shuffle, output blocks mirror input blocks; keyed tier — one
   all-to-all of the text (the price of bounding worker memory).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dataprof_ray.pipelines.partitioning import (DEFAULT_PARTITIONS,
                                                 arrow_schema, keyed_exchange)

_NEWLINE = "\n"
# explicit ASCII whitespace set, mirrored by the SQL oracle's
# TRIM(line, ...) — DuckDB's bare TRIM strips only spaces, Arrow's
# utf8_trim_whitespace strips all Unicode whitespace; pinning the set makes
# both engines agree on what a "whitespace-only" line is
_WS = " \t\r\n\x0b\x0c"


def _split_lines(batch: pa.Table, text_col: str, sep: str = _NEWLINE):
    """(flat segment StringArray, per-doc segment counts) via the Arrow
    kernel. Null text behaves like '' (one empty segment), matching the
    SQL oracle's ``coalesce(text, '')``. ``sep`` picks the granularity:
    '\n' for lines, '\n\n' for paragraphs."""
    texts = pc.fill_null(batch.column(text_col), "")
    lines = pc.split_pattern(texts, pattern=sep).combine_chunks()
    if isinstance(lines, pa.ChunkedArray):  # single-chunk after combine
        lines = lines.chunk(0)
    counts = np.diff(lines.offsets.to_numpy(zero_copy_only=False))
    return lines.flatten(), counts.astype(np.int64)


def _hash128(flat_lines) -> tuple[np.ndarray, np.ndarray]:
    """Two independent-seed 64-bit xxhashes per line (vectorized)."""
    import polars as pl

    s = pl.from_arrow(flat_lines)
    return (s.hash(seed=0).to_numpy().astype(np.uint64),
            s.hash(seed=1).to_numpy().astype(np.uint64))


def _pack(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """(n,) structured void16 view — sortable/searchable as one key."""
    a = np.empty((len(h1), 2), dtype=np.uint64)
    a[:, 0] = h1
    a[:, 1] = h2
    return np.ascontiguousarray(a).view(
        [("h1", np.uint64), ("h2", np.uint64)]).ravel()


def common_line_hashes(ds, text_col: str = "text", max_docs: int = 1,
                       partitions: int = DEFAULT_PARTITIONS,
                       sep: str = _NEWLINE):
    """Dataset of (h1, h2, n_docs) for candidate lines occurring in more
    than ``max_docs`` distinct documents. The counting exchange described in
    the module docstring; one row per over-threshold distinct line."""

    def partials(batch: pa.Table) -> pa.Table:
        flat, counts = _split_lines(batch, text_col, sep)
        trimmed = pc.utf8_trim(flat, characters=_WS)
        cand = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
        h1, h2 = _hash128(flat)
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        df = pd.DataFrame({"d": doc_idx[cand], "h1": h1[cand], "h2": h2[cand]})
        # distinct per doc, then count docs per line within the batch
        per = (df.drop_duplicates()
               .groupby(["h1", "h2"], sort=False).size().reset_index(name="n"))
        return pa.table({
            "h1": pa.array(per["h1"].to_numpy(), pa.uint64()),
            "h2": pa.array(per["h2"].to_numpy(), pa.uint64()),
            "n": pa.array(per["n"].to_numpy(), pa.int64()),
        })

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        tot = (df.groupby(["h1", "h2"], as_index=False, sort=False)["n"].sum()
               .rename(columns={"n": "n_docs"}))
        return tot[tot["n_docs"] > max_docs]

    return keyed_exchange(ds.map_batches(partials, batch_format="pyarrow"),
                          ["h1"], reduce_part, partitions=partitions,
                          batch_format="pandas")


def _doc_rows(id_arr, counts, flat, removed, include_text, sep, id_col,
              extra_cols):
    """Shared output assembly for both tiers: per-doc line accounting (+
    cleaned_text) from the flat line array and its removal mask."""
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    n_removed = np.bincount(doc_idx[removed],
                            minlength=len(counts)).astype(np.int64)
    cols = {
        id_col: id_arr,
        "n_lines": pa.array(counts, pa.int64()),
        "n_kept": pa.array(counts - n_removed, pa.int64()),
        "n_removed": pa.array(n_removed, pa.int64()),
    }
    if include_text:
        kept = flat.to_pandas().to_numpy()  # object array of lines
        offsets = np.concatenate([[0], np.cumsum(counts)])
        keep_mask = ~removed
        cols["cleaned_text"] = pa.array(
            [sep.join(kept[offsets[i]:offsets[i + 1]][
                keep_mask[offsets[i]:offsets[i + 1]]])
             for i in range(len(counts))], pa.string())
    cols.update(extra_cols)
    return pa.table(cols)


def line_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               max_docs: int = 1, partitions: int = DEFAULT_PARTITIONS,
               include_text: bool = True,
               keep_cols: Optional[list] = None,
               sep: str = _NEWLINE,
               broadcast_limit: int = 4_000_000,
               fp_rate: float = 1e-3):
    """Remove corpus-common lines from every document.

    Returns a Dataset with ``id_col``, per-document line accounting
    (``n_lines`` / ``n_kept`` / ``n_removed``), ``cleaned_text`` (unless
    ``include_text=False``), and any ``keep_cols`` passed through. Lines are
    ``text.split('\\n')``; a line is removed iff it is non-whitespace and its
    exact text appears in more than ``max_docs`` distinct documents.

    Two tiers, picked by the MEASURED common-line count (both emit the
    same rows): ``<= broadcast_limit`` distinct over-threshold lines (64 MB
    packed at the 4M default) broadcasts the sorted hash array and rewrites
    shuffle-free; above it — a pathologically templated corpus at crawl
    scale — NO O(common-lines) broadcast happens: a Bloom filter of h1
    broadcasts instead (~1.7 bytes/line at fp 1e-3), Bloom-hit lines emit
    (h1, h2, doc, line_idx) candidates that exact-verify against the
    partitioned common table on the h1 bucket (false positives fail the
    128-bit compare and are dropped), and surviving removals cogroup with
    the corpus on a 128-bit bucket of the full DOCUMENT text for the
    rewrite — one all-to-all of the text instead of the broadcast.
    Matching removals to documents by text hash (a removal depends only
    on line content) makes both tiers row-identical even for null or
    duplicate ``id_col`` values."""
    common_ds = common_line_hashes(ds, text_col=text_col, max_docs=max_docs,
                                   partitions=partitions,
                                   sep=sep).materialize()
    passthrough = list(keep_cols or [])
    if common_ds.count() <= broadcast_limit:
        return _line_dedup_broadcast(ds, common_ds, text_col, id_col,
                                     include_text, passthrough, sep)
    return _line_dedup_partitioned(ds, common_ds, text_col, id_col,
                                   include_text, passthrough, sep,
                                   partitions, fp_rate)


def _line_dedup_broadcast(ds, common_ds, text_col, id_col, include_text,
                          passthrough, sep):
    """Small-common-set tier: one sorted packed-hash broadcast, rewrite
    with zero shuffles."""
    import ray

    common = common_ds.to_pandas()
    if common.empty:  # a fully-empty result can drop its columns entirely
        common = pd.DataFrame({"h1": [], "h2": []})
    packed = np.sort(_pack(common["h1"].to_numpy(dtype=np.uint64),
                           common["h2"].to_numpy(dtype=np.uint64)))
    common_ref = ray.put(packed)

    def rewrite(batch: pa.Table) -> pa.Table:
        bc = _common_cached(common_ref)
        flat, counts = _split_lines(batch, text_col, sep)
        trimmed = pc.utf8_trim(flat, characters=_WS)
        cand = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
        removed = np.zeros(len(flat), dtype=bool)
        if len(bc) and cand.any():
            h1, h2 = _hash128(flat)
            keys = _pack(h1[cand], h2[cand])
            idx = np.searchsorted(bc, keys).clip(0, len(bc) - 1)
            removed[cand] = bc[idx] == keys
        return _doc_rows(batch.column(id_col), counts, flat, removed,
                         include_text, sep, id_col,
                         {c: batch.column(c) for c in passthrough})

    return ds.map_batches(rewrite, batch_format="pyarrow")


def _line_dedup_partitioned(ds, common_ds, text_col, id_col, include_text,
                            passthrough, sep, partitions, fp_rate):
    """Large-common-set tier: Bloom prefilter -> h1-bucket exact verify ->
    doc-bucket cogroup rewrite. Broadcast is the Bloom only."""
    import ray

    from dataprof_ray.state.bloom import bloom_from_u64_batches

    schema = arrow_schema(ds)
    id_type = schema.field(id_col).type
    keep_types = {c: schema.field(c).type for c in passthrough}
    n_common = common_ds.count()
    bloom = bloom_from_u64_batches(
        common_ds,
        lambda b: b.column("h1").to_numpy(zero_copy_only=False)
        .astype(np.uint64),
        n_common, fp_rate)
    bloom_ref = ray.put(bloom)

    def tag_common(batch: pa.Table) -> pa.Table:
        h1 = batch.column("h1").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        n = len(h1)
        return pa.table({
            "h1": pa.array(h1, pa.uint64()),
            "h2": batch.column("h2").cast(pa.uint64()),
            "__id": pa.nulls(n, id_type),
            "__li": pa.array(np.full(n, -1, np.int64)),
            "__t1": pa.nulls(n, pa.uint64()),
            "__t2": pa.nulls(n, pa.uint64()),
            "__side": pa.array(np.zeros(n, np.int8)),
        })

    def candidates(batch: pa.Table) -> pa.Table:
        from dataprof_ray.pipelines.textstats import _broadcast_cached

        bf = _broadcast_cached(bloom_ref)
        flat, counts = _split_lines(batch, text_col, sep)
        trimmed = pc.utf8_trim(flat, characters=_WS)
        cand = pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
        h1, h2 = _hash128(flat)
        hit = cand & bf.contains_u64(h1)
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        li = np.arange(len(flat), dtype=np.int64) - offsets[doc_idx]
        sel = np.flatnonzero(hit)
        # 128-bit hash of the FULL document text: the removal-to-document
        # match key (null/duplicate ids are irrelevant to it)
        t1d, t2d = _hash128(pc.fill_null(
            batch.column(text_col).cast(pa.string()), ""))
        return pa.table({
            "h1": pa.array(h1[sel], pa.uint64()),
            "h2": pa.array(h2[sel], pa.uint64()),
            "__id": batch.column(id_col).take(pa.array(doc_idx[sel])),
            "__li": pa.array(li[sel], pa.int64()),
            "__t1": pa.array(t1d[doc_idx[sel]], pa.uint64()),
            "__t2": pa.array(t2d[doc_idx[sel]], pa.uint64()),
            "__side": pa.array(np.ones(len(sel), np.int8)),
        })

    tagged = (common_ds.map_batches(tag_common, batch_format="pyarrow")
              .union(ds.map_batches(candidates, batch_format="pyarrow")))

    def null_keeps(n: int) -> dict:
        return {c: pa.nulls(n, keep_types[c]) for c in passthrough}

    def resolve(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        com = tbl.filter(pa.array(side == 0))
        cand = tbl.filter(pa.array(side == 1))
        ck = np.sort(_pack(
            com.column("h1").to_numpy(zero_copy_only=False).astype(np.uint64),
            com.column("h2").to_numpy(zero_copy_only=False).astype(np.uint64)))
        qk = _pack(
            cand.column("h1").to_numpy(zero_copy_only=False)
            .astype(np.uint64),
            cand.column("h2").to_numpy(zero_copy_only=False)
            .astype(np.uint64))
        if len(qk) and len(ck):
            idx = np.searchsorted(ck, qk).clip(0, len(ck) - 1)
            # exact 128-bit verify: Bloom false positives are dropped here
            rm = ck[idx] == qk
        else:
            rm = np.zeros(len(qk), dtype=bool)
        out = cand.filter(pa.array(rm))
        n = out.num_rows
        cols = {
            "__id": out.column("__id"),
            "__li": out.column("__li"),
            "__t1": out.column("__t1"),
            "__t2": out.column("__t2"),
            "__text": pa.nulls(n, pa.string()),
            "__side": pa.array(np.ones(n, np.int8)),
        }
        cols.update(null_keeps(n))
        return pa.table(cols)

    removals = keyed_exchange(tagged, ["h1"], resolve, partitions=partitions)

    def tag_docs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        filled = pc.fill_null(batch.column(text_col).cast(pa.string()), "")
        t1d, t2d = _hash128(filled)
        cols = {
            "__id": batch.column(id_col),
            "__li": pa.array(np.full(n, -1, np.int64)),
            "__t1": pa.array(t1d, pa.uint64()),
            "__t2": pa.array(t2d, pa.uint64()),
            "__text": filled,
            "__side": pa.array(np.zeros(n, np.int8)),
        }
        cols.update({c: batch.column(c) for c in passthrough})
        return pa.table(cols)

    def rewrite(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        docs = tbl.filter(pa.array(side == 0))
        rem = tbl.filter(pa.array(side == 1))
        flat, counts = _split_lines(docs, "__text", sep)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        removed = np.zeros(len(flat), dtype=bool)
        if rem.num_rows:
            # match on the 128-bit TEXT hash, not the id: immune to null /
            # duplicate ids, and identical texts correctly share removals
            rt1 = rem.column("__t1").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            rt2 = rem.column("__t2").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            groups = (pd.Series(rem.column("__li").to_numpy(
                zero_copy_only=False))
                .groupby([rt1, rt2], sort=False)
                .apply(np.asarray).to_dict())
            dt1 = docs.column("__t1").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            dt2 = docs.column("__t2").to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            for i in range(len(dt1)):
                js = groups.get((dt1[i], dt2[i]))
                if js is not None:
                    removed[offsets[i] + js] = True
        return _doc_rows(docs.column("__id"), counts, flat, removed,
                         include_text, sep, id_col,
                         {c: docs.column(c) for c in passthrough})

    return keyed_exchange(
        removals.union(ds.map_batches(tag_docs, batch_format="pyarrow")),
        ["__t1"], rewrite, partitions=partitions)


# per-worker cache for the broadcast common-line array (same pattern as
# dedup._VERIFY_SHINGLE_CACHE: stateless tasks, one object-store read per
# worker process, not per batch)
_COMMON_CACHE: dict = {}


def _common_cached(ref) -> np.ndarray:
    import ray

    key = ref.hex()
    arr = _COMMON_CACHE.get(key)
    if arr is None:
        arr = ray.get(ref)
        _COMMON_CACHE.clear()  # one live broadcast per worker
        _COMMON_CACHE[key] = arr
    return arr


# ------------------------------------------------- C4 heuristic line rules


_TERMINAL_PUNCT = ('.', '!', '?', '"')
_LOREM = "lorem ipsum"


def c4_line_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                  min_words: int = 5):
    """Per-document C4-style line-rule stats (Raffel et al. cleaning rules,
    the in-document complement of the cross-document dedup above): a line
    KEEPS only if, after stripping, it is non-blank, has >= ``min_words``
    whitespace words, and ends in terminal punctuation (. ! ? ").
    Doc-level flags: ``has_brace`` ('{' anywhere — C4 drops code pages) and
    ``has_lorem`` ('lorem ipsum' case-insensitive).

    Rules are categorized in order (blank -> short -> punct), so each
    dropped line lands in exactly one bucket:
    n_lines = n_blank + n_short + n_nopunct + n_kept.

    Streaming map_batches over the documents — no shuffle; emit keeps the
    stats, not rewritten text (compose with line_dedup for the rewrite)."""

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        rows = {k: [] for k in
                ("n_lines", "n_blank", "n_short", "n_nopunct", "n_kept",
                 "has_brace", "has_lorem")}
        for t in texts:
            t = t or ""
            lines = t.split("\n")
            blank = short = nopunct = kept = 0
            for ln in lines:
                s = ln.strip()
                if not s:
                    blank += 1
                elif len(s.split()) < min_words:
                    short += 1
                elif not s.endswith(_TERMINAL_PUNCT):
                    nopunct += 1
                else:
                    kept += 1
            rows["n_lines"].append(len(lines))
            rows["n_blank"].append(blank)
            rows["n_short"].append(short)
            rows["n_nopunct"].append(nopunct)
            rows["n_kept"].append(kept)
            rows["has_brace"].append(int("{" in t))
            rows["has_lorem"].append(int(_LOREM in t.lower()))
        cols = {id_col: batch.column(id_col)}
        cols.update({k: pa.array(v, pa.int64()) for k, v in rows.items()})
        return pa.table(cols)

    return ds.map_batches(stage, batch_format="pyarrow")


def paragraph_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                    max_docs: int = 1,
                    partitions: int = DEFAULT_PARTITIONS,
                    include_text: bool = True,
                    keep_cols: Optional[list] = None,
                    broadcast_limit: int = 4_000_000,
                    fp_rate: float = 1e-3):
    """Cross-document PARAGRAPH dedup: ``line_dedup`` at blank-line
    granularity (segments split on '\n\n'). Catches multi-line
    boilerplate blocks (footers, license headers, nav sections) that
    line-level dedup only removes piecemeal. Same scale shape and the
    same two tiers: 16-byte segment hashes shuffle; the over-threshold
    set broadcasts below ``broadcast_limit`` (shuffle-free rewrite), and
    switches to the Bloom-prefiltered keyed rewrite above it."""
    return line_dedup(ds, text_col=text_col, id_col=id_col,
                      max_docs=max_docs, partitions=partitions,
                      include_text=include_text, keep_cols=keep_cols,
                      sep="\n\n", broadcast_limit=broadcast_limit,
                      fp_rate=fp_rate)


def within_doc_line_dedup(ds, text_col: str = "text",
                          id_col: str = "doc_id",
                          include_text: bool = True):
    """WITHIN-document line dedup: inside each document, a repeated
    non-whitespace line keeps only its FIRST occurrence (repeated nav
    blocks, duplicated paragraphs from sloppy extraction); whitespace-only
    lines always survive (formatting, not content). The in-doc complement
    of the cross-doc :func:`line_dedup` — compose both for full C4-style
    cleaning.

    Embarrassingly parallel: one stateless ``map_batches`` pass, no
    shuffle, no broadcast; output blocks mirror input blocks. Emits
    (id, n_lines, n_kept, n_removed[, cleaned_text])."""

    def rewrite(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        n_lines, n_kept, cleaned = [], [], []
        for t in texts:
            lines = (t or "").split("\n")
            seen: set = set()
            kept = []
            for ln in lines:
                if not ln.strip(_WS):
                    kept.append(ln)
                elif ln not in seen:
                    seen.add(ln)
                    kept.append(ln)
            n_lines.append(len(lines))
            n_kept.append(len(kept))
            cleaned.append("\n".join(kept))
        cols = {
            id_col: batch.column(id_col),
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_kept": pa.array(n_kept, pa.int64()),
            "n_removed": pa.array(
                np.asarray(n_lines) - np.asarray(n_kept), pa.int64()),
        }
        if include_text:
            cols["cleaned_text"] = pa.array(cleaned, pa.string())
        return pa.table(cols)

    return ds.select_columns([id_col, text_col]).map_batches(
        rewrite, batch_format="pyarrow")
