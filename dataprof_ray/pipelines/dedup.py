"""Deduplication family for training-data pipelines.

Five dedup modes over a document table (id, text) or embedding table:

- exact:        content hash -> hash-partitioned groupby -> keep smallest id.
- minhash_lsh:  char-shingle MinHash signatures -> banded LSH buckets ->
                candidate pairs -> (optional) exact Jaccard verify ->
                connected components -> canonical id per cluster.
- simhash:      64-bit SimHash -> 4x16-bit band buckets -> Hamming verify.
- ngram_jaccard: exact n-gram Jaccard verification over LSH candidates.
- embedding:    random-hyperplane LSH buckets over vectors -> cosine verify.

Scale design: every mode is (vectorized per-batch sketch) -> (groupby over
*small* derived keys, never raw documents) -> (pair verify on candidates
only). The all-to-all exchange moves signatures (bytes per doc), not text,
and every exchange is ``partitioning.keyed_exchange`` on a hash or id
column the operator already computes (``semantic_dedup``, one group per
centroid cell, is the exception).
Candidate-pair graphs are clustered with iterative min-label propagation
expressed as exchanges (``connected_components``: hash-to-min local
contraction, one keyed exchange per round until the state's
order-independent hash stabilizes), so the driver never materializes the
edge list; only the final
(id, canonical_id) membership table — bounded by the duplicate-doc count —
comes back.

The reference counts duplicates but never materializes deduped output
(streaming_stats.rs:428-482, uniqueness.rs:73-122); these operators extend
that capability to actual dedup, as required for corpus curation.
"""

from __future__ import annotations

import logging
import re
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from dataprof_ray.pipelines.partitioning import (DEFAULT_PARTITIONS,
                                                 arrow_out, arrow_schema,
                                                 keyed_exchange)

logger = logging.getLogger(__name__)

_MERSENNE = (1 << 61) - 1


def _shingles(text: str, shingle_k: int) -> list:
    """Sorted distinct char k-shingles of a normalized document — the ONE
    normalization shared by signature generation and Jaccard verification
    (a divergence would silently desync candidates from verification)."""
    norm = re.sub(r"\s+", " ", (text or "").lower()).strip()
    if len(norm) < shingle_k:
        norm = norm + " " * (shingle_k - len(norm))
    return sorted({norm[i: i + shingle_k] for i in range(len(norm) - shingle_k + 1)})


def _token_hashes(text: str, shingle_k: int) -> np.ndarray:
    """Hashes of the char k-shingles of a normalized document."""
    import polars as pl

    return pl.Series(_shingles(text, shingle_k)).hash(seed=0).to_numpy().astype(np.uint64)


def _minhash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Multiply-shift permutation family: odd multipliers + offsets, applied
    with natural uint64 wraparound (a universal family; deterministic)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(num_perm,) uint64 signature: min over (a*h + b) mod 2^64 per perm."""
    if len(shingle_hashes) == 0:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        vals = a[:, None] * shingle_hashes[None, :] + b[:, None]  # u64 wraparound
    return vals.min(axis=1)


def minhash_signature_matrix(texts: list, num_perm: int, shingle_k: int,
                             a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-batch signatures: one (n_docs, num_perm) matrix.

    Shingle generation + hashing is one vectorized polars pass over the
    whole batch (functions/grams.py — position duplicates kept; the
    min-fold is duplicate-invariant, so signatures are value-identical to
    the per-document ``_shingles`` set form, pinned by
    tests/test_grams.py). The per-doc permutation min-fold stays a numpy
    loop: it is u64-multiply bound, and ``np.minimum.reduceat`` measured
    15x SLOWER than the sliced ``min(axis=1)`` fold (recorded in
    BASELINE.md)."""
    from dataprof_ray.functions.grams import char_shingle_hashes_flat

    hashes, counts = char_shingle_hashes_flat(texts, shingle_k)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    out = np.empty((len(counts), num_perm), dtype=np.uint64)
    for d in range(len(counts)):
        out[d, :] = minhash_signature(hashes[offsets[d]: offsets[d + 1]], a, b)
    return out


def jaccard(text_a: str, text_b: str, shingle_k: int = 5) -> float:
    sa = set(_token_hashes(text_a, shingle_k).tolist())
    sb = set(_token_hashes(text_b, shingle_k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Word n-gram Jaccard similarity."""
    wa = (text_a or "").lower().split()
    wb = (text_b or "").lower().split()
    ga = {tuple(wa[i: i + n]) for i in range(max(len(wa) - n + 1, 0))}
    gb = {tuple(wb[i: i + n]) for i in range(max(len(wb) - n + 1, 0))}
    if not ga and not gb:
        return 1.0
    if not ga or not gb:
        return 0.0
    return len(ga & gb) / len(ga | gb)


def simhash_batch(texts) -> np.ndarray:
    """64-bit frequency-weighted SimHash per document; ALL documents' tokens
    are hashed in one polars call (a per-document Series costs ~100us of
    construction — the same hot spot minhash_signature_matrix batches away)."""
    from collections import Counter

    import polars as pl

    all_words: list = []
    weights: list = []
    offsets = [0]
    for t in texts:
        counts = Counter((t or "").lower().split())
        all_words.extend(counts.keys())
        weights.extend(counts.values())
        offsets.append(len(all_words))
    hashes = (
        pl.Series(all_words).hash(seed=0).to_numpy().astype(np.uint64)
        if all_words else np.empty(0, dtype=np.uint64)
    )
    w = np.asarray(weights, dtype=np.float64)
    shifts = np.arange(64, dtype=np.uint64)
    out = np.zeros(len(texts), dtype=np.uint64)
    for d in range(len(texts)):
        h = hashes[offsets[d]: offsets[d + 1]]
        if len(h) == 0:
            continue
        ww = w[offsets[d]: offsets[d + 1]]
        bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64)
        acc = ((bits * 2 - 1) * ww[:, None]).sum(axis=0)
        with np.errstate(over="ignore"):
            out[d] = ((acc > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64)
    return out


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (frequency-weighted)."""
    return int(simhash_batch([text])[0])


def hamming64(x: int, y: int) -> int:
    return bin(x ^ y).count("1")


# ------------------------------------------------------------------ exact dedup


def add_content_hash(batch: pa.Table, text_col: str = "text",
                     out_col: str = "content_hash") -> pa.Table:
    import polars as pl

    h = pl.from_arrow(batch.column(text_col)).hash(seed=0).to_numpy().astype(np.uint64)
    return batch.append_column(out_col, pa.array(h, pa.uint64()))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep the smallest id per identical text: hash column per batch, then
    one ``keyed_exchange`` on the content hash keeps one row per hash. The
    shuffle key is the 8-byte hash, not the document, and Ray schedules
    one vectorized pandas dedup per coarse partition instead of one tiny
    map_groups call per distinct document."""

    def dedup_partition(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(id_col)
                  .drop_duplicates("content_hash", keep="first"))

    hashed = ds.map_batches(add_content_hash, fn_kwargs={"text_col": text_col},
                            batch_format="pyarrow")
    return (keyed_exchange(hashed, ["content_hash"], dedup_partition,
                           batch_format="pandas")
            .drop_columns(["content_hash"]))


# ------------------------------------------------------------------ minhash-lsh


_PERM_CACHE: dict = {}


def _minhash_params_cached(num_perm: int):
    """Per-worker cache of the deterministic permutation parameters —
    regenerating them per batch is cheap but pointless."""
    if num_perm not in _PERM_CACHE:
        _PERM_CACHE[num_perm] = _minhash_params(num_perm)
    return _PERM_CACHE[num_perm]


def minhash_band_rows(batch: pa.Table, text_col: str, id_col: str,
                      num_perm: int, bands: int,
                      shingle_k: int) -> pa.Table:
    """Stateless signature stage: emit (band_id, band_hash, id) rows per
    document. Runs as plain tasks — the only per-worker state is the tiny
    cached permutation table, so an actor pool buys nothing but ramp cost
    (measured: fixed pool 4.5 s vs warm stateless 1.8 s on the sf0.1
    incremental-neardup audit)."""
    import polars as pl

    assert num_perm % bands == 0
    a, b = _minhash_params_cached(num_perm)
    rows_per_band = num_perm // bands
    texts = batch.column(text_col).to_pylist()
    ids = batch.column(id_col).to_pylist()
    sigs = minhash_signature_matrix(texts, num_perm, shingle_k, a, b)
    n = len(texts)
    band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
    doc_ids = np.repeat(np.asarray(ids, dtype=np.int64), bands)
    band_hashes = np.empty(n * bands, dtype=np.uint64)
    for bnd in range(bands):
        seg = sigs[:, bnd * rows_per_band: (bnd + 1) * rows_per_band]
        df = pl.DataFrame({f"c{i}": seg[:, i] for i in range(seg.shape[1])})
        band_hashes[bnd::bands] = (
            df.select(pl.concat_str([pl.col(c).cast(pl.Utf8) for c in df.columns],
                                    separator=",").hash(seed=0))
            .to_series().to_numpy().astype(np.uint64)
        )
    return pa.table({
        "band_id": pa.array(band_ids, pa.int32()),
        "band_hash": pa.array(band_hashes, pa.uint64()),
        id_col: pa.array(doc_ids, pa.int64()),
    })


def _band_rows_ds(ds, text_col, id_col, num_perm, bands, shingle_k):
    """Signature rows as a stateless map_batches (tasks scale on their
    own)."""
    from functools import partial

    return ds.map_batches(
        partial(minhash_band_rows, text_col=text_col, id_col=id_col,
                num_perm=num_perm, bands=bands, shingle_k=shingle_k),
        batch_format="pyarrow")


def _fetch_texts(ds, ids: set, text_col: str, id_col: str) -> dict:
    """Distributed lookup of the texts for a (small) candidate id set via a
    vectorized ``pc.is_in`` semi-filter (stateless tasks — no actor pool to
    spin up). The id set ships with the task spec (8 bytes/id); switch to a
    ``ray.put`` broadcast + actor pool if the candidate set ever outgrows
    task-arg size. Driver materializes |candidates| texts, not the corpus."""
    import pyarrow.compute as pc

    wanted = pa.array(sorted(int(i) for i in ids), pa.int64())

    def fetch(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(id_col), value_set=wanted)
        return batch.filter(pc.fill_null(mask, False))

    rows = ds.select_columns([id_col, text_col]).map_batches(
        fetch, batch_format="pyarrow"
    ).take_all()
    return {int(r[id_col]): r[text_col] for r in rows}


def _lsh_candidate_edges(ds, text_col, id_col, num_perm, bands, shingle_k,
                         pair_cap: int = 1):
    """MinHash band buckets -> per-bucket candidate edges.

    The exchange shuffles (band_id, band_hash, id) triples — bytes per doc —
    through ``keyed_exchange`` on the bucket hash (bucket rows co-locate,
    but Ray sees only the coarse partitions instead of one tiny group per
    bucket; inside each partition the per-bucket edges come from one
    vectorized pandas transform). map_groups over millions of single-row
    groups was the wall-clock hotspot.

    Edge shape per bucket: (src -> bucket-min) STAR edges by default
    (``pair_cap=1``) — O(bucket) edges, ideal for clustering, where
    connectivity is all that matters. For PAIRWISE consumers (the exact
    Jaccard verify disposes each edge independently), star mediation
    loses true pairs whose shared bucket-min is a low-overlap doc; set
    ``pair_cap`` > 1 and buckets of at most that many docs emit ALL
    intra-bucket pairs (at most pair_cap/2 edges per row — still
    bounded), while larger buckets keep the star form."""
    import pandas as pd

    bands_ds = _band_rows_ds(ds, text_col, id_col, num_perm, bands, shingle_k)

    def partition_edges(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["band_id", "band_hash"])[id_col]
        lo = g.transform("min")
        if pair_cap <= 1:
            mask = (df[id_col] != lo).to_numpy()
            return pd.DataFrame({
                "src": df[id_col].to_numpy()[mask],
                "dst": lo.to_numpy()[mask],
            }).astype(np.int64)
        sizes = g.transform("size")
        small = (sizes <= pair_cap).to_numpy()
        star_mask = ~small & (df[id_col] != lo).to_numpy()
        pieces = [pd.DataFrame({
            "src": df[id_col].to_numpy()[star_mask],
            "dst": lo.to_numpy()[star_mask],
        })]
        sm = df[small][["band_id", "band_hash", id_col]]
        if len(sm):
            m = sm.merge(sm, on=["band_id", "band_hash"])
            m = m[m[f"{id_col}_x"] < m[f"{id_col}_y"]]
            pieces.append(pd.DataFrame({
                "src": m[f"{id_col}_y"].to_numpy(),
                "dst": m[f"{id_col}_x"].to_numpy(),
            }))
        return pd.concat(pieces, ignore_index=True).astype(np.int64)

    return keyed_exchange(bands_ds, ["band_hash"], partition_edges,
                          batch_format="pandas")


# ------------------------------------------------- distributed components


def connected_components(edges, src_col: str = "src", dst_col: str = "dst",
                         partitions: int = DEFAULT_PARTITIONS,
                         max_rounds: int = 50):
    """Connected components by iterative min-label propagation expressed as
    keyed exchanges — the driver never materializes the edge list (the fix
    for the round-1 driver union-find, VERDICT item 2).

    Algorithm (hash-to-min local contraction): the state is a star-edge
    set (node, label). Each round exchanges every row to both of its
    endpoints' partitions (``keyed_exchange`` on a ``home`` column), runs a
    union-find INSIDE each partition (all rows of one node co-locate, so
    its labels merge; label-side nodes join transitively), and emits one
    (node -> local component min) row per node seen in the partition. No
    joins: one shuffle per round, output block count pinned at
    ``partitions`` (a join-based variant measured here compounded block
    counts ~2.3x per round and went superlinear). Stars from different
    partitions sharing a node merge in later rounds; pointer-jumping
    through relabeled roots converges in O(log n) rounds — 2-4 on LSH
    candidate graphs. Convergence is detected by an order-independent
    64-bit mix hash over the (node, label) multiset (plus the row count),
    computed as per-batch partial sums — the driver sees two ints per
    round. A repeated (count, hash) pair means the state is unchanged
    (collision odds ~2^-64); the previous (count, sum(label)) checksum
    could collide across distinct states because the label multiset is
    not monotone between rounds.

    Returns a MATERIALIZED Dataset (node, label) where label is the
    component's minimum node id."""
    import pandas as pd

    def init_pairs(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col).to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column(dst_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "a": pa.array(np.minimum(s, d), pa.int64()),
            "b": pa.array(np.maximum(s, d), pa.int64()),
        })

    def add_home(batch: pa.Table) -> pa.Table:
        # each star edge goes to BOTH endpoints' partitions (the exchange
        # keys on ``home``): node-side rows merge a node's labels,
        # label-side rows let a relabeled root pull its dependents along
        # (without this, a chain's labels stall one hop from home — the
        # partition of (12 -> 11) never sees 11 -> 10). Self rows go once;
        # contract ignores ``home`` and repeated rows.
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        two = a != b
        return pa.table({
            "a": pa.array(np.concatenate([a, a[two]]), pa.int64()),
            "b": pa.array(np.concatenate([b, b[two]]), pa.int64()),
            "home": pa.array(np.concatenate([a, b[two]]), pa.int64()),
        })

    def contract(df: pd.DataFrame) -> pd.DataFrame:
        parent: dict = {}

        def find(x: int) -> int:
            root = x
            while parent.get(root, root) != root:
                root = parent.get(root, root)
            while parent.get(x, x) != x:
                parent[x], x = root, parent.get(x, x)
            return root

        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        for s, d in zip(a, b):
            rs, rd_ = find(int(s)), find(int(d))
            if rs != rd_:
                parent[max(rs, rd_)] = min(rs, rd_)
        nodes = np.unique(np.concatenate([a, b]))
        roots = np.fromiter((find(int(n)) for n in nodes),
                            dtype=np.int64, count=len(nodes))
        # every node keeps a row (roots carry a self row) so no node ever
        # drops out of the propagation
        return pd.DataFrame({"a": nodes, "b": roots})

    def state_sig(ds) -> tuple:
        """(row count, order-independent 64-bit hash) of the (node, label)
        multiset — splitmix64-style mixing per row, summed with uint64
        wraparound per batch, then one driver-side sum over batch partials."""
        M1 = np.uint64(0x9E3779B97F4A7C15)
        M2 = np.uint64(0xBF58476D1CE4E5B9)
        M3 = np.uint64(0x94D049BB133111EB)

        def partial(batch: pa.Table) -> pa.Table:
            a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
            b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                z = a * M1 + b * M2
                z ^= z >> np.uint64(30)
                z *= M3
                z ^= z >> np.uint64(27)
                h = int(z.sum()) & 0xFFFFFFFFFFFFFFFF
            return pa.table({"n": pa.array([batch.num_rows], pa.int64()),
                             "h": pa.array([h], pa.uint64())})

        parts = ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=None).to_pandas()
        with np.errstate(over="ignore"):
            h_total = parts["h"].to_numpy().astype(np.uint64).sum()
        return (int(parts["n"].sum()), int(h_total))

    # the star-edge state; orientation normalized so labels only decrease
    pairs = edges.map_batches(init_pairs, batch_format="pyarrow")
    if partitions <= 1:
        # one partition holds the whole (small) edge set: a single remote
        # contract task over one block IS the fixpoint — one execution, no
        # round loop and no final dedup (contract emits one row per node)
        def contract_all(df: pd.DataFrame) -> pd.DataFrame:
            return contract(df).rename(columns={"a": "node", "b": "label"})

        return (
            pairs.repartition(1)
            .map_batches(arrow_out(contract_all), batch_format="pandas",
                         batch_size=None)
            .materialize()
        )
    cur = pairs.materialize()
    logger.debug("cc init done")
    prev = None
    for _r in range(max_rounds):
        cur = keyed_exchange(
            cur.map_batches(add_home, batch_format="pyarrow"), ["home"],
            contract, partitions=partitions,
            batch_format="pandas").materialize()
        sig = state_sig(cur)
        logger.debug("cc round %d: rows=%d hash=%d", _r, sig[0], sig[1])
        if sig == prev:
            break
        prev = sig

    # final dedup to one (node, label) row: coarse-partitioned pandas min —
    # ray's sort-aggregate over one tiny group per node measured 9s on 9k
    # keys where this takes under a second
    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("a", as_index=False, sort=False)["b"].min()
        return out.rename(columns={"a": "node", "b": "label"})

    return keyed_exchange(cur, ["a"], finalize, partitions=partitions,
                          batch_format="pandas").materialize()


# per-worker-process cache for the broadcast shingle dict, so the verify
# filter can run as STATELESS tasks (no actor-pool spin-up) while still
# reading the dict from the object store once per worker, not per batch
_VERIFY_SHINGLE_CACHE: dict = {}


def _verify_edges(batch: pa.Table, shingles_ref, threshold: float) -> pa.Table:
    """Edge filter: keep (src, dst) whose exact shingle Jaccard meets the
    threshold. ``shingles_ref`` is a ``ray.put`` handle to the candidate
    shingle-set dict (O(candidate docs) — the operator's documented memory
    contract)."""
    import ray

    key = shingles_ref.hex()
    shs = _VERIFY_SHINGLE_CACHE.get(key)
    if shs is None:
        shs = ray.get(shingles_ref)
        _VERIFY_SHINGLE_CACHE.clear()  # one live broadcast per worker
        _VERIFY_SHINGLE_CACHE[key] = shs
    src = batch.column("src").to_numpy(zero_copy_only=False)
    dst = batch.column("dst").to_numpy(zero_copy_only=False)
    empty_arr = np.empty(0, dtype=np.uint64)
    keep = np.empty(len(src), dtype=bool)
    for i, (s, d) in enumerate(zip(src, dst)):
        sa = shs.get(int(s), empty_arr)
        sb = shs.get(int(d), empty_arr)
        if not len(sa) or not len(sb):
            # _shingles pads, so a genuinely empty set is impossible: an
            # empty entry means the fetch missed this id. Defaulting a fetch
            # gap to "confirmed duplicate" is the unsafe direction — treat
            # it as non-matching so gaps surface as missing pairs, not
            # manufactured ones.
            j = 0.0
        else:
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            j = inter / (len(sa) + len(sb) - inter)
        keep[i] = j >= threshold
    return batch.filter(pa.array(keep))


def _fetch_shingle_sets(ds, ids: set, text_col: str, id_col: str,
                        shingle_k: int) -> dict:
    """{id -> sorted unique np.uint64 shingle hashes} for a bounded
    candidate id set. The hashing runs DISTRIBUTED inside the fetch (one
    polars hash call per batch); the driver only assembles the dict.
    Numpy arrays (not python sets) keep the broadcast's pickle/unpickle a
    memcpy — deserializing millions of boxed ints per worker was the
    verify stage's hidden cost."""
    import pyarrow.compute as pc

    wanted = pa.array(sorted(int(i) for i in ids), pa.int64())

    def fetch_hash(batch: pa.Table) -> pa.Table:
        # one vectorized shingle+hash pass (functions/grams.py); position
        # duplicates ride along — the driver-side assembly np.uniques
        # every entry, so the final dict is value-identical
        from dataprof_ray.functions.grams import char_shingle_hashes_flat

        mask = pc.is_in(batch.column(id_col), value_set=wanted)
        batch = batch.filter(pc.fill_null(mask, False))
        hashes, counts = char_shingle_hashes_flat(
            batch.column(text_col), shingle_k)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return pa.table({
            id_col: batch.column(id_col),
            "shingle_hashes": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()),
                pa.array(hashes, pa.uint64())),
        })

    out: dict = {}
    for batch in (ds.select_columns([id_col, text_col])
                  .map_batches(fetch_hash, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow")):
        ids_np = batch.column(id_col).to_numpy(zero_copy_only=False)
        col = batch.column("shingle_hashes").combine_chunks()
        flat = np.asarray(col.flatten(), dtype=np.uint64)
        # a SLICED ListArray keeps absolute parent offsets while flatten()
        # rebases its values to 0 — normalize so the two stay aligned
        offs = np.asarray(col.offsets)
        offs = offs - offs[0]
        for k, i in enumerate(ids_np):
            # unique+sort once here so the verify can intersect presorted
            out[int(i)] = np.unique(flat[offs[k]: offs[k + 1]])
    return out


def ngram_jaccard_duplicate_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    pair_cap: int = 8,
):
    """Word n-gram Jaccard near-dup pairs, LSH-gated: minhash band buckets
    propose candidate pairs, exact word-n-gram Jaccard disposes. Returns
    (id_a, id_b, jaccard) for confirmed pairs. Buckets of at most
    ``pair_cap`` docs propose ALL intra-bucket pairs (star mediation
    through a low-overlap bucket min loses true pairs — measured recall
    0.857 -> 1.0 vs the exact oracle at the gate scales); bigger buckets
    keep the bounded star form. Recall vs ``exact_jaccard_pairs`` is
    measured by the jaccard_lsh_recall_audit query."""
    import pandas as pd

    # pair output is candidate-bounded by contract, so the edge list may be
    # collected (unlike clustering, which stays distributed — see
    # minhash_lsh_duplicate_groups)
    edges = _lsh_candidate_edges(ds, text_col, id_col, num_perm, bands,
                                 shingle_k, pair_cap=pair_cap).to_pandas() \
        .drop_duplicates(["src", "dst"])
    empty = pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                          "id_b": pd.Series(dtype=np.int64),
                          "jaccard": pd.Series(dtype=np.float64)})
    if edges.empty:
        return empty
    texts = _fetch_texts(ds, set(edges["src"]) | set(edges["dst"]), text_col, id_col)

    def _grams(t: str) -> set:
        w = (t or "").lower().split()
        return {tuple(w[i: i + n]) for i in range(max(len(w) - n + 1, 0))}

    grams = {i: _grams(t) for i, t in texts.items()}
    rows = []
    for s, d in edges[["src", "dst"]].itertuples(index=False):
        ga, gb = grams.get(int(s), set()), grams.get(int(d), set())
        if not ga and not gb:
            j = 1.0
        elif not ga or not gb:
            j = 0.0
        else:
            j = len(ga & gb) / len(ga | gb)
        if j >= threshold:
            a, b = sorted((int(s), int(d)))
            rows.append((a, b, j))
    if not rows:
        return empty
    return (
        pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard"])
        .drop_duplicates(["id_a", "id_b"])
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )


def _dedup_edges(edges):
    """Distributed (src, dst) dedup: keyed exchange on src, pandas
    drop_duplicates within each partition (copies of an edge share their
    src, so cross-partition duplicates can't survive)."""
    def dd(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["src", "dst"])[["src", "dst"]]

    return keyed_exchange(edges, ["src"], dd, batch_format="pandas")


def _driver_union_find(edges: "pd.DataFrame") -> "pd.DataFrame":
    """Small-scale clustering oracle: union-find over a collected edge list.
    Kept for golden-testing the distributed path; not the scale path."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent.get(root, root)
        while parent.get(x, x) != x:
            parent[x], x = root, parent.get(x, x)
        return root

    for src, dst in edges[["src", "dst"]].itertuples(index=False):
        rs, rd = find(int(src)), find(int(dst))
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)

    members = sorted({int(v) for v in edges["src"]} | {int(v) for v in edges["dst"]})
    rows = [(m, find(m)) for m in members]
    return pd.DataFrame(rows, columns=["id", "canonical_id"]).astype(np.int64)


def minhash_lsh_duplicate_groups(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    verify_threshold: Optional[float] = None,
    clustering: str = "distributed",
):
    """MinHash+LSH near-dup clustering.

    Returns a pandas DataFrame (id, canonical_id) for every document that is
    in a >=2-member cluster. Pipeline: stateless signature tasks -> keyed
    exchange on the band hash emitting intra-bucket edges (id -> bucket
    min; edge count is O(#candidate docs), not O(pairs^2)) -> distributed
    min-label propagation (``connected_components``) -> (id, min id of its
    component). The edge list is never collected on the driver in the
    default ``clustering="distributed"`` mode; ``"driver"`` selects the
    union-find oracle used by the golden tests.

    ``verify_threshold``: if set, each candidate edge is confirmed by exact
    shingle Jaccard >= threshold before clustering (LSH gives recall; the
    verify step restores precision). Verification runs as a distributed
    edge filter against a broadcast dict of candidate shingle sets — its
    memory contract is O(candidate docs), the same bound as the fetch."""
    edges = _lsh_candidate_edges(ds, text_col, id_col, num_perm, bands,
                                 shingle_k)
    empty = pd.DataFrame({"id": [], "canonical_id": []}).astype(np.int64)
    if verify_threshold is not None:
        # dedup first: an edge co-occurring in k of the bands would get its
        # exact Jaccard computed k times by the verify filter
        edges = _dedup_edges(edges)
    # ONE execution of the signature + shuffle pipeline; everything below
    # (candidate-id collection, verify filter, clustering) re-reads the
    # materialized edge blocks instead of re-running the signature stage
    edges = edges.materialize()
    if verify_threshold is not None:
        import ray

        def edge_ids(batch: pa.Table) -> pa.Table:
            s = batch.column("src").to_numpy(zero_copy_only=False)
            d = batch.column("dst").to_numpy(zero_copy_only=False)
            return pa.table({"id": pa.array(np.concatenate([s, d]), pa.int64())})

        cand_ids = set(edges.map_batches(edge_ids, batch_format="pyarrow")
                       .unique("id"))
        if not cand_ids:
            return empty
        # shingle sets are hashed distributed in the fetch; the driver only
        # assembles the broadcast dict (O(candidate docs))
        shs = _fetch_shingle_sets(ds, cand_ids, text_col, id_col, shingle_k)
        shingles_ref = ray.put(shs)
        thr = verify_threshold
        edges = edges.map_batches(
            lambda b: _verify_edges(b, shingles_ref, thr),
            batch_format="pyarrow",
        ).materialize()
    if clustering == "driver":
        edge_df = edges.to_pandas()
        if edge_df.empty:
            return empty
        return _driver_union_find(edge_df)
    n_edges = edges.count()
    if n_edges == 0:
        return empty
    # scale the contraction fan-out to the edge count: below ~100k edges a
    # single remote contract task beats multi-round propagation (pure fixed
    # overhead at that size); huge graphs spread across the full width
    parts = int(min(DEFAULT_PARTITIONS, max(1, n_edges // 100_000)))
    labels = connected_components(edges, partitions=parts)
    out = labels.to_pandas().rename(columns={"node": "id",
                                             "label": "canonical_id"})
    return (out.astype(np.int64).sort_values("id").reset_index(drop=True))


# ------------------------------------------------------------------ simhash


def simhash_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    ids = batch.column(id_col)
    sh = simhash_batch(texts)
    return pa.table({id_col: ids, "simhash": pa.array(sh, pa.uint64())})


def simhash_duplicate_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                            max_hamming: int = 3):
    """SimHash near-dup: 4x16-bit band buckets guarantee recall for Hamming
    distance <= 3; candidates verified exactly within buckets."""
    import pandas as pd

    sigs = ds.map_batches(
        lambda b: simhash_stage(b, text_col, id_col), batch_format="pyarrow"
    )

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sh = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(ids)
        band = np.tile(np.arange(4, dtype=np.int32), n)
        keys = np.empty(4 * n, dtype=np.uint64)
        for bnd in range(4):
            keys[bnd::4] = (sh >> np.uint64(16 * bnd)) & np.uint64(0xFFFF)
        return pa.table({
            "band": pa.array(band),
            "key": pa.array(keys, pa.uint64()),
            id_col: pa.array(np.repeat(ids, 4), pa.int64()),
            "simhash": pa.array(np.repeat(sh, 4), pa.uint64()),
        })

    def partition_pairs(part: pd.DataFrame) -> pd.DataFrame:
        # keep only buckets with >=2 members (vectorized), then pair within
        dup = part.duplicated(["band", "key"], keep=False)
        part = part[dup]
        out_a, out_b, out_h = [], [], []
        for (_, _), g in part.groupby(["band", "key"], sort=False):
            g = g.drop_duplicates(id_col).sort_values(id_col)
            ids = g[id_col].to_numpy()
            sh = g["simhash"].to_numpy().astype(np.uint64)
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    h = hamming64(int(sh[i]), int(sh[j]))
                    if h <= max_hamming:
                        out_a.append(int(ids[i]))
                        out_b.append(int(ids[j]))
                        out_h.append(h)
        return pd.DataFrame({"id_a": out_a, "id_b": out_b,
                             "hamming": out_h}).astype(np.int64)

    # coarse exchange on the 16-bit key: bucket rows co-locate, Ray sees
    # the coarse partitions instead of one group per (band, key) — see
    # _lsh_candidate_edges
    pairs = keyed_exchange(
        sigs.map_batches(explode_bands, batch_format="pyarrow"), ["key"],
        partition_pairs, batch_format="pandas").to_pandas()
    if pairs.empty:
        return pairs
    return pairs.drop_duplicates(["id_a", "id_b"]).sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ------------------------------------------------------------------ embedding near-dup


def _lsh_recall(threshold: float, bands: int, planes_per_band: int) -> float:
    """Analytic recall of banded hyperplane LSH at a cosine threshold:
    P(share a bucket) = 1 - (1 - p^r)^b with p = 1 - acos(s)/pi."""
    import math

    p = 1.0 - math.acos(min(max(threshold, -1.0), 1.0)) / math.pi
    return 1.0 - (1.0 - p ** planes_per_band) ** bands


def embedding_neardup_pairs(ds, vec_col: str = "embedding", id_col: str = "vec_id",
                            threshold: float = 0.95, bands: int = 16,
                            planes_per_band: int = 16, seed: int = 11,
                            bucket_pair_cap: int = 256,
                            _return_edges: bool = False):
    """Cosine near-dup via BANDED random-hyperplane LSH + exact verify.

    Construction (MinHash-style OR-of-ANDs): ``bands`` independent sets of
    ``planes_per_band`` hyperplanes; two vectors are candidates if ALL sign
    bits agree in ANY band. With p = 1 - acos(s)/pi, recall at cosine s is
    1-(1-p^r)^b — for the defaults (b=16, r=16) that is ~0.9999 at s=0.95
    (a single 12-plane set, the old construction, was ~0.28). Recall is
    *measured*, not asserted: see ``embedding_neardup_recall`` and
    tests/test_dedup.py (planted near-duplicates vs brute force).

    Scale design: the groupby shuffles (band_key, id) PAIRS — 16 bytes per
    vector per band — never the vectors themselves; candidate edges are
    deduped distributed, candidate vectors broadcast once (``ray.put`` of a
    sorted-id numpy matrix, O(candidate docs)), and exact cosine runs as a
    DISTRIBUTED edge filter (``_verify_cosine_edges``); only the verified
    pair table — bounded by the true near-dup count — reaches the driver.
    Dense buckets (an all-near-dup cluster) are capped: a bucket larger than
    ``bucket_pair_cap`` emits only (member -> bucket-min) star edges instead
    of the O(|bucket|^2) clique, so pathological buckets stay linear. The
    verify step restores precision to exactly 1.0 in all cases — but note
    the cap's PAIR-recall cost: in an over-cap bucket, a member whose
    cosine to the bucket-min is below threshold drops out even if it has a
    true near-dup elsewhere in the bucket (the candidate connectivity is
    star-shaped, the verified PAIR set is not transitive). Raise the cap,
    or use ``embedding_neardup_groups`` (transitive clustering via
    ``connected_components``) when dense near-dup clusters are expected."""
    import pandas as pd

    from dataprof_ray.pipelines.similarity import _normalize_rows, _to_matrix

    # the band id is folded into the key bits above the signature: validate
    # the parameters so signature bits can never overlap the band id and the
    # shift can never exceed uint64 (ADVICE r2: planes_per_band > 48
    # overlapped the fixed 48-bit fold; >= 64 was a shift overflow)
    band_bits = max(int(bands) - 1, 1).bit_length()
    if planes_per_band < 1 or bands < 1 or planes_per_band + band_bits > 64:
        raise ValueError(
            f"planes_per_band ({planes_per_band}) + bits for bands "
            f"({band_bits} for {bands} bands) must fit in 64")

    empty = pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                          "id_b": pd.Series(dtype=np.int64),
                          "cosine": pd.Series(dtype=np.float64)})

    def sig_stage(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        vecs = _to_matrix(batch.column(vec_col))
        # hyperplanes regenerated per task from the seed (d x b*r floats,
        # microseconds) — cheaper than shipping them, and deterministic
        rng = np.random.default_rng(seed)
        hyper = rng.normal(size=(vecs.shape[1], bands * planes_per_band))
        bits = (vecs @ hyper) > 0
        ids = np.asarray(batch.column(id_col).to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        weights = (np.uint64(1) << np.arange(planes_per_band, dtype=np.uint64))
        keys = np.empty(n * bands, dtype=np.uint64)
        for bnd in range(bands):
            seg = bits[:, bnd * planes_per_band: (bnd + 1) * planes_per_band]
            # disambiguate bands: same bit pattern in different bands must
            # not collide, so the band id goes in the bits directly above
            # the signature (validated to fit at function entry)
            keys[bnd::bands] = (seg.astype(np.uint64) @ weights) \
                | (np.uint64(bnd) << np.uint64(planes_per_band))
        return pa.table({
            "band_key": pa.array(keys, pa.uint64()),
            id_col: pa.array(np.repeat(ids, bands), pa.int64()),
        })

    def partition_edges(df: pd.DataFrame) -> pd.DataFrame:
        dup = df.duplicated("band_key", keep=False)
        df = df[dup]
        if df.empty:
            return pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                 "dst": pd.Series(dtype=np.int64)})
        out_src: list = []
        out_dst: list = []
        for _, g in df.groupby("band_key", sort=False):
            ids = np.unique(g[id_col].to_numpy())
            if len(ids) < 2:
                continue
            if len(ids) <= bucket_pair_cap:
                ia, ib = np.triu_indices(len(ids), k=1)
                out_src.append(ids[ia])
                out_dst.append(ids[ib])
            else:  # star edges to the bucket min: linear, components intact
                out_src.append(np.full(len(ids) - 1, ids[0], dtype=np.int64))
                out_dst.append(ids[1:])
        if not out_src:
            return pd.DataFrame({"src": pd.Series(dtype=np.int64),
                                 "dst": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"src": np.concatenate(out_src),
                             "dst": np.concatenate(out_dst)})

    verified = _embedding_verified_edges(
        keyed_exchange(ds.map_batches(sig_stage, batch_format="pyarrow"),
                       ["band_key"], partition_edges, batch_format="pandas"),
        ds, vec_col, id_col, threshold)
    if _return_edges:
        # clustering path (embedding_neardup_groups): hand the verified edge
        # Dataset straight to connected_components, never collecting it
        return verified
    if verified is None:
        return empty
    # the VERIFIED pair table is the operator's output — bounded by the true
    # near-dup count, so collecting it is the contract, not a scale hazard
    pairs = verified.to_pandas()
    if pairs.empty:
        return empty
    id_a = np.minimum(pairs["src"].to_numpy(), pairs["dst"].to_numpy())
    id_b = np.maximum(pairs["src"].to_numpy(), pairs["dst"].to_numpy())
    return (
        pd.DataFrame({"id_a": id_a.astype(np.int64), "id_b": id_b.astype(np.int64),
                      "cosine": pairs["cosine"].to_numpy()})
        .drop_duplicates(["id_a", "id_b"])
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )


# per-worker cache for the broadcast (sorted ids, normalized vector matrix)
# pair, mirroring _VERIFY_SHINGLE_CACHE: the verify filter runs as stateless
# tasks that read the broadcast once per worker process
_VERIFY_VECS_CACHE: dict = {}


def _verify_cosine_edges(batch: pa.Table, vecs_ref, threshold: float) -> pa.Table:
    """Distributed edge filter: keep (src, dst) whose exact cosine meets the
    threshold, appending the cosine. ``vecs_ref`` is a ``ray.put`` handle to
    (sorted id array, row-aligned L2-normalized matrix) — numpy only, so the
    per-worker deserialization is a memcpy. An id missing from the broadcast
    is a fetch gap and drops the edge (the safe direction; see
    _verify_edges)."""
    import ray

    key = vecs_ref.hex()
    entry = _VERIFY_VECS_CACHE.get(key)
    if entry is None:
        entry = ray.get(vecs_ref)
        _VERIFY_VECS_CACHE.clear()  # one live broadcast per worker
        _VERIFY_VECS_CACHE[key] = entry
    ids_sorted, mat = entry
    src = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    si = np.searchsorted(ids_sorted, src).clip(0, max(len(ids_sorted) - 1, 0))
    di = np.searchsorted(ids_sorted, dst).clip(0, max(len(ids_sorted) - 1, 0))
    ok = ((ids_sorted[si] == src) & (ids_sorted[di] == dst)
          if len(ids_sorted) else np.zeros(len(src), dtype=bool))
    cos = np.zeros(len(src), dtype=np.float64)
    if ok.any():
        cos[ok] = np.einsum("ij,ij->i", mat[si[ok]], mat[di[ok]])
    keep = ok & (cos >= threshold)
    return pa.table({
        "src": pa.array(src[keep], pa.int64()),
        "dst": pa.array(dst[keep], pa.int64()),
        "cosine": pa.array(cos[keep], pa.float64()),
    })


def _embedding_verified_edges(edges, ds, vec_col: str, id_col: str,
                              threshold: float):
    """Candidate edges -> exact-cosine-verified edges, fully distributed
    (the round-2 driver-side tail, VERDICT r2 item 1, is gone):

    1. distributed (src, dst) dedup (`_dedup_edges` — an edge proposed by k
       bands would otherwise be cosine-verified k times),
    2. candidate ids via a distributed `unique`,
    3. candidate vectors fetched by a bounded `pc.is_in` semi-filter, driver
       assembles only the (ids, normalized matrix) broadcast — the same
       O(candidate docs) memory contract as `_fetch_shingle_sets`,
    4. cosine verify as a stateless distributed edge filter
       (`_verify_cosine_edges`) against the `ray.put` broadcast.

    Returns a materialized Dataset (src, dst, cosine) or None if there are
    no candidates/vectors."""
    import ray
    import pyarrow.compute as pc

    from dataprof_ray.pipelines.similarity import _normalize_rows, _to_matrix

    edges = _dedup_edges(edges).materialize()
    if edges.count() == 0:
        return None

    def edge_ids(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"id": pa.array(np.concatenate([s, d]), pa.int64())})

    cand_ids = edges.map_batches(edge_ids, batch_format="pyarrow").unique("id")
    if not cand_ids:
        return None
    wanted = pa.array(sorted(int(i) for i in cand_ids), pa.int64())

    def fetch(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(id_col), value_set=wanted)
        return batch.filter(pc.fill_null(mask, False))

    ids_parts: list = []
    vec_parts: list = []
    for b in (ds.select_columns([id_col, vec_col])
              .map_batches(fetch, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows:
            ids_parts.append(
                b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64))
            vec_parts.append(_normalize_rows(_to_matrix(b.column(vec_col))))
    if not ids_parts:
        return None
    ids_all = np.concatenate(ids_parts)
    order = np.argsort(ids_all)
    vecs_ref = ray.put((ids_all[order],
                        np.ascontiguousarray(np.concatenate(vec_parts)[order])))
    thr = threshold
    return edges.map_batches(
        lambda b: _verify_cosine_edges(b, vecs_ref, thr),
        batch_format="pyarrow",
    ).materialize()


def embedding_neardup_groups(ds, vec_col: str = "embedding",
                             id_col: str = "vec_id", threshold: float = 0.95,
                             bands: int = 16, planes_per_band: int = 16,
                             seed: int = 11, bucket_pair_cap: int = 256):
    """Embedding near-dup CLUSTERING: (id, canonical_id) for every vector in
    a >=2-member near-dup component — the embedding analogue of
    ``minhash_lsh_duplicate_groups``, with the same scale shape: LSH
    candidate edges -> distributed cosine verify -> distributed
    ``connected_components``; the driver sees only the final membership
    table (bounded by the near-dup vector count).

    Note the semantics are transitive-closure over VERIFIED pairs: a
    cluster's extreme members may sit below ``threshold`` of each other if
    chained through intermediates (standard near-dup-cluster behavior)."""
    empty = pd.DataFrame({"id": [], "canonical_id": []}).astype(np.int64)
    pairs = embedding_neardup_pairs(
        ds, vec_col=vec_col, id_col=id_col, threshold=threshold, bands=bands,
        planes_per_band=planes_per_band, seed=seed,
        bucket_pair_cap=bucket_pair_cap, _return_edges=True)
    if pairs is None or pairs.count() == 0:
        return empty
    labels = connected_components(
        pairs, partitions=int(min(DEFAULT_PARTITIONS,
                                  max(1, pairs.count() // 100_000))))
    out = labels.to_pandas().rename(columns={"node": "id",
                                             "label": "canonical_id"})
    return out.astype(np.int64).sort_values("id").reset_index(drop=True)


def embedding_neardup_recall(ds, vec_col: str = "embedding", id_col: str = "vec_id",
                             threshold: float = 0.95, **lsh_kwargs) -> "pd.DataFrame":
    """Recall audit: LSH pair set vs brute-force ground truth.

    Ground truth is computed by materializing the vectors on the driver —
    this is an AUDIT tool for small samples (run it on a ``ds.limit(n)``
    slice of a big corpus), not a production operator. Returns one row:
    (gt_pairs, lsh_pairs, matched_pairs, recall, precision,
    analytic_recall)."""
    import pandas as pd

    from dataprof_ray.pipelines.similarity import _normalize_rows, _to_matrix

    lsh = embedding_neardup_pairs(ds, vec_col=vec_col, id_col=id_col,
                                  threshold=threshold, **lsh_kwargs)
    tbl = pa.concat_tables(
        [b for b in ds.select_columns([id_col, vec_col])
         .iter_batches(batch_format="pyarrow")]
    )
    ids = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    vecs = _normalize_rows(_to_matrix(tbl.column(vec_col)))
    sims = vecs @ vecs.T
    iu, ju = np.triu_indices(len(ids), k=1)
    hit = sims[iu, ju] >= threshold
    gt = {(int(min(a, b)), int(max(a, b)))
          for a, b in zip(ids[iu[hit]], ids[ju[hit]])}
    got = {(int(a), int(b)) for a, b in zip(lsh["id_a"], lsh["id_b"])}
    matched = len(gt & got)
    return pd.DataFrame([{
        "gt_pairs": len(gt),
        "lsh_pairs": len(got),
        "matched_pairs": matched,
        "recall": matched / len(gt) if gt else 1.0,
        "precision": matched / len(got) if got else 1.0,
        "analytic_recall": round(_lsh_recall(
            threshold,
            lsh_kwargs.get("bands", 16),
            lsh_kwargs.get("planes_per_band", 16)), 6),
    }])


# ------------------------------------------------- cross-doc duplicate spans


def _wordgram_hashes(text: str, n: int) -> np.ndarray:
    """uint64 hashes of ALL word n-gram positions of a document (duplicates
    kept — one entry per position). Tokenizer matches the textstats/oracle
    contract: lowercase, ``\\s+`` split, space-joined grams.

    This is the PARITY REFERENCE for the vectorized batch kernel
    (functions/grams.py `wordgram_hashes_flat`, 2.6-3.7x/core) that the
    production operators use; tests/test_grams.py pins them equal."""
    import polars as pl

    toks = re.split(r"\s+", (text or "").lower().strip())
    if toks == [""] or len(toks) < n:
        return np.empty(0, dtype=np.uint64)
    grams = [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]
    return pl.Series(grams).hash(seed=0).to_numpy().astype(np.uint64)


def duplicate_span_stats(
    ds,
    n: int = 13,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_docs: int = 2,
    as_dataset: bool = True,
):
    """Cross-document duplicate-span report (the signal behind exact
    substring dedup, Lee et al. 2022 "Deduplicating Training Data Makes
    Language Models Better"): for each document, how many of its word
    n-gram positions carry a span that also occurs in at least
    ``min_docs - 1`` OTHER documents. High fractions mark boilerplate and
    copy-paste content that document-level dedup misses.

    Scale design, two passes over the text:
    1. distinct per-doc gram hashes per batch -> ``keyed_exchange`` on the
       hash -> one pandas ``value_counts`` per partition = docs-per-gram
       (Ray's sort-aggregate over ~1 group per distinct gram measured 3x
       slower than 64 coarse groups at sf0.1); the shuffle moves 8-byte
       hashes, never grams.
    2. hashes with count >= ``min_docs`` are broadcast (``ray.put`` sorted
       uint64 array) and each batch counts its positions via searchsorted.
    The broadcast set is bounded by the number of CROSS-DOC duplicated
    grams (boilerplate vocabulary, not corpus size); for a corpus where
    that set outgrows worker memory, use :func:`remove_duplicate_spans`'s
    keyed tier as the template (Bloom prefilter + gram-bucket exact
    verify).

    Returns a lazy per-document Dataset by default (compose/write at
    scale); ``as_dataset=False`` collects a doc-id-sorted pandas frame —
    REPORT SCALE ONLY."""
    import ray

    from dataprof_ray.pipelines.aggregate import round_away

    def gram_doc_pairs(batch: pa.Table) -> pa.Table:
        # per-doc unique means each (gram, doc) contributes once, so the
        # downstream per-partition value_counts IS the docs-per-gram count;
        # one vectorized hash pass per batch (functions/grams.py)
        from dataprof_ray.functions.grams import (unique_per_doc,
                                                  wordgram_hashes_flat)

        flat, counts = wordgram_hashes_flat(batch.column(text_col), n)
        h, _ = unique_per_doc(flat, counts)
        return pa.table({"h": pa.array(h, pa.uint64())})

    def dup_hashes(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["h"].value_counts()
        return pd.DataFrame(
            {"h": vc[vc >= min_docs].index.to_numpy(dtype=np.uint64)})

    dup = keyed_exchange(
        ds.select_columns([text_col])
        .map_batches(gram_doc_pairs, batch_format="pyarrow"),
        ["h"], dup_hashes, batch_format="pandas").to_pandas()
    # an all-unique corpus yields an empty result, whose pandas form can
    # lose the schema (no "h" column) — treat as an empty dup set
    dup_sorted = (np.sort(dup["h"].to_numpy().astype(np.uint64))
                  if "h" in dup.columns else np.empty(0, dtype=np.uint64))
    dup_ref = ray.put(dup_sorted)

    def scan(batch: pa.Table) -> pa.Table:
        from dataprof_ray.functions.grams import (per_doc_hit_counts,
                                                  wordgram_hashes_flat)

        dup_arr = ray.get(dup_ref)
        flat, counts = wordgram_hashes_flat(batch.column(text_col), n)
        if len(flat) and len(dup_arr):
            pos = np.searchsorted(dup_arr, flat)
            pos[pos == len(dup_arr)] = 0
            ndup = per_doc_hit_counts(dup_arr[pos] == flat, counts)
        else:
            ndup = np.zeros(len(counts), dtype=np.int64)
        frac = np.where(counts > 0, ndup / np.maximum(counts, 1), 0.0)
        return pa.table({
            id_col: batch.column(id_col),
            "n_grams": pa.array(counts, pa.int64()),
            "n_dup_positions": pa.array(ndup, pa.int64()),
            "dup_span_frac": pa.array(round_away(frac.tolist(), 4),
                                      pa.float64()),
        })

    out = ds.select_columns([id_col, text_col]).map_batches(
        scan, batch_format="pyarrow")
    if as_dataset:
        return out
    return out.to_pandas().sort_values(id_col).reset_index(drop=True)


def normalized_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                     **norm_kwargs):
    """Exact dedup on CANONICALIZED text (textstats.make_normalizer's
    NFC / accent-strip / lowercase / whitespace-collapse composition) —
    the dedup key real corpus pipelines use, catching case-, accent- and
    spacing-only near-copies that byte-exact dedup misses. Keeps the
    smallest id per normalized form; output keeps the ORIGINAL columns
    (the normalized key is dropped after the shuffle). Same scale shape as
    ``exact_dedup``: only the 8-byte hash of the normalized text shuffles.
    """
    from dataprof_ray.pipelines.textstats import make_normalizer

    norm_one = make_normalizer(**norm_kwargs)

    def add_norm(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return batch.append_column(
            "__norm", pa.array([norm_one(t) for t in texts], pa.string()))

    out = exact_dedup(ds.map_batches(add_norm, batch_format="pyarrow"),
                      text_col="__norm", id_col=id_col)
    return out.drop_columns(["__norm"])


# ------------------------------------------------------------- semantic dedup


def semantic_dedup(ds, threshold: float = 0.9, n_cells: int = 16,
                   vec_col: str = "embedding", id_col: str = "vec_id",
                   distributed_training: bool = False, seed: int = 5):
    """SemDeDup (Abbas et al. 2023, "Semantic deduplication" —
    arXiv:2303.09540, public): k-means cluster the embedding space, then
    within each cluster greedily keep a document iff its max cosine to every
    already-kept cluster member is below ``threshold``. Scanning in
    ascending-id order makes the kept set a pure function of (corpus,
    centroids): stable across partitionings and re-runs.

    Scale design: centroids default to the sample-seeded trainer (the
    limit-prefix sample is partition-stable, so the whole operator is
    bit-deterministic — tested); ``distributed_training=True`` switches to
    the full-data Lloyd pass (driver holds n_cells x d only) whose
    centroids are exact up to the float fold order of per-batch partials —
    use it when 4k sampled rows can't see the corpus's structure.
    Either way centroids are broadcast; the ONE all-to-all
    exchange ships each vector exactly once, keyed by its cell id —
    ``n_cells`` coarse groups, never per-document groups. Per-cell work is
    O(|cell|^2 d) flops as incremental BLAS matvecs with O(|cell| d)
    memory, so size ``n_cells`` to make a cell fit one worker (the paper
    runs 50k clusters for 5B docs for exactly this reason). Cross-cluster
    near-dups are out of scope by construction — that recall loss is the
    algorithm's documented trade, not an implementation shortcut.

    Returns (id, cell, kept, max_cos_to_kept) — ``max_cos_to_kept`` is the
    witness similarity against the kept set at scan time (-1.0 for the
    first doc of a cell), making every drop decision auditable."""
    import ray

    from dataprof_ray.pipelines.similarity import (_normalize_rows,
                                                   _to_matrix,
                                                   train_centroids,
                                                   train_centroids_distributed)
    from dataprof_ray.pipelines.textstats import _broadcast_cached

    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if distributed_training:
        centroids = train_centroids_distributed(ds, n_cells=n_cells,
                                                vec_col=vec_col, seed=seed)
    else:
        centroids = train_centroids(ds, n_cells=n_cells, vec_col=vec_col,
                                    seed=seed)
    cref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        c = _broadcast_cached(cref)
        vecs = _normalize_rows(_to_matrix(batch.column(vec_col)))
        cells = ((vecs @ c.T).argmax(axis=1).astype(np.int32)
                 if len(vecs) else np.zeros(0, np.int32))
        return pa.table({
            id_col: batch.column(id_col),
            vec_col: batch.column(vec_col),
            "cell": pa.array(cells, pa.int32()),
        })

    def dedup_cell(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        m = _normalize_rows(_to_matrix(group.column(vec_col)))
        order = np.argsort(ids, kind="stable")
        ids_o, m = ids[order], m[order]
        n = len(ids_o)
        kept = np.zeros(n, dtype=bool)
        witness = np.full(n, -1.0)
        kept_rows = np.empty_like(m)
        nk = 0
        for i in range(n):
            if nk:
                witness[i] = float((kept_rows[:nk] @ m[i]).max())
            if witness[i] < threshold:
                kept_rows[nk] = m[i]
                nk += 1
                kept[i] = True
        cell = group.column("cell")[0].as_py() if n else 0
        return pa.table({
            id_col: pa.array(ids_o),
            "cell": pa.array(np.full(n, cell, dtype=np.int32), pa.int32()),
            "kept": pa.array(kept, pa.bool_()),
            "max_cos_to_kept": pa.array(witness, pa.float64()),
        })

    return (ds.map_batches(assign, batch_format="pyarrow")
            .groupby("cell")
            .map_groups(dedup_cell, batch_format="pyarrow"))


# --------------------------------------------------- incremental (vs prior)


def prior_corpus_bloom(prior_ds, text_col: str = "text",
                       fp_rate: float = 1e-6, capacity: int = None):
    """Bloom filter over the content hashes of a PRIOR corpus — the seen-set
    for incremental crawl dedup. One streaming pass; per-batch local filters
    OR-fold on the driver (``m/8`` bytes each, ~3.5 MB per 10^6 docs at
    fp=1e-6). ``capacity`` defaults to the prior row count (an upper bound
    on distinct hashes, so the realized fp rate is at most ``fp_rate``)."""
    from dataprof_ray.state.bloom import bloom_from_u64_batches

    prior = prior_ds.select_columns([text_col])
    if capacity is None:
        capacity = prior.count()

    def keys(batch: pa.Table):
        return (add_content_hash(batch, text_col).column("content_hash")
                .to_numpy(zero_copy_only=False))

    return bloom_from_u64_batches(prior, keys, capacity, fp_rate)


def dedup_against_prior(new_ds, prior_ds, text_col: str = "text",
                        id_col: str = "doc_id", fp_rate: float = 1e-6,
                        verify: bool = True):
    """Incremental crawl dedup: drop documents whose text already appeared
    in a PRIOR corpus, without shuffling either corpus's text. Equality is
    64-bit content-hash equality (same contract as :func:`exact_dedup`).

    Scale design (Bloom prefilter + exact verify):

    1. build the prior seen-set as a Bloom filter (one ``ray.put``
       broadcast; misses are definitive "new").
    2. scan the new corpus once, emitting only (hash, id) of the HITS —
       candidates are ``true dups + fp_rate x corpus``, never the text.
    3. exact verify: candidate hashes cogroup with the prior's hash column
       in one keyed exchange on the hash; candidates absent from the prior
       there are Bloom FALSE POSITIVES — a set of expected size ``fp_rate x new``,
       collected to the driver and broadcast as a rescue set.
    4. second streaming pass keeps misses plus rescued false positives.

    ``verify=False`` skips 3-4's prior-hash shuffle and second pass and
    drops ALL hits: cheaper, but wrongly drops ~``fp_rate`` of genuinely
    new documents — acceptable for crawl dedup at fp=1e-6, never for
    anything that must be exact."""
    bloom = prior_corpus_bloom(prior_ds, text_col, fp_rate)
    import ray

    bloom_ref = ray.put(bloom)
    # the verify union needs one id column type; prior rows carry typed
    # nulls (their ids are never read), so string ids (urls) work too
    id_type = arrow_schema(new_ds).field(id_col).type

    def keep_misses(batch: pa.Table) -> pa.Table:
        bf = ray.get(bloom_ref)
        h = add_content_hash(batch, text_col).column("content_hash")
        hit = bf.contains_u64(h.to_numpy(zero_copy_only=False))
        return batch.filter(pa.array(~hit))

    if not verify:
        return new_ds.map_batches(keep_misses, batch_format="pyarrow")

    def hit_hashes(batch: pa.Table) -> pa.Table:
        bf = ray.get(bloom_ref)
        h = add_content_hash(batch, text_col).column("content_hash") \
            .to_numpy(zero_copy_only=False)
        hit = bf.contains_u64(h)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[hit]
        hh = h[hit]
        return pa.table({
            "content_hash": pa.array(hh, pa.uint64()),
            id_col: pa.array(ids),
            "is_prior": pa.array(np.zeros(len(hh), dtype=bool)),
        })

    def prior_hashes(batch: pa.Table) -> pa.Table:
        h = add_content_hash(batch, text_col).column("content_hash") \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "content_hash": pa.array(h, pa.uint64()),
            id_col: pa.nulls(len(h), id_type),
            "is_prior": pa.array(np.ones(len(h), dtype=bool)),
        })

    def rescue_partition(tbl: pa.Table) -> pa.Table:
        # arrow-native: a pandas round-trip would launder the typed-null
        # int id column to float64 and round ids >= 2^53
        is_prior = tbl.column("is_prior").to_numpy(zero_copy_only=False)
        h = tbl.column("content_hash").to_numpy(zero_copy_only=False)
        seen = np.unique(h[is_prior])
        cand_rows = tbl.filter(pa.array(~is_prior))
        ch = h[~is_prior]
        if len(seen):
            pos = np.searchsorted(seen, ch)
            pos[pos == len(seen)] = len(seen) - 1
            fp_mask = seen[pos] != ch
        else:
            fp_mask = np.ones(len(ch), dtype=bool)
        return cand_rows.filter(pa.array(fp_mask)).select([id_col])

    cand = new_ds.select_columns([id_col, text_col]) \
        .map_batches(hit_hashes, batch_format="pyarrow")
    prior_h = prior_ds.select_columns([text_col]) \
        .map_batches(prior_hashes, batch_format="pyarrow")
    # rescued ids = Bloom false positives only: expected fp_rate x |new|,
    # safe to collect and broadcast.
    rescued = keyed_exchange(cand.union(prior_h), ["content_hash"],
                             rescue_partition).to_pandas()
    rescue_ref = ray.put(
        np.sort(rescued[id_col].to_numpy()) if len(rescued)
        else np.empty(0, dtype=object))

    def keep_final(batch: pa.Table) -> pa.Table:
        bf = ray.get(bloom_ref)
        rescue = ray.get(rescue_ref)
        h = add_content_hash(batch, text_col).column("content_hash")
        hit = bf.contains_u64(h.to_numpy(zero_copy_only=False))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        keep = ~hit
        if len(rescue):
            idx = np.searchsorted(rescue, ids)
            idx[idx >= len(rescue)] = len(rescue) - 1
            keep |= rescue[idx] == ids
        return batch.filter(pa.array(keep))

    return new_ds.map_batches(keep_final, batch_format="pyarrow")


def _band_keys(batch: pa.Table) -> np.ndarray:
    """Fold (band_id, band_hash) into one uint64 key: band_hash XOR a
    splitmix of the band id, so identical band content in DIFFERENT bands
    cannot alias."""
    from dataprof_ray.state.bloom import BloomFilter

    bh = batch.column("band_hash").to_numpy(zero_copy_only=False)
    bid = batch.column("band_id").to_numpy(zero_copy_only=False) \
        .astype(np.uint64)
    return bh ^ BloomFilter._splitmix(bid + np.uint64(0x5851F42D4C957F2D))


def neardup_flags_vs_prior(new_ds, prior_ds, text_col: str = "text",
                           id_col: str = "doc_id", num_perm: int = 128,
                           bands: int = 16, shingle_k: int = 5,
                           fp_rate: float = 1e-6):
    """Incremental NEAR-dup screening: flag new documents that MinHash-LSH
    collide with any document of a PRIOR corpus, without shuffling either
    corpus. The prior's (band_id, band_hash) keys stream into a Bloom
    filter (one broadcast); each new doc is flagged with the count of its
    bands that hit.

    Contract (candidates, not verified duplicates): an EXACT copy of a
    prior doc has identical signatures, so all bands hit and it is always
    flagged (Bloom misses are impossible) — recall 1.0 on exact dups. A
    near-dup at Jaccard s is flagged with the standard banded-LSH
    probability 1-(1-s^(num_perm/bands))^bands (~0.9996 at s=0.9 with
    128/16); dissimilar docs are flagged at ~bands x (band-collision +
    fp_rate) — use the flags to route candidates into a verified pipeline
    (e.g. `dedup_against_prior` for exact, or a cosine/Jaccard verify
    against a fetched prior subset) when over-flagging matters.

    Returns a Dataset of (id, n_band_hits, flagged)."""
    import ray

    from dataprof_ray.state.bloom import bloom_from_u64_batches

    prior_sigs = _band_rows_ds(prior_ds.select_columns([id_col, text_col]),
                               text_col, id_col, num_perm, bands, shingle_k)
    merged = bloom_from_u64_batches(prior_sigs, _band_keys,
                                    prior_ds.count() * bands, fp_rate)
    bloom_ref = ray.put(merged)

    def scan_partial(batch: pa.Table) -> pa.Table:
        # per-batch PARTIAL per-doc hit counts; a doc's band rows can be
        # split across batch/block boundaries, so a final keyed-exchange
        # sum (below) finishes the aggregation — rows there are O(docs).
        bf = ray.get(bloom_ref)
        hits = bf.contains_u64(_band_keys(batch))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(ids, return_inverse=True)
        n_hits = np.bincount(inv, weights=hits,
                             minlength=len(uniq)).astype(np.int64)
        return pa.table({
            id_col: pa.array(uniq, pa.int64()),
            "n_band_hits": pa.array(n_hits, pa.int64()),
        })

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(id_col, as_index=False)["n_band_hits"].sum())
        g["flagged"] = g["n_band_hits"] > 0
        return g

    new_sigs = _band_rows_ds(new_ds.select_columns([id_col, text_col]),
                             text_col, id_col, num_perm, bands, shingle_k)
    return keyed_exchange(
        new_sigs.map_batches(scan_partial, batch_format="pyarrow"),
        [id_col], finish, batch_format="pandas")


def _scrub_doc_tokens(text: str, remove_js: np.ndarray, n: int):
    """Rebuild one document with every token covered by a removal span
    masked out. ``remove_js`` are n-gram START positions (token index);
    each blanks ``n`` tokens. Returns (text, n_tokens, n_removed) under
    the `_wordgram_hashes` token contract (lowercase, ``\\s+`` split)."""
    toks = re.split(r"\s+", (text or "").lower().strip())
    if toks == [""]:
        toks = []
    keep = np.ones(len(toks), dtype=bool)
    for j in remove_js:
        keep[j: j + n] = False
    kept = [w for w, k in zip(toks, keep) if k]
    return " ".join(kept), len(toks), len(toks) - len(kept)


def remove_duplicate_spans(ds, n: int = 13, id_col: str = "doc_id",
                           text_col: str = "text",
                           broadcast_limit: int = 2_000_000,
                           fp_rate: float = 1e-3):
    """Cross-document exact SUBSTRING removal (the action behind
    :func:`duplicate_span_stats`; Lee et al. 2022 semantics adapted to a
    canonical-owner rule): every word n-gram that occurs in >= 2 documents
    keeps its tokens only in the document with the SMALLEST doc_id that
    contains it; every other document drops the tokens covered by that
    span. Deterministic pure function of the corpus (both tiers emit the
    same rows); output text is whitespace-normalized, lowercase (the
    gram/token contract of `_wordgram_hashes` — byte-faithful
    reconstruction is not a goal of a span-scrub stage). Doc ids must be
    int64 (owner arithmetic).

    Scale design, TWO TIERS picked by the measured dup-vocabulary size
    (pass 1 is shared: ship (8-byte gram hash, 8-byte doc id) pairs into
    64 coarse partitions, reduce to a distributed (dup gram -> min doc
    id) table, count it):

    - ``<= broadcast_limit`` dup grams (32 MB of aligned arrays at the
      2M default): broadcast the (hash, owner) arrays once and rewrite
      shuffle-free — each batch masks its own positions via searchsorted.
    - above the limit (the 100 TB crawl regime, where the >= 2-doc 13-gram
      set reaches 10^9+ entries): NO O(dup-grams) broadcast. A Bloom
      filter of the dup hashes (~1.7 bytes/gram at fp 1e-3) broadcasts
      instead; each doc emits (hash, doc, position) rows ONLY for Bloom
      hits, which cogroup with the partitioned dup table on the gram-hash
      bucket (exact verify — Bloom false positives just fail the lookup,
      never remove a span); surviving (doc, position) removals then
      cogroup with the corpus on the doc-id bucket for the rewrite. Costs
      one all-to-all of the text instead of the broadcast; candidate
      traffic is O(true dup positions + fp_rate x grams)."""
    def gram_doc_pairs(batch: pa.Table) -> pa.Table:
        from dataprof_ray.functions.grams import (unique_per_doc,
                                                  wordgram_hashes_flat)

        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        flat, counts = wordgram_hashes_flat(batch.column(text_col), n)
        h, ud = unique_per_doc(flat, counts)
        d = ids[ud].astype(np.int64)
        return pa.table({"h": pa.array(h, pa.uint64()),
                         "d": pa.array(d, pa.int64())})

    def dup_owners(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h")["d"].agg(["count", "min"])
        g = g[g["count"] >= 2]
        return pd.DataFrame({
            "h": g.index.to_numpy(dtype=np.uint64),
            "owner": g["min"].to_numpy(dtype=np.int64),
        })

    dup_ds = keyed_exchange(
        ds.select_columns([id_col, text_col])
        .map_batches(gram_doc_pairs, batch_format="pyarrow"),
        ["h"], dup_owners, batch_format="pandas").materialize()
    n_dup = dup_ds.count()

    if n_dup <= broadcast_limit:
        return _remove_spans_broadcast(ds, dup_ds, n, id_col, text_col)
    return _remove_spans_partitioned(ds, dup_ds, n_dup, n, id_col,
                                     text_col, fp_rate)


def _remove_spans_broadcast(ds, dup_ds, n, id_col, text_col):
    """Small-dup-vocab tier: broadcast (hash, owner) arrays, rewrite with
    zero shuffles (each batch resolves its own gram positions)."""
    import ray

    dup = dup_ds.to_pandas()
    if "h" in dup.columns and len(dup):
        order = np.argsort(dup["h"].to_numpy().astype(np.uint64))
        dup_h = dup["h"].to_numpy().astype(np.uint64)[order]
        dup_owner = dup["owner"].to_numpy().astype(np.int64)[order]
    else:
        dup_h = np.empty(0, dtype=np.uint64)
        dup_owner = np.empty(0, dtype=np.int64)
    dup_ref = ray.put((dup_h, dup_owner))

    def scrub(batch: pa.Table) -> pa.Table:
        from dataprof_ray.functions.grams import wordgram_hashes_flat
        from dataprof_ray.pipelines.textstats import _broadcast_cached

        h_arr, owner_arr = _broadcast_cached(dup_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        flat, counts = wordgram_hashes_flat(batch.column(text_col), n)
        if len(flat) and len(h_arr):
            pos = np.searchsorted(h_arr, flat)
            pos[pos == len(h_arr)] = 0
            found = h_arr[pos] == flat
            owners = owner_arr[pos]
        else:
            found = np.zeros(len(flat), dtype=bool)
            owners = np.zeros(len(flat), dtype=np.int64)
        offs = np.concatenate(([0], np.cumsum(counts)))
        out_text, n_tok, n_removed = [], [], []
        for r, (i, t) in enumerate(
                zip(ids, batch.column(text_col).to_pylist())):
            sl = slice(offs[r], offs[r + 1])
            js = np.flatnonzero(found[sl] & (owners[sl] != i))
            txt, nt, nr = _scrub_doc_tokens(t, js, n)
            out_text.append(txt)
            n_tok.append(nt)
            n_removed.append(nr)
        return pa.table({
            id_col: batch.column(id_col),
            "text": pa.array(out_text, pa.string()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_removed": pa.array(n_removed, pa.int64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        scrub, batch_format="pyarrow")


def _remove_spans_partitioned(ds, dup_ds, n_dup, n, id_col, text_col,
                              fp_rate):
    """Large-dup-vocab tier: Bloom prefilter -> gram-bucket cogroup exact
    verify -> doc-bucket cogroup rewrite. Broadcast is the Bloom only."""
    import ray

    from dataprof_ray.state.bloom import bloom_from_u64_batches

    id_type = arrow_schema(ds).field(id_col).type
    bloom = bloom_from_u64_batches(
        dup_ds,
        lambda b: b.column("h").to_numpy(zero_copy_only=False)
        .astype(np.uint64),
        n_dup, fp_rate)
    bloom_ref = ray.put(bloom)

    def tag_dup(batch: pa.Table) -> pa.Table:
        h = batch.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({
            "h": pa.array(h, pa.uint64()),
            "d": batch.column("owner").cast(pa.int64()),
            "j": pa.array(np.full(len(h), -1, np.int64)),
            "__side": pa.array(np.zeros(len(h), np.int8)),
        })

    def candidates(batch: pa.Table) -> pa.Table:
        from dataprof_ray.functions.grams import wordgram_hashes_flat
        from dataprof_ray.pipelines.textstats import _broadcast_cached

        bf = _broadcast_cached(bloom_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        flat, counts = wordgram_hashes_flat(batch.column(text_col), n)
        if len(flat):
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            pos_in_doc = (np.arange(len(flat), dtype=np.int64)
                          - np.repeat(starts, counts))
            hit = np.flatnonzero(bf.contains_u64(flat))
            doc_of = np.repeat(np.arange(len(counts)), counts)[hit]
            h = flat[hit]
            d = ids[doc_of].astype(np.int64)
            j = pos_in_doc[hit]
        else:
            h = np.empty(0, np.uint64)
            d = np.empty(0, np.int64)
            j = np.empty(0, np.int64)
        return pa.table({
            "h": pa.array(h, pa.uint64()),
            "d": pa.array(d, pa.int64()),
            "j": pa.array(j, pa.int64()),
            "__side": pa.array(np.ones(len(h), np.int8)),
        })

    tagged = (dup_ds.map_batches(tag_dup, batch_format="pyarrow")
              .union(ds.select_columns([id_col, text_col])
                     .map_batches(candidates, batch_format="pyarrow")))

    def resolve(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        dup_t = tbl.filter(pa.array(side == 0))
        cand_t = tbl.filter(pa.array(side == 1))
        dh = dup_t.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        down = dup_t.column("d").to_numpy(zero_copy_only=False)
        order = np.argsort(dh, kind="stable")
        dh, down = dh[order], down[order]
        ch = cand_t.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        cd = cand_t.column("d").to_numpy(zero_copy_only=False)
        cj = cand_t.column("j").to_numpy(zero_copy_only=False)
        if len(ch) and len(dh):
            pos = np.searchsorted(dh, ch).clip(0, len(dh) - 1)
            # exact verify: Bloom false positives miss here and are dropped
            rm = (dh[pos] == ch) & (down[pos] != cd)
        else:
            rm = np.zeros(len(ch), dtype=bool)
        d_out, j_out = cd[rm], cj[rm]
        return pa.table({
            "d": pa.array(d_out, pa.int64()),
            "j": pa.array(j_out, pa.int64()),
            "__text": pa.nulls(len(d_out), pa.string()),
            "__side": pa.array(np.ones(len(d_out), np.int8)),
        })

    removals = keyed_exchange(tagged, ["h"], resolve)

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "d": pa.array(ids, pa.int64()),
            "j": pa.array(np.full(len(ids), -1, np.int64)),
            "__text": batch.column(text_col).cast(pa.string()),
            "__side": pa.array(np.zeros(len(ids), np.int8)),
        })

    def rewrite(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        docs = tbl.filter(pa.array(side == 0))
        rem = tbl.filter(pa.array(side == 1))
        rd = rem.column("d").to_numpy(zero_copy_only=False)
        rj = rem.column("j").to_numpy(zero_copy_only=False)
        order = np.lexsort((rj, rd))
        rd, rj = rd[order], rj[order]
        ids = docs.column("d").to_numpy(zero_copy_only=False)
        out_text, n_tok, n_removed = [], [], []
        for i, t in zip(ids, docs.column("__text").to_pylist()):
            lo = np.searchsorted(rd, i, side="left")
            hi = np.searchsorted(rd, i, side="right")
            txt, nt, nr = _scrub_doc_tokens(t, rj[lo:hi], n)
            out_text.append(txt)
            n_tok.append(nt)
            n_removed.append(nr)
        return pa.table({
            id_col: pa.array(ids, pa.int64()).cast(id_type),
            "text": pa.array(out_text, pa.string()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_removed": pa.array(n_removed, pa.int64()),
        })

    return keyed_exchange(
        removals.union(ds.select_columns([id_col, text_col])
                       .map_batches(tag_docs, batch_format="pyarrow")),
        ["d"], rewrite)


def neardup_vs_prior_verified(new_ds, prior_ds, threshold: float = 0.8,
                              text_col: str = "text", id_col: str = "doc_id",
                              num_perm: int = 128, bands: int = 16,
                              shingle_k: int = 5) -> pd.DataFrame:
    """VERIFIED incremental near-dup matching: which NEW documents belong
    to a near-duplicate family (exact shingle Jaccard >= ``threshold``)
    that contains at least one PRIOR document. Where
    :func:`neardup_flags_vs_prior` emits unverified candidates with zero
    shuffles, this runs the full precision pipeline and is
    transitivity-aware: a new doc that matches another new doc that
    matches a prior doc is reported (family membership, not direct-pair
    luck of the LSH buckets).

    Implementation is a composition of the existing machinery over the
    TAGGED UNION of both corpora (ids encode as ``2*id + is_prior`` —
    requires ids < 2^62): stateless signatures -> coarse bucket-min
    candidate edges -> distributed Jaccard verify against a broadcast
    candidate shingle dict -> ``connected_components`` -> families with a
    prior member. Returns (new_id, prior_witness = smallest prior id in
    the family), driver-bounded by docs in >=2-member families (the same
    contract as ``minhash_lsh_duplicate_groups``)."""
    import ray

    def tag(is_prior: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            if len(ids) and ids.max() >= 2 ** 62:
                raise ValueError("ids must be < 2^62 for union encoding")
            enc = ids.astype(np.int64) * 2 + is_prior
            return pa.table({
                id_col: pa.array(enc, pa.int64()),
                text_col: batch.column(text_col),
            })
        return f

    union = (new_ds.select_columns([id_col, text_col])
             .map_batches(tag(0), batch_format="pyarrow")
             .union(prior_ds.select_columns([id_col, text_col])
                    .map_batches(tag(1), batch_format="pyarrow")))

    edges = _dedup_edges(_lsh_candidate_edges(
        union, text_col, id_col, num_perm, bands, shingle_k)).materialize()
    empty = pd.DataFrame({"new_id": pd.Series([], dtype=np.int64),
                          "prior_witness": pd.Series([], dtype=np.int64)})
    if edges.count() == 0:
        return empty

    def edge_ids(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"id": pa.array(np.concatenate([s, d]), pa.int64())})

    cand_ids = set(edges.map_batches(edge_ids, batch_format="pyarrow")
                   .unique("id"))
    shingles_ref = ray.put(
        _fetch_shingle_sets(union, cand_ids, text_col, id_col, shingle_k))
    verified = edges.map_batches(
        lambda b: _verify_edges(b, shingles_ref, threshold),
        batch_format="pyarrow").materialize()
    n_edges = verified.count()
    if n_edges == 0:
        return empty
    parts = int(min(DEFAULT_PARTITIONS, max(1, n_edges // 100_000)))
    labels = connected_components(verified, partitions=parts).to_pandas()
    labels["is_prior"] = (labels["node"] % 2).astype(bool)
    labels["orig"] = labels["node"] // 2
    witness = (labels[labels["is_prior"]]
               .groupby("label")["orig"].min())
    news = labels[~labels["is_prior"]].copy()
    news["prior_witness"] = news["label"].map(witness)
    out = news.dropna(subset=["prior_witness"])
    return (pd.DataFrame({
        "new_id": out["orig"].astype(np.int64),
        "prior_witness": out["prior_witness"].astype(np.int64),
    }).sort_values("new_id").reset_index(drop=True))


def exact_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.5,
    partitions: int = DEFAULT_PARTITIONS,
    size_broadcast_limit: int = 4_000_000,
):
    """EXACT word-n-gram Jaccard pairs (id_a < id_b, jaccard >= threshold)
    — the ground-truth twin of :func:`ngram_jaccard_duplicate_pairs`. The
    LSH-gated op is the scale path but is candidate-bounded by contract
    (band misses and bucket-min star mediation can drop true pairs); this
    one is the inverted-index ALL-pairs algorithm SQL engines run, exact
    by construction, for recall measurement and oracle checking.

    Scale design: per-doc DISTINCT gram hashes ship as (hash, doc) rows
    into gram-hash partitions; each partition self-joins its >=2-doc
    posting lists (one vectorized pandas merge) into per-pair partial
    intersection counts, which re-shuffle ONCE on a pair-hash bucket
    where they sum and take the Jaccard filter. Per-doc gram-set sizes
    are TIERED on the doc count: at or below ``size_broadcast_limit``
    (64 MB of aligned arrays at the 4M default) they broadcast as two
    sorted numpy arrays — measured 2x end-to-end vs join tier (two Ray
    sorts saved); above it they attach via two ``hash_join`` passes (no
    O(docs) broadcast). Documents never move. Honest limit: posting
    lists of corpus-stopword grams self-join quadratically — at crawl
    scale run this AFTER the cheap dedup passes, or on a sample; the
    LSH-gated op is the unbounded-corpus tool (the standard
    exactness-vs-cost trade of AllPairs-style similarity joins)."""
    import pandas as pd
    import ray

    from dataprof_ray.pipelines.aggregate import round_away
    from dataprof_ray.pipelines.join import hash_join

    parts = int(partitions)

    def gram_and_size_rows(batch: pa.Table) -> pa.Table:
        # ONE tokenize+hash pass per document emits both the (h, d) gram
        # rows (side 0) and the per-doc gram-count row (side 1, count in
        # the h slot) — gram hashing dominates this operator's CPU, so a
        # separate size pass would double it
        from dataprof_ray.functions.grams import (unique_per_doc,
                                                  wordgram_hashes_flat)

        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        flat, counts = wordgram_hashes_flat(batch.column(text_col), n)
        h, ud = unique_per_doc(flat, counts)
        d = ids[ud].astype(np.int64) if len(ud) else np.empty(0, np.int64)
        n_uniq = np.bincount(ud, minlength=len(counts)) if len(ud) \
            else np.zeros(len(counts), dtype=np.int64)
        nz = np.flatnonzero(n_uniq)
        sz_d = ids[nz].astype(np.int64).tolist()
        sz_n = n_uniq[nz].tolist()
        h_all = np.concatenate([h, np.asarray(sz_n, dtype=np.uint64)])
        d_all = np.concatenate([d, np.asarray(sz_d, dtype=np.int64)])
        side = np.concatenate([np.zeros(len(h), np.int8),
                               np.ones(len(sz_d), np.int8)])
        return pa.table({
            "h": pa.array(h_all, pa.uint64()),
            "d": pa.array(d_all, pa.int64()),
            "__side": pa.array(side, pa.int8()),
        })

    def partial_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # posting-list self-join within this gram partition; singleton
        # grams can never pair — drop them before the quadratic merge
        df = df[["h", "d"]]
        df = df[df["h"].map(df["h"].value_counts()) > 1]
        m = df.merge(df, on="h")
        m = m[m["d_x"] < m["d_y"]]
        return (m.groupby(["d_x", "d_y"], sort=False).size()
                .reset_index(name="m")
                .rename(columns={"d_x": "id_a", "d_y": "id_b"}))

    # one tokenize pass; the materialized side-tagged rows are re-read by
    # both branches (filters over materialized blocks re-read, never
    # recompute)
    combined = (ds.select_columns([id_col, text_col])
                .map_batches(gram_and_size_rows, batch_format="pyarrow")
                .materialize())
    partials = keyed_exchange(combined.filter(expr="__side == 0"), ["h"],
                              partial_pairs, partitions=parts,
                              batch_format="pandas")

    def size_cols(b: pa.Table) -> pa.Table:
        return pa.table({
            "sz_doc": b.column("d"),
            "n_grams": b.column("h").cast(pa.int64()),
        })

    sizes = (combined.filter(expr="__side == 1")
             .map_batches(size_cols, batch_format="pyarrow").materialize())
    n_docs = sizes.count()

    if n_docs <= size_broadcast_limit:
        # broadcast tier: sorted (doc id, gram count) arrays, filter fused
        # into the pair-sum partition — one shuffle after the gram exchange
        sz = sizes.to_pandas()
        order = np.argsort(sz["sz_doc"].to_numpy())
        sz_ids = sz["sz_doc"].to_numpy()[order]
        sz_n = sz["n_grams"].to_numpy()[order]
        sizes_ref = ray.put((sz_ids, sz_n))

        def sum_filter(df: pd.DataFrame) -> pd.DataFrame:
            from dataprof_ray.pipelines.textstats import _broadcast_cached

            ids_arr, n_arr = _broadcast_cached(sizes_ref)
            g = (df.groupby(["id_a", "id_b"], as_index=False, sort=False)
                 ["m"].sum())
            a = g["id_a"].to_numpy()
            b = g["id_b"].to_numpy()
            m = g["m"].to_numpy().astype(np.float64)
            na = n_arr[np.searchsorted(ids_arr, a)]
            nb = n_arr[np.searchsorted(ids_arr, b)]
            j = m / (na + nb - m)
            keep = j >= threshold
            return pd.DataFrame({
                "id_a": a[keep], "id_b": b[keep],
                "jaccard": round_away(j[keep], 6),
            })

        return keyed_exchange(partials, ["id_a", "id_b"], sum_filter,
                              partitions=parts, batch_format="pandas")

    # join tier: no O(docs) broadcast — sizes attach via two hash joins
    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["id_a", "id_b"], as_index=False, sort=False)
                ["m"].sum())

    edges = keyed_exchange(partials, ["id_a", "id_b"], sum_pairs,
                           partitions=parts, batch_format="pandas")
    with_a = hash_join(edges, sizes, left_key="id_a", right_key="sz_doc",
                       partitions=parts).drop_columns(["sz_doc"])

    def rename_na(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["na" if c == "n_grams" else c for c in batch.schema.names])

    with_b = hash_join(with_a.map_batches(rename_na, batch_format="pyarrow"),
                       sizes, left_key="id_b", right_key="sz_doc",
                       partitions=parts).drop_columns(["sz_doc"])

    def jfilter(batch: pa.Table) -> pa.Table:
        m = batch.column("m").to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch.column("na").to_numpy(zero_copy_only=False)
        nb = batch.column("n_grams").to_numpy(zero_copy_only=False)
        j = m / (na + nb - m)
        keep = j >= threshold
        return pa.table({
            "id_a": batch.column("id_a").filter(pa.array(keep)),
            "id_b": batch.column("id_b").filter(pa.array(keep)),
            "jaccard": pa.array(round_away(j[keep], 6), pa.float64()),
        })

    return with_b.map_batches(jfilter, batch_format="pyarrow")
