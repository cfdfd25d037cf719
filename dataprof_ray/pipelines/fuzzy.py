"""Fuzzy (edit-distance) self-join via FastSS deletion neighborhoods.

Finds all pairs of rows whose string column is within Levenshtein
distance ``k`` — the similarity-join class the reference has no analogue
for (its dup detection is exact row signatures, core/src/analysis.rs) and
Ray Data lacks natively.

Scale design (Bocek et al. 2007, "Fast Similarity Search in Large
Dictionaries"): two strings with lev(u, v) <= k share at least one member
of their depth-k deletion neighborhoods, so candidate generation is a
stateless ``map_batches`` that emits (variant_hash, id, text) for every
<=k-character deletion of every string — an O(len^k) map-side blowup with
NO all-pairs scan — followed by one shuffle keyed by the 64-bit variant
hash and an in-bucket exact Levenshtein verify. The neighborhood
condition is necessary but not sufficient (e.g. "ab"/"ba" share variants
at k=1 but lev=2), hence the verify step; with it the join is EXACT, and
the ``fuzzy_name_pairs`` query pins it against a DuckDB
``levenshtein()`` cross-join oracle.

Skew: a variant shared by B strings proposes B(B-1)/2 intra-bucket pairs.
For near-duplicate-id corpora B is small (a variant fixes all but one
character); ``bucket_cap`` guards pathological buckets (low-entropy
strings) by dropping oversized buckets WITH an audit count, mirroring
``jaccard_lsh_pairs``'s pair_cap contract. Pairs are deduplicated
distributed (a keyed exchange on id_a) before the driver ever sees
them; output is O(true pairs + capped candidates).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from dataprof_ray.pipelines.partitioning import keyed_exchange


def levenshtein(a: str, b: str, cap: Optional[int] = None) -> int:
    """Plain DP Levenshtein (insert/delete/substitute, unit costs) with an
    optional early-exit band: if the true distance exceeds ``cap`` the
    return value is any int > cap. Matches DuckDB's levenshtein()."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    if cap is not None and abs(la - lb) > cap:
        return cap + 1
    if la < lb:  # keep the inner loop over the shorter string
        a, b, la, lb = b, a, lb, la
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        best = cur[0]
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if cur[j] < best:
                best = cur[j]
        if cap is not None and best > cap:
            return cap + 1
        prev = cur
    return prev[lb]


def _within_one(a: str, b: str) -> bool:
    """lev(a, b) <= 1 in O(n) — the hot verify path for max_distance=1."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a with one insertion: advance past the single mismatch
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def _deletion_variants(s: str, k: int) -> set:
    """Depth-<=k deletion neighborhood of ``s``, including ``s`` itself."""
    out = {s}
    frontier = {s}
    for _ in range(k):
        nxt = set()
        for t in frontier:
            for i in range(len(t)):
                nxt.add(t[:i] + t[i + 1:])
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def _hash64(strings) -> np.ndarray:
    """Stable 64-bit hash of python strings via polars (xxhash) — one
    vectorized pass, no per-string hashlib round-trips."""
    import polars as pl

    return (pl.Series(strings, dtype=pl.Utf8)
            .hash(seed=0).to_numpy().astype(np.uint64))


def fuzzy_pairs(
    ds,
    text_col: str,
    id_col: str,
    max_distance: int = 1,
    bucket_cap: int = 256,
    max_len: int = 256,
):
    """All (id_a, id_b, dist) pairs with lev(text_a, text_b) <= max_distance
    and id_a < id_b. Exact (candidate gen is lossless under ``bucket_cap``
    / ``max_len``; verify disposes). ``max_distance`` <= 2 — the
    neighborhood is O(len^k) variants per string, so higher k belongs to
    the LSH family, not this operator. Strings longer than ``max_len``
    are skipped (counted): O(len) variants x O(len^2) DP is the wrong
    tool past short-field scale, and the reference-shaped use cases
    (names, titles, codes) sit well under it.

    Returns a lazy Dataset; callers at audit scale collect it.
    """
    if max_distance not in (1, 2):
        raise ValueError("fuzzy_pairs supports max_distance in {1, 2}")

    k = max_distance

    def variants(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = batch.column(text_col).to_pylist()
        v_ids, v_texts, v_strs = [], [], []
        for i, t in zip(ids, texts):
            if t is None or len(t) > max_len:
                continue
            for v in _deletion_variants(t, k):
                v_ids.append(int(i))
                v_texts.append(t)
                v_strs.append(v)
        h = _hash64(v_strs) if v_strs else np.array([], dtype=np.uint64)
        return pa.table({
            "bucket": pa.array(h, pa.uint64()),
            "id": pa.array(v_ids, pa.int64()),
            "text": pa.array(v_texts, pa.string()),
        })

    def partition_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # one coarse partition: verify intra-bucket pairs for ALL of its
        # variant buckets, then dedup locally (the same true pair is
        # re-proposed by every shared variant in this partition)
        rows = []
        for _, g in df.groupby("bucket", sort=False):
            g = g.drop_duplicates("id")
            n = len(g)
            if n < 2 or n > bucket_cap:
                continue
            ids = g["id"].to_numpy()
            txt = g["text"].tolist()
            order = np.argsort(ids, kind="stable")
            for x in range(n):
                for y in range(x + 1, n):
                    a, b = order[x], order[y]
                    if k == 1:
                        if not _within_one(txt[a], txt[b]):
                            continue
                        d = 0 if txt[a] == txt[b] else 1
                    else:
                        d = levenshtein(txt[a], txt[b], cap=k)
                        if d > k:
                            continue
                    rows.append((int(ids[a]), int(ids[b]), d))
        return (pd.DataFrame(rows, columns=["id_a", "id_b", "dist"])
                .astype({"id_a": np.int64, "id_b": np.int64,
                         "dist": np.int64})
                .drop_duplicates(["id_a", "id_b"]))

    # coarse exchange on the variant hash: one Ray group per partition,
    # not per variant (per-tiny-group scheduling is the measured hotspot —
    # see pipelines.partitioning); variant buckets are resolved by an
    # in-partition pandas groupby
    cand = keyed_exchange(ds.map_batches(variants, batch_format="pyarrow"),
                          ["bucket"], partition_pairs, batch_format="pandas")

    # the same true pair is re-proposed by every shared variant: dedup
    # distributed, keyed on id_a (both endpoints ride along, so
    # cross-partition duplicates cannot survive)
    def dd(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["id_a", "id_b"])[["id_a", "id_b", "dist"]]

    return keyed_exchange(cand, ["id_a"], dd, batch_format="pandas")
