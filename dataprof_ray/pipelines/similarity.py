"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: exact cosine top-k. The query matrix is broadcast
  once via ``ray.put``; each batch computes a numpy matmul against it and
  emits only its local top-k rows, which the driver k-way merges. The data
  never shuffles; the exchange is (batches x k) candidate rows.
- ``ivf_topk``: IVF-style scale path. Centroids are trained on a driver-side
  sample (deterministic k-means), broadcast, and each batch scores only the
  rows assigned to the query's ``nprobe`` nearest cells. Same merge.

Design note for 100 TB: both operators stream as stateless tasks; the
broadcast state (query matrix, centroids, probe cells) is one ``ray.put``
read once per worker process (``textstats._broadcast_cached``), not
re-shipped per batch. Exact top-k over everything is the *baseline*; IVF
bounds compute by pruning ~(1 - nprobe/ncells) of rows at equal merge cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa


def _to_matrix(column) -> np.ndarray:
    """(n, d) float64 matrix from a list/fixed_size_list embedding column.

    Zero-copy flatten + reshape for the regular case (every hot consumer:
    scorers, LSH signature stages); ``to_pylist`` boxed every float and was
    the top per-batch cost. Falls back to the boxed path only for ragged
    lists or null rows, which are a schema error for embedding columns."""
    if isinstance(column, pa.ChunkedArray):
        column = column.combine_chunks()
    t = column.type
    if pa.types.is_fixed_size_list(t) and column.null_count == 0:
        d = t.list_size
        flat = np.asarray(column.flatten(), dtype=np.float64)
        return flat.reshape(len(column), d)
    if (pa.types.is_list(t) or pa.types.is_large_list(t)) and column.null_count == 0:
        lengths = np.asarray(column.value_lengths(), dtype=np.int64)
        if len(lengths) and (lengths == lengths[0]).all():
            flat = np.asarray(column.flatten(), dtype=np.float64)
            return flat.reshape(len(column), int(lengths[0]))
    return np.array(column.to_pylist(), dtype=np.float64)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


def _score_batch(batch: pa.Table, state_ref, k: int, vec_col: str,
                 id_col: str) -> pa.Table:
    """One batch's local cosine top-k per query, as a stateless task. The
    broadcast ``(queries, centroids, probe_cells)`` is read once per worker
    process. Without centroids every row is scored (exact); with them, only
    rows whose nearest centroid is one of the query's ``probe_cells``
    (IVF)."""
    from dataprof_ray.pipelines.textstats import _broadcast_cached

    queries, centroids, probe_cells = _broadcast_cached(state_ref)
    vecs = _normalize_rows(_to_matrix(batch.column(vec_col)))
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    if centroids is None:
        all_sims = vecs @ queries.T  # (n, q)
    else:
        cells = (vecs @ centroids.T).argmax(axis=1)
    out_q, out_id, out_sim = [], [], []
    for qi in range(len(queries)):
        if centroids is None:
            sub_ids, sims = ids, all_sims[:, qi]
        else:
            mask = np.isin(cells, probe_cells[qi])
            sub_ids, sims = ids[mask], vecs[mask] @ queries[qi]
        if not len(sims):
            continue
        kq = min(k, len(sims))
        top = np.argpartition(-sims, kq - 1)[:kq]
        out_q.extend([qi] * kq)
        out_id.extend(sub_ids[top].tolist())
        out_sim.extend(sims[top].tolist())
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        id_col: pa.array(out_id, pa.int64()),
        "cosine": pa.array(out_sim, pa.float64()),
    })


def _empty_topk(id_col: str):
    """The typed zero-row top-k result (an empty corpus scores nothing)."""
    import pandas as pd

    return pd.DataFrame({"query_id": pd.Series([], dtype=np.int64),
                         id_col: pd.Series([], dtype=np.int64),
                         "cosine": pd.Series([], dtype=np.float64)})


def _topk(ds, queries: np.ndarray, k: int, vec_col: str, id_col: str,
          centroids: Optional[np.ndarray] = None, nprobe: int = 0):
    """Score every batch as a task against one broadcast object, then k-way
    merge the (batches x k) candidates on the driver. The IVF probe cells
    are chosen here, once. Returns a pandas DataFrame (query_id, id,
    cosine) sorted by (query_id, -cosine, id); typed and empty when there
    is nothing to score."""
    import ray

    queries = _normalize_rows(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    probe_cells = None if centroids is None else \
        np.argsort(-(queries @ centroids.T), axis=1)[:, :nprobe]
    state_ref = ray.put((queries, centroids, probe_cells))
    candidates = ds.map_batches(
        _score_batch, batch_format="pyarrow",
        fn_kwargs=dict(state_ref=state_ref, k=k, vec_col=vec_col, id_col=id_col),
    ).to_pandas()
    if candidates.empty:
        return _empty_topk(id_col)
    return (
        candidates.sort_values(["query_id", "cosine", id_col],
                               ascending=[True, False, True])
        .groupby("query_id", sort=True)
        .head(k)
        .reset_index(drop=True)
    )


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id"):
    """Exact cosine top-k for each query row. Returns a pandas DataFrame
    (query_id, id, cosine) sorted by (query_id, -cosine, id)."""
    return _topk(ds, queries, k, vec_col, id_col)


def _sample_matrix(ds, rows: int, vec_col: str) -> np.ndarray:
    """Up to ``rows`` normalized vectors on the driver; (0, 0) when the
    corpus is empty."""
    sample = ds.limit(rows).to_pandas()
    if sample.empty:
        return np.zeros((0, 0))
    return _normalize_rows(np.stack(sample[vec_col].map(np.asarray)))


def train_centroids(ds, n_cells: int = 16, sample_rows: int = 4096,
                    vec_col: str = "embedding", iters: int = 10, seed: int = 5) -> np.ndarray:
    """Deterministic mini k-means on a driver-side sample (the only
    materialized data is `sample_rows` vectors)."""
    x = _sample_matrix(ds, sample_rows, vec_col)
    if not len(x):
        return x
    rng = np.random.default_rng(seed)
    centroids = x[rng.choice(len(x), size=min(n_cells, len(x)), replace=False)]
    for _ in range(iters):
        assign = (x @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = x[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize_rows(centroids)
    return centroids


def train_centroids_distributed(ds, n_cells: int = 16, iters: int = 10,
                                vec_col: str = "embedding", seed: int = 5,
                                init_sample_rows: int = 4096) -> np.ndarray:
    """Distributed mini-batch k-means: centroids seed from a driver sample,
    then each Lloyd iteration is one streaming pass — every batch computes
    its per-cell (vector sum, count) partials against the broadcast
    centroids, and the driver folds the tiny (n_cells x d) partials. The
    data never shuffles and the driver holds only centroids; this is the
    scale path over ``train_centroids`` (whose model fits only the sampled
    rows)."""
    import ray

    x0 = _sample_matrix(ds, init_sample_rows, vec_col)
    if not len(x0):
        return x0
    rng = np.random.default_rng(seed)
    centroids = x0[rng.choice(len(x0), size=min(n_cells, len(x0)),
                              replace=False)].copy()

    for _ in range(iters):
        cref = ray.put(centroids)

        def partials(batch: pa.Table) -> pa.Table:
            import ray as _ray

            c = _ray.get(cref)
            vecs = _normalize_rows(_to_matrix(batch.column(vec_col)))
            if not len(vecs):
                return pa.table({"cell": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64()),
                                 "vsum": pa.array([], pa.list_(pa.float64()))})
            assign = (vecs @ c.T).argmax(axis=1)
            cells, counts = np.unique(assign, return_counts=True)
            sums = np.zeros((len(cells), vecs.shape[1]), dtype=np.float64)
            for k, cell in enumerate(cells):
                sums[k] = vecs[assign == cell].sum(axis=0)
            return pa.table({
                "cell": pa.array(cells.astype(np.int64), pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
                "vsum": pa.array([s.tolist() for s in sums],
                                 pa.list_(pa.float64())),
            })

        sums = np.zeros_like(centroids)
        counts = np.zeros(len(centroids), dtype=np.int64)
        for b in (ds.map_batches(partials, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow")):
            for cell, cnt, vsum in zip(b.column("cell").to_pylist(),
                                       b.column("cnt").to_pylist(),
                                       b.column("vsum").to_pylist()):
                sums[cell] += np.asarray(vsum)
                counts[cell] += cnt
        nonzero = counts > 0
        centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
        centroids = _normalize_rows(centroids)
    return centroids


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_cells: int = 16, nprobe: int = 4,
             vec_col: str = "embedding", id_col: str = "vec_id",
             distributed_training: bool = False):
    """Approximate (IVF-pruned) cosine top-k. Same output shape as
    brute_force_topk; recall grows with nprobe/n_cells.
    ``distributed_training=True`` trains centroids with full-data Lloyd
    passes (``train_centroids_distributed``) instead of the driver
    sample — use when the corpus's structure isn't captured by 4k rows."""
    if distributed_training:
        centroids = train_centroids_distributed(ds, n_cells=n_cells,
                                                vec_col=vec_col)
    else:
        centroids = train_centroids(ds, n_cells=n_cells, vec_col=vec_col)
    if not len(centroids):  # empty corpus: nothing to train on or score
        return _empty_topk(id_col)
    return _topk(ds, queries, k, vec_col, id_col, centroids, nprobe)


# -------------------------------------------------------- int8 quantization


def quantize_embeddings(ds, vec_col: str = "embedding",
                        id_col: str = "vec_id"):
    """Per-vector symmetric int8 quantization: ``q = round(x / scale)``
    with ``scale = max|x| / 127`` (scale 0 for all-zero vectors). 4x
    smaller at rest and on the wire than float32 — the storage/shuffle
    footprint lever for 10^9-vector corpora. Streaming map_batches;
    emits (id, qvec int8 list, scale float64)."""
    def stage(batch: pa.Table) -> pa.Table:
        col_type = batch.column(vec_col).type
        m = _to_matrix(batch.column(vec_col))
        if pa.types.is_fixed_size_list(col_type):
            d = col_type.list_size
        elif len(m):
            d = m.shape[1]
        else:
            raise ValueError(
                "cannot infer embedding dim from an empty variable-list "
                "batch; use a fixed_size_list column")
        if len(m):
            amax = np.abs(m).max(axis=1)
            scale = amax / 127.0
            safe = np.where(scale > 0, scale, 1.0)
            q = np.clip(np.round(m / safe[:, None]), -127, 127).astype(np.int8)
        else:
            scale = np.zeros(0)
            q = np.zeros((0, d), dtype=np.int8)
        return pa.table({
            id_col: batch.column(id_col),
            "qvec": pa.FixedSizeListArray.from_arrays(
                pa.array(q.ravel(), pa.int8()), d),
            "scale": pa.array(scale, pa.float64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


def quantized_topk(ds, queries: np.ndarray, k: int = 10,
                   vec_col: str = "qvec", scale_col: str = "scale",
                   id_col: str = "vec_id"):
    """Cosine top-k over int8-quantized vectors: a streaming dequantize
    stage (``scale * q`` — one broadcast multiply per batch) feeding the
    ONE tested top-k path, ``brute_force_topk``. Cosine is scale-invariant
    per vector, so the dequantized score differs from the float score only
    by rounding error (measured by the ``quantization_audit`` query)."""
    def dequant(batch: pa.Table) -> pa.Table:
        q8 = _to_matrix(batch.column(vec_col))
        scale = batch.column(scale_col).to_numpy(zero_copy_only=False)
        m = q8 * scale[:, None]
        d = q8.shape[1] if q8.ndim == 2 else 0
        return pa.table({
            id_col: batch.column(id_col),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel(), pa.float64()), max(d, 1)),
        })

    dsq = ds.map_batches(dequant, batch_format="pyarrow")
    return brute_force_topk(dsq, queries, k=k, vec_col="embedding",
                            id_col=id_col)


# ------------------------------------------------------------ distributed PCA


def pca_fit(ds, k: int = 8, vec_col: str = "embedding") -> dict:
    """Distributed PCA over an embedding column via covariance partials:
    each batch emits (n, column-sum, X^T X) — d and d*d floats regardless
    of batch size — and the driver folds them into one d x d covariance,
    then takes the top-k eigenvectors (``np.linalg.eigh`` on a matrix that
    fits any driver for embedding-scale d). The corpus never shuffles and
    the driver never sees a row; this is the exact-moments sibling of the
    streaming accumulators in state/.

    Component signs are canonicalized (largest-|coefficient| entry made
    positive) so the model is deterministic up to eigenvalue ties. Returns
    {mean (d,), components (k, d), explained_variance (k,),
    total_variance (scalar), n}."""
    def partial(batch: pa.Table) -> pa.Table:
        x = _to_matrix(batch.column(vec_col))
        if not len(x):
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "xtx": pa.array([], pa.list_(pa.float64()))})
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "s": pa.array([x.sum(axis=0).tolist()], pa.list_(pa.float64())),
            "xtx": pa.array([(x.T @ x).ravel().tolist()],
                            pa.list_(pa.float64())),
        })

    n = 0
    s = None
    xtx = None
    for b in (ds.map_batches(partial, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for bn, bs, bx in zip(b.column("n").to_pylist(),
                              b.column("s").to_pylist(),
                              b.column("xtx").to_pylist()):
            n += bn
            if s is None:
                s = np.asarray(bs)
                xtx = np.asarray(bx)
            else:
                s = s + np.asarray(bs)
                xtx = xtx + np.asarray(bx)
    if n < 2:
        raise ValueError(f"PCA needs >= 2 rows, got {n}")
    d = len(s)
    mean = s / n
    cov = (xtx.reshape(d, d) - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    idx = np.argsort(evals)[::-1][:min(k, d)]
    comps = evecs[:, idx].T.copy()
    for row in comps:  # deterministic sign convention
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return {"mean": mean, "components": comps,
            "explained_variance": evals[idx],
            "total_variance": float(evals.sum()), "n": n}


def pca_transform(ds, model: dict, vec_col: str = "embedding",
                  id_col: str = "vec_id", out_col: str = "pc"):
    """Project each vector onto the fitted components: a streaming
    broadcast-multiply stage emitting (id, pc fixed_size_list<k>). The
    model (k x d + d floats) rides the object store once."""
    import ray

    from dataprof_ray.pipelines.textstats import _broadcast_cached

    mref = ray.put((model["mean"], model["components"]))
    k = len(model["components"])

    def project(batch: pa.Table) -> pa.Table:
        mean, comps = _broadcast_cached(mref)
        x = _to_matrix(batch.column(vec_col))
        p = (x - mean) @ comps.T if len(x) else np.zeros((0, k))
        return pa.table({
            id_col: batch.column(id_col),
            out_col: pa.FixedSizeListArray.from_arrays(
                pa.array(p.ravel(), pa.float64()), k),
        })

    return ds.map_batches(project, batch_format="pyarrow")


def pca_audit(ds, k: int = 8, vec_col: str = "embedding") -> dict:
    """Self-measuring PCA check: fit, then measure the mean squared
    reconstruction error in a SECOND distributed pass (per-batch residual
    sums, driver folds scalars) and compare it against the eigenvalue
    identity ``mse == (sum of dropped eigenvalues) * (n-1)/n`` — an exact
    property of PCA, so the relative gap is a pure numeric-error meter of
    the partials pipeline. Returns {d, k, n, explained_ratio, recon_mse,
    expected_mse, rel_gap}."""
    import ray

    from dataprof_ray.pipelines.textstats import _broadcast_cached

    model = pca_fit(ds, k=k, vec_col=vec_col)
    mref = ray.put((model["mean"], model["components"]))

    def residual(batch: pa.Table) -> pa.Table:
        mean, comps = _broadcast_cached(mref)
        x = _to_matrix(batch.column(vec_col))
        if not len(x):
            return pa.table({"sq": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        c = x - mean
        p = c @ comps.T
        resid = c - p @ comps
        return pa.table({"sq": pa.array([float((resid ** 2).sum())]),
                         "n": pa.array([len(x)], pa.int64())})

    sq = 0.0
    n = 0
    for b in (ds.map_batches(residual, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        sq += sum(b.column("sq").to_pylist())
        n += sum(b.column("n").to_pylist())
    d = len(model["mean"])
    dropped = model["total_variance"] - float(model["explained_variance"].sum())
    expected = dropped * (n - 1) / n  # eigh variance is sample (n-1) scaled
    mse = sq / n
    denom = max(abs(expected), 1e-300)
    return {
        "d": d, "k": len(model["components"]), "n": n,
        "explained_ratio": float(model["explained_variance"].sum()
                                 / model["total_variance"]),
        "recon_mse": mse, "expected_mse": expected,
        "rel_gap": abs(mse - expected) / denom,
    }
