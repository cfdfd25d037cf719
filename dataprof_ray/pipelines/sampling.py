"""Sampling strategies over a Dataset.

Behavior parity (not a port) with the reference's sampling layer
(/root/reference/crates/dataprof-core/src/sampling/strategies.rs:14-260):

- none / random / reservoir (fixed size)      -> strategies.rs:17-34
- systematic every-Nth                        -> strategies.rs:36-44
- stratified per-key cap (multi-key,
  rows missing a key excluded)                -> strategies.rs:121-149
- progressive grow-until-relative-SE          -> strategies.rs:44-60
- importance = threshold filter on a weight   -> strategies.rs:62-75
- multi-stage: filters then <=1 fixed-size    -> strategies.rs:86-117
- adaptive chooser by rows/MB                 -> strategies.rs:159-180

Ray-Data-first notes: random sampling is ``ds.random_sample`` (stateless,
streaming); the fixed-size reservoir folds per-block reservoirs with the
deterministic merge from state.accumulators; systematic is per-partition
over a global running offset (computed from block row counts — no shuffle);
stratified caps each key via a hash-partitioned groupby.
"""

from __future__ import annotations

from contextlib import closing
from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from dataprof_ray.pipelines.partitioning import (keyed_exchange,
                                                 nullable_cogroup)
from dataprof_ray.state.accumulators import RESERVOIR_SEED, ReservoirSampler


def random_sample(ds, fraction: float, seed: int = RESERVOIR_SEED):
    """Bernoulli sample — streaming, no shuffle (strategies.rs Random)."""
    return ds.random_sample(fraction, seed=seed & 0x7FFFFFFF)


def reservoir_sample(ds, size: int, seed: int = RESERVOIR_SEED) -> pa.Table:
    """Fixed-size uniform sample: per-block reservoirs folded in
    deterministic block order (the reference buffers and folds at
    end-of-stream, incremental.rs:313-323). Returns a pyarrow.Table of
    ``size`` rows (fewer if the dataset is smaller)."""
    import pickle

    def block_reservoir(batch: pa.Table) -> pa.Table:
        r = ReservoirSampler(size, seed)
        r.offer_arrow(batch.to_struct_array().combine_chunks())
        return pa.table({
            "n": pa.array([r.count], pa.int64()),
            "blob": pa.array([pickle.dumps(r)], pa.binary()),
        })

    parts = ds.map_batches(block_reservoir, batch_format="pyarrow").take_all()
    merged = ReservoirSampler(size, seed)
    for part in sorted(parts, key=lambda p: p["blob"]):
        merged.merge(pickle.loads(part["blob"]))
    if not len(merged):
        return pa.table({})
    return pa.Table.from_struct_array(merged.reservoir)


def systematic_sample(ds, every_n: int) -> pa.Table:
    """Every-Nth row in dataset order (strategies.rs:36-44, positional
    semantics). Positional order is inherently sequential, so this streams
    batches to the driver in order and keeps a running offset — use only on
    small/medium data; the distributed-safe scale path is
    ``systematic_by_key`` (order-free, SQL-checkable)."""
    if every_n <= 1:
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))

    out = []
    offset = 0
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=8192):
        first = (-offset) % every_n
        idx = np.arange(first, batch.num_rows, every_n)
        if len(idx):
            out.append(batch.take(pa.array(idx, pa.int64())))
        offset += batch.num_rows
    if not out:
        return pa.table({})
    return pa.concat_tables(out)


def systematic_by_key(ds, key: str, every_n: int, offset: int = 0):
    """Distributed-safe systematic variant: keep rows where key % N == offset.
    Deterministic, order-free, and SQL-checkable — the scale path when a
    dense integer key exists."""
    def pick(batch: pa.Table) -> pa.Table:
        keys = batch.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(keys % every_n == offset))

    return ds.map_batches(pick, batch_format="pyarrow")


def systematic_by_hash(ds, every_n: int):
    """Order-free systematic stand-in for distributed sources: keep rows
    whose full-row signature hash % N == 0. Positional every-Nth semantics
    need a total row order an unordered Dataset doesn't have; the hash
    variant keeps the same ~1/N deterministic thinning while streaming
    (used by the adaptive chooser's multi-stage recommendation)."""
    from dataprof_ray.state.accumulators import row_signature_hashes

    def pick(batch: pa.Table) -> pa.Table:
        h = row_signature_hashes(batch)
        return batch.filter(pa.array(h % np.uint64(every_n) == 0))

    return ds.map_batches(pick, batch_format="pyarrow")


def stratified_sample(ds, keys: Sequence[str], per_key: int,
                      order_col: Optional[str] = None,
                      partitions: int = None):
    """At most ``per_key`` rows per distinct key combination; rows with a
    null in any key column are EXCLUDED (strategies.rs:121-149 multi-key
    semantics). Deterministic when ``order_col`` is given (smallest first).

    Scale design: strata move through one ``keyed_exchange`` on the key
    hash and each partition caps ALL of its strata in one
    vectorized pandas pass (sort + ``groupby(keys).head``), so Ray
    schedules 64 groups regardless of stratum cardinality (per-stratum Ray
    groups are the measured per-tiny-group hotspot; see
    pipelines.partitioning)."""
    import pyarrow.compute as pc

    keys = list(keys)

    def cap_partition(df: pd.DataFrame) -> pd.DataFrame:
        if order_col is not None:
            df = df.sort_values(order_col, kind="mergesort")
        return df.groupby(keys, sort=False).head(per_key)

    def drop_null_keys(batch: pa.Table) -> pa.Table:
        mask = None
        for k in keys:
            valid = pc.is_valid(batch.column(k))
            mask = valid if mask is None else pc.and_(mask, valid)
        return batch.filter(mask)

    # nullable_cogroup: payload ints with nulls must stay ints
    return keyed_exchange(
        ds.map_batches(drop_null_keys, batch_format="pyarrow"),
        keys, nullable_cogroup(cap_partition), partitions=partitions)


def importance_sample(ds, weight_col: str, threshold: float):
    """Keep rows whose weight >= threshold (strategies.rs:56-60)."""
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column(weight_col), threshold)),
        batch_format="pyarrow",
    )


def multi_stage_sample(ds, stages: Sequence[tuple]):
    """Compose stages: any number of filter stages and at most ONE final
    fixed-size stage (strategies.rs:86-117 validation). Stage specs:
    ("importance", col, threshold) | ("systematic_key", col, n) |
    ("random", fraction) | ("reservoir", size)."""
    fixed_seen = False
    out = ds
    for i, spec in enumerate(stages):
        kind = spec[0]
        if fixed_seen:
            raise ValueError("fixed-size stage must be last")
        if kind == "importance":
            out = importance_sample(out, spec[1], spec[2])
        elif kind == "systematic_key":
            out = systematic_by_key(out, spec[1], spec[2])
        elif kind == "systematic_hash":
            out = systematic_by_hash(out, spec[1])
        elif kind == "random":
            out = random_sample(out, spec[1])
        elif kind == "reservoir":
            out = reservoir_sample(out, spec[1])
            fixed_seen = True
        elif kind == "progressive":
            out = progressive_sample(out, *spec[1:])
            fixed_seen = True
        else:
            raise ValueError(f"unknown stage kind: {kind}")
    return out


def progressive_sample(ds, initial_size: int = 10_000,
                       confidence_level: float = 0.95,
                       max_size: int = 50_000,
                       batch_size: int = 4096) -> pa.Table:
    """Grow-until-precise sampling (strategies.rs Progressive, :44-60):
    rows stream in until the mean of EVERY numeric column has a relative
    standard error within ``1 - confidence_level``, bounded by
    ``initial_size`` (never stop earlier) and ``max_size`` (never grow
    further). A source with no numeric columns has no measurable precision
    and always samples ``max_size`` rows, as in the reference.

    Driver-monitored like the stop conditions (state/stop.py): batches
    stream in dataset order, a Welford accumulator per numeric column
    tracks the running RSE, and the stream is abandoned at the stop row —
    the rest of the dataset is never pulled (Ray's streaming executor
    cancels the remainder when iteration ends)."""
    target = 1.0 - confidence_level
    # (count, mean, M2) per numeric column, merged with Chan's formula
    stats: dict = {}
    numeric_cols: Optional[list] = None
    collected: list = []
    n = 0
    # closed explicitly on every way out: Ray Data's iterator threads stop
    # at their next poll, whatever else holds the generator
    with closing(iter(ds.iter_batches(batch_format="pyarrow",
                                      batch_size=batch_size))) as batches:
        for batch in batches:
            if numeric_cols is None:
                numeric_cols = [
                    f.name for f in batch.schema
                    if pa.types.is_integer(f.type) or pa.types.is_floating(f.type)
                ]
            take = min(batch.num_rows, max_size - n)
            if take <= 0:
                break
            if take < batch.num_rows:
                batch = batch.slice(0, take)
            collected.append(batch)
            n += take
            for c in numeric_cols:
                vals = batch.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
                vals = vals[np.isfinite(vals)]
                if not len(vals):
                    continue
                bc, bm = len(vals), float(vals.mean())
                bm2 = float(((vals - bm) ** 2).sum())
                c0, m0, m20 = stats.get(c, (0, 0.0, 0.0))
                delta = bm - m0
                cn = c0 + bc
                stats[c] = (cn, m0 + delta * bc / cn,
                            m20 + bm2 + delta * delta * c0 * bc / cn)
            if n >= max_size:
                break
            if n >= initial_size and numeric_cols and _rse_converged(stats, target):
                break
    if not collected:
        return pa.table({})
    return pa.concat_tables(collected)


def _rse_converged(stats: dict, target: float) -> bool:
    """True when every tracked numeric column's mean has relative standard
    error <= target. A zero mean has no relative scale, so it only passes
    with zero variance (the reference's 'volatile column runs to max')."""
    if not stats:
        return False
    for count, mean, m2 in stats.values():
        if count < 2:
            return False
        se = (m2 / (count - 1)) ** 0.5 / count ** 0.5
        if mean == 0.0:
            if se > 0.0:
                return False
        elif se / abs(mean) > target:
            return False
    return True


def choose_strategy(total_rows: Optional[int], total_mb: float) -> dict:
    """Adaptive chooser with the reference's exact thresholds
    (strategies.rs:159-180): <=10k rows and <10MB -> none; <=100k rows ->
    random 10k; <=1M rows -> progressive(10k, 0.95, 50k); >1000MB ->
    multi-stage [systematic every-100th, progressive(5k, 0.99, 25k)];
    otherwise reservoir 100k."""
    if total_rows is not None and total_rows <= 10_000 and total_mb < 10.0:
        return {"kind": "none"}
    if total_rows is not None and total_rows <= 100_000:
        return {"kind": "random", "size": 10_000}
    if total_rows is not None and total_rows <= 1_000_000:
        return {"kind": "progressive", "initial_size": 10_000,
                "confidence_level": 0.95, "max_size": 50_000}
    if total_mb > 1000.0:
        return {"kind": "multi_stage", "stages": [
            ("systematic_hash", 100),
            ("progressive", 5_000, 0.99, 25_000),
        ]}
    return {"kind": "reservoir", "size": 100_000}


def apply_strategy(ds, spec: dict):
    """Execute a ``choose_strategy`` recommendation — every shape the
    chooser emits maps onto a sampler here (a recommendation that can't
    be executed is a bug; tested exhaustively). Fixed-size strategies
    return a pyarrow.Table (the sample is final only at end-of-stream);
    streaming ones return a Dataset."""
    kind = spec["kind"]
    if kind == "none":
        return ds
    if kind in ("random", "reservoir"):
        # reference semantics: Random over an unknown-length source IS
        # reservoir sampling (strategies.rs:17-34)
        return reservoir_sample(ds, spec["size"])
    if kind == "progressive":
        return progressive_sample(ds, spec["initial_size"],
                                  spec["confidence_level"], spec["max_size"])
    if kind == "multi_stage":
        return multi_stage_sample(ds, spec["stages"])
    raise ValueError(f"unknown strategy kind: {kind}")


# ------------------------------------------------------------ hash split


def rate_bound(millionths: int) -> str:
    """Upper md5-hex boundary for a probability expressed in millionths:
    a row with ``md5(str(id)) < rate_bound(r)`` is selected with
    probability r/1e6. md5 hex is uniform over [0, 16^32), and for
    FIXED-LENGTH lowercase hex, lexicographic order == numeric order, so
    the decision is a string comparison against a precomputed 32-char
    boundary. Exact integer arithmetic, so the Ray side and any SQL
    replica compute identical boundaries — the ONE shared implementation
    behind hash_split, weighted_source_sample, and their oracles."""
    r = min(max(int(millionths), 0), 10 ** 6)
    if r >= 10 ** 6:
        return "g" * 32  # > any hex digest: always selected
    return format(r * 16 ** 32 // 10 ** 6, "032x")


def split_boundaries(fractions: "dict[str, float]") -> "list[tuple[str, str]]":
    """(split_name, upper_bound_hex) pairs from cumulative fractions (see
    ``rate_bound`` for the boundary contract). Fractions are snapped to
    1e-6 and MUST cover the unit interval (sum == 1.0 within snapping
    slack): the last split is forced to the catch-all bound so no digest
    can fall through; partial coverage raises (use
    ``weighted_source_sample`` to keep a fraction of rows)."""
    total = 0
    out = []
    names = list(fractions)
    for i, name in enumerate(names):
        total += int(round(fractions[name] * 10 ** 6))
        if i == len(names) - 1:
            if abs(total - 10 ** 6) > len(names):  # 1-millionth slack/term
                raise ValueError(
                    f"fractions must sum to 1.0 (got {total / 10 ** 6:.6f}); "
                    "every row needs a split")
            bound = "g" * 32
        else:
            bound = rate_bound(total)
        out.append((name, bound))
    return out


def hash_split(ds, id_col: str = "doc_id",
               fractions: "Optional[dict[str, float]]" = None):
    """Deterministic train/val/test assignment: split = first boundary whose
    hex bound exceeds ``md5(str(id))``. Stable under any repartitioning or
    re-run (pure function of the id — the property a 10^12-doc corpus needs
    so resharding never reshuffles examples between train and eval).
    Streaming map_batches, no shuffle; returns (id, split)."""
    bounds = split_boundaries(fractions or
                              {"train": 0.9, "val": 0.05, "test": 0.05})

    def stage(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch.column(id_col),
            "split": pa.array(assign_splits(batch.column(id_col), bounds),
                              pa.string()),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


def assign_splits(id_column, bounds: "list[tuple[str, str]]") -> "list[str]":
    """Split name per id: first boundary whose hex bound exceeds
    ``md5(str(id))`` (bounds from ``split_boundaries`` — the last one is
    the catch-all, so every id gets a split). Shared by ``hash_split`` and
    the partitioned export writer."""
    import hashlib

    out = []
    for i in id_column.to_pylist():
        h = hashlib.md5(str(i).encode()).hexdigest()
        out.append(next(n for n, b in bounds if h < b))
    return out


def cap_per_key(ds, keys: Sequence[str], per_key: int,
                id_col: str = "doc_id", partitions: int = None,
                as_pandas: bool = True):
    """Deterministic per-key cap for domain balancing (the "at most K pages
    per host" rule of web curation): keep at most ``per_key`` rows per key,
    chosen by md5(str(id)) order — an unbiased, rerun-stable pseudo-random
    subset per domain drawn from the same hash stream as ``hash_split``,
    so capping never biases toward any natural ordering of the corpus.
    SQL-equivalent: ``QUALIFY ROW_NUMBER() OVER (PARTITION BY keys ORDER BY
    MD5(CAST(id AS VARCHAR)), id) <= per_key``.

    Scale design: reuses ``topk_per_group``'s combiner — each batch keeps
    at most ``per_key`` rows per key it contains, so the shuffle moves
    per_key x keys-per-batch candidates into 64 coarse key-hash partitions,
    never the full corpus. Returns a pandas DataFrame without the helper
    order column; ``as_pandas=False`` keeps the capped rows as a Dataset —
    the corpus-scale form, where the kept set is itself too big to collect
    (it feeds the export/curation stages downstream)."""
    import hashlib

    from dataprof_ray.pipelines.aggregate import topk_per_group

    def add_ord(batch: pa.Table) -> pa.Table:
        hexes = [hashlib.md5(str(i).encode()).hexdigest()
                 for i in batch.column(id_col).to_pylist()]
        return batch.append_column("__capord", pa.array(hexes, pa.string()))

    out = topk_per_group(
        ds.map_batches(add_ord, batch_format="pyarrow"),
        list(keys), ["__capord", id_col], per_key, descending=False,
        partitions=partitions, as_pandas=as_pandas)
    if not as_pandas:
        return out.drop_columns(["__capord"])
    return out.drop(columns="__capord").reset_index(drop=True)


def weighted_source_sample(ds, rates: "dict[str, float]",
                           source_col: str = "source",
                           id_col: str = "doc_id",
                           default_rate: float = 0.0):
    """Deterministic per-source Bernoulli sampling for mixture building
    (e.g. upweight curated sources, downsample crawl): a row KEEPS iff
    ``md5(str(id)) < boundary(rate of its source)`` — the same md5-hex
    boundary trick as ``hash_split``, so the decision is a pure function of
    (id, its source's rate): reproducible under any partitioning, stable
    across runs, and consistent with hash_split assignments (same hash
    stream). Sources absent from ``rates`` use ``default_rate``.
    Stateless streaming filter — no shuffle, no driver state."""
    import hashlib

    bounds = {s: rate_bound(round(r * 10 ** 6)) for s, r in rates.items()}
    default_bound = rate_bound(round(default_rate * 10 ** 6))

    def stage(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        srcs = batch.column(source_col).to_pylist()
        keep = [hashlib.md5(str(i).encode()).hexdigest()
                < bounds.get(s, default_bound)
                for i, s in zip(ids, srcs)]
        return batch.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(stage, batch_format="pyarrow")


def shuffle_rank(ds, id_col: str = "doc_id", hex_digits: int = 1,
                 sub_digits: int = 3, partitions: int = None):
    """Shared engine of :func:`global_shuffle` and
    ``export.export_shuffled``: append (shard, pos) to every row, where
    shard is the first ``hex_digits`` of ``md5(str(id))`` and pos is the
    row's rank within its shard under md5-key order.

    Scale design (two passes, bounded task memory): the rank is computed
    HIERARCHICALLY so no single task ever sorts a whole shard — pass 1
    folds sparse per-batch subshard counts (subshard = first
    ``min(hex_digits + sub_digits, 4)`` hex chars; 16^total cells,
    <=0.5 MB dense) into broadcast prefix offsets; pass 2 ranks in
    COARSE hash-bucket partitions of the subshard (one ``keyed_exchange``
    on it), so task memory is corpus / ``partitions`` (raise
    ``partitions`` with the cluster).
    Because the subshard is a prefix of the key, ascending subshards +
    in-subshard key order IS the shard's global key order. The keyed
    stream is materialized between the passes so the upstream pipeline
    (and the md5 stage) executes once, not twice."""
    import hashlib

    import ray

    if not (1 <= hex_digits <= 4):
        raise ValueError(f"hex_digits must be in 1..4, got {hex_digits}")
    if sub_digits < 0:
        raise ValueError(f"sub_digits must be >= 0, got {sub_digits}")
    total = min(hex_digits + sub_digits, 4)
    eff_sub = total - hex_digits  # clamped subshard digits
    n_subs = 16 ** total
    sub_shift = 4 * eff_sub

    def stage(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        keys = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        sub = np.fromiter((int(k[:total], 16) for k in keys),
                          dtype=np.int64, count=len(keys))
        return (batch.append_column("__key", pa.array(keys, pa.string()))
                .append_column("__sub", pa.array(sub, pa.int64()))
                .append_column("shard",
                               pa.array(sub >> sub_shift, pa.int64())))

    def count_partial(batch: pa.Table) -> pa.Table:
        sub, cnt = np.unique(
            batch.column("__sub").to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"sub": pa.array(sub, pa.int64()),
                         "cnt": pa.array(cnt, pa.int64())})

    keyed = ds.map_batches(stage, batch_format="pyarrow").materialize()
    counts = np.zeros(n_subs, dtype=np.int64)
    for part in (keyed.select_columns(["__sub"])
                 .map_batches(count_partial, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow")):
        np.add.at(counts, part.column("sub").to_numpy(zero_copy_only=False),
                  part.column("cnt").to_numpy(zero_copy_only=False))
    # offset of each subshard within its shard: exclusive prefix sum that
    # restarts at every shard boundary
    csum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    shard_starts = csum[::16 ** eff_sub]
    offsets = csum - np.repeat(shard_starts, 16 ** eff_sub)
    offsets_ref = ray.put(offsets)

    # COARSE-partition the rank: one keyed-exchange partition per hash
    # bucket of subshards (64 vectorized pandas tasks), never one group
    # per subshard (16^4 tiny groups is the measured per-tiny-group
    # hotspot). The subshard offsets make every sub independent, so a
    # task only needs ITS rows: task memory = corpus / partitions — raise
    # ``partitions`` with the cluster, the offsets table doesn't change.
    if partitions is not None and partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            out = df.drop(columns=["__key", "__sub"])
            out["pos"] = pd.Series([], dtype=np.int64)
            return out
        offs = ray.get(offsets_ref)
        df = df.sort_values(["__sub", "__key", id_col]).reset_index(drop=True)
        # dtype= matters: nullable Int64 .to_numpy() would give objects
        base = offs[df["__sub"].to_numpy(dtype=np.int64)]
        within = df.groupby("__sub").cumcount().to_numpy()
        df["pos"] = base + within
        return df.drop(columns=["__key", "__sub"])

    # nullable_cogroup: payload ints with nulls must stay ints
    return keyed_exchange(keyed, ["__sub"], nullable_cogroup(rank),
                          partitions=partitions)


def global_shuffle(ds, id_col: str = "doc_id", hex_digits: int = 1,
                   partitions: int = None):
    """Deterministic global shuffle for training order: every row gets a
    stable pseudo-random position as (shard, pos) where shard is the
    first ``hex_digits`` of ``md5(str(id))`` (16^hex_digits shards) and
    pos is the row's rank within its shard under md5-key order. Reading
    shards 0..N-1 in pos order IS the shuffled corpus; the assignment is
    a pure function of the id, so re-runs and resharding never change
    the training order (the resumability property a 10^12-doc run needs).

    Scale design: only (id, 32-char key, subshard) rows move (~50 B/doc),
    and :func:`shuffle_rank` bounds every sort task to corpus / 16^4 rows
    via hierarchical subshard offsets. Texts never move — export joins
    the (shard, pos) assignment back or writes with
    ``export.export_shuffled``."""
    return shuffle_rank(ds.select_columns([id_col]), id_col, hex_digits,
                        partitions=partitions)


def temperature_mixture_rates(ds, source_col: str = "source",
                              alpha: float = 0.5,
                              target_fraction: float = 0.5) -> pd.DataFrame:
    """Temperature-based mixture rates (the multilingual/mixing rule of
    mC4/PaLM, public): per-source keep probability so the sampled corpus
    draws sources proportionally to ``count^alpha`` (alpha<1 upweights
    small sources) while keeping ~``target_fraction`` of all rows.
    ``rate_s = min(1, target_fraction * total * count_s^alpha / Z /
    count_s)``, Z = sum of count^alpha.

    Returns (source, n_docs, rate) — feed the rates straight into
    :func:`weighted_source_sample` for the deterministic Bernoulli
    apply. Per-source counts come from per-batch partials (source
    cardinality is small by definition — a mixture over millions of
    sources is a per-domain cap, use :func:`cap_per_key`); the driver
    folds one tiny frame per batch."""
    from dataprof_ray.pipelines.aggregate import round_away

    def partial(batch: pa.Table) -> pa.Table:
        c = batch.group_by(source_col).aggregate([([], "count_all")])
        return c.rename_columns([source_col, "n"])

    counts = (ds.select_columns([source_col])
              .map_batches(partial, batch_format="pyarrow")
              .to_pandas().groupby(source_col, as_index=False)["n"].sum()
              .sort_values(source_col).reset_index(drop=True))
    n = counts["n"].to_numpy(dtype=np.float64)
    tot = n.sum()
    p = np.power(n, alpha)
    z = p.sum()
    rates = np.minimum(1.0, target_fraction * tot * p / z / n)
    return pd.DataFrame({
        "source": counts[source_col],
        "n_docs": counts["n"].astype("int64"),
        "rate": round_away(rates, 6),
    })
