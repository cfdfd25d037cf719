"""Partitioned corpus export: the write side of the curation pipeline.

Output contract: hive-partitioned Parquet — one directory per partition
value, many files per directory (one per task) — so downstream readers
prune at the directory level (``read_parquet(root)`` recovers the
partition column from the path). Split assignment is the deterministic
md5-boundary function of the id (sampling.hash_split), so re-running an
export NEVER moves an example between train and eval.

Failure/resume semantics: the default ``mode="overwrite"`` makes a full
re-run IDEMPOTENT (it deletes out_dir's data first — a half-written
previous attempt can't leak stale files into the result) but is NOT an
incremental resume. For restartable 10^12-doc runs, follow
`run_resumable_filter`'s pattern under ``state.lineage``'s manifest: one
execution over the pending shards, written with ``partition_cols`` on a
per-shard key into a scratch root, then each shard's directory moved into
place and committed to the manifest, so only missing shards re-export.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa


def export_partitioned(ds, out_dir: str, by: str, mode: str = "overwrite",
                       **write_kwargs):
    """``write_parquet(out_dir, partition_cols=[by])`` with the repo's
    resumable-output defaults. Distributed write — the driver never sees
    the data."""
    ds.write_parquet(out_dir, partition_cols=[by], mode=mode, **write_kwargs)
    return out_dir


def export_splits(ds, out_dir: str, id_col: str = "doc_id",
                  fractions: "Optional[dict[str, float]]" = None,
                  mode: str = "overwrite", **write_kwargs):
    """Assign the deterministic hash split to EVERY row (all columns ride
    along) and write hive-partitioned Parquet: ``out_dir/split=train/...``
    etc. One streaming pass, no shuffle; returns ``out_dir``.

    Read back with ``ray.data.read_parquet(out_dir)`` (the ``split``
    column comes from the directory names) or point a trainer directly at
    ``out_dir/split=train``."""
    from dataprof_ray.pipelines.sampling import assign_splits, split_boundaries

    bounds = split_boundaries(fractions or
                              {"train": 0.9, "val": 0.05, "test": 0.05})

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "split", pa.array(assign_splits(batch.column(id_col), bounds),
                              pa.string()))

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return export_partitioned(tagged, out_dir, by="split", mode=mode,
                              **write_kwargs)


def export_shuffled(ds, out_dir: str, id_col: str = "doc_id",
                    hex_digits: int = 1, partitions: int = None,
                    mode: str = "overwrite", **write_kwargs):
    """Write the corpus in deterministic shuffled training order:
    ``out_dir/shard=K/...`` with a ``pos`` column giving each row's rank
    within its shard under md5-key order (`sampling.global_shuffle`'s
    assignment, with the full rows riding along). A trainer reads shards
    0..16^hex_digits-1, sorting each shard by ``pos`` (file order within
    a hive directory is not guaranteed; pos makes order recovery a cheap
    shard-local sort). Pure function of the ids — re-exports reproduce
    the identical order.

    This is the one export that MUST move the corpus (an all-to-all of
    full rows into shard partitions — the honest cost of a global
    shuffle); everything upstream of it shuffles only ids/hashes. The
    (shard, pos) assignment comes from the same `sampling.shuffle_rank`
    engine as `global_shuffle` (structurally, not by convention), whose
    hierarchical subshard offsets + coarse rank partitions bound every
    sort task to corpus / ``partitions`` rows even with full rows riding
    along (raise ``partitions`` with the cluster)."""
    from dataprof_ray.pipelines.sampling import shuffle_rank

    ordered = shuffle_rank(ds, id_col=id_col, hex_digits=hex_digits,
                           partitions=partitions)
    return export_partitioned(ordered, out_dir, by="shard", mode=mode,
                              **write_kwargs)
