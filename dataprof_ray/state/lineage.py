"""Per-partition lineage + resumable runs (the north rule's checkpoint story).

A corpus run over N input shards writes one output directory per shard plus a
manifest entry {shard_id, input_path, row_count, rule/model versions,
content fingerprint}. A re-run diffs the manifest against the input listing
and processes only shards that are missing or whose versions changed —
"resumable from checkpoint with per-partition lineage".

The manifest generalizes the reference's ExecutionMetadata accounting record
(/root/reference/crates/dataprof-core/src/execution.rs:20-88) from one run
to one record per partition. It is append-only: each commit appends one
fsync'd JSON line and the last record of a shard wins. A torn last line
(an append cut short by a crash, so it has no newline) is ignored, and
its shard counts as not done.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

# pending shards per Ray Data execution: a crash redoes at most this many
SHARDS_PER_EXECUTION = 64


@dataclass
class PartitionRecord:
    shard_id: str
    input_path: str
    rows: int
    kept: int
    output_dir: str
    extraction_version: str
    rules_version: str
    completed_at: float = field(default_factory=lambda: time.time())


class LineageManifest:
    def __init__(self, path: str) -> None:
        self.path = path
        self.records: dict[str, PartitionRecord] = {}
        self._valid_bytes: Optional[int] = None  # set when the tail is torn
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            # an append writes its newline last, so only the bytes after the
            # final newline can be a torn record
            *lines, tail = data.split(b"\n")
            if tail:
                self._valid_bytes = len(data) - len(tail)
            for line in lines:
                if line.strip():
                    rec = PartitionRecord(**json.loads(line))
                    self.records[rec.shard_id] = rec

    def is_complete(self, shard_id: str, extraction_version: str, rules_version: str) -> bool:
        rec = self.records.get(shard_id)
        return (
            rec is not None
            and rec.extraction_version == extraction_version
            and rec.rules_version == rules_version
            and os.path.isdir(rec.output_dir)
        )

    def mark_complete(self, record: PartitionRecord) -> None:
        """Append one record and fsync it: the commit point of its shard."""
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        if self._valid_bytes is not None:  # drop the torn tail first
            os.truncate(self.path, self._valid_bytes)
            self._valid_bytes = None
        with open(self.path, "a") as f:
            f.write(json.dumps(asdict(record)) + "\n")
            f.flush()
            os.fsync(f.fileno())
        self.records[record.shard_id] = record

    def pending_shards(self, shard_paths: list[str], extraction_version: str,
                       rules_version: str) -> list[str]:
        return [
            p for p in shard_paths
            if not self.is_complete(os.path.basename(p), extraction_version, rules_version)
        ]


def _path_to_shard_id(batch):
    """Cut the read's ``path`` column to the file name (the shard id), so
    the write's partition directories stay short whatever the input's
    directory."""
    import pyarrow.compute as pc

    i = batch.schema.get_field_index("path")
    return batch.set_column(i, "path", pc.replace_substring_regex(
        batch.column(i), r"^.*/", ""))


def run_resumable_filter(
    input_shards: list[str],
    output_root: str,
    manifest_path: Optional[str] = None,
    config=None,
) -> dict:
    """Resumable quality-filter run, one output directory and one manifest
    record per input shard. Returns a summary dict.

    The pending shards run as one Ray Data execution per chunk of at most
    ``SHARDS_PER_EXECUTION``: ``read_parquet(chunk, include_paths=True)``
    -> ``run_quality_filter`` (one task per read block; blocks of every
    shard in the chunk share the cluster) -> one ``write_parquet``
    partitioned by ``path`` (cut to the shard id) into
    ``<output_root>/_inflight``. Then the driver moves each shard's
    directory into place and appends its manifest record, one shard at a
    time. A crash rebuilds every shard of the chunk in flight that has no
    record yet; committed shards are skipped by the next run with the same
    arguments."""
    import shutil
    from urllib.parse import unquote

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from dataprof_ray.functions import docquality as DQ
    from dataprof_ray.pipelines import quality_filter as QF

    manifest = LineageManifest(manifest_path or os.path.join(output_root, "_manifest.jsonl"))
    pending = manifest.pending_shards(input_shards, DQ.EXTRACTION_VERSION, DQ.RULES_VERSION)
    inflight = os.path.join(output_root, "_inflight")

    for start in range(0, len(pending), SHARDS_PER_EXECUTION):
        chunk = pending[start:start + SHARDS_PER_EXECUTION]
        shutil.rmtree(inflight, ignore_errors=True)
        ds = rd.read_parquet(chunk, include_paths=True).map_batches(
            _path_to_shard_id, batch_format="pyarrow", batch_size=None)
        QF.run_quality_filter(ds, config=config).write_parquet(
            inflight, partition_cols=["path"])
        written = {}  # shard_id -> its hive directory ("path=<quoted id>")
        if os.path.isdir(inflight):
            for name in os.listdir(inflight):
                written[unquote(name.split("=", 1)[1])] = os.path.join(inflight, name)

        for shard_path in chunk:
            shard_id = os.path.basename(shard_path)
            out_dir = os.path.join(output_root, shard_id.replace(".parquet", ""))
            src = written.get(shard_id)
            if src is None:  # Ray writes no file for a zero-row shard
                src = os.path.join(inflight, shard_id + ".empty")
                os.makedirs(src)
                pq.write_table(QF.OUTPUT_SCHEMA.empty_table(),
                               os.path.join(src, "empty.parquet"))
            if os.path.isdir(out_dir):
                shutil.rmtree(out_dir)
            os.replace(src, out_dir)
            # rows/kept from the written output, read in the driver (no
            # second Ray execution, no pass over the input)
            keep = pq.read_table(out_dir, columns=["keep"]).column("keep")
            manifest.mark_complete(PartitionRecord(
                shard_id=shard_id,
                input_path=shard_path,
                rows=len(keep),
                kept=int(pc.sum(keep).as_py() or 0),
                output_dir=out_dir,
                extraction_version=DQ.EXTRACTION_VERSION,
                rules_version=DQ.RULES_VERSION,
            ))
        shutil.rmtree(inflight, ignore_errors=True)

    return {
        "shards_total": len(input_shards),
        "shards_processed": len(pending),
        "shards_skipped": len(input_shards) - len(pending),
        "manifest": manifest.path,
    }
