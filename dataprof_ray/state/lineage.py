"""Per-partition lineage + resumable runs (the north rule's checkpoint story).

A corpus run over N input shards writes one output directory per shard plus a
manifest entry {shard_id, input_path, row_count, rule/model versions,
content fingerprint}. A re-run diffs the manifest against the input listing
and processes only shards that are missing or whose versions changed —
"resumable from checkpoint with per-partition lineage".

The manifest generalizes the reference's ExecutionMetadata accounting record
(/root/reference/crates/dataprof-core/src/execution.rs:20-88) from one run
to one record per partition. Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Optional


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
        if os.path.exists(path):
            with open(path) as f:
                for line in f:
                    line = line.strip()
                    if line:
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
        self.records[record.shard_id] = record
        self._flush()

    def _flush(self) -> None:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path) or ".")
        with os.fdopen(fd, "w") as f:
            for rec in self.records.values():
                f.write(json.dumps(asdict(rec)) + "\n")
        os.replace(tmp, self.path)  # atomic

    def pending_shards(self, shard_paths: list[str], extraction_version: str,
                       rules_version: str) -> list[str]:
        return [
            p for p in shard_paths
            if not self.is_complete(os.path.basename(p), extraction_version, rules_version)
        ]


def _ensure_thread_safe_fsspec_http() -> None:
    """Make Ray's per-path `from fsspec.implementations.http import
    HTTPFileSystem` probe deterministic under concurrent driver threads.

    Ray retries that import on EVERY read/write path resolution and catches
    only ModuleNotFoundError. When aiohttp is absent the import always
    fails — and two threads racing through it can observe a
    partially-initialized module, which surfaces as a plain ImportError
    that Ray does not catch (observed: concurrent write_parquet from
    ThreadPoolExecutor). If and only if the real import can never succeed,
    install a stub exposing a sentinel HTTPFileSystem class: the import
    becomes thread-safe, and isinstance() against the sentinel is always
    False — exactly the "not an HTTP filesystem" answer for local/S3 paths.
    """
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ModuleNotFoundError:
        pass  # aiohttp (or fsspec itself) absent: import can never succeed
    except ImportError:
        return  # lost a concurrent-import race; the winner installs/raises
    if "fsspec" not in sys.modules:
        return  # no fsspec at all: Ray's ModuleNotFoundError handling is fine

    stub = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # sentinel; never instantiated for local paths
        pass

    stub.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = stub


def run_resumable_filter(
    input_shards: list[str],
    output_root: str,
    manifest_path: Optional[str] = None,
    config=None,
    batch_size: int = 2048,
    max_concurrent_shards: Optional[int] = None,
) -> dict:
    """Resumable quality-filter run, one manifest record per input shard.

    Each input shard becomes one output directory (atomic: temp dir +
    rename) and one manifest record. A crashed run re-invoked with the same
    arguments skips completed shards. Returns a summary dict.

    ``max_concurrent_shards`` shard pipelines execute concurrently (driver
    threads; Ray schedules their tasks onto one shared pool), so shards
    that are small relative to the cluster overlap instead of each
    leaving it partly idle. Default: one concurrent shard per 8 cluster
    CPUs (at least one). Manifest writes are lock-guarded and remain
    one-record-at-a-time atomic."""
    import shutil
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from dataprof_ray.functions import docquality as DQ
    from dataprof_ray.pipelines import quality_filter as QF

    _ensure_thread_safe_fsspec_http()
    manifest = LineageManifest(manifest_path or os.path.join(output_root, "_manifest.jsonl"))
    pending = manifest.pending_shards(input_shards, DQ.EXTRACTION_VERSION, DQ.RULES_VERSION)
    skipped = len(input_shards) - len(pending)
    lock = threading.Lock()

    def process(shard_path: str) -> None:
        shard_id = os.path.basename(shard_path)
        out_dir = os.path.join(output_root, shard_id.replace(".parquet", ""))
        tmp_dir = out_dir + ".tmp"
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)

        ds = rd.read_parquet(shard_path)
        filtered = QF.run_quality_filter(ds, config=config, batch_size=batch_size)
        filtered.write_parquet(tmp_dir)
        if not os.path.isdir(tmp_dir):  # Ray writes no file for zero rows
            os.makedirs(tmp_dir)
            pq.write_table(QF.OUTPUT_SCHEMA.empty_table(),
                           os.path.join(tmp_dir, "empty.parquet"))
        # rows/kept from the written output, read in the driver (no second
        # Ray execution, no pass over the input)
        keep = pq.read_table(tmp_dir, columns=["keep"]).column("keep")
        rows, kept = len(keep), int(pc.sum(keep).as_py() or 0)
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.replace(tmp_dir, out_dir)
        with lock:
            manifest.mark_complete(PartitionRecord(
                shard_id=shard_id,
                input_path=shard_path,
                rows=rows,
                kept=kept,
                output_dir=out_dir,
                extraction_version=DQ.EXTRACTION_VERSION,
                rules_version=DQ.RULES_VERSION,
            ))

    if max_concurrent_shards is None:
        import ray
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        max_concurrent_shards = max(1, cpus // 8)
    workers = max(1, min(max_concurrent_shards, len(pending) or 1))
    if workers == 1:
        for shard_path in pending:
            process(shard_path)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() re-raises the first worker exception (fail loudly;
            # completed shards stay checkpointed for the next run)
            list(pool.map(process, pending))

    return {
        "shards_total": len(input_shards),
        "shards_processed": len(pending),
        "shards_skipped": skipped,
        "manifest": manifest.path,
    }
