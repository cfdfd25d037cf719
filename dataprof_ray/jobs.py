"""`ray job submit` entry point for the flagship quality-filter pipeline.

The north-rule launch shape: the whole 10^12-document job starts with

    ray job submit --working-dir . -- \
        python -m dataprof_ray.jobs --input /data/crawl --output /data/clean

on the fixed-size cluster (the driver owns ``ray.init`` only when run
standalone — inside ``ray job submit`` the session already exists, hence
the ``is_initialized`` guard). The pending shards run as one Ray Data
execution per 64 of them (``lineage.SHARDS_PER_EXECUTION``), one filter
task per read block, with no concurrency or batch-size knob. The run is
RESUMABLE: every input shard checkpoints one manifest record (shard id,
row count, model/rule versions — ``state/lineage.py``), so rerunning the
identical command after a failure skips finished shards and reprocesses
only the rest. Output is partitioned one directory per input shard —
never one giant file — so downstream consumers and retries address work
by shard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m dataprof_ray.jobs",
        description="Resumable web-corpus quality-filter job (Ray Data)",
    )
    p.add_argument("--input", required=True,
                   help="directory of input parquet shards "
                        "(url, warc_ts, html, text, lang)")
    p.add_argument("--output", required=True,
                   help="output root; one subdirectory per input shard")
    p.add_argument("--manifest", default=None,
                   help="lineage manifest path "
                        "(default: <output>/_manifest.jsonl)")
    return p


def main(argv=None) -> dict:
    args = build_parser().parse_args(argv)
    import ray

    from dataprof_ray.state.lineage import run_resumable_filter

    owns_session = not ray.is_initialized()
    if owns_session:  # standalone run; under `ray job submit` the session exists
        # RAY_ADDRESS when set (e.g. "local" in this sandbox, a cluster
        # address in prod); None otherwise = start a local session rather
        # than 'auto', which REQUIRES a running instance and would crash
        # the documented standalone mode
        ray.init(address=os.environ.get("RAY_ADDRESS") or None,
                 include_dashboard=False, ignore_reinit_error=True)
    try:
        shards = sorted(
            os.path.join(args.input, f) for f in os.listdir(args.input)
            if f.endswith(".parquet"))
        if not shards:
            raise SystemExit(f"no parquet shards under {args.input}")
        stats = run_resumable_filter(shards, args.output,
                                     manifest_path=args.manifest)
        print(json.dumps(stats))
        return stats
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1:])
