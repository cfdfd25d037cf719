"""Every Ray Data execution runs without the per-operator resource
reservation (``dataprof_ray.pipelines`` turns it off at import), and the
top-level package still imports without Ray."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dataprof_ray.pipelines import dedup, profile
from dataprof_ray.sources import readers

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def allocator_enabled(monkeypatch):
    """``op_resource_allocator_enabled()`` of each execution's resource
    manager, in order."""
    from ray.data._internal.execution.resource_manager import ResourceManager

    seen = []
    orig = ResourceManager.__init__

    def recording(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        seen.append(self.op_resource_allocator_enabled())

    monkeypatch.setattr(ResourceManager, "__init__", recording)
    return seen


def test_filter_job_runs_full_width(ray_session, tmp_path, allocator_enabled):
    from dataprof_ray import jobs
    from dataprof_ray.sources.corpus import write_corpus_parquet

    corpus = write_corpus_parquet(str(tmp_path / "in"), 60, shards=2)
    stats = jobs.main(["--input", corpus, "--output", str(tmp_path / "out")])
    assert stats["shards_processed"] == 2
    assert allocator_enabled == [False]


def test_dedup_and_profile_run_full_width(ray_session, tmp_path, allocator_enabled):
    import ray.data as rd

    texts = [f"document number {i % 40} about things" for i in range(120)]
    docs = pa.table({"doc_id": pa.array(range(120), pa.int64()), "text": texts})
    kept = dedup.exact_dedup(rd.from_arrow(docs), "text", "doc_id").to_pandas()
    assert len(kept) == 40

    rng = np.random.default_rng(0)
    path = tmp_path / "table"
    path.mkdir()
    for k in range(2):
        pq.write_table(pa.table({"x": rng.normal(size=200), "c": ["a", "b"] * 100}),
                       str(path / f"part_{k}.parquet"))
    report = profile.profile_dataset(readers.read_parquet(str(path)))
    assert [c.name for c in report.column_profiles] == ["x", "c"]

    assert len(allocator_enabled) >= 2
    assert not any(allocator_enabled), allocator_enabled


_FRESH_PROCESS = """
import json, sys
import dataprof_ray
ray_imported = "ray" in sys.modules
import ray
from ray.data._internal.execution.resource_manager import ResourceManager
from ray.data._internal.execution.streaming_executor import StreamingExecutor
seen = []
orig = ResourceManager.__init__
def recording(self, *args, **kwargs):
    orig(self, *args, **kwargs)
    seen.append(self.op_resource_allocator_enabled())
ResourceManager.__init__ = recording
reads = []
orig_execute = StreamingExecutor.execute
def execute(executor, dag, *args, **kwargs):
    stack = [dag]
    while stack:
        op = stack.pop()
        if op.name.startswith("ReadParquet"):
            reads.append(op.name)
        stack.extend(op.input_dependencies)
    return orig_execute(executor, dag, *args, **kwargs)
StreamingExecutor.execute = execute
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
rows, plans = [], []
for path in sys.argv[1:]:
    reads.clear()
    rows.append(dataprof_ray.profile(path).column_profiles[0].total_count)
    plans.append(sorted(set(reads)))
ray.shutdown()
print(json.dumps({"ray_imported": ray_imported, "seen": seen,
                  "rows": rows, "plans": plans}))
"""


def test_top_level_import_is_ray_free_and_the_facade_runs_full_width(tmp_path):
    """In a fresh process: ``import dataprof_ray`` leaves Ray out, and the
    one-shot facade, which reads the file before it imports any pipeline
    module, still runs without the reservation. Its parquet read goes
    through ``readers.read_parquet`` on a 2-CPU session: one file reads as
    2 blocks (Ray's default would split it into 4), and a directory of 2
    files reads one block per file, fused with the first map."""
    import json

    one = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": list(range(300)), "c": ["a", "b", "c"] * 100}), one)
    two = tmp_path / "two.parquet"
    two.mkdir()
    for k in range(2):
        pq.write_table(pa.table({"x": list(range(150)), "c": ["a", "b", "c"] * 50}),
                       str(two / f"part_{k}.parquet"))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, one, str(two)],
                          capture_output=True, text=True, cwd=REPO, env=env,
                          timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["ray_imported"] is False
    assert got["rows"] == [300, 300]
    assert got["seen"] and not any(got["seen"]), got["seen"]
    one_plan, two_plan = got["plans"]
    assert one_plan == ["ReadParquet->SplitBlocks(2)"], one_plan
    assert two_plan and all(name.startswith("ReadParquet->MapBatches(")
                            for name in two_plan), two_plan
