"""In-memory span tracer for the traced benchmark mode.

Spans are recorded from the benchmark's own files: ``Tracer.install``
replaces the public entry points of each program layer that run in the
calling process (module attributes and a few methods) with wrappers for
the length of a traced round, and ``uninstall`` puts the originals back.
Each span holds (name, layer, start, end, parent). Ray Data executions and
all-to-all (shuffle) operators are counted by wrapping
``StreamingExecutor.execute`` and charged to the benchmark call that is
open at the time.

Only functions that run in the benchmark's own process are wrapped: those
the program ships to Ray workers as UDFs are left alone. The wrappers keep
``__module__``/``__qualname__`` (functools.wraps), so a wrapped function
that gets pickled by reference still resolves to the original in a worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

# (layer, module, attribute path) of every wrapped entry point
TARGETS = [
    ("jobs", "dataprof_ray.jobs", "main"),
    ("state", "dataprof_ray.state.lineage", "run_resumable_filter"),
    ("state", "dataprof_ray.state.lineage", "LineageManifest.mark_complete"),
    ("state", "dataprof_ray.state.lineage", "LineageManifest.pending_shards"),
    ("state", "dataprof_ray.state.accumulators", "merge_collections"),
    ("state", "dataprof_ray.state.quantile_sketch", "QuantileSketch.merge"),
    ("sources", "dataprof_ray.sources.readers", "read_parquet"),
    ("pipelines", "dataprof_ray.pipelines.quality_filter", "run_quality_filter"),
    ("pipelines", "dataprof_ray.pipelines.quality_filter", "read_corpus"),
    ("pipelines", "dataprof_ray.pipelines.profile", "profile_dataset"),
    ("pipelines", "dataprof_ray.pipelines.profile", "collect_column_state"),
    ("pipelines", "dataprof_ray.pipelines.profile", "assemble_report"),
    ("pipelines", "dataprof_ray.pipelines.aggregate", "exact_global_quantiles"),
    ("pipelines", "dataprof_ray.pipelines.aggregate", "winsorized_stats"),
    ("pipelines", "dataprof_ray.pipelines.aggregate", "robust_outlier_stats"),
    ("pipelines", "dataprof_ray.pipelines.aggregate", "rollup_aggregate"),
    ("pipelines", "dataprof_ray.pipelines.aggregate", "group_distinct"),
    ("pipelines", "dataprof_ray.pipelines.aggregate", "preagg_groupby"),
    ("pipelines", "dataprof_ray.pipelines.aggregate", "sketch_from_column"),
    ("pipelines", "dataprof_ray.pipelines.dedup", "exact_dedup"),
    ("pipelines", "dataprof_ray.pipelines.dedup", "minhash_lsh_duplicate_groups"),
    ("pipelines", "dataprof_ray.pipelines.dedup", "connected_components"),
]
# layers whose self time is reported; spans of the benchmark's own calls
# (layer "bench") only parent them. The functions layer runs inside Ray
# workers and is timed by the kernel table instead.
LAYERS = ("sources", "pipelines", "state", "jobs")
# calls whose returned Dataset is consumed whole; audit.stage_summary reads
# its per-operator table after the round
SUMMARIZED = {"quality_filter.run_quality_filter", "aggregate.group_distinct",
              "dedup.exact_dedup"}


def _count_shuffles(dag) -> int:
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator)
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShufflingOperatorBase)

    seen, stack, n = set(), [dag], 0
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        n += isinstance(op, (AllToAllOperator, HashShufflingOperatorBase))
        stack.extend(op.input_dependencies)
    return n


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.executions: dict[str, int] = {}
        self.shuffles: dict[str, int] = {}
        self.manifest_bytes = 0
        self.datasets: list = []  # (name, Dataset) of summarized pipelines
        self.call = "untracked"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # ---------------------------------------------------------- spans
    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, layer: str):
        tracer = self

        class _Span:
            def __enter__(self):
                stack = tracer._stack()
                self.rec = {"name": name, "layer": layer,
                            "parent": stack[-1] if stack else None,
                            "start": time.perf_counter(), "end": None}
                with tracer._lock:
                    self.idx = len(tracer.spans)
                    tracer.spans.append(self.rec)
                stack.append(self.idx)
                return self.rec

            def __exit__(self, *exc):
                self.rec["end"] = time.perf_counter()
                tracer._stack().pop()
                return False

        return _Span()

    def _wrapper(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with tracer.span(name, layer):
                out = fn(*args, **kwargs)
            if name.endswith("LineageManifest.mark_complete"):
                tracer.manifest_bytes += os.path.getsize(args[0].path)
            if name in SUMMARIZED:
                tracer.datasets.append((name, out))
            return out

        return wrapped

    # ---------------------------------------------------------- install
    def install(self) -> None:
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor)

        for layer, modname, path in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            name = f"{modname.split('.')[-1]}.{path}"
            setattr(owner, attr, self._wrapper(orig, name, layer))
            self._saved.append((owner, attr, orig))

        orig_execute = StreamingExecutor.execute
        tracer = self

        @functools.wraps(orig_execute)
        def execute(executor, dag, *args, **kwargs):
            with tracer._lock:
                call = tracer.call
                tracer.executions[call] = tracer.executions.get(call, 0) + 1
                tracer.shuffles[call] = (tracer.shuffles.get(call, 0)
                                         + _count_shuffles(dag))
            return orig_execute(executor, dag, *args, **kwargs)

        StreamingExecutor.execute = execute
        self._saved.append((StreamingExecutor, "execute", orig_execute))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # ---------------------------------------------------------- analysis
    def total(self, suffix: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"].endswith(suffix) and s["end"] is not None)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus the part of it that its
        child spans cover (children never overlap within one thread)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            if s["end"] is not None and s["layer"] in out:
                out[s["layer"]] += (s["end"] - s["start"]) - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "executions": self.executions,
                       "shuffles": self.shuffles}, f)
