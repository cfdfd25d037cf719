"""Stop conditions / early termination.

Modeled on the reference's stop-condition family
(/root/reference/crates/dataprof-core/src/stop_condition.rs:14-217):
MaxRows, MaxBytes, SchemaStable, confidence-based stop, Any, All, Never —
with clamped thresholds, presets and the ``is_row_limit_only`` gate parsers
use to reject richer conditions (profiler.rs:516-529).

INTENTIONAL DIVERGENCES from stop_condition.rs (this is a redesign for a
distributed engine, not parity):
- no MemoryPressure condition: a Ray pipeline's memory is governed by the
  object store + streaming backpressure, not driver RSS; a driver-side
  psutil check would stop the wrong process.
- ``confidence`` here is a numeric-mean RELATIVE STANDARD ERROR target
  (matches the sampling layer's Progressive semantics, strategies.rs:44-60)
  rather than the reference's rows_processed/estimated_total ratio, which
  needs a total-row estimate Ray streams don't have up front.
- ``schema_stable`` counts stable CHUNKS (the unit the driver monitor
  sees), not stable rows; presets are sized for that unit
  (schema_inference: 1000 rows + 3 stable chunks; quality_sample:
  100k rows / 100 MB) rather than the reference's row-based 10k/1000 and
  50k/50MB/95%.

Ray-Data-first: a pure MaxRows condition compiles to ``ds.limit(n)`` (the
executor stops reading — true pushdown). Richer conditions run as a DRIVER
MONITOR over ``iter_batches``: the stream is consumed batch-by-batch with
the evaluator deciding when to stop; Ray's backpressure means unread blocks
are never materialized. The evaluation cadence matches the reference
(per-chunk, with a per-row MaxRows guard inside the chunk)."""

from __future__ import annotations

import math
import time as _time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa

MAX_ROWS_CLAMP = 10_000_000_000
MAX_BYTES_CLAMP = 1 << 50


@dataclass
class StopCondition:
    kind: str  # never | max_rows | max_bytes | schema_stable | confidence | any | all
    rows: int = 0
    bytes_: int = 0
    stable_chunks: int = 0
    target_rse: float = 0.0
    column: Optional[str] = None
    children: list = field(default_factory=list)

    # ---- constructors (stop_condition.rs presets) ----

    @staticmethod
    def never() -> "StopCondition":
        return StopCondition("never")

    @staticmethod
    def max_rows(n: int) -> "StopCondition":
        return StopCondition("max_rows", rows=max(1, min(n, MAX_ROWS_CLAMP)))

    @staticmethod
    def max_bytes(n: int) -> "StopCondition":
        return StopCondition("max_bytes", bytes_=max(1, min(n, MAX_BYTES_CLAMP)))

    @staticmethod
    def schema_stable(chunks: int) -> "StopCondition":
        return StopCondition("schema_stable", stable_chunks=max(1, chunks))

    @staticmethod
    def confidence(column: str, target_rse: float) -> "StopCondition":
        return StopCondition("confidence", column=column,
                             target_rse=max(1e-6, target_rse))

    @staticmethod
    def max_seconds(seconds: float) -> "StopCondition":
        """Wall-clock budget, evaluated per chunk in the driver monitor
        (target_rse reused as the seconds threshold)."""
        return StopCondition("max_seconds", target_rse=max(0.001, seconds))

    @staticmethod
    def any_of(*conds: "StopCondition") -> "StopCondition":
        return StopCondition("any", children=list(conds))

    @staticmethod
    def all_of(*conds: "StopCondition") -> "StopCondition":
        return StopCondition("all", children=list(conds))

    @staticmethod
    def schema_inference() -> "StopCondition":
        """Preset: enough rows to infer a schema (stop_condition.rs)."""
        return StopCondition.any_of(StopCondition.max_rows(1000),
                                    StopCondition.schema_stable(3))

    @staticmethod
    def quality_sample() -> "StopCondition":
        return StopCondition.any_of(StopCondition.max_rows(100_000),
                                    StopCondition.max_bytes(100 << 20))

    # ---- classification (profiler.rs:516-529 gate) ----

    def is_row_limit_only(self) -> bool:
        if self.kind == "max_rows":
            return True
        if self.kind in ("any", "all"):
            return all(c.is_row_limit_only() for c in self.children)
        return False

    def row_limit(self) -> Optional[int]:
        if self.kind == "max_rows":
            return self.rows
        if self.kind in ("any", "all") and self.children:
            limits = [c.row_limit() for c in self.children]
            if all(x is not None for x in limits):
                agg = min if self.kind == "any" else max
                return agg(limits)
        return None

    def firing_row_cap(self) -> Optional[int]:
        """Row count at which the condition FIRES regardless of other
        state — the per-row trim bound for the monitored path. A max_rows
        child under ``any`` fires alone (min of caps); under ``all`` it
        only fires with the rest, so no standalone cap."""
        if self.kind == "max_rows":
            return self.rows
        if self.kind == "any":
            caps = [c.firing_row_cap() for c in self.children]
            caps = [c for c in caps if c is not None]
            return min(caps) if caps else None
        if self.kind == "all":
            caps = [c.firing_row_cap() for c in self.children]
            if caps and all(c is not None for c in caps):
                return max(caps)
        return None


class StopEvaluator:
    """Per-chunk evaluator with the reference's truncation-vs-exhaustion
    precision: ``reason`` is set only if the source had rows left."""

    def __init__(self, cond: StopCondition) -> None:
        self.cond = cond
        self.rows = 0
        self.bytes = 0
        self.schema_fingerprint: Optional[tuple] = None
        self.stable_run = 0
        self.start_time = _time.monotonic()
        # per-COLUMN welford state — two confidence conditions on different
        # columns must not share a mean/variance stream
        self.mean_states: dict = {}

    def observe(self, batch: pa.Table) -> Optional[str]:
        """Feed one chunk; returns a truncation reason to stop, else None."""
        self.rows += batch.num_rows
        self.bytes += batch.nbytes
        fp = tuple((f.name, str(f.type)) for f in batch.schema)
        if fp == self.schema_fingerprint:
            self.stable_run += 1
        else:
            self.schema_fingerprint = fp
            self.stable_run = 0
        cond = self.cond
        for c in self._confidence_columns(cond):
            if c in batch.column_names:
                vals = batch.column(c).to_numpy(zero_copy_only=False).astype(np.float64)
                vals = vals[np.isfinite(vals)]
                if len(vals):
                    n, mean, m2 = self.mean_states.get(c, (0, 0.0, 0.0))
                    cn = len(vals)
                    cmean = float(vals.mean())
                    cm2 = float(((vals - cmean) ** 2).sum())
                    tot = n + cn
                    delta = cmean - mean
                    m2 = m2 + cm2 + delta * delta * n * cn / tot
                    mean = mean + delta * cn / tot
                    self.mean_states[c] = (tot, mean, m2)
        return self._eval(cond)

    def _confidence_columns(self, cond: StopCondition) -> list:
        if cond.kind == "confidence":
            return [cond.column]
        if cond.kind in ("any", "all"):
            return [c for ch in cond.children for c in self._confidence_columns(ch)]
        return []

    def _eval(self, cond: StopCondition) -> Optional[str]:
        k = cond.kind
        if k == "never":
            return None
        if k == "max_rows":
            return "MaxRows" if self.rows >= cond.rows else None
        if k == "max_bytes":
            return "MaxBytes" if self.bytes >= cond.bytes_ else None
        if k == "schema_stable":
            return "SchemaStable" if self.stable_run >= cond.stable_chunks else None
        if k == "confidence":
            n, mean, m2 = self.mean_states.get(cond.column, (0, 0.0, 0.0))
            if n < 30 or abs(mean) < 1e-12:
                return None
            se = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
            return "ConfidenceReached" if se / abs(mean) <= cond.target_rse else None
        if k == "max_seconds":
            elapsed = _time.monotonic() - self.start_time
            return "TimeBudget" if elapsed >= cond.target_rse else None
        if k == "any":
            for c in cond.children:
                r = self._eval(c)
                if r is not None:
                    return r
            return None
        if k == "all":
            reasons = [self._eval(c) for c in cond.children]
            if all(r is not None for r in reasons) and reasons:
                return reasons[0]
            return None
        raise ValueError(f"unknown stop condition: {k}")


def apply_stop_condition(ds, cond: StopCondition, batch_size: int = 8192):
    """Compile a stop condition onto a Dataset.

    Row-limit-only conditions push down as ``ds.limit`` (streaming
    executor stops the read). Richer conditions return a
    ``(table, reason, evaluator)`` triple from a driver-monitored stream:
    batches are pulled until the condition fires; remaining blocks are
    never materialized (backpressure)."""
    if cond.kind == "never":
        return ds
    if cond.is_row_limit_only():
        return ds.limit(cond.row_limit())

    ev = StopEvaluator(cond)
    out = []
    reason = None
    # per-row MaxRows guard inside the chunk (incremental.rs:216-245): trim
    # the final chunk at any max_rows cap that fires on its own, so
    # composite conditions like any_of(max_rows, max_bytes) don't over-read
    cap = cond.firing_row_cap()
    # closed explicitly on every way out: Ray Data's iterator threads stop
    # at their next poll, whatever else holds the generator
    with closing(iter(ds.iter_batches(batch_format="pyarrow",
                                      batch_size=batch_size))) as batches:
        for batch in batches:
            if cap is not None and ev.rows + batch.num_rows > cap:
                batch = batch.slice(0, cap - ev.rows)
            out.append(batch)
            reason = ev.observe(batch)
            if reason is not None:
                break
    table = pa.concat_tables(out) if out else pa.table({})
    return table, reason, ev
