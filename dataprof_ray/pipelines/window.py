"""Windowed aggregates over event streams.

The reference is single-table/order-insensitive (SURVEY.md §2.6: no event-time
semantics) — but its ``DataSource::Stream`` metadata (source.rs:90-121)
anticipates batch-of-stream profiling. This operator family adds the
windowing a training-data/event pipeline needs, Ray-Data-first:

- tumbling windows: assign window = floor(ts / width) per batch (stateless,
  vectorized), then the pre-aggregated groupby from pipelines.aggregate —
  the shuffle moves (key, window) partials, never events.
- session windows: inactivity-gap sessionization over COARSE hash(key)
  partitions (``partitioning.keyed_exchange``) — all keys of a partition
  sessionized in one vectorized pandas pass (per-key Ray groups measured
  9s on 9k keys; see pipelines.partitioning). Partitioning assumption:
  ONE KEY'S events fit in a single worker (the standard keyed-state
  contract — at 100 TB a single user's events are MBs, not the corpus).
  Watermark-style late-data handling is not claimed: sessions are
  computed over the complete keyed group, which batch pipelines have.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dataprof_ray.pipelines.aggregate import preagg_groupby, round_away
from dataprof_ray.pipelines.partitioning import (keyed_exchange,
                                                 nullable_cogroup)

_UNITS = {"hour": "h", "day": "D", "minute": "m"}


def tumbling_window(
    ds,
    ts_col: str,
    unit: str = "hour",
    keys: Sequence[str] = (),
    value_col: Optional[str] = None,
) -> pd.DataFrame:
    """Tumbling-window aggregate: rows bucketed by truncating ``ts_col`` to
    ``unit`` (hour/day/minute), grouped by (window, *keys), emitting
    count + sum/min/max of ``value_col`` (if given).

    Window assignment is a per-batch Arrow kernel; the groupby sees only
    per-batch partials (one row per window x key per batch)."""
    if unit not in _UNITS:
        raise ValueError(f"unknown window unit: {unit} (use {sorted(_UNITS)})")
    keys = list(keys)

    def assign(batch: pa.Table) -> pa.Table:
        win = pc.floor_temporal(batch.column(ts_col), unit=unit)
        cols = {"window": pc.cast(win, pa.timestamp("us"))}
        for k in keys:
            cols[k] = batch.column(k)
        if value_col is not None:
            cols[value_col] = batch.column(value_col)
        return pa.table(cols)

    specs = [("cnt", None, "count")]
    if value_col is not None:
        specs += [
            ("sum_value", value_col, "sum"),
            ("min_value", value_col, "min"),
            ("max_value", value_col, "max"),
        ]
    out = preagg_groupby(ds.map_batches(assign, batch_format="pyarrow"),
                         ["window"] + keys, specs)
    if value_col is not None:
        out["sum_value"] = round_away(out["sum_value"], 2)
    return out


def hopping_window(
    ds,
    ts_col: str,
    width_seconds: int,
    slide_seconds: int,
    keys: Sequence[str] = (),
    value_col: Optional[str] = None,
) -> pd.DataFrame:
    """Hopping (sliding) windows: width ``width_seconds``, advancing every
    ``slide_seconds`` (width must be a multiple of slide). An event at time
    t belongs to the m = width/slide windows whose start s satisfies
    t - width < s <= t with s aligned to slide boundaries (epoch-aligned).

    Scale design: window replication happens INSIDE each batch (numpy
    tile/repeat over only the needed columns, m copies of (window, keys,
    value)), and the replicated rows immediately collapse into per-batch
    partials via ``preagg_groupby`` — the shuffle moves one partial row per
    (window, key) per batch, never m x events. Same contract as
    ``tumbling_window`` (which is the m=1 special case)."""
    if width_seconds % slide_seconds != 0:
        raise ValueError(
            f"width ({width_seconds}s) must be a multiple of slide "
            f"({slide_seconds}s)")
    m = width_seconds // slide_seconds
    slide_us = slide_seconds * 1_000_000
    keys = list(keys)

    def assign(batch: pa.Table) -> pa.Table:
        t_us = pc.cast(batch.column(ts_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        base = t_us // slide_us * slide_us  # newest window containing t
        # m windows per event: base, base - slide, ..., base - (m-1)*slide
        win = (np.repeat(base, m)
               - np.tile(np.arange(m, dtype=np.int64) * slide_us, len(base)))
        cols = {"window": pa.array(win).cast(pa.timestamp("us"))}
        idx = np.repeat(np.arange(len(base)), m)
        for k in keys:
            cols[k] = batch.column(k).take(pa.array(idx))
        if value_col is not None:
            cols[value_col] = batch.column(value_col).take(pa.array(idx))
        return pa.table(cols)

    specs = [("cnt", None, "count")]
    if value_col is not None:
        specs += [
            ("sum_value", value_col, "sum"),
            ("min_value", value_col, "min"),
            ("max_value", value_col, "max"),
        ]
    out = preagg_groupby(ds.map_batches(assign, batch_format="pyarrow"),
                         ["window"] + keys, specs)
    if value_col is not None:
        out["sum_value"] = round_away(out["sum_value"], 2)
    return out


def session_window(
    ds,
    ts_col: str,
    key: str,
    gap_seconds: float = 1800.0,
    partitions: int = None,
    as_dataset: bool = True,
):
    """Session windows: consecutive events of one ``key`` belong to the same
    session while the time since the previous event is <= ``gap_seconds``;
    a STRICTLY larger gap starts a new session (matches the SQL oracle's
    ``ts - LAG(ts) > INTERVAL`` predicate).

    Rows with a null key or timestamp are excluded (SQL window PARTITION
    semantics over the same filter). Emits one row per session:
    (key, session_id 1-based per key, session_start, session_end,
    n_events) — a lazy ``Dataset`` by default (the output is O(sessions),
    which grows with the corpus; ``as_dataset=False`` collects the sorted
    report DataFrame for small results). Session assignment is tie-stable: equal timestamps have a
    zero gap regardless of sort order, so ordering ties cannot move a
    session boundary.

    Scale design: events move through one ``keyed_exchange`` on the key
    hash (64 groups regardless of key cardinality) and every
    partition sessionizes ALL of its keys in one vectorized pandas pass —
    one sort by (key, ts) + one cumsum over key-change/gap breaks — instead
    of one Ray group invocation per key (the measured per-tiny-group
    hotspot). Partitioning assumption: one KEY's events fit in a worker
    (the standard keyed-state contract)."""
    gap = np.timedelta64(int(gap_seconds * 1_000_000), "us")

    def drop_nulls(batch: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(batch.column(key)),
                       pc.is_valid(batch.column(ts_col)))
        return batch.select([key, ts_col]).filter(mask)

    def sessionize_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values([key, ts_col], kind="mergesort")
        ts = g[ts_col].to_numpy()
        k = g[key].to_numpy()
        n = len(g)
        new_key = np.ones(n, dtype=bool)
        brk = np.ones(n, dtype=bool)
        if n > 1:
            new_key[1:] = k[1:] != k[:-1]
            brk[1:] = np.diff(ts) > gap
        new_s = new_key | brk
        s_global = np.cumsum(new_s)
        # 1-based session id per key: subtract the global counter's value
        # just before each key's first session
        key_starts = np.flatnonzero(new_key)
        run_lengths = np.diff(np.append(key_starts, n))
        base = np.repeat(s_global[key_starts] - 1, run_lengths)
        out = pd.DataFrame({key: k, "session_id": s_global - base, ts_col: ts})
        agg = out.groupby([key, "session_id"], sort=False).agg(
            session_start=(ts_col, "min"),
            session_end=(ts_col, "max"),
            n_events=(ts_col, "size"),
        ).reset_index()
        agg["n_events"] = agg["n_events"].astype(np.int64)
        return agg

    out = keyed_exchange(ds.map_batches(drop_nulls, batch_format="pyarrow"),
                         [key], sessionize_partition, partitions=partitions,
                         batch_format="pandas")
    if as_dataset:
        return out
    return (out.to_pandas()
            .sort_values([key, "session_id"])
            .reset_index(drop=True))


def rolling_window(
    ds,
    ts_col: str,
    key: str,
    window,
    value_cents_col: Optional[str] = None,
    partitions: int = None,
):
    """Per-row trailing-window aggregate: for each row, the count (and,
    when ``value_cents_col`` is given, the exact integer sum) of SAME-key
    rows whose timestamp lies in ``[ts - window, ts]`` — SQL's
    ``... OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN <window>
    PRECEDING AND CURRENT ROW)`` frame, including timestamp ties (all rows
    sharing a timestamp get the same frame, as in SQL RANGE).

    ``value_cents_col`` must be an integer column (convert money upstream
    with a cents cast): integer prefix sums keep the rolling sum exact and
    order-independent, where a float rolling sum would drift from the SQL
    oracle. Null timestamps get count 0 / null-sum (their SQL frame is the
    NULLS-grouped peer set; we pin the simpler null -> empty-frame
    contract and the oracle filters null ts).

    Scale design: one ``keyed_exchange`` on the key hash; within a
    partition, rows sort once by (key, ts) and every key group is
    answered by two vectorized ``searchsorted`` calls against its slice
    plus a prefix-sum difference — O(rows log rows) per partition, no
    per-pair expansion, output rides the partition (one shuffle total).
    Returns a Dataset with the input columns plus ``w_cnt`` /
    ``w_sum_cents``."""
    window = pd.Timedelta(window)
    if window < pd.Timedelta(0):
        raise ValueError(f"window must be non-negative, got {window}")
    win_np = window.to_timedelta64()

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        valid = df[df[ts_col].notna()].sort_values(
            [key, ts_col], kind="stable")
        skipped = df.drop(valid.index)
        ts = valid[ts_col].to_numpy()
        cnt = np.zeros(len(valid), dtype=np.int64)
        if value_cents_col is not None:
            vals = valid[value_cents_col].to_numpy(dtype=np.int64)
            csum = np.concatenate([[0], np.cumsum(vals)])
            wsum = np.zeros(len(valid), dtype=np.int64)
        for kv, idx in valid.groupby(key, sort=False, dropna=False).indices.items():
            s, e = int(idx[0]), int(idx[-1]) + 1
            lo = s + np.searchsorted(ts[s:e], ts[s:e] - win_np, side="left")
            hi = s + np.searchsorted(ts[s:e], ts[s:e], side="right")
            cnt[idx] = hi - lo
            if value_cents_col is not None:
                wsum[idx] = csum[hi] - csum[lo]
        out = valid.copy()
        out["w_cnt"] = cnt
        if value_cents_col is not None:
            out["w_sum_cents"] = wsum
        if len(skipped):
            skipped = skipped.copy()
            skipped["w_cnt"] = np.int64(0)
            if value_cents_col is not None:
                skipped["w_sum_cents"] = np.int64(0)
            out = pd.concat([out, skipped], ignore_index=True)
        return out

    # nullable_cogroup: payload int/bool columns with nulls must not
    # launder to float64 through the pandas conversion
    return keyed_exchange(ds, [key], nullable_cogroup(per_partition),
                          partitions=partitions)


def cumulative_window(
    ds,
    ts_col: str,
    key: str,
    value_cents_col: Optional[str] = None,
    order_extra: Sequence[str] = (),
    partitions: int = None,
):
    """Per-key running totals: row number and (optionally) the exact
    integer cumulative sum under the order (``ts_col``, *``order_extra``)
    — SQL's ``ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW`` frame.
    ``order_extra`` must make the order total within each key (a unique
    id), or the ROWS frame is non-deterministic on ties in BOTH engines.
    Integer cents keep the running sum exact (see ``rolling_window``).

    Scale design: identical exchange to ``rolling_window`` — one
    ``keyed_exchange``, one sort + one vectorized pandas groupby-cumsum
    per partition; output rides the partition. The running state never
    spans partitions because a key lives entirely in one."""
    order_extra = list(order_extra)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col] + order_extra, kind="stable")
        g = df.groupby(key, sort=False, dropna=False)
        df["r_cnt"] = g.cumcount().to_numpy() + 1
        if value_cents_col is not None:
            df["r_sum_cents"] = g[value_cents_col].cumsum().astype(np.int64)
        return df

    # nullable_cogroup: see rolling_window
    return keyed_exchange(ds, [key], nullable_cogroup(per_partition),
                          partitions=partitions)


def lag_delta(ds, ts_col: str, key: str, order_extra: Sequence[str] = (),
              partitions: int = None):
    """SQL ``LAG()`` as a distributed operator: each row gets its same-key
    predecessor's timestamp (``prev_ts``; null for a key's first row) and
    the EXACT integer gap in microseconds (``gap_us``) under the order
    (``ts_col``, *``order_extra``) — the inter-event-time feature behind
    sessionization thresholds and bot/burst detection. ``order_extra``
    must make the order total within a key (a unique id) or LAG is
    non-deterministic on ties in BOTH engines. Rows with a null key or
    timestamp pass through with null prev/gap (the SQL oracle filters
    them; a NULLS-grouped LAG partition is rarely what anyone means).

    Scale design: identical exchange to ``rolling_window`` — one
    ``keyed_exchange``, one sort + one vectorized groupby-shift per
    partition; output rides the partition. Integer microseconds (not
    float seconds) keep the gap exact and oracle-matchable."""
    return _shift_delta(ds, ts_col, key, order_extra, partitions,
                        shift=1, out_col="prev_ts")


def lead_delta(ds, ts_col: str, key: str, order_extra: Sequence[str] = (),
               partitions: int = None):
    """SQL ``LEAD()`` — the mirror of :func:`lag_delta`: each row gets its
    same-key SUCCESSOR's timestamp (``next_ts``; null for a key's last
    row) and the exact integer microsecond gap ``gap_us = next - cur``
    (time-to-next-event — the dwell/abandonment feature). Same total-order
    requirement, same null-row pass-through, same exchange shape as
    lag_delta (one ``keyed_exchange``, one sort + one vectorized
    groupby-shift per partition)."""
    return _shift_delta(ds, ts_col, key, order_extra, partitions,
                        shift=-1, out_col="next_ts")


def _shift_delta(ds, ts_col, key, order_extra, partitions,
                 shift: int, out_col: str):
    order_extra = list(order_extra)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        valid_mask = df[ts_col].notna() & df[key].notna()
        valid = df[valid_mask].sort_values([key, ts_col] + order_extra,
                                           kind="stable")
        skipped = df[~valid_mask]
        other = valid.groupby(key, sort=False)[ts_col].shift(shift)
        out = valid.copy()
        out[out_col] = other
        cur = valid[ts_col].to_numpy()
        other_np = other.to_numpy()
        has_other = ~pd.isna(other_np)
        gap = pd.array(np.zeros(len(valid), dtype=np.int64), dtype="Int64")
        gap[~has_other] = pd.NA
        if has_other.any():
            # LAG: cur - prev; LEAD: next - cur — both non-negative under
            # the sort order, both exactly DATEDIFF('us', earlier, later)
            lo, hi = ((other_np, cur) if shift > 0 else (cur, other_np))
            gap[has_other] = (hi[has_other] - lo[has_other]) \
                .astype("timedelta64[us]").astype(np.int64)
        out["gap_us"] = gap
        if len(skipped):
            skipped = skipped.copy()
            # dtype from the INPUT column (correct unit/tz even when every
            # row of this partition is skipped — a hardcoded [us] would
            # emit a block schema disagreeing with matched partitions)
            skipped[out_col] = pd.Series(
                pd.NaT, index=skipped.index, dtype=df[ts_col].dtype)
            skipped["gap_us"] = pd.array([pd.NA] * len(skipped),
                                         dtype="Int64")
            out = pd.concat([out, skipped], ignore_index=True)
        return out

    # nullable_cogroup: see rolling_window
    return keyed_exchange(ds, [key], nullable_cogroup(per_partition),
                          partitions=partitions)
