"""Mergeable streaming accumulators — the distributed seam of the engine.

Semantics replicated (re-implemented, not ported) from the reference:
- WelfordAccumulator (parallel merge):  /root/reference/crates/dataprof-runtime/src/streaming_stats.rs:22-111
- HyperLogLog p=14 + corrections:       /root/reference/crates/dataprof-metrics/src/stats/cardinality.rs:35-121
- CardinalityEstimator (10k spill):     cardinality.rs:123-229
- StreamReservoirSampler (seeded):      streaming_stats.rs:113-200
- TextLengthStats (32-bucket log2):     streaming_stats.rs:202-270
- StreamingStatistics composite:        streaming_stats.rs:272-426
- RowUniquenessTracker:                 streaming_stats.rs:428-482
- StreamingColumnCollection:            streaming_stats.rs:484-648

Differences by design (documented per SURVEY.md §7 "hard parts"):
- The 64-bit value hash is polars' fixed-seed xx-style hash (seed 0), shared by
  every worker and by the single-process oracle — NOT Rust's DefaultHasher bit
  pattern. The two-regime exact/approximate contract is preserved.
- ``update_array`` consumes whole Arrow arrays vectorized instead of per-row
  ``update(&str)`` calls; merge() semantics are identical.

Every accumulator is picklable: one serialized blob per partition flows back to
the driver (or through a tiny groupby) and is merged in deterministic order.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dataprof_ray.functions import kernels

EXACT_CARDINALITY_THRESHOLD = 10_000
DEFAULT_RESERVOIR_CAPACITY = 10_000
RESERVOIR_SEED = 0xDA7A_900D_F00D_5EED  # streaming_stats.rs:122

_HLL_P = 14
_HLL_M = 1 << _HLL_P
_HLL_MASK = np.uint64(_HLL_M - 1)


def hash64(values) -> np.ndarray:
    """Fixed-seed 64-bit hash of a sequence/array of values via polars.

    Deterministic across workers and runs within this environment; used by the
    HLL, the cardinality estimator and the row-signature tracker so pipeline
    and oracle agree bit-for-bit.
    """
    import polars as pl

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        s = pl.from_arrow(values)
    else:
        s = pl.Series(values)
    return s.hash(seed=0).to_numpy().astype(np.uint64, copy=False)


def _bitlen64(x: np.ndarray) -> np.ndarray:
    """Vectorized floor(log2(x))+1 (0 for x==0). Valid for x < 2^53 — the
    only caller feeds 50-bit HLL windows, exactly representable in float64,
    where frexp's exponent IS the bit length."""
    _, e = np.frexp(x.astype(np.float64))
    return e.astype(np.uint64)


class WelfordAccumulator:
    """count/mean/M2 with numerically-stable parallel merge."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def update_batch(self, values: np.ndarray) -> None:
        """Fold a whole batch: compute the batch's own (n, mean, m2) with numpy
        then merge — equivalent to sequential updates up to fp association."""
        n = len(values)
        if n == 0:
            return
        bmean = float(values.mean())
        bm2 = float(((values - bmean) ** 2).sum())
        other = WelfordAccumulator()
        other.count, other.mean, other.m2 = n, bmean, bm2
        self.merge(other)

    def merge(self, other: "WelfordAccumulator") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        combined = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / combined)
        self.m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / combined)
        self.count = combined

    def variance(self) -> float:
        return 0.0 if self.count < 2 else self.m2 / self.count

    def std_dev(self) -> float:
        return math.sqrt(self.variance())

    def sample_variance(self) -> float:
        return 0.0 if self.count < 2 else max(self.m2 / (self.count - 1), 0.0)

    def sample_std_dev(self) -> float:
        return math.sqrt(self.sample_variance())


class HyperLogLog:
    """p=14 (16384 registers, ~16 KB); register-max merge; small/large-range
    corrections exactly as cardinality.rs:78-104."""

    __slots__ = ("registers",)

    def __init__(self) -> None:
        self.registers = np.zeros(_HLL_M, dtype=np.uint8)

    def add_hashes(self, hashes: np.ndarray) -> None:
        if len(hashes) == 0:
            return
        idx = (hashes & _HLL_MASK).astype(np.int64)
        window = hashes >> np.uint64(_HLL_P)
        # leading_zeros(window) - P + 1  ==  (64 - bitlen) - P + 1
        rank = (np.uint64(64 - _HLL_P + 1) - _bitlen64(window)).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def count(self) -> int:
        m = float(_HLL_M)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        inv_sum = np.power(2.0, -self.registers.astype(np.float64)).sum()
        raw = alpha * m * m / inv_sum
        if raw <= 2.5 * m:
            zeros = float(np.count_nonzero(self.registers == 0))
            if zeros > 0:
                return int(m * math.log(m / zeros))
            return int(raw)
        two32 = float(1 << 32)
        if raw <= two32 / 30.0:
            return int(raw)
        return int(-two32 * math.log(1.0 - raw / two32))

    def merge(self, other: "HyperLogLog") -> None:
        np.maximum(self.registers, other.registers, out=self.registers)


class CardinalityEstimator:
    """Exact hash-set until EXACT_CARDINALITY_THRESHOLD distinct, then drops the
    set and reports the HLL (flagged approximate). Merging with a spilled side
    spills this side too (cardinality.rs:123-229)."""

    __slots__ = ("exact", "hll", "spilled")

    def __init__(self) -> None:
        self.exact: Optional[set] = set()
        self.hll = HyperLogLog()
        self.spilled = False

    def add_hashes(self, hashes: np.ndarray) -> None:
        self.hll.add_hashes(hashes)
        if not self.spilled:
            self.exact.update(hashes.tolist())
            if len(self.exact) > EXACT_CARDINALITY_THRESHOLD:
                self.exact = None
                self.spilled = True

    def merge(self, other: "CardinalityEstimator") -> None:
        self.hll.merge(other.hll)
        if self.spilled or other.spilled:
            self.exact = None
            self.spilled = True
            return
        self.exact.update(other.exact)
        if len(self.exact) > EXACT_CARDINALITY_THRESHOLD:
            self.exact = None
            self.spilled = True

    def unique_count(self) -> int:
        if not self.spilled:
            return len(self.exact)
        return self.hll.count()

    def is_approximate(self) -> bool:
        return self.spilled


def _concat_arrays(a, b):
    """One array of ``a`` then ``b``. Blocks of one column can differ in
    type (string vs large_string, an all-NULL chunk, timestamp units), so
    mismatched types are widened the way ``concat_tables`` widens them.
    Types with no common type (a column that is text in one file and
    numbers in another) meet in a NumPy object array of the Python values,
    each keeping its own type."""
    if isinstance(a, pa.Array) and isinstance(b, pa.Array):
        if a.type == b.type:
            return pa.concat_arrays([a, b])
        try:
            return pa.concat_tables(
                [pa.table({"v": a}), pa.table({"v": b})], promote_options="permissive"
            ).column("v").combine_chunks()
        except (pa.ArrowTypeError, pa.ArrowInvalid):
            pass
    return np.concatenate([_objects(a), _objects(b)])


def _objects(arr) -> np.ndarray:
    if isinstance(arr, np.ndarray):
        return arr
    out = np.empty(len(arr), dtype=object)
    out[:] = arr.to_pylist()
    return out


class ReservoirSampler:
    """Algorithm-R reservoir with deterministic seed; `shrink_to` under memory
    pressure; RNG-driven merge.

    The reservoir is one Arrow array (str / float64 / timestamp in the
    profiler, any Arrow type elsewhere), so a pickled sampler is a few
    buffers rather than ``capacity`` Python objects: the per-block partials
    cross to the driver that way. ``None`` until the first value; a NumPy
    object array once values of types with no common Arrow type meet
    (see ``_concat_arrays``)."""

    __slots__ = ("reservoir", "capacity", "count", "rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = RESERVOIR_SEED) -> None:
        self.capacity = max(capacity, 1)
        self.reservoir = None
        self.count = 0
        self.rng = np.random.default_rng(seed & 0xFFFF_FFFF_FFFF_FFFF)

    def __len__(self) -> int:
        return 0 if self.reservoir is None else len(self.reservoir)

    def offer_batch(self, values: list) -> None:
        self.offer_lazy(len(values), lambda idx: pa.array([values[k] for k in idx]))

    def offer_lazy(self, n: int, take) -> None:
        """Offer ``n`` values, materializing ONLY the accepted ones:
        ``take(indices) -> pa.Array`` is called for the fill slice and the
        replacement hits. The RNG consumption (one ``random(m)`` draw per
        replacement-phase batch) is that of sequential Algorithm R, and so
        are the slots: a later hit on a slot overwrites an earlier one."""
        if n == 0:
            return
        cap = self.capacity
        i = 0
        # fill phase
        if len(self) < cap:
            take_n = min(cap - len(self), n)
            head = take(np.arange(take_n))
            self.reservoir = (head if self.reservoir is None
                              else _concat_arrays(self.reservoir, head))
            self.count += take_n
            i = take_n
        if i >= n:
            return
        # replacement phase, vectorized draw
        m = n - i
        t = self.count + np.arange(m, dtype=np.int64)  # items seen before each offer
        draws = (self.rng.random(m) * (t + 1)).astype(np.int64)
        hits = np.nonzero(draws < cap)[0]
        if len(hits):
            slots = draws[hits]
            # last hit per slot wins: first occurrence in the reversed order
            last = len(slots) - 1 - np.unique(slots[::-1], return_index=True)[1]
            src = np.arange(cap, dtype=np.int64)
            src[slots[last]] = cap + last
            self.reservoir = _concat_arrays(self.reservoir, take(hits + i)).take(src)
        self.count += m

    def offer_arrow(self, arr) -> None:
        self.offer_lazy(len(arr), lambda idx: arr.take(pa.array(idx, pa.int64())))

    def offer_ndarray(self, values: np.ndarray) -> None:
        self.offer_lazy(len(values), lambda idx: pa.array(values[idx]))

    def shrink_to(self, new_capacity: int) -> None:
        self.capacity = max(new_capacity, 1)
        if self.reservoir is not None:
            self.reservoir = self.reservoir[: self.capacity]

    def samples(self) -> list:
        if isinstance(self.reservoir, np.ndarray):
            return self.reservoir.tolist()
        return [] if self.reservoir is None else self.reservoir.to_pylist()

    def merge(self, other: "ReservoirSampler") -> None:
        if other.count == 0:
            return
        combined = (other.reservoir if self.reservoir is None
                    else _concat_arrays(self.reservoir, other.reservoir))
        total = len(combined)
        if total <= self.capacity:
            self.reservoir = combined
        else:
            # uniform without-replacement draw — same distribution as the
            # reference's partial Fisher-Yates (streaming_stats.rs:180-195)
            # in ONE vectorized RNG call, gathered with one take
            idx = self.rng.choice(total, size=self.capacity, replace=False)
            self.reservoir = combined.take(idx)
        self.count += other.count


class TextLengthStats:
    """min/max/welford-mean byte length + 32-bucket log2 histogram."""

    __slots__ = ("min_length", "max_length", "welford", "histogram")

    def __init__(self) -> None:
        self.min_length: Optional[int] = None
        self.max_length = 0
        self.welford = WelfordAccumulator()
        self.histogram = np.zeros(32, dtype=np.int64)

    def update_lengths(self, lengths: np.ndarray) -> None:
        if len(lengths) == 0:
            return
        lo = int(lengths.min())
        self.min_length = lo if self.min_length is None else min(self.min_length, lo)
        self.max_length = max(self.max_length, int(lengths.max()))
        self.welford.update_batch(lengths.astype(np.float64))
        buckets = np.minimum(_bitlen64(lengths.astype(np.uint64)), 31).astype(np.int64)
        np.add.at(self.histogram, buckets, 1)

    @property
    def avg_length(self) -> float:
        return self.welford.mean if self.welford.count else 0.0

    def merge(self, other: "TextLengthStats") -> None:
        if other.welford.count == 0:
            return
        if self.welford.count == 0:
            self.min_length = other.min_length
            self.max_length = other.max_length
            # merge, never alias: adopting other.welford by reference would
            # let later updates on self mutate the donor accumulator
            self.welford.merge(other.welford)
            self.histogram = other.histogram.copy()
            return
        self.min_length = min(self.min_length, other.min_length)
        self.max_length = max(self.max_length, other.max_length)
        self.welford.merge(other.welford)
        self.histogram += other.histogram


# candidate shape prefilter for the full-stream date-match counter: either
# YYYY<sep>... or DD<sep>MM<sep>YYYY head, untrimmed (datetime.rs:155-175).
import re as _re

_RAW_DATE_CANDIDATE_RE = _re.compile(
    r"^(?:\d{4}[-/.]\d{2}[-/.]|\d{2}[-/.]\d{2}[-/.]\d{4})"
)
# RE2 equivalents for pyarrow.compute.match_substring_regex (anchored).
_RAW_DATE_CANDIDATE_PATTERN = r"^(\d{4}[-/.]\d{2}[-/.]|\d{2}[-/.]\d{2}[-/.]\d{4})"
_NUMERIC_SHAPE_PATTERN = (
    r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^[+-]?[iI][nN][fF]([iI][nN][iI][tT][yY])?$"
    r"|^[+-]?[nN][aA][nN]$"
)


class StreamingStatistics:
    """Per-column composite accumulator over string-rendered values.

    Typed Arrow arrays get fast paths (numeric / boolean / timestamp); string
    arrays follow the reference's full per-value semantics vectorized.
    """

    def __init__(self, sample_capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = RESERVOIR_SEED) -> None:
        self.kind: Optional[str] = None  # string | numeric | boolean | timestamp | binary
        self.is_integer_type = False
        self.count = 0
        self.null_count = 0
        self.min = math.inf
        self.max = -math.inf
        self.welford = WelfordAccumulator()
        self.cardinality = CardinalityEstimator()
        self.sampler = ReservoirSampler(sample_capacity, seed)
        self.text_lengths = TextLengthStats()
        self.date_match_count = 0
        # typed extras
        self.bool_true = 0
        self.bool_false = 0
        self.ts_min = None  # datetime
        self.ts_max = None
        self.year_dist: Counter = Counter()
        self.month_dist: Counter = Counter()
        self.weekday_dist: Counter = Counter()
        self.hour_dist: Counter = Counter()
        self.has_time_component = False
        self.invalid_count: Optional[int] = None

    # ---- update paths ----

    def update_string_array(self, arr: pa.Array) -> None:
        """Full reference semantics for string values — pyarrow.compute
        kernels end to end (the pandas object-dtype version was 3x slower)."""
        n = len(arr)
        self.count += n
        if n == 0:
            return
        trimmed = pc.utf8_trim_whitespace(arr)
        null_like = pc.fill_null(
            pc.or_kleene(
                pc.is_null(arr),
                pc.is_in(pc.utf8_lower(trimmed),
                         value_set=pa.array(["", "null", "nan"])),
            ),
            True,
        )
        n_null = int(pc.sum(pc.cast(null_like, pa.int64())).as_py() or 0)
        self.null_count += n_null
        if n_null == n:
            return
        keep = pc.invert(null_like)
        vals = arr.filter(keep)  # raw (untrimmed) values
        # distinct + sample + byte lengths over raw values
        self.cardinality.add_hashes(hash64(vals))
        self.sampler.offer_arrow(vals)
        lengths = pc.binary_length(vals).to_numpy(zero_copy_only=False).astype(np.int64)
        self.text_lengths.update_lengths(lengths)
        # full-stream temporal match count (untrimmed candidates, calendar-valid)
        cand_mask = pc.match_substring_regex(vals, _RAW_DATE_CANDIDATE_PATTERN)
        if pc.any(cand_mask).as_py():
            for v in vals.filter(cand_mask).to_pylist():
                if kernels.parse_raw_datetime_year(v) is not None:
                    self.date_match_count += 1
        # numeric parse: cheap shape prefilter, then cast only the matches
        # (Rust parse::<f64> semantics: decimals, exponents, inf/nan)
        num_mask = pc.match_substring_regex(trimmed.filter(keep), _NUMERIC_SHAPE_PATTERN)
        if pc.any(num_mask).as_py():
            cand = trimmed.filter(keep).filter(num_mask)
            try:
                nums = pc.cast(cand, pa.float64()).to_numpy(zero_copy_only=False)
            except pa.ArrowInvalid:
                import pandas as pd

                nums = pd.to_numeric(cand.to_pandas(), errors="coerce").to_numpy()
            a = nums[np.isfinite(nums)]
            if len(a):
                self.welford.update_batch(a)
                self.min = min(self.min, float(a.min()))
                self.max = max(self.max, float(a.max()))

    def update_numeric_array(self, arr: pa.Array) -> None:
        n = len(arr)
        self.count += n
        nulls = arr.null_count
        # NaN -> null, +/-Inf -> invalid (record_batch_analyzer.rs:531-551)
        a = arr.drop_null().to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        nan_ct = int(np.count_nonzero(np.isnan(a)))
        inf_ct = int(np.count_nonzero(np.isinf(a)))
        self.null_count += nulls + nan_ct
        if inf_ct:
            self.invalid_count = (self.invalid_count or 0) + inf_ct
        elif self.invalid_count is None:
            self.invalid_count = 0
        a = a[np.isfinite(a)]
        if len(a) == 0:
            return
        self.welford.update_batch(a)
        self.min = min(self.min, float(a.min()))
        self.max = max(self.max, float(a.max()))
        self.cardinality.add_hashes(hash64(a))
        self.sampler.offer_ndarray(a)

    def update_boolean_array(self, arr: pa.Array) -> None:
        n = len(arr)
        self.count += n
        self.null_count += arr.null_count
        vc = arr.drop_null()
        t = int(pc.sum(vc).as_py() or 0)
        self.bool_true += t
        self.bool_false += len(vc) - t

    def update_timestamp_array(self, arr: pa.Array) -> None:
        import pandas as pd

        n = len(arr)
        self.count += n
        self.null_count += arr.null_count
        vals = arr.drop_null()
        s = pd.Series(vals.to_pandas())
        if s.empty:
            return
        lo, hi = s.min(), s.max()
        self.ts_min = lo if self.ts_min is None else min(self.ts_min, lo)
        self.ts_max = hi if self.ts_max is None else max(self.ts_max, hi)
        self.year_dist.update(Counter(s.dt.year.value_counts().to_dict()))
        self.month_dist.update(Counter(s.dt.month.value_counts().to_dict()))
        # weekday keyed by int 0=Monday..6; rendered to names at assembly
        # (day_name() formats a string per row — 10x the cost)
        self.weekday_dist.update(Counter(s.dt.dayofweek.value_counts().to_dict()))
        hours = s.dt.hour
        if (hours != 0).any() or (s.dt.minute != 0).any() or (s.dt.second != 0).any():
            self.has_time_component = True
        self.hour_dist.update(Counter(hours.value_counts().to_dict()))
        self.cardinality.add_hashes(hash64(s.astype("int64").to_numpy()))
        self.sampler.offer_arrow(vals)

    def update_binary_array(self, arr: pa.Array) -> None:
        """Binary columns profiled by length only (record_batch_analyzer.rs:829-853)."""
        n = len(arr)
        self.count += n
        self.null_count += arr.null_count
        vals = arr.drop_null()
        if len(vals) == 0:
            return
        lengths = pc.binary_length(vals).to_numpy(zero_copy_only=False).astype(np.int64)
        self.text_lengths.update_lengths(lengths)

    def update_array(self, arr) -> None:
        if isinstance(arr, pa.ChunkedArray):
            for chunk in arr.chunks:
                self.update_array(chunk)
            return
        t = arr.type
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            self.kind = self.kind or "string"
            self.update_string_array(arr)
        elif pa.types.is_boolean(t):
            self.kind = self.kind or "boolean"
            self.update_boolean_array(arr)
        elif pa.types.is_timestamp(t) or pa.types.is_date(t):
            self.kind = self.kind or "timestamp"
            if pa.types.is_date(t):
                # date32/date64 (e.g. Arrow CSV date inference) -> timestamp
                # so the pandas .dt path applies
                arr = pc.cast(arr, pa.timestamp("us"))
            self.update_timestamp_array(arr)
        elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
            self.kind = self.kind or "binary"
            self.update_binary_array(arr)
        elif pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t):
            self.kind = self.kind or "numeric"
            self.is_integer_type = self.is_integer_type or pa.types.is_integer(t)
            self.update_numeric_array(arr)
        else:
            # generic fallback: format to string (record_batch_analyzer.rs:940-964)
            self.kind = self.kind or "string"
            try:
                rendered = pc.cast(arr, pa.string())
            except pa.ArrowNotImplementedError:
                # nested types (struct/list/map) have no Arrow utf8 cast;
                # Python-render like the reference's ArrayFormatter
                rendered = pa.array(
                    [None if v is None else str(v) for v in arr.to_pylist()],
                    pa.string(),
                )
            self.update_string_array(rendered)

    # ---- merge + results ----

    def merge(self, other: "StreamingStatistics") -> None:
        self.kind = self.kind or other.kind
        self.is_integer_type = self.is_integer_type or other.is_integer_type
        self.count += other.count
        self.null_count += other.null_count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.welford.merge(other.welford)
        self.cardinality.merge(other.cardinality)
        self.sampler.merge(other.sampler)
        self.text_lengths.merge(other.text_lengths)
        self.date_match_count += other.date_match_count
        self.bool_true += other.bool_true
        self.bool_false += other.bool_false
        if other.ts_min is not None:
            self.ts_min = other.ts_min if self.ts_min is None else min(self.ts_min, other.ts_min)
        if other.ts_max is not None:
            self.ts_max = other.ts_max if self.ts_max is None else max(self.ts_max, other.ts_max)
        self.year_dist.update(other.year_dist)
        self.month_dist.update(other.month_dist)
        self.weekday_dist.update(other.weekday_dist)
        self.hour_dist.update(other.hour_dist)
        self.has_time_component = self.has_time_component or other.has_time_component
        if other.invalid_count is not None:
            self.invalid_count = (self.invalid_count or 0) + other.invalid_count

    def mean(self) -> float:
        return self.welford.mean if self.welford.count else 0.0

    def unique_count(self) -> int:
        return self.cardinality.unique_count()

    def unique_count_is_approximate(self) -> bool:
        return self.cardinality.is_approximate()

    def sample_values(self) -> list:
        return self.sampler.samples()


class RowUniquenessTracker:
    """Full-stream duplicate rows = rows_seen - distinct(row signatures);
    exact until the estimator spills to HLL (streaming_stats.rs:428-482)."""

    __slots__ = ("rows_seen", "cardinality")

    def __init__(self) -> None:
        self.rows_seen = 0
        self.cardinality = CardinalityEstimator()

    def add_signature_hashes(self, hashes: np.ndarray) -> None:
        self.rows_seen += len(hashes)
        self.cardinality.add_hashes(hashes)

    def merge(self, other: "RowUniquenessTracker") -> None:
        self.rows_seen += other.rows_seen
        self.cardinality.merge(other.cardinality)

    def duplicate_rows(self) -> int:
        return max(0, self.rows_seen - self.cardinality.unique_count())

    def is_approximate(self) -> bool:
        return self.cardinality.is_approximate()


def row_signature_hashes(batch: pa.Table) -> np.ndarray:
    """64-bit signature per row: polars' multi-column row hash of the
    string-rendered fields with null -> "" (parity with the reference's
    length-prefixed concat + ArrayFormatter null="" at streaming_stats.rs:553-576
    in spirit: identical rows collide, differing rows almost surely don't)."""
    import polars as pl

    # nested columns (struct/list/map) have no utf8 cast in either engine:
    # Python-render them up front (matches the string-fallback in
    # update_array), keeping identical rows -> identical signatures
    cols = {}
    for name in batch.column_names:
        col = batch.column(name)
        if pa.types.is_nested(col.type):
            col = pa.array(
                [None if v is None else str(v) for v in col.to_pylist()],
                pa.string(),
            )
        cols[name] = col
    batch = pa.table(cols)

    df = pl.from_arrow(batch)
    exprs = []
    for c, dt in zip(df.columns, df.dtypes):
        e = pl.col(c)
        if dt == pl.Binary:
            # strict utf8 cast would crash on non-UTF8 payloads (html etc.);
            # hex rendering keeps identical-bytes -> identical-signature
            e = e.bin.encode("hex")
        exprs.append(e.cast(pl.Utf8).fill_null(""))
    return (
        df.select(pl.concat_str([e.str.len_bytes().cast(pl.Utf8) + pl.lit(":") + e for e in exprs]).hash(seed=0))
        .to_series()
        .to_numpy()
        .astype(np.uint64)
    )


class ColumnCollection:
    """Name-keyed map of StreamingStatistics + row-duplicate tracker: the
    per-partition profile state emitted once per partition and merged on the
    driver in deterministic (sorted shard) order."""

    def __init__(self, sample_capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = RESERVOIR_SEED,
                 track_row_uniqueness: bool = True) -> None:
        self.columns: dict[str, StreamingStatistics] = {}
        self.row_tracker = RowUniquenessTracker() if track_row_uniqueness else None
        self.rows = 0
        self.sample_capacity = sample_capacity
        self.seed = seed

    def update_table(self, batch: pa.Table) -> None:
        self.rows += batch.num_rows
        for name in batch.column_names:
            stats = self.columns.get(name)
            if stats is None:
                stats = StreamingStatistics(self.sample_capacity, self.seed)
                if self.rows - batch.num_rows > 0:
                    # late-appearing column: backfill nulls (streaming_stats.rs:535-547)
                    stats.count = self.rows - batch.num_rows
                    stats.null_count = stats.count
                self.columns[name] = stats
            stats.update_array(batch.column(name))
        # columns missing from this batch get null backfill
        for name, stats in self.columns.items():
            if name not in batch.column_names:
                stats.count += batch.num_rows
                stats.null_count += batch.num_rows
        if self.row_tracker is not None:
            self.row_tracker.add_signature_hashes(row_signature_hashes(batch))

    def merge(self, other: "ColumnCollection") -> None:
        self.rows += other.rows
        for name, stats in other.columns.items():
            if name in self.columns:
                self.columns[name].merge(stats)
            else:
                self.columns[name] = stats
        if self.row_tracker is not None and other.row_tracker is not None:
            self.row_tracker.merge(other.row_tracker)


def merge_collections(collections: list[tuple[Any, ColumnCollection]]) -> ColumnCollection:
    """Deterministic fold: sort by partition key, then merge left to right."""
    ordered = sorted(collections, key=lambda kv: kv[0])
    if not ordered:
        return ColumnCollection()
    base = ordered[0][1]
    for _, other in ordered[1:]:
        base.merge(other)
    return base
