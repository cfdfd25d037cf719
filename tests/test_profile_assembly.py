"""Profile report assembly over distinct sample values: the same report,
field for field, as the per-value oracle in ``profile_oracle``; Arrow
reservoirs that sample exactly as the list-backed Algorithm R; and the
RE2/``re`` split of the pattern detectors on adversarial Unicode."""

import pickle
from dataclasses import asdict
from datetime import datetime

import numpy as np
import pyarrow as pa
import pytest

import profile_oracle as O
from dataprof_ray.functions import kernels as K
from dataprof_ray.functions import patterns as P
from dataprof_ray.functions import quality as Q
from dataprof_ray.pipelines import profile as PP
from dataprof_ray.state import accumulators as A

# digits, spaces and letters that RE2 and Python ``re`` classify differently
ADVERSARIAL = [
    "١٢٣٤٥", "١٢٣", "٠٣/٠٤/٢٠٢٤", "２０２４-０１-１５", "１２３４５", "１٢3",
    "12 345", " 12345 ", "\x1c12345\x1f", "1\x1d2", "12345\x0b",
    "a\x1eb@example.com", "café@example.com", "user@exämple.com", "naïve_1",
    "Ünïcode-42", "AB_١٢", "é_x", "x_é", "😀", "😀@😀.com", "ok👍",
    "192.168.1.1", "user@example.com", "12345", "2024-01-15", "IT60X0542811101000000123456",
    "+39 06 12345678", "#a1b2c3", "12.5%", "€ 1.234,56", "1.5e10", " x",
    "line\nbreak", "tab\tsep", "NaN", "NULL", " null ", "", "  ", "ＮＵＬＬ", "-nan",
    "1_000", "inf", "-Infinity", "1e400", "0e-99999999999999999999", "٣.٥",
    "2024-02-30", "2024-01-01T24:00:00", "2024-01-01T23:59:60", "0000-01-01",
    "15/01/2024", "2024/01/15", "01-15-2024", "2024-1-5", "true", "FALSE", "yes",
    "12345678901234567890", "-9223372036854775808", "9223372036854775808", "1.50",
]


def _report_fields(report) -> str:
    d = asdict(report)
    d.pop("id")
    d.pop("timestamp")
    return repr(d)  # dict order and float bits included


def _collect(table: pa.Table, chunk_rows: int, capacity: int,
             track_rows: bool = True) -> A.ColumnCollection:
    """One partial per chunk, pickled and merged as the driver does."""
    chunks = [table.slice(start, chunk_rows) for start in range(0, table.num_rows, chunk_rows)]
    return _merge_blocks(chunks, capacity, track_rows)


def _merge_blocks(blocks: list, capacity: int, track_rows: bool = True) -> A.ColumnCollection:
    parts = []
    for k, block in enumerate(blocks):
        coll = A.ColumnCollection(sample_capacity=capacity,
                                  track_row_uniqueness=track_rows)
        coll.update_table(block)
        parts.append(((k, b""), pickle.loads(pickle.dumps(coll))))
    return A.merge_collections(parts)


def _assert_same_report(coll, **kwargs):
    new = PP.assemble_report(coll, **kwargs)
    old = O.assemble_report(coll, **kwargs)
    assert _report_fields(new) == _report_fields(old)
    return new


def _perfbench_shaped(rows: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)

    def nulls(share):
        return rng.random(rows) < share

    base = np.datetime64("2025-01-01T00:00:00", "ms")
    ts = base + rng.integers(0, 365 * 86_400_000, rows).astype("timedelta64[ms]")
    f_heavy = (rng.pareto(1.5, rows) + 1.0) * 10.0
    f_heavy[rng.integers(0, rows, 5)] *= 1e4
    return pa.table({
        "id": pa.array(np.arange(rows, dtype=np.int64)),
        "i_val": pa.array(rng.integers(-50_000, 1_000_000, rows), mask=nulls(0.02)),
        "f_val": pa.array(np.round(rng.normal(100.0, 15.0, rows), 3), mask=nulls(0.05)),
        "f_heavy": pa.array(f_heavy, mask=nulls(0.03)),
        "region": pa.array(rng.choice(np.array(["eu", "us", "apac", "latam"]), rows)),
        "cat": pa.array(np.char.add("c", rng.integers(0, 60, rows).astype(str))),
        "user": pa.array(np.char.add("u", rng.integers(0, rows // 3, rows).astype(str))),
        "ts": pa.array(ts, pa.timestamp("ms"), mask=nulls(0.01)),
    })


def _mixed_table() -> pa.Table:
    """The profiler suite's mixed-type fixture."""
    rng = np.random.default_rng(42)
    n = 5000
    return pa.table({
        "id": pa.array(range(n), pa.int64()),
        "name": [f"user_{i}" for i in range(n)],
        "email": [f"user{i}@example.com" for i in range(n)],
        "age": pa.array(rng.integers(18, 80, n), pa.int64()),
        "salary": pa.array(np.round(rng.normal(50_000, 15_000, n), 2), pa.float64()),
        "is_active": ["true" if i % 3 else "false" for i in range(n)],
        "created_at": ["2024-%02d-%02d" % (i % 12 + 1, i % 28 + 1) for i in range(n)],
        "score": pa.array(rng.random(n) * 100, pa.float64()),
    })


def _report_table() -> pa.Table:
    """The report suite's fixture."""
    return pa.table({
        "id": pa.array(range(100), pa.int64()),
        "amount": pa.array(np.linspace(0, 99, 100)),
        "email": pa.array([f"user{i}@example.com" for i in range(100)]),
        "flag": pa.array([i % 2 == 0 for i in range(100)]),
        "note": pa.array((["ok", "fine", None, "null"] * 25)),
    })


def _adversarial_table(rows: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(ADVERSARIAL), (6, rows))
    days = rng.integers(0, 400, (2, rows))
    start = [str(np.datetime64("2024-01-01") + int(d)) for d in days[0]]
    end = [str(np.datetime64("2024-01-01") + int(d)) for d in days[1]]
    end[::7] = [ADVERSARIAL[k] for k in pick[5][::7]]
    return pa.table({
        "text": [ADVERSARIAL[k] for k in pick[0]],
        "code_id": [ADVERSARIAL[k] + str(k % 3) for k in pick[1]],
        "amount_rate": [ADVERSARIAL[k] if k % 4 else f"{k * 1.25:.2f}" for k in pick[2]],
        "birth_year": [ADVERSARIAL[k] if k % 3 else str(1890 + k * 3) for k in pick[3]],
        "created": [ADVERSARIAL[k] if k % 2 else "2024-03-%02d" % (k % 28 + 1)
                    for k in pick[4]],
        "start_date": start,
        "end_date": end,
        "digits": [ADVERSARIAL[k] if k % 5 == 0 else str(10_000 + k) for k in pick[5]],
    })


@pytest.mark.parametrize("make, chunk, capacity", [
    (_mixed_table, 700, 1000),
    (_report_table, 30, 10_000),
    (lambda: _perfbench_shaped(6000, 11), 1500, 2000),
    (lambda: _perfbench_shaped(3000, 5), 3000, 10_000),
    (lambda: _adversarial_table(3000, 7), 400, 1000),
    (lambda: _adversarial_table(800, 8), 800, 10_000),
])
def test_assembly_matches_per_value_oracle(make, chunk, capacity):
    coll = _collect(make(), chunk, capacity)
    _assert_same_report(coll)
    _assert_same_report(coll, locale="IT", positive_columns=("amount_rate", "f_val"),
                        identifier_columns=("user", "code_id"))


def test_assembly_options_match_oracle():
    """Temporal pairs, an explicit temporal list, a dimension subset, no
    patterns, and the sample row-duplicate scan (no row tracker)."""
    table = _adversarial_table(1200, 9)
    coll = _collect(table, 300, 500)
    _assert_same_report(coll, temporal_columns=("start_date", "end_date", "created"))
    _assert_same_report(coll, skip_patterns=True,
                        quality_dimensions=("validity", "timeliness", "accuracy"))
    _assert_same_report(coll, config=Q.IsoQualityConfig.strict())
    rows = _perfbench_shaped(200, 3).drop_columns(["i_val", "f_val", "f_heavy", "ts"])
    dup = pa.concat_tables([rows] * 3)
    rep = _assert_same_report(_collect(dup, 250, 10_000, track_rows=False))
    assert rep.quality.uniqueness.duplicate_rows == 400


def _mixed_type_blocks(seed: int) -> list:
    """Blocks whose columns change type: ``x`` float64 or text, ``n`` int64
    or text, ``t`` timestamp or text."""
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(6):
        n = 300
        words = [ADVERSARIAL[i] for i in rng.integers(0, len(ADVERSARIAL), (3, n)).ravel()]
        if k % 2 == 0:
            x = pa.array(np.round(rng.normal(10.0, 3.0, n), 1))
            num = pa.array(rng.integers(-5, 2000, n), pa.int64())
            t = pa.array(rng.integers(0, 10**12, n), pa.timestamp("ms"))
        else:
            x = pa.array(words[:n - 50] + [repr(v) for v in np.round(rng.normal(10.0, 3.0, 50), 1)])
            num = pa.array([str(v) for v in rng.integers(-5, 2000, n - 50)] + words[n:n + 50])
            t = pa.array(["2024-03-%02d" % (v % 28 + 1) for v in rng.integers(0, 99, n)])
        blocks.append(pa.table({"x": x, "num": num, "t": t}))
    return blocks


@pytest.mark.parametrize("first", [0, 1])
def test_assembly_matches_oracle_when_blocks_differ_in_type(first):
    """A column that is float64, int64 or timestamp in some blocks and text
    in others: its reservoir keeps each value's Python type, renders it by
    that type, and the numeric sample is its float values, as per value."""
    blocks = _mixed_type_blocks(6)[first:]
    coll = _merge_blocks(blocks, 500)
    for name, types in (("x", {float, str}), ("num", {float, str}), ("t", {datetime, str})):
        assert {type(v) for v in coll.columns[name].sampler.samples()} == types
    _assert_same_report(coll)
    one = A.ColumnCollection(sample_capacity=500)  # one partial, replacement hits
    for block in blocks:
        one.update_table(block)
    _assert_same_report(one, locale="IT")
    _assert_same_report(_merge_blocks(blocks, 10_000), temporal_columns=("t",))


class _Profile:
    def __init__(self, name, data_type, total_count, patterns):
        self.name, self.data_type, self.patterns = name, data_type, patterns
        self.total_count, self.null_count, self.unique_count = total_count, 0, None


def test_calculators_on_lists_match_oracle():
    """The list form of the calculators encodes first; same metrics."""
    rng = np.random.default_rng(4)
    data = {name: [ADVERSARIAL[k] for k in rng.integers(0, len(ADVERSARIAL), 500)]
            for name in ("start", "end", "percent", "created_at", "x")}
    types = [K.TYPE_DATE, K.TYPE_STRING, K.TYPE_FLOAT, K.TYPE_DATE, K.TYPE_INTEGER]
    profiles = [_Profile(n, dt, 500, O.detect_patterns(data[n]))
                for n, dt in zip(data, types)]
    cfg = Q.IsoQualityConfig()
    assert Q.calc_consistency(data, profiles) == O.calc_consistency(data, profiles)
    assert Q.calc_accuracy(data, profiles, cfg, ["percent", "x"]) == \
        O.calc_accuracy(data, profiles, cfg, ["percent", "x"])
    assert Q.calc_precision(data, profiles) == O.calc_precision(data, profiles)
    assert Q.calc_validity(data, profiles) == O.calc_validity(data, profiles)
    assert Q.calc_timeliness(data, list(data), cfg, 2026) == \
        O.calc_timeliness(data, list(data), cfg, 2026)
    assert Q.calc_uniqueness(data, profiles, 500, [], cfg) == \
        O.calc_uniqueness(data, profiles, 500, [], cfg)


def test_detectors_re2_split_matches_python_re():
    values = [v.strip() for v in ADVERSARIAL if v.strip()]
    bitmaps = P._match_bitmaps(values)
    for k, rx in enumerate(P._COMPILED):
        assert bitmaps[k].tolist() == [rx.search(v) is not None for v in values], \
            P.PATTERN_DEFS[k].name
    assert P.detect_patterns(ADVERSARIAL * 3) == O.detect_patterns(ADVERSARIAL * 3)


@pytest.mark.parametrize("kind", ["str", "float", "datetime", "all_null", "mixed"])
def test_reservoir_pickles_as_arrow_and_samples_like_a_list(kind):
    """Same samples, in the same order, as list-backed Algorithm R, through
    per-block samplers, a pickle round trip and the merge."""
    rng = np.random.default_rng(3)
    blocks = []
    for _ in range(5):
        n = int(rng.integers(500, 4000))
        if kind == "str":
            blocks.append(pa.array([f"v{x}" for x in rng.integers(0, 3000, n)]))
        elif kind == "float":
            blocks.append(pa.array(rng.normal(size=n)))
        elif kind == "datetime":
            blocks.append(pa.array(rng.integers(0, 10**12, n), pa.timestamp("ms")))
        elif kind == "mixed":  # no common Arrow type: the merge keeps Python values
            blocks.append(pa.array(rng.normal(size=n)) if len(blocks) % 2
                          else pa.array([f"v{x}" for x in rng.integers(0, 3000, n)]))
        else:
            blocks.append(pa.nulls(n, pa.string()))
    merged = lists = None
    for arr in blocks:
        stats = A.StreamingStatistics(sample_capacity=1000)
        stats.update_array(arr)
        blob = pickle.dumps(stats.sampler)
        sampler = pickle.loads(blob)
        ref = O.ListReservoir(1000, A.RESERVOIR_SEED)
        ref.offer(arr.drop_null().to_pylist())
        assert sampler.samples() == ref.reservoir
        assert sampler.count == ref.count
        if len(sampler):
            assert isinstance(sampler.reservoir, pa.Array)
            assert len(blob) < 200 + sampler.reservoir.nbytes * 2
        if merged is None:
            merged, lists = sampler, ref
        else:
            merged.merge(sampler)
            lists.merge(ref)
    assert merged.samples() == lists.reservoir
    assert merged.count == lists.count
    if kind == "mixed":
        assert {type(v) for v in merged.samples()} == {str, float}
    if kind == "all_null":
        assert merged.reservoir is None and merged.samples() == []


def test_column_sample_encoding():
    """Raw values that render alike merge into one distinct value; the
    codes keep the sample order."""
    col = Q.ColumnSample.encode(pa.array([1.0, -0.0, 0.0, 2.5, 1.0]), lambda v: PP._render_value(v, True))
    assert col.values == ["1", "0", "2.5"]
    assert col.counts.tolist() == [2, 2, 1]
    assert [col.values[c] for c in col.codes] == ["1", "0", "0", "2.5", "1"]
    stats = A.StreamingStatistics()
    stats.update_array(pa.array([datetime(2024, 1, 1, 0, 0, 0, 1), datetime(2024, 1, 1),
                                 None], pa.timestamp("us")))
    col = PP.encode_sample(stats)
    assert col.values == ["2024-01-01T00:00:00"] and col.counts.tolist() == [2]


def _year_boundary_table(rows: int, seed: int) -> pa.Table:
    """Instants within a day of a new year, naive, as UTC rendered in two
    time zones (their local year differs from the UTC one), as dates, and
    years below 1000, whose rendering has fewer than four year digits."""
    rng = np.random.default_rng(seed)
    edges = np.array(["1999-12-31T12:00", "2020-12-31T12:00", "2024-12-31T12:00",
                      f"{datetime.now().year}-12-31T12:00"], "datetime64[ms]")
    ts = (edges[rng.integers(0, len(edges), rows)]
          + rng.integers(0, 86_400_000, rows).astype("timedelta64[ms]"))
    utc = pa.array(ts, pa.timestamp("ms", tz="UTC"))
    old = np.array(["0999-12-31T23:00", "1000-01-01T00:30", "0042-06-01T00:00"],
                   "datetime64[ms]")
    return pa.table({
        "naive": pa.array(ts, pa.timestamp("ms")),
        "tokyo": utc.cast(pa.timestamp("ms", tz="Asia/Tokyo")),
        "new_york": utc.cast(pa.timestamp("us", tz="America/New_York")),
        "day": pa.array(ts.astype("datetime64[D]"), pa.date32()),
        "old": pa.array(old[rng.integers(0, len(old), rows)], pa.timestamp("ms"),
                        mask=rng.random(rows) < 0.1),
    })


@pytest.mark.parametrize("chunk, capacity", [(500, 10_000), (300, 400)])
def test_typed_timeliness_years_match_oracle(chunk, capacity):
    """Timeliness years read from the typed reservoir give the oracle's
    report, whose years are parsed from each rendered value."""
    table = _year_boundary_table(2000, 3)
    coll = _collect(table, chunk, capacity)
    rep = _assert_same_report(coll)
    assert rep.quality.timeliness.future_dates_count > 0
    assert rep.quality.timeliness.invalid_date_values > 0  # the years below 1000
    _assert_same_report(coll, temporal_columns=tuple(table.column_names))


def test_typed_sample_years_skip_the_text_parse(monkeypatch):
    """A timestamp or date sample's years come from ``pc.year`` on the typed
    values, in the column's own time zone; years below 1000 still parse."""
    parsed = []
    real = K.parse_raw_datetime_year
    monkeypatch.setattr(K, "parse_raw_datetime_year", lambda s: parsed.append(s) or real(s))
    utc = pa.array([datetime(2023, 12, 31, 20), datetime(2024, 12, 31, 23, 59, 59)],
                   pa.timestamp("s", tz="UTC"))
    for arr, years in [
        (utc, [2023, 2024]),
        (utc.cast(pa.timestamp("s", tz="Asia/Tokyo")), [2024, 2025]),
        (pa.array([datetime(2024, 1, 1), datetime(2023, 12, 31)], pa.date32()), [2024, 2023]),
    ]:
        stats = A.StreamingStatistics()
        stats.update_array(arr)
        col = PP.encode_sample(stats)
        assert [col.raw_year[c] for c in col.codes] == years
    assert parsed == []
    stats = A.StreamingStatistics()
    stats.update_array(pa.array([datetime(999, 1, 1), datetime(1000, 1, 1)], pa.timestamp("s")))
    col = PP.encode_sample(stats)
    assert np.isnan(col.raw_year[col.codes[0]]) and col.raw_year[col.codes[1]] == 1000
    assert parsed == ["999-01-01T00:00:00"]
