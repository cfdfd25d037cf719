"""CSV sniffing / ragged policy + JSONL error policy + in-memory dispatch."""

import json

import pandas as pd
import pyarrow as pa
import pytest

from dataprof_ray.sources import readers as RD


class TestSniff:
    def test_comma(self):
        assert RD.sniff_delimiter(b"a,b,c\n1,2,3\n4,5,6\n") == ","

    def test_semicolon(self):
        assert RD.sniff_delimiter(b"a;b;c\n1;2;3\n4;5;6\n") == ";"

    def test_tab(self):
        assert RD.sniff_delimiter(b"a\tb\n1\t2\n") == "\t"

    def test_pipe(self):
        assert RD.sniff_delimiter(b"a|b|c\n1|2|3\n") == "|"

    def test_quoted_delimiters_ignored(self):
        # commas inside quotes must not fool the scorer toward commas
        assert RD.sniff_delimiter(b'a;b\n"x,y,z";2\n"q,r";4\n') == ";"


class TestCsv(object):
    def test_read_sniffed(self, ray_session, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a;b;c\n1;x;2.5\n2;y;3.5\n")
        df = RD.read_csv(str(p)).to_pandas()
        assert list(df.columns) == ["a", "b", "c"]
        assert df["a"].tolist() == [1, 2]

    def test_column_projection(self, ray_session, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1,x,2.5\n")
        df = RD.read_csv(str(p), columns=["a", "c"]).to_pandas()
        assert list(df.columns) == ["a", "c"]


class TestJsonl:
    def test_skip_counts_malformed(self, ray_session, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"a": 1}\nnot json\n{"a": 2, "b": "x"}\n[1,2]\n')
        res = RD.read_jsonl(str(p), policy="skip")
        df = res.dataset.to_pandas()
        assert len(df) == 2
        assert res.error_count == 2

    def test_strict_raises(self, ray_session, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"a": 1}\nnot json\n')
        res = RD.read_jsonl(str(p), policy="strict")
        with pytest.raises(Exception, match="malformed|RayTaskError"):
            res.dataset.to_pandas()

    def test_late_keys_backfilled(self, ray_session, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"a": 1}\n{"a": 2, "late": "x"}\n')
        df = RD.read_jsonl(str(p)).dataset.to_pandas()
        assert df["late"].tolist()[0] is None or pd.isna(df["late"].tolist()[0])

    def test_nested_flattened_to_json_string(self, ray_session, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"a": [1, 2], "b": {"k": 1}}\n')
        df = RD.read_jsonl(str(p)).dataset.to_pandas()
        assert json.loads(df["a"][0]) == [1, 2]
        assert json.loads(df["b"][0]) == {"k": 1}

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            RD.read_jsonl("/nonexistent", policy="wat")


class TestParquetBlocks:
    """``read_parquet`` reads ``max(n_files, cpus)`` blocks below 2 x CPUs
    files (the test session has 4 CPUs), and Ray's default from there on."""

    @staticmethod
    def _table(n_files, tmp_path):
        import numpy as np
        import pyarrow.parquet as pq

        d = tmp_path / f"t{n_files}"
        d.mkdir()
        rng = np.random.default_rng(n_files)
        for k in range(n_files):
            pq.write_table(pa.table({
                "id": pa.array(range(k * 500, (k + 1) * 500), pa.int64()),
                "v": rng.normal(size=500),
                "s": [f"s{i % 13}" for i in range(500)],
            }), str(d / f"part_{k:02d}.parquet"))
        return str(d)

    @pytest.fixture
    def executed_ops(self, monkeypatch):
        """Operator names of every Ray Data execution run in the test."""
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor)

        names = []
        orig = StreamingExecutor.execute

        def recording(executor, dag, *args, **kwargs):
            stack = [dag]
            while stack:
                op = stack.pop()
                names.append(op.name)
                stack.extend(op.input_dependencies)
            return orig(executor, dag, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", recording)
        return names

    def test_one_block_per_file_fuses_the_read(self, ray_session, tmp_path,
                                               executed_ops):
        path = self._table(4, tmp_path)
        assert RD.read_parquet(path).materialize().num_blocks() == 4
        executed_ops.clear()
        RD.read_parquet(path).map_batches(lambda b: b,
                                          batch_format="pyarrow").materialize()
        assert not [n for n in executed_ops if "SplitBlocks" in n], executed_ops
        assert any(n.startswith("ReadParquet->MapBatches(")
                   for n in executed_ops), executed_ops

    def test_one_file_reads_one_block_per_cpu(self, ray_session, tmp_path):
        path = self._table(1, tmp_path) + "/part_00.parquet"
        assert RD.read_parquet(path).materialize().num_blocks() == 4

    @pytest.mark.parametrize("n_files", [8, 16])
    def test_many_files_keep_rays_default(self, ray_session, tmp_path,
                                          n_files):
        import ray.data as rd

        path = self._table(n_files, tmp_path)
        got = RD.read_parquet(path).materialize().num_blocks()
        assert got == rd.read_parquet(path).materialize().num_blocks()
        # 16 files: Ray groups them into 2 x CPUs read tasks, where one
        # block per file would give 16
        assert got == 8

    def test_non_local_path_keeps_rays_default(self):
        from dataprof_ray.sources.readers import _data_files, _read_blocks

        assert _data_files("s3://bucket/table") is None
        assert _read_blocks(_data_files("s3://bucket/table")) is None

    def test_marker_files_are_skipped(self, ray_session, tmp_path):
        path = self._table(4, tmp_path)
        (tmp_path / "t4" / "_SUCCESS").write_bytes(b"")
        ds = RD.read_parquet(path).materialize()
        assert ds.count() == 2000 and ds.num_blocks() == 4

    def test_partitioned_directory_keeps_its_partition_column(self, ray_session,
                                                              tmp_path):
        import pyarrow.parquet as pq

        d = tmp_path / "hive"
        for year in (2020, 2021):
            (d / f"year={year}").mkdir(parents=True)
            pq.write_table(pa.table({"x": [1, 2, 3]}),
                           str(d / f"year={year}" / "part.parquet"))
        got = RD.read_parquet(str(d)).to_pandas()
        assert sorted(got.columns) == ["x", "year"]
        assert sorted(got["year"].astype(str)) == ["2020"] * 3 + ["2021"] * 3

    def test_explicit_override_wins(self, ray_session, tmp_path):
        path = self._table(4, tmp_path)
        ds = RD.read_parquet(path, override_num_blocks=8)
        assert ds.materialize().num_blocks() == 8

    @pytest.mark.parametrize("n_files", [1, 4, 8])
    def test_rows_equal_pyarrow(self, ray_session, tmp_path, n_files):
        import pyarrow.parquet as pq
        import ray

        path = self._table(n_files, tmp_path)
        refs = RD.read_parquet(path).to_arrow_refs()
        got = pa.concat_tables(ray.get(refs)).sort_by("id")
        assert got.equals(pq.read_table(path).sort_by("id"))


class TestFromAny:
    def test_dict(self, ray_session):
        assert RD.from_any({"x": [1, 2, 3]}).count() == 3

    def test_records(self, ray_session):
        assert RD.from_any([{"x": 1}, {"x": 2}]).count() == 2

    def test_arrow(self, ray_session):
        assert RD.from_any(pa.table({"x": [1]})).count() == 1

    def test_pandas(self, ray_session):
        assert RD.from_any(pd.DataFrame({"x": [1, 2]})).count() == 2

    def test_polars(self, ray_session):
        import polars as pl

        assert RD.from_any(pl.DataFrame({"x": [1, 2]})).count() == 2

    def test_unsupported(self):
        with pytest.raises(TypeError):
            RD.from_any(42)


class TestEncoding:
    def test_utf8(self):
        d = RD.diagnose_encoding("héllo,wörld\n1,2\n".encode("utf-8"))
        assert d.encoding == "utf-8" and d.first_bad_byte_offset is None

    def test_latin1(self):
        d = RD.diagnose_encoding("a,b\ncafé,1\n".encode("latin-1"))
        assert d.encoding == "latin-1"
        assert d.first_bad_byte_offset == 7  # the é byte

    def test_windows1252(self):
        d = RD.diagnose_encoding(b"a,b\n\x93quoted\x94,1\n")  # 0x93/0x94 smart quotes
        assert d.encoding == "windows-1252"

    def test_utf16_bom(self):
        d = RD.diagnose_encoding("a,b\n1,2\n".encode("utf-16"))
        assert d.encoding == "utf-16" and d.confident

    def test_read_csv_robust_latin1(self, ray_session, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes("name,n\ncafé,1\nnoël,2\n".encode("latin-1"))
        df = RD.read_csv_robust(str(p)).to_pandas()
        assert df["name"].tolist() == ["café", "noël"]


class TestReadSql:
    def _factory(self, tmp_path):
        import sqlite3

        db = str(tmp_path / "t.db")
        con = sqlite3.connect(db)
        con.execute("CREATE TABLE IF NOT EXISTS t (id INTEGER, v REAL)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        [(i, i * 0.5) for i in range(1000)])
        con.commit()
        con.close()
        return lambda: __import__("sqlite3").connect(db)

    def test_read_all(self, ray_session, tmp_path):
        f = self._factory(tmp_path)
        ds = RD.read_sql("SELECT * FROM t", f)
        assert ds.count() == 1000

    def test_auto_sampling(self, ray_session, tmp_path):
        f = self._factory(tmp_path)
        ds = RD.read_sql("SELECT * FROM t", f, sample_above_rows=100, sample_rows=100)
        n = ds.count()
        # a lower bound too: the old ROWID-in-derived-table predicate
        # silently returned ZERO rows (ADVICE r1), which `<= 150` masked
        assert 50 <= n <= 150  # ~every 10th row
        assert "_rn" not in ds.schema().names

    @staticmethod
    def _fake_dialect_factory(db: str, dialect: str):
        """Connection factory for a fake Postgres/MySQL DBAPI driver backed
        by sqlite. Its cursor ENFORCES the one dialect rule the round-1
        sampling SQL violated — PG/MySQL reject unaliased derived tables —
        so these tests fail if the generated SQL regresses to sqlite-only.
        Everything is nested so cloudpickle ships it by value to read tasks.
        """
        import re

        def assert_derived_tables_aliased(sql: str) -> None:
            up = sql.upper()
            for m in re.finditer(r"\b(FROM|JOIN)\s*\(", up):
                depth, i = 1, m.end()
                while i < len(up) and depth:
                    depth += {"(": 1, ")": -1}.get(up[i], 0)
                    i += 1
                rest = up[i:].lstrip()
                tok = re.match(r"(AS\s+)?([A-Z_][A-Z0-9_]*)", rest)
                if tok is None or tok.group(2) in {
                        "WHERE", "GROUP", "ORDER", "LIMIT", "ON",
                        "UNION", "HAVING", "AND", "OR"}:
                    raise RuntimeError(
                        f"{dialect}: every derived table must have its own alias")

        class FakeCursor:
            def __init__(self, real):
                self._real = real

            def execute(self, sql, *a):
                assert_derived_tables_aliased(sql)
                self._real.execute(sql, *a)
                return self

            def fetchone(self):
                return self._real.fetchone()

            def fetchall(self):
                return self._real.fetchall()

            def executemany(self, sql, seq):
                self._real.executemany(sql, seq)
                return self

            def fetchmany(self, n):
                return self._real.fetchmany(n)

            @property
            def description(self):
                return self._real.description

            def close(self):
                self._real.close()

        class FakeDialectConnection:
            def __init__(self):
                import sqlite3
                self._con = sqlite3.connect(db)

            def cursor(self):
                return FakeCursor(self._con.cursor())

            def commit(self):
                self._con.commit()

            def close(self):
                self._con.close()

        return FakeDialectConnection

    @pytest.mark.parametrize("dialect", ["postgres", "mysql"])
    def test_auto_sampling_dialects(self, ray_session, tmp_path, dialect):
        self._factory(tmp_path)  # creates + populates the sqlite file
        f = self._fake_dialect_factory(str(tmp_path / "t.db"), dialect)
        ds = RD.read_sql("SELECT * FROM t", f, sample_above_rows=100,
                         sample_rows=100, dialect=dialect)
        n = ds.count()
        assert 50 <= n <= 150  # ~every 10th row actually sampled, not 0
        assert "_rn" not in ds.schema().names

    def test_unaliased_sampling_sql_rejected_by_fake_driver(self, tmp_path):
        """The enforcer is real: the round-1 sqlite-only sampling SQL (no
        derived-table aliases) must error on the fake PG driver."""
        self._factory(tmp_path)
        con = self._fake_dialect_factory(str(tmp_path / "t.db"), "postgres")()
        old_sql = ("SELECT * FROM (SELECT *, ROW_NUMBER() OVER () AS _rn "
                   "FROM (SELECT * FROM t)) WHERE (_rn % 10) = 0")
        with pytest.raises(RuntimeError, match="alias"):
            con.cursor().execute(old_sql)
        # and the CURRENT generated SQL passes the same enforcer
        con.cursor().execute(RD._sampling_sql("SELECT * FROM t", 10))
        con.close()

    def test_nonsqlite_sampling_requires_dialect(self, tmp_path):
        self._factory(tmp_path)
        f = self._fake_dialect_factory(str(tmp_path / "t.db"), "postgres")
        with pytest.raises(ValueError, match="dialect"):
            RD.read_sql("SELECT * FROM t", f, sample_above_rows=100)

    def test_retry_backoff_flaky_factory(self, ray_session, tmp_path):
        calls = {"n": 0}
        real = self._factory(tmp_path)

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("connection refused (simulated)")
            return real()

        cfg = RD.RetryConfig(max_retries=3, initial_delay=0.001,
                             use_jitter=False)
        ds = RD.read_sql("SELECT * FROM t", flaky, retry=cfg)
        assert ds.count() == 1000
        assert calls["n"] >= 3

    def test_retry_exhaustion_raises(self):
        cfg = RD.RetryConfig(max_retries=2, initial_delay=0.001,
                             use_jitter=False)
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise ConnectionError("network down")

        with pytest.raises(RuntimeError, match="exhausted 3 attempts"):
            RD.retry_database_operation(always_fails, cfg)
        assert calls["n"] == 3

    def test_retry_nonretryable_raises_immediately(self):
        cfg = RD.RetryConfig(max_retries=5, initial_delay=0.001)
        calls = {"n": 0}

        def bad_sql():
            calls["n"] += 1
            raise ValueError("syntax error near SELECT")

        with pytest.raises(ValueError):
            RD.retry_database_operation(bad_sql, cfg,
                                        only_connection_errors=True)
        assert calls["n"] == 1


class TestCsvAutoRecovery:
    """parse_csv_with_recovery parity (robust_csv.rs:195-244): ordered
    strategy ladder, first success wins, full attempt log on failure."""

    def test_clean_csv_no_recovery(self, ray_session, tmp_path):
        p = tmp_path / "clean.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        res = RD.read_csv_auto(str(p))
        assert res.strategy == "initial" and res.attempts == []
        assert res.dataset.count() == 2

    def test_ragged_rows_recover_via_flexible(self, ray_session, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b,c\n1,2,3\n4,5\n6,7,8,9\n")
        res = RD.read_csv_auto(str(p))
        assert res.strategy == "flexible_parsing"
        # earlier rungs were tried and logged as failures
        assert [a.success for a in res.attempts[:-1]] == [False] * (len(res.attempts) - 1)
        assert res.attempts[-1].success
        df = res.dataset.to_pandas()
        assert len(df) == 3  # padded + truncated, nothing dropped
        assert df["c"].isna().sum() == 1

    def test_latin1_recover_via_encoding(self, ray_session, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes("name,n\ncafé,1\nnoël,2\n".encode("latin-1"))
        res = RD.read_csv_auto(str(p))
        assert res.strategy == "encoding_conversion"
        assert res.dataset.to_pandas()["name"].tolist() == ["café", "noël"]

    def test_wrong_delimiter_recovered(self, ray_session, tmp_path):
        # initial ',' parse errors (inconsistent comma counts per line);
        # the ';' detection rung parses 2 consistent columns and wins
        p = tmp_path / "semi.csv"
        p.write_text("a;b\n1,2,3;x\n4;y\n")
        res = RD.read_csv_auto(str(p), delimiter=",")
        assert res.strategy == "delimiter_detection(';')"
        df = res.dataset.to_pandas()
        assert list(df.columns) == ["a", "b"] and len(df) == 2

    def test_unclosed_quote_recovers_via_flexible(self, ray_session, tmp_path):
        # Arrow treats the unclosed quote as a field spanning lines; the
        # strict parse errors, flexible skips the damaged row — the ladder
        # logs every failed rung before the winning one
        p = tmp_path / "broken.csv"
        p.write_text('a,b\n"unclosed,1\n2,3\n')
        res = RD.read_csv_auto(str(p))
        assert res.strategy == "flexible_parsing"
        failed = [a for a in res.attempts if not a.success]
        assert {a.strategy for a in failed} >= {"encoding_conversion"}

    def test_exhausted_ladder_raises_with_log(self, ray_session, tmp_path):
        # empty file: no rung can infer a schema -> full attempt log
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(RuntimeError, match="auto-recovery exhausted"):
            RD.read_csv_auto(str(p))

    def test_max_attempts_caps_ladder(self, ray_session, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(RuntimeError) as ei:
            RD.read_csv_auto(str(p), max_attempts=2)
        assert str(ei.value).count("delimiter_detection") == 2


class TestRaggedRows:
    def test_padded_mode_keeps_all_rows(self, ray_session, tmp_path):
        """robust_csv.rs flexible semantics: short rows padded with nulls,
        long rows truncated — nothing dropped, adjustments counted."""
        p = tmp_path / "ragged.csv"
        p.write_text("a,b,c\n1,2,3\n4,5\n6,7,8\n9,10,11,12\n13,14,15\n")
        ds, adjusted = RD.read_csv_padded(str(p), count_ragged=True)
        df = ds.to_pandas().sort_values("a").reset_index(drop=True)
        assert len(df) == 5  # all rows kept
        assert int(adjusted) == 2  # one short (padded), one long (truncated)
        short = df[df["a"] == 4].iloc[0]
        assert pd.isna(short["c"])  # padded field is null
        long_ = df[df["a"] == 9].iloc[0]
        assert long_["c"] == 11  # truncated to header width

    def test_padded_mode_clean_file_matches_fast_path(self, ray_session, tmp_path):
        p = tmp_path / "clean.csv"
        p.write_text("x,y\n1,a\n2,b\n3,c\n")
        fast = RD.read_csv(str(p)).to_pandas().sort_values("x").reset_index(drop=True)
        padded = RD.read_csv_padded(str(p)).to_pandas().sort_values("x").reset_index(drop=True)
        pd.testing.assert_frame_equal(fast, padded)

    def test_padded_mode_empty_file_keeps_schema(self, ray_session, tmp_path):
        """ADVICE r2: a batch of only-empty files must emit a zero-ROW block
        with the corpus schema, not a zero-COLUMN pa.table({}) that breaks
        Ray's schema unification against real blocks."""
        d = tmp_path / "mix"
        d.mkdir()
        (d / "a_real.csv").write_text("x,y\n1,a\n2,b\n")
        (d / "b_empty.csv").write_text("")
        df = RD.read_csv_padded(str(d)).to_pandas()
        assert sorted(df.columns) == ["x", "y"]
        assert len(df) == 2

    def test_ragged_counted_and_skipped(self, ray_session, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b,c\n1,2,3\n4,5\n6,7,8\n9,10,11,12\n13,14,15\n")
        ds, ragged = RD.read_csv(str(p), count_ragged=True)
        df = ds.to_pandas()
        assert len(df) + int(ragged) == 5
        assert int(ragged) >= 1  # the 4-field row is unreconcilable

    def test_json_array_autodetect(self, ray_session, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text('[{"a": 1}, {"a": 2}, {"a": 3}]')
        df = RD.read_jsonl(str(p)).dataset.to_pandas()
        assert df["a"].tolist() == [1, 2, 3]

    def test_stray_array_line_falls_back_to_lines(self, ray_session, tmp_path):
        p = tmp_path / "mixed.jsonl"
        p.write_text('[1, 2]\n{"a": 1}\n{"a": 2}\n')
        res = RD.read_jsonl(str(p), policy="skip")
        df = res.dataset.to_pandas()
        assert df["a"].tolist() == [1, 2]  # objects survive the stray array line


class TestDbIntrospection:
    def test_connection_ok_and_fail(self, ray_session, tmp_path):
        f = TestReadSql._factory(self, tmp_path)
        assert RD.test_connection(f) is True

        def broken():
            raise ConnectionError("refused")

        assert RD.test_connection(broken) is False

    def test_count_and_schema(self, ray_session, tmp_path):
        f = TestReadSql._factory(self, tmp_path)
        assert RD.count_table_rows("t", f) == 1000
        schema = RD.get_table_schema("t", f)
        assert [name for name, _t in schema] == ["id", "v"]
        # declared types actually delivered (PRAGMA path; the zero-row
        # SELECT trick returns None for every sqlite type — review r2)
        assert [t for _n, t in schema] == ["INTEGER", "REAL"]

    def test_table_name_validated(self, tmp_path):
        f = TestReadSql._factory(self, tmp_path)
        with pytest.raises(ValueError, match="invalid table name"):
            RD.count_table_rows("t; DROP TABLE t", f)


class TestAsyncDB:
    """Async connector facade parity (reference __init__.py:59-99):
    coroutines offload blocking DBAPI/Ray work so N database operations
    overlap on one event loop."""

    @staticmethod
    def _factory(tmp_path):
        import sqlite3

        db = str(tmp_path / "a.db")
        con = sqlite3.connect(db)
        con.execute("CREATE TABLE IF NOT EXISTS t (id INTEGER, v REAL)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        [(i, i * 0.5) for i in range(200)])
        con.commit()
        con.close()
        return lambda: __import__("sqlite3").connect(db)

    def test_connection_count_schema(self, tmp_path):
        import asyncio

        f = self._factory(tmp_path)

        async def go():
            ok, n, schema = await asyncio.gather(
                RD.test_connection_async(f),
                RD.count_table_rows_async(f, "t"),
                RD.get_table_schema_async(f, "t"),
            )
            return ok, n, schema

        ok, n, schema = asyncio.run(go())
        assert ok is True and n == 200
        assert schema == {"id": "INTEGER", "v": "REAL"}

    def test_connection_false_on_failure(self, tmp_path):
        import asyncio

        def bad():
            raise ConnectionError("no route to host")

        assert asyncio.run(RD.test_connection_async(bad)) is False

    def test_identifier_validation(self, tmp_path):
        import asyncio

        f = self._factory(tmp_path)
        with pytest.raises(ValueError, match="identifier"):
            asyncio.run(RD.count_table_rows_async(f, "t; DROP TABLE t"))

    def test_analyze_database_async(self, ray_session, tmp_path):
        import asyncio

        f = self._factory(tmp_path)
        report = asyncio.run(RD.analyze_database_async(
            f, "SELECT * FROM t", calculate_quality=True))
        cols = {c.name for c in report.column_profiles}
        assert cols == {"id", "v"}
        assert report.rows == 200
        assert report.quality is not None
