"""Flagship pipeline parity: Ray quality-filter vs single-process oracle on
the deterministic synthetic corpus (FIXTURES.md F1 / BASELINE.md gates:
byte-identical extracted text per url, keep/drop F1 >= 0.99)."""

import numpy as np
import pyarrow as pa
import pytest

from dataprof_ray.functions import docquality as DQ
from dataprof_ray.pipelines import quality_filter as QF
from dataprof_ray.sources.corpus import generate_corpus, write_corpus_parquet


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    return generate_corpus(1500)


@pytest.fixture(scope="module")
def oracle_out(corpus) -> pa.Table:
    return QF.oracle_filter(corpus)


class TestExtraction:
    def test_extract_strips_tags_deterministically(self):
        html = b"<html><head><script>x=1</script></head><body><p>Hello  world</p><p>Bye</p></body></html>"
        out = DQ.extract_text(html)
        assert out == "Hello world\n\nBye"  # paragraph boundary = blank line
        assert DQ.extract_text(html) == out  # stable

    def test_extract_entities_and_empty(self):
        assert DQ.extract_text(b"<p>a &amp; b</p>") == "a & b"
        assert DQ.extract_text(b"") == ""
        assert DQ.extract_text(None) == ""

    def test_extraction_version_pinned(self):
        assert DQ.EXTRACTION_VERSION == "1.0"


class TestDocMetrics:
    def test_basic_counts(self):
        m = DQ.doc_metrics("the cat sat on the mat")
        assert m.n_words == 6
        assert m.stopword_count == 3  # the, on, the
        assert m.alpha_word_ratio == 1.0

    def test_repetition(self):
        m = DQ.doc_metrics("line one\nline one\nline one\nother")
        assert m.duplicate_line_frac == pytest.approx(2 / 4)

    def test_rules_first_failure_wins(self):
        cfg = DQ.FilterConfig()
        m = DQ.doc_metrics("short text")
        keep, reason = DQ.evaluate_rules(m, "en", 0.5, 10.0, cfg)
        assert not keep and reason == "too_short"

    def test_keep_path(self):
        cfg = DQ.FilterConfig()
        text = " ".join(["the data stream reads records and computes statistics"] * 12)
        # vary words so no bigram dominates
        words = ("the quick brown fox jumps over a lazy dog while the data engine "
                 "reads every record and computes exact statistics for the table "
                 "and writes results to storage with bounded memory and stable "
                 "output that remains correct under load ".split())
        text = " ".join(words * 3)
        m = DQ.doc_metrics(text)
        keep, reason = DQ.evaluate_rules(m, "en", 0.5, 10.0, cfg)
        assert keep, reason

    def test_perplexity_gates_english_only(self):
        cfg = DQ.FilterConfig()
        words = " ".join(["der die das und in den von zu mit sich auf für ist ein"] * 10)
        m = DQ.doc_metrics(words, "de")
        keep, _ = DQ.evaluate_rules(m, "de", 0.9, 99.0, cfg)
        assert keep  # high ppl ignored for non-en
        keep, reason = DQ.evaluate_rules(m, "en", 0.9, 99.0, cfg)
        assert not keep and reason == "perplexity"

    def test_langid(self):
        model = DQ.LangIdModel()
        assert model.predict("the cat is on the table and it is happy")[0] == "en"
        assert model.predict("der hund ist in den garten und die katze auch")[0] == "de"
        assert model.predict("")[0] == "und"

    def test_trigram_lm_orders_naturalness(self):
        lm = DQ.TrigramLM()
        natural = lm.perplexity("the data stream reads records and computes statistics")
        junk = lm.perplexity("zx qj wv kx zq jx vq xz jq zv")
        assert natural < junk

    def test_quality_score_range(self):
        cfg = DQ.FilterConfig()
        m = DQ.doc_metrics("the data engine reads records " * 20)
        s = DQ.quality_score(m, 0.5, 8.0, cfg)
        assert 0.0 <= s <= 100.0


class TestPipelineParity:
    def test_ray_matches_oracle_bytes(self, ray_session, corpus, oracle_out, tmp_path_factory):
        import ray.data as rd

        ds = rd.from_arrow(corpus).repartition(6)
        out = QF.run_quality_filter(ds)
        result = out.to_pandas().sort_values("url").reset_index(drop=True)
        expected = oracle_out.to_pandas().sort_values("url").reset_index(drop=True)

        assert len(result) == len(expected)
        # byte-identical extraction + scrub per url
        assert (result["extracted_text"] == expected["extracted_text"]).all()
        assert (result["scrubbed_text"] == expected["scrubbed_text"]).all()
        # keep/drop F1: identical code + deterministic kernels -> exact match
        assert (result["keep"] == expected["keep"]).all()
        assert (result["drop_reason"] == expected["drop_reason"]).all()
        np.testing.assert_allclose(result["perplexity"], expected["perplexity"], rtol=1e-12)

    def test_extraction_path_exercised(self, oracle_out, corpus):
        df = oracle_out.to_pandas()
        src = corpus.to_pandas()
        html_rows = src["text"] == ""
        assert html_rows.any()
        assert (df.loc[html_rows.values, "extracted_text"].str.len() > 0).all()

    def test_scrubbed_keeps_have_no_valid_pii(self, oracle_out):
        df = oracle_out.to_pandas()
        kept = df[df.keep]
        assert (kept.pii_replacements > 0).any()
        import re

        email = re.compile(r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}")
        assert not kept.scrubbed_text.str.contains(email).any()

    def test_drop_reasons_diverse(self, oracle_out):
        reasons = set(oracle_out.to_pandas().drop_reason.unique())
        assert {"too_short", "repetition_lines", "boilerplate", "symbol_ratio"} <= reasons

    def test_output_schema(self, oracle_out):
        assert oracle_out.schema.equals(QF.OUTPUT_SCHEMA)


class TestDomainRollup:
    def test_rollup_matches_pandas(self, ray_session, corpus, oracle_out):
        import ray.data as rd

        filtered = rd.from_arrow(oracle_out).repartition(4)
        roll = QF.domain_rollup(filtered).set_index("domain")

        df = oracle_out.to_pandas()
        df["domain"] = df.url.map(QF._domain_of)
        truth = df.groupby("domain").agg(
            docs=("keep", "size"), kept=("keep", "sum"), words_sum=("n_words", "sum"),
        )
        assert len(roll) == len(truth)
        for dom in truth.index:
            assert roll.loc[dom, "docs"] == truth.loc[dom, "docs"]
            assert roll.loc[dom, "kept"] == truth.loc[dom, "kept"]
            assert roll.loc[dom, "words_sum"] == truth.loc[dom, "words_sum"]

    def test_zipf_skew_present(self, corpus):
        import pandas as pd

        domains = pd.Series([QF._domain_of(u) for u in corpus.column("url").to_pylist()])
        top_share = domains.value_counts().iloc[0] / len(domains)
        assert top_share > 0.15  # head domain holds ~20%


def test_corpus_writer_roundtrip(tmp_path):
    path = write_corpus_parquet(str(tmp_path / "corpus"), 200, shards=4)
    import pyarrow.parquet as pq

    ds = pq.ParquetDataset(path)
    table = ds.read()
    assert table.num_rows == 200
    # determinism: same seed -> same bytes
    t2 = generate_corpus(200)
    assert table.column("text").to_pylist() == t2.column("text").to_pylist()


class TestToxicity:
    def test_scan_masks_and_counts(self):
        from dataprof_ray.functions.patterns import toxicity_scan

        c, m = toxicity_scan("clean text with BadWord and expletive inside")
        assert c == 2
        assert "<TOXIC>" in m and "BadWord" not in m

    def test_word_boundaries(self):
        from dataprof_ray.functions.patterns import toxicity_scan

        c, m = toxicity_scan("notbadwordhere stays")  # substring, no hit
        assert c == 0 and m == "notbadwordhere stays"

    def test_stage_only_rewrites_kept_docs(self, ray_session, corpus):
        import ray.data as rd

        from dataprof_ray.pipelines import quality_filter as QF

        filtered = QF.run_quality_filter(rd.from_arrow(corpus))
        out = QF.scrub_toxicity(filtered).to_pandas()
        assert "toxicity_hits" in out.columns
        dropped = out[~out.keep]
        assert (dropped.scrubbed_text == "").all()  # untouched


class TestUrlDedup:
    def test_canonicalize_variants_collapse(self):
        from dataprof_ray.pipelines.quality_filter import canonicalize_url

        variants = [
            "https://www.example.com/page/?utm_source=tw&id=3#sec",
            "HTTPS://EXAMPLE.COM:443/page?id=3",
            "https://example.com/page/?id=3&fbclid=xyz",
        ]
        forms = {canonicalize_url(u) for u in variants}
        assert forms == {"https://example.com/page?id=3"}
        # distinct pages stay distinct
        assert canonicalize_url("https://example.com/page?id=4") not in forms
        # non-default port and param order preserved; http folds to https
        assert canonicalize_url("http://a.com:8080/x?b=2&a=1") == \
            "https://a.com:8080/x?a=1&b=2"
        # scheme variants of one page collapse; malformed input is total
        assert canonicalize_url("http://a.com/x") == \
            canonicalize_url("https://a.com/x")
        assert canonicalize_url("https://e.com:99x/p") == "https://e.com:99x/p"
        assert canonicalize_url("https://[::1]:8080/x") == "https://[::1]:8080/x"

    def test_url_dedup_keeps_smallest_id(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from dataprof_ray.pipelines.quality_filter import url_dedup

        t = pa.table({
            "doc_id": pa.array([5, 1, 3, 7], pa.int64()),
            "url": pa.array([
                "https://www.site.com/a?utm_source=x",
                "https://site.com/a",
                "http://other.org/b",
                "HTTP://OTHER.ORG/b#top",
            ]),
        })
        out = (url_dedup(rd.from_arrow(t).repartition(2)).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        assert sorted(out["doc_id"]) == [1, 3]
        assert "canonical_url" in out.columns


def test_doc_metrics_batch_parity():
    """The batched metric kernels (Arrow/RE2 scans) must be VALUE-IDENTICAL
    to the per-doc python path over adversarial unicode: every python-\\s
    whitespace char (incl. \\x1c-\\x1f, NEL, NBSP, Zl/Zp), non-decimal
    numerics, combining marks, turkish dotted-I casing."""
    from dataprof_ray.functions import docquality as DQ

    cases = [
        "", "   ", None, "hello world", "x\x1cy", "tab\tsep",
        "nel\x85nel", "a b", "a b", "a b", "a　b",
        "a​b", "x\x0by\x0cz", "İstanbul DİŞ",
        "café combining", "Ⅰ Ⅱ ½",  # Nl/No tokens
        "digits 123 _under_ #sym$", "Émile café naïve",
        "- bullet\n- bullet\n\nline...\nline...\nline\nline",
        "dup\ndup\ndup", "the the the the", "日本語 テスト 文章",
        "cookie policy ACCEPT ALL COOKIES now", "\x1c\x1d\x1e\x1f",
        "a" * 3000,
    ]
    langs = ["en", "fr", "de", "es", "it"] * 5
    batch = DQ.doc_metrics_batch(cases, langs)
    for i, t in enumerate(cases):
        assert DQ.doc_metrics(t or "", langs[i]) == batch[i], repr(t)


def test_langid_and_perplexity_batch_parity():
    from dataprof_ray.functions import docquality as DQ

    texts = [
        "", None, "123 456", "_ _ _", "le la les et je suis",
        "der und die das ist nicht", "THE AND OF A IN TO",
        "el la los de y en un", "il la di e in un che",
        "xyzzy plugh qwop", "Ⅰ Ⅱ ½ the of",
        "ab", "abc", "the quick brown fox jumps over the lazy dog",
    ]
    m = DQ.LangIdModel()
    langs_b, confs_b = m.predict_batch(texts)
    for i, t in enumerate(texts):
        l, c = m.predict(t or "")
        assert l == langs_b[i] and abs(c - confs_b[i]) < 1e-15, repr(t)
    lm = DQ.TrigramLM()
    import numpy as np
    got = lm.perplexity_batch(texts)
    want = np.array([lm.perplexity(t or "") for t in texts])
    assert (got == want).all()  # bit-identical, not just close


def test_jobs_cli_resumable(ray_session, tmp_path):
    """The `ray job submit` entry point (python -m dataprof_ray.jobs):
    first run processes every shard, identical rerun skips all of them
    (lineage manifest resume); never inits/kills Ray when a session
    exists."""
    import ray

    from dataprof_ray import jobs
    from dataprof_ray.sources.corpus import write_corpus_parquet

    corpus = write_corpus_parquet(str(tmp_path / "in"), 200, shards=2)
    out = str(tmp_path / "out")
    s1 = jobs.main(["--input", corpus, "--output", out])
    assert s1["shards_processed"] == 2 and s1["shards_skipped"] == 0
    assert ray.is_initialized()  # did not tear down the session it found
    s2 = jobs.main(["--input", corpus, "--output", out])
    assert s2["shards_processed"] == 0 and s2["shards_skipped"] == 2
    import pytest
    with pytest.raises(SystemExit):
        jobs.main(["--input", str(tmp_path), "--output", out])


def test_jobs_main_one_execution_routes_shards(ray_session, tmp_path,
                                              monkeypatch):
    """One jobs.main call runs every pending shard as ONE Ray Data
    execution with no shuffle, and the partitioned write routes each row
    back to its own shard: every output directory holds exactly its input
    shard's urls, each once, in files of exactly OUTPUT_SCHEMA. Each shard
    reads as several blocks, so several filter tasks write into every
    directory; a zero-row shard in the same execution gets its typed
    empty file."""
    import os
    from collections import Counter

    import pyarrow.parquet as pq
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from dataprof_ray import jobs
    from dataprof_ray.state.lineage import LineageManifest

    corpus = write_corpus_parquet(str(tmp_path / "in"), 900, shards=3)
    pq.write_table(generate_corpus(5, seed=1).slice(0, 0),
                   os.path.join(corpus, "shard_99999.parquet"))
    executions = []
    orig = StreamingExecutor.execute

    def counted(executor, dag, *args, **kwargs):
        executions.append(dag)
        return orig(executor, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    stats = jobs.main(["--input", corpus, "--output", str(tmp_path / "out")])
    assert stats["shards_processed"] == 4
    assert len(executions) == 1
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator)
    stack = [executions[0]]
    while stack:
        op = stack.pop()
        assert not isinstance(op, AllToAllOperator), op.name
        stack.extend(op.input_dependencies)

    recs = LineageManifest(stats["manifest"]).records
    assert len(recs) == 4
    for shard_id, rec in recs.items():
        want = pq.read_table(os.path.join(corpus, shard_id),
                             columns=["url"]).column("url").to_pylist()
        files = os.listdir(rec.output_dir)
        got = pq.read_table(rec.output_dir)
        assert got.schema.equals(QF.OUTPUT_SCHEMA)
        assert Counter(got.column("url").to_pylist()) == Counter(want)
        assert len(set(want)) == len(want) == rec.rows
        if want:
            assert len(files) > 1, files  # several blocks, several tasks
    assert recs["shard_99999.parquet"].rows == 0


def test_jobs_cli_standalone_subprocess(tmp_path):
    """Review fix: with no Ray session and RAY_ADDRESS unset, the CLI must
    START a local session (address=None), not crash on address='auto'.
    Runs in a subprocess so the test session's Ray is not involved."""
    import json
    import os
    import subprocess
    import sys

    from dataprof_ray.sources.corpus import write_corpus_parquet

    corpus = write_corpus_parquet(str(tmp_path / "in"), 60, shards=1)
    out = str(tmp_path / "out")
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["RAY_NUM_CPUS"] = "2"
    proc = subprocess.run(
        [sys.executable, "-m", "dataprof_ray.jobs", "--input", corpus,
         "--output", out],
        capture_output=True, text=True, env=env, timeout=240,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["shards_processed"] == 1


_ONE_CPU_JOB = """
import json, os, sys
import pyarrow.parquet as pq
import ray
from dataprof_ray import jobs
from dataprof_ray.state.lineage import LineageManifest

ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
corpus, out = sys.argv[1], sys.argv[2]
stats = jobs.main(["--input", corpus, "--output", out])
recs = LineageManifest(stats["manifest"]).records.values()
got = {r.shard_id: [r.rows, r.kept] for r in recs}
want = {}
for r in recs:
    keep = pq.read_table(r.output_dir, columns=["keep"]).column("keep")
    want[r.shard_id] = [len(keep), sum(keep.to_pylist())]
ray.shutdown()
print(json.dumps({"stats": stats, "got": got, "want": want}))
"""


def test_jobs_main_on_one_cpu_session(tmp_path):
    """The job finishes on a 1-CPU Ray session (the filter holds no CPU
    between batches), and each manifest record's rows/kept equal a
    pyarrow re-read of that shard's output. Runs in its own process
    group, killed whole on timeout."""
    import json
    import os
    import signal
    import subprocess
    import sys

    corpus = write_corpus_parquet(str(tmp_path / "in"), 2000, shards=2)
    out = str(tmp_path / "out")
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_JOB, corpus, out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        stdout, stderr = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("jobs.main did not finish on a 1-CPU session in 180 s")
    assert proc.returncode == 0, stderr[-2000:]
    res = json.loads(stdout.strip().splitlines()[-1])
    assert res["stats"]["shards_processed"] == 2
    assert len(res["got"]) == 2 and res["got"] == res["want"]
    assert all(0 < kept < rows for rows, kept in res["got"].values())
