"""argmax_by / repetition_stats / contamination_check unit coverage."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from dataprof_ray.pipelines.aggregate import argmax_by
from dataprof_ray.pipelines.decontam import (benchmark_ngram_set,
                                             contamination_check)
from dataprof_ray.pipelines.textstats import repetition_stats


def _ds(table: pa.Table, parts: int = 3):
    import ray.data as rd

    return rd.from_arrow(table).repartition(parts)


def test_argmax_latest_per_key(ray_session):
    n = 2000
    rng = np.random.default_rng(7)
    t = pa.table({
        "k": pa.array(rng.integers(0, 50, n)),
        "ts": pa.array(rng.integers(0, 10_000, n)),
        "id": pa.array(np.arange(n)),
    })
    out = argmax_by(_ds(t, 5), keys=["k"], order_cols=["ts", "id"])
    df = t.to_pandas()
    want = (df.sort_values(["ts", "id"]).groupby("k").tail(1)
            .sort_values("k").reset_index(drop=True))
    got = out[["k", "ts", "id"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want[["k", "ts", "id"]],
                                  check_dtype=False)


def test_argmax_min_side(ray_session):
    t = pa.table({"k": [1, 1, 2], "v": [5, 3, 9], "id": [0, 1, 2]})
    out = argmax_by(_ds(t, 2), keys=["k"], order_cols=["v", "id"],
                    descending=False)
    assert out.set_index("k")["v"].to_dict() == {1: 3, 2: 9}


def test_argmax_tie_breaks_on_last_order_col(ray_session):
    t = pa.table({"k": [1, 1], "v": [7, 7], "id": [10, 20]})
    out = argmax_by(_ds(t, 2), keys=["k"], order_cols=["v", "id"])
    assert out["id"].tolist() == [20]


def test_repetition_stats_values(ray_session):
    t = pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["a b a b a", "x y z", "", "solo"],
    })
    out = (repetition_stats(_ds(t, 2)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["n_words"].tolist() == [5, 3, 0, 1]
    # doc0: 5 tokens, 2 distinct -> 1 - 2/5 = 0.6
    assert out["dup_word_frac"].tolist() == [0.6, 0.0, 0.0, 0.0]
    # doc0 bigrams: ab,ba,ab,ba -> max 2 of 4 = 0.5; doc1: 2 distinct
    # bigrams -> 1/2; docs with <2 words 0.0
    assert out["top_bigram_frac"].tolist() == [0.5, 0.5, 0.0, 0.0]


def test_contamination_planted_overlap(ray_session):
    bench_text = "w1 w2 w3 w4 w5 w6 w7 w8 w9"
    corpus = pa.table({
        "doc_id": [0, 1, 2],
        "text": [
            bench_text,                      # identical -> frac 1.0
            "z " + bench_text,               # 3 grams, 2 contaminated
            "a b c d e f g h i j",           # disjoint
        ],
    })
    bench = benchmark_ngram_set(_ds(pa.table({"text": [bench_text]}), 1), n=8)
    assert len(bench) == 2
    out = contamination_check(_ds(corpus, 2), bench, n=8,
                              as_dataset=False)
    assert out["n_grams"].tolist() == [2, 3, 3]
    assert out["n_contaminated"].tolist() == [2, 2, 0]
    assert out["contam_frac"].tolist() == [1.0, 0.6667, 0.0]


def test_contamination_short_doc_zero(ray_session):
    corpus = pa.table({"doc_id": [0], "text": ["too short"]})
    out = contamination_check(_ds(corpus, 1), frozenset({"x"}), n=8,
                              as_dataset=False)
    assert out.iloc[0][["n_grams", "n_contaminated", "contam_frac"]].tolist() \
        == [0, 0, 0.0]


def test_duplicate_span_stats_planted(ray_session):
    from dataprof_ray.pipelines.dedup import duplicate_span_stats

    shared = "s1 s2 s3 s4 s5"
    t = pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": [
            f"a b {shared} c d",        # shares the 5-gram with doc 1
            f"x y z {shared}",
            "entirely different words here now ok",
            "tiny",                      # shorter than n -> 0 grams
        ],
    })
    out = duplicate_span_stats(_ds(t, 2), n=5, as_dataset=False)
    # doc0: 9 toks -> 5 positions; exactly one (the shared span) duplicated
    assert out["n_grams"].tolist() == [5, 4, 2, 0]
    assert out["n_dup_positions"].tolist() == [1, 1, 0, 0]
    assert out["dup_span_frac"].tolist() == [0.2, 0.25, 0.0, 0.0]


def test_duplicate_span_stats_within_doc_repeat_not_cross(ray_session):
    """A span repeated only WITHIN one doc is not a cross-doc duplicate."""
    from dataprof_ray.pipelines.dedup import duplicate_span_stats

    t = pa.table({
        "doc_id": [0, 1],
        "text": ["p q r p q r p q", "different tokens entirely here"],
    })
    out = duplicate_span_stats(_ds(t, 1), n=3, as_dataset=False)
    assert out["n_dup_positions"].tolist() == [0, 0]


def test_pivot_counts(ray_session):
    from dataprof_ray.pipelines.aggregate import pivot_counts

    t = pa.table({
        "g": ["a", "a", "b", "b", "b", "a"],
        "p": ["x", "y", "x", None, "z", "x"],
    })
    out = pivot_counts(_ds(t, 2), ["g"], "p", ["x", "y"])
    out = out.set_index("g")
    # NULL and unlisted ("z") pivot values count toward no column
    assert out.loc["a", ["x", "y"]].tolist() == [2, 1]
    assert out.loc["b", ["x", "y"]].tolist() == [1, 0]
    with pytest.raises(ValueError, match="duplicate"):
        pivot_counts(_ds(t, 1), ["g"], "p", ["x", "x"])


def test_topk_per_group_matches_pandas(ray_session):
    from dataprof_ray.pipelines.aggregate import topk_per_group

    rng = np.random.default_rng(13)
    n = 1500
    t = pa.table({
        "g": pa.array(rng.integers(0, 30, n)),
        "v": pa.array(rng.integers(0, 10_000, n)),
        "id": pa.array(np.arange(n)),
    })
    out = topk_per_group(_ds(t, 4), keys=["g"], order_cols=["v", "id"], k=5)
    df = t.to_pandas()
    want = (df.sort_values(["v", "id"], ascending=False)
            .groupby("g").head(5)
            .sort_values(["g", "v", "id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), want, check_dtype=False)
    import pytest as _pt
    with _pt.raises(ValueError, match="k must be"):
        topk_per_group(_ds(t, 1), keys=["g"], order_cols=["v"], k=0)


def test_cumulative_window_matches_pandas(ray_session):
    from dataprof_ray.pipelines.window import cumulative_window

    rng = np.random.default_rng(21)
    n = 1200
    base = np.datetime64("2025-02-01", "us")
    t = pa.table({
        "k": pa.array(rng.integers(0, 25, n)),
        "ts": pa.array(base + rng.integers(0, 10**9, n)
                       .astype("timedelta64[us]"), pa.timestamp("us")),
        "id": pa.array(np.arange(n)),
        "cents": pa.array(rng.integers(-100, 100, n), pa.int64()),
    })
    out = (cumulative_window(_ds(t, 4), "ts", "k",
                             value_cents_col="cents", order_extra=["id"])
           .to_pandas().sort_values(["k", "ts", "id"])
           .reset_index(drop=True))
    df = (t.to_pandas().sort_values(["k", "ts", "id"], kind="stable")
          .reset_index(drop=True))
    g = df.groupby("k", sort=False)
    df["r_cnt"] = g.cumcount() + 1
    df["r_sum_cents"] = g["cents"].cumsum()
    pd.testing.assert_frame_equal(out, df, check_dtype=False)


class TestGopherSignals:
    def test_empty_and_null_text(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines import textstats as TS

        t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array([None, "", "   \n  "], pa.string())})
        out = TS.gopher_signals(rd.from_arrow(t)).to_pandas()
        assert (out.n_words == 0).all()
        assert (out.mean_word_len == 0.0).all()
        assert (out.has_boilerplate == 0).all()

    def test_boilerplate_and_bullets(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines import textstats as TS

        txt = "- first bullet\nAccept ALL Cookies now.\nplain line here..."
        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array([txt], pa.string())})
        out = TS.gopher_signals(rd.from_arrow(t)).to_pandas().iloc[0]
        assert out.has_boilerplate == 1
        assert out.bullet_line_frac == round(1 / 3, 4)
        assert out.ellipsis_line_frac == round(1 / 3, 4)


class TestHashSplit:
    def test_fractions_and_determinism(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines.sampling import hash_split

        ids = pa.table({"doc_id": pa.array(range(20000), pa.int64())})
        out = hash_split(rd.from_arrow(ids, override_num_blocks=4)).to_pandas()
        frac = out.split.value_counts(normalize=True)
        assert abs(frac["train"] - 0.9) < 0.02
        assert abs(frac["val"] - 0.05) < 0.01
        assert abs(frac["test"] - 0.05) < 0.01
        # pure function of the id: a different partitioning agrees row-for-row
        out2 = hash_split(rd.from_arrow(ids, override_num_blocks=13)).to_pandas()
        m = out.merge(out2, on="doc_id")
        assert (m.split_x == m.split_y).all()

    def test_boundaries_exact(self):
        from dataprof_ray.pipelines.sampling import split_boundaries

        b = dict(split_boundaries({"train": 0.5, "rest": 0.5}))
        assert b["train"] == "8" + "0" * 31
        assert b["rest"] == "g" * 32

    def test_partial_fractions_rejected(self):
        """Fractions that don't cover the unit interval would leave rows
        with NO split (a StopIteration crash before validation existed)."""
        from dataprof_ray.pipelines.sampling import split_boundaries

        with pytest.raises(ValueError):
            split_boundaries({"sample": 0.1})
        with pytest.raises(ValueError):
            split_boundaries({"a": 0.5, "b": 0.4})
        # 1/3 snapping slack is tolerated and still gets a catch-all
        b = split_boundaries({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})
        assert b[-1][1] == "g" * 32


class TestC4LineStats:
    def test_categorization_partitions_lines(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines.linededup import c4_line_stats

        txt = ("\n"                                  # blank
               "too short.\n"                        # short (<5 words)
               "this line has five words\n"          # no terminal punct
               "this good line has five words.\n"    # kept
               'a quoted keeper with five words?"')  # kept
        t = pa.table({"doc_id": pa.array([7], pa.int64()),
                      "text": pa.array([txt], pa.string())})
        out = c4_line_stats(rd.from_arrow(t)).to_pandas().iloc[0]
        assert out.n_lines == 5
        assert (out.n_blank, out.n_short, out.n_nopunct, out.n_kept) == (1, 1, 1, 2)
        assert out.n_blank + out.n_short + out.n_nopunct + out.n_kept == out.n_lines
        assert out.has_brace == 0 and out.has_lorem == 0

    def test_doc_flags(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines.linededup import c4_line_stats

        t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "text": pa.array(["int main() {\nreturn 0;\n}",
                                        "Lorem Ipsum dolor sit amet."],
                                       pa.string())})
        out = c4_line_stats(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
        assert out.has_brace.tolist() == [1, 0]
        assert out.has_lorem.tolist() == [0, 1]


class TestUrlFeatures:
    def test_registrable_domain_rules(self):
        from dataprof_ray.pipelines.quality_filter import registrable_domain

        assert registrable_domain("www.example.com") == "example.com"
        assert registrable_domain("a.b.example.co.uk") == "example.co.uk"
        assert registrable_domain("EXAMPLE.COM") == "example.com"
        assert registrable_domain("localhost") == "localhost"
        assert registrable_domain("10.0.0.1") == "10.0.0.1"

    def test_feature_extraction(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines.quality_filter import url_features

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "url": pa.array([
                "https://www.site.co.uk/a/b?x=1&y=2",
                "http://host.org/",
                None,
            ], pa.string()),
        })
        out = url_features(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
        assert out.domain.tolist() == ["site.co.uk", "host.org", ""]
        assert out.host.tolist() == ["www.site.co.uk", "host.org", ""]
        assert out.path_depth.tolist() == [2, 0, 0]
        assert out.n_query_params.tolist() == [2, 0, 0]
        assert out.is_https.tolist() == [1, 0, 0]

    def test_port_and_userinfo_stripped(self, ray_session):
        """netloc carries port/userinfo; host/domain must come from
        hostname or the eTLD+1 lookup breaks and credentials leak."""
        import ray.data as rd

        from dataprof_ray.pipelines.quality_filter import url_features

        t = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "url": pa.array([
                "https://sub.example.co.uk:443/a",
                "https://user:pw@example.com/x",
            ], pa.string()),
        })
        out = url_features(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
        assert out.host.tolist() == ["sub.example.co.uk", "example.com"]
        assert out.domain.tolist() == ["example.co.uk", "example.com"]


class TestTfidf:
    def test_scores_and_vocab_bound(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines.textstats import tfidf_top_terms

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["apple apple banana", "banana cherry",
                              "cherry cherry cherry dates"], pa.string()),
        })
        out = tfidf_top_terms(rd.from_arrow(t), k=1, vocab_size=2)
        out = out.to_pandas().sort_values("doc_id")
        # vocab = 2 most-frequent-by-df terms: banana (2 docs), cherry (2)
        # doc 1 only contains banana from the vocab; doc 3 cherry x3
        assert out[out.doc_id == 1].term.tolist() == ["banana"]
        assert out[out.doc_id == 3].term.tolist() == ["cherry"]
        assert (out[out.doc_id == 3].tf == 3).all()


class TestKeySkew:
    def test_hot_key_and_totals(self, ray_session):
        from dataprof_ray.pipelines.aggregate import key_skew_stats

        t = pa.table({"k": pa.array([7] * 50 + list(range(100)), pa.int64())})
        out = key_skew_stats(_ds(t, 4), ["k"], top_n=3)
        assert out.iloc[0].k == 7 and out.iloc[0].cnt == 51
        assert out.iloc[0]["rank"] == 1
        assert out.attrs["total_rows"] == 150
        assert out.attrs["distinct_keys"] == 100
        assert abs(out.iloc[0].share - round(51 / 150, 6)) < 1e-12
        none = key_skew_stats(_ds(t, 4), ["k"], top_n=0)
        assert len(none) == 0
        assert none.attrs == {"total_rows": 150, "distinct_keys": 100}


class TestNormalizeText:
    def test_matches_duckdb_on_unicode(self, ray_session):
        """The python NFC/strip-accents/lower/ws composition must equal the
        DuckDB oracle composition on non-ASCII too (the corpus is ASCII, so
        the driver gate alone wouldn't catch a divergence here)."""
        import duckdb
        import ray.data as rd

        from dataprof_ray.pipelines.textstats import normalize_text

        texts = ["Café  NAÏVE\n\ttext", "école", "Ğö  ûber",
                 "  plain ascii  ", "", None,
                 # non-ASCII whitespace: NBSP, thin space,
                 # ideographic space, NEL — python \\s vs RE2 class
                 "a\xa0b", "c\u2009d", "e\u3000f", "g\x85h"]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        out = normalize_text(rd.from_arrow(t)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("docs", t.to_pandas())
        want = con.execute(
            "SELECT doc_id, TRIM(REGEXP_REPLACE(LOWER(STRIP_ACCENTS("
            "NFC_NORMALIZE(COALESCE(text, '')))), '[\\t-\\r\\x1c-\\x1f\\x85\\p{Z}]+', ' ', 'g'), ' ') "
            "AS norm_text FROM docs ORDER BY doc_id").df()
        assert out.norm_text.tolist() == want.norm_text.tolist()
        assert out.norm_text[0] == "cafe naive text"
        assert out.norm_text[1] == "ecole"  # NFC-composes then strips
        assert out.norm_text[6] == "a b"    # NBSP collapsed on BOTH sides
        assert out.changed.tolist() == [1, 1, 1, 1, 0, 0, 1, 1, 1, 1]

    def test_toggles(self, ray_session):
        import ray.data as rd

        from dataprof_ray.pipelines.textstats import normalize_text

        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["A  B"], pa.string())})
        keep_case = normalize_text(rd.from_arrow(t), lowercase=False) \
            .to_pandas().norm_text[0]
        assert keep_case == "A B"
        keep_ws = normalize_text(rd.from_arrow(t), collapse_ws=False) \
            .to_pandas().norm_text[0]
        assert keep_ws == "a  b"


class TestWeightedSourceSample:
    def test_rates_and_determinism(self, ray_session):
        from dataprof_ray.pipelines.sampling import weighted_source_sample

        n = 10000
        t = pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "source": pa.array(["a" if i % 2 == 0 else "b" for i in range(n)],
                               pa.string()),
        })
        out = weighted_source_sample(_ds(t, 4), {"a": 1.0, "b": 0.25}) \
            .to_pandas()
        a = out[out.source == "a"]
        b = out[out.source == "b"]
        assert len(a) == n // 2                      # rate 1.0 keeps all
        assert abs(len(b) / (n // 2) - 0.25) < 0.03  # ~25% of source b
        # pure function of (id, rate): other partitioning agrees exactly
        out2 = weighted_source_sample(_ds(t, 9), {"a": 1.0, "b": 0.25}) \
            .to_pandas()
        assert sorted(out.doc_id) == sorted(out2.doc_id)

    def test_default_rate_zero_drops_unknown(self, ray_session):
        from dataprof_ray.pipelines.sampling import weighted_source_sample

        t = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                      "source": pa.array(["x"] * 100, pa.string())})
        out = weighted_source_sample(_ds(t, 2), {"a": 1.0}).to_pandas()
        assert len(out) == 0


class TestNormalizedDedup:
    def test_merges_case_space_accent_variants(self, ray_session):
        from dataprof_ray.pipelines.dedup import normalized_dedup

        t = pa.table({
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(["Hello  World", "hello world", "héllo wörld",
                              "different", "HELLO\tWORLD\n"], pa.string()),
        })
        out = normalized_dedup(_ds(t, 3)).to_pandas().sort_values("doc_id")
        assert out.doc_id.tolist() == [1, 4]   # smallest id per norm form
        assert "__norm" not in out.columns
        assert out.text.tolist() == ["Hello  World", "different"]


def test_key_skew_null_bearing_batches(ray_session):
    """A null int key in SOME batches must not split a key's counts: the
    old pandas roundtrip laundered those batches to float64 and the
    dtype-sensitive partition hash routed the same key to two partitions."""
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import key_skew_stats

    # block 0 has nulls alongside key 7; block 1 is null-free with key 7
    b0 = pa.table({"k": pa.array([7, None, 7, 1], pa.int64())})
    b1 = pa.table({"k": pa.array([7] * 5 + [2], pa.int64())})
    ds = rd.from_arrow(b0).union(rd.from_arrow(b1))
    out = key_skew_stats(ds, ["k"], top_n=5)
    top = out[out.k == 7]
    assert len(top) == 1 and top.iloc[0].cnt == 7  # never split
    assert out.attrs["total_rows"] == 10
    assert out.attrs["distinct_keys"] == 4  # 7, 1, 2, null


def test_group_distinct_nulls_and_partitioning(ray_session):
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import group_distinct

    t = pa.table({
        "g": pa.array(["a", "a", "a", "b", "b", "b"], pa.string()),
        "v": pa.array([1, 1, None, 2, 3, 2], pa.int64()),
    })
    out = group_distinct(_ds(t, 3), ["g"], "v").to_pandas().sort_values("g")
    # nulls excluded like COUNT(DISTINCT); duplicates collapse
    assert dict(zip(out.g, out.distinct_count)) == {"a": 1, "b": 2}


def test_group_distinct_null_and_large_int_keys(ray_session):
    """Null-bearing int64 keys must stay int64 (no pandas float64
    laundering): 2^53+1 and 2^53 are distinct keys, and nulls group."""
    import ray.data as rd

    from dataprof_ray.pipelines.aggregate import group_distinct

    big = 2 ** 53
    t = pa.table({
        "g": pa.array([big, big + 1, None, None], pa.int64()),
        "v": pa.array([1, 2, 3, 3], pa.int64()),
    })
    # consume as ARROW: Dataset.to_pandas would itself launder the
    # nullable int64 key to float64 and merge 2^53 with 2^53+1
    got = {}
    for b in group_distinct(_ds(t, 2), ["g"], "v") \
            .iter_batches(batch_format="pyarrow"):
        assert b.column("g").type == pa.int64()
        for g, c in zip(b.column("g").to_pylist(),
                        b.column("distinct_count").to_pylist()):
            got[g] = c
    assert got == {big: 1, big + 1: 1, None: 1}


def test_quantized_topk_empty_corpus(ray_session):
    import ray.data as rd

    from dataprof_ray.pipelines.similarity import (brute_force_topk,
                                                   quantize_embeddings,
                                                   quantized_topk)

    empty = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array([], pa.float64()), 8),
    })
    q = np.ones((2, 8))
    out = quantized_topk(quantize_embeddings(rd.from_arrow(empty)), q, k=3)
    assert len(out) == 0 and "query_id" in out.columns
    out2 = brute_force_topk(rd.from_arrow(empty), q, k=3)
    assert len(out2) == 0


def test_global_shuffle_is_stable_permutation(ray_session):
    import ray.data as rd

    from dataprof_ray.pipelines.sampling import global_shuffle

    ids = pa.table({"doc_id": pa.array(range(300), pa.int64())})
    out = (global_shuffle(rd.from_arrow(ids, override_num_blocks=4))
           .to_pandas())
    assert len(out) == 300
    assert set(out.columns) == {"doc_id", "shard", "pos"}
    # every shard's positions are exactly 0..n-1 (a permutation)
    for _, g in out.groupby("shard"):
        assert sorted(g["pos"]) == list(range(len(g)))
    # stable under repartitioning: pure function of the id
    out2 = (global_shuffle(rd.from_arrow(ids, override_num_blocks=11))
            .to_pandas())
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    # it is actually shuffled, not identity order
    s0 = out[out["shard"] == out["shard"].iloc[0]].sort_values("pos")
    assert list(s0["doc_id"]) != sorted(s0["doc_id"])


def test_global_shuffle_validates_hex_digits(ray_session):
    import pytest
    import ray.data as rd

    from dataprof_ray.pipelines.sampling import global_shuffle

    ids = pa.table({"doc_id": pa.array([1], pa.int64())})
    with pytest.raises(ValueError):
        global_shuffle(rd.from_arrow(ids), hex_digits=0)


def test_global_shuffle_supports_larger_shard_counts(ray_session):
    """Regression: hex_digits up to 4 (the documented API) must work; the
    subshard granularity clamps internally."""
    import ray.data as rd

    from dataprof_ray.pipelines.sampling import global_shuffle

    ids = pa.table({"doc_id": pa.array(range(400), pa.int64())})
    out = (global_shuffle(rd.from_arrow(ids, override_num_blocks=3),
                          hex_digits=2).to_pandas())
    assert len(out) == 400
    assert out["shard"].nunique() > 16  # 256 shards available
    for _, g in out.groupby("shard"):
        assert sorted(g["pos"]) == list(range(len(g)))


def test_broadcast_cached_one_fetch_per_worker(ray_session, monkeypatch):
    """VERDICT r3 #5: the broadcast cache resolves a ref with ONE
    object-store read per worker process (per-batch ray.get would
    re-deserialize a GB-size Bloom every batch). Same-ref lookups hit the
    cache; it holds a few slots (so a fused chain of broadcast stages
    alternating refs per batch never thrashes) and FIFO-evicts beyond
    that."""
    import ray

    from dataprof_ray.pipelines import textstats as T

    refs = [ray.put(np.arange(n)) for n in range(2, 2 + T._BROADCAST_CACHE_SLOTS + 1)]
    calls = {"n": 0}
    real_get = ray.get

    def counting_get(r, **kw):
        calls["n"] += 1
        return real_get(r, **kw)

    monkeypatch.setattr(ray, "get", counting_get)
    T._BROADCAST_CACHE.clear()
    a1 = T._broadcast_cached(refs[0])
    a2 = T._broadcast_cached(refs[0])
    assert calls["n"] == 1 and a1 is a2 and a1.sum() == 1
    # alternating refs within the slot budget: every lookup is a cache hit
    for r in refs[:T._BROADCAST_CACHE_SLOTS]:
        T._broadcast_cached(r)
    for r in refs[:T._BROADCAST_CACHE_SLOTS]:
        T._broadcast_cached(r)
    assert calls["n"] == T._BROADCAST_CACHE_SLOTS
    # one ref beyond the budget evicts the oldest (FIFO), capacity holds
    T._broadcast_cached(refs[-1])
    assert calls["n"] == T._BROADCAST_CACHE_SLOTS + 1
    assert len(T._BROADCAST_CACHE) == T._BROADCAST_CACHE_SLOTS
    assert refs[0].hex() not in T._BROADCAST_CACHE
    T._BROADCAST_CACHE.clear()
