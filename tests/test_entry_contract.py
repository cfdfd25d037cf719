"""Local replica of the driver's correctness gate: every __ray_entry__
query with an oracle must match DuckDB exactly (schema + rows + values)
at sf0.001; rows-only queries must execute and return a frame."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import __ray_entry__ as E  # noqa: E402

from entry_parity import compare, oracle_connection, to_pandas  # noqa: E402

SF = "/root/testdata/sf0.001"

_ORACLES = E.oracle_sql()
_QUERIES = E.queries()


@pytest.fixture(scope="module")
def oracle(ray_session):
    con = oracle_connection(SF)
    yield con
    con.close()


def test_all_oracle_keys_have_queries():
    assert set(_ORACLES) <= set(_QUERIES)


@pytest.mark.parametrize("name", sorted(_ORACLES))
def test_query_matches_oracle(name, oracle):
    compare(_QUERIES[name](SF), oracle, _ORACLES[name])


@pytest.mark.parametrize("name", sorted(set(_QUERIES) - set(_ORACLES)))
def test_rows_only_query_runs(name, ray_session):
    df = to_pandas(_QUERIES[name](SF))
    assert df is not None
    assert len(df.columns) > 0


# ---- pinned goldens: deterministic no-oracle queries are value-checked
# against parquet goldens (tests/golden/, regenerated by make_goldens.py),
# so "no DuckDB oracle" no longer means "values unverified".

from make_goldens import GOLDEN_DIR, PINNED, canonicalize  # noqa: E402


@pytest.mark.parametrize("name", PINNED)
def test_no_oracle_query_matches_pinned_golden(name, ray_session):
    import pandas as pd

    golden = canonicalize(pd.read_parquet(GOLDEN_DIR / f"{name}.parquet"))
    got = canonicalize(to_pandas(_QUERIES[name](SF)))
    pd.testing.assert_frame_equal(got, golden, rtol=1e-9, atol=1e-12)


def test_embedding_neardup_groups_recovers_planted_families(ray_session):
    """Self-oracle: the planted-clone corpus has KNOWN cluster structure —
    every clone must map to its original (precision is exact: the verify
    step admits only true >=0.95-cosine pairs), and >=95% of families must
    be recovered (banded-LSH recall at cosine ~0.97 is ~0.99 analytic)."""
    import pyarrow.parquet as pq

    n_base = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    planted = E._planted_embeddings(SF)
    ids = planted.column("vec_id").to_numpy(zero_copy_only=False)
    out = to_pandas(_QUERIES["embedding_neardup_groups"](SF))
    # reconstruct the planted mapping: clone k pairs with original ids[5k]
    base_ids = ids[: n_base]
    clone_ids = ids[n_base:]
    expected = {int(c): int(o) for c, o in zip(clone_ids, base_ids[::5])}
    got = dict(zip(out.id.astype(int), out.canonical_id.astype(int)))
    recovered = sum(1 for c, o in expected.items()
                    if got.get(c) == o and got.get(o) == o)
    assert recovered >= 0.95 * len(expected)
    # no false merges: every clustered id belongs to a planted family
    allowed = set(expected) | set(expected.values())
    assert set(out.id.astype(int)) <= allowed


def test_contamination_bloom_audit_no_false_negatives(ray_session):
    """Self-oracle: the Bloom decontamination scan may over-flag but can
    never miss a document the exact scan flags; at fp=1e-4 over sf0.001's
    gram universe, over-flagging is essentially impossible too."""
    row = to_pandas(_QUERIES["contamination_bloom_audit"](SF)).iloc[0]
    assert row["false_negative_docs"] == 0
    assert row["exact_contaminated_docs"] > 0
    assert row["bloom_contaminated_docs"] >= row["exact_contaminated_docs"]
    assert row["extra_flagged_docs"] <= max(1, 0.01 * row["n_docs"])


def test_quality_classifier_audit_learns(ray_session):
    """Self-oracle: the distributed training loop must separate clean
    documents from seeded-gibberish corruptions on held-out docs."""
    row = to_pandas(_QUERIES["quality_classifier_audit"](SF)).iloc[0]
    assert row["test_auc"] >= 0.95
    assert row["test_acc"] >= 0.9
    assert row["n_train"] > 0 and row["n_test"] > 0


def test_packing_efficiency_audit_within_capacity(ray_session):
    """Self-oracle: FFD packing can never overfill a bin, and bins used
    is within the FFD approximation bound of the token lower bound."""
    row = to_pandas(_QUERIES["packing_efficiency_audit"](SF)).iloc[0]
    assert row["max_bin_tokens"] <= row["max_len"]
    assert row["lb_bins"] <= row["n_bins"]
    # sound first-fit bound: within each of the 8 partitions at most one
    # bin is <= half-full (two such bins would have been merged), so
    # tokens > (n_bins - parts) * max_len/2 => n_bins < 2*lb + parts.
    assert row["n_bins"] <= 2 * row["lb_bins"] + 8
    assert row["oversize_docs"] == 0


def test_neardup_vs_prior_audit_full_recall_on_members(ray_session):
    """Self-oracle: a doc that IS a prior member has identical signatures
    — every band hits, so recall on exact dups is exactly 1.0."""
    row = to_pandas(_QUERIES["neardup_vs_prior_audit"](SF)).iloc[0]
    assert row["prior_members_flagged"] == row["prior_members"]
    assert row["prior_members_full_hits"] == row["prior_members"]
    # the rest of the corpus: flag rate stays a small candidate fraction
    assert row["others_flag_rate"] <= 0.2


def test_heavy_hitters_cms_audit_bounds(ray_session):
    """Self-oracle: CMS top-k must recover the exact top-k head on this
    corpus, and estimates can only overcount within the analytic bound."""
    row = to_pandas(_QUERIES["heavy_hitters_cms_audit"](SF)).iloc[0]
    assert row["recall"] >= 0.9
    assert 0 <= row["max_overcount"] <= row["error_bound"]


def test_packed_sequences_consistent_with_mapping(ray_session):
    """Cross-oracle: the materialized sequences must carry exactly the
    token mass the SQL-oracled pack_sequences mapping assigns, per
    partition, with contiguous seq ids."""
    seqs = to_pandas(_QUERIES["packed_sequences_documents"](SF))
    mapping = to_pandas(_QUERIES["pack_sequences_documents"](SF))
    tok_by_part = mapping.groupby("part")["n_tokens"].sum()
    got_by_part = seqs.groupby("part")["n_tokens"].sum()
    assert got_by_part.to_dict() == tok_by_part[tok_by_part > 0].to_dict()
    for p, g in seqs.groupby("part"):
        assert sorted(g["seq_id"]) == list(range(len(g)))
        assert (g.sort_values("seq_id")["n_tokens"].iloc[:-1] == 128).all()


def test_neardup_vs_prior_verified_members_all_match(ray_session):
    """Self-oracle: prior members are exact dups of themselves, so every
    doc_id % 3 == 0 document must be matched, with a prior witness."""
    import pyarrow.parquet as pq

    out = to_pandas(_QUERIES["neardup_vs_prior_verified"](SF))
    n = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    expected_members = {i for i in range(n) if i % 3 == 0}
    assert expected_members <= set(out["new_id"])
    assert (out["prior_witness"] % 3 == 0).all()


def test_url_dedup_documents_collapses_planted_pairs(ray_session):
    """Self-oracle: each odd doc is a surface-variant of the even doc
    before it, so exactly the even ids survive."""
    out = to_pandas(_QUERIES["url_dedup_documents"](SF))
    assert (out["doc_id"] % 2 == 0).all()
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert len(out) == (n + 1) // 2


def test_ppl_buckets_audit(ray_session):
    """Self-oracle: CCNet-style terciles are near-even and ordered."""
    out = to_pandas(_QUERIES["ppl_buckets_documents"](SF))
    sizes = out.groupby("bucket").size()
    n = len(out)
    assert sorted(sizes.index) == [0, 1, 2]
    assert sizes.min() >= 0.15 * n and sizes.max() <= 0.55 * n
    assert (out.loc[out.bucket == 0, "corpus_ppl"].max()
            <= out.loc[out.bucket == 2, "corpus_ppl"].min() + 1e-9)


def test_remaining_rows_only_queries_self_audit(ray_session):
    """Name-level pins for the rows-only queries whose operators are
    unit-tested elsewhere: each output must satisfy its own contract,
    not merely execute."""
    import numpy as np

    # sketch audit: measured rank error within the sketch's own bound
    aq = to_pandas(_QUERIES["approx_quantiles_audit"](SF))
    assert (aq["rank_err"] <= aq["max_rank_err"]).all()

    # curation: hive split names, every split non-empty, counts plausible
    cs = to_pandas(_QUERIES["curated_split_counts"](SF))
    assert set(cs["split"]) <= {"train", "val", "test"}
    assert (cs["n_docs"] > 0).all()
    assert cs.loc[cs["split"] == "train", "n_docs"].iloc[0] == cs["n_docs"].max()

    # DSIR: finite log-weights; top-k is the k highest-weight docs
    w = to_pandas(_QUERIES["dsir_weights_documents"](SF))
    assert np.isfinite(w["dsir_weight"]).all()
    # Gumbel-top-k is a seeded SAMPLE, not argmax: pin the importance-
    # sampling property (selected docs skew to higher weights) + size
    top = to_pandas(_QUERIES["dsir_top_documents"](SF))
    wmap = dict(zip(w["doc_id"], w["dsir_weight"]))
    sel_mean = np.mean([wmap[i] for i in top["doc_id"]])
    assert sel_mean > w["dsir_weight"].mean()
    assert len(top) == 50 and top["doc_id"].is_unique

    # PCA audit: reconstruction MSE == (1 - explained) * total variance
    # to the audit's own reported precision
    pca = to_pandas(_QUERIES["pca_audit_embeddings"](SF)).iloc[0]
    assert pca["rel_gap_e12"] <= 1.0
    assert 0.0 < pca["explained_ratio"] < 1.0

    # SemDeDup: every cell keeps >= 1 vector; dropped vectors really do
    # have a kept neighbor above the threshold witness
    sd = to_pandas(_QUERIES["semantic_dedup_embeddings"](SF))
    per_cell = sd.groupby("cell")["kept"].any()
    assert per_cell.all()
    dropped = sd[~sd["kept"]]
    # the query runs threshold=0.45: every drop must have a kept witness
    # at or above it, and no kept vector may dominate another kept one
    assert (dropped["max_cos_to_kept"] >= 0.45).all()
    kept = sd[sd["kept"]]
    assert (kept["max_cos_to_kept"] < 0.45).all()


def test_entry_smoke(ray_session):
    out = to_pandas(E.entry())
    assert len(out) > 0
    assert {"url", "keep", "scrubbed_text", "quality_score"} <= set(out.columns)


def test_jaccard_lsh_recall_audit_self_audit(ray_session):
    """Name-level pin for the round-4 rows-only query: the LSH-gated pairs
    op against the exact inverted-index ground truth. With pair_cap=8
    (all intra-bucket pairs for small buckets; star mediation previously
    cost 4 of 28 true pairs here) the measured recall is 1.0 at both
    gate scales, deterministic (seeded signatures) — pin it exactly, with
    zero false pairs."""
    row = to_pandas(_QUERIES["jaccard_lsh_recall_audit"](SF)).iloc[0]
    assert row["false_pairs"] == 0
    assert row["recall"] == 1.0
    assert row["lsh_pairs"] == row["exact_pairs"]


def test_embedding_lsh_recall_pinned_vs_exact_oracle(ray_session):
    """VERDICT r4 #8: mirror the jaccard_lsh_recall_audit methodology for
    the banded-hyperplane embedding LSH. The audit's ground truth is the
    brute-force ALL-PAIRS cosine set over the planted corpus (real sf
    embeddings + deterministic clones; the raw table has no pair above
    cosine 0.61 at any sf, so planting is what makes the anchor
    non-vacuous). Seeded hyperplanes + deterministic corpus -> the
    measured recall is a constant; pin it exactly, with exact precision
    1.0 (the cosine verify step admits only true pairs)."""
    row = to_pandas(_QUERIES["embedding_neardup_recall"](SF)).iloc[0]
    assert row["gt_pairs"] == 100
    # 2 planted clone pairs miss every band at these seeds (sign-bit flips
    # near the hyperplanes) — the deterministic floor, not randomness; the
    # analytic expectation at cosine ~0.97 is ~0.96
    assert row["recall"] == 0.98
    assert row["precision"] == 1.0
    assert row["matched_pairs"] == row["lsh_pairs"] == 98


def test_int_away_half_away_from_zero():
    """_int_away == DuckDB ROUND on exact .5 ties (pc.round is half-even
    and rounds 12.5 -> 12; the helper must round away: 12.5 -> 13)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    vals = [0.125, -0.125, 0.0, 29.27, -0.005, 1e9 + 0.005, 0.994999]
    got = E._int_away(pa.array(vals, pa.float64())).to_pylist()
    exp = [int(r[0]) for r in duckdb.sql(
        "SELECT CAST(ROUND(v * 100.0) AS BIGINT) FROM (SELECT UNNEST(?) v)",
        params=[vals]).fetchall()]
    assert got == exp, (got, exp)
    assert got[0] == 13 and got[1] == -13  # the tie cases pc.round fails


def test_compare_rejects_dtype_kind_mismatch():
    """DuckDB's SUM over integers is HUGEINT, which reaches pandas as
    float64: an oracle that leaves it uncast must fail against Ray's
    int64 even though the values agree; the BIGINT cast passes."""
    import duckdb
    import numpy as np
    import pandas as pd

    con = duckdb.connect()
    got = pd.DataFrame({"s": np.array([3], np.int64)})
    with pytest.raises(AssertionError, match="dtype kind"):
        compare(got, con, "SELECT SUM(x) AS s FROM (VALUES (1), (2)) t(x)")
    compare(got, con,
            "SELECT CAST(SUM(x) AS BIGINT) AS s FROM (VALUES (1), (2)) t(x)")
    con.close()
