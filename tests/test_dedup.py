"""Dedup family: exact, MinHash+LSH, SimHash, n-gram Jaccard, embedding."""

import numpy as np
import pyarrow as pa
import pytest

from dataprof_ray.pipelines import dedup as D


@pytest.fixture(scope="module")
def doc_table() -> pa.Table:
    """Docs with planted exact and near duplicates."""
    rng = np.random.default_rng(42)
    # large synthetic vocabulary so unrelated docs share few shingles
    vocab = [f"w{chr(97 + i % 26)}{chr(97 + (i * 7) % 26)}{i:04d}" for i in range(5000)]
    texts, ids = [], []
    for i in range(80):
        n = int(rng.integers(30, 60))
        texts.append(" ".join(vocab[int(w)] for w in rng.integers(0, len(vocab), n)))
        ids.append(i)
    # exact dups: 80..84 copy 0..4
    for j in range(5):
        texts.append(texts[j])
        ids.append(80 + j)
    # near dups: 85..89 copy 5..9 with one word changed
    for j in range(5):
        base = texts[5 + j].split()
        base[3] = "altered"
        texts.append(" ".join(base))
        ids.append(85 + j)
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})


def test_exact_dedup(ray_session, doc_table):
    import ray.data as rd

    out = D.exact_dedup(rd.from_arrow(doc_table).repartition(4)).to_pandas()
    assert len(out) == 85  # 90 - 5 exact dups
    # canonical survivor is the smallest id
    kept = set(out.doc_id)
    for j in range(5):
        assert j in kept and (80 + j) not in kept


def test_minhash_lsh_finds_exact_and_near(ray_session, doc_table):
    import ray.data as rd

    groups = D.minhash_lsh_duplicate_groups(
        rd.from_arrow(doc_table).repartition(4), num_perm=64, bands=16
    )
    mapping = dict(zip(groups.id, groups.canonical_id))
    for j in range(5):  # exact dups always caught
        assert mapping.get(80 + j) == j or mapping.get(j) == j
    near_hits = sum(1 for j in range(5) if mapping.get(85 + j) == 5 + j)
    assert near_hits >= 4  # near dups (1 word changed) nearly always caught


def test_minhash_no_false_merge_of_distinct(ray_session, doc_table):
    import ray.data as rd

    groups = D.minhash_lsh_duplicate_groups(rd.from_arrow(doc_table), num_perm=64, bands=8)
    mapping = dict(zip(groups.id, groups.canonical_id))
    # distinct random docs should not collapse together
    distinct_pairs = [(10, 11), (20, 21), (30, 31)]
    for a, b in distinct_pairs:
        assert mapping.get(a, a) != mapping.get(b, b) or mapping.get(a, a) not in (a, b) is False


def test_jaccard_kernels():
    assert D.jaccard("hello world text", "hello world text") == 1.0
    assert D.jaccard("aaa bbb", "zzz qqq") < 0.2
    assert D.ngram_jaccard("a b c d e", "a b c d e", n=3) == 1.0
    assert D.ngram_jaccard("a b c d e", "a b c x e", n=3) < 1.0
    assert D.ngram_jaccard("", "", n=3) == 1.0


def test_simhash_properties():
    a = D.simhash64("the data stream reads every record and computes statistics")
    b = D.simhash64("the data stream reads every record and computes statistics")
    c = D.simhash64("the data stream reads every record and computes numbers")
    d = D.simhash64("completely different words about gardens and weather patterns")
    assert a == b
    assert D.hamming64(a, c) < D.hamming64(a, d)


def test_simhash_pairs(ray_session, doc_table):
    import ray.data as rd

    pairs = D.simhash_duplicate_pairs(rd.from_arrow(doc_table).repartition(3), max_hamming=3)
    found = set(zip(pairs.id_a, pairs.id_b)) if not pairs.empty else set()
    for j in range(5):  # exact dups have hamming 0
        assert (j, 80 + j) in found


def test_embedding_neardup(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 16))
    vecs = list(base)
    ids = list(range(40))
    # planted near-dups: 40..44 = 0..4 + tiny noise
    for j in range(5):
        vecs.append(base[j] + rng.normal(scale=1e-3, size=16))
        ids.append(40 + j)
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float64())),
    })
    pairs = D.embedding_neardup_pairs(rd.from_arrow(t).repartition(2), threshold=0.99)
    found = set(zip(pairs.id_a, pairs.id_b)) if not pairs.empty else set()
    hits = sum(1 for j in range(5) if (j, 40 + j) in found)
    assert hits >= 4
    # random gaussian pairs don't exceed 0.99 cosine
    assert all(a % 40 == b % 40 for a, b in found)


def test_embedding_neardup_recall_measured(ray_session):
    """Recall is MEASURED against brute force on planted near-duplicates
    (cosine ~0.97 clones), not asserted from the docstring."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    d = 32
    base = rng.normal(size=(60, d))
    vecs = [v for v in base]
    ids = list(range(60))
    for j in range(20):
        v = base[j] / np.linalg.norm(base[j])
        w = rng.normal(size=d)
        w -= (w @ v) * v
        w /= np.linalg.norm(w)
        vecs.append((v + 0.2 * w) * np.linalg.norm(base[j]))  # cosine ~0.98
        ids.append(100 + j)
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float64())),
    })
    m = D.embedding_neardup_recall(rd.from_arrow(t).repartition(3), threshold=0.95)
    row = m.iloc[0]
    assert row.gt_pairs >= 20
    assert row.precision == 1.0  # exact verify: no false pairs, ever
    assert row.recall >= 0.95
    # analytic floor at the threshold itself (planted pairs sit above it,
    # where per-pair recall is higher — hence the measured 0.95 bar above)
    assert row.analytic_recall >= 0.95


def test_embedding_neardup_groups_clusters_transitively(ray_session):
    """Cluster output via distributed verify + connected_components: the
    planted clone family {0, 100, 101} collapses to canonical id 0."""
    import ray.data as rd

    rng = np.random.default_rng(21)
    d = 24
    base = rng.normal(size=(30, d))
    vecs = [v for v in base]
    ids = list(range(30))
    for j, nid in ((0, 100), (0, 101), (5, 102)):
        vecs.append(base[j] + rng.normal(scale=1e-4, size=d))
        ids.append(nid)
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float64())),
    })
    out = D.embedding_neardup_groups(rd.from_arrow(t).repartition(2),
                                     threshold=0.99)
    got = dict(zip(out.id, out.canonical_id))
    assert got[100] == 0 and got[101] == 0 and got[0] == 0
    assert got[102] == 5 and got[5] == 5
    # members of >=2-clusters only
    assert set(out.id) == {0, 100, 101, 5, 102}


def test_embedding_neardup_rejects_overflowing_band_params(ray_session):
    """ADVICE r2: planes_per_band + band-id bits must fit in the uint64 key;
    out-of-range parameters must fail loudly, not silently collide."""
    import ray.data as rd

    t = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]], pa.list_(pa.float64())),
    })
    ds = rd.from_arrow(t)
    with pytest.raises(ValueError):
        D.embedding_neardup_pairs(ds, bands=4, planes_per_band=64)
    with pytest.raises(ValueError):
        D.embedding_neardup_pairs(ds, bands=2 ** 17, planes_per_band=48)
    # boundary case is fine: 60 planes + 4 band-id bits = 64
    D.embedding_neardup_pairs(ds, bands=16, planes_per_band=60)


def test_verify_edges_fetch_gap_is_nonmatching(ray_session):
    """ADVICE r2: a candidate edge whose BOTH endpoints are missing from the
    broadcast shingle dict is a fetch failure — it must be dropped, not
    confirmed with Jaccard 1.0."""
    import ray

    batch = pa.table({"src": pa.array([1, 5], pa.int64()),
                      "dst": pa.array([2, 6], pa.int64())})
    shs = {1: np.array([10, 11, 12], dtype=np.uint64),
           2: np.array([10, 11, 12], dtype=np.uint64)}  # ids 5,6 missing
    ref = ray.put(shs)
    out = D._verify_edges(batch, ref, threshold=0.5)
    assert out.column("src").to_pylist() == [1]


def test_embedding_neardup_dense_bucket_star_edges(ray_session):
    """A bucket over the pair cap degrades to star edges: components stay
    connected (every member pairs with the bucket min) without O(n^2)."""
    import ray.data as rd

    rng = np.random.default_rng(9)
    v = rng.normal(size=16)
    vecs = [v * (1.0 + 1e-9 * i) for i in range(12)]  # one identical cluster
    t = pa.table({
        "vec_id": pa.array(list(range(12)), pa.int64()),
        "embedding": pa.array([list(map(float, x)) for x in vecs],
                              pa.list_(pa.float64())),
    })
    pairs = D.embedding_neardup_pairs(rd.from_arrow(t), threshold=0.99,
                                      bucket_pair_cap=4)
    found = set(zip(pairs.id_a, pairs.id_b))
    for i in range(1, 12):
        assert (0, i) in found  # star to the min id keeps the component whole


def test_minhash_distributed_clustering_matches_union_find(ray_session, doc_table):
    """Golden: min-label propagation (distributed, no driver edge list)
    produces the identical (id, canonical_id) table as the union-find
    oracle, with and without the Jaccard verify filter."""
    import ray.data as rd

    for vt in (None, 0.5):
        dist = D.minhash_lsh_duplicate_groups(
            rd.from_arrow(doc_table).repartition(4), num_perm=32, bands=8,
            verify_threshold=vt, clustering="distributed")
        drv = D.minhash_lsh_duplicate_groups(
            rd.from_arrow(doc_table).repartition(4), num_perm=32, bands=8,
            verify_threshold=vt, clustering="driver")
        assert dist.sort_values("id").values.tolist() == \
            drv.sort_values("id").values.tolist()
        assert len(dist) > 0


def test_connected_components_chain(ray_session):
    """A long path graph needs multiple propagation rounds — exercises the
    fixpoint loop beyond the star-shaped LSH case."""
    import ray.data as rd

    # path 10-11-12-...-19 plus an isolated edge pair (2, 7)
    src = list(range(10, 19)) + [7]
    dst = list(range(11, 20)) + [2]
    edges = rd.from_arrow(pa.table({"src": pa.array(src, pa.int64()),
                                    "dst": pa.array(dst, pa.int64())}))
    labels = D.connected_components(edges).to_pandas()
    got = dict(zip(labels["node"], labels["label"]))
    assert all(got[n] == 10 for n in range(10, 20))
    assert got[2] == 2 and got[7] == 2


def test_connected_components_random_graphs_match_union_find(ray_session):
    """Adversarial check of the multi-partition contraction on random
    graphs (mixed components, chains, cliques) against the union-find
    oracle — not just the star-shaped LSH case."""
    import pandas as pd
    import ray.data as rd

    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n_nodes = 400
        n_edges = 300
        src = rng.integers(0, n_nodes, size=n_edges)
        dst = rng.integers(0, n_nodes, size=n_edges)
        keep = src != dst
        edges_df = pd.DataFrame({"src": src[keep].astype(np.int64),
                                 "dst": dst[keep].astype(np.int64)})
        edges = rd.from_arrow(pa.Table.from_pandas(edges_df)).repartition(3)
        got = (D.connected_components(edges, partitions=8)
               .to_pandas().sort_values("node").reset_index(drop=True))
        want = (D._driver_union_find(edges_df)
                .rename(columns={"id": "node", "canonical_id": "label"})
                .sort_values("node").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want)


def test_minhash_deterministic(ray_session, doc_table):
    import ray.data as rd

    g1 = D.minhash_lsh_duplicate_groups(rd.from_arrow(doc_table), num_perm=32, bands=8)
    g2 = D.minhash_lsh_duplicate_groups(rd.from_arrow(doc_table).repartition(5), num_perm=32, bands=8)
    assert g1.sort_values("id").values.tolist() == g2.sort_values("id").values.tolist()


def test_minhash_verify_restores_precision(ray_session, doc_table):
    import ray.data as rd

    groups = D.minhash_lsh_duplicate_groups(
        rd.from_arrow(doc_table).repartition(4), num_perm=64, bands=16,
        verify_threshold=0.8,
    )
    mapping = dict(zip(groups.id, groups.canonical_id))
    # exact dups survive verification
    for j in range(5):
        assert mapping.get(80 + j) == j
    # every confirmed edge really is >= threshold jaccard
    texts = {i: t for i, t in zip(doc_table.column("doc_id").to_pylist(),
                                  doc_table.column("text").to_pylist())}
    for i, c in mapping.items():
        if i != c:
            assert D.jaccard(texts[i], texts[c]) >= 0.8


def test_ngram_jaccard_pairs(ray_session, doc_table):
    import ray.data as rd

    pairs = D.ngram_jaccard_duplicate_pairs(
        rd.from_arrow(doc_table).repartition(4), n=3, threshold=0.8,
    )
    found = {(a, b) for a, b in zip(pairs.id_a, pairs.id_b)}
    for j in range(5):  # exact dups: jaccard 1.0
        assert (j, 80 + j) in found
    for _, row in pairs.iterrows():
        assert row.jaccard >= 0.8


# --------------------------------------------------- incremental (vs prior)


def _inc_corpora():
    import ray

    prior_texts = [f"previously crawled page number {i} with stable text"
                   for i in range(40)]
    new_only = [f"freshly discovered page {i} entirely new content"
                for i in range(25)]
    # new corpus = 15 re-crawled prior pages + 25 genuinely new ones
    new_texts = prior_texts[:15] + new_only
    prior = pa.table({
        "doc_id": pa.array(range(1000, 1000 + len(prior_texts)), pa.int64()),
        "text": pa.array(prior_texts)})
    new = pa.table({
        "doc_id": pa.array(range(len(new_texts)), pa.int64()),
        "text": pa.array(new_texts)})
    return (ray.data.from_arrow(prior).repartition(3),
            ray.data.from_arrow(new).repartition(4))


def test_dedup_against_prior_exact(ray_session):
    prior, new = _inc_corpora()
    out = D.dedup_against_prior(new, prior).to_pandas()
    # survivors = exactly the 25 genuinely-new docs (ids 15..39)
    assert sorted(out["doc_id"]) == list(range(15, 40))
    assert set(out.columns) == {"doc_id", "text"}


def test_dedup_against_prior_verify_rescues_false_positives(ray_session):
    # fp_rate=0.5 makes the Bloom prefilter flag roughly half the new docs
    # as "seen"; the exact verify stage must rescue every false positive.
    prior, new = _inc_corpora()
    bloom = D.prior_corpus_bloom(prior, fp_rate=0.5)
    new_tbl = pa.Table.from_pandas(new.to_pandas())
    h = D.add_content_hash(new_tbl)
    hits = bloom.contains_u64(h.column("content_hash").to_numpy())
    assert hits.sum() > 15  # prefilter really does over-flag
    out = D.dedup_against_prior(new, prior, fp_rate=0.5).to_pandas()
    assert sorted(out["doc_id"]) == list(range(15, 40))


def test_dedup_against_prior_noverify_drops_all_hits(ray_session):
    prior, new = _inc_corpora()
    out = D.dedup_against_prior(new, prior, fp_rate=1e-9,
                                verify=False).to_pandas()
    # at fp=1e-9 on 40 docs no false positive occurs: same exact answer
    assert sorted(out["doc_id"]) == list(range(15, 40))


def test_dedup_against_prior_empty_prior(ray_session):
    import ray

    _, new = _inc_corpora()
    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}))
    out = D.dedup_against_prior(new, empty).to_pandas()
    assert len(out) == new.count()


def test_neardup_flags_vs_prior(ray_session):
    import ray

    base = ("the quick brown fox jumps over the lazy dog while the sun "
            "sets slowly behind the ancient mountain range in autumn")
    prior_texts = [f"{base} variant {i} " + " ".join(
        f"tok{i}_{j}" for j in range(20)) for i in range(20)]
    near = prior_texts[0].replace("autumn", "winter")  # tiny edit
    fresh = [f"completely different subject {i} about cooking pasta "
             + " ".join(f"y{i}_{j}" for j in range(20)) for i in range(10)]
    new_texts = [prior_texts[3], near] + fresh
    prior = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(100, 100 + len(prior_texts)), pa.int64()),
        "text": pa.array(prior_texts)})).repartition(3)
    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(new_texts)), pa.int64()),
        "text": pa.array(new_texts)})).repartition(2)
    out = (D.neardup_flags_vs_prior(new, prior)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # exact copy of a prior doc: every band hits, always flagged
    assert out.loc[0, "flagged"]
    assert out.loc[0, "n_band_hits"] == 16
    # near-dup (one-word edit): banded LSH flags it
    assert out.loc[1, "flagged"]
    # genuinely new docs: none flagged at fp=1e-6
    assert not out.loc[2:, "flagged"].any()


def test_remove_duplicate_spans(ray_session):
    import ray

    shared = " ".join(f"boiler{j}" for j in range(8))  # 8-token shared span
    docs = [
        f"alpha one two three {shared} tail0 end0",
        f"beta four five six {shared} tail1 end1",
        f"gamma seven eight nine {shared} tail2 end2",
        "delta wholly original text with no repeats anywhere here at all",
    ]
    t = pa.table({"doc_id": pa.array([10, 20, 30, 40], pa.int64()),
                  "text": pa.array(docs)})
    out = (D.remove_duplicate_spans(
        ray.data.from_arrow(t).repartition(2), n=8)
        .to_pandas().set_index("doc_id"))
    # canonical owner (smallest id) keeps the span
    assert shared in out.loc[10, "text"]
    assert out.loc[10, "n_removed"] == 0
    # every other doc loses exactly the span's 8 tokens
    for i in (20, 30):
        assert shared not in out.loc[i, "text"]
        assert out.loc[i, "n_removed"] == 8
        assert f"tail{(i // 10) - 1}" in out.loc[i, "text"]  # rest survives
    # untouched doc is identical (modulo the lowercase/ws contract)
    assert out.loc[40, "text"] == docs[3]
    assert out.loc[40, "n_removed"] == 0


def test_remove_duplicate_spans_exact_dup_docs(ray_session):
    import ray

    text = " ".join(f"w{j}" for j in range(30))
    t = pa.table({"doc_id": pa.array([2, 1, 3], pa.int64()),
                  "text": pa.array([text, text, text])})
    out = (D.remove_duplicate_spans(ray.data.from_arrow(t), n=13)
           .to_pandas().set_index("doc_id"))
    # smallest id keeps everything; the clones are fully scrubbed
    assert out.loc[1, "text"] == text
    assert out.loc[2, "text"] == ""
    assert out.loc[3, "text"] == ""
    assert out.loc[2, "n_removed"] == 30


def test_remove_duplicate_spans_deterministic_across_partitionings(ray_session):
    import ray

    rng = np.random.default_rng(9)
    vocab = [f"v{i}" for i in range(400)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, 400, 40))
             for _ in range(30)]
    texts += [texts[0] + " " + texts[1]]  # composite dup content
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    a = (D.remove_duplicate_spans(ray.data.from_arrow(t).repartition(2), n=10)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (D.remove_duplicate_spans(ray.data.from_arrow(t).repartition(7), n=10)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)


def test_neardup_vs_prior_verified_transitive_family(ray_session):
    import ray

    vocab = [f"base{j}" for j in range(60)]
    core = " ".join(vocab)
    # chain: new0 ~ new2 ~ prior100 (one-word steps), plus a fresh new doc
    new0 = core
    new2 = core.replace("base7", "step1")
    prior = core.replace("base7", "step1").replace("base20", "step2")
    fresh = " ".join(f"other{j} totally unrelated" for j in range(25))
    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 2, 4], pa.int64()),
        "text": pa.array([new0, new2, fresh])})).repartition(2)
    prior_ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100, 101], pa.int64()),
        "text": pa.array([prior, " ".join(
            f"prior{j} standalone content" for j in range(25))])}))
    out = D.neardup_vs_prior_verified(new, prior_ds, threshold=0.7)
    got = dict(zip(out["new_id"], out["prior_witness"]))
    # both chain members match (new0 only TRANSITIVELY via new2)
    assert got == {0: 100, 2: 100}


def test_neardup_vs_prior_verified_no_match(ray_session):
    import ray

    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array([" ".join(f"x{j} fresh words" for j in range(20))])}))
    prior = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([9], pa.int64()),
        "text": pa.array([" ".join(f"y{j} old words" for j in range(20))])}))
    out = D.neardup_vs_prior_verified(new, prior, threshold=0.7)
    assert len(out) == 0


def test_dedup_against_prior_string_ids(ray_session):
    import ray

    prior = ray.data.from_arrow(pa.table({
        "url": pa.array([f"https://old{i}.com" for i in range(6)]),
        "text": pa.array([f"old page {i} text body" for i in range(6)]),
    }))
    new = ray.data.from_arrow(pa.table({
        "url": pa.array([f"https://new{i}.com" for i in range(4)]),
        "text": pa.array(["old page 2 text body", "old page 5 text body",
                          "fresh a", "fresh b"]),
    })).repartition(2)
    out = D.dedup_against_prior(new, prior, id_col="url").to_pandas()
    assert sorted(out["url"]) == ["https://new2.com", "https://new3.com"]


def test_neardup_flags_bands_not_dividing_batch_size(ray_session):
    """Regression: band rows of one doc may split across batch/block
    boundaries; the per-doc aggregation must still be exact (bands=12
    does not divide Ray's default 1024-row batches)."""
    import ray

    texts = [f"shared body {' '.join(f't{j}' for j in range(30))} doc {i}"
             for i in range(40)]
    prior = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(100, 140), pa.int64()),
        "text": pa.array(texts)})).repartition(2)
    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array(texts)})).repartition(3)
    out = (D.neardup_flags_vs_prior(new, prior, num_perm=120, bands=12)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(out) == 40  # one row per doc, no split partials
    assert (out["n_band_hits"] == 12).all()  # exact copies: all bands hit
    assert out["flagged"].all()


def test_remove_duplicate_spans_partitioned_tier_matches_broadcast(ray_session):
    """VERDICT r3 #3: broadcast_limit=0 forces the keyed tier (Bloom
    prefilter -> gram-bucket exact verify -> doc-bucket rewrite, no
    O(dup-grams) ray.put); its output must equal the broadcast tier's
    row-for-row, including owner-keeps-span / clones-scrubbed."""
    import ray

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, 300, 35))
             for _ in range(25)]
    texts += [texts[3], texts[3],                 # exact clones
              texts[5] + " " + texts[6],          # composite dup content
              "wholly unique filler " + " ".join(f"u{i}" for i in range(20))]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    broadcast = (D.remove_duplicate_spans(
        ray.data.from_arrow(t).repartition(3), n=9)
        .to_pandas().sort_values("doc_id").reset_index(drop=True))
    keyed = (D.remove_duplicate_spans(
        ray.data.from_arrow(t).repartition(5), n=9, broadcast_limit=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(keyed.columns) == list(broadcast.columns)
    assert keyed.equals(broadcast)
    # owner rule survives the keyed path: doc 3 (smallest clone id) intact
    k = keyed.set_index("doc_id")
    assert k.loc[3, "text"] == texts[3]
    assert k.loc[25, "text"] == ""
    assert k.loc[26, "text"] == ""


def test_exact_jaccard_pairs_matches_reference(ray_session):
    """Inverted-index all-pairs Jaccard == brute-force python reference
    (exactness, ordering-free, threshold boundary inclusive)."""
    import itertools

    import ray

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(18)]
    texts += [texts[0], texts[1] + " extra tail words here"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})

    def grams(s):
        w = s.lower().split()
        return {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}

    want = []
    for a, b in itertools.combinations(range(len(texts)), 2):
        ga, gb = grams(texts[a]), grams(texts[b])
        if not ga or not gb:
            continue
        j = len(ga & gb) / len(ga | gb)
        if j >= 0.3:
            want.append((a, b, round(j, 6)))
    got = (D.exact_jaccard_pairs(ray.data.from_arrow(t).repartition(3),
                                 n=3, threshold=0.3)
           .to_pandas().sort_values(["id_a", "id_b"]))
    got_t = list(got.itertuples(index=False, name=None))
    assert sorted(got_t) == sorted(want)
    # the planted exact clone pair is found at jaccard 1.0
    assert (0, 18, 1.0) in got_t


def test_exact_jaccard_pairs_join_tier_matches_broadcast(ray_session):
    """size_broadcast_limit=0 forces the hash-join size tier; both tiers
    must emit identical pairs."""
    import ray

    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, size=15)) for _ in range(20)]
    texts += [texts[2], texts[4] + " tail"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    a = (D.exact_jaccard_pairs(ray.data.from_arrow(t).repartition(3),
                               n=3, threshold=0.4)
         .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))
    b = (D.exact_jaccard_pairs(ray.data.from_arrow(t).repartition(4),
                               n=3, threshold=0.4, size_broadcast_limit=0)
         .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))
    assert a.equals(b)
    assert len(a) >= 2


def test_remove_duplicate_spans_partitioned_tier_stress(ray_session):
    """Keyed span-removal tier on an 800-doc corpus with heavy cross-doc
    boilerplate: parity with the broadcast tier when candidates span many
    batches and gram/doc buckets hold multi-doc groups."""
    import ray

    rng = np.random.default_rng(7)
    vocab = [f"v{i}" for i in range(500)]
    shared = [" ".join(rng.choice(vocab, size=12)) for _ in range(6)]
    texts = []
    for d in range(800):
        parts = [" ".join(rng.choice(vocab, size=rng.integers(8, 20)))]
        if d % 3 == 0:
            parts.append(shared[d % 6])
        rng.shuffle(parts)
        texts.append(" ".join(parts))
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    a = (D.remove_duplicate_spans(ray.data.from_arrow(t).repartition(5),
                                  n=10)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (D.remove_duplicate_spans(ray.data.from_arrow(t).repartition(8),
                                  n=10, broadcast_limit=0)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)
    assert b["n_removed"].sum() > 500  # shared spans really scrub


@pytest.fixture
def executions(monkeypatch):
    """Records one entry per Ray Data execution (``StreamingExecutor.
    execute`` call) made while the test runs."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    dags = []
    orig = StreamingExecutor.execute

    def counted(executor, dag, *args, **kwargs):
        dags.append(dag)
        return orig(executor, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return dags


def test_minhash_groups_small_graph_is_one_clustering_execution(ray_session, doc_table,
                                                                 executions):
    """Verified MinHash groups over a small graph: edges, candidate ids,
    shingle fetch, verify, then ONE execution for the one-partition
    clustering (repartition(1) + one contract task)."""
    import ray.data as rd

    ds = rd.from_arrow(doc_table).repartition(4).materialize()
    executions.clear()
    groups = D.minhash_lsh_duplicate_groups(ds, num_perm=64, bands=16,
                                            verify_threshold=0.7)
    assert len(executions) == 5
    mapping = dict(zip(groups.id, groups.canonical_id))
    assert all(mapping.get(80 + j) == j for j in range(5))
    assert groups.equals(D.minhash_lsh_duplicate_groups(
        ds, num_perm=64, bands=16, verify_threshold=0.7, clustering="driver"))


def test_exact_dedup_is_one_execution(ray_session, doc_table, executions):
    """Hash, keyed exchange and reduce run as one Ray Data execution."""
    import ray.data as rd

    ds = rd.from_arrow(doc_table).repartition(4).materialize()
    executions.clear()
    out = D.exact_dedup(ds).to_pandas()
    assert len(executions) == 1
    assert sorted(out.doc_id) == list(range(80)) + list(range(85, 90))


def test_connected_components_chain_across_partitions(ray_session):
    """A chain whose every edge joins two different partitions of the
    round exchange: labels travel only through the rows homed at both
    endpoints. Matches the union-find oracle."""
    import pandas as pd
    import ray.data as rd

    from dataprof_ray.pipelines.partitioning import multikey_parts

    cand = np.arange(1000, 3000, dtype=np.int64)
    part = multikey_parts(pa.table({"home": cand}), ["home"], 8)
    chain = [0]
    for i in range(1, len(cand)):
        if part[i] != part[chain[-1]]:
            chain.append(i)
        if len(chain) == 40:
            break
    nodes = cand[chain]
    assert (part[chain][1:] != part[chain][:-1]).all()
    # larger id first, so each round moves the minimum label one hop down
    edges_df = pd.DataFrame({"src": nodes[1:][::-1], "dst": nodes[:-1][::-1]})
    edges = rd.from_pandas(edges_df).repartition(3)
    got = (D.connected_components(edges, partitions=8)
           .to_pandas().sort_values("node").reset_index(drop=True))
    want = (D._driver_union_find(edges_df)
            .rename(columns={"id": "node", "canonical_id": "label"})
            .sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    assert (got["label"] == nodes.min()).all()


def test_dedup_against_prior_from_pandas_input(ray_session):
    """A ``from_pandas`` new side (pandas blocks) reads its id type through
    ``partitioning.arrow_schema``."""
    import ray

    prior, new = _inc_corpora()
    out = D.dedup_against_prior(ray.data.from_pandas(new.to_pandas()),
                                ray.data.from_pandas(prior.to_pandas()),
                                fp_rate=0.5).to_pandas()
    assert sorted(out["doc_id"]) == list(range(15, 40))


def test_remove_duplicate_spans_partitioned_tier_from_pandas(ray_session):
    import ray

    texts = [f"shared prefix words one two three four five six seven {i}"
             for i in range(6)] + ["lone document with nothing shared at all"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    want = (D.remove_duplicate_spans(ray.data.from_arrow(t), n=5)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    got = (D.remove_duplicate_spans(ray.data.from_pandas(t.to_pandas()), n=5,
                                    broadcast_limit=0)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got.equals(want)
    assert got.loc[0, "text"] == texts[0] and got.loc[1, "text"] != texts[1]
