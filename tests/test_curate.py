"""End-to-end curation composition over the synthetic corpus."""

import os

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    from dataprof_ray.sources.corpus import generate_corpus

    t = generate_corpus(800, seed=11)
    path = str(tmp_path_factory.mktemp("corpus") / "shard.parquet")
    pq.write_table(t, path)
    return path


def test_curate_end_to_end(ray_session, corpus_file, tmp_path):
    import ray.data as rd

    from dataprof_ray.pipelines.curate import curate_corpus

    out = curate_corpus(corpus_file, str(tmp_path / "out"))
    dirs = sorted(d for d in os.listdir(out) if d.startswith("split="))
    assert dirs and all(d.split("=")[1] in {"train", "val", "test"}
                        for d in dirs)

    back = rd.read_parquet(out).to_pandas()
    assert len(back) > 0
    assert {"url", "text", "split", "quality_score",
            "perplexity"} <= set(back.columns)
    # only kept documents were exported
    n_in = pq.read_metadata(corpus_file).num_rows
    assert len(back) < n_in
    # urls unique after dedup
    assert back.url.is_unique
    # deterministic: a second run exports the identical id -> split map
    out2 = curate_corpus(corpus_file, str(tmp_path / "out2"))
    back2 = rd.read_parquet(out2).to_pandas()
    a = back.sort_values("url").reset_index(drop=True)
    b = back2.sort_values("url").reset_index(drop=True)
    assert a.url.tolist() == b.url.tolist()
    assert a.split.tolist() == b.split.tolist()
    assert a.text.tolist() == b.text.tolist()


def test_curate_with_mixture(ray_session, corpus_file, tmp_path):
    import ray.data as rd

    from dataprof_ray.pipelines.curate import curate_corpus

    full = curate_corpus(corpus_file, str(tmp_path / "full"))
    n_full = rd.read_parquet(full).count()
    mixed = curate_corpus(corpus_file, str(tmp_path / "mixed"),
                          mixture_rates={"__no_such_host__": 1.0})
    # default_rate=1.0 keeps unknown hosts: same row count as full
    assert rd.read_parquet(mixed).count() == n_full


def test_curate_with_hygiene_steps(ray_session, corpus_file, tmp_path):
    """Decontamination + incremental dedup slot into the composition:
    a benchmark built FROM some kept docs must remove those docs; a prior
    corpus containing some final texts must remove those too."""
    import pyarrow as pa
    import ray.data as rd

    from dataprof_ray.pipelines.curate import curate_corpus

    base = rd.read_parquet(
        curate_corpus(corpus_file, str(tmp_path / "base"))).to_pandas()
    assert len(base) > 20
    # benchmark = the scrubbed text of 5 exported docs; prior = 5 others
    bench_rows = base.sort_values("url").head(5)
    prior_rows = base.sort_values("url").tail(5)
    bench_ds = rd.from_arrow(pa.table({"text": pa.array(bench_rows["text"])}))
    prior_ds = rd.from_arrow(pa.table({
        "url": pa.array("p-" + prior_rows["url"]),
        "text": pa.array(prior_rows["text"])}))
    out = rd.read_parquet(curate_corpus(
        corpus_file, str(tmp_path / "hyg"),
        benchmark_ds=bench_ds, prior_ds=prior_ds,
        decontam_max_frac=0.0)).to_pandas()
    # every benchmark-sourced and prior-sourced doc is gone
    assert not set(bench_rows["url"]) & set(out["url"])
    assert not set(prior_rows["text"]) & set(out["text"])
    # and plenty of clean docs survive
    assert len(out) >= len(base) - 25
