"""End-to-end corpus curation: the composition a training-data team runs.

    read corpus shards
      -> quality filter + PII scrub     (flagship fused task stage)
      -> keep only surviving docs       (streaming filter, no shuffle)
      -> cross-document line dedup      (boilerplate removal, C4-style)
      -> normalized exact dedup         (canonical-form duplicates, min-url)
      -> optional per-source mixture    (deterministic hash-Bernoulli)
      -> deterministic train/val/test split + hive-partitioned export

Each stage is the already-tested operator from its own module; this module
only wires them, so the scale contracts (what shuffles, what broadcasts,
what the driver holds) are exactly the ones documented per operator in
SCALE.md. The document id throughout is the ``url`` — unique per page,
stable across runs, and the id the split function needs so a re-crawl
never migrates an example between train and eval.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc


def curate_corpus(
    corpus_path,
    out_dir: str,
    *,
    config=None,
    line_dedup_max_docs: int = 1,
    mixture_rates: Optional[dict] = None,
    split_fractions: Optional[dict] = None,
    benchmark_ds=None,
    decontam_n: int = 8,
    decontam_max_frac: float = 0.05,
    prior_ds=None,
) -> str:
    """Run the full curation pipeline and write hive-partitioned Parquet
    (``out_dir/split=train/...``). Returns ``out_dir``.

    The exported rows carry: url, warc_ts, lang, langid, langid_conf,
    perplexity, quality_score, pii_replacements, text (scrubbed +
    line-deduped), and the directory-encoded split.

    Optional corpus-hygiene steps: ``benchmark_ds`` (an eval corpus with
    a ``text`` column) drops documents whose benchmark n-gram overlap
    exceeds ``decontam_max_frac`` via the Bloom broadcast; ``prior_ds``
    (an earlier crawl with url+text) drops documents whose text already
    appeared there (`dedup.dedup_against_prior`, exact)."""
    from dataprof_ray.pipelines.dedup import normalized_dedup
    from dataprof_ray.pipelines.export import export_splits
    from dataprof_ray.pipelines.linededup import line_dedup
    from dataprof_ray.pipelines.quality_filter import (read_corpus,
                                                       run_quality_filter)
    from dataprof_ray.pipelines.sampling import weighted_source_sample

    ds = (corpus_path if hasattr(corpus_path, "map_batches")
          else read_corpus(corpus_path))
    filtered = run_quality_filter(ds, config=config)

    def kept_only(batch: pa.Table) -> pa.Table:
        keep = pc.fill_null(batch.column("keep"), False)
        out = batch.filter(keep)
        return out.select([
            "url", "warc_ts", "lang", "langid", "langid_conf",
            "perplexity", "quality_score", "pii_replacements",
            "scrubbed_text",
        ])

    kept = filtered.map_batches(kept_only, batch_format="pyarrow")

    if benchmark_ds is not None:
        from dataprof_ray.pipelines.decontam import (benchmark_ngram_bloom,
                                                     decontaminate)

        bloom = benchmark_ngram_bloom(benchmark_ds, n=decontam_n)
        kept = decontaminate(kept, bloom, n=decontam_n,
                             max_frac=decontam_max_frac,
                             text_col="scrubbed_text")

    deduped_lines = line_dedup(
        kept, text_col="scrubbed_text", id_col="url",
        max_docs=line_dedup_max_docs,
        keep_cols=["warc_ts", "lang", "langid", "langid_conf",
                   "perplexity", "quality_score", "pii_replacements"])
    # line_dedup emits cleaned_text + accounting; rename to the export name
    # and drop the counters (they are per-run diagnostics, not corpus data)
    def finish_text(batch: pa.Table) -> pa.Table:
        cols = {n: batch.column(n) for n in batch.column_names
                if n not in ("cleaned_text", "n_lines", "n_kept",
                             "n_removed")}
        cols["text"] = batch.column("cleaned_text")
        return pa.table(cols)

    cleaned = deduped_lines.map_batches(finish_text, batch_format="pyarrow")

    unique = normalized_dedup(cleaned, text_col="text", id_col="url")

    if prior_ds is not None:
        from dataprof_ray.pipelines.dedup import dedup_against_prior

        unique = dedup_against_prior(unique, prior_ds, text_col="text",
                                     id_col="url")

    if mixture_rates is not None:
        unique = unique.map_batches(
            lambda b: b.append_column(
                "source", pc.replace_substring_regex(
                    b.column("url"), r"^https?://([^/]*).*$", r"\1")),
            batch_format="pyarrow")
        unique = weighted_source_sample(
            unique, mixture_rates, source_col="source", id_col="url",
            default_rate=1.0).drop_columns(["source"])

    return export_splits(unique, out_dir, id_col="url",
                         fractions=split_fractions)
