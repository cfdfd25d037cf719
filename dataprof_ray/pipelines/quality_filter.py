"""Flagship pipeline: web-corpus quality filter + PII scrub (the north rule).

    read_parquet(shards, columns pruned)
      -> map_batches(filter_batch, tasks)   extract -> langid -> perplexity
                                            -> rules + score -> PII scrub
      -> write_parquet / profile rollup / per-domain rollup

Scale notes (100 TB design):
- One shape: the whole per-document pass is one stateless ``map_batches``
  task per read block, so the filter's parallelism is the read's block
  count and a block crosses the object store once between read and
  output. There is no per-batch setup to amortize: the models are
  read-only and built once per worker process (``DQ.shared_model``), so no
  actor pool holds them, or a CPU between blocks, and ``FusedFilterStage``
  builds in well under a millisecond.
- The resumable job (``state/lineage.py``) runs all pending shards as one
  execution: the read's ``path`` column rides through ``filter_batch`` and
  the write partitions by it, one output directory per input shard.
- ``html`` (the wide binary column) is consumed by extraction and never
  reaches the output.
- No shuffle anywhere in the keep/scrub path — it is embarrassingly parallel.
  The only wide op is the optional per-domain rollup, which pre-aggregates
  per batch (one row per (salted domain) per batch) before the groupby, so
  the exchange moves tiny partials, never documents. Hot domains are salted
  (hash(url) % salt) and re-merged after the shuffle.

Single-process oracle ``oracle_filter`` applies the identical kernels to one
pyarrow.Table; parity tests require byte-identical extracted/scrubbed text
per url and keep/drop F1 >= 0.99 (BASELINE.md).
"""

from __future__ import annotations

from typing import Optional
from urllib.parse import urlparse

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dataprof_ray.functions import docquality as DQ
from dataprof_ray.functions import patterns as P

_OUTPUT_FIELDS = [
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("ms")),
    ("lang", pa.string()),
    ("extracted_text", pa.string()),
    ("langid", pa.string()),
    ("langid_conf", pa.float64()),
    ("perplexity", pa.float64()),
    ("n_chars", pa.int64()),
    ("n_words", pa.int64()),
    ("quality_score", pa.float64()),
    ("keep", pa.bool_()),
    ("drop_reason", pa.string()),
    ("scrubbed_text", pa.string()),
    ("pii_replacements", pa.int64()),
]
OUTPUT_SCHEMA = pa.schema(_OUTPUT_FIELDS)


# ------------------------------------------------------------------ stages


def extract_stage(batch: pa.Table) -> pa.Table:
    """text if non-empty else extract(html); drops the wide html column so
    no later stage ships the bytes (byte-identical contract pinned by
    DQ.EXTRACTION_VERSION).

    Vectorized: only rows with null/empty text materialize their html
    payload into Python — the common non-empty-text row passes through as
    zero-copy Arrow."""
    texts = pc.cast(batch.column("text"), pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    need = pc.fill_null(
        pc.or_kleene(pc.is_null(texts), pc.equal(texts, pa.scalar(""))), True
    )
    if pc.any(need).as_py():
        idx = np.nonzero(need.to_numpy(zero_copy_only=False))[0]
        htmls = batch.column("html").take(pa.array(idx, pa.int64())).to_pylist()
        repl = pa.array([DQ.extract_text(h) for h in htmls], pa.string())
        extracted = pc.replace_with_mask(texts, need, repl)
    else:
        extracted = texts
    return pa.table({
        "url": batch.column("url"),
        "warc_ts": batch.column("warc_ts"),
        "lang": batch.column("lang"),
        "extracted_text": extracted,
    })


class LangIdStage:
    """Stopword-profile language ID (the process's shared model)."""

    def __init__(self) -> None:
        self.model = DQ.shared_model(DQ.LangIdModel)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("extracted_text").to_pylist()
        langs, confs = self.model.predict_batch(texts)
        return batch.append_column("langid", pa.array(langs, pa.string())) \
                    .append_column("langid_conf", pa.array(confs, pa.float64()))


class PerplexityStage:
    """Character-trigram LM perplexity (the process's shared LM)."""

    def __init__(self) -> None:
        self.lm = DQ.shared_model(DQ.TrigramLM)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("extracted_text").to_pylist()
        ppl = self.lm.perplexity_batch(texts)
        return batch.append_column("perplexity", pa.array(ppl, pa.float64()))


class ScoreScrubStage:
    """Heuristic metrics -> keep/drop + quality score + validator-gated PII
    scrub of kept documents."""

    def __init__(self, config: Optional[DQ.FilterConfig] = None) -> None:
        self.config = config or DQ.FilterConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.config
        texts_col = batch.column("extracted_text")
        texts = texts_col.to_pylist()
        langids = batch.column("langid").to_pylist()
        confs = batch.column("langid_conf").to_numpy(zero_copy_only=False)
        ppls = batch.column("perplexity").to_numpy(zero_copy_only=False)

        n = len(texts)
        keeps = np.zeros(n, dtype=bool)
        reasons = []
        scores = np.zeros(n, dtype=np.float64)
        n_chars = np.zeros(n, dtype=np.int64)
        n_words = np.zeros(n, dtype=np.int64)
        to_scrub_idx = []
        # batched metrics: one Arrow/RE2 kernel call per batch for the
        # vectorizable scans (value-identical to DQ.doc_metrics — pinned
        # by the batch-parity test)
        metrics = DQ.doc_metrics_batch(texts_col, langids)
        for i, m in enumerate(metrics):
            n_chars[i] = m.n_chars
            n_words[i] = m.n_words
            keep, reason = DQ.evaluate_rules(m, langids[i], float(confs[i]), float(ppls[i]), cfg)
            keeps[i] = keep
            reasons.append(reason)
            scores[i] = DQ.quality_score(m, float(confs[i]), float(ppls[i]), cfg)
            if keep:
                to_scrub_idx.append(i)

        scrubbed = [""] * n
        pii_counts = np.zeros(n, dtype=np.int64)
        if to_scrub_idx:
            subset = [texts[i] for i in to_scrub_idx]
            outs, counts = P.scrub_series(subset)
            for j, i in enumerate(to_scrub_idx):
                scrubbed[i] = outs[j]
                pii_counts[i] = counts[j]

        return pa.table({
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
            "extracted_text": batch.column("extracted_text"),
            "langid": batch.column("langid"),
            "langid_conf": batch.column("langid_conf"),
            "perplexity": batch.column("perplexity"),
            "n_chars": pa.array(n_chars, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "quality_score": pa.array(scores, pa.float64()),
            "keep": pa.array(keeps),
            "drop_reason": pa.array(reasons, pa.string()),
            "scrubbed_text": pa.array(scrubbed, pa.string()),
            "pii_replacements": pa.array(pii_counts, pa.int64()),
        })


class FusedFilterStage:
    """The whole per-document pass in one call: extract -> langid ->
    perplexity -> score+scrub (the same kernels, in the same order, as
    ``oracle_filter``). Cheap to build: the models are shared per process."""

    def __init__(self, config: Optional[DQ.FilterConfig] = None) -> None:
        self.langid = LangIdStage()
        self.ppl = PerplexityStage()
        self.score = ScoreScrubStage(config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.score(self.ppl(self.langid(extract_stage(batch))))


def toxicity_stage(batch: pa.Table) -> pa.Table:
    """Lexicon-based toxicity masking of kept documents' scrubbed text,
    emitting ``toxicity_hits`` and rewriting ``scrubbed_text``. The compiled
    lexicon lives at module scope (once per worker process)."""
    keeps = batch.column("keep").to_numpy(zero_copy_only=False)
    texts = batch.column("scrubbed_text").to_pylist()
    counts, masked = P.toxicity_series(
        [t if k else "" for t, k in zip(texts, keeps)]
    )
    out_texts = [m if k else t for m, t, k in zip(masked, texts, keeps)]
    batch = batch.drop_columns(["scrubbed_text"])
    return batch.append_column(
        "scrubbed_text", pa.array(out_texts, pa.string())
    ).append_column("toxicity_hits", pa.array(counts, pa.int64()))


def scrub_toxicity(filtered_ds):
    return filtered_ds.map_batches(toxicity_stage, batch_format="pyarrow",
                                   batch_size=2048)


# ------------------------------------------------------------------ pipeline


def filter_batch(batch: pa.Table,
                 config: Optional[DQ.FilterConfig] = None) -> pa.Table:
    """``FusedFilterStage`` over one batch. A ``path`` column (from
    ``read_parquet(..., include_paths=True)``) rides along, last."""
    out = FusedFilterStage(config)(batch)
    if "path" in batch.column_names:
        out = out.append_column("path", batch.column("path"))
    return out


def run_quality_filter(ds, *, config: Optional[DQ.FilterConfig] = None):
    """The lazy filter pipeline over a corpus Dataset (F1 schema): one
    stateless ``map_batches`` task per block. Returns the output Dataset
    (streaming; consume with write_parquet / iter_batches)."""
    return ds.map_batches(filter_batch, batch_format="pyarrow",
                          batch_size=None, fn_kwargs={"config": config})


def read_corpus(path: str, include_html: bool = True):
    """Column-pruned corpus read (html is by far the widest column; callers
    that already have extracted text should pass include_html=False)."""
    from dataprof_ray.sources.readers import read_parquet

    columns = ["url", "warc_ts", "html", "text", "lang"] if include_html else [
        "url", "warc_ts", "text", "lang"
    ]
    return read_parquet(path, columns=columns)


# ------------------------------------------------------------------ oracle


def oracle_filter(table: pa.Table, config: Optional[DQ.FilterConfig] = None) -> pa.Table:
    """Single-process reference implementation over one pyarrow.Table: the
    same kernels, applied sequentially. The Ray pipeline must match it
    byte-for-byte on extracted/scrubbed text and on every keep/drop label."""
    ext = extract_stage(table)
    ext = LangIdStage()(ext)
    ext = PerplexityStage()(ext)
    return ScoreScrubStage(config)(ext)


# ------------------------------------------------------------------ per-domain rollup


def _domain_of(url: str) -> str:
    try:
        return urlparse(url).netloc or "unknown"
    except Exception:
        return "unknown"


def domain_partials_stage(batch: pa.Table) -> pa.Table:
    """Pre-aggregate per batch: one row per (salted) domain with counts/sums.
    The following groupby exchanges only these tiny partials — never rows.
    Salt spreads hot domains (Zipf head) over `salt` reducers."""
    import pandas as pd

    urls = batch.column("url").to_pylist()
    domains = [_domain_of(u) for u in urls]
    df = pd.DataFrame({
        "domain": domains,
        "keep": batch.column("keep").to_numpy(zero_copy_only=False).astype(np.int64),
        "quality_score": batch.column("quality_score").to_numpy(zero_copy_only=False),
        "n_words": batch.column("n_words").to_numpy(zero_copy_only=False),
        "pii": batch.column("pii_replacements").to_numpy(zero_copy_only=False),
    })
    salt = (pd.util.hash_pandas_object(pd.Series(urls), index=False) % 16).astype(np.int64)
    df["salt"] = salt
    g = df.groupby(["domain", "salt"], sort=False).agg(
        docs=("keep", "size"),
        kept=("keep", "sum"),
        score_sum=("quality_score", "sum"),
        words_sum=("n_words", "sum"),
        pii_sum=("pii", "sum"),
    ).reset_index()
    return pa.Table.from_pandas(g, preserve_index=False)


def domain_rollup(filtered_ds):
    """Salted two-level aggregate: batch partials -> groupby(domain, salt) ->
    driver-side unsalt. Returns a pandas DataFrame (one row per domain —
    small by construction)."""
    from ray.data.aggregate import Sum

    partials = filtered_ds.map_batches(
        domain_partials_stage, batch_format="pyarrow", batch_size=8192
    )
    agg = partials.groupby(["domain", "salt"]).aggregate(
        Sum("docs", alias_name="docs"),
        Sum("kept", alias_name="kept"),
        Sum("score_sum", alias_name="score_sum"),
        Sum("words_sum", alias_name="words_sum"),
        Sum("pii_sum", alias_name="pii_sum"),
    )
    pdf = agg.to_pandas()  # rows = domains x salt buckets: small
    out = pdf.groupby("domain", sort=True).agg(
        docs=("docs", "sum"),
        kept=("kept", "sum"),
        score_sum=("score_sum", "sum"),
        words_sum=("words_sum", "sum"),
        pii_sum=("pii_sum", "sum"),
    ).reset_index()
    out["keep_rate"] = out["kept"] / out["docs"]
    out["mean_quality"] = out["score_sum"] / out["docs"]
    return out.drop(columns=["score_sum"])


# ------------------------------------------------------------ URL features

# ccTLD second-level registries where the registrable domain needs THREE
# labels (example.co.uk) instead of two — the small public-suffix subset a
# web pipeline hits constantly; swap in the full PSL for production.
_SECOND_LEVEL_SUFFIXES = frozenset({
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au",
    "co.jp", "ne.jp", "or.jp", "com.br", "com.cn", "com.mx", "co.in",
    "co.kr", "co.za", "com.ar", "com.tr",
})


def registrable_domain(host: str) -> str:
    """eTLD+1 approximation: last two labels, or last three when the last
    two form a known second-level public suffix. IPs and single-label hosts
    pass through unchanged."""
    labels = host.lower().split(".")
    if len(labels) <= 2 or labels[-1].isdigit():
        return host.lower()
    if ".".join(labels[-2:]) in _SECOND_LEVEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def url_features(ds, url_col: str = "url", id_col: str = "doc_id"):
    """Per-URL structural features for corpus curation: scheme, host,
    registrable domain (eTLD+1 approximation), path depth (non-empty path
    segments), query-parameter count, and an https flag (int 0/1).
    Streaming map_batches — no shuffle; stdlib urlparse per row (compiled-C
    split; the per-row cost is dwarfed by text ops elsewhere)."""
    from urllib.parse import urlparse

    def stage(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        scheme, host, dom, depth, nq, https = [], [], [], [], [], []
        for u in urls:
            p = urlparse(u or "")
            # hostname, NOT netloc: netloc carries port and userinfo
            # ('user:pw@h:443'), which would corrupt the eTLD+1 lookup and
            # leak credentials into a curation table
            h = p.hostname or ""
            scheme.append(p.scheme)
            host.append(h)
            dom.append(registrable_domain(h) if h else "")
            depth.append(sum(1 for seg in p.path.split("/") if seg))
            nq.append(sum(1 for part in p.query.split("&") if part))
            https.append(int(p.scheme == "https"))
        return pa.table({
            id_col: batch.column(id_col),
            "scheme": pa.array(scheme, pa.string()),
            "host": pa.array(host, pa.string()),
            "domain": pa.array(dom, pa.string()),
            "path_depth": pa.array(depth, pa.int64()),
            "n_query_params": pa.array(nq, pa.int64()),
            "is_https": pa.array(https, pa.int64()),
        })

    return ds.map_batches(stage, batch_format="pyarrow")


def canonicalize_url(url: str) -> str:
    """Canonical URL form for duplicate detection (standard web-curation
    normalizations; e.g. the URL-dedup pass crawlers run before fetching):
    fold http into https (one page), lowercase host, strip the fragment,
    drop default ports (80/443, judged under the ORIGINAL scheme), drop a
    ``www.`` prefix, strip known tracking query params
    (utm_*, fbclid, gclid), sort the remaining query params, and drop a
    trailing slash on non-root paths. Pure function — safe to hash."""
    from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

    try:
        parts = urlsplit((url or "").strip())
        port = parts.port  # raises ValueError on malformed ports too
    except ValueError:
        # malformed URL: canonicalization must be TOTAL over crawl junk —
        # return the trimmed original rather than killing the task
        return (url or "").strip()
    scheme = parts.scheme.lower()
    host = (parts.hostname or "").lower()
    if host.startswith("www."):
        host = host[4:]
    if ":" in host:  # IPv6 literals keep their brackets
        host = f"[{host}]"
    if port and not ((scheme, port) in (("http", 80), ("https", 443))):
        host = f"{host}:{port}"
    if scheme == "http":
        scheme = "https"  # standard crawl canonicalization: the
        # http/https pair is one page (default ports drop FIRST, above)
    q = [(k, v) for k, v in parse_qsl(parts.query, keep_blank_values=True)
         if not (k.startswith("utm_") or k in ("fbclid", "gclid"))]
    query = urlencode(sorted(q))
    path = parts.path or "/"
    if len(path) > 1 and path.endswith("/"):
        path = path[:-1]
    return urlunsplit((scheme, host, path, query, ""))


def url_dedup(ds, url_col: str = "url", id_col: str = "doc_id"):
    """Keep one row per CANONICAL url (smallest id wins) — the crawl-level
    dedup that catches http/https, www, tracking-param and fragment
    variants of the same page before any text comparison. Composition:
    canonicalize per batch (stateless, no shuffle), then the existing
    8-byte-hash `dedup.exact_dedup` machinery over the canonical column;
    the canonical form rides along as ``canonical_url``."""
    from dataprof_ray.pipelines.dedup import exact_dedup

    def canon(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        return batch.append_column(
            "canonical_url",
            pa.array([canonicalize_url(u) for u in urls], pa.string()))

    return exact_dedup(ds.map_batches(canon, batch_format="pyarrow"),
                       text_col="canonical_url", id_col=id_col)
