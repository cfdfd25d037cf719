"""Correctness checks of every workload's outputs.

Each check returns a list of problems (empty = correct). Expected values
come from computations made apart from the program: DuckDB over the same
parquet files, pyarrow reads of the written output, the truth planted by
``inputs.py``, and plain-Python shingle sets. The one exception is the
filter's oracle sample, which compares the distributed job with the
program's own single-process ``quality_filter.oracle_filter``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import shutil
import sys
from collections import Counter

import numpy as np

import inputs

ROLLUP_SPECS = [("s", "f_val", "sum"), ("n", None, "count"),
                ("mx", "i_val", "max")]

# stated shares: clean prose kept and tagged with its language, PII pages kept
CLEAN_KEPT_SHARE = 0.95
PII_KEPT_SHARE = 0.90
# HyperLogLog at p=14 has a 0.81% standard error; allow about five of them
DISTINCT_REL_ERROR = 0.04
# planted pairs at or above this shingle Jaccard must share a group ...
RECALL_JACCARD = 0.85
# ... for at least this share of them
RECALL_BOUND = 0.95


def quiet(fn, *args, **kwargs):
    """The job prints its summary on stdout; keep stdout for the result."""
    with contextlib.redirect_stdout(sys.stderr):
        return fn(*args, **kwargs)


def _close(a, b, rel=1e-9, abs_=1e-9) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _rounded_close(got, want) -> bool:
    """The program rounds half away from zero at 4 decimals; a different
    summation order may move a value across a rounding boundary, so allow
    one unit in the last place."""
    return _close(got, want, rel=1e-12, abs_=1.01e-4)


# ------------------------------------------------------------------ filter

def _read_dir(path: str):
    import pyarrow.parquet as pq

    return pq.read_table(path)


def filter_output(out: str, truth: list[dict]) -> list[str]:
    import pyarrow as pa

    problems: list[str] = []
    manifest_path = os.path.join(out, "_manifest.jsonl")
    with open(manifest_path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    tables = []
    for rec in records:
        t = _read_dir(rec["output_dir"])
        kept = int(np.asarray(t.column("keep").to_numpy(zero_copy_only=False)).sum())
        if rec["rows"] != t.num_rows or rec["kept"] != kept:
            problems.append(f"manifest {rec['shard_id']}: rows/kept "
                            f"{rec['rows']}/{rec['kept']} != {t.num_rows}/{kept}")
        tables.append(t)
    if not tables:
        return problems + [f"{out}: no output"]
    rows = pa.concat_tables(tables, promote_options="default").to_pylist()

    counts = Counter(r["url"] for r in rows)
    want = Counter(t["url"] for t in truth)
    if counts != want:
        extra = sum((counts - want).values())
        missing = sum((want - counts).values())
        problems.append(f"{out}: urls not exactly once "
                        f"(missing {missing}, extra {extra})")
    by_url = {r["url"]: r for r in rows}

    clean = clean_ok = pii = pii_kept = 0
    for t in truth:
        r = by_url.get(t["url"])
        if r is None:
            continue
        keep, reason = r["keep"], r["drop_reason"]
        # the program writes '' as the reason of a kept page
        if keep != (reason is None or reason == ""):
            problems.append(f"{t['url']}: keep={keep} with drop_reason={reason!r}")
        if not keep and (r["scrubbed_text"] or r["pii_replacements"]):
            problems.append(f"{t['url']}: dropped page has scrubbed text "
                            "or replacements")
        cat = t["cat"]
        if cat in ("short", "repeat", "symbols", "cookie") and keep:
            problems.append(f"{t['url']}: {cat} page was kept")
        elif cat.startswith("clean_"):
            clean += 1
            clean_ok += bool(keep and r["langid"] == t["lang"])
        elif cat == "pii":
            pii += 1
            if keep:
                pii_kept += 1
                for s in t["pii"]:
                    if s in r["scrubbed_text"]:
                        problems.append(f"{t['url']}: PII {s!r} survived")
                if r["pii_replacements"] < len(t["pii"]):
                    problems.append(f"{t['url']}: {r['pii_replacements']} "
                                    f"replacements < {len(t['pii'])} planted")
        elif cat == "html":
            text = r["extracted_text"] or ""
            for para in t["paras"]:
                if para not in text:
                    problems.append(f"{t['url']}: paragraph not extracted")
                    break
            if inputs.SCRIPT_MARKER in text or inputs.STYLE_MARKER in text:
                problems.append(f"{t['url']}: script or style text extracted")
    if clean and clean_ok < CLEAN_KEPT_SHARE * clean:
        problems.append(f"{out}: clean prose kept with its language "
                        f"{clean_ok}/{clean} < {CLEAN_KEPT_SHARE}")
    if pii and pii_kept < PII_KEPT_SHARE * pii:
        problems.append(f"{out}: PII pages kept {pii_kept}/{pii} "
                        f"< {PII_KEPT_SHARE}")
    return problems


def filter_oracle_sample(ops, corpus: str, out: str, seed: int,
                         n: int = 64) -> list[str]:
    """A seeded sample of the input, run through ``oracle_filter`` in this
    process, must equal the job's rows for the same pages."""
    import pyarrow as pa

    from dataprof_ray.pipelines import quality_filter as QF

    table = _read_dir(corpus)
    idx = np.random.default_rng(seed + 1).choice(table.num_rows, n, replace=False)
    sample = table.take(pa.array(np.sort(idx)))
    ok, want = ops.run("quality_filter.oracle_filter", QF.oracle_filter, sample)
    if not ok:
        return []
    got = {}
    for d in sorted(os.listdir(out)):
        if os.path.isdir(os.path.join(out, d)):
            for r in _read_dir(os.path.join(out, d)).to_pylist():
                got[r["url"]] = r
    problems = []
    for w in want.to_pylist():
        g = got.get(w["url"])
        if g is None:
            problems.append(f"oracle sample: {w['url']} missing from output")
            continue
        for k, v in w.items():
            same = _close(g[k], v, rel=1e-12) if isinstance(v, float) else g[k] == v
            if not same:
                problems.append(f"oracle sample: {w['url']} {k} differs")
    return problems


def filter_resume(ops, jobs, corpus: str, out: str, seed: int) -> list[str]:
    """An immediate rerun processes no shard; after one shard's output is
    deleted, a rerun rebuilds that shard alone, with the same rows."""
    problems = []
    args = ["--input", corpus, "--output", out]
    ok, stats = ops.run("jobs.main.rerun", quiet, jobs.main, args)
    if ok and stats["shards_processed"] != 0:
        problems.append(f"rerun processed {stats['shards_processed']} shards")
    shard_dirs = sorted(d for d in os.listdir(out)
                        if os.path.isdir(os.path.join(out, d)))
    victim = os.path.join(out, shard_dirs[
        int(np.random.default_rng(seed + 2).integers(len(shard_dirs)))])
    before = _read_dir(victim).sort_by("url")
    shutil.rmtree(victim)
    ok, stats = ops.run("jobs.main.rebuild", quiet, jobs.main, args)
    if ok:
        if stats["shards_processed"] != 1:
            problems.append(f"rebuild processed {stats['shards_processed']} "
                            "shards, not 1")
        if not _read_dir(victim).sort_by("url").equals(before):
            problems.append("rebuilt shard differs from the first build")
    return problems


# ------------------------------------------------------------------ profile

def _duck(table_dir: str):
    import duckdb

    con = duckdb.connect()
    con.execute("CREATE VIEW t AS SELECT * FROM read_parquet("
                f"'{table_dir}/*.parquet')")
    return con


NUMERIC = ("id", "i_val", "f_val", "f_heavy")
COLUMNS = ("id", "i_val", "f_val", "f_heavy", "region", "cat", "user", "ts")


def profile_expected(table_dir: str, qs) -> dict:
    con = _duck(table_dir)
    one = lambda sql: con.execute(sql).fetchone()  # noqa: E731
    exp: dict = {"columns": {}}
    for c in COLUMNS:
        rows, non_null, distinct = one(
            f"SELECT count(*), count({c}), count(DISTINCT {c}) FROM t")
        col = {"rows": rows, "nulls": rows - non_null, "distinct": distinct}
        if c in NUMERIC:
            col["min"], col["max"], col["mean"] = one(
                f"SELECT min({c}), max({c}), avg({c}) FROM t")
        exp["columns"][c] = col
    qlist = ", ".join(repr(float(q)) for q in qs)
    exp["quantiles"] = (one(f"SELECT quantile_cont(f_heavy, [{qlist}]) FROM t")[0],
                        one("SELECT count(f_heavy) FROM t")[0])
    exp["winsorized"] = {}
    for c in ("f_val", "f_heavy"):
        lo, hi = one(f"SELECT quantile_cont({c}, 0.05), "
                     f"quantile_cont({c}, 0.95) FROM t")
        # DuckDB's greatest/least skip NULLs; keep NULL rows out explicitly
        n, mean = one(f"SELECT count({c}), avg(least(greatest({c}::DOUBLE, "
                      f"{lo!r}::DOUBLE), {hi!r}::DOUBLE)) FROM t "
                      f"WHERE {c} IS NOT NULL")
        exp["winsorized"][c] = (n, lo, hi, mean)
    exp["robust"] = {}
    for c in ("f_heavy", "i_val"):
        med = one(f"SELECT quantile_cont({c}, 0.5) FROM t")[0]
        mad = one(f"SELECT quantile_cont(abs({c}::DOUBLE - {med!r}::DOUBLE), "
                  "0.5) FROM t")[0]
        lo, hi = med - 3.0 * 1.4826 * mad, med + 3.0 * 1.4826 * mad
        n, outl = one(f"SELECT count({c}), count(*) FILTER "
                      f"({c} < {lo!r}::DOUBLE OR {c} > {hi!r}::DOUBLE) FROM t")
        exp["robust"][c] = (n, med, mad, lo, hi, outl)
    exp["rollup"] = con.execute(
        "SELECT region, cat, sum(f_val) AS s, count(*) AS n, max(i_val) AS mx, "
        "GROUPING(region, cat) AS grouping_id FROM t "
        "GROUP BY ROLLUP(region, cat)").fetchall()
    exp["distinct"] = dict(con.execute(
        "SELECT region, count(DISTINCT user) FROM t GROUP BY region").fetchall())
    con.close()
    return exp


def _key(v):
    return None if v is None or (isinstance(v, float) and math.isnan(v)) else v


def _rollup_rows(df) -> dict:
    return {(_key(r["region"]), _key(r["cat"]), int(r["grouping_id"])): r
            for r in df.to_dict("records")}


def profile_results(results: list[dict], table_dir: str, qs) -> list[str]:
    exp = profile_expected(table_dir, qs)
    problems: list[str] = []
    for i, res in enumerate(results):
        p = lambda msg: problems.append(f"round {i}: {msg}")  # noqa: E731
        rep = res.get("profile.profile_dataset")
        if rep is not None:
            for c, want in exp["columns"].items():
                prof = rep[c]
                if prof.total_count != want["rows"] or prof.null_count != want["nulls"]:
                    p(f"profile {c}: count/nulls {prof.total_count}/"
                      f"{prof.null_count} != {want['rows']}/{want['nulls']}")
                if prof.unique_count is not None:
                    tol = (DISTINCT_REL_ERROR * want["distinct"]
                           if prof.unique_count_is_approximate else 0)
                    if abs(prof.unique_count - want["distinct"]) > tol:
                        p(f"profile {c}: distinct {prof.unique_count} vs "
                          f"{want['distinct']}")
                if c in NUMERIC:
                    st = prof.stats
                    for k in ("min", "max", "mean"):
                        if not _close(getattr(st, k, None), want[k]):
                            p(f"profile {c}: {k} {getattr(st, k, None)} != {want[k]}")
        q = res.get("aggregate.exact_global_quantiles")
        if q is not None:
            vals, n = exp["quantiles"]
            for qq, v in zip(qs, vals):
                got, got_n = q[qq]
                if got_n != n or not _close(got, v, rel=1e-12, abs_=0):
                    p(f"quantile {qq}: {got}/{got_n} != {v}/{n}")
        w = res.get("aggregate.winsorized_stats")
        if w is not None:
            for r in w.to_dict("records"):
                n, lo, hi, mean = exp["winsorized"][r["column_name"]]
                if r["n"] != n or not all(_rounded_close(a, b) for a, b in (
                        (r["lo_cut"], lo), (r["hi_cut"], hi),
                        (r["mean_winsorized"], mean))):
                    p(f"winsorized {r['column_name']}: {r} vs {(n, lo, hi, mean)}")
        rb = res.get("aggregate.robust_outlier_stats")
        if rb is not None:
            if list(rb["column_name"]) != list(exp["robust"]):
                p(f"robust columns {list(rb['column_name'])}")
            for r in rb.to_dict("records"):
                n, med, mad, lo, hi, outl = exp["robust"][r["column_name"]]
                if (r["n"] != n or r["n_outliers"] != outl
                        or not all(_rounded_close(a, b) for a, b in (
                            (r["median"], med), (r["mad"], mad),
                            (r["lo_fence"], lo), (r["hi_fence"], hi)))):
                    p(f"robust {r['column_name']}: {r} vs "
                      f"{(n, med, mad, lo, hi, outl)}")
        ru = res.get("aggregate.rollup_aggregate")
        if ru is not None:
            got = _rollup_rows(ru)
            want = {(reg, cat, gid): (s, n, mx)
                    for reg, cat, s, n, mx, gid in exp["rollup"]}
            if set(got) != set(want):
                p(f"rollup groups differ ({len(got)} vs {len(want)})")
            for k, (s, n, mx) in want.items():
                g = got.get(k)
                if g is not None and not (_close(_key(g["s"]), s)
                                          and int(g["n"]) == n
                                          and _close(_key(g["mx"]), mx)):
                    p(f"rollup {k}: {g} vs {(s, n, mx)}")
        gd = res.get("aggregate.group_distinct")
        if gd is not None:
            got = dict(zip(gd["region"], gd["distinct_count"].astype(int)))
            if got != exp["distinct"]:
                p(f"group_distinct {got} != {exp['distinct']}")
    return problems


def rollup_null_group(got, path: str) -> list[str]:
    """ROLLUP sums against DuckDB, SQL NULL included."""
    import duckdb

    con = duckdb.connect()
    want = con.execute(
        "SELECT region, cat, sum(m) AS s, GROUPING(region, cat) FROM "
        f"read_parquet('{path}') GROUP BY ROLLUP(region, cat)").fetchall()
    con.close()
    rows = _rollup_rows(got)
    problems = []
    for reg, cat, s, gid in want:
        g = rows.get((reg, cat, gid))
        if g is None or not _close(_key(g["s"]), s):
            problems.append(f"rollup ({reg}, {cat}, {gid}): sum "
                            f"{None if g is None else g['s']} != {s}")
    return problems


# ------------------------------------------------------------------ dedup

def shingles(text: str, k: int = 5) -> set:
    norm = re.sub(r"\s+", " ", text.lower()).strip()
    norm = norm.ljust(k)
    return {norm[i:i + k] for i in range(len(norm) - k + 1)}


def jaccard(a: set, b: set) -> float:
    return len(a & b) / len(a | b) if a or b else 1.0


def dedup_results(results: list[dict], docs_dir: str, truth: dict,
                  threshold: float) -> list[str]:
    table = _read_dir(docs_dir)
    ids = table.column("doc_id").to_pylist()
    texts = dict(zip(ids, table.column("text").to_pylist()))
    first: dict = {}
    for i in sorted(ids):
        first.setdefault(texts[i], i)
    want_exact = set(first.values())
    sh: dict = {}

    def S(i):
        if i not in sh:
            sh[i] = shingles(texts[i])
        return sh[i]

    # planted pairs well above the threshold: exact copies and near copies
    by_text: dict = {}
    for i in ids:
        by_text.setdefault(texts[i], []).append(i)
    pairs = [(g[0], j) for g in by_text.values() if len(g) > 1 for j in g[1:]]
    pairs += [(a, b) for a, b in truth["near_pairs"]
              if jaccard(S(a), S(b)) >= RECALL_JACCARD]

    problems: list[str] = []
    for r, res in enumerate(results):
        p = lambda msg: problems.append(f"round {r}: {msg}")  # noqa: E731
        ex = res.get("dedup.exact_dedup")
        if ex is not None:
            got = ex["doc_id"].tolist()
            if len(got) != len(set(got)) or set(got) != want_exact:
                p(f"exact_dedup kept {len(got)} rows, want {len(want_exact)} "
                  "(smallest id per distinct text)")
            elif any(texts[i] != t for i, t in zip(got, ex["text"])):
                p("exact_dedup row text differs from its input")
        groups = res.get("dedup.minhash_lsh_duplicate_groups")
        if groups is None:
            continue
        label = dict(zip(groups["id"].astype(int), groups["canonical_id"].astype(int)))
        members: dict = {}
        for i, c in label.items():
            members.setdefault(c, []).append(i)
        for c, ms in members.items():
            if len(ms) < 2 or c != min(ms):
                p(f"group {c}: {len(ms)} members, min id {min(ms)}")
                continue
            for i in ms:
                if not any(jaccard(S(i), S(j)) >= threshold for j in ms if j != i):
                    p(f"group {c}: member {i} has no pair at Jaccard >= {threshold}")
        found = sum(1 for a, b in pairs
                    if a in label and b in label and label[a] == label[b])
        if pairs and found < RECALL_BOUND * len(pairs):
            p(f"recall of planted pairs {found}/{len(pairs)} < {RECALL_BOUND}")
    return problems
