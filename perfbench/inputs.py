"""Seeded input generators for the benchmark workloads.

Everything here is built from numpy's PCG64 seeded with ``--seed`` and
written as parquet under the run's work directory; the program under test
receives only those files. The ground truth planted into each input (the
category of every page, the PII strings, the duplicate groups) is written
next to the inputs, never into them.

Only numpy and pyarrow are used: nothing in this module imports the
program, so the checks that read the truth are independent of it.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Workload sizes. A filter "round" is one whole job run over every shard.
SIZES = {
    "filter_big_shards": {"shards": 2, "docs_per_shard": 1500},
    "profile_and_dedup": {"rows": 50_000, "files": 4, "base_docs": 2500},
}

# The kernel table always runs on the same batch, whatever --seed says.
KERNEL_SEED = 20261019
KERNEL_DOCS = 1024

# --------------------------------------------------------------- page corpus

_STOP = {
    "en": "the of and to in a is that it for on with as was at by an be this "
          "have from or had not are but".split(),
    "de": "der die das und in den von zu mit sich des auf für ist im nicht ein "
          "eine als auch es an werden".split(),
    "fr": "le la les de des et en un une du dans est que pour qui sur pas au "
          "plus par il ne se ce".split(),
}
_CONTENT = {
    "en": "data stream reads records tables pages text words model language "
          "storage training quality rules writes systems processing statistics "
          "column memory results natural common corpus documents pipeline field "
          "clean prose small large every while over through back sequences "
          "characters scores looks ordinary writing shards filters partitioned "
          "surviving bounded exact brown quick lazy runs jumps appear often "
          "seldom rare symbols contains compute".split(),
    "de": "daten strom liest jeden satz berechnet genaue werte über volle "
          "tabelle während speicher begrenzt bleibt ergebnisse stabil bleiben "
          "seite text wörter modell sprache regeln schreibt systeme zeilen "
          "spalten haus garten stadt wasser arbeit schule kinder zeitung".split(),
    "fr": "flux données lit chaque enregistrement calcule statistiques exactes "
          "table entière pendant mémoire reste bornée résultats stables page "
          "texte mots modèle langue règles écrit systèmes lignes colonnes "
          "maison jardin ville travail école enfants journal".split(),
}
COOKIE_TEXT = ("We use cookies to improve your experience. Accept all cookies to "
               "continue. Privacy policy and terms of service apply.")
SCRIPT_MARKER = "zqscriptmarker"
STYLE_MARKER = "zqstylemarker"
_SYMBOLS = list("#<>{}[]^~|$%&@+=")

# share of each page category in a filter corpus
CATEGORIES = (("clean_en", 0.30), ("clean_de", 0.10), ("clean_fr", 0.10),
              ("short", 0.10), ("repeat", 0.08), ("symbols", 0.08),
              ("cookie", 0.08), ("pii", 0.08), ("html", 0.08))


def _prose(rng, lang: str, n_words: int, words_per_line: int = 12) -> str:
    stop, content = _STOP[lang], _CONTENT[lang]
    is_stop = rng.random(n_words) < 0.4
    si = rng.integers(0, len(stop), n_words)
    ci = rng.integers(0, len(content), n_words)
    words = [stop[s] if f else content[c] for f, s, c in zip(is_stop, si, ci)]
    return "\n".join(" ".join(words[i:i + words_per_line])
                     for i in range(0, n_words, words_per_line))


def _luhn(prefix15: str) -> str:
    total = 0
    for i, ch in enumerate(prefix15):
        d = int(ch)
        if i % 2 == 0:  # doubled positions of the 16-digit number
            d = d * 2 - 9 if d * 2 > 9 else d * 2
        total += d
    return prefix15 + str((10 - total % 10) % 10)


def _iban(rng) -> str:
    bban = "".join(str(d) for d in rng.integers(0, 10, 18))
    numeric = bban + "1314" + "00"  # D=13, E=14
    return f"DE{98 - int(numeric) % 97:02d}{bban}"


def _pii_strings(rng) -> list[str]:
    card = _luhn("4" + "".join(str(d) for d in rng.integers(0, 10, 14)))
    return [
        f"person{rng.integers(100, 999)}@mail{rng.integers(10, 99)}.example.org",
        _iban(rng),
        " ".join(card[i:i + 4] for i in range(0, 16, 4)),
        f"{rng.integers(101, 599)}-{rng.integers(10, 99)}-{rng.integers(1001, 9999)}",
        f"+1 {rng.integers(201, 989)}-{rng.integers(201, 989)}-{rng.integers(1001, 9999)}",
        f"{rng.integers(11, 223)}.{rng.integers(0, 255)}.{rng.integers(0, 255)}."
        f"{rng.integers(1, 254)}",
    ]


def page(rng, cat: str) -> tuple[str, bytes, str, dict]:
    """One page: (text, html, declared lang, planted truth)."""
    truth: dict = {"cat": cat}
    if cat.startswith("clean_"):
        lang = cat[6:]
        truth["lang"] = lang
        return _prose(rng, lang, int(rng.integers(80, 240))), b"", lang, truth
    if cat == "short":
        return _prose(rng, "en", int(rng.integers(3, 13))), b"", "en", truth
    if cat == "repeat":
        line = _prose(rng, "en", 10, words_per_line=10)
        return "\n".join([line] * int(rng.integers(15, 30))), b"", "en", truth
    if cat == "symbols":
        junk = "".join(rng.choice(_SYMBOLS, 400))
        body = _prose(rng, "en", 60) + " " + " ".join(
            junk[i:i + 4] for i in range(0, 400, 4))
        return body, b"", "en", truth
    if cat == "cookie":
        return COOKIE_TEXT + "\n" + _prose(rng, "en", 80), b"", "en", truth
    if cat == "pii":
        words = _prose(rng, "en", int(rng.integers(120, 220))).split(" ")
        planted = _pii_strings(rng)[: int(rng.integers(2, 7))]
        # at least two prose words between planted strings: the scrubber
        # misses a card that directly follows an SSN (see CHANGES.md)
        slots = rng.choice(np.arange(2, len(words) - 1, 3), len(planted),
                           replace=False)
        for pos, tok in sorted(zip(slots, planted), reverse=True):
            words.insert(int(pos), tok)
        truth["pii"] = planted
        return " ".join(words), b"", "en", truth
    # html-only page: text is empty, every paragraph must be extracted
    paras = _prose(rng, "en", int(rng.integers(80, 200))).split("\n")
    truth["paras"] = paras
    html = ("<html><head><title>page</title>"
            f"<script>var {SCRIPT_MARKER} = 1;</script>"
            f"<style>.{STYLE_MARKER} {{ margin: 0 }}</style></head><body><div>"
            + "".join(f"<p>{p}</p>" for p in paras)
            + "</div></body></html>")
    return "", html.encode(), "en", truth


def corpus(seed: int, n_docs: int, tag: str) -> tuple[pa.Table, list[dict]]:
    rng = np.random.default_rng(seed)
    names = [c for c, _ in CATEGORIES]
    probs = np.array([p for _, p in CATEGORIES])
    cats = rng.choice(names, size=n_docs, p=probs / probs.sum())
    base = np.datetime64("2026-01-01T00:00:00", "ms")
    ts = base + rng.integers(0, 30 * 86_400_000, n_docs).astype("timedelta64[ms]")
    urls, texts, htmls, langs, truth = [], [], [], [], []
    for i, cat in enumerate(cats):
        text, html, lang, t = page(rng, str(cat))
        url = f"https://host{int(rng.integers(0, 50))}.example.net/{tag}/{i}"
        t["url"] = url
        urls.append(url)
        texts.append(text)
        htmls.append(html)
        langs.append(lang)
        truth.append(t)
    table = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("ms")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
    return table, truth


def write_corpus(work: str, seed: int, shards: int, docs_per_shard: int) -> None:
    warm = os.path.join(work, "warm_corpus")
    os.makedirs(warm)
    pq.write_table(corpus(KERNEL_SEED, 30, "warm")[0],
                   os.path.join(warm, "shard_0000.parquet"))
    src = os.path.join(work, "corpus")
    os.makedirs(src)
    truth_all = []
    for s in range(shards):
        table, truth = corpus(seed * 1000 + s, docs_per_shard, f"s{seed}-{s}")
        pq.write_table(table, os.path.join(src, f"shard_{s:04d}.parquet"))
        truth_all.extend(truth)
    with open(os.path.join(work, "truth.json"), "w") as f:
        json.dump(truth_all, f)


def write_ramp_corpus(path: str, shards: int = 4, docs: int = 2048) -> None:
    """Fixed corpus of the traced ramp measurement: 4 shards of 2,048
    pages, one filter batch each, so the output streams in several blocks
    (a smaller input leaves the pipeline a single output block)."""
    os.makedirs(path)
    for s in range(shards):
        pq.write_table(corpus(KERNEL_SEED + 1 + s, docs, f"ramp{s}")[0],
                       os.path.join(path, f"shard_{s:04d}.parquet"))


def kernel_batch() -> pa.Table:
    """The fixed 1,024-page batch of the kernel table (same every run)."""
    return corpus(KERNEL_SEED, KERNEL_DOCS, "kernel")[0]


# --------------------------------------------------------------- table

REGIONS = ["north", "south", "east", "west", "central", "coast", "hills", "isles"]


def write_table(work: str, seed: int, rows: int, files: int,
                name: str = "table") -> None:
    rng = np.random.default_rng(seed)
    ids = np.arange(rows, dtype=np.int64)
    i_val = rng.integers(-50_000, 1_000_000, rows)
    f_val = rng.normal(100.0, 15.0, rows)
    # heavy right tail (Pareto, alpha 1.5) plus a few extreme outliers
    f_heavy = (rng.pareto(1.5, rows) + 1.0) * 10.0
    f_heavy[rng.integers(0, rows, 20)] *= 1e4
    region = rng.choice(np.array(REGIONS), rows)
    cat = np.char.add("c", rng.integers(0, 60, rows).astype(str))
    user = np.char.add("u", rng.integers(0, rows // 3, rows).astype(str))
    base = np.datetime64("2025-01-01T00:00:00", "ms")
    ts = base + rng.integers(0, 365 * 86_400_000, rows).astype("timedelta64[ms]")

    def nulls(share):
        return rng.random(rows) < share

    table = pa.table({
        "id": pa.array(ids),
        "i_val": pa.array(i_val, mask=nulls(0.02)),
        "f_val": pa.array(f_val, mask=nulls(0.05)),
        "f_heavy": pa.array(f_heavy, mask=nulls(0.03)),
        "region": pa.array(region, pa.string()),
        "cat": pa.array(cat, pa.string()),
        "user": pa.array(user, pa.string()),
        "ts": pa.array(ts, pa.timestamp("ms"), mask=nulls(0.01)),
    })
    out = os.path.join(work, name)
    os.makedirs(out)
    per = -(-rows // files)
    for k in range(files):
        pq.write_table(table.slice(k * per, per),
                       os.path.join(out, f"part_{k:02d}.parquet"))


def _write_fault_inputs(work: str) -> None:
    """Tiny fixed inputs of the operations that fail on the program today.
    They do not depend on --seed."""
    d = os.path.join(work, "faults")
    os.makedirs(d)
    # region 'b' has only NULL measures: SQL gives NULL for its sums
    pq.write_table(pa.table({
        "region": pa.array(["a", "a", "b", "b", "c"]),
        "cat": pa.array(["x", "y", "x", "y", "x"]),
        "m": pa.array([1.5, 2.0, None, None, 4.0], pa.float64()),
    }), os.path.join(d, "rollup_null_group.parquet"))
    pq.write_table(pa.table({"v": pa.array([], pa.float64()),
                             "w": pa.array([], pa.int64())}),
                   os.path.join(d, "zero_rows.parquet"))


# --------------------------------------------------------------- dedup docs

def _vocab(rng, n: int) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lens = rng.integers(3, 10, n)
    return ["".join(rng.choice(letters, k)) for k in lens]


def write_dedup_docs(work: str, seed: int, base_docs: int,
                     name: str = "docs") -> None:
    """Base documents plus planted groups:
    - exact copies of 6% of the bases (1, 2 or 3 copies, in turn);
    - near copies of 8% of the bases, 1-3 words of ~150 replaced
      (shingle Jaccard well above 0.7);
    - far variants of 4% of the bases, half the words replaced
      (Jaccard far below 0.7; must not be verified as duplicates)."""
    rng = np.random.default_rng(seed)
    vocab = _vocab(rng, 3000)
    texts, planted_near = [], []
    for _ in range(base_docs):
        texts.append(" ".join(vocab[j] for j in
                               rng.integers(0, len(vocab), int(rng.integers(100, 200)))))

    def mutate(text: str, n_changes: int) -> str:
        words = text.split(" ")
        for pos in rng.choice(len(words), n_changes, replace=False):
            words[pos] = vocab[int(rng.integers(0, len(vocab)))]
        return " ".join(words)

    extra = []
    exact = rng.choice(base_docs, int(base_docs * 0.06), replace=False)
    # 1, 2, 3 copies in turn: the row count is the same for every seed
    for b, copies in zip(exact, np.resize([1, 2, 3], len(exact))):
        for _ in range(int(copies)):
            extra.append((int(b), texts[b]))
    for b in rng.choice(base_docs, int(base_docs * 0.08), replace=False):
        extra.append((int(b), mutate(texts[b], int(rng.integers(1, 4)))))
        planted_near.append(len(extra) - 1)
    for b in rng.choice(base_docs, int(base_docs * 0.04), replace=False):
        n = len(texts[b].split(" "))
        extra.append((int(b), mutate(texts[b], n // 2)))
    all_texts = texts + [t for _, t in extra]
    # ids are a seeded permutation, so the smallest id of a group is not
    # always the base document
    ids = rng.permutation(len(all_texts)).astype(np.int64) * 3 + 7
    near_pairs = [[int(ids[extra[k][0]]), int(ids[base_docs + k])]
                  for k in planted_near]
    order = rng.permutation(len(all_texts))
    table = pa.table({"doc_id": pa.array(ids[order]),
                      "text": pa.array([all_texts[i] for i in order], pa.string())})
    out = os.path.join(work, name)
    os.makedirs(out)
    per = -(-table.num_rows // 4)
    for k in range(4):
        pq.write_table(table.slice(k * per, per),
                       os.path.join(out, f"part_{k:02d}.parquet"))
    with open(os.path.join(work, f"{name}_truth.json"), "w") as f:
        json.dump({"near_pairs": near_pairs}, f)


def generate(workload: str, seed: int, work: str) -> None:
    size = SIZES[workload]
    if workload.startswith("filter_"):
        write_corpus(work, seed, size["shards"], size["docs_per_shard"])
    elif workload == "profile_and_dedup":
        write_table(work, seed, size["rows"], size["files"])
        write_table(work, KERNEL_SEED, 500, size["files"], name="warm_table")
        _write_fault_inputs(work)
        write_dedup_docs(work, seed, size["base_docs"])
        write_dedup_docs(work, KERNEL_SEED, 160, name="warm_docs")
    else:
        raise ValueError(f"unknown workload {workload!r}")
