"""Vectorized word-n-gram hashing shared by the span/line dedup and
decontamination operators.

One polars pass per batch replaces the per-document ``re.split`` +
list-comprehension + per-doc ``pl.Series(...).hash()`` loop that dominated
those operators' CPU (the reference's gram kernels are per-row Rust loops,
e.g. the tokenize paths under ``crates/dataprof-metrics/src/analysis/``;
here the whole batch is normalized, tokenized, windowed and hashed in
columnar calls).

Contract (MUST match the Python reference kernels ``dedup._wordgram_hashes``
and ``decontam._doc_ngrams`` exactly — parity is pinned by
``tests/test_grams.py`` on adversarial unicode and by full-codepoint scans):

    tokens = re.split(r"\\s+", text.lower().strip());  [] when text is
    empty/whitespace; grams = space-joined n-token windows, one per
    position, duplicates kept; hash = polars xxhash, seed 0.

Two vectorization facts this module relies on (measured/derived here, see
the pinning tests):

* polars ``str.to_lowercase`` equals CPython ``str.lower()`` for every
  codepoint EXCEPT the 55 in ``_EXOTIC_LOWER`` (Unicode-16 additions polars
  lowercases but CPython 3.x's older Unicode table does not). Rows
  containing any of them fall back to Python lowercasing (a contains-scan
  per batch; the class is so rare the fallback almost never fires).
* the Rust-regex class ``[\\t-\\r\\x1c-\\x1f\\x85\\p{Z}]`` matches exactly
  the codepoints CPython's ``\\s`` matches (``\\p{White_Space}`` differs on
  none in current tables, but the explicit class is pinned by a scan test
  so a Unicode-table drift fails loudly instead of silently).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

# Rust-regex spelling of CPython's \s (verified char-for-char by
# tests/test_grams.py::test_whitespace_class_parity)
RUST_WS = r"[\t-\r\x1c-\x1f\x85\p{Z}]"

# The 55 codepoints polars (Unicode 16) lowercases but CPython does not:
# U+1C89 (Ᲊ), eight Latin additions, U+10D50-10D65 (Garay), and
# U+16EA0-16EB8 (Beria Erfe). Pinned by a full-codepoint scan test.
EXOTIC_LOWER = ("[ᲉꟋꟌ꟎꟒꟔ꟚꟜ"
                + "".join(chr(c) for c in range(0x10D50, 0x10D66))
                + "".join(chr(c) for c in range(0x16EA0, 0x16EB9)) + "]")


def _as_string_series(texts) -> pl.Series:
    """texts (list | pyarrow Array/ChunkedArray | pl.Series) -> non-null
    polars String series (nulls become "")."""
    if isinstance(texts, pl.Series):
        s = texts
    elif isinstance(texts, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(texts)
        if not isinstance(s, pl.Series):  # pragma: no cover - table input
            s = s.to_series()
    else:
        s = pl.Series("t", ["" if t is None else t for t in texts],
                      dtype=pl.String)
    if s.dtype != pl.String:
        s = s.cast(pl.String)
    if s.null_count():
        s = s.fill_null("")
    return s


def lower_exact(raw: pl.Series) -> pl.Series:
    """Python-``str.lower()``-exact lowercase: polars kernel plus a
    per-row fallback for the 55 ``EXOTIC_LOWER`` codepoints."""
    lowered = raw.str.to_lowercase()
    ex = raw.str.contains(EXOTIC_LOWER)
    if ex.any():
        idx = np.nonzero(ex.to_numpy())[0]
        lowered = lowered.scatter(idx, [raw[int(i)].lower() for i in idx])
    return lowered


def wordgram_hashes_flat(texts, n: int, *,
                         seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(hashes, counts): uint64 hashes of every word-n-gram POSITION of
    every document, concatenated in document order (duplicates kept), and
    the per-document position counts (int64, one entry per input row).

    Value-identical to hashing ``dedup._wordgram_hashes(t, n)`` per doc —
    the flat layout lets callers vectorize the downstream searchsorted /
    Bloom-probe / bincount instead of looping documents."""
    raw = _as_string_series(texts)
    n_docs = len(raw)
    if n_docs == 0:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    norm = (lower_exact(raw)
            .str.replace_all(RUST_WS + "+", " ")
            .str.strip_chars(" "))
    toks = norm.str.split(" ")
    n_toks = toks.list.len().to_numpy().astype(np.int64)
    # "" splits to [""] — one slot in the exploded layout, zero tokens
    empty = norm.str.len_bytes().to_numpy() == 0
    n_toks = np.where(empty, 0, n_toks)
    counts = np.where(n_toks > 0, np.maximum(n_toks - n + 1, 0), 0)
    if int(counts.sum()) == 0:
        return (np.empty(0, dtype=np.uint64), counts)
    flat = toks.explode(empty_as_null=True)
    cols = {"g0": flat}
    for k in range(1, n):
        cols[f"g{k}"] = flat.shift(-k)
    gram = pl.DataFrame(cols).select(
        pl.concat_str([pl.col(f"g{k}") for k in range(n)], separator=" ",
                      ignore_nulls=False).alias("gram"))["gram"]
    # valid gram starts = the first max(L-n+1, 0) token slots of each doc
    slot_counts = np.where(n_toks == 0, 1, n_toks)  # empty doc -> 1 "" slot
    starts = np.concatenate(([0], np.cumsum(slot_counts)[:-1]))
    pos = (np.arange(len(flat), dtype=np.int64)
           - np.repeat(starts, slot_counts))
    mask = pos < np.repeat(counts, slot_counts)
    hashes = (gram.filter(pl.Series(mask))
              .hash(seed=seed).to_numpy().astype(np.uint64))
    return hashes, counts


def char_shingle_hashes_flat(texts, k: int, *,
                             seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(hashes, counts): uint64 hashes of every char-k-shingle POSITION of
    the normalized form of every document, concatenated in document order,
    plus per-document position counts.

    Normalization matches ``dedup._shingles``: lowercase, ``\\s+`` -> one
    space, strip; documents shorter than ``k`` chars are right-padded with
    spaces (one shingle). Positions keep duplicates — value-identical to
    the distinct-set form under any min-fold or set consumer (pinned by
    the minhash parity test)."""
    raw = _as_string_series(texts)
    if len(raw) == 0:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    norm = (lower_exact(raw)
            .str.replace_all(RUST_WS + "+", " ")
            .str.strip_chars(" "))
    lens = norm.str.len_chars().to_numpy().astype(np.int64)
    short = lens < k
    if short.any():
        idx = np.nonzero(short)[0]
        norm = norm.scatter(
            idx, [norm[int(i)] + " " * (k - int(lens[i])) for i in idx])
        lens = np.maximum(lens, k)
    counts = lens - k + 1
    chars = norm.str.extract_all(r"(?s).").explode(empty_as_null=True)
    cols = {"c0": chars}
    for j in range(1, k):
        cols[f"c{j}"] = chars.shift(-j)
    sh = pl.DataFrame(cols).select(
        pl.concat_str([pl.col(f"c{j}") for j in range(k)], separator="",
                      ignore_nulls=False).alias("s"))["s"]
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    pos = np.arange(len(chars), dtype=np.int64) - np.repeat(starts, lens)
    mask = pos < np.repeat(counts, lens)
    hashes = (sh.filter(pl.Series(mask))
              .hash(seed=seed).to_numpy().astype(np.uint64))
    return hashes, counts


def unique_per_doc(hashes: np.ndarray,
                   counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-document distinct hashes of a flat (hashes, counts) pair.

    Returns (uniq_hashes, doc_idx): equivalent to concatenating
    ``np.unique(doc_hashes)`` per document (ascending within each doc)
    with the owning row index alongside — but via one lexsort instead of
    a per-document Python loop."""
    if len(hashes) == 0:
        return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = np.lexsort((hashes, doc_of))
    hs, ds = hashes[order], doc_of[order]
    keep = np.ones(len(hs), dtype=bool)
    keep[1:] = (hs[1:] != hs[:-1]) | (ds[1:] != ds[:-1])
    return hs[keep], ds[keep]


def per_doc_hit_counts(match: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-document sums of a boolean/0-1 array aligned with a flat
    (hashes, counts) layout (int64, one entry per document)."""
    if len(match) == 0:
        return np.zeros(len(counts), dtype=np.int64)
    doc_of = np.repeat(np.arange(len(counts)), counts)
    return np.bincount(doc_of, weights=match,
                       minlength=len(counts)).astype(np.int64)
