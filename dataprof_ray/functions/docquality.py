"""Per-document quality heuristics, language ID, and n-gram perplexity.

The north-rule document pipeline (BASELINE.json): dataprof-style heuristic
quality rules re-targeted at web documents — the same TextStats-shaped
aggregates (length, repetition, symbol ratios) computed per document instead
of per column (SURVEY.md §7). Rule thresholds follow the published Gopher /
C4 heuristic-filter families (public knowledge), made deterministic.

Everything here is pure-Python/numpy, deterministic, and safe to call inside
``map_batches`` workers. Model-like state (stopword tables, the trigram LM)
is built once per worker process (``shared_model``), never per batch.

EXTRACTION_VERSION pins the html->text function: the byte-identical-per-url
contract (BASELINE.md) requires it never changes in-stream; bump the version
and re-run instead.
"""

from __future__ import annotations

import html as html_mod
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

EXTRACTION_VERSION = "1.0"
RULES_VERSION = "1.0"

# ------------------------------------------------------------------ extraction

_SCRIPT_RE = re.compile(r"(?is)<(script|style|noscript)\b.*?</\1>")
_COMMENT_RE = re.compile(r"(?s)<!--.*?-->")
_BLOCK_TAG_RE = re.compile(
    r"(?i)</?(p|div|br|li|ul|ol|h[1-6]|tr|table|section|article|header|footer|nav|blockquote)\b[^>]*>"
)
_TAG_RE = re.compile(r"<[^>]+>")
_WS_RE = re.compile(r"[ \t\r\f\v]+")
_NL_RE = re.compile(r"\n{3,}")


def extract_text(html_bytes: Optional[bytes]) -> str:
    """Deterministic html -> text: drop script/style/comments, turn block tags
    into newlines, strip remaining tags, unescape entities, normalize
    whitespace. Pinned by EXTRACTION_VERSION (byte-identical contract)."""
    if not html_bytes:
        return ""
    try:
        raw = html_bytes.decode("utf-8", errors="replace")
    except Exception:
        return ""
    raw = _SCRIPT_RE.sub(" ", raw)
    raw = _COMMENT_RE.sub(" ", raw)
    raw = _BLOCK_TAG_RE.sub("\n", raw)
    raw = _TAG_RE.sub(" ", raw)
    raw = html_mod.unescape(raw)
    lines = []
    for line in raw.split("\n"):
        line = _WS_RE.sub(" ", line).strip()
        lines.append(line)
    text = "\n".join(lines).strip()
    text = _NL_RE.sub("\n\n", text)
    return text


# ------------------------------------------------------------------ language ID

# Compact public stopword lists (top function words per language).
_STOPWORDS: dict[str, frozenset] = {
    "en": frozenset("the of and to in a is that it for on with as was at by an be this have from or had not are but".split()),
    "de": frozenset("der die das und in den von zu mit sich des auf für ist im nicht ein eine als auch es an werden".split()),
    "fr": frozenset("le la les de des et en un une du dans est que pour qui sur pas au plus par il ne se ce".split()),
    "es": frozenset("el la los las de y en un una del se que por con no es para su al lo como más pero".split()),
    "it": frozenset("il la i le di e in un una del che per con non è si da al lo come più ma dei".split()),
}

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


class LangIdModel:
    """Stopword-profile language identifier (n-gram-heuristic family).

    Scores each language by the fraction of a document's tokens found in its
    function-word table; confidence is the winner's share of total evidence.
    Deterministic; built once per worker process (``shared_model``).
    """

    # Rust-regex spelling of python's [^\W\d_]: \w == alnum + _, \d ==
    # decimal digits, so the negated class is letters PLUS non-decimal
    # numerics (Nl roman numerals, No fractions) — \p{L} alone would
    # diverge on those tokens. Parity pinned by the batch test.
    _TOKEN_RE_RUST = r"[\p{L}\p{Nl}\p{No}]+"

    def __init__(self) -> None:
        import polars as pl

        self.langs = sorted(_STOPWORDS)
        self.tables = [_STOPWORDS[lang] for lang in self.langs]
        # word -> per-language indicator vector; scoring then iterates over
        # DISTINCT tokens only (Counter), not every token.
        self._word_vec: dict[str, np.ndarray] = {}
        for li, lang in enumerate(self.langs):
            for w in _STOPWORDS[lang]:
                vec = self._word_vec.setdefault(w, np.zeros(len(self.langs)))
                vec[li] = 1.0
        # (token, lang index) rows for the vectorized batch join — a word
        # shared by k languages contributes k rows, mirroring _word_vec
        toks, lis = [], []
        for li, lang in enumerate(self.langs):
            for w in _STOPWORDS[lang]:
                toks.append(w)
                lis.append(li)
        self._stop_df = pl.DataFrame({
            "tok": pl.Series(toks, dtype=pl.Utf8),
            "li": pl.Series(lis, dtype=pl.Int64),
        })

    def predict(self, text: str) -> tuple[str, float]:
        tokens = _WORD_RE.findall(text.lower())
        if not tokens:
            return "und", 0.0
        hits = np.zeros(len(self.langs), dtype=np.float64)
        get = self._word_vec.get
        for w, c in Counter(tokens).items():
            vec = get(w)
            if vec is not None:
                hits += vec * c
        total = hits.sum()
        if total == 0:
            return "und", 0.0
        best = int(hits.argmax())  # argmax ties break to first (sorted lang order)
        return self.langs[best], float(hits[best] / total)

    def predict_batch(self, texts) -> tuple[list[str], np.ndarray]:
        """Vectorized :meth:`predict` over a batch (value-identical —
        pinned by the batch-parity test): one Rust-regex token extraction
        + one hash join against the stopword table + one grouped count
        replace the per-doc python findall/Counter/dict loop (measured
        ~5x on the fused filter's langid share)."""
        import polars as pl

        n = len(texts)
        lowered = [(t or "").lower() for t in texts]
        toks = pl.Series("tok", lowered, dtype=pl.Utf8).str.extract_all(
            self._TOKEN_RE_RUST)
        has_tokens = (toks.list.len() > 0).to_numpy()
        agg = (pl.DataFrame({"i": pl.Series(np.arange(n, dtype=np.int64)),
                             "tok": toks})
               .explode("tok")
               .join(self._stop_df, on="tok", how="inner")
               .group_by(["i", "li"]).len())
        hits = np.zeros((n, len(self.langs)), dtype=np.float64)
        if agg.height:
            hits[agg["i"].to_numpy(), agg["li"].to_numpy()] = \
                agg["len"].to_numpy()
        total = hits.sum(axis=1)
        best = hits.argmax(axis=1)  # ties -> first (sorted lang order)
        known = has_tokens & (total > 0)
        confs = np.where(known,
                         hits[np.arange(n), best] / np.maximum(total, 1e-300),
                         0.0)
        langs = [self.langs[b] if k else "und"
                 for b, k in zip(best, known)]
        return langs, confs


# ------------------------------------------------------------------ perplexity

_LM_TRAINING_TEXT = (
    "the quick brown fox jumps over the lazy dog and runs through the field "
    "data processing systems read large tables of records and compute statistics "
    "over every column in the stream while keeping memory bounded and results exact "
    "a web page contains text that may be clean prose or repeated boilerplate "
    "language models assign probabilities to sequences of characters and words "
    "the pipeline reads parquet shards filters documents by quality rules and "
    "writes the surviving records back to partitioned storage for training "
    "common words appear often in natural text and rare symbols appear seldom "
    "this small corpus trains a character trigram model that scores how natural "
    "a piece of text looks compared to ordinary english writing in documents "
)


class TrigramLM:
    """Character-trigram language model with add-one smoothing (KenLM-style
    n-gram scoring, miniaturized and deterministic).

    ``perplexity(text)`` = exp(mean negative log prob of each char given the
    two previous). Lower = more natural relative to the training text.
    """

    VOCAB = "abcdefghijklmnopqrstuvwxyz .,"

    def __init__(self, training_text: str = _LM_TRAINING_TEXT) -> None:
        self._init_charmap()
        v = self.v
        counts = np.ones((v * v, v), dtype=np.float64)  # add-one smoothing
        idx = self._indices(training_text)
        if len(idx) >= 3:
            ctx = idx[:-2] * v + idx[1:-1]
            np.add.at(counts, (ctx, idx[2:]), 1.0)
        self.log_prob = np.log(counts / counts.sum(axis=1, keepdims=True))

    def _init_charmap(self) -> None:
        self.char_to_idx = {c: i for i, c in enumerate(self.VOCAB)}
        self.v = len(self.VOCAB)
        # Byte-level LUT so normalization is one numpy gather instead of a
        # Python char loop: vocab bytes -> index, A-Z -> lowercase index,
        # ASCII whitespace -> space, everything else (incl. multi-byte
        # UTF-8) -> dropped.
        self._lut = np.full(256, -1, dtype=np.int16)
        for c, i in self.char_to_idx.items():
            self._lut[ord(c)] = i
        for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            self._lut[ord(c)] = self.char_to_idx[c.lower()]
        for b in b"\t\n\r\x0b\x0c":
            self._lut[b] = self.char_to_idx[" "]

    @classmethod
    def from_counts(cls, raw_counts: np.ndarray) -> "TrigramLM":
        """Build an LM from RAW trigram counts (shape (v*v, v), BEFORE
        smoothing) — the constructor for corpus-trained models where the
        counting ran distributed (pipelines.lm.train_trigram_lm)."""
        obj = cls.__new__(cls)
        obj._init_charmap()
        v = obj.v
        if raw_counts.shape != (v * v, v):
            raise ValueError(f"expected counts of shape {(v * v, v)}, "
                             f"got {raw_counts.shape}")
        counts = raw_counts.astype(np.float64) + 1.0  # add-one smoothing
        obj.log_prob = np.log(counts / counts.sum(axis=1, keepdims=True))
        return obj

    def _indices(self, text: str) -> np.ndarray:
        b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        idx = self._lut[b]
        return idx[idx >= 0].astype(np.int64)

    def _normalize(self, text: str) -> str:
        idx = self._indices(text)
        return "".join(self.VOCAB[i] for i in idx)

    def perplexity(self, text: str) -> float:
        idx = self._indices(text)
        if len(idx) < 3:
            return float(self.v)  # max-entropy fallback for empty/tiny docs
        ctx = idx[:-2] * self.v + idx[1:-1]
        lp = self.log_prob[ctx, idx[2:]]
        return float(np.exp(-lp.mean()))

    def perplexity_batch(self, texts) -> np.ndarray:
        """Batched :meth:`perplexity`, bit-identical: ONE log-prob gather
        over the concatenated index stream, then per-doc means over
        contiguous views (a doc's trigram slice never crosses its
        boundary — positions e-2, e-1 of each span are simply unread).
        numpy's pairwise mean depends only on slice length, so values
        match the per-doc path exactly."""
        arrs = [self._indices(t or "") for t in texts]
        n = len(arrs)
        out = np.full(n, float(self.v), dtype=np.float64)
        if not n:
            return out
        lens = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=n)
        idx = np.concatenate(arrs) if lens.sum() else np.empty(0, np.int64)
        if len(idx) >= 3:
            ctx = idx[:-2] * self.v + idx[1:-1]
            lp_all = self.log_prob[ctx, idx[2:]]
            starts = np.concatenate([[0], np.cumsum(lens)])
            for i in range(n):
                if lens[i] >= 3:
                    s = starts[i]
                    out[i] = float(np.exp(-lp_all[s:s + lens[i] - 2].mean()))
        return out


# Process-wide model instances: the models are read-only once built, and the
# stages that use them run as stateless Ray tasks, so each worker process
# builds each model once (0.11 s) on first use instead of once per batch.
_SHARED_MODELS: dict = {}


def shared_model(cls):
    """This process's one instance of a no-argument model class
    (``LangIdModel``, ``TrigramLM``), built on first use."""
    model = _SHARED_MODELS.get(cls)
    if model is None:
        model = _SHARED_MODELS[cls] = cls()
    return model


# ------------------------------------------------------------------ heuristics


@dataclass
class DocMetrics:
    n_chars: int
    n_words: int
    mean_word_len: float
    symbol_ratio: float
    alpha_word_ratio: float
    stopword_count: int
    duplicate_line_frac: float
    top_bigram_frac: float
    bullet_line_frac: float
    ellipsis_line_frac: float
    has_boilerplate: bool


_BOILERPLATE_MARKERS = (
    "cookie", "privacy policy", "all rights reserved", "terms of service",
    "subscribe to our newsletter", "accept all cookies", "skip to content",
)
_BULLET_PREFIXES = ("-", "*", "•", "·")
_EN_STOP = _STOPWORDS["en"]
_SYMBOL_RE = re.compile(r"[#<>{}\[\]\\^~|`$%&@+=_]")
_ALPHA_WORD_RE = re.compile(r"\S*[^\W\d_]\S*", re.UNICODE)


def doc_metrics(text: str, lang: str = "en") -> DocMetrics:
    """Per-document TextStats-style aggregates (reference kernels re-targeted
    per document: length, repetition, symbol/word ratios — SURVEY.md §7).
    Stopwords counted against `lang`'s function-word table (English fallback)."""
    n_chars = len(text)
    words = text.split()
    n_words = len(words)
    mean_word_len = sum(map(len, words)) / n_words if n_words else 0.0
    symbol_count = len(_SYMBOL_RE.findall(text))
    symbol_ratio = symbol_count / n_chars if n_chars else 0.0
    # count of whitespace-tokens containing at least one letter, in one
    # C-level scan (equivalent to per-word _WORD_RE.search, 2x faster)
    alpha_words = len(_ALPHA_WORD_RE.findall(text))
    alpha_word_ratio = alpha_words / n_words if n_words else 0.0
    stop_table = _STOPWORDS.get(lang, _EN_STOP)
    low = text.lower()  # single lowercase pass, shared with boilerplate check
    # lowercasing never adds/removes whitespace, so lower-then-split
    # tokenizes identically to per-word lower
    stop_count = sum(map(stop_table.__contains__, low.split()))

    lines = [ln for ln in text.split("\n") if ln.strip()]
    n_lines = len(lines)
    if n_lines:
        line_counts = Counter(lines)
        dup_lines = sum(c - 1 for c in line_counts.values() if c > 1)
        duplicate_line_frac = dup_lines / n_lines
        bullet_frac = sum(1 for ln in lines if ln.lstrip().startswith(_BULLET_PREFIXES)) / n_lines
        ellipsis_frac = sum(1 for ln in lines if ln.rstrip().endswith("...")) / n_lines
    else:
        duplicate_line_frac = bullet_frac = ellipsis_frac = 0.0

    if n_words >= 2:
        bigrams = Counter(zip(words, words[1:]))
        top_bigram_frac = max(bigrams.values()) / (n_words - 1)
    else:
        top_bigram_frac = 0.0

    has_boiler = any(m in low for m in _BOILERPLATE_MARKERS)
    return DocMetrics(
        n_chars, n_words, mean_word_len, symbol_ratio, alpha_word_ratio, stop_count,
        duplicate_line_frac, top_bigram_frac, bullet_frac, ellipsis_frac, has_boiler,
    )


@dataclass
class FilterConfig:
    """Keep/drop rule thresholds (Gopher/C4-family heuristics)."""

    min_words: int = 40
    max_words: int = 100_000
    min_mean_word_len: float = 2.0
    max_mean_word_len: float = 12.0
    max_symbol_ratio: float = 0.10
    min_alpha_word_ratio: float = 0.80
    min_stopwords: int = 2
    max_duplicate_line_frac: float = 0.30
    max_top_bigram_frac: float = 0.18
    max_bullet_line_frac: float = 0.90
    max_ellipsis_line_frac: float = 0.30
    drop_boilerplate: bool = True
    allowed_langs: tuple = ("en", "de", "fr", "es", "it")
    min_langid_conf: float = 0.15
    max_perplexity: float = 24.0


def evaluate_rules(
    m: DocMetrics, langid: str, langid_conf: float, perplexity: float,
    config: FilterConfig,
) -> tuple[bool, str]:
    """First failing rule wins (deterministic order). Returns (keep, reason);
    reason is '' for keeps."""
    if m.n_words < config.min_words:
        return False, "too_short"
    if m.n_words > config.max_words:
        return False, "too_long"
    if not (config.min_mean_word_len <= m.mean_word_len <= config.max_mean_word_len):
        return False, "word_length"
    if m.symbol_ratio > config.max_symbol_ratio:
        return False, "symbol_ratio"
    if m.alpha_word_ratio < config.min_alpha_word_ratio:
        return False, "non_alpha"
    if m.stopword_count < config.min_stopwords:
        return False, "stopwords"
    if m.duplicate_line_frac > config.max_duplicate_line_frac:
        return False, "repetition_lines"
    if m.top_bigram_frac > config.max_top_bigram_frac:
        return False, "repetition_ngrams"
    if m.bullet_line_frac > config.max_bullet_line_frac:
        return False, "format_bullets"
    if m.ellipsis_line_frac > config.max_ellipsis_line_frac:
        return False, "format_ellipsis"
    if config.drop_boilerplate and m.has_boilerplate:
        return False, "boilerplate"
    if langid not in config.allowed_langs:
        return False, "language"
    if langid_conf < config.min_langid_conf:
        return False, "language_confidence"
    # the trigram LM is trained on English text; it only gates English docs
    if langid == "en" and perplexity > config.max_perplexity:
        return False, "perplexity"
    return True, ""


def quality_score(m: DocMetrics, langid_conf: float, perplexity: float,
                  config: FilterConfig) -> float:
    """0-100 composite mirroring the reference's weighted quality-score shape
    (quality.rs:395-411) over per-document dimensions: length adequacy,
    repetition, symbol cleanliness, language confidence, LM naturalness."""
    length_score = min(m.n_words / max(config.min_words, 1), 1.0) * 100.0
    repetition_score = max(0.0, 1.0 - m.duplicate_line_frac - m.top_bigram_frac) * 100.0
    symbol_score = max(0.0, 1.0 - m.symbol_ratio / max(config.max_symbol_ratio, 1e-9) * 0.5) * 100.0
    lang_score = min(langid_conf / max(config.min_langid_conf, 1e-9), 1.0) * 100.0
    ppl_score = max(0.0, 1.0 - perplexity / max(config.max_perplexity, 1e-9)) * 100.0
    weights = (0.25, 0.25, 0.15, 0.15, 0.20)
    scores = (length_score, repetition_score, symbol_score, lang_score, ppl_score)
    return min(sum(w * s for w, s in zip(weights, scores)), 100.0)


# Batched doc_metrics: the three python-regex scans per doc (symbol class,
# alpha-word class, boilerplate markers) run as ONE RE2 kernel call per
# BATCH; tokenization stays on python's C-level str.split (measured faster
# than materializing Arrow list arrays back into python). Parity notes:
# - \p{L} == python [^\W\d_] (Unicode letters) for the alpha-word scan;
#   RE2's own \w is ASCII-only and must NOT be used here.
# - RE2 WS class below is the spelling verified char-for-char equal to
#   python \s / str.split() whitespace (incl. \x1c-\x1f, \x85, NBSP).
# - value-identity with per-doc doc_metrics is pinned by
#   test_quality_filter's batch-parity test over adversarial unicode.
_RE2_WS = r"\t-\r\x1c-\x1f\x85\p{Z}"
# [\p{L}\p{Nl}\p{No}] is the RE2 spelling of python's [^\W\d_] (letters
# plus NON-decimal numerics — roman numerals, fractions; python \d is Nd
# only, so those survive the class subtraction)
_RE2_ALPHA_TOKEN = f"[^{_RE2_WS}]*[\\p{{L}}\\p{{Nl}}\\p{{No}}][^{_RE2_WS}]*"
_RE2_SYMBOL = r"[#<>{}\[\]\\^~|`$%&@+=_]"
_RE2_BOILER = "|".join(re.escape(m) for m in _BOILERPLATE_MARKERS)


def doc_metrics_batch(texts_arr, langs) -> list:
    """Vectorized twin of :func:`doc_metrics` over an Arrow string array
    (one :class:`DocMetrics` per row, value-identical). The regex scans
    run as Arrow/RE2 kernels on the whole column; tokenization, line
    metrics, bigram and stopword counting keep the per-doc C-level python
    path (faster than round-tripping Arrow list arrays)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts_arr, (list, tuple)):
        texts_arr = pa.array([t or "" for t in texts_arr], pa.string())
    texts_arr = pc.fill_null(texts_arr, "")
    symbol_counts = pc.count_substring_regex(
        texts_arr, pattern=_RE2_SYMBOL).to_numpy(zero_copy_only=False)
    alpha_words = pc.count_substring_regex(
        texts_arr, pattern=_RE2_ALPHA_TOKEN).to_numpy(zero_copy_only=False)
    lowered_arr = pc.utf8_lower(texts_arr)
    has_boiler = pc.match_substring_regex(
        lowered_arr, pattern=_RE2_BOILER).to_numpy(zero_copy_only=False)
    texts = texts_arr.to_pylist()
    lowered = lowered_arr.to_pylist()

    out = []
    for i, text in enumerate(texts):
        n_chars = len(text)
        words = text.split()
        n_words = len(words)
        mean_word_len = sum(map(len, words)) / n_words if n_words else 0.0
        symbol_ratio = symbol_counts[i] / n_chars if n_chars else 0.0
        alpha_word_ratio = alpha_words[i] / n_words if n_words else 0.0
        stop_table = _STOPWORDS.get(langs[i], _EN_STOP)
        low = lowered[i]
        stop_count = sum(map(stop_table.__contains__, low.split()))

        lines = [ln for ln in text.split("\n") if ln.strip()]
        n_lines = len(lines)
        if n_lines:
            line_counts = Counter(lines)
            dup_lines = sum(c - 1 for c in line_counts.values() if c > 1)
            duplicate_line_frac = dup_lines / n_lines
            bullet_frac = sum(1 for ln in lines
                              if ln.lstrip().startswith(_BULLET_PREFIXES)) / n_lines
            ellipsis_frac = sum(1 for ln in lines
                                if ln.rstrip().endswith("...")) / n_lines
        else:
            duplicate_line_frac = bullet_frac = ellipsis_frac = 0.0

        if n_words >= 2:
            bigrams = Counter(zip(words, words[1:]))
            top_bigram_frac = max(bigrams.values()) / (n_words - 1)
        else:
            top_bigram_frac = 0.0

        out.append(DocMetrics(
            n_chars, n_words, mean_word_len, float(symbol_ratio),
            float(alpha_word_ratio), int(stop_count), duplicate_line_frac,
            top_bigram_frac, bullet_frac, ellipsis_frac, bool(has_boiler[i]),
        ))
    return out
