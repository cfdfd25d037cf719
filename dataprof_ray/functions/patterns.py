"""Pattern detection + semantic validators + PII scrubbing.

Re-implements (behavior parity, not a port) the reference's 35 detectors and
the detection algorithm:
- detector table:       /root/reference/crates/dataprof-metrics/src/analysis/patterns.rs:43-401
- detection algorithm:  patterns.rs:489-686 (RegexSet pre-filter -> per-pattern
  threshold + validator pass rate -> specificity overlap suppression ->
  confidence -> locale adjustment -> sort by confidence desc)
- validators:           /root/reference/crates/dataprof-metrics/src/analysis/validators.rs

The scrubber applies unanchored variants of the Contact/Identifier/Financial
detectors (the PII categories) to free text, validator-gated, replacing each
hit with a category placeholder. Compiled once per process (module level) so
``map_batches`` workers pay compilation once.
"""

from __future__ import annotations

import ipaddress
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CONTACT = "Contact"
IDENTIFIER = "Identifier"
NETWORK = "Network"
GEOGRAPHIC = "Geographic"
FINANCIAL = "Financial"
FILEPATH = "FilePath"
OTHER = "Other"

# ---------------------------------------------------------------- validators


def validate_coordinates(s: str) -> bool:
    """Lat/lon pair; rejects decimal-comma numbers like ``1.234,56``
    (validators.rs:19-49)."""
    if "," not in s:
        return False
    lat_raw, lon_raw = s.split(",", 1)
    has_sep_ws = lon_raw[:1].isspace()
    lat = lat_raw.strip()
    lon = lon_raw.strip()
    if (
        not has_sep_ws
        and not lon.startswith(("+", "-"))
        and len(lon) == 2
        and lon.isdigit()
    ):
        unsigned_lat = lat.lstrip("+-")
        if "." in unsigned_lat:
            whole, frac = unsigned_lat.split(".", 1)
            if 1 <= len(whole) <= 3 and whole.isdigit() and len(frac) == 3 and frac.isdigit():
                return False
    try:
        latf, lonf = float(lat), float(lon)
    except ValueError:
        return False
    return -90.0 <= latf <= 90.0 and -180.0 <= lonf <= 180.0


def validate_cap_it(s: str) -> bool:
    """Italian CAP range 00010-98168 (validators.rs:55-60)."""
    try:
        return 10 <= int(s) <= 98168
    except ValueError:
        return False


def validate_piva_it(s: str) -> bool:
    """Italian P.IVA check digit (validators.rs:68-88)."""
    if len(s) != 11 or not s.isdigit():
        return False
    digits = [int(c) for c in s]
    total = 0
    for i, d in enumerate(digits[:10]):
        if i % 2 == 0:
            total += d
        else:
            doubled = d * 2
            total += doubled - 9 if doubled > 9 else doubled
    return (10 - total % 10) % 10 == digits[10]


_CF_ODD = {
    "0": 1, "1": 0, "2": 5, "3": 7, "4": 9, "5": 13, "6": 15, "7": 17, "8": 19,
    "9": 21, "A": 1, "B": 0, "C": 5, "D": 7, "E": 9, "F": 13, "G": 15, "H": 17,
    "I": 19, "J": 21, "K": 2, "L": 4, "M": 18, "N": 20, "O": 11, "P": 3, "Q": 6,
    "R": 8, "S": 12, "T": 14, "U": 16, "V": 10, "W": 22, "X": 25, "Y": 24, "Z": 23,
}


def validate_codice_fiscale(s: str) -> bool:
    """Codice Fiscale check character (validators.rs:94-167)."""
    if len(s) != 16:
        return False
    total = 0
    for i, c in enumerate(s[:15]):
        if i % 2 == 0:  # odd position, 1-indexed
            v = _CF_ODD.get(c)
            if v is None:
                return False
            total += v
        else:
            if c.isdigit():
                total += int(c)
            elif "A" <= c <= "Z":
                total += ord(c) - ord("A")
            else:
                return False
    return s[15] == chr(ord("A") + total % 26)


def validate_iban(s: str) -> bool:
    """ISO 7064 Mod 97-10 (validators.rs:174-212)."""
    s = s.strip()
    if not 5 <= len(s) <= 34:
        return False
    rearranged = s[4:] + s[:4]
    numeric = []
    for c in rearranged:
        if c.isdigit():
            numeric.append(c)
        elif "A" <= c <= "Z":
            numeric.append(str(ord(c) - ord("A") + 10))
        else:
            return False
    return int("".join(numeric)) % 97 == 1


def validate_credit_card(s: str) -> bool:
    """Luhn (validators.rs:218-241)."""
    digits = [c for c in s if c not in " -"]
    if not (13 <= len(digits) <= 19) or not all(c.isdigit() for c in digits):
        return False
    nums = [int(c) for c in digits]
    parity = len(nums) % 2
    total = 0
    for i, d in enumerate(nums):
        if i % 2 == parity:
            doubled = d * 2
            total += doubled - 9 if doubled > 9 else doubled
        else:
            total += d
    return total % 10 == 0


def validate_ipv6(s: str) -> bool:
    try:
        ipaddress.IPv6Address(s)
        return True
    except ValueError:
        return False


def validate_ssn_us(s: str) -> bool:
    """Area not 000/666/900+, group and serial non-zero (validators.rs:255-266)."""
    clean = "".join(c for c in s if c.isdigit())
    if len(clean) != 9:
        return False
    area, group, serial = int(clean[:3]), int(clean[3:5]), int(clean[5:])
    return area != 0 and area != 666 and area < 900 and group != 0 and serial != 0


# ---------------------------------------------------------------- detector table


@dataclass(frozen=True)
class PatternDef:
    name: str
    regex: str
    category: str
    specificity: int  # 10-95
    locale: Optional[str]
    min_threshold: float  # match% must be strictly greater
    validator: Optional[Callable[[str], bool]] = None


PATTERN_DEFS: list[PatternDef] = [
    PatternDef("Email", r"^[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}$", CONTACT, 80, None, 3.0),
    PatternDef("Phone (US)", r"^\+?1?[-.\s]?\(?[0-9]{3}\)?[-.\s]?[0-9]{3}[-.\s]?[0-9]{4}$", CONTACT, 70, "US", 5.0),
    PatternDef("Phone (IT)", r"^(?:\+39|0039)[-.\s]?(?:0[0-9]{1,3}|3[0-9]{2})[-.\s]?[0-9]{5,8}$", CONTACT, 70, "IT", 5.0),
    PatternDef("URL", r"^(?:https?|ftps?)://[^\s/$.?#].[^\s]*$", NETWORK, 70, None, 5.0),
    PatternDef("UUID", r"^[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$", IDENTIFIER, 85, None, 3.0),
    PatternDef("IPv4", r"^(?:(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\.){3}(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)$", NETWORK, 65, None, 3.0),
    PatternDef("IPv6", r"^[0-9a-fA-F]*:[0-9a-fA-F:.]*$", NETWORK, 75, None, 3.0, validate_ipv6),
    PatternDef("MAC Address", r"^([0-9A-Fa-f]{2}[:-]){5}([0-9A-Fa-f]{2})$", NETWORK, 80, None, 5.0),
    PatternDef("Geographic Coordinates", r"^[-+]?([1-8]?\d(\.\d+)?|90(\.0+)?),\s*[-+]?(180(\.0+)?|((1[0-7]\d)|([1-9]?\d))(\.\d+)?)$", GEOGRAPHIC, 75, None, 5.0, validate_coordinates),
    PatternDef("IBAN", r"^[A-Z]{2}\d{2}[A-Z0-9]{1,30}$", FINANCIAL, 90, None, 5.0, validate_iban),
    PatternDef("Codice Fiscale (IT)", r"^[A-Z]{6}\d{2}[A-Z]\d{2}[A-Z]\d{3}[A-Z]$", IDENTIFIER, 95, "IT", 5.0, validate_codice_fiscale),
    PatternDef("P.IVA (IT)", r"^\d{11}$", IDENTIFIER, 40, "IT", 25.0, validate_piva_it),
    PatternDef("CAP (IT)", r"^\d{5}$", GEOGRAPHIC, 35, "IT", 20.0, validate_cap_it),
    PatternDef("ZIP Code (US)", r"^\d{5}(-\d{4})?$", GEOGRAPHIC, 35, "US", 15.0),
    PatternDef("File Path (Unix)", r"^(/[^/\x00]+)+/?$", FILEPATH, 30, None, 10.0),
    PatternDef("File Path (Windows)", r'^[A-Z]:\\(?:[^\\/:*?"<>|\r\n]+\\)*[^\\/:*?"<>|\r\n]*$', FILEPATH, 30, None, 10.0),
    PatternDef("Credit Card", r"^[0-9]{4}[\s-]?[0-9]{4}[\s-]?[0-9]{4}[\s-]?[0-9]{1,4}$", FINANCIAL, 60, None, 10.0, validate_credit_card),
    PatternDef("SSN (US)", r"^\d{3}-?\d{2}-?\d{4}$", IDENTIFIER, 70, "US", 10.0, validate_ssn_us),
    PatternDef("UK Postcode", r"^[A-Z]{1,2}\d[A-Z\d]?\s?\d[A-Z]{2}$", GEOGRAPHIC, 50, "GB", 15.0),
    PatternDef("German PLZ", r"^\d{5}$", GEOGRAPHIC, 30, "DE", 20.0),
    PatternDef("Canadian Postal Code", r"^[A-Z]\d[A-Z]\s?\d[A-Z]\d$", GEOGRAPHIC, 50, "CA", 15.0),
    PatternDef("French Code Postal", r"^\d{5}$", GEOGRAPHIC, 30, "FR", 20.0),
    PatternDef("Hex Color", r"^#[0-9a-fA-F]{6}$", OTHER, 60, None, 10.0),
    PatternDef("SWIFT/BIC", r"^[A-Z]{6}[A-Z0-9]{2}([A-Z0-9]{3})?$", FINANCIAL, 75, None, 10.0),
    PatternDef("Currency", r"^[$€£¥₹]\s?-?\d{1,3}([,.\s]\d{3})*([.,]\d{1,2})?$|^-?\d{1,3}([,.\s]\d{3})*([.,]\d{1,2})?\s?[$€£¥₹]$", OTHER, 40, None, 15.0),
    PatternDef("Percentage", r"^-?\d+([.,]\d+)?\s?%$", OTHER, 35, None, 15.0),
    PatternDef("Alphanumeric Code", r"^[A-Z]{2,}[_-]\d{2,}$", IDENTIFIER, 15, None, 30.0),
    PatternDef("Scientific Notation", r"^[-+]?\d+(\.\d+)?[eE][-+]?\d+$", OTHER, 20, None, 20.0),
    PatternDef("Labeled Identifier", r"^[A-Za-z]+[_-][A-Za-z0-9]+$", IDENTIFIER, 10, None, 35.0),
    PatternDef("Date (ISO)", r"^\d{4}-\d{2}-\d{2}$", OTHER, 50, None, 5.0),
    PatternDef("Date (EU slash)", r"^\d{2}/\d{2}/\d{4}$", OTHER, 50, None, 5.0),
    PatternDef("Date (EU dash)", r"^\d{2}-\d{2}-\d{4}$", OTHER, 50, None, 5.0),
    PatternDef("Date (YYYY/MM/DD)", r"^\d{4}/\d{2}/\d{2}$", OTHER, 50, None, 5.0),
    PatternDef("Date (EU dot)", r"^\d{2}\.\d{2}\.\d{4}$", OTHER, 50, None, 5.0),
    PatternDef("DateTime (ISO)", r"^\d{4}-\d{2}-\d{2}T\d{2}:", OTHER, 55, None, 5.0),
]

assert len(PATTERN_DEFS) == 35  # patterns.rs:1422 asserts the detector count

_COMPILED = [re.compile(d.regex) for d in PATTERN_DEFS]


@dataclass
class Pattern:
    name: str
    regex: str
    match_count: int
    match_percentage: float
    category: str
    confidence: float


def compute_confidence(specificity: int, match_percentage: float, validator_pass_rate: float) -> float:
    base = specificity / 100.0
    match_factor = min(max(match_percentage / 50.0, 0.0), 1.0)
    return min(max(base * match_factor * validator_pass_rate, 0.0), 1.0)


# RE2 (pyarrow.compute) and Python ``re`` read these detectors alike over
# printable ASCII plus tab, form feed and CR: there \d, \w and \s mean the
# same to both, and a trimmed value never ends in the newline that Python's
# ``$`` would accept. A value with any other character (a non-ASCII digit,
# letter or space, \v, \x1c-\x1f, a newline, a control) goes to ``re``.
_RE2_SAFE = r"^[\t\f\r -~]*$"


def _match_bitmaps(values: list[str]) -> np.ndarray:
    """(detector x value) search results: RE2 over the RE2-safe values in
    one Arrow call per detector, Python ``re`` over the rest."""
    bitmaps = np.zeros((len(PATTERN_DEFS), len(values)), dtype=bool)
    arr = pa.array(values, pa.string())
    safe_mask = pc.match_substring_regex(arr, _RE2_SAFE)
    safe_values = arr.filter(safe_mask)
    safe = safe_mask.to_numpy(zero_copy_only=False)
    rest = [(j, values[j]) for j in np.nonzero(~safe)[0].tolist()]
    for k, (def_, rx) in enumerate(zip(PATTERN_DEFS, _COMPILED)):
        if len(safe_values):
            bitmaps[k, safe] = pc.match_substring_regex(
                safe_values, def_.regex).to_numpy(zero_copy_only=False)
        for j, v in rest:
            bitmaps[k, j] = rx.search(v) is not None
    return bitmaps


def detect_patterns(data: list[str], locale: Optional[str] = None) -> list[Pattern]:
    """Column-level pattern detection over (typically sampled) string values:
    ``detect_patterns_counts`` over the distinct trimmed values."""
    counts = Counter(str(v).strip() for v in data)
    return detect_patterns_counts(list(counts), np.fromiter(counts.values(), np.int64,
                                                            len(counts)), locale)


def detect_patterns_counts(values: list[str], counts, locale: Optional[str] = None) -> list[Pattern]:
    """Pattern detection over trimmed sample values given once each with
    their ``counts`` (patterns.rs:489-686). Every detector and validator
    runs once per entry; match counts, overlaps and pass rates are weighted
    by the counts, so the result is the one a per-row scan would give."""
    normalized_locale = None
    if locale is not None and locale.strip():
        normalized_locale = locale.strip().upper()

    keep = [i for i, v in enumerate(values) if v]
    values = [values[i] for i in keep]
    counts = np.asarray(counts, dtype=np.int64)[keep]
    n = int(counts.sum())
    if n == 0:
        return []

    candidates = []  # (def, match_count, match_pct, bitmap, validator_rate)
    for def_, bitmap in zip(PATTERN_DEFS, _match_bitmaps(values)):
        match_count = int(counts[bitmap].sum())
        match_pct = match_count / n * 100.0
        if match_pct <= def_.min_threshold:
            continue
        if def_.validator is not None and match_count > 0:
            hits = np.nonzero(bitmap)[0].tolist()
            passed = sum(int(counts[j]) for j in hits if def_.validator(values[j]))
            rate = passed / match_count
        else:
            rate = 1.0
        if rate > 0.0:
            candidates.append((def_, match_count, match_pct, bitmap, rate))

    # Phase 2: specificity overlap suppression (>=80% coverage, strictly more specific)
    suppressed = [False] * len(candidates)
    order = sorted(range(len(candidates)), key=lambda i: -candidates[i][0].specificity)
    for pos, a_idx in enumerate(order):
        if suppressed[a_idx]:
            continue
        a_def, _, _, a_bitmap, _ = candidates[a_idx]
        for b_idx in order[pos + 1:]:
            if suppressed[b_idx]:
                continue
            b_def, b_count, _, b_bitmap, _ = candidates[b_idx]
            if a_def.specificity <= b_def.specificity or b_count == 0:
                continue
            overlap = int(counts[a_bitmap & b_bitmap].sum())
            if overlap / b_count >= 0.80:
                suppressed[b_idx] = True

    # Phase 3: locale-adjusted confidence
    results: list[Pattern] = []
    for idx, (def_, match_count, match_pct, bitmap, rate) in enumerate(candidates):
        if suppressed[idx]:
            continue
        confidence = compute_confidence(def_.specificity, match_pct, rate)
        if normalized_locale is not None:
            if def_.locale is not None:
                if def_.locale.upper() == normalized_locale:
                    confidence = min(confidence * 1.2, 1.0)
                    if match_pct >= 80.0 and rate >= 0.8:
                        confidence = max(confidence, 0.5)
                else:
                    continue  # non-matching locale suppressed
        elif def_.locale is not None:
            distinct_locales = {
                other_def.locale
                for other_idx, (other_def, _, _, other_bitmap, _) in enumerate(candidates)
                if not suppressed[other_idx]
                and (
                    other_idx == idx
                    or (
                        other_def.locale != def_.locale
                        and other_def.locale is not None
                        and other_def.category == def_.category
                        and np.array_equal(other_bitmap, bitmap)
                    )
                )
            }
            confidence *= 0.75 / max(len(distinct_locales), 1)
        results.append(
            Pattern(def_.name, def_.regex, match_count, match_pct, def_.category, confidence)
        )

    results.sort(key=lambda p: -p.confidence)
    return results


# ---------------------------------------------------------------- PII scrubbing

# Unanchored variants of the Contact / Identifier / Financial detectors for
# free-text scrubbing (north rule). Order matters: more specific first so e.g.
# an IBAN isn't partially eaten by the credit-card rule. Every hit is
# validator-gated (fail closed: an invalid checksum is NOT scrubbed, matching
# the reference's validator-confidence behavior on columns).
_B = r"(?<![A-Za-z0-9])"
_E = r"(?![A-Za-z0-9])"

SCRUB_DEFS: list[tuple[str, str, str, Optional[Callable[[str], bool]]]] = [
    ("EMAIL", r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}", CONTACT, None),
    ("IBAN", _B + r"[A-Z]{2}\d{2}[A-Z0-9]{10,30}" + _E, FINANCIAL, validate_iban),
    ("UUID", _B + r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}" + _E, IDENTIFIER, None),
    ("CODICE_FISCALE", _B + r"[A-Z]{6}\d{2}[A-Z]\d{2}[A-Z]\d{3}[A-Z]" + _E, IDENTIFIER, validate_codice_fiscale),
    ("CREDIT_CARD", _B + r"[0-9]{4}[ -]?[0-9]{4}[ -]?[0-9]{4}[ -]?[0-9]{1,4}" + _E, FINANCIAL, validate_credit_card),
    ("SSN", _B + r"\d{3}-\d{2}-\d{4}" + _E, IDENTIFIER, validate_ssn_us),
    ("PHONE", _B + r"\+?1[-. ]\(?[0-9]{3}\)?[-. ][0-9]{3}[-. ][0-9]{4}" + _E, CONTACT, None),
    ("IPV4", _B + r"(?:(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\.){3}(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)" + _E, NETWORK, None),
]

_SCRUB_COMPILED = [(name, re.compile(rx), cat, v) for name, rx, cat, v in SCRUB_DEFS]
_SCRUB_PREFILTER = re.compile("|".join(rx for _, rx, _, _ in SCRUB_DEFS))
# Level-0 prefilter: every scrub pattern requires a digit or '@' except a
# UUID whose 32 hex chars happen to all be a-f (P ~ (6/16)^32 ~ 2e-14,
# accepted; pipeline and oracle share this code so parity is unaffected).
# A single-char-class scan is ~10x cheaper than the big alternation.
_QUICK_PREFILTER = re.compile(r"[0-9@]")

SCRUB_CATEGORIES = {CONTACT, IDENTIFIER, FINANCIAL, NETWORK}

# ---------------------------------------------------------------- toxicity
#
# Deterministic toxicity lexicon stage (BASELINE.json north rule names
# "PII/toxicity regex sets"). The real deployment swaps in a curated
# lexicon / classifier; this placeholder list keeps the plumbing — word
# boundary matching, masking, per-doc counts — real and testable without
# embedding actual slurs in the repository.
TOXICITY_LEXICON = (
    "badword", "slur1", "slur2", "expletive", "obscenity",
)
_TOXICITY_RE = re.compile(
    r"\b(" + "|".join(re.escape(w) for w in TOXICITY_LEXICON) + r")\b",
    re.IGNORECASE,
)


def toxicity_scan(text: str) -> tuple[int, str]:
    """(hit_count, masked_text): lexicon hits replaced with '<TOXIC>'."""
    if not text:
        return 0, text
    masked, count = _TOXICITY_RE.subn("<TOXIC>", text)
    return count, masked


def toxicity_series(texts) -> tuple[np.ndarray, list[str]]:
    counts = np.zeros(len(texts), dtype=np.int64)
    out = []
    for i, t in enumerate(texts):
        c, m = toxicity_scan(t or "")
        counts[i] = c
        out.append(m)
    return counts, out


def scrub_text(text: str) -> tuple[str, int]:
    """Replace validator-passing PII hits with ``<NAME>`` placeholders.

    Returns (scrubbed_text, replacement_count). Deterministic: rules applied
    in SCRUB_DEFS order, left to right.
    """
    total = 0

    for name, rx, _cat, validator in _SCRUB_COMPILED:
        if validator is None:
            text, k = rx.subn(f"<{name}>", text)
            total += k
        else:
            # a rejected candidate must not consume its characters: the
            # search resumes one past its start, so a valid hit that
            # overlaps it (a card right after an SSN) is still tried
            out = []
            last = 0
            k = 0
            m = rx.search(text)
            while m is not None:
                if validator(m.group(0)):
                    out.append(text[last:m.start()])
                    out.append(f"<{name}>")
                    last = m.end()
                    k += 1
                    m = rx.search(text, m.end())
                else:
                    m = rx.search(text, m.start() + 1)
            if k:
                out.append(text[last:])
                text = "".join(out)
                total += k
    return text, total


def scrub_series(texts) -> tuple[list[str], np.ndarray]:
    """Scrub a sequence of documents; returns (scrubbed list, per-doc counts).

    Fast path: a single combined pre-filter regex skips documents with no
    candidate hits (the common case in a web corpus) so the per-rule pass only
    runs on candidates.
    """
    combined = _SCRUB_PREFILTER
    quick = _QUICK_PREFILTER
    out = []
    counts = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        if t and quick.search(t) and combined.search(t):
            scrubbed, k = scrub_text(t)
            out.append(scrubbed)
            counts[i] = k
        else:
            out.append(t)
    return out, counts


def list_patterns(locale: Optional[str] = None) -> list:
    """List supported pattern detectors in detector order — the reference's
    public ``dataprof.list_patterns`` (python/dataprof/__init__.py:514).
    With a locale, returns universal patterns plus locale-specific ones
    matching it case-insensitively; each entry carries name, regex,
    category, locale, and min_threshold."""
    norm = locale.strip().upper() if locale and locale.strip() else None
    out = []
    for d in PATTERN_DEFS:
        if norm is not None and d.locale is not None \
                and d.locale.upper() != norm:
            continue  # foreign-locale pattern suppressed
        out.append({
            "name": d.name,
            "regex": d.regex,
            "category": d.category,
            "locale": d.locale,
            "min_threshold": d.min_threshold,
        })
    return out
