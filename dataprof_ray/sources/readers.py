"""Format readers: CSV (delimiter sniffing, ragged-row policy), JSON/JSONL
(malformed-row policy), in-memory inputs, binary streams.

Behavior parity (not a port) with the reference's source layer:
- delimiter sniffing:  /root/reference/crates/dataprof-csv/src/lib.rs:109-190
  (4 KB sample, quote-aware record split, score candidates by modal
  field-count agreement)
- ragged-row policy:   crates/dataprof-csv/src/robust_csv.rs:52-97 (flexible
  pads/truncates + counts; strict raises)
- JSON error policy:   crates/dataprof-json/src/lib.rs:85-299 + policy enum
  crates/dataprof-core/src/source.rs:29-39 (Skip counts malformed, Strict
  raises on first)
- in-memory dispatch:  python/dataprof/__init__.py:987-1260

Ray-Data-first: Ray owns chunking/blocks. The sniff is a driver-side
pre-flight over the first 4 KB of the first file (one tiny read — never the
data path); policies run vectorized inside the reader / a map_batches
validator.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import os
from dataclasses import dataclass
from typing import Optional

import pyarrow as pa

SNIFF_BYTES = 4096
# file and directory names a dataset read skips (pyarrow's ignore_prefixes)
_IGNORED_PREFIXES = (".", "_")
_DELIM_CANDIDATES = [",", ";", "\t", "|"]


def read_parquet(path: str, *, columns=None, **kwargs):
    """``ray.data.read_parquet`` with two driver-side decisions made up front.

    Schema: the file's schema is passed explicitly, METADATA-STRIPPED.
    pandas-written parquet carries a ``pandas`` JSON blob in the schema
    metadata; Ray's read-op schema unification tries ``set(schemas)`` for
    deduplication and the metadata dict makes that hash fail — one "Failed
    to hash the schemas" warning per read plus an O(fragments) unify.
    Stripping the metadata up front (one driver-side footer read) restores
    hashable, identical fragment schemas.

    Block count: when the caller passes no ``override_num_blocks`` and the
    read has fewer than 2 x the session's CPUs files, it reads
    ``max(n_files, cpus)`` blocks. Ray's default asks for at least
    2 x CPUs blocks and, with fewer files than that, splits every read
    task's output (``ReadParquet->SplitBlocks(k)``); the optimizer never
    fuses a read with a split factor into the map after it. With one block
    per file and at least one per CPU, a read of as many files as CPUs is
    one fused ``ReadParquet->MapBatches(...)`` operator, and a one-file
    table still fills every CPU. From 2 x CPUs files on, Ray's default
    stands: on a small table it groups the files into 2 x CPUs read tasks
    and needs no split. A path that is not local keeps Ray's default too.

    Ray's default is the 2 x CPUs floor only while the table's estimated
    in-memory size is under about 2 x CPUs MiB; above that it asks for
    one block per MiB, up to 200 (``read_op_min_num_blocks``). The rule
    reads such a table in fewer, larger blocks, each still cut at
    ``target_max_block_size`` (128 MiB). See SCALE.md, Read parallelism,
    for what that costs and saves on a 193 MiB table."""
    import ray.data as rd

    files = _data_files(path)
    if kwargs.get("override_num_blocks") is None:
        n_blocks = _read_blocks(files)
        if n_blocks is not None:
            kwargs["override_num_blocks"] = n_blocks
    # a pushed-down filter may reference non-selected columns, which an
    # explicit (pruned) schema would break, and a partitioned directory's
    # partition columns are in no file — those reads keep Ray's own
    # inference (and its one-line hash warning)
    if ("schema" not in kwargs and "filter" not in kwargs and files
            and (files == [path]
                 or os.path.normpath(os.path.dirname(files[0]))
                 == os.path.normpath(path))):
        import pyarrow.parquet as pq

        s = pq.read_schema(files[0]).remove_metadata()
        if columns:  # the provided schema must match the PRUNED output
            s = pa.schema([s.field(c) for c in columns])
        kwargs["schema"] = s
    return rd.read_parquet(path, columns=columns, **kwargs)


def _read_blocks(files: Optional[list]) -> Optional[int]:
    """``max(n_files, cpus)`` while ``n_files < 2 x cpus``, else None
    (Ray's default). None also for a path that is not local, or without
    a Ray session to ask."""
    import ray

    if files is None or not ray.is_initialized():
        return None
    cpus = int(ray.cluster_resources().get("CPU", 0))
    if len(files) >= 2 * cpus:
        return None
    return max(len(files), cpus)


def _data_files(path: str) -> Optional[list]:
    """The files a read of ``path`` covers, sorted, found as pyarrow's
    discovery finds them: recursive, skipping ``.``/``_`` names (no
    ``_SUCCESS``, ``_metadata`` or dotfiles). None when ``path`` is not
    on the local file system."""
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        return None
    found = []
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith(_IGNORED_PREFIXES)]
        found.extend(os.path.join(root, f) for f in files
                     if not f.startswith(_IGNORED_PREFIXES))
    return sorted(found)


def sniff_delimiter(sample: bytes) -> str:
    """Score each candidate by how consistently it splits records: the winner
    has the highest modal field-count agreement (>1 field). Quote-aware via
    the csv module's parser (lib.rs:109-190 semantics)."""
    text = sample.decode("utf-8", errors="replace")
    best, best_score = ",", -1.0
    for cand in _DELIM_CANDIDATES:
        try:
            rows = list(_csv.reader(io.StringIO(text), delimiter=cand))
        except _csv.Error:
            continue
        counts = [len(r) for r in rows if r]
        if not counts:
            continue
        modal = max(set(counts), key=counts.count)
        if modal < 2:
            continue
        agreement = counts.count(modal) / len(counts)
        score = agreement * modal
        if score > best_score:
            best, best_score = cand, score
    return best


def read_csv(
    path: str,
    *,
    delimiter: Optional[str] = None,
    flexible: bool = True,
    columns: Optional[list] = None,
    count_ragged: bool = False,
    **kwargs,
):
    """``ray.data.read_csv`` with driver-side delimiter sniffing and a
    ragged-row policy. ``flexible=True`` SKIPS rows whose field count Arrow
    cannot reconcile (Arrow's reader has no padding hook; skipped rows are
    COUNTED — use ``read_csv_padded`` for the reference's full pad/truncate
    semantics, robust_csv.rs:52-97); ``flexible=False`` raises on the first ragged row
    like the strict engine. With ``count_ragged=True`` returns
    ``(dataset, ragged_counter)`` where the counter reads the skipped-row
    total once the dataset has been consumed (execution.rs:43-51
    ragged_row_count accounting)."""
    import pyarrow.csv as pacsv
    import ray.data as rd

    if delimiter is None:
        first = _first_file(path)
        with open(first, "rb") as f:
            delimiter = sniff_delimiter(f.read(SNIFF_BYTES))

    counter = _ErrorCounter.remote() if count_ragged else None

    def skip_and_count(row):
        if counter is not None:
            counter.add.remote(1)
        return "skip"

    parse = pacsv.ParseOptions(
        delimiter=delimiter,
        # invalid_row_handler only fires for rows Arrow cannot reconcile
        invalid_row_handler=skip_and_count if flexible else None,
    )
    convert = pacsv.ConvertOptions(include_columns=columns) if columns else None
    ds = rd.read_csv(path, parse_options=parse, convert_options=convert, **kwargs)
    if count_ragged:
        return ds, _pending_errors(counter)
    return ds


def read_csv_padded(
    path: str,
    *,
    delimiter: Optional[str] = None,
    columns: Optional[list] = None,
    count_ragged: bool = False,
    **kwargs,
):
    """CSV reader with the reference's FULL flexible semantics
    (robust_csv.rs:52-97): short rows are PADDED with empty fields (null
    after type conversion) and long rows TRUNCATED to the header width —
    unlike ``read_csv(flexible=True)``, which can only skip what Arrow's
    reader rejects. Every adjusted row is counted.

    Built on ``read_binary_files`` + the csv module per file, re-serialized
    through pyarrow.csv so type inference matches the fast path. Each FILE
    is one task — use the fast path for a single giant CSV; this one is for
    many-file corpora with dirty rows. With ``count_ragged=True`` returns
    ``(dataset, adjusted_counter)``."""
    import pyarrow.csv as pacsv
    import ray.data as rd

    first = _first_file(path)
    if delimiter is None:
        with open(first, "rb") as f:
            delimiter = sniff_delimiter(f.read(SNIFF_BYTES))
    delim = delimiter
    counter = _ErrorCounter.remote() if count_ragged else None
    convert = pacsv.ConvertOptions(include_columns=columns) if columns else None
    # header of the first file, so a batch of only-empty files can emit a
    # zero-ROW block carrying the corpus schema instead of a zero-COLUMN
    # pa.table({}) (which fails Ray's schema unification against real blocks)
    with open(first, "rb") as f:
        _hdr_line = f.readline().decode("utf-8", errors="replace")
    fallback_header = next(_csv.reader(io.StringIO(_hdr_line), delimiter=delim),
                           [])

    def parse_pad(batch: dict) -> pa.Table:
        tables = []
        adjusted = 0
        for payload in batch["bytes"]:
            text = bytes(payload).decode("utf-8", errors="replace")
            rows = list(_csv.reader(io.StringIO(text), delimiter=delim))
            if not rows:
                continue
            header = rows[0]
            width = len(header)
            fixed = []
            for r in rows[1:]:
                if not r:
                    continue
                if len(r) != width:
                    adjusted += 1
                    r = (r + [""] * width)[:width]
                fixed.append(r)
            buf = io.StringIO()
            w = _csv.writer(buf, delimiter=delim, lineterminator="\n")
            w.writerow(header)
            w.writerows(fixed)
            tables.append(pacsv.read_csv(
                io.BytesIO(buf.getvalue().encode("utf-8")),
                parse_options=pacsv.ParseOptions(delimiter=delim),
                convert_options=convert,
            ))
        if adjusted and counter is not None:
            counter.add.remote(adjusted)
        if not tables:
            if not fallback_header:
                return pa.table({})
            buf = io.StringIO()
            _csv.writer(buf, delimiter=delim,
                        lineterminator="\n").writerow(fallback_header)
            return pacsv.read_csv(
                io.BytesIO(buf.getvalue().encode("utf-8")),
                parse_options=pacsv.ParseOptions(delimiter=delim),
                convert_options=convert,
            )
        return pa.concat_tables(tables, promote_options="permissive")

    ds = rd.read_binary_files(path, **kwargs).map_batches(
        parse_pad, batch_format="numpy")
    if count_ragged:
        return ds, _pending_errors(counter)
    return ds


def _first_file(path: str) -> str:
    files = _data_files(path)
    if files is None:
        return path
    if not files:
        raise FileNotFoundError(f"no files under {path}")
    return files[0]


# ------------------------------------------------------------------ JSON


@dataclass
class JsonReadResult:
    """Dataset + malformed-row accounting (truncation-vs-exhaustion precision
    carried in counts, lib.rs:85-299)."""

    dataset: object
    error_count: int


def read_jsonl(
    path: str,
    *,
    policy: str = "skip",
    schema: Optional[pa.Schema] = None,
) -> JsonReadResult:
    """JSONL reader with the reference's error policy: ``skip`` drops and
    counts malformed lines; ``strict`` raises on the first.

    Built on ``read_binary_files`` + a vectorized line parser per file block
    so the malformed-line policy is OURS (Arrow's json reader aborts the
    whole block). Late-appearing keys become columns backfilled with nulls
    within each block (streaming_stats.rs:535-547 semantics); pass ``schema``
    to pin columns across blocks."""
    import ray
    import ray.data as rd

    if policy not in ("skip", "strict"):
        raise ValueError(f"unknown json error policy: {policy}")

    error_counter = _ErrorCounter.remote()

    def parse(batch: dict) -> pa.Table:
        rows = []
        errors = 0
        for payload in batch["bytes"]:
            data = bytes(payload)
            # array-vs-lines autodetect (dataprof-json/src/lib.rs:85-299):
            # a file whose first non-ws byte is '[' is TRIED as one JSON
            # array; if that parse fails it falls through to per-line
            # parsing (a stray '[...]' first line must not discard a whole
            # JSONL file in skip mode)
            head = data.lstrip()[:1]
            if head == b"[":
                try:
                    arr = json.loads(data)
                except json.JSONDecodeError:
                    arr = None  # not a single array: per-line path below
                if arr is not None:
                    for obj in arr:
                        if isinstance(obj, dict):
                            rows.append(obj)
                        elif policy == "strict":
                            raise ValueError("array element is not an object")
                        else:
                            errors += 1
                    continue
            for line in data.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("not an object")
                    rows.append(obj)
                except (json.JSONDecodeError, ValueError) as e:
                    if policy == "strict":
                        raise ValueError(f"malformed JSON line: {line[:80]!r}") from e
                    errors += 1
        if errors:
            error_counter.add.remote(errors)
        if schema is not None:
            cols = {
                f.name: [r.get(f.name) for r in rows] for f in schema
            }
            return pa.table(cols, schema=schema)
        if not rows:
            return pa.table({})
        keys = []
        for r in rows:
            for k in r:
                if k not in keys:
                    keys.append(k)
        return pa.table({k: [_render(r.get(k)) for r in rows] for k in keys})

    ds = rd.read_binary_files(path).map_batches(parse, batch_format="numpy")
    return JsonReadResult(ds, _pending_errors(error_counter))


def _render(v):
    """JSON arrays/objects flatten to their JSON string rendering
    (dataprof-json/src/lib.rs:359-371)."""
    if isinstance(v, (list, dict)):
        return json.dumps(v, separators=(", ", ": "))
    return v


import ray as _ray  # noqa: E402


@_ray.remote(num_cpus=0)
class _ErrorCounter:
    def __init__(self) -> None:
        self.n = 0

    def add(self, k: int) -> None:
        self.n += k

    def get(self) -> int:
        return self.n


class _pending_errors:
    """Lazy view over the counter actor: reading it after the dataset has
    been consumed returns the final malformed count. Reads poll until the
    value is stable — task-side ``add.remote`` calls may still be in flight
    for a moment after the dataset finishes."""

    def __init__(self, actor) -> None:
        self._actor = actor

    def __int__(self) -> int:
        import time

        import ray

        prev = int(ray.get(self._actor.get.remote()))
        for _ in range(20):
            time.sleep(0.05)
            cur = int(ray.get(self._actor.get.remote()))
            if cur == prev:
                return cur
            prev = cur
        return prev

    def __eq__(self, other) -> bool:
        return int(self) == other

    def __repr__(self) -> str:
        return f"<malformed_rows={int(self)}>"


# ------------------------------------------------------------------ encoding


@dataclass
class EncodingDiagnosis:
    """Result of the non-UTF-8 sniffer (robust_csv.rs:99-140): best-guess
    encoding + byte offset of the first invalid UTF-8 byte."""

    encoding: str
    first_bad_byte_offset: Optional[int]
    confident: bool


def diagnose_encoding(sample: bytes) -> EncodingDiagnosis:
    """Guess latin-1 / windows-1252 / utf-16 for non-UTF-8 input, reporting
    the first bad byte offset (robust_csv.rs:99-140 semantics)."""
    try:
        sample.decode("utf-8")
        return EncodingDiagnosis("utf-8", None, True)
    except UnicodeDecodeError as e:
        offset = e.start
    if sample[:2] in (b"\xff\xfe", b"\xfe\xff"):
        return EncodingDiagnosis("utf-16", offset, True)
    # NUL bytes in even/odd positions suggest utf-16 without BOM
    if b"\x00" in sample[: 2 * SNIFF_BYTES // 4]:
        return EncodingDiagnosis("utf-16", offset, False)
    # windows-1252 maps 0x80-0x9F to printable punctuation; latin-1 does not
    high = [b for b in sample if 0x80 <= b <= 0x9F]
    enc = "windows-1252" if high else "latin-1"
    return EncodingDiagnosis(enc, offset, False)


def read_csv_robust(path: str, *, delimiter: Optional[str] = None,
                    flexible: bool = True, columns: Optional[list] = None,
                    **kwargs):
    """CSV read with encoding diagnosis: UTF-8 fast path; otherwise decode
    with the diagnosed encoding via a binary-file read + per-file transcode
    (the reference normalizes the UTF-8 error at the boundary,
    profiler.rs:1175-1200). delimiter/flexible/columns apply on BOTH paths
    (the delimiter is sniffed from the transcoded sample when not given)."""
    first = _first_file(path)
    with open(first, "rb") as f:
        sample = f.read(SNIFF_BYTES)
    diag = diagnose_encoding(sample)
    if diag.encoding == "utf-8":
        return read_csv(path, delimiter=delimiter, flexible=flexible,
                        columns=columns, **kwargs)

    import pyarrow.csv as pacsv
    import ray.data as rd

    encoding = diag.encoding
    if delimiter is None:
        delimiter = sniff_delimiter(
            sample.decode(encoding, errors="replace").encode("utf-8"))
    parse = pacsv.ParseOptions(
        delimiter=delimiter,
        invalid_row_handler=(lambda row: "skip") if flexible else None,
    )
    convert = pacsv.ConvertOptions(include_columns=columns) if columns else None

    def transcode_parse(batch: dict) -> pa.Table:
        tables = []
        for payload in batch["bytes"]:
            text = bytes(payload).decode(encoding, errors="replace")
            tables.append(pacsv.read_csv(io.BytesIO(text.encode("utf-8")),
                                         parse_options=parse,
                                         convert_options=convert))
        return pa.concat_tables(tables)

    return rd.read_binary_files(path).map_batches(transcode_parse, batch_format="numpy")


# ------------------------------------------------ CSV auto-recovery


@dataclass
class RecoveryAttempt:
    """One rung of the auto-recovery ladder (errors.rs RecoveryAttempt)."""
    strategy: str
    success: bool
    error: Optional[str] = None


@dataclass
class CsvRecoveryResult:
    dataset: object  # ray.data.Dataset
    strategy: str    # "initial" or the winning recovery strategy
    attempts: list   # [RecoveryAttempt] in the order tried


def read_csv_auto(path: str, *, delimiter: Optional[str] = None,
                  columns: Optional[list] = None, max_attempts: int = 6,
                  **kwargs) -> CsvRecoveryResult:
    """Automatic try-fix-retry CSV read — the reference's
    AutoRecoveryManager loop (robust_csv.rs:195-244 `parse_csv_with_recovery`
    + errors.rs:475-487 strategy ladder) re-expressed for a lazy engine:
    every strategy is validated EAGERLY against a bounded sampled prefix on
    the driver (strict parse + UTF-8 check), and the returned Dataset is
    still a lazy, distributed read built with the recovered configuration —
    the full data never moves through the driver.

    Ladder (first success wins, capped at ``max_attempts``):
    as-configured strict parse -> candidate delimiters ``, ; \\t |`` ->
    encoding conversion (diagnosed via ``diagnose_encoding``; a real
    transcode, where robust_csv.rs's EncodingConversion arm is a
    flexible-parse placeholder) -> flexible/padded parsing
    (``read_csv_padded`` pad/truncate semantics).

    Divergence from the reference, documented: a delimiter-detection rung
    must parse the sample into >= 2 columns to count as success — any
    delimiter "succeeds" on any text as one giant column, which would make
    the first rung always win. Raises RuntimeError with the full attempt
    log when every rung fails."""
    import pyarrow.csv as pacsv

    first = _first_file(path)
    with open(first, "rb") as f:
        sample = f.read(SNIFF_BYTES)

    def probe(delim: str, flexible: bool, encoding: Optional[str] = None,
              min_columns: int = 1) -> None:
        buf = sample
        if encoding:
            buf = buf.decode(encoding, errors="replace").encode("utf-8")
        cut = buf.rfind(b"\n")
        if cut > 0:
            buf = buf[: cut + 1]  # drop the chunk-truncated last line
        parse = pacsv.ParseOptions(
            delimiter=delim,
            invalid_row_handler=(lambda row: "skip") if flexible else None)
        t = pacsv.read_csv(io.BytesIO(buf), parse_options=parse)
        if t.num_columns < min_columns:
            raise ValueError(
                f"parsed into {t.num_columns} column(s) with "
                f"delimiter {delim!r}; not a plausible recovery")

    init_delim = delimiter or sniff_delimiter(sample)
    attempts: list[RecoveryAttempt] = []
    try:
        diag = diagnose_encoding(sample)
        if diag.encoding != "utf-8":
            raise ValueError(f"sample is not UTF-8 (diagnosed {diag.encoding})")
        probe(init_delim, flexible=False)
        return CsvRecoveryResult(
            read_csv(path, delimiter=init_delim, flexible=False,
                     columns=columns, **kwargs),
            "initial", attempts)
    except Exception as exc:  # noqa: BLE001 — any parse fault enters the ladder
        initial_error = exc

    def try_delimiter(cand: str):
        probe(cand, flexible=False, min_columns=2)
        return read_csv(path, delimiter=cand, flexible=False,
                        columns=columns, **kwargs)

    def try_encoding():
        diag = diagnose_encoding(sample)
        enc = diag.encoding if diag.encoding != "utf-8" else "latin-1"
        probe(init_delim, flexible=False, encoding=enc)
        return read_csv_robust(path, delimiter=init_delim,
                               columns=columns, **kwargs)

    def try_flexible():
        probe(init_delim, flexible=True)
        return read_csv_padded(path, delimiter=init_delim,
                               columns=columns, **kwargs)

    ladder: list[tuple[str, object]] = [
        (f"delimiter_detection({c!r})", lambda c=c: try_delimiter(c))
        for c in (",", ";", "\t", "|") if c != init_delim
    ]
    ladder += [("encoding_conversion", try_encoding),
               ("flexible_parsing", try_flexible)]

    for name, fn in ladder[:max_attempts]:
        try:
            ds = fn()
        except Exception as exc:  # noqa: BLE001 — rung failed, try the next
            attempts.append(RecoveryAttempt(name, False, str(exc)))
            continue
        attempts.append(RecoveryAttempt(name, True))
        return CsvRecoveryResult(ds, name, attempts)

    tried = "; ".join(f"{a.strategy}: {a.error}" for a in attempts)
    raise RuntimeError(
        f"CSV auto-recovery exhausted {len(attempts)} strategies for {path} "
        f"(initial error: {initial_error}); attempts: {tried}")


# ------------------------------------------------------------------ SQL


class RetryConfig:
    """Retry policy for database operations, mirroring the reference's
    dataprof-db/src/retry.rs:13-33 defaults (3 retries, 100ms initial
    delay, 2x backoff capped at 10s, jitter in [0.5, 1.5))."""

    def __init__(self, max_retries: int = 3, initial_delay: float = 0.1,
                 max_delay: float = 10.0, backoff_multiplier: float = 2.0,
                 use_jitter: bool = True, seed: Optional[int] = None) -> None:
        self.max_retries = max_retries
        self.initial_delay = initial_delay
        self.max_delay = max_delay
        self.backoff_multiplier = backoff_multiplier
        self.use_jitter = use_jitter
        self.seed = seed


_RETRYABLE_TOKENS = (
    # retry.rs:100-117 (is_retryable_error): connection-shaped failures only
    "connection", "timeout", "network", "temporary", "unavailable",
    "broken pipe", "connection reset", "connection refused",
    "host unreachable", "too many connections", "database is locked",
    "server has gone away", "connection timed out",
)


def is_retryable_error(error: str) -> bool:
    low = error.lower()
    return any(tok in low for tok in _RETRYABLE_TOKENS)


def retry_database_operation(operation, config: Optional[RetryConfig] = None,
                             operation_name: str = "db",
                             only_connection_errors: bool = False):
    """Call ``operation()`` with exponential backoff
    (retry.rs:36-92 semantics): up to ``max_retries`` retries, delay
    doubling from ``initial_delay`` capped at ``max_delay``, optional
    jitter. ``only_connection_errors`` retries only errors matching
    ``is_retryable_error`` (retry.rs ``retry_on_connection_error``);
    non-retryable errors re-raise immediately."""
    import random
    import time as _time

    config = config or RetryConfig()
    rng = random.Random(config.seed)
    delay = config.initial_delay
    last: Optional[Exception] = None
    for attempt in range(config.max_retries + 1):
        try:
            return operation()
        except Exception as exc:  # noqa: BLE001 — driver errors vary by DBAPI
            if only_connection_errors and not is_retryable_error(str(exc)):
                raise
            last = exc
            if attempt < config.max_retries:
                actual = delay * rng.uniform(0.5, 1.5) if config.use_jitter else delay
                _time.sleep(actual)
                delay = min(delay * config.backoff_multiplier, config.max_delay)
    raise RuntimeError(
        f"database operation '{operation_name}' exhausted "
        f"{config.max_retries + 1} attempts: {last}"
    ) from last


# Dialects the auto-sampling SQL is known-valid on. All three accept the
# fully-aliased ROW_NUMBER form below; the distinction matters because
# Postgres and MySQL *reject* unaliased derived tables ("every derived
# table must have its own alias") while SQLite tolerates them — the
# sqlite-only round-1 SQL would be a hard error on the other two.
SAMPLING_DIALECTS = ("sqlite", "postgres", "mysql")


def _sampling_sql(sql: str, every: int) -> str:
    # Valid on sqlite / Postgres / MySQL 8+: every derived table aliased,
    # ROW_NUMBER() OVER () synthesized (ROWID resolves to NULL inside a
    # derived table on SQLite, which silently emptied the old predicate).
    return (
        f"SELECT * FROM (SELECT _src.*, ROW_NUMBER() OVER () AS _rn "
        f"FROM ({sql}) AS _src) AS _smp WHERE (_rn % {every}) = 0"
    )


def read_sql(sql: str, connection_factory, *, parallelism: int = -1,
             sample_above_rows: Optional[int] = None, sample_rows: int = 100_000,
             retry: Optional[RetryConfig] = None, dialect: Optional[str] = None,
             **kwargs):
    """DB query -> Dataset via ``ray.data.read_sql`` (the reference's
    connector family, dataprof-db/src/). ``sample_above_rows`` mirrors the
    auto-sampling default for >1M-row tables (config.rs:196-226): when the
    count exceeds it, the query is wrapped with a deterministic modulo
    sample on a synthesized ROW_NUMBER down to ~``sample_rows``.

    ``retry``: a RetryConfig makes every connection attempt retry with
    exponential backoff (retry.rs semantics) — the factory is wrapped so
    Ray's read tasks retry too, not just the driver-side count.

    ``dialect``: one of ``SAMPLING_DIALECTS``; required for auto-sampling
    on non-sqlite connections (sqlite is inferred from the connection's
    module). The sampling SQL itself is dialect-portable (fully aliased,
    MySQL 8+ for window functions); the explicit parameter exists so an
    engine we have NOT validated the SQL on fails loudly instead of
    mis-sampling."""
    import ray.data as rd

    factory = connection_factory
    if retry is not None:
        cfg = retry

        def factory():  # noqa: F811 — wrap with backoff, ship to read tasks
            return retry_database_operation(
                connection_factory, cfg, operation_name="connect")

    if sample_above_rows is not None:
        if dialect is not None and dialect not in SAMPLING_DIALECTS:
            raise ValueError(
                f"unknown dialect {dialect!r}; auto-sampling is validated "
                f"on {SAMPLING_DIALECTS} — pre-sample in SQL otherwise")
        con = factory()
        try:
            if dialect is None:
                if type(con).__module__.split(".")[0] != "sqlite3":
                    raise ValueError(
                        "sample_above_rows auto-sampling on a non-sqlite "
                        "connection requires an explicit dialect= from "
                        f"{SAMPLING_DIALECTS}")
                dialect = "sqlite"
            cur = con.cursor()  # DBAPI path (sqlite's con.execute is a shortcut)
            cur.execute(f"SELECT COUNT(*) FROM ({sql}) AS _t")
            total = cur.fetchone()[0]
        finally:
            con.close()
        if total > sample_above_rows:
            every = max(total // sample_rows, 1)
            if every > 1:
                sampled = _sampling_sql(sql, every)
                return rd.read_sql(sampled, factory, **kwargs).drop_columns(["_rn"])
    return rd.read_sql(sql, factory, **kwargs)


# ------------------------------------------------------------------ in-memory


def from_any(obj, **kwargs):
    """In-memory dispatch mirroring the reference's Python facade
    (__init__.py:987-1260): dict-of-lists, list-of-dicts, pyarrow Table,
    pandas / polars DataFrame -> ray.data.Dataset (zero-copy where Arrow
    allows)."""
    import ray.data as rd

    if isinstance(obj, pa.Table):
        return rd.from_arrow(obj)
    if isinstance(obj, dict):
        return rd.from_arrow(pa.table(obj))
    if isinstance(obj, list):
        return rd.from_items(obj, **kwargs)
    mod = type(obj).__module__.split(".")[0]
    if mod == "pandas":
        return rd.from_pandas(obj)
    if mod == "polars":
        return rd.from_arrow(obj.to_arrow())
    if hasattr(obj, "__arrow_c_stream__"):
        return rd.from_arrow(pa.table(obj))
    raise TypeError(f"unsupported in-memory input: {type(obj)}")


# ---------------------------------------------------------- DB introspection


def test_connection(connection_factory, retry: Optional["RetryConfig"] = None) -> bool:
    """True if a connection can be opened and runs ``SELECT 1`` (the
    reference's ``test_connection_async``, sync here — Ray tasks provide
    the concurrency). Retries with backoff when a RetryConfig is given;
    returns False instead of raising on final failure."""
    def attempt() -> bool:
        con = connection_factory()
        try:
            con.execute("SELECT 1").fetchone()
            return True
        finally:
            con.close()

    try:
        if retry is not None:
            return retry_database_operation(attempt, retry,
                                            operation_name="test_connection")
        return attempt()
    except Exception:
        return False


def _validate_table_name(table: str) -> None:
    """Identifier guard shared by every helper that must interpolate a
    table name (it cannot be bound as a parameter; arbitrary text would be
    injection)."""
    if not table.replace("_", "").replace(".", "").isalnum():
        raise ValueError(f"invalid table name: {table!r}")


def count_table_rows(table: str, connection_factory,
                     retry: Optional["RetryConfig"] = None) -> int:
    """Exact row count of a table (``count_table_rows_async`` equivalent)."""
    _validate_table_name(table)

    def attempt() -> int:
        con = connection_factory()
        try:
            return int(con.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])
        finally:
            con.close()

    if retry is not None:
        return retry_database_operation(attempt, retry,
                                        operation_name="count_table_rows")
    return attempt()


def get_table_schema(table: str, connection_factory,
                     retry: Optional["RetryConfig"] = None) -> list:
    """[(column_name, declared_type)] for a table
    (``get_table_schema_async`` equivalent). SQLite connections use
    ``PRAGMA table_info`` — cursor.description[1] is always None on
    sqlite3, so the zero-row-SELECT trick could never deliver the declared
    type there; other DBAPI drivers fall back to the description row
    (whose type slot is the driver's type_code)."""
    _validate_table_name(table)

    def attempt() -> list:
        con = connection_factory()
        try:
            if type(con).__module__.split(".")[0] == "sqlite3":
                rows = con.execute(f"PRAGMA table_info({table})").fetchall()
                return [(r[1], r[2]) for r in rows]
            cur = con.execute(f"SELECT * FROM {table} WHERE 1 = 0")
            return [(d[0], d[1]) for d in cur.description]
        finally:
            con.close()

    if retry is not None:
        return retry_database_operation(attempt, retry,
                                        operation_name="get_table_schema")
    return attempt()


# ------------------------------------------------------------ async DB facade
#
# Parity with the reference's async connector surface
# (python/dataprof/__init__.py:59-99: analyze_database_async,
# count_table_rows_async, get_table_schema_async, test_connection_async;
# crates/dataprof-db async connectors). This container has no async DB
# drivers, so each coroutine offloads the blocking DBAPI/Ray work to a
# thread (asyncio.to_thread) — callers get the same overlap the reference's
# tokio runtime gives (N profiles in flight share one event loop), and a
# real async driver can replace the thread hop without changing the
# signatures. Retry semantics ride on the same RetryConfig machinery as
# the sync path.


async def test_connection_async(connection_factory,
                                retry: "Optional[RetryConfig]" = None) -> bool:
    """True iff a connection can be opened (and closed). Retries with
    backoff when ``retry`` is given; returns False instead of raising on
    final failure (the reference's bool contract)."""
    import asyncio

    def _probe() -> bool:
        try:
            if retry is not None:
                con = retry_database_operation(connection_factory, retry,
                                               operation_name="connect")
            else:
                con = connection_factory()
            con.close()
            return True
        except Exception:  # noqa: BLE001 — driver errors vary by DBAPI
            return False

    return await asyncio.to_thread(_probe)


async def count_table_rows_async(connection_factory, table: str,
                                 retry: "Optional[RetryConfig]" = None) -> int:
    """COUNT(*) of ``table`` off the event loop. ``table`` must be an
    identifier (quoted; a query belongs in ``read_sql``)."""
    import asyncio

    if not table.replace("_", "").isalnum():
        raise ValueError(f"not a table identifier: {table!r}")

    def _count() -> int:
        def op():
            con = connection_factory()
            try:
                cur = con.cursor()
                cur.execute(f'SELECT COUNT(*) FROM "{table}"')
                return int(cur.fetchone()[0])
            finally:
                con.close()
        if retry is not None:
            return retry_database_operation(op, retry, operation_name="count")
        return op()

    return await asyncio.to_thread(_count)


async def get_table_schema_async(connection_factory, table: str,
                                 retry: "Optional[RetryConfig]" = None) -> dict:
    """{column -> declared type} from a zero-row probe's cursor
    description (DBAPI-portable; sqlite fills type via PRAGMA)."""
    import asyncio

    if not table.replace("_", "").isalnum():
        raise ValueError(f"not a table identifier: {table!r}")

    def _schema() -> dict:
        def op():
            con = connection_factory()
            try:
                if type(con).__module__.split(".")[0] == "sqlite3":
                    cur = con.cursor()
                    cur.execute(f'PRAGMA table_info("{table}")')
                    return {r[1]: (r[2] or "unknown") for r in cur.fetchall()}
                cur = con.cursor()
                cur.execute(f'SELECT * FROM "{table}" WHERE 1=0')
                return {d[0]: str(d[1]) for d in cur.description}
            finally:
                con.close()
        if retry is not None:
            return retry_database_operation(op, retry, operation_name="schema")
        return op()

    return await asyncio.to_thread(_schema)


async def analyze_database_async(connection_factory, sql: str,
                                 batch_size: int = 10_000,
                                 calculate_quality: bool = False,
                                 **read_kwargs):
    """Profile the rows returned by ``sql`` — the async twin of
    ``read_sql`` + ``profile_dataset`` (reference
    ``analyze_database_async``, __init__.py:67-82). The Ray pipeline is
    itself parallel; the coroutine exists so several database profiles
    (or a profile plus serving work) overlap on one event loop."""
    import asyncio

    def _run():
        from dataprof_ray.pipelines.profile import profile_dataset

        ds = read_sql(sql, connection_factory, **read_kwargs)
        # reference kwarg name `calculate_quality` maps to the repo's
        # profile_dataset(compute_quality=...)
        return profile_dataset(ds, batch_size=batch_size,
                               compute_quality=calculate_quality)

    return await asyncio.to_thread(_run)
