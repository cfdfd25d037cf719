"""One benchmark run in one process: Ray set-up, the timed rounds of one
workload, the correctness checks, and (traced mode) the per-layer table.

Started by ``run.py``, which generates the inputs, owns the process tree
and prints the result; this process writes its result to ``--result``.

A round is one pass of the workload's operations over its inputs. Rounds
repeat until ``--seconds`` have passed; there is at least one (in traced
mode at least one traced and one untraced, alternating). ``wall_s`` is
the mean round time, each round timed from the first program call to the
complete result. Checks run after the timed loop, on results kept from
every round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import quiet  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

RAY_CPUS = 4  # fewer logical CPUs than this never finish the filter job


class Ops:
    """Counts program operations; one that raises is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.walls: dict[str, list[float]] = {}  # name -> time of each call

    def run(self, name: str, fn, *args, tracer=None, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.call = name
        try:
            if tracer is not None:
                with tracer.span(name, "bench"):
                    return True, fn(*args, **kwargs)
            return True, fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, counted not raised
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return False, exc
        finally:
            self.walls.setdefault(name, []).append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.call = "untracked"


# ------------------------------------------------------------------ workloads

class FilterWorkload:
    """``jobs.main`` over the generated shards, a fresh output per round."""

    def __init__(self, work: str, seed: int) -> None:
        from dataprof_ray import jobs

        self.jobs = jobs
        self.work, self.seed = work, seed
        self.corpus = os.path.join(work, "corpus")
        self.outputs: list[str] = []
        with open(os.path.join(work, "truth.json")) as f:
            self.truth = json.load(f)
        self.docs = len(self.truth)

    def warm_up(self) -> None:
        """One untimed job over a 30-page shard: the first job in a fresh
        Ray session also pays for booting its worker processes."""
        quiet(self.jobs.main, ["--input", os.path.join(self.work, "warm_corpus"),
                               "--output", os.path.join(self.work, "warm_out")])

    def round(self, ops: Ops, tracer) -> float:
        out = os.path.join(self.work, f"out_{len(self.outputs)}")
        t0 = time.perf_counter()
        ok, _ = ops.run("jobs.main", quiet, self.jobs.main,
                        ["--input", self.corpus, "--output", out], tracer=tracer)
        wall = time.perf_counter() - t0
        if ok:
            self.outputs.append(out)
        return wall

    def after_rounds(self, ops: Ops) -> list[str]:
        """Checks of every round's output, then the oracle sample and the
        two resume operations on the last output."""
        problems: list[str] = []
        for out in self.outputs:
            problems += checks.filter_output(out, self.truth)
        if not self.outputs:
            return problems
        last = self.outputs[-1]
        problems += checks.filter_oracle_sample(ops, self.corpus, last, self.seed)
        problems += checks.filter_resume(ops, self.jobs, self.corpus, last,
                                         self.seed)
        return problems

    def traced_extras(self, metrics: dict) -> None:
        from dataprof_ray.pipelines import quality_filter as QF

        metrics["sources.read_s"] = read_time(self.corpus)
        ramp_corpus = os.path.join(self.work, "ramp_corpus")
        inputs.write_ramp_corpus(ramp_corpus)
        (metrics["pipelines.first_batch_s"],
         metrics["pipelines.steady_docs_per_s"]) = ramp(QF, ramp_corpus)


def read_time(path: str) -> float:
    """Time to read the workload input through the program's reader,
    every batch consumed."""
    from dataprof_ray.sources import readers

    t0 = time.perf_counter()
    for _ in readers.read_parquet(path).iter_batches(batch_format="pyarrow"):
        pass
    return time.perf_counter() - t0


def ramp(QF, corpus: str) -> tuple[float, float]:
    """(time to the first output block, docs/s after it) of the default
    filter pipeline, consumed block by block."""
    t0 = time.perf_counter()
    out = QF.run_quality_filter(QF.read_corpus(corpus))
    first, docs, first_docs = None, 0, 0
    for batch in out.iter_batches(batch_format="pyarrow", batch_size=None):
        docs += batch.num_rows
        if first is None:
            first, first_docs = time.perf_counter(), docs
    end = time.perf_counter()
    del out
    gc.collect()
    steady = (docs - first_docs) / (end - first) if end > first else 0.0
    return first - t0, steady


def run_calls(ops: Ops, tracer, calls) -> dict:
    """Run (name, fn) calls in order; the results of those that succeed."""
    res = {}
    for name, fn in calls:
        ok, out = ops.run(name, fn, tracer=tracer)
        if ok:
            res[name] = out
    return res


class ProfileCalls:
    """Profile, quantiles, winsorized and robust stats, ROLLUP and grouped
    COUNT(DISTINCT) over one seeded table; and the three fault operations
    on their tiny fixed inputs."""

    QS = (0.01, 0.25, 0.5, 0.75, 0.99)

    def __init__(self, work: str) -> None:
        from dataprof_ray.pipelines import aggregate, profile
        from dataprof_ray.sources import readers

        self.A, self.P, self.R = aggregate, profile, readers
        self.work = work
        self.path = os.path.join(work, "table")
        self.faults = os.path.join(work, "faults")
        self.rows = inputs.SIZES["profile_and_dedup"]["rows"]
        self.results: list[dict] = []

    def warm_up(self) -> None:
        """The profile and the grouped COUNT(DISTINCT), untimed and
        unchecked, on a 500-row table in as many files as the timed one:
        boots as many Ray workers, and their imports of the profile and
        aggregate modules, before timing."""
        calls = dict(self.calls(self.R.read_parquet(
            os.path.join(self.work, "warm_table"))))
        calls["profile.profile_dataset"]()
        calls["aggregate.group_distinct"]()

    def calls(self, ds):
        A, P = self.A, self.P
        return [
            ("profile.profile_dataset", lambda: P.profile_dataset(ds)),
            ("aggregate.exact_global_quantiles",
             lambda: A.exact_global_quantiles(ds, "f_heavy", self.QS)),
            ("aggregate.winsorized_stats",
             lambda: A.winsorized_stats(ds, ["f_val", "f_heavy"])),
            ("aggregate.robust_outlier_stats",
             lambda: A.robust_outlier_stats(ds, ["f_heavy", "i_val"])),
            ("aggregate.rollup_aggregate",
             lambda: A.rollup_aggregate(ds, ["region", "cat"], checks.ROLLUP_SPECS)),
            ("aggregate.group_distinct",
             lambda: A.group_distinct(ds, ["region"], "user").to_pandas()),
        ]

    def run(self, ops: Ops, tracer) -> None:
        self.results.append(run_calls(
            ops, tracer, self.calls(self.R.read_parquet(self.path))))

    def fault_ops(self, ops: Ops) -> None:
        """Operations that fail today because of faults in the program; a
        wrong answer counts as a failure just like an exception."""
        A, R = self.A, self.R
        zero = os.path.join(self.faults, "zero_rows.parquet")
        null_group = os.path.join(self.faults, "rollup_null_group.parquet")

        def rollup_null_group():
            got = A.rollup_aggregate(R.read_parquet(null_group),
                                     ["region", "cat"], [("s", "m", "sum")])
            problems = checks.rollup_null_group(got, null_group)
            if problems:
                raise AssertionError("; ".join(problems))
            return got

        for name, fn in [
            ("fault.rollup_aggregate_null_group", rollup_null_group),
            ("fault.winsorized_stats_zero_rows",
             lambda: A.winsorized_stats(R.read_parquet(zero), ["v"])),
            ("fault.robust_outlier_stats_zero_rows",
             lambda: A.robust_outlier_stats(R.read_parquet(zero), ["v"])),
        ]:
            ops.run(name, fn)

    def check(self) -> list[str]:
        return checks.profile_results(self.results, self.path, self.QS)


class DedupCalls:
    """Exact dedup and verified MinHash-LSH groups over seeded documents
    with planted exact and near duplicates."""

    THRESHOLD = 0.7

    def __init__(self, work: str) -> None:
        from dataprof_ray.pipelines import dedup
        from dataprof_ray.sources import readers

        self.D, self.R = dedup, readers
        self.work = work
        self.path = os.path.join(work, "docs")
        with open(os.path.join(work, "docs_truth.json")) as f:
            self.truth = json.load(f)
        import pyarrow.parquet as pq

        self.docs = sum(pq.read_metadata(os.path.join(self.path, name)).num_rows
                        for name in os.listdir(self.path))
        self.results: list[dict] = []

    def calls(self, ds):
        D = self.D
        return [
            ("dedup.exact_dedup",
             lambda: D.exact_dedup(ds, "text", "doc_id").to_pandas()),
            ("dedup.minhash_lsh_duplicate_groups",
             lambda: D.minhash_lsh_duplicate_groups(
                 ds, "text", "doc_id", verify_threshold=self.THRESHOLD)),
        ]

    def warm_up(self) -> None:
        """The calls, untimed and unchecked, on 160 documents. Both are
        needed: with only the first, the first timed round read 25 %
        slower than the second."""
        for _name, fn in self.calls(self.R.read_parquet(
                os.path.join(self.work, "warm_docs"))):
            fn()

    def run(self, ops: Ops, tracer) -> None:
        self.results.append(run_calls(
            ops, tracer, self.calls(self.R.read_parquet(self.path))))

    def check(self) -> list[str]:
        return checks.dedup_results(self.results, self.path, self.truth,
                                    self.THRESHOLD)


class ProfileDedupWorkload:
    """One round: the profile and aggregate calls over the table, then the
    dedup calls over the documents (timed), then the three fault
    operations (untimed)."""

    def __init__(self, work: str, seed: int) -> None:
        self.table = ProfileCalls(work)
        self.dedup = DedupCalls(work)
        self.docs = self.table.rows + self.dedup.docs

    def warm_up(self) -> None:
        self.table.warm_up()
        self.dedup.warm_up()

    def round(self, ops: Ops, tracer) -> float:
        t0 = time.perf_counter()
        self.table.run(ops, tracer)
        self.dedup.run(ops, tracer)
        wall = time.perf_counter() - t0
        self.table.fault_ops(ops)
        return wall

    def after_rounds(self, ops: Ops) -> list[str]:
        return self.table.check() + self.dedup.check()

    def traced_extras(self, metrics: dict) -> None:
        metrics["sources.read_s"] = (read_time(self.table.path)
                                     + read_time(self.dedup.path))


WORKLOADS = {
    "filter_big_shards": FilterWorkload,
    "profile_and_dedup": ProfileDedupWorkload,
}


# ------------------------------------------------------------------ traced mode

KERNELS = ("extract", "langid", "perplexity", "metrics", "rules", "scrub",
           "fused", "minhash")


def kernel_table() -> dict[str, float]:
    """Per-document time of each flagship kernel, in this process with no
    Ray, on the fixed 1,024-page batch: median of five passes."""
    import pyarrow as pa

    from dataprof_ray.functions import docquality as DQ
    from dataprof_ray.functions import patterns as P
    from dataprof_ray.pipelines import dedup as D
    from dataprof_ray.pipelines import quality_filter as QF

    batch = inputs.kernel_batch()
    n = batch.num_rows
    extracted = QF.extract_stage(batch)
    texts = extracted.column("extracted_text").to_pylist()
    text_arr = pa.array(texts, pa.string())
    langid, lm, cfg = DQ.LangIdModel(), DQ.TrigramLM(), DQ.FilterConfig()
    fused = QF.FusedFilterStage()
    langs, confs = langid.predict_batch(texts)
    ppl = lm.perplexity_batch(texts)
    mets = DQ.doc_metrics_batch(text_arr, langs)
    a, b = D._minhash_params(64)

    def rules():
        for m, lg, c, p in zip(mets, langs, confs, ppl):
            DQ.evaluate_rules(m, lg, float(c), float(p), cfg)
            DQ.quality_score(m, float(c), float(p), cfg)

    fns = {
        "extract": lambda: QF.extract_stage(batch),
        "langid": lambda: langid.predict_batch(texts),
        "perplexity": lambda: lm.perplexity_batch(texts),
        "metrics": lambda: DQ.doc_metrics_batch(text_arr, langs),
        "rules": rules,
        "scrub": lambda: P.scrub_series(texts),
        "fused": lambda: fused(batch),
        "minhash": lambda: D.minhash_signature_matrix(texts, 64, 5, a, b),
    }
    out = {}
    for name in KERNELS:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fns[name]()
            times.append(time.perf_counter() - t0)
        out[f"functions.{name}_us_per_doc"] = statistics.median(times) / n * 1e6
    return out


def layer_metrics(tracer: Tracer, traced_rounds: int,
                  traced_walls: list, plain_walls: list) -> dict:
    """Per-layer metrics of the traced rounds (per round where the metric
    is a time or a count of one round's work)."""
    from dataprof_ray import audit

    n = max(traced_rounds, 1)
    m: dict = {}
    for layer, secs in tracer.self_times().items():
        m[f"{layer}.self_s"] = secs / n
        m[f"{layer}.calls"] = sum(1 for s in tracer.spans
                                  if s["layer"] == layer) / n
    udf = op_wall = 0.0
    for _name, ds in tracer.datasets:
        try:
            table = audit.stage_summary(ds)
        except Exception:
            continue
        if len(table):
            udf += float(table["udf_sec"].fillna(0).sum())
            op_wall += float(table["wall_sec"].sum())
    m["pipelines.udf_s"] = udf / n
    m["pipelines.op_wall_s"] = op_wall / n

    # shard times: the job commits shards one after another, so a shard's
    # time is the gap between consecutive manifest commits (the first from
    # the start of its run_resumable_filter call)
    shard_times = []
    for run in [s for s in tracer.spans
                if s["name"] == "lineage.run_resumable_filter"]:
        prev = run["start"]
        for c in sorted((s for s in tracer.spans
                         if s["name"] == "lineage.LineageManifest.mark_complete"
                         and run["start"] <= s["start"] <= run["end"]),
                        key=lambda s: s["end"]):
            shard_times.append(c["end"] - prev)
            prev = c["end"]
    if shard_times:
        m["pipelines.shard_s_median"] = statistics.median(shard_times)
        m["pipelines.shard_s_max"] = max(shard_times)
        m["pipelines.executions_per_shard"] = (
            tracer.executions.get("jobs.main", 0) / len(shard_times))
        m["pipelines.overhead_s"] = (sum(shard_times) - udf) / n
    else:
        m["pipelines.overhead_s"] = (op_wall - udf) / n
    m["pipelines.executions"] = sum(tracer.executions.values()) / n
    m["pipelines.shuffles"] = sum(tracer.shuffles.values()) / n
    for call in CALLS:
        m[f"pipelines.executions.{call}"] = tracer.executions.get(call, 0) / n
        m[f"pipelines.shuffles.{call}"] = tracer.shuffles.get(call, 0) / n
        m[f"{call}_s"] = sum(s["end"] - s["start"] for s in tracer.spans
                             if s["name"] == call and s["layer"] == "bench") / n
    m["profile.collect_s"] = tracer.total("profile.collect_column_state") / n
    m["profile.assemble_s"] = tracer.total("profile.assemble_report") / n
    m["state.manifest_commit_s"] = tracer.total(
        "lineage.LineageManifest.mark_complete") / n
    m["state.manifest_bytes_written"] = tracer.manifest_bytes / n
    m["trace.overhead_s"] = (statistics.mean(traced_walls)
                             - statistics.mean(plain_walls))
    return m


# the benchmark calls that get their own per-layer entries
CALLS = ("jobs.main", "profile.profile_dataset",
         "aggregate.exact_global_quantiles", "aggregate.winsorized_stats",
         "aggregate.robust_outlier_stats", "aggregate.rollup_aggregate",
         "aggregate.group_distinct", "dedup.exact_dedup",
         "dedup.minhash_lsh_duplicate_groups")


def per_layer_names() -> list[str]:
    names = [f"functions.{k}_us_per_doc" for k in KERNELS]
    names += [f"{layer}.{kind}" for layer in ("sources", "pipelines", "state",
                                               "jobs")
              for kind in ("self_s", "calls")]
    names += ["sources.read_s", "pipelines.udf_s", "pipelines.op_wall_s",
              "pipelines.overhead_s", "pipelines.first_batch_s",
              "pipelines.steady_docs_per_s", "pipelines.shard_s_median",
              "pipelines.shard_s_max", "pipelines.executions_per_shard",
              "pipelines.executions", "pipelines.shuffles"]
    for call in CALLS:
        names += [f"pipelines.executions.{call}", f"pipelines.shuffles.{call}",
                  f"{call}_s"]
    names += ["profile.collect_s", "profile.assemble_s",
              "state.manifest_commit_s", "state.manifest_bytes_written",
              "trace.overhead_s"]
    return names


# ------------------------------------------------------------------ main

def cpu_ticks() -> tuple[int, int]:
    """(all, steal) CPU ticks of the machine since boot, from /proc/stat.
    Steal is time the hypervisor gave this VM's CPUs to someone else; a
    high share during the timed loop explains a slow run."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7]


def process_start() -> float:
    """Wall-clock start of this process, from /proc (10 ms ticks)."""
    with open("/proc/self/stat") as f:
        ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/stat") as f:
        btime = next(int(line.split()[1]) for line in f
                     if line.startswith("btime"))
    return btime + ticks / os.sysconf("SC_CLK_TCK")


def host_facts() -> dict:
    import ray

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "ray": ray.__version__,
        "python": platform.python_version(),
        "ray_cpus": RAY_CPUS,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--ray-tmp", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    started = process_start()

    import ray

    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=768 * 1024 ** 2, _temp_dir=args.ray_tmp)
    try:
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        wl = WORKLOADS[args.workload](args.work, args.seed)
        setup_s = time.time() - started
        host = host_facts()

        t_warm = time.perf_counter()
        wl.warm_up()
        phases = {"setup": setup_s, "warm_up": time.perf_counter() - t_warm}
        ops = Ops()
        tracer = Tracer() if args.trace else None
        plain, traced = [], []
        steal0 = cpu_ticks()
        round_steal = []
        t_loop = time.perf_counter()
        while (not plain or (tracer is not None and not traced)
               or time.perf_counter() - t_loop < args.seconds):
            use = tracer is not None and len(plain) > len(traced)
            if use:
                tracer.install()
            ticks0 = cpu_ticks()
            try:
                wall = wl.round(ops, tracer if use else None)
            finally:
                if use:
                    tracer.uninstall()
            (traced if use else plain).append(wall)
            ticks1 = cpu_ticks()
            round_steal.append((ticks1[1] - ticks0[1])
                               / max(ticks1[0] - ticks0[0], 1))
            if len(plain) + len(traced) == 1:
                # after the first round, so that it does not depend on how
                # many rounds fit in --seconds (results of every round are
                # kept for the checks)
                peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024)
        rounds = len(plain) + len(traced)
        phases["loop"] = time.perf_counter() - t_loop
        steal1 = cpu_ticks()
        host["steal_share"] = ((steal1[1] - steal0[1])
                               / max(steal1[0] - steal0[0], 1))
        t_after = time.perf_counter()

        metrics: dict = {}
        if tracer is not None:
            metrics = {name: 0.0 for name in per_layer_names()}
            metrics.update(layer_metrics(tracer, len(traced), traced, plain))
            wl.traced_extras(metrics)
            metrics.update(kernel_table())
            # next to runs.jsonl: the work directory is deleted after the run
            tracer.dump(os.path.join(os.path.dirname(args.work),
                                     f"spans-{args.workload}-{args.seed}.json"))
        try:
            problems = wl.after_rounds(ops)
        except Exception:  # a check that cannot finish is a failed check
            problems = ["check raised: " + traceback.format_exc()]
        phases["after_loop"] = time.perf_counter() - t_after
        host["loadavg_end"] = list(os.getloadavg())
        wall_s = statistics.mean(plain)
        if tracer is None:
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "docs_per_s": wl.docs / wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
        units = UNITS
        result = {
            "correct": not problems,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))}
                        for k, v in metrics.items()},
            "rounds": rounds,
            "round_walls_s": plain,
            "traced_round_walls_s": traced,
            "round_steal_share": round_steal,
            "call_walls_s": ops.walls,
            "host": host,
            "phases_s": phases,
            "errors": ops.errors,
            "problems": problems[:50],
        }
        for line in ops.errors + problems[:50]:
            print("perfbench:", line, file=sys.stderr)
        with open(args.result, "w") as f:
            json.dump(result, f)
        return 0
    finally:
        ray.shutdown()


UNITS = {"setup_s": "s", "wall_s": "s", "docs_per_s": "docs/s",
         "peak_rss_mb": "MB", "pipelines.steady_docs_per_s": "docs/s",
         "state.manifest_bytes_written": "bytes"}


def unit_of(name: str) -> str:
    if name.endswith("_us_per_doc"):
        return "us"
    if name.endswith("_s") or name.endswith("_s_median") or name.endswith("_s_max"):
        return "s"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
