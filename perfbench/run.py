#!/usr/bin/env python3
"""Benchmark command: one run of one workload, run from the repository root.

    python3 perfbench/run.py --workload filter_big_shards --seed 1 \
        --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` under ``.perfbench/`` in
the working directory, starts ``bench.py`` in its own session to measure
them, stops every process that run started (Ray's daemons and workers
included), deletes the inputs and outputs, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones. Every run's full
record (round times, host facts, errors) is appended to
``.perfbench/runs.jsonl``.

Exits non-zero without a result when the program is not in the working
directory, or when the measuring process fails or overruns its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("filter_big_shards", "profile_and_dedup")
DEADLINE_S = 170  # the whole run, set-up and clean-up included
MARKER_VAR = "PERFBENCH_RUN"


def marked_pids(marker: str) -> list[int]:
    """Live processes whose environment carries this run's marker: the
    measuring process and everything it started, Ray's daemons included
    (they leave its session but inherit its environment)."""
    needle = f"{MARKER_VAR}={marker}".encode()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                if needle in f.read().split(b"\0"):
                    pids.append(int(name))
        except OSError:
            continue
    return pids


def reap(child, marker: str) -> None:
    if child is not None and child.poll() is None:
        try:
            os.killpg(child.pid, signal.SIGTERM)
            child.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass
    for attempt in range(100):
        pids = marked_pids(marker)
        if not pids:
            return
        sig = signal.SIGTERM if attempt < 10 else signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        if child is not None:
            try:
                child.wait(timeout=0.2)
            except subprocess.TimeoutExpired:
                pass
        else:
            time.sleep(0.2)
    print(f"perfbench: processes still running: {marked_pids(marker)}",
          file=sys.stderr)


def main() -> int:
    started = time.time()
    # a stopped run still stops what it started: SIGTERM unwinds through
    # the clean-up below instead of ending the interpreter on the spot
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dataprof_ray", "__init__.py")):
        print("perfbench: no dataprof_ray package in the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2

    import inputs

    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    # Ray's socket paths must stay under the 107-byte limit of AF_UNIX
    ray_tmp = os.path.join(base, f"r{os.getpid()}")
    if len(ray_tmp) > 40:
        ray_tmp = tempfile.mkdtemp(prefix="pb")
    os.makedirs(ray_tmp, exist_ok=True)
    marker = uuid.uuid4().hex
    result_path = os.path.join(work, "result.json")
    child = None
    record = None
    try:
        inputs.generate(args.workload, args.seed, work)
        gen_s = time.time() - started
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            x for x in (root, env.get("PYTHONPATH")) if x)
        env[MARKER_VAR] = marker
        env["RAY_DISABLE_IMPORT_WARNING"] = "1"
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "bench.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work, "--ray-tmp", ray_tmp, "--result", result_path],
            env=env, cwd=root, stdout=sys.stderr.fileno(),
            start_new_session=True)
        try:
            rc = child.wait(timeout=max(1.0, DEADLINE_S - (time.time() - started)))
        except subprocess.TimeoutExpired:
            rc = None
            print("perfbench: measuring process overran its deadline",
                  file=sys.stderr)
        if rc == 0 and os.path.exists(result_path):
            with open(result_path) as f:
                record = json.load(f)
    finally:
        reap(child, marker)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    if record is None:
        return 1
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  generate_s=gen_s, run_s=time.time() - started)
    with open(os.path.join(base, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
