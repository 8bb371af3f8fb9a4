"""Benchmark of corelat: times each workload end to end and, in a separate
traced run, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each round of a workload runs in a fresh single-threaded interpreter
(``worker.py``), one process at a time, so caches start cold in every
round and are shared by the jobs of that round.  Rounds repeat until
``--seconds`` have passed; ``--trace 1`` alternates untraced and traced
rounds.  Set-up time is also sampled by interpreters that only import
corelat.  Reported values are medians over rounds (and set-up samples).
Times are scaled to a fixed machine speed measured while they run (see
``probe.py``); on a shared machine whose speed drifts by tens of percent
they stay steady where raw seconds do not (README.md gives the figures).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` ones, with ``--trace 1`` its
``per_layer`` ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: set-up samples taken by import-only interpreters, after one warm-up
SETUP_SAMPLES = 8
#: a run must end within 180 s; no child may outlive this many seconds of it
RUN_LIMIT_S = 170


class BenchmarkError(Exception):
    pass


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "platform": platform.platform()}


def spawn(deadline: float, mode: str, **kw) -> dict:
    """Run one worker to completion and return its JSON line."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    args = [f"--{k.replace('_', '-')}={v}" for k, v in kw.items()]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for a {mode} round")
    cmd = [sys.executable, "-I", WORKER, "--mode", mode, *args]
    try:
        proc = subprocess.run(cmd + [f"--t0={time.monotonic()!r}"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} round did not end within the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    spawn(deadline, "setup")  # warm-up: the first start also writes bytecode caches
    setups = [spawn(deadline, "setup") for _ in range(SETUP_SAMPLES)]

    trace_out = os.path.join(OUT_DIR, f"trace-{workload}.jsonl")
    if traced and os.path.exists(trace_out):
        os.remove(trace_out)
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds or (traced and len(rounds) < 2):
        k = len(rounds)
        mode = "traced" if traced and k % 2 else "plain"
        extra = {"run_id": f"{workload}/seed{seed}/round{k}", "trace_out": trace_out} \
            if mode == "traced" else {}
        r = spawn(deadline, mode, workload=workload, seed=seed, **extra)
        r["mode"] = mode
        rounds.append(r)
        print(f"round {k} {mode}: wall_s={r['wall_s']:.4f} (raw {r['raw_wall_s']:.4f}) "
              f"setup_s={r['setup_s']:.4f} (raw {r['raw_setup_s']:.4f}) "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} failed={r['failed']}/{r['attempted']}",
              file=sys.stderr)
        for problem in r["problems"]:
            print(f"  {problem}", file=sys.stderr)

    def median(key, mode="plain"):
        return statistics.median(key(r) for r in rounds if r["mode"] == mode)

    starts = setups + rounds
    values = {
        "wall_s": median(lambda r: r["wall_s"]),
        "setup_s": statistics.median(r["setup_s"] for r in starts),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }
    kind = "end_to_end"
    if traced:
        kind = "per_layer"
        layer_rounds = [r["layers"] for r in rounds if r["mode"] == "traced"]
        for name in layer_rounds[0]:
            values[name] = statistics.median(lr[name] for lr in layer_rounds)
        values["trace.overhead_s"] = median(lambda r: r["wall_s"], "traced") - values["wall_s"]
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            raise BenchmarkError(f"the workload reported no value for {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": all(r["correct"] for r in rounds),
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    print(f"{workload}: wall_s={values['wall_s']:.4f} s "
          f"(raw {median(lambda r: r['raw_wall_s']):.4f} s), "
          f"setup_s={values['setup_s']:.4f} s "
          f"(raw {statistics.median(r['raw_setup_s'] for r in starts):.4f} s), "
          f"peak_rss_mb={values['peak_rss_mb']:.1f} MB, rounds={len(rounds)}, "
          f"attempted={result['attempted']}, failed={result['failed']}, "
          f"correct={result['correct']}")
    with open(os.path.join(OUT_DIR, f"result-{workload}-trace{int(traced)}.json"), "w") as fh:
        json.dump({"machine": machine(), "seed": seed, "seconds": seconds,
                   "setup_samples": setups, "rounds": rounds, "result": result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "corelat", "__init__.py")):
        print(f"error: no corelat sources under {ROOT}/src", file=sys.stderr)
        return 2
    # on SIGTERM, raise SystemExit so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT_DIR, exist_ok=True)
    print(json.dumps({"machine": machine()}))
    try:
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        results = {name: run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
        print(json.dumps(results))
        return 0
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
