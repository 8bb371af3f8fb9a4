"""One round of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python -I worker.py --t0 T ...`` where T is the
parent's CLOCK_MONOTONIC reading just before the start, so the set-up time
covers interpreter start-up and ``import corelat``.  Prints one JSON line.

``--mode setup`` stops after the import; ``plain`` times the jobs;
``traced`` times them with ``tracing.Tracer`` installed and adds the
per-layer values.  Times are measured under ``probe.SpeedProbe`` and
reported both raw and scaled to the reference speed.  Correctness checks
run after the clock stops.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

from probe import IMPORT_INTERVAL_S, JOB_INTERVAL_S, SpeedProbe  # noqa: E402

with SpeedProbe(IMPORT_INTERVAL_S) as IMPORT_PROBE:
    import corelat  # noqa: E402
IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_round(jobs, tracer=None) -> tuple[list, float, float, float]:
    """Run the jobs in order; returns (outputs, raw wall seconds of the jobs
    less the probe's samples, the same scaled to the reference speed, peak
    RSS in MB).  A job that raises yields its exception as output."""
    outputs = []
    with SpeedProbe(JOB_INTERVAL_S) as probe:
        start = time.perf_counter()
        for job in jobs:
            run = job.run if tracer is None else tracer.span("job", job.run)
            try:
                outputs.append(run())
            except Exception as exc:  # one failed job must not stop the round
                outputs.append(exc)
                traceback.print_exc()
        wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outputs, wall - sum(probe.samples), probe.scaled(wall), rss


def judge(jobs, outputs, seed: int) -> tuple[int, list]:
    """Check every output; returns (failed operations, problems)."""
    import checks

    failed, problems = 0, []
    for job, out in zip(jobs, outputs):
        try:
            if isinstance(out, Exception):
                raise checks.JobFailed(f"raised {out!r}")
            job.check(out, random.Random(f"{seed}:{job.name}"))
        except checks.JobFailed as exc:
            failed += 1
            problems.append({"job": job.name, "failed": str(exc)})
        except Exception as exc:  # a wrong or malformed output
            problems.append({"job": job.name, "incorrect": f"{type(exc).__name__}: {exc}"})
    return failed, problems


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    where = os.path.dirname(os.path.abspath(corelat.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"corelat was imported from {where}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"raw_setup_s": IMPORTED - args.t0 - sum(IMPORT_PROBE.samples),
              "setup_s": IMPORT_PROBE.scaled(IMPORTED - args.t0)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import tracing
    from workloads import VERIFY_SUITES, WORKLOADS

    jobs = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        caches_before = tracing.cache_counts()
        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    outputs, raw_wall, wall, rss = run_round(jobs, tracer)
    if tracer is not None:
        tracer.uninstall()
        after = tracing.cache_counts()
        delta = {k: (after[k][0] - caches_before[k][0], after[k][1] - caches_before[k][1])
                 for k in after}
        layers = {f"verify.{s}_s": 0.0 for s in VERIFY_SUITES}
        layers.update(tracer.metrics(delta))
        # layer times at the reference speed, like the round's wall time
        result["layers"] = {k: v * wall / raw_wall if k.endswith("_s") else v
                            for k, v in layers.items()}
        if args.trace_out:
            tracer.write(args.trace_out)
    failed, problems = judge(jobs, outputs, args.seed)
    result.update(raw_wall_s=raw_wall, wall_s=wall, peak_rss_mb=rss, attempted=len(jobs), failed=failed,
                  correct=not any("incorrect" in p for p in problems), problems=problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
