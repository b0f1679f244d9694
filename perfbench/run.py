"""Run one workload of the taftlab benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Set-up runs SETUP_REPEATS times, each in a fresh interpreter that imports
taftlab.cli and writes the workload's input documents; setup_s is the
median.  This process then imports taftlab from the checkout's src/ and
runs the job list in passes, one job at a time, through taftlab.cli.main.
Every answer is checked against the oracle in workloads.py.

--trace 0 runs two passes, and more while another one fits in --seconds,
and reports the end-to-end metrics: setup_s, sweep_s (median pass),
max_job_s (slowest job's median) and peak_rss_mb.  Times are calibrated for
machine speed (speed.py).  --trace 1 runs one plain pass, then one
pass with every layer wrapped (layers.PLAN), and reports the per-layer
metrics plus trace.overhead_s, the traced pass minus the plain one; its
spans and counters go to perfbench/_traces/.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
MIN_PASSES = 2
# one process and no helper threads: pin the BLAS pools before numpy loads
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
END_TO_END = [("setup_s", "s"), ("sweep_s", "s"), ("max_job_s", "s"),
              ("peak_rss_mb", "MB")]


def timed_setup(workload: str, seed: int, work: str) -> dict:
    """Import taftlab.cli and write the inputs in a fresh interpreter:
    {"wall_s", "calibrated_s"} as that interpreter measured them."""
    shutil.rmtree(work, ignore_errors=True)
    done = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--dir", work],
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def memo_caches(package) -> list:
    """Every functools cache in the package's modules, each listed once."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(package.__name__):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def run_pass(jobs, invoke, caches) -> list:
    """Run every job once: [(wall s, calibrated s, rc, stdout, stderr)].

    Memo caches are emptied before each job, so each one starts as cold as
    a fresh `taft` process would.  Wall times exclude the speed probe's own
    samples; calibrated times are speed.SpeedProbe.calibrate of them.
    """
    raw = []
    with speed.SpeedProbe() as probe:
        for index, job in enumerate(jobs):
            for cache in caches:
                cache.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            spent = probe.spent
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = invoke(index, job)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # noqa: BLE001 - a crash fails the job only
                rc = "raised %s: %s" % (type(exc).__name__, exc)
            ended = time.perf_counter()
            wall = ended - started - (probe.spent - spent)
            raw.append((started, ended, wall, rc, out.getvalue(),
                        err.getvalue()))
    return [(wall, probe.calibrate(started, ended, wall), rc, out, err)
            for started, ended, wall, rc, out, err in raw]


def count_failures(jobs, results) -> int:
    failed = 0
    for job, (_, _, rc, out, err) in zip(jobs, results):
        problem = workloads.check(job, rc, out, err)
        if problem is not None:
            failed += 1
            print("FAILED %s: %s" % (job.label, problem), file=sys.stderr)
    return failed


def sweeps(results) -> tuple:
    """(wall, calibrated) seconds of one pass, summed over its jobs."""
    return (sum(r[0] for r in results), sum(r[1] for r in results))


def measure(jobs, cli, caches, seconds: float) -> dict:
    """At least MIN_PASSES passes, more while another fits in `seconds`;
    medians over the passes.  peak_rss_mb is read after the first pass, so
    it does not grow with the number of passes that fit."""
    started = time.perf_counter()
    passes, failed, peak_rss_mb = [], 0, None
    while True:
        results = run_pass(jobs, lambda i, job: cli.main(list(job.argv)), caches)
        passes.append(results)
        failed += count_failures(jobs, results)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(
                sweeps(p)[0] for p in passes) > seconds:
            break

    def job_median(j, k):
        return statistics.median(p[j][k] for p in passes)

    return {"passes": len(passes), "failed": failed, "peak_rss_mb": peak_rss_mb,
            "sweep_s": statistics.median(sweeps(p)[1] for p in passes),
            "max_job_s": max(job_median(j, 1) for j in range(len(jobs))),
            "sweep_wall_s": statistics.median(sweeps(p)[0] for p in passes),
            "max_job_wall_s": max(job_median(j, 0) for j in range(len(jobs)))}


def traced(jobs, cli, caches, trace_path: str) -> dict:
    """One plain pass, then one pass with every layer wrapped."""
    plain = run_pass(jobs, lambda i, job: cli.main(list(job.argv)), caches)
    failed = count_failures(jobs, plain)
    tr = tracer.Tracer()
    layers.install(tr)
    try:
        wrapped = run_pass(
            jobs, lambda i, job: tr.job(i, job.label,
                                        lambda: cli.main(list(job.argv))),
            caches)
    finally:
        tr.restore()
    failed += count_failures(jobs, wrapped)
    metrics = layers.layer_metrics(tr, workloads.written_bytes(jobs))
    metrics["trace.overhead_s"] = sweeps(wrapped)[1] - sweeps(plain)[1]
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump(tr.to_json(), fh)
    return {"passes": 2, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="taftlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)
    workloads.use_checkout_sources()
    work = os.path.join(HERE, "_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        setups = [timed_setup(args.workload, args.seed, work)
                  for _ in range(SETUP_REPEATS)]
        import taftlab
        from taftlab import cli
        jobs = workloads.jobs(args.workload, work)
        caches = memo_caches(taftlab)
        if args.trace:
            run = traced(jobs, cli, caches, os.path.join(
                HERE, "_traces", "%s-seed%d.json" % (args.workload, args.seed)))
            metrics = run["metrics"]
            units = {name: unit for name, unit, _ in layers.METRICS}
            units["trace.overhead_s"] = "s"
            notes = {}
        else:
            run = measure(jobs, cli, caches, args.seconds)
            metrics = {"setup_s": statistics.median(
                           t["calibrated_s"] for t in setups),
                       "sweep_s": run["sweep_s"],
                       "max_job_s": run["max_job_s"],
                       "peak_rss_mb": run["peak_rss_mb"]}
            units = dict(END_TO_END)
            notes = {"setup_s": "calibrated; wall %.4g s" % statistics.median(
                         t["wall_s"] for t in setups),
                     "sweep_s": "calibrated; wall %.4g s" % run["sweep_wall_s"],
                     "max_job_s": "calibrated; wall %.4g s"
                     % run["max_job_wall_s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(jobs) * run["passes"]
    print("workload %s, seed %d: %d jobs x %d passes"
          % (args.workload, args.seed, len(jobs), run["passes"]))
    for name, value in metrics.items():
        print("  %-34s %14.6g %-5s %s" % (name, value, units[name],
                                          notes.get(name, "")))
    print("  %-34s %14.6g %-5s %d of %d jobs failed"
          % ("error_rate", run["failed"] / attempted, "ratio", run["failed"],
             attempted))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
