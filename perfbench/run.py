#!/usr/bin/env python3
"""Benchmark of the zakgkp library and its CLI, end to end and layer by layer.

Run from the root of a checkout (the library is imported from ``src``)::

    python3 perfbench/run.py --workload cli_csv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE_RESULTS_DIR NEW_RESULTS_DIR

Every end-to-end and per-layer metric of every workload, in one command::

    for w in cli_csv cli_bin lib_ssd; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --trace $t; done; done

The output check alone is tested by ``python3 -m pytest perfbench/test_check.py``.

One closed-loop client in one process sends the next job only after the
previous one completed; BLAS is pinned to one thread here and in every CLI
subprocess.  Each workload runs a fixed, seeded job list whose length is
set from ``--seconds`` and the workload's nominal rounds per minute, so the
list itself does not depend on the speed of the code.  Outputs are checked
outside the timed region; a failed check counts as a failed job.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the jobs in-process, each once plain and once with spans
around the calls into every layer, and reports the per-layer metrics.  The
last line of standard output is the JSON result; every run also saves a
record with the environment to ``--results`` (``.bench_results``), which
``--compare`` reads.
"""

import os

# before numpy loads, here and (through the inherited environment) in every CLI subprocess
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(ROOT / ".bench_results"), help="directory for run records")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result directories")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement


def run_job(job, inprocess):
    """``(seconds, output, error)``; only ``job.run`` is timed."""
    start = time.perf_counter()
    try:
        output, error = job.run(inprocess), None
    except Exception as exc:  # a failing job is counted, not fatal
        output, error = None, f"{job.kind}: {exc!r}"
    return time.perf_counter() - start, output, error


def check_job(job, output):
    try:
        return job.check(output)
    except Exception:  # a malformed output is a failed check
        return [f"{job.kind}: check raised {traceback.format_exc(limit=2)}"]


class Tally:
    """Failures per job, including cross-job group checks at the end of each round."""

    def __init__(self, group_checks):
        self.group_checks = group_checks
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.kinds = {}

    def round(self, results):
        """``results``: ``(job, output, errors)`` for every job of one round."""
        failed = {id(job) for job, _, errors in results if errors}
        groups = {}
        for job, output, errors in results:
            self.kinds[job.kind] = self.kinds.get(job.kind, 0) + 1
            self.errors += errors
            if job.group is not None:
                groups.setdefault(job.group, []).append((job, output))
        for key, members in groups.items():
            if any(id(job) in failed for job, _ in members):
                continue
            errors = self.group_checks[key[0]](members)
            if errors:
                self.errors += errors
                failed.update(id(job) for job, _ in members)
        self.attempted += len(results)
        self.failed += len(failed)


def run_plain(workload, rounds, group_checks):
    """Set-up ``SETUP_REPEATS`` times, then the job list as the user runs it."""
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - start)
    latencies, by_kind, tally = [], {}, Tally(group_checks)
    for index in range(rounds):
        results = []
        for job in workload.round(index):
            seconds, output, error = run_job(job, inprocess=False)
            latencies.append(seconds)
            by_kind.setdefault(job.kind, []).append(seconds)
            errors = [error] if error else check_job(job, output)
            job.cleanup()
            results.append((job, output if job.group is not None else None, errors))
        tally.round(results)
    return setup, latencies, by_kind, tally


def run_traced(workload, rounds, group_checks, tracer):
    """Set-up once, traced; then each job in-process once plain and once
    traced, alternating which goes first."""
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    plain, traced, tally, count = [], [], Tally(group_checks), 0
    for index in range(rounds):
        results = []
        for job in workload.round(index):
            errors = []
            for traced_side in ((False, True) if count % 2 == 0 else (True, False)):
                if traced_side:
                    tracer.job = count
                    tracer.install()
                try:
                    seconds, output, error = run_job(job, inprocess=True)
                finally:
                    tracer.uninstall()
                (traced if traced_side else plain).append(seconds)
                errors += [error] if error else check_job(job, output)
                job.cleanup()
            results.append((job, output if job.group is not None else None, errors))
            count += 1
        tally.round(results)
    return plain, traced, tally


def import_ms(env):
    """Median over fresh interpreters of the time to ``import zakgkp.cli``."""
    code = "import time; t = time.perf_counter(); import zakgkp.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return 1e3 * statistics.median(times)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def tail(latencies):
    """``(value, percentile, jobs beyond)``: the highest order statistic with
    ``TAIL_BEYOND`` jobs above it, or the maximum when there are too few jobs."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# ---------------------------------------------------------------------------
# environment record


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed):
    import platform

    import numpy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = {}
    for path in sorted((SRC / "zakgkp").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.name] = sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "src_lines": {"total": sum(lines.values()), **lines},
    }


# ---------------------------------------------------------------------------
# reporting


def metric_block(definitions, values):
    missing = [d["name"] for d in definitions if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in definitions}


def measure(args, spec):
    sys.path.insert(0, str(SRC))
    import workloads

    cls, rounds_per_minute = workloads.WORKLOADS[args.workload]
    rounds = max(1, round(rounds_per_minute * args.seconds / 60))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = cls(args.workload, str(work), SRC, args.seed)
    cli = cls is workloads.CliWorkload
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            # every job runs twice, so half the rounds fill the same time
            rounds = max(1, rounds // 2)
            plain, traced, tally = run_traced(workload, rounds, workloads.GROUP_CHECKS, tracer)
            values = tracing.layer_metrics(tracer)
            values["cli.import_ms"] = import_ms(workloads.child_env(SRC))
            values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
            definitions = spec["per_layer"]
            spans = Path(args.results) / f"{args.workload}-s{args.seed}-spans-{time.time_ns()}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans)
            detail["spans"] = str(spans)
        else:
            setup, latencies, by_kind, tally = run_plain(workload, rounds, workloads.GROUP_CHECKS)
            wall = sum(latencies)
            tail_s, tail_pct, beyond = tail(latencies)
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "jobs_per_s": len(latencies) / wall,
                "job_ms.p50": 1e3 * statistics.median(latencies),
                "job_ms.tail": 1e3 * tail_s,
                "ok_frac": 1 - tally.failed / tally.attempted,
                "peak_rss_mb": peak_rss_mb(children=cli),
            }
            definitions = spec["end_to_end"]
            detail["setup_runs_s"] = setup
            detail["job_ms_p50_by_kind"] = {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())}
            detail["tail"] = {"percentile": tail_pct, "beyond": beyond, "jobs": len(latencies)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update(rounds=rounds, jobs=tally.kinds, fail_frac=tally.failed / tally.attempted, errors=tally.errors[:20])
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metric_block(definitions, values),
    }
    return result, detail


def print_result(result, detail, env):
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  rounds {detail['rounds']}  "
          f"jobs {result['attempted']}  failed {result['failed']}  fail_frac {detail['fail_frac']:.6g}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if "tail" in detail:
        t = detail["tail"]
        print(f"  job_ms.tail is p{t['percentile']:.1f}: {t['beyond']} of {t['jobs']} jobs lie beyond it")
    for error in detail["errors"]:
        print(f"  FAILED: {error}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# compare mode


def load_records(directory):
    by_workload = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0 and "result" in record:
            by_workload.setdefault(record["workload"], []).append(record["result"]["metrics"])
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(base_dir, new_dir, spec):
    base, new = load_records(base_dir), load_records(new_dir)
    print(f"{'workload':9s} {'metric':14s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(base.keys() & new.keys()):
        for definition in spec["end_to_end"]:
            name, bound = definition["name"], definition["bound"]
            a = [m[name]["value"] for m in base[workload]]
            b = [m[name]["value"] for m in new[workload]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            change = (bm - am) / am
            worse = change if definition["better"] == "lower" else -change
            if (a3 - a1) / am > bound:
                lower = definition["better"] == "lower"
                all_better = max(b) < min(a) if lower else min(b) > max(a)
                verdict = "better (every run)" if all_better else "unresolved"
            elif worse > bound:
                verdict = "WORSE"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:9s} {name:14s} {am:12.6g} [{a1:9.6g}, {a3:9.6g}] {bm:12.6g} [{b1:9.6g}, {b3:9.6g}] "
                  f"{100 * change:+7.2f}% {bound:6.2f}  {verdict}  (n={len(a)}/{len(b)})")


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare:
        compare(*args.compare, spec)
        return 0
    if not args.workload or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: --workload must be one of {[w['name'] for w in spec['workloads']]}", file=sys.stderr)
        return 2
    if not (SRC / "zakgkp" / "__init__.py").is_file():
        print(f"error: no zakgkp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result, detail = measure(args, spec)
    env = environment(args.seed)
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    record = dict(detail, env=env, result=result)
    with open(results / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_result(result, detail, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
