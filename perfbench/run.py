"""eaftlab performance benchmark.

    python3 perfbench/run.py --workload finetune_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. One
process, single-threaded BLAS. Set-up runs several times and reports its
median; then whole workload iterations repeat until ``--seconds`` have
passed. With ``--trace 1`` traced and untraced iterations alternate, the
per-layer metrics come from the traced ones, and their outputs must match the
untraced ones bit for bit. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for the workloads and every metric.
"""

import os
import sys
import time

START = time.perf_counter()
# Pin BLAS before numpy is imported; threadpoolctl is not available.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pretrain", "finetune_grid", "diagnostics_cli")
END_TO_END = ("setup_s", "run_s", "steps_per_s", "peak_rss_mb")
SETUP_REPEATS = 3
MIN_ITERATIONS = 2  # so every run compares two iterations of its seed


def import_package():
    """Import eaftlab from this checkout's ``src/`` or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import eaftlab

        modules = {name: importlib.import_module(f"eaftlab.{name}") for name in LAYERS}
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import eaftlab from {src}: {exc}")
    if not Path(eaftlab.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: eaftlab was imported from {eaftlab.__file__}, not {src}")
    return modules, workloads


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure(workload, tracer, work: Path, seconds: float):
    """Repeat iterations for ``seconds`` and at least ``MIN_ITERATIONS``; traced
    ones alternate with plain ones (plain-traced, traced-plain, ...) when a
    tracer is given, and both kinds run equally often."""
    times = {False: [], True: []}
    attempted = failed = 0
    first_digest: dict[str, str] = {}
    problems: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 4 in (1, 2)
        out = work / f"iteration{i}"
        out.mkdir()
        t0 = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            outcome = workload.run(out)
        times[traced].append(time.perf_counter() - t0)
        try:
            results = workload.check(outcome, out)
        except Exception as exc:  # a check that cannot complete fails the iteration
            results = [(f"iteration{i}", False, repr(exc))] * workload.operations
        for op, ok, digest in results:
            attempted += 1
            if first_digest.setdefault(op, digest) != digest:
                problems.append(f"{op}: iteration {i} digest differs from iteration 0")
                ok = False
            if not ok:
                failed += 1
                problems.append(f"{op}: failed in iteration {i} ({digest})")
        shutil.rmtree(out)
        i += 1
        done = i >= MIN_ITERATIONS and time.perf_counter() - start >= seconds
        if done and (tracer is None or i % 2 == 0):
            return times, attempted, failed, first_digest, problems


def run_workload(args) -> int:
    modules, workloads = import_package()
    import_s = time.perf_counter() - START
    machine = fingerprint()
    seeds = workloads.Seeds.derive(args.seed)
    workload = workloads.WORKLOADS[args.workload](seeds)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        setup_times, setup_digests = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup_digests.append(workload.setup(work))
            setup_times.append(time.perf_counter() - t0)
        tracer = Tracer(modules) if args.trace else None
        times, attempted, failed, digests, problems = measure(workload, tracer, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()
    if len(set(setup_digests)) != 1:
        problems.append(f"set-up is not deterministic: {setup_digests}")
    plain = times[False]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "setup_s": (import_s + statistics.median(setup_times), "s", SETUP_REPEATS),
        "run_s": (statistics.median(plain), "s", len(plain)),
    }
    for name, per_iteration in workload.rates().items():
        report[name] = (statistics.median(per_iteration / t for t in plain), "1/s", len(plain))
    report["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    report["error_rate"] = (failed / attempted, "ratio", attempted)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    print("seeds " + json.dumps(vars(seeds) | {"benchmark": args.seed}, sort_keys=True))
    print(f"{'metric':<56} {'value':>16} {'unit':<6} n")
    for name, (value, unit, n) in report.items():
        print(f"{name:<56} {value:>16.6f} {unit:<6} {n}")
    if args.trace:
        traced = times[True]
        layer = tracer.metrics(len(traced))
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        layer["trace.overhead_pct"] = (overhead, "%")
        for name, (value, unit) in layer.items():
            print(f"{name:<56} {value:>16.6f} {unit:<6} {len(traced)}")
        print("absent " + json.dumps(tracer.absent))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": report[k][0], "unit": report[k][1]} for k in END_TO_END}
    print("digests " + json.dumps({"setup": setup_digests[0], **digests}, sort_keys=True))
    for problem in problems:
        print("problem " + problem)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    summary, status = [], 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            summary.append((name, json.loads(lines[-1])))
    print("summary")
    for name, result in summary:
        flags = f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
        print(f"  {name}: {flags}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
