#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<n>.json.

Runs ``perfbench/run.py`` unchanged, from the repository root: ``--trace 0``
once per workload and seed, then ``--trace 1`` once per workload on the first
seed, each for the ``run_seconds`` that BENCHMARK.json sets. Each run's last
stdout line is its JSON result. BENCH_<n>.json at the repository root holds
the machine fingerprint, ``git rev-parse HEAD``, the median and quartiles of
each end-to-end metric per workload, the traced run's per-layer metrics,
every run's output digests, one run of the tier-1 test command (``TIER1``,
after the benchmark runs): its wall seconds, exit code and outcome counts,
and the line count of each tracked file under ``LOC_DIRS`` with their totals.
An existing BENCH_<n>.json is refused before any run, and the new one is
written to a temporary file that is then renamed onto it.

``trace.overhead_pct`` is left out: on diagnostics_cli it divides the medians
of one or two iterations each and reads from -18% to +18% on unchanged code.

    python3 scripts/bench_perf.py 7 --seeds 3 --first-seed 101
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pretrain", "finetune_grid", "diagnostics_cli")
LEFT_OUT = ("trace.overhead_pct",)
# the tier-1 test command of ROADMAP.md; bench_perf runs it with src/ first
# on PYTHONPATH and its own interpreter
TIER1 = "python -m pytest -q --continue-on-collection-errors"
OUTCOMES = ("passed", "failed", "errors", "skipped", "xfailed", "xpassed")
# the directories whose size ROADMAP aim 2 tracks
LOC_DIRS = ("src/eaftlab", "scripts")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its JSON result plus the report lines it is read from."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    print(" ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_perf: {' '.join(argv[1:])} exited {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("fingerprint", "digests"):
            result[key] = json.loads(rest)
        elif key == "problem":
            result.setdefault("problems", []).append(rest)
    return result


def tier1() -> dict:
    """One timed run of the tier-1 tests and the counts of its summary line."""
    print(TIER1, file=sys.stderr, flush=True)
    path = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1.split()[1:]], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    # e.g. "2 failed, 399 passed, 1 error in 101.20s"; pytest writes "1 error"
    counts = {("errors" if word == "error" else word): int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {
        "command": f"PYTHONPATH=src {TIER1}",
        "seconds": seconds,
        "exit_code": proc.returncode,
        "summary": summary,
        **{outcome: counts.get(outcome, 0) for outcome in OUTCOMES},
    }


def line_counts(git: list) -> dict:
    """Lines of each file that git tracks under ``LOC_DIRS``, and the total
    of each directory and of all of them."""
    listed = subprocess.run(git + ["ls-files", *LOC_DIRS], capture_output=True, text=True, check=True)
    files = {name: len((ROOT / name).read_bytes().splitlines()) for name in listed.stdout.split()}
    totals = {d: sum(n for name, n in files.items() if name.startswith(d + "/")) for d in LOC_DIRS}
    return {"files": files, "totals": {**totals, "all": sum(files.values())}}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("n", type=int, help="trajectory number: writes BENCH_<n>.json")
    ap.add_argument("--seeds", type=int, default=3, help="untraced runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1, help="the seeds are first-seed, first-seed + 1, ...")
    args = ap.parse_args()
    path = ROOT / f"BENCH_{args.n}.json"
    if path.exists():  # refused before a many-minute run, not replaced after it
        sys.exit(f"bench_perf: {path} exists; record under another number")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True, check=True)

    doc = {
        "commit": commit.stdout.strip(),
        "tracked_files_modified": bool(status.stdout.strip()),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace T",
        "seeds": seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = {(seed, 0): run(workload, seed, seconds, 0) for seed in seeds}
        runs[seeds[0], 1] = traced = run(workload, seeds[0], seconds, 1)
        plain = [runs[seed, 0] for seed in seeds]
        machine = dict(plain[0]["fingerprint"])
        machine.pop("loadavg_at_start")
        doc.setdefault("machine", machine)
        units = {name: m["unit"] for name, m in plain[0]["metrics"].items()}
        doc["workloads"][workload] = {
            "end_to_end": {
                name: {"unit": unit, **spread([r["metrics"][name]["value"] for r in plain])}
                for name, unit in units.items()
            },
            "per_layer": {k: v for k, v in traced["metrics"].items() if k not in LEFT_OUT},
            "runs": [
                {
                    "seed": seed,
                    "trace": trace,
                    "loadavg_at_start": r["fingerprint"]["loadavg_at_start"],
                    "correct": r["correct"],
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                    "problems": r.get("problems", []),
                    "digests": r["digests"],
                }
                for (seed, trace), r in runs.items()
            ],
        }
    doc["tier1"] = tier1()
    doc["lines"] = line_counts(git)
    tmp = path.with_name(f".{path.name}.tmp")  # a reader never sees half a file
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
