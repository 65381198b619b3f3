"""Benchmark entry point for covmatroid.

    python3 bench/run.py --workload {enumerate,query,cli,all} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Runs from the root of a checkout and uses the package in its ``src``.  Each
run starts the workload in its own single-threaded process (``worker.py``),
after several set-up-only launches of the same script, and prints one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones.  ``--workload all`` runs the three workloads in turn and
prints one such line for each, with its ``workload`` name added.  Tail
percentiles of operation time go to stderr, on the workloads with enough
samples for them.  End-to-end times are scaled to a reference machine speed
by ``calibrate.py``; the unscaled figures go to stderr as well.

``--self-test`` runs one traced round of every workload twice, each in a
fresh process, and fails unless every counter repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("enumerate", "query", "cli")
SETUP_LAUNCHES = 15
TIMEOUT_S = 170


def launch(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start the worker, wait for it, and return (set-up seconds, its
    report).  Set-up runs from just before the process is created to the
    moment ``covmatroid.cli`` is imported in it."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return report["ready"] - t0, report


def timed_setup(cal: calibrate.Calibrator) -> tuple[float, float]:
    """One set-up-only launch, unscaled and scaled by the kernel samples
    taken just before and just after it."""
    first = len(cal.samples)
    for _ in range(2):
        cal.sample()
    setup = launch(["--setup-only"], 30)[0]
    cal.sample()
    return setup, setup * cal.factor(first)


def run_workload(workload: str, args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    cal = calibrate.Calibrator()
    timed_setup(cal)  # warm-up: the interpreter and package files are read in
    setups = [timed_setup(cal) for _ in range(SETUP_LAUNCHES)]
    report = launch(
        ["--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline - time.monotonic())[1]
    result = report["result"]
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s for _, s in setups), "unit": "s"}
        raw = {**report["raw"], "setup_s": statistics.median(s for s, _ in setups)}
        print(f"{workload}: unscaled " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items())
              + f"; scale {report['scale']:.4f} from {report['kernel_samples']} kernel"
              f" samples, set-up scale {cal.factor():.4f}", file=sys.stderr)
    for name, tail in report["tails"].items():
        print(f"{workload}: {name} = {tail['value']:.4f} ms "
              f"({tail['beyond']} of {tail['samples']} operations beyond)",
              file=sys.stderr)
    print(f"{workload}: {report['rounds']} rounds", file=sys.stderr)
    return result


def self_test() -> int:
    ok = True
    for workload in WORKLOADS:
        counts = [launch(["--workload", workload, "--seed", "7", "--rounds", "1",
                          "--trace", "1"], TIMEOUT_S)[1]["counts"]
                  for _ in range(2)]
        same = counts[0] == counts[1]
        ok = ok and same
        print(f"{workload}: {len(counts[0])} counters "
              f"{'repeat exactly' if same else 'DIFFER'}")
        if not same:
            for k in sorted(counts[0]):
                if counts[0][k] != counts[1].get(k):
                    print(f"  {k}: {counts[0][k]} vs {counts[1].get(k)}")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description="covmatroid benchmark")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "covmatroid")):
        print("error: no src/covmatroid in this checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [(name, run_workload(name, args)) for name in names]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results:
        print(json.dumps({"workload": name, **result} if len(names) > 1 else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
