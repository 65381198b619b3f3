"""One workload in its own single-threaded process.

Started by ``run.py``.  The first statements import ``covmatroid.cli`` from
the checkout's ``src`` and take the clock, so the parent can time a fresh
interpreter plus that import.  With ``--setup-only`` the process stops there.

Otherwise it runs whole rounds until ``--seconds`` have passed (or exactly
``--rounds`` rounds) and prints one JSON object on its last stdout line.
The calibration kernel of ``calibrate.py`` runs between steps, at most every
0.1 s and outside the timed work; each round's end-to-end times are scaled
by the kernel samples taken during that round.
With ``--trace 1`` each round's inputs run twice, untraced and then traced,
so the tracing overhead is the difference of the two.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import covmatroid.cli  # noqa: E402,F401  (timed as part of set-up)

READY = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402


def percentile_with_tail(samples: list[float], q: float):
    """The q-quantile and the count beyond it, or None with fewer than ten
    samples beyond."""
    beyond = int(len(samples) * (1 - q))
    if beyond < 10:
        return None
    return sorted(samples)[len(samples) - beyond - 1], beyond


def run(workload: str, seed: int, seconds: float, trace: bool, rounds: int) -> dict:
    import calibrate
    import tracing
    import workloads as w

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    inputs, run_round = {
        "enumerate": (w.enumerate_inputs, w.enumerate_round),
        "query": (w.query_inputs, w.query_round),
        "cli": (w.cli_inputs,
                lambda docs, rng, tracer=None: w.cli_round(docs, rng, workdir, tracer)),
    }[workload]

    cal = calibrate.Calibrator()
    cal.sample()
    w.between_steps = cal.maybe
    plain: list = []
    scales: list = []
    traced: list = []
    tracers: list = []
    spans: list = []
    start = time.perf_counter()
    try:
        r = 0
        while True:
            data = inputs(random.Random(f"{workload}:{seed}:{r}"))
            gc.collect()
            first = len(cal.samples) - 1
            plain.append(run_round(data, random.Random(f"check:{seed}:{r}")))
            scales.append(cal.factor(first))
            if trace:
                tracer = tracing.Tracer()
                tracer.install()
                gc.collect()
                try:
                    rnd = run_round(data, random.Random(f"check:{seed}:{r}"), tracer)
                finally:
                    tracer.uninstall()
                traced.append(rnd)
                spans.extend(tracer.spans[: tracing.MAX_SPANS - len(spans)])
                tracer.spans = []
                tracers.append((tracer, rnd.stdout_bytes))
            r += 1
            if rounds:
                if r >= rounds:
                    break
            elif time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = plain + traced
    wrong = [msg for rnd in every for msg in rnd.wrong]
    for msg in sorted(set(wrong))[:10]:
        print(f"wrong: {msg}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(len(rnd.op_times) for rnd in every),
        "failed": sum(rnd.failed for rnd in every),
    }
    # Each round's times are scaled by the kernel samples taken during it
    # (and the last one before it); the run's figures are medians over its
    # rounds and operations, so a stall that catches a few rounds moves
    # them little.
    ops = [t * f for rnd, f in zip(plain, scales) for t in rnd.op_times]
    work = [rnd.work * f for rnd, f in zip(plain, scales)]
    tails = {}
    for name, q in (("op_p95_ms", 0.95), ("op_p99_ms", 0.99)):
        got = percentile_with_tail(ops, q)
        if got is not None:
            tails[name] = {"value": got[0] * 1e3, "unit": "ms",
                           "samples": len(ops), "beyond": got[1]}
    counts = {}
    raw = {"wall_s": statistics.median(rnd.work for rnd in plain),
           "ops_per_s": statistics.median(len(rnd.op_times) / rnd.work for rnd in plain),
           "op_p50_ms": statistics.median(t for rnd in plain for t in rnd.op_times) * 1e3}
    if not trace:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(work), "unit": "s"},
            "ops_per_s": {"value": statistics.median(
                len(rnd.op_times) / t for rnd, t in zip(plain, work)), "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    else:
        times, counts = tracing.layer_metrics(tracers)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in {**times, **counts}.items()}
        overhead = [t.work - p.work for t, p in zip(traced, plain)]
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100 * sum(overhead) / sum(p.work for p in plain), "unit": "%"}
        result["metrics"] = metrics
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"), "w") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start_ns", "end_ns"]) + "\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    return {"ready": READY, "result": result, "tails": tails, "raw": raw,
            "scale": cal.factor(), "kernel_samples": len(cal.samples),
            "rounds": len(plain), "counts": {k: v for k, (v, _) in counts.items()}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("enumerate", "query", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds instead of --seconds")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.rounds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
