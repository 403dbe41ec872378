"""Benchmark of the prolong package: one seeded workload per invocation.

    python3 perfbench/run.py --workload ideal-gb --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each invocation starts fresh child
processes (perfbench/child.py): one that sets up and runs the workload's
fixed batch in passes for --seconds (at least three passes) and, without
--trace, SETUP_PROBES around it that only set up.  One client, closed loop,
one op at a time, no threads.  It prints the metrics by name and unit, and as its last line one
JSON object with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 alternates untraced and traced passes of the same seed and
reports the per-layer metrics ("per_layer").  Op times are divided by
calibration samples taken around and during each op
(perfbench/calibrate.py); the unit "cal" is one sample.

    python3 perfbench/run.py --workload ideal-gb --write-reference

rewrites perfbench/reference/ideal-gb.json from seed 0, after every oracle
check passed.  See perfbench/WORKLOADS.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PACKAGE = os.path.join(ROOT, "src", "prolong", "__init__.py")
WORKLOADS = ("ideal-gb", "cli-golden", "series-flow", "qt-prolong")
# Set-up-only children, half before and half after the measuring one, so
# that the median set-up spans the run's host conditions.
SETUP_PROBES = 8
# Everything, children included, ends within this many seconds.
TIME_LIMIT = 170.0
# The highest percentile with at least ten ops beyond it is reported as the
# tail; only these are candidates, so that runs of one workload agree on it.
TAIL_PERCENTILES = (90, 75, 50)

LAYER_COUNTS = (
    "field.ops", "poly.mul.calls", "poly.gcd.calls", "poly.reduce_fraction.calls",
    "poly.compose.calls", "poly.evaluate.calls", "groebner.spolys", "groebner.bases",
    "groebner.basis_vars_max", "groebner.normal_forms", "series.solves",
    "series.map_evals", "series.mul.calls", "series.inverse.calls", "prolongation.calls",
    "linalg.rref.calls", "dgroup.checks", "atlas.sigma_checks", "expr.parses",
    "expr.formats", "model.loads", "cli.runs",
)
LAYER_SHARES = {
    "field.self_share": "field",
    "poly.self_share": "poly",
    "groebner.buchberger.self_share": "groebner.buchberger",
    "groebner.normal_form.self_share": "groebner.normal_form",
    "series.self_share": "series",
    "prolongation.self_share": "prolongation",
    "linalg.self_share": "linalg",
    "dgroup.self_share": "dgroup",
    "atlas.self_share": "atlas",
    "expr.self_share": "expr",
    "model.self_share": "model",
    "cli.self_share": "cli",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(mode, args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--spawned-at", repr(started)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed nothing:\n{err.strip()}")
    return json.loads(lines[-1])


def _normalised(passes):
    """Per pass: op times, each divided by the calibration taken around it,
    and their sum, the batch time; also both in raw seconds."""
    batches, ops, raw_batches, raw_ops = [], [], [], []
    for p in passes:
        norm = [t / c for t, c in zip(p["times"], p["cal"])]
        batches.append(sum(norm))
        ops.extend(norm)
        raw_batches.append(sum(p["times"]))
        raw_ops.extend(p["times"])
    return batches, ops, raw_batches, raw_ops


def _tail(values):
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return 50, statistics.median(values)


def _end_to_end(setups, result):
    batches, ops, raw_batches, raw_ops = _normalised(result["passes"])
    pct, tail = _tail(ops)
    _, raw_tail = _tail(raw_ops)
    n = len(ops)
    lines = [
        f"ops {n} in {len(batches)} passes, failed {result['failed']}, "
        f"fail_ratio {result['failed'] / n:.6g} 1",
        f"setup_s {statistics.median(setups):.4f} s (median of {len(setups)} set-ups)",
        f"batch_norm {statistics.median(batches):.2f} cal "
        f"(raw {statistics.median(raw_batches):.3f} s, median of {len(batches)} passes)",
        f"op_p50_norm {statistics.median(ops):.3f} cal "
        f"(raw {statistics.median(raw_ops) * 1000:.2f} ms)",
        f"op_tail_norm {tail:.3f} cal (p{pct} of {n} ops; raw {raw_tail * 1000:.2f} ms)",
        f"peak_rss_mb {result['peak_rss_mb']:.2f} MB",
    ]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "batch_norm": (statistics.median(batches), "cal"),
        "op_p50_norm": (statistics.median(ops), "cal"),
        "op_tail_norm": (tail, "cal"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return lines, metrics


def _per_layer(result):
    trace = result["trace"]
    counts = trace["counts"]
    traced_batch = sum(result["traced_passes"][0]["times"])
    metrics = {name: (counts[name], "count") for name in LAYER_COUNTS}
    ops = counts["field.ops"]
    metrics["field.nonconst_share"] = (counts["field.nonconst_ops"] / ops if ops else 0.0, "1")
    spolys = counts["groebner.spolys"]
    metrics["groebner.spoly_useful_ratio"] = (
        counts["groebner.spolys_useful"] / spolys if spolys else 0.0, "1")
    for name, layer in LAYER_SHARES.items():
        metrics[name] = (trace["self_time"][layer] / traced_batch, "1")
    untraced, _, _, _ = _normalised(result["passes"])
    traced, _, _, _ = _normalised(result["traced_passes"])
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced),
                                       "1")
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    lines.insert(0, f"traced batch {traced_batch:.3f} s; "
                    f"{len(result['traced_passes'])} traced and {len(result['passes'])} "
                    f"untraced passes")
    return lines, metrics


def bench(args):
    deadline = time.monotonic() + TIME_LIMIT
    if args.trace:
        result = _spawn("trace", args, deadline)
        lines, metrics = _per_layer(result)
    else:
        setups = [_spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        result = _spawn("measure", args, deadline)
        setups.append(result["setup_s"])
        setups += [_spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        lines, metrics = _end_to_end(setups, result)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print("  " + line)
    for failure in result["failures"]:
        print("  FAILED " + failure)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_reference(args):
    result = _spawn("reference", args, time.monotonic() + TIME_LIMIT)
    if result["failed"]:
        raise BenchError("oracle checks failed; reference not written:\n"
                         + "\n".join(result["failures"]))
    print(f"wrote reference digests of {result['written']} ops for {args.workload}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite the workload's reference digests from --seed")
    args = p.parse_args(argv)
    try:
        if not os.path.isfile(PACKAGE):
            raise BenchError(f"no prolong package at {os.path.relpath(PACKAGE, ROOT)}; "
                             "run from a checkout of the repository")
        if args.write_reference:
            write_reference(args)
            return 0
        result = bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
