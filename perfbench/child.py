"""One benchmark process: set up, run the workload's batch in passes, report.

Started by run.py in a fresh interpreter.  It imports the package from the
checkout's ``src``, builds the seeded inputs, runs one warm-up op and
records the set-up time from its own spawn.  Modes:

- ``setup`` stops there;
- ``measure`` runs the batch in passes, one op at a time, with calibration
  samples around and during each op, and checks every output outside the
  timed region: the committed reference or the oracles on the first pass,
  equality with the first pass's digests after that;
- ``trace`` alternates untraced and traced passes and adds the counts and
  self times of the first traced pass;
- ``reference`` runs one pass and, if every oracle passed, writes the
  workload's reference digests.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from time import perf_counter

from calibrate import Sampler, calibration_sample

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")
MIN_PASSES = 3
BRACKET_SAMPLES = 4


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace", "reference"), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    return p.parse_args(argv)


def _reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def _load_reference(workload):
    try:
        with open(_reference_path(workload), encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


class Run:
    """State of one measuring process."""

    def __init__(self, W, ops, seed, reference, sampler):
        self.W = W
        self.sampler = sampler
        self.ops = ops
        self.seed = seed
        self.reference = reference
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{op.name}: {why}")

    def _expected_digest(self, op):
        """The reference digest that applies to this op's inputs, if any.

        A reference is written only after every oracle passed on its
        inputs, so matching it stands for the oracle on later runs.
        """
        ref = self.reference
        if ref is None:
            return None
        if op.fixed or self.seed == ref["seed"]:
            return ref["digests"].get(op.name, "(none)")
        return None

    def _bracket(self):
        return [calibration_sample() for _ in range(BRACKET_SAMPLES)]

    def run_pass(self, tracer=None):
        """Time every op once; returns op seconds and, per op, the mean of
        the calibration samples taken just before, during and just after it.

        With a tracer, it must be installed by the caller; outputs of a
        traced pass are compared by digest, which calls nothing it wraps.
        """
        W = self.W
        first = self.first_digests is None
        digests = []
        times = []
        cals = []
        sampler = self.sampler
        for index, op in enumerate(self.ops):
            # Each op starts from an empty young heap, so the collections
            # inside it depend on its own allocations, not on its place in
            # the batch.
            gc.collect()
            cal = self._bracket()
            if tracer is not None:
                tracer.begin_op(index)
            with sampler:
                start = sampler.clock()
                out = W.call(op)
                times.append(sampler.clock() - start)
            cal += sampler.samples + self._bracket()
            cals.append(statistics.fmean(cal))
            self.attempted += 1
            d = W.digest(out)
            digests.append(d)
            why = None
            if first:
                want = self._expected_digest(op)
                if want is None:
                    why = W.verify(op, out)
                elif want != d:
                    why = f"digest {d} differs from the reference {want}"
            elif d != self.first_digests[index]:
                why = "digest differs from the first pass"
            if why is not None:
                self._fail(op, why)
        if first:
            self.first_digests = digests
        return times, cals


def main(argv=None):
    args = _parse(argv if argv is not None else sys.argv[1:])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as W

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ops = W.build(args.workload, args.seed, workdir)
        W.call(ops[0])  # warm-up
        setup_s = time.monotonic() - args.spawned_at
        gc.collect()
        gc.freeze()  # set-up objects stay out of the collections timed later
        result = {"setup_s": setup_s}
        if args.mode == "reference":
            result.update(_write_reference(W, ops, args))
        elif args.mode != "setup":
            result.update(_measure(W, ops, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def _measure(W, ops, args):
    """Untraced passes; with --mode trace, untraced and traced passes in turn."""
    sampler = Sampler()
    run = Run(W, ops, args.seed, _load_reference(args.workload), sampler)
    deadline = perf_counter() + args.seconds
    passes = []
    last = 0.0  # duration of the latest pass (or untraced-traced pair)
    out = {}
    if args.mode == "measure":
        while len(passes) < MIN_PASSES or perf_counter() + last < deadline:
            start = perf_counter()
            passes.append(run.run_pass())
            last = perf_counter() - start
    else:
        from tracer import Tracer

        tracer = Tracer(extra_modules=[W], clock=sampler.clock)
        traced = []
        while not traced or perf_counter() + last < deadline:
            start = perf_counter()
            passes.append(run.run_pass())
            tracer.reset()
            tracer.install()
            try:
                traced.append(run.run_pass(tracer))
            finally:
                tracer.uninstall()
            last = perf_counter() - start
            if len(traced) == 1:
                out["trace"] = {"counts": tracer.counts(), "self_time": dict(tracer.self_time)}
                path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
                tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                                   "ops": [op.name for op in ops]})
        out["traced_passes"] = [{"times": t, "cal": c} for t, c in traced]
    out.update({
        "passes": [{"times": t, "cal": c} for t, c in passes],
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    })
    return out


def _write_reference(W, ops, args):
    run = Run(W, ops, args.seed, None, Sampler())
    run.run_pass()
    if run.failed:
        return {"failed": run.failed, "failures": run.failures}
    ref = {
        "seed": args.seed,
        "digests": {op.name: d for op, d in zip(ops, run.first_digests)},
    }
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(_reference_path(args.workload), "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return {"failed": 0, "written": len(ops)}


if __name__ == "__main__":
    main()
