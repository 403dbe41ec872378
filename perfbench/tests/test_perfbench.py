"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They check that inputs follow the seed, that traced counts repeat exactly,
that the tracer leaves the package as it found it, that the calibration
loop is independent of the package, and that run.py refuses a directory
without the package.  Only the cheapest ops of each workload are run.
"""

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads as W  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

import prolong  # noqa: E402
from prolong import dgroup, groebner  # noqa: E402
from prolong.field import FieldElement  # noqa: E402

CHEAP = 4  # ops per workload run by these tests


def _build(workload, seed, tmp_path, tag):
    workdir = tmp_path / f"{workload}-{seed}-{tag}"
    workdir.mkdir()
    return W.build(workload, seed, str(workdir))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs_and_digests(workload, tmp_path):
    first = _build(workload, 7, tmp_path, "a")
    second = _build(workload, 7, tmp_path, "b")
    assert [op.inputs for op in first] == [op.inputs for op in second]
    for a, b in zip(first[:CHEAP], second[:CHEAP]):
        assert W.digest(W.call(a)) == W.digest(W.call(b))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_inputs(workload, tmp_path):
    first = _build(workload, 0, tmp_path, "a")
    second = _build(workload, 1, tmp_path, "b")
    assert [op.name for op in first] == [op.name for op in second]
    for a, b in zip(first, second):
        if a.fixed:
            assert a.inputs == b.inputs, a.name
        else:
            assert a.inputs != b.inputs, a.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_committed_reference(workload, tmp_path):
    with open(os.path.join(BENCH, "reference", f"{workload}.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    assert ref["seed"] == W.DEFAULT_SEED
    ops = _build(workload, W.DEFAULT_SEED, tmp_path, "a")
    assert sorted(ref["digests"]) == sorted(op.name for op in ops)
    for op in ops[:CHEAP]:
        out = W.call(op)
        assert W.verify(op, out) is None, op.name
        assert W.digest(out) == ref["digests"][op.name], op.name


def _traced_counts(workload, tmp_path, tag):
    ops = _build(workload, 3, tmp_path, tag)
    tracer = Tracer(extra_modules=[W])
    tracer.install()
    try:
        for index, op in enumerate(ops[:CHEAP]):
            tracer.begin_op(index)
            W.call(op)
    finally:
        tracer.uninstall()
    return tracer.counts()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, tmp_path, "a")
    second = _traced_counts(workload, tmp_path, "b")
    assert first == second
    assert sum(first.values()) > 0


def test_two_traced_runs_report_equal_counts():
    """End to end: two child processes in trace mode, one seed."""
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), "--workload", "cli-golden",
             "--seed", "5", "--seconds", "0", "--mode", "trace", "--spawned-at", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["failed"] == 0, result["failures"]
        counts.append(result["trace"]["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["cli.runs"] == len(W.GOLDEN_COMMANDS) + 8 * W.GENERATED_DOCS


def test_tracer_restores_the_package():
    before = (groebner.buchberger, dgroup.buchberger, prolong.buchberger,
              FieldElement.__add__, FieldElement.__radd__, W.buchberger)
    tracer = Tracer(extra_modules=[W])
    tracer.install()
    try:
        assert groebner.buchberger is not before[0]
        assert dgroup.buchberger is groebner.buchberger is W.buchberger
        assert FieldElement.__add__ is FieldElement.__radd__
    finally:
        tracer.uninstall()
    after = (groebner.buchberger, dgroup.buchberger, prolong.buchberger,
             FieldElement.__add__, FieldElement.__radd__, W.buchberger)
    assert after == before


def test_tracer_sees_calls_bound_in_other_modules():
    """check_group_axioms reaches buchberger through dgroup's own binding."""
    model = prolong.load_model_file(os.path.join(ROOT, W.MODEL_Q))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        prolong.check_group_axioms(model.group("B"))
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert counts["dgroup.checks"] == 1
    assert counts["groebner.bases"] == 2
    assert counts["groebner.basis_vars_max"] == 9
    assert counts["groebner.spolys"] >= counts["groebner.spolys_useful"]


def test_calibration_imports_nothing_from_prolong():
    with open(os.path.join(BENCH, "calibrate.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] in ("prolong", "workloads", "tracer") for name in imported)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calibrate; "
            "calibrate.calibration_sample(); "
            "print([m for m in sys.modules if m.split('.')[0] == 'prolong'])")
    proc = subprocess.run([sys.executable, "-c", code, BENCH], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ideal-gb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
