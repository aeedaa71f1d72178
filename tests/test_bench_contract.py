"""The benchmark's contract, checked on every invocation it runs.

For each workload in ``perfbench/workloads.py`` this runs every invocation
once under ``perfbench/traced.py`` (two at a time), then asserts that the
invocation's own output check passes and that the traced run called every
function the workload lists in ``MUST_CALL``.  A change that breaks either
would make the benchmark judge its traced runs incorrect.  ``perfbench`` is
only read here.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", os.path.join(BENCH, "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no __pycache__ in perfbench/
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = keep
    return mod


WL = _workloads()


def _traced(inv, out_dir: str) -> tuple[str, dict]:
    """Run one invocation traced; (check error or "", function stats)."""
    os.makedirs(out_dir)
    trace = os.path.join(out_dir, "trace.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = os.path.join(out_dir, "out")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "traced.py"), trace,
         *inv.argv, "--out-dir", out],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    err = inv.check(out, proc.returncode)
    if err:
        err += "\n" + proc.stderr[-600:]
    with open(trace) as fh:
        return err, json.load(fh)["functions"]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    jobs = [(w, i, inv) for w, invs in sorted(WL.WORKLOADS.items())
            for i, inv in enumerate(invs)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(
            lambda job: _traced(job[2], str(base / f"{job[0]}-{job[1]}")),
            jobs)
        return {(w, inv.label): r for (w, _, inv), r in zip(jobs, results)}


@pytest.mark.parametrize("workload", sorted(WL.WORKLOADS))
def test_workload_outputs_pass_their_checks(traced_runs, workload):
    for inv in WL.WORKLOADS[workload]:
        err, _ = traced_runs[workload, inv.label]
        assert err == "", (inv.label, err)


@pytest.mark.parametrize("workload", sorted(WL.WORKLOADS))
def test_workload_calls_every_must_call_function(traced_runs, workload):
    called = set()
    for inv in WL.WORKLOADS[workload]:
        _, stats = traced_runs[workload, inv.label]
        called |= {fn for fn, st in stats.items() if st["calls"]}
    missing = [fn for fn in WL.MUST_CALL[workload] if fn not in called]
    assert not missing, (workload, missing)
