"""wetting-lab benchmark: fixed CLI workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
NAME is one of the workloads in workloads.py, or ``all`` to interleave every
workload and print each one's metrics under ``<workload>.<metric>``.

Every CLI invocation runs in a fresh process (``certify`` keeps a
process-wide cache), with ``--workers 1``, one BLAS thread and
``WETTING_LAB_CACHE`` unset; its rusage is taken with ``os.wait4``.  Rounds
repeat until the next one would overrun ``--seconds``.  A round runs the
workload's invocations in an order drawn from the seed, each preceded by a
cold ``wetting-lab --version``, the set-up that every invocation pays.
Every output is checked (workloads.py); a wrong output counts as failed.

Host speed on a shared machine drifts by up to 2x over tens of seconds, for
every kind of code alike, which made unscaled medians of 34-second runs
spread 15-35% from run to run.  So a fixed reference loop runs before and
after every child, and the child's wall and CPU times are scaled by the
nominal over the measured loop time (REF_NOMINAL_S): the metrics are seconds
at a fixed host speed.  Unscaled times and every loop time are kept in the
detail record.

With ``--trace 0`` the result holds the end-to-end metrics: the median over
rounds of the round's scaled wall and CPU seconds, peak RSS, and the median
scaled set-up time.  With ``--trace 1`` rounds alternate traced
(perfbench/traced.py) and untraced, starting with a traced one; the result
holds per-layer counts and self time.  Work counts must repeat exactly across
traced rounds, and every function workloads.py predicts for the workload
must have been called.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A human summary and a
detail record (per-round values, quartiles, host diagnostics) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from traced import REPORTED
from workloads import MUST_CALL, WORKLOADS

RUN_LIMIT_S = 150.0  # start no round after this; a run must end by 180 s
KILL_AFTER_S = 170.0  # kill a child still running this long into the run
# _reference_loop's time on an unloaded core of a 2-vCPU Xeon (Emerald
# Rapids) KVM guest; scaled times are seconds at that host speed.
REF_NOMINAL_S = 0.042


def _env(tmp: str) -> dict:
    env = dict(os.environ)
    env.pop("WETTING_LAB_CACHE", None)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               TMPDIR=tmp, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(cmd: list[str], env: dict, log: str, deadline: float) -> dict:
    """Run one child to completion; wall, CPU and max RSS from wait4."""
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        status = None
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "rc": proc.returncode}


def _reference_loop() -> float:
    """Fixed interpreter and small-array numpy work, like the program's mix."""
    v = np.ones(2048)
    k = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    t0 = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += i * i
    for _ in range(2000):
        v = np.convolve(v, k, "same")
        v /= v.sum()
    return time.perf_counter() - t0


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


class Bench:
    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.env = _env(tmp)
        self.deadline = deadline
        self.n = 0
        self.errors: list[str] = []
        _reference_loop()  # the first call pays numpy's warm-up
        self.refs = [_reference_loop()]

    def _run(self, cmd: list[str], log: str) -> dict:
        """Run one child, then a reference loop; scale its times by the host
        speed measured just before and just after it."""
        r = _spawn(cmd, self.env, log, self.deadline)
        self.refs.append(_reference_loop())
        k = REF_NOMINAL_S / statistics.mean(self.refs[-2:])
        r["scaled_wall_s"] = r["wall_s"] * k
        r["scaled_cpu_s"] = r["cpu_s"] * k
        return r

    def _next_dir(self) -> str:
        self.n += 1
        d = os.path.join(self.tmp, f"run{self.n}")
        os.makedirs(d)
        return d

    def setup_probe(self) -> dict:
        d = self._next_dir()
        cmd = [sys.executable, "-m", "wetting_lab.cli", "--version"]
        r = self._run(cmd, os.path.join(d, "log"))
        with open(os.path.join(d, "log")) as fh:
            out = fh.read().strip()
        if r["rc"] != 0 or not out:
            self.errors.append(f"--version: exit {r['rc']} {out[-300:]}")
        shutil.rmtree(d)
        return r

    def invoke(self, inv, traced: bool) -> dict:
        d = self._next_dir()
        out = os.path.join(d, "out")
        log = os.path.join(d, "log")
        trace = os.path.join(d, "trace.json")
        head = ([sys.executable, os.path.join(HERE, "traced.py"), trace]
                if traced else [sys.executable, "-m", "wetting_lab.cli"])
        r = self._run(head + list(inv.argv) + ["--out-dir", out], log)
        try:
            err = inv.check(out, r["rc"])
        except (OSError, KeyError, ValueError, TypeError) as exc:
            err = f"unreadable output: {exc!r}"
        if err:
            with open(log) as fh:
                tail = fh.read()[-600:]
            self.errors.append(f"{inv.label}: {err}\n{tail}")
        r["ok"] = not err
        if traced and os.path.exists(trace):
            with open(trace) as fh:
                r["trace"] = json.load(fh)
        shutil.rmtree(d)
        return r


def _merge_traces(results: list[dict]) -> dict:
    """Sum per-function stats over the invocations of one round."""
    total: dict[str, dict] = {}
    for r in results:
        for fn, st in r.get("trace", {}).get("functions", {}).items():
            acc = total.setdefault(fn, {})
            for k, v in st.items():
                acc[k] = acc.get(k, 0) + v
    return total


def _layer_metrics(traced_rounds: list[dict], overhead: float) -> dict:
    metrics = {}
    for fn, counts in REPORTED:
        for key in ("calls",) + counts:
            v = traced_rounds[0].get(fn, {}).get(key, 0)
            metrics[f"{fn}.{key}"] = {"value": v, "unit": "count"}
        self_s = statistics.median(t.get(fn, {}).get("self_s", 0.0)
                                   for t in traced_rounds)
        metrics[f"{fn}.self_s"] = {"value": self_s, "unit": "s"}
    metrics["cli.main.self_s"] = {"value": statistics.median(
        t.get("cli.main", {}).get("self_s", 0.0) for t in traced_rounds),
        "unit": "s"}
    scales = metrics["certify.doubling_step_check.scales"]["value"]
    calls = metrics["transfer.midpoint_prob.calls"]["value"]
    metrics["certify.midpoint_reuse"] = {
        "value": 1.0 - calls / scales if scales else 0.0, "unit": "ratio"}
    metrics["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def _counts_only(trace: dict) -> dict:
    return {(fn, k): v for fn, st in trace.items() for k, v in st.items()
            if k != "self_s"}


def run(names: list[str], seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """Measure rounds of the named workloads; return (result, detail)."""
    rng = random.Random(seed)
    jobs = [(w, inv) for w in names for inv in WORKLOADS[w]]
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    t_start = time.monotonic()
    bench = Bench(tmp, t_start + KILL_AFTER_S)
    setup: list[dict] = []
    rounds: list[dict] = []  # {"traced", "dur", per workload: [results]}
    attempted = 0
    try:
        while True:
            t0 = time.monotonic()
            traced = trace and len(rounds) % 2 == 0
            order = jobs[:]
            rng.shuffle(order)
            rnd: dict = {"traced": traced, "by": {w: [] for w in names}}
            for w, inv in order:
                if not trace:
                    setup.append(bench.setup_probe())
                    attempted += 1
                rnd["by"][w].append(bench.invoke(inv, traced))
                attempted += 1
            rnd["dur"] = time.monotonic() - t0
            rounds.append(rnd)
            elapsed = time.monotonic() - t_start
            est = max(r["dur"] for r in rounds)
            min_rounds = 3 if trace else 1
            if len(rounds) >= min_rounds and (
                    elapsed + est > seconds or elapsed + est > RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    failed = len(bench.errors)
    problems = list(bench.errors)
    metrics: dict = {}
    detail: dict = {"rounds": len(rounds), "reference_loop_s": bench.refs,
                    "setup_probes_s": [x["wall_s"] for x in setup],
                    "workloads": {}}

    def per_round(key: str, traced: bool) -> list[float]:
        return [sum(x[key] for x in r["by"][w]) for r in rounds
                if r["traced"] == traced]

    for w in names:
        walls = per_round("scaled_wall_s", False)
        raw = per_round("wall_s", False)
        ran = [x for r in rounds for x in r["by"][w]]
        wd = {"scaled_wall_s": walls, "wall_s": raw,
              "cpu_s": per_round("cpu_s", False),
              "wall_quartiles_s": _quartiles(walls),
              "raw_wall_quartiles_s": _quartiles(raw),
              "failed_frac": sum(not x["ok"] for x in ran) / len(ran)}
        if trace:
            merged = [_merge_traces(r["by"][w]) for r in rounds
                      if r["traced"]]
            if any(_counts_only(m) != _counts_only(merged[0])
                   for m in merged):
                problems.append(f"{w}: work counts differ between traced "
                                "rounds")
            for fn in MUST_CALL[w]:
                if not merged[0].get(fn, {}).get("calls"):
                    problems.append(f"{w}: {fn} was never called")
            m = _layer_metrics(merged, statistics.median(
                per_round("scaled_wall_s", True)) - statistics.median(walls))
            wd["traces"] = merged
        else:
            rss = max(x["rss_mb"] for x in ran)
            m = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                 "cpu_s": {"value": statistics.median(
                     per_round("scaled_cpu_s", False)), "unit": "s"},
                 "peak_rss_mb": {"value": rss, "unit": "MB"}}
        detail["workloads"][w] = wd
        prefix = f"{w}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(
            x["scaled_wall_s"] for x in setup), "unit": "s"}
    detail["problems"] = problems
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}, detail


def _summary(result: dict, detail: dict) -> None:
    print(f"rounds={detail['rounds']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    for w, wd in detail["workloads"].items():
        q1, q2, q3 = wd["wall_quartiles_s"]
        r1, r2, r3 = wd["raw_wall_quartiles_s"]
        print(f"{w}: over {len(wd['wall_s'])} rounds, wall_s median {q2:.3f} "
              f"[q1 {q1:.3f}, q3 {q3:.3f}], unscaled {r2:.3f} "
              f"[{r1:.3f}, {r3:.3f}]; failed_frac {wd['failed_frac']:.3g}",
              file=sys.stderr)
        if "traces" in wd:
            top = sorted(wd["traces"][0].items(),
                         key=lambda kv: -kv[1]["self_s"])
            for fn, st in top[:8]:
                print(f"  {fn:42s} calls {st['calls']:>8d}  self "
                      f"{st['self_s']:8.3f} s", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for p in detail["problems"]:
        print(f"PROBLEM: {p}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # run the cleanup (kill the child, remove scratch files) on SIGTERM too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "wetting_lab", "cli.py")):
        print(f"no wetting-lab source under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result, detail = run(names, args.seed, args.seconds, bool(args.trace))
    detail.update(seed=args.seed, nproc=len(os.sched_getaffinity(0)),
                  python=platform.python_version(),
                  numpy=metadata.version("numpy"), commit=_commit())
    _summary(result, detail)
    print(json.dumps({"detail": detail}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
