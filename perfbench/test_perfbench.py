"""Tests of the benchmark itself (about 90 s on two cores):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

import run
from workloads import DOMINANT, NEVER_CALL, WORKLOADS


@pytest.fixture(scope="module")
def traced():
    # at least three rounds: traced, untraced, traced
    return run.run(sorted(WORKLOADS), seed=0, seconds=0, trace=True)


def test_traced_run_is_correct(traced):
    result, detail = traced
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0


def test_work_counts_repeat_exactly(traced):
    _, detail = traced
    for w, wd in detail["workloads"].items():
        first, *rest = map(run._counts_only, wd["traces"])
        assert rest, w
        for counts in rest:
            assert counts == first, w


def test_predicted_layers(traced):
    _, detail = traced
    for w, wd in detail["workloads"].items():
        stats = {fn: st for fn, st in wd["traces"][0].items()
                 if fn != "cli.main"}
        top = max(stats, key=lambda fn: stats[fn]["self_s"])
        assert top.startswith(DOMINANT[w]), (w, top)
        if w in NEVER_CALL:
            called = [fn for fn, st in stats.items()
                      if fn.startswith(NEVER_CALL[w]) and st["calls"]]
            assert not called, (w, called)


def test_metric_names_match_benchmark_json(traced):
    result, _ = traced
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {name.split(".", 1)[1]: m["unit"]
           for name, m in result["metrics"].items()}
    assert got == layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_checks_reject_wrong_outputs(tmp_path):
    fe = WORKLOADS["free-energy"][0]
    out = tmp_path / "free_energy.json"
    out.write_text(json.dumps({"f_hat": 0.26708975837740634,
                               "flagged": False}))
    assert fe.check(str(tmp_path), 0) == ""
    assert fe.check(str(tmp_path), 3) != ""
    out.write_text(json.dumps({"f_hat": 0.2672, "flagged": False}))
    assert fe.check(str(tmp_path), 0) != ""
    cert = tmp_path / "certificate.json"
    cert.write_text(json.dumps({
        "verdict": "delocalized_empirical", "valid_up_to": 1536,
        "evidence": [{"check": "base_ratio[j=0]", "passed": False}]}))
    assert WORKLOADS["deloc-exhaustive"][0].check(str(tmp_path), 0) != ""
