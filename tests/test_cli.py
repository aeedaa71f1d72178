import argparse
import ast
import csv
import glob
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys

import pytest

from wetting_lab.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_unknown_subcommand_is_parameter_error(capsys):
    assert main(["no-such-command"]) == 1


def test_bad_kernel_spec_is_parameter_error(tmp_path):
    rc = main(["free-energy", "--kernel", "binomial:sigma2=0.9",
               "--pot", "single:j=0,eps=0.1", "--out-dir", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("kernel, pot", [
    ("binomial:", "single:j=0,eps=0.4"),
    ("binomial:sigma2=0.5", "single:eps=0.4"),
    ("binomial:sigma2=0.5,typo=3", "single:j=0,eps=0.4"),
    ("binomial:sigma2=half", "single:j=0,eps=0.4"),
    ("binomial:sigma2=0.5", "single:j=zero,eps=0.4"),
    ("binomial:sigma2=0.5", "exp:delta=nan,amp=0.1"),
    ("table:{missing}", "single:j=0,eps=0.4"),
    ("binomial:sigma2=0.5", "list:{missing}"),
    ("sos:beta=800", "single:j=0,eps=0.1"),
])
def test_malformed_spec_is_parameter_error(tmp_path, capsys, kernel, pot):
    missing = str(tmp_path / "missing.txt")
    rc = main(["certify-loc", "--kernel", kernel.format(missing=missing),
               "--pot", pot.format(missing=missing),
               "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("parameter error:") and "Traceback" not in err


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"non-finite JSON number {name}")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_certify_deloc_infinite_tail(tmp_path, capsys):
    # the default b of a non-summable potential is rho's upper bound, inf
    args = ["certify-deloc", "--kernel", "binomial:sigma2=0.5",
            "--pot", "power:delta=0.5,amp=0.05,sign=-",
            "--out-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error: b must be positive and finite")
    assert main(args + ["--b", "0.3"]) == 0
    cert = _strict_json(tmp_path / "certificate.json")
    assert cert["verdict"] == "undetermined"
    assert cert["evidence"] == []
    assert "unbounded" in cert["notes"][0]


def test_certify_deloc_log2_exit_comes_before_the_default_b(tmp_path):
    # rho, and with it the default b, overflows to inf at eps = 1e308; the
    # reward is above log 2, so that exit answers without reading b
    assert main(["certify-deloc", "--kernel", "binomial:sigma2=0.5",
                 "--pot", "single:j=0,eps=1e308",
                 "--out-dir", str(tmp_path)]) == 0
    cert = _strict_json(tmp_path / "certificate.json")
    assert cert["verdict"] == "undetermined"
    assert cert["evidence"] == []
    assert cert["notes"][0].startswith("rewards above log 2")
    assert cert["params"]["b"] is None


@pytest.mark.parametrize("extra", [
    ["--b", "1000"], ["--b", "1000", "--delta", "0.1"], ["--delta", "1e200"],
])
def test_certify_deloc_huge_inputs_give_a_finite_verdict(tmp_path, extra):
    rc = main(["certify-deloc", "--kernel", "binomial:sigma2=0.5",
               "--pot", "single:j=0,eps=0.01", "--L-max", "64", *extra,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert _strict_json(tmp_path / "certificate.json")["verdict"] == \
        "undetermined"


def test_certify_loc_huge_reward_is_localized(tmp_path):
    rc = main(["certify-loc", "--kernel", "binomial:sigma2=0.5",
               "--pot", "single:j=0,eps=800", "--out-dir", str(tmp_path)])
    assert rc == 0
    cert = _strict_json(tmp_path / "certificate.json")
    assert cert["verdict"] == "localized"
    # the quotient p(0) e^eps is taken in logs and saturates at e^709
    spec = cert["spectral"]
    assert spec["route"] == "indicator"
    assert spec["rate"] == pytest.approx(math.log(0.5) + 800.0)
    assert spec["quotient"] == cert["evidence"][0]["measured"] == \
        math.exp(709.0)


@pytest.mark.parametrize("eps", ["400", "800"])
def test_free_energy_huge_reward_is_parameter_error(tmp_path, capsys, eps):
    rc = main(["free-energy", "--kernel", "binomial:sigma2=0.5",
               "--pot", f"single:j=0,eps={eps}", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error: pinning reward") and \
        "float range of the pinned operator" in err


def test_free_energy_cross_check_under_a_dominant_reward(tmp_path):
    # e^246 at level 4 leaves the height-0 weight below e^-709 of the peak;
    # the two-leg read of log Z stays finite and the slope agrees
    rc = main(["free-energy", "--kernel", "binomial:sigma2=0.25",
               "--pot", "single:j=4,eps=246.0", "--L-cross", "64",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    result = _strict_json(tmp_path / "free_energy.json")
    assert not result["flagged"]
    assert result["f_hat"] == pytest.approx(245.71231792755, rel=1e-12)
    assert result["gap"] <= 1e-11


@pytest.mark.parametrize("argv", [
    ["certify-deloc", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.01", "--b", "2000"],
    ["certify-deloc", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.01", "--delta", "nan"],
    ["free-energy", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.8", "--tol", "nan"],
    ["threshold", "--kernel", "binomial:sigma2=0.1", "--family", "single:j=0",
     "--amp-lo", "0.01", "--amp-hi", "0.2", "--tol", "nan"],
    ["saw-verify", "--beta-list", "nan"],
    ["saw-verify", "--L-list", "2", "--cap", "-1"],
    ["saw-verify", "--L-list", "two"],
    ["saw-enumerate", "--y", "nan,0"],
    ["saw-enumerate", "--y", "inf,0"],
    ["saw-enumerate", "--y", "4.5,0.7"],
    ["saw-enumerate", "--x", "0.7,0", "--y", "4.5,0"],
    ["phase-scan", "--kernel", "binomial:sigma2=0.5", "--family", "single:j=0",
     "--amps", "0.1,nan"],
    ["oracle-check", "--L-max", "0"],
    ["oracle-check", "--L-max", "-3"],
    ["certify-deloc", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.01", "--L-max", "-5"],
    ["certify-deloc", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.01", "--L-max", "0"],
    ["threshold", "--kernel", "binomial:sigma2=0.1", "--family", "single:j=0",
     "--amp-lo", "0.01", "--amp-hi", "0.2", "--L-max", "-5"],
    ["phase-scan", "--kernel", "binomial:sigma2=0.5", "--family", "single:j=0",
     "--amps", "0.1", "--L-max", "-5"],
    ["phase-scan", "--kernel", "binomial:sigma2=0.5", "--family", "single:j=0",
     "--amps", "0.1", "--L-max", "0"],
    # a list with no numbers in it
    ["saw-verify", "--beta-list", ","],
    ["saw-verify", "--L-list", ","],
    ["oracle-check", "--sigma2-list", ","],
    ["phase-scan", "--kernel", "binomial:sigma2=0.5", "--family", "single:j=0",
     "--amps", ","],
])
def test_out_of_range_numbers_are_parameter_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["free-energy", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.8", "--tol", "nan"],
    ["threshold", "--kernel", "binomial:sigma2=0.1", "--family", "single:j=0",
     "--amp-lo", "0.01", "--amp-hi", "inf"],
    ["certify-deloc", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.01", "--b", "inf"],
    ["certify-deloc", "--kernel", "binomial:sigma2=0.5",
     "--pot", "single:j=0,eps=0.01", "--delta", "nan"],
])
def test_non_finite_option_writes_no_run_json(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("parameter error:")
    assert not out.exists()


def test_non_finite_output_is_a_refusal(tmp_path, capsys):
    # rho divides the rewards by sigma2 = 1e-323 and overflows to inf
    rc = main(["free-energy", "--kernel", "binomial:sigma2=1e-323",
               "--pot", "exp:delta=4.94,amp=4.94", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "refused: free_energy.json would hold a non-finite number")
    assert os.listdir(tmp_path) == ["run.json"]
    _strict_json(tmp_path / "run.json")


def test_cli_import_leaves_the_path_modules_unloaded():
    # and the certificate modules: each subcommand imports what it runs
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("import sys, wetting_lab.cli; print(sorted(m for m in "
            "('wetting_lab.saw', 'wetting_lab.rw_oracle', "
            "'wetting_lab.certify', 'wetting_lab.spectral') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _fresh_main(argv, tmp_path, report):
    """Run cli.main(argv) in a fresh interpreter, so this process keeps its
    own module set and GC state; returns what the ``report`` expression
    prints after main returns, and main's exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = list(argv) + ["--out-dir", str(tmp_path)]
    code = ("import gc, json, sys; from wetting_lab.cli import main; "
            f"frozen = gc.get_freeze_count(); rc = main({argv!r}); "
            f"print(json.dumps([rc, {report}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("argv, loaded", [
    (["certify-deloc", "--kernel", "binomial:sigma2=0.5",
      "--pot", "single:j=0,eps=0.05", "--L-max", "256"], False),
    (["threshold", "--kernel", "binomial:sigma2=0.1", "--family",
      "single:j=0", "--amp-lo", "0.01", "--amp-hi", "0.2", "--tol", "1",
      "--L-max", "512"], True),
], ids=["certify-deloc", "threshold"])
def test_spectral_is_loaded_only_where_it_runs(tmp_path, argv, loaded):
    rc, seen = _fresh_main(argv, tmp_path,
                           "'wetting_lab.spectral' in sys.modules")
    assert (rc, seen) == (0, loaded)


def test_main_freezes_the_import_time_heap(tmp_path):
    # the objects made at import sit in the permanent generation after
    # main, so neither run-time collections nor the shutdown one walk them
    rc, (before, after) = _fresh_main(
        ["verify-clt", "--kernel", "binomial:sigma2=0.5", "--L-max", "4"],
        tmp_path, "[frozen, gc.get_freeze_count()]")
    assert rc == 0 and before == 0 and after > 0


def test_refusal_exit_code(tmp_path, capsys):
    rc = main(["saw-verify", "--L-list", "2", "--beta-list", "1.0",
               "--cap", "4", "--out-dir", str(tmp_path)])
    assert rc == 2
    # spans whose weight e^{-beta (L-1)} is below the normal float range
    for extra in (["--L-list", "300", "--beta-list", "3"],
                  ["--L-list", "1100"]):
        capsys.readouterr()
        assert main(["saw-verify", *extra, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("refused:") and "Traceback" not in err


def test_saw_verify_identity_at_span_200(tmp_path):
    assert main(["saw-verify", "--L-list", "200", "--beta-list", "3",
                 "--out-dir", str(tmp_path)]) == 0
    row, = json.load(open(tmp_path / "saw_verify.json"))["identity"]
    assert row["agrees"] and row["relative_width"] <= 1e-7


def test_free_energy_outputs_and_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = main(["free-energy", "--kernel", "binomial:sigma2=0.5",
                   "--pot", "single:j=0,eps=0.5", "--L-cross", "512",
                   "--out-dir", str(d)])
        assert rc == 0
    assert _sha(d1 / "free_energy.json") == _sha(d2 / "free_energy.json")
    c1, c2 = (json.load(open(d / "run.json")) for d in (d1, d2))
    c1["options"].pop("out_dir"), c2["options"].pop("out_dir")
    assert c1 == c2
    blob = json.load(open(d1 / "free_energy.json"))
    assert blob["f_hat"] > 0
    cfg = json.load(open(d1 / "run.json"))
    assert cfg["subcommand"] == "free-energy"
    assert cfg["options"]["kernel"] == "binomial:sigma2=0.5"


# one small invocation per subcommand, for the rerun round trip
RUNS = {
    "free-energy": ["--kernel", "binomial:sigma2=0.5",
                    "--pot", "single:j=0,eps=0.5", "--L-cross", "512"],
    "phase-scan": ["--kernel", "binomial:sigma2=0.5", "--family", "single:j=0",
                   "--amps", "0.0,1.0", "--L-max", "128", "--deterministic"],
    "certify-deloc": ["--kernel", "binomial:sigma2=0.25",
                      "--pot", "single:j=0,eps=0.005", "--L-max", "256"],
    "certify-loc": ["--kernel", "binomial:sigma2=0.5",
                    "--pot", "single:j=0,eps=1.0"],
    "threshold": ["--kernel", "binomial:sigma2=0.5", "--family", "single:j=0",
                  "--amp-lo", "0.1", "--amp-hi", "1.0", "--tol", "0.5",
                  "--L-max", "256"],
    "verify-clt": ["--kernel", "binomial:sigma2=0.5", "--L-max", "64"],
    "saw-enumerate": ["--y", "2.5,0", "--cap", "2"],
    "saw-verify": ["--L-list", "2", "--beta-list", "3", "--cap", "2"],
    "oracle-check": ["--sigma2-list", "0.5", "--L-max", "6"],
}


def _outputs(d):
    return {name: _sha(d / name) for name in sorted(os.listdir(d))
            if name != "run.json"}


@pytest.mark.parametrize("sub", sorted(RUNS))
def test_rerun_reproduces_outputs(tmp_path, sub):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main([sub, *RUNS[sub], "--out-dir", str(d1)]) == 0
    assert main(["rerun", "--config", str(d1 / "run.json"),
                 "--out-dir", str(d2)]) == 0
    assert _outputs(d1) and _outputs(d1) == _outputs(d2)
    c1, c2 = (json.load(open(d / "run.json")) for d in (d1, d2))
    c1["options"].pop("out_dir"), c2["options"].pop("out_dir")
    assert c1 == c2


def test_rerun_accepts_configs_with_retired_options(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["certify-loc", *RUNS["certify-loc"],
                 "--out-dir", str(d1)]) == 0
    cfg = json.load(open(d1 / "run.json"))
    cfg["options"].update(c0=1.0, deterministic=False)
    old = tmp_path / "old_run.json"
    old.write_text(json.dumps(cfg))
    assert main(["rerun", "--config", str(old), "--out-dir", str(d2)]) == 0
    assert _outputs(d1) == _outputs(d2)
    # the retired keys are dropped, not echoed
    assert json.load(open(d2 / "run.json"))["options"].keys() == \
        json.load(open(d1 / "run.json"))["options"].keys()


def test_rerun_refuses_undeclared_options(tmp_path, capsys):
    d1 = tmp_path / "a"
    assert main(["saw-verify", *RUNS["saw-verify"], "--out-dir", str(d1)]) == 0
    cfg = json.load(open(d1 / "run.json"))
    cfg["options"]["cpa"] = cfg["options"].pop("cap")  # misspelt
    bad = tmp_path / "bad_run.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["rerun", "--config", str(bad),
                 "--out-dir", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and "'cpa'" in err
    assert not (tmp_path / "b").exists()


def test_rerun_fills_missing_options_from_defaults(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["saw-verify", "--cap", "2", "--beta-list", "3",
                 "--out-dir", str(d1)]) == 0
    cfg = json.load(open(d1 / "run.json"))
    del cfg["options"]["L_list"], cfg["options"]["workers"]
    short = tmp_path / "short_run.json"
    short.write_text(json.dumps(cfg))
    assert main(["rerun", "--config", str(short), "--out-dir", str(d2)]) == 0
    assert _outputs(d1) == _outputs(d2)
    c1, c2 = (json.load(open(d / "run.json")) for d in (d1, d2))
    c1["options"].pop("out_dir"), c2["options"].pop("out_dir")
    assert c1 == c2
    # a required option has no default to fall back on
    d3 = tmp_path / "c"
    assert main(["certify-loc", *RUNS["certify-loc"],
                 "--out-dir", str(d3)]) == 0
    cfg = json.load(open(d3 / "run.json"))
    del cfg["options"]["kernel"]
    short.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["rerun", "--config", str(short),
                 "--out-dir", str(tmp_path / "d")]) == 1
    assert "--kernel" in capsys.readouterr().err


def test_every_declared_option_is_read():
    ap = build_parser()
    (subs,) = [a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction)]
    for name, parser in subs.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            dest = action.dest
            if dest in ("help", "out_dir", "exhaustive") or (
                    dest == "workers" and name != "phase-scan"):
                continue
            assert re.search(rf"\bargs\.{dest}\b", source), \
                f"{name}: option {action.option_strings} is never read"


def test_every_public_library_name_is_read_outside_tests():
    # a public top-level function or class is read by another module (not
    # __init__), by its own module outside its definition, or under
    # scripts/ or perfbench/; acceptance criterion 10 reads excess_length
    def read(pattern):
        return {path: open(path).read() for path in glob.glob(
            os.path.join(ROOT, pattern), recursive=True)}

    modules = read("src/wetting_lab/*.py")
    elsewhere = " ".join({**read("scripts/**/*.py"),
                          **read("perfbench/**/*.py")}.values())
    unread = []
    for path, text in modules.items():
        lines = text.splitlines()
        others = [t for p, t in modules.items()
                  if p != path and not p.endswith("__init__.py")]
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_") or node.name == "excess_length":
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = lines[:node.lineno - 1] + lines[node.end_lineno:]
            if not any(map(word.search, [*own, *others, elsewhere])):
                unread.append(f"{os.path.basename(path)}: {node.name}")
    assert not unread, f"read only by tests: {unread}"


def test_workers_default_is_one(tmp_path):
    rc = main(["verify-clt", "--kernel", "binomial:sigma2=0.5",
               "--L-max", "256", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert json.load(open(tmp_path / "run.json"))["options"]["workers"] == 1


def test_verify_clt_empty_range_is_parameter_error(tmp_path):
    rc = main(["verify-clt", "--kernel", "binomial:sigma2=0.5",
               "--L-min", "8", "--L-max", "4", "--out-dir", str(tmp_path)])
    assert rc == 1


def test_nan_reward_is_parameter_error(tmp_path):
    rc = main(["free-energy", "--kernel", "binomial:sigma2=0.5",
               "--pot", "single:j=0,eps=nan", "--out-dir", str(tmp_path)])
    assert rc == 1


def test_phase_scan_csv_contract(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["phase-scan", "--kernel", "binomial:sigma2=0.5",
                   "--family", "single:j=0", "--amps", "0.0,1.0",
                   "--L-max", "128", "--workers", "1", "--deterministic",
                   "--out-dir", str(out)])
        assert rc == 0
        outs.append(out)
    assert _sha(outs[0] / "scan.csv") == _sha(outs[1] / "scan.csv")
    c1, c2 = (json.load(open(d / "run.json")) for d in outs)
    c1["options"].pop("out_dir"), c2["options"].pop("out_dir")
    assert c1 == c2
    with open(outs[0] / "scan.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kernel", "sigma2", "family", "amplitude", "rho",
                       "verdict_spectral", "verdict_induction", "f_hat",
                       "f_err", "wall_time_s", "error"]
    assert len(rows) == 3
    assert rows[1][9] == "0.0"  # deterministic timing column


def test_oracle_check(tmp_path):
    rc = main(["oracle-check", "--sigma2-list", "0.5", "--L-max", "8",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "oracle_check.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["max_rel_err"]) <= 1e-12 for r in rows)


def test_enumerate_expands_and_searches_each_set_once(tmp_path, monkeypatch):
    # at their defaults, oracle-check expands each half of its 10 variants
    # once (to L-max 12: 6 levels each) and saw-verify makes one search per
    # span for saw_partition and grand_canonical together, plus one for the
    # regularity counts
    from wetting_lab import rw_oracle, saw

    levels, searches = [], []
    half_levels = rw_oracle._half_levels

    def counting(offs, pv, n, *args):
        levels.append(n)
        return half_levels(offs, pv, n, *args)

    class Counting(saw._Search):
        def __init__(self, *args, **kwargs):
            searches.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(rw_oracle, "_half_levels", counting)
    monkeypatch.setattr(saw, "_Search", Counting)
    cached = (saw._bridge_sums, saw._span_counts, saw._regularity_counts)
    for fn in cached:
        fn.cache_clear()
    try:
        assert main(["oracle-check", "--out-dir", str(tmp_path / "o")]) == 0
        assert main(["saw-verify", "--out-dir", str(tmp_path / "s")]) == 0
    finally:
        for fn in cached:
            fn.cache_clear()
    assert levels == [6] * 20
    assert len(searches) == 3


def test_certify_deloc_short_of_base_scale(tmp_path):
    rc = main(["certify-deloc", "--kernel", "binomial:sigma2=0.5",
               "--pot", "single:j=0,eps=0.01", "--L-max", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    cert = _strict_json(tmp_path / "certificate.json")
    assert cert["verdict"] == "undetermined"
    assert cert["valid_up_to"] is None
    assert "L_1=16" in cert["notes"][0]


def test_saw_enumerate_stream(tmp_path):
    rc = main(["saw-enumerate", "--y", "1.5,0", "--cap", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = open(tmp_path / "paths.txt").read().splitlines()
    assert len(lines) == 3
    assert lines[0] == "1,0;3,0"
    # dump format round-trips: doubled coordinates, semicolon separated
    for line in lines:
        pts = [tuple(map(int, t.split(","))) for t in line.split(";")]
        assert all(u % 2 == 1 for u, _ in pts)


def test_saw_enumerate_keeps_the_full_search(tmp_path):
    # the dump order (depth-first E, N, W, S) is part of the output, so the
    # halved search of the counting ensembles never applies here: the file
    # is byte for byte the one written before that search existed
    rc = main(["saw-enumerate", "--y", "4.5,0", "--cap", "4",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = open(tmp_path / "paths.txt").read().splitlines()
    assert len(lines) == 147 and lines[0] == "1,0;3,0;5,0;7,0;9,0"
    assert _sha(tmp_path / "paths.txt") == (
        "d315630e7ec221e963809d45d792101631a09465e7541ab1b6663a79fcf57151")


def test_threshold_subcommand(tmp_path):
    rc = main(["threshold", "--kernel", "binomial:sigma2=0.5",
               "--family", "single:j=0", "--amp-lo", "0.1",
               "--amp-hi", "1.0", "--tol", "0.5", "--L-max", "256",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "threshold.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["rho_lo"]) < float(row["rho_hi"])
    assert row["caveat"] == "empirical below, rigorous above"


def test_certify_subcommands(tmp_path):
    rc = main(["certify-loc", "--kernel", "binomial:sigma2=0.5",
               "--pot", "single:j=0,eps=1.0", "--out-dir", str(tmp_path)])
    assert rc == 0
    cert = json.load(open(tmp_path / "certificate.json"))
    assert cert["verdict"] == "localized"
    assert cert["spectral"]["rate"] > 0

    rc = main(["certify-deloc", "--kernel", "binomial:sigma2=0.25",
               "--pot", "single:j=0,eps=0.005", "--L-max", "512",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    cert = _strict_json(tmp_path / "certificate.json")
    assert cert["verdict"] == "delocalized_empirical"
    assert cert["valid_up_to"] == 512


@pytest.mark.parametrize("text", [
    None, "{not json", "[1, 2]", '{"options": {}}',
    '{"subcommand": "certify-loc"}',
], ids=["missing", "not-json", "list", "no-subcommand", "no-options"])
def test_rerun_refuses_unreadable_configs(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["rerun", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("parameter error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("cap", "x"), ("cap", 8.5), ("beta_list", 3), ("out_dir", 5),
])
def test_rerun_refuses_mistyped_values(tmp_path, capsys, monkeypatch,
                                       key, value):
    monkeypatch.chdir(tmp_path)
    assert main(["saw-verify", *RUNS["saw-verify"], "--out-dir", "a"]) == 0
    cfg = json.load(open("a/run.json"))
    cfg["options"][key] = value
    with open("bad_run.json", "w") as fh:
        json.dump(cfg, fh)
    capsys.readouterr()
    assert main(["rerun", "--config", "bad_run.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and key in err
    assert sorted(os.listdir()) == ["a", "bad_run.json"]
    assert sorted(os.listdir("a")) == ["run.json", "saw_verify.json"]
