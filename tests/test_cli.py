import csv
import hashlib
import json

from wetting_lab.cli import main


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_unknown_subcommand_is_parameter_error(capsys):
    assert main(["no-such-command"]) == 1


def test_bad_kernel_spec_is_parameter_error(tmp_path):
    rc = main(["free-energy", "--kernel", "binomial:sigma2=0.9",
               "--pot", "single:j=0,eps=0.1", "--out-dir", str(tmp_path)])
    assert rc == 1


def test_refusal_exit_code(tmp_path):
    rc = main(["saw-verify", "--L-list", "2", "--beta-list", "1.0",
               "--cap", "4", "--out-dir", str(tmp_path)])
    assert rc == 2


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
    # a run re-executed from its emitted config reproduces the outputs
    d3 = tmp_path / "c"
    rc = main(["rerun", "--config", str(d1 / "run.json"),
               "--out-dir", str(d3)])
    assert rc == 0
    assert _sha(d1 / "free_energy.json") == _sha(d3 / "free_energy.json")


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
    cert = json.load(open(tmp_path / "certificate.json"))
    assert cert["verdict"] == "delocalized_empirical"
    assert cert["valid_up_to"] == 512
