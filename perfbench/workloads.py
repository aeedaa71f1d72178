"""The benchmark's fixed workloads, their output checks and layer predictions.

Inputs are fixed rather than drawn from the seed: verdicts, and with them the
amount of work, change abruptly with the amplitude.  The seed only sets the
order in which invocations run (see run.py).

Each check reads what one CLI invocation wrote to its output directory and
returns an error string, or "" when the output is right.  The checks are
semantic, with references recorded at the seed commit, so an engine change
that moves the 7th digit still passes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]          # CLI arguments, without --out-dir
    check: Callable[[str, int], str]  # (out_dir, exit code) -> error or ""


def _load(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _check_threshold(out_dir: str, rc: int) -> str:
    if rc != 0:
        return f"exit {rc}"
    b = _load(out_dir, "threshold.json")
    if not b["rho_lo"] < b["rho_hi"]:
        return f"empty bracket [{b['rho_lo']}, {b['rho_hi']}]"
    # the seed bracket is [0.3375, 0.575]
    if not (b["rho_lo"] < 0.575 and b["rho_hi"] > 0.3375):
        return f"bracket [{b['rho_lo']}, {b['rho_hi']}] misses the seed's"
    if [list(t) for t in b["trail"][:2]] != [[0.01, "delocalized_empirical"],
                                             [0.2, "localized"]]:
        return f"trail starts {b['trail'][:2]}"
    return ""


def _check_deloc(out_dir: str, rc: int) -> str:
    if rc != 0:
        return f"exit {rc}"
    c = _load(out_dir, "certificate.json")
    if c["verdict"] != "delocalized_empirical":
        return f"verdict {c['verdict']}"
    if c["valid_up_to"] != 1536:
        return f"valid_up_to {c['valid_up_to']}"
    failed = [e["check"] for e in c["evidence"] if not e["passed"]]
    return f"evidence failed: {failed}" if failed else ""


def _free_energy_check(f_ref: float) -> Callable[[str, int], str]:
    def check(out_dir: str, rc: int) -> str:
        if rc != 0:
            return f"exit {rc}"
        fe = _load(out_dir, "free_energy.json")
        if fe["flagged"]:
            return "flagged"
        if not abs(fe["f_hat"] - f_ref) <= 1e-4:
            return f"f_hat {fe['f_hat']} vs seed {f_ref}"
        return ""
    return check


def _check_saw_verify(out_dir: str, rc: int) -> str:
    if rc != 0:
        return f"exit {rc}"
    bad = [r for r in _load(out_dir, "saw_verify.json")["identity"]
           if not r["agrees"]]
    return f"identity rows disagree: {bad}" if bad else ""


def _check_oracle(out_dir: str, rc: int) -> str:
    if rc != 0:
        return f"exit {rc}"
    with open(os.path.join(out_dir, "oracle_check.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows if not float(r["max_rel_err"]) <= 1e-12]
    if not rows or bad:
        return f"oracle rows above 1e-12: {bad or 'no rows'}"
    return ""


def _free_energy(kernel: str, pot: str, f_ref: float) -> Invocation:
    return Invocation(
        f"free-energy {kernel} {pot}",
        ("free-energy", "--kernel", kernel, "--pot", pot,
         "--L-cross", "32768", "--workers", "1"),
        _free_energy_check(f_ref))


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # sigma2=0.1 half of acceptance criterion 07; power iteration near the
    # transition does almost all the work
    "threshold": (Invocation(
        "threshold",
        ("threshold", "--kernel", "binomial:sigma2=0.1",
         "--family", "single:j=0", "--amp-lo", "0.01", "--amp-hi", "0.2",
         "--L-max", "2048", "--workers", "1"),
        _check_threshold),),
    # 1,520 short midpoint_prob sweeps and no spectral call
    "deloc-exhaustive": (Invocation(
        "certify-deloc",
        ("certify-deloc", "--kernel", "binomial:sigma2=0.5",
         "--pot", "single:j=0,eps=0.05", "--L-max", "1536", "--exhaustive",
         "--workers", "1"),
        _check_deloc),),
    # localized points: a quick eigen solve, then one 65,536-step
    # partition_profile sweep; the three vary stencil width and support
    "free-energy": (
        _free_energy("binomial:sigma2=0.5", "single:j=0,eps=0.8",
                     0.26708975837740634),
        _free_energy("sos:beta=2.5", "single:j=0,eps=0.5",
                     0.3459718040054459),
        _free_energy("binomial:sigma2=0.1", "power:delta=3,amp=0.3",
                     0.20366027673497608),
    ),
    # brute-force path DFS and the random-walk oracle; transfer and
    # spectral do almost nothing here
    "enumerate": (
        Invocation("saw-verify", ("saw-verify", "--cap", "10", "--workers", "1"),
                   _check_saw_verify),
        Invocation("oracle-check",
                   ("oracle-check", "--L-max", "14", "--workers", "1"),
                   _check_oracle),
    ),
}

# Layer -> workload predictions.  A traced run must see at least one call of
# every function listed for its workload; the benchmark's test also checks
# the dominant layer by self time and the functions that must not run.
MUST_CALL: dict[str, tuple[str, ...]] = {
    "threshold": (
        "spectral.top_eigenvalue", "spectral.localization_certificate",
        "spectral.sine_profile_bound", "certify.delocalization_certificate",
        "certify.wetting_threshold", "transfer.partition_profile",
        "kernels.parse_kernel_spec", "potentials.parse_potential_spec"),
    "deloc-exhaustive": (
        "transfer.midpoint_prob", "certify.doubling_step_check",
        "certify.delocalization_certificate",
        "kernels.parse_kernel_spec", "potentials.parse_potential_spec"),
    "free-energy": (
        "spectral.top_eigenvalue", "transfer.partition_profile",
        "transfer.free_energy",
        "kernels.parse_kernel_spec", "potentials.parse_potential_spec"),
    "enumerate": (
        "saw.regularity_stats", "saw.grand_canonical", "saw.saw_partition",
        "saw.minimal_horizontal_identity", "rw_oracle.oracle_partition",
        "kernels.parse_kernel_spec", "potentials.parse_potential_spec"),
}
DOMINANT: dict[str, str] = {
    "threshold": "spectral.top_eigenvalue",
    "deloc-exhaustive": "transfer.midpoint_prob",
    "free-energy": "transfer.partition_profile",
    "enumerate": "saw.",
}
NEVER_CALL: dict[str, str] = {
    "deloc-exhaustive": "spectral.",
    "enumerate": "spectral.",
}
