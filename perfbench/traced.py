"""Run one wetting-lab CLI invocation with the package's public functions
wrapped from outside, and write per-function counts and self time.

    python3 perfbench/traced.py TRACE_JSON CLI_ARGS...

Every public function of the layer modules is replaced by a timing wrapper,
in its own module and in every package module that imported it by name, so
calls through ``from .transfer import midpoint_prob`` are seen too.  Self
time is a call's inclusive time minus that of the wrapped calls it made.
Generator functions are left alone: their work runs in the consumer.
The program's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "kernels", "potentials", "transfer", "spectral", "certify",
          "saw", "rw_oracle")


def _route(cert) -> str:
    return (cert.spectral or {}).get("route", "undetermined")


# name -> (bound arguments, result) -> work counts for one call
WORK_COUNTS = {
    "spectral.top_eigenvalue": lambda a, r: {
        "iterations": r.iterations, "unconverged": int(not r.converged)},
    "spectral.localization_certificate": lambda a, r: {
        "route." + _route(r): 1},
    "transfer.midpoint_prob": lambda a, r: {"steps": a["L"]},
    "transfer.partition_profile": lambda a, r: {"steps": a["L_max"]},
    "certify.doubling_step_check": lambda a, r: {"scales": len(r.samples)},
    "certify.wetting_threshold": lambda a, r: {
        "bisection_points": len(r.trail)},
}


# Functions reported as per-layer metrics: each gives .calls and .self_s, plus
# the work counts named here.
REPORTED = (
    ("spectral.top_eigenvalue", ("iterations", "unconverged")),
    ("spectral.localization_certificate",
     ("route.indicator", "route.sine", "route.power_iteration",
      "route.undetermined")),
    ("spectral.sine_profile_bound", ()),
    ("transfer.midpoint_prob", ("steps",)),
    ("transfer.partition_profile", ("steps",)),
    ("transfer.free_energy", ()),
    ("certify.doubling_step_check", ("scales",)),
    ("certify.delocalization_certificate", ()),
    ("certify.wetting_threshold", ("bisection_points",)),
    ("saw.regularity_stats", ()),
    ("saw.grand_canonical", ()),
    ("saw.saw_partition", ()),
    ("saw.minimal_horizontal_identity", ()),
    ("rw_oracle.oracle_partition", ()),
    ("kernels.parse_kernel_spec", ()),
    ("potentials.parse_potential_spec", ()),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_time = [0.0]  # one entry per open wrapped call

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        counts = WORK_COUNTS.get(name)
        sig = inspect.signature(fn) if counts else None
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stats["calls"] += 1
                stats["self_s"] += dt - stack.pop()
                stack[-1] += dt
            if counts:
                bound = sig.bind(*args, **kwargs).arguments
                for key, n in counts(bound, result).items():
                    stats[key] = stats.get(key, 0) + n
            return result
        return wrapper

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"wetting_lab.{layer}")
                for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == "wetting_lab" or name.startswith("wetting_lab."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["wetting_lab.cli"].main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"functions": tracer.stats}, fh, indent=1,
                      sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
