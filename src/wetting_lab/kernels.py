"""Symmetric random-walk step kernels with small variance.

A kernel is a symmetric probability p on the integers with variance
sigma^2 in (0, 1/2].  Membership in the admissible class additionally
requires, for a constant c0 in (0, 1],

    p(1) >= c0 * sigma^2 / 2      and      sum_k |k|^3 p(k) <= sigma^2 / c0,

which forces p(0) >= 1 - sigma^2 >= 1/2 and irreducibility.  The condition
is stated here, not checked: the constructors enforce only the variance
range (the tests check the built families against it), whose floor is the
smallest normal float: below it 1/sigma^2 overflows, and with it rho and
the base scale of the certificates.  Kernels with
infinite support (the geometric / solid-on-solid family) are truncated at a
finite stencil with the discarded mass recorded before renormalisation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, spec_fields, spec_number

SIGMA2_MAX = 0.5


@dataclass(frozen=True)
class WalkKernel:
    """Immutable step distribution.

    ``sigma2`` is the effective (post-truncation) variance, which is what
    every downstream computation uses.
    """

    offsets: tuple[int, ...]
    probs: tuple[float, ...]
    sigma2: float
    max_step: int
    truncation_defect: float
    family: str = "table"
    params: tuple[tuple[str, float], ...] = ()

    def prob(self, k: int) -> float:
        try:
            return self.probs[self.offsets.index(k)]
        except ValueError:
            return 0.0

    def prob_array(self) -> np.ndarray:
        """Stencil ordered by offset -max_step..max_step (zeros filled in)."""
        arr = np.zeros(2 * self.max_step + 1)
        for k, p in zip(self.offsets, self.probs):
            arr[k + self.max_step] = p
        return arr

    def spec_string(self) -> str:
        if self.family in ("binomial", "sos"):
            inner = ",".join(f"{k}={v:g}" for k, v in self.params)
            return f"{self.family}:{inner}"
        return "table:<explicit>"


def _finalize(
    pairs: dict[int, float],
    *,
    defect: float,
    family: str,
    params: tuple[tuple[str, float], ...],
) -> WalkKernel:
    # symmetrise exactly and renormalise whatever mass was kept
    ks = sorted(set(abs(k) for k in pairs))
    sym: dict[int, float] = {}
    for k in ks:
        v = pairs[k] if k in pairs else pairs[-k]
        sym[k] = v
        sym[-k] = v
    total = sym.get(0, 0.0) + 2.0 * sum(sym[k] for k in ks if k > 0)
    offsets = tuple(sorted(sym))
    probs = tuple(sym[k] / total for k in offsets)
    sigma2_eff = float(sum(k * k * p for k, p in zip(offsets, probs)))
    if not (math.isfinite(sigma2_eff) and sigma2_eff > 0.0):
        raise ParameterError(
            f"{family} kernel has effective sigma2 {sigma2_eff:.4g}; "
            "it must be finite and > 0")
    if sigma2_eff < sys.float_info.min:
        raise ParameterError(
            f"{family} kernel has effective sigma2 {sigma2_eff:.4g}, below the "
            f"smallest normal float {sys.float_info.min:.4g}: 1/sigma2, and "
            "with it rho and the base scale L_1, overflow")
    return WalkKernel(
        offsets=offsets,
        probs=probs,
        sigma2=sigma2_eff,
        max_step=max(abs(k) for k in offsets),
        truncation_defect=defect,
        family=family,
        params=params,
    )


def make_binomial(sigma2: float) -> WalkKernel:
    """Nearest-neighbour lazy walk: p(+-1) = sigma2/2, p(0) = 1 - sigma2."""
    if not (0.0 < sigma2 <= SIGMA2_MAX):
        raise ParameterError(f"binomial kernel needs sigma2 in (0, 1/2], got {sigma2}")
    pairs = {0: 1.0 - sigma2, 1: sigma2 / 2.0, -1: sigma2 / 2.0}
    return _finalize(
        pairs,
        defect=0.0,
        family="binomial",
        params=(("sigma2", sigma2),),
    )


def sos_sigma2(beta: float) -> float:
    """Closed-form variance of the geometric walk p(k) ~ exp(-beta |k|)."""
    x = math.exp(-beta)
    return 2.0 * x / (1.0 - x) ** 2 if x < 1.0 else math.inf


def sos_normalizer(beta: float) -> float:
    """Closed-form normaliser of the untruncated geometric weights."""
    x = math.exp(-beta)
    return (1.0 + x) / (1.0 - x)


def make_sos(beta: float, tail_tol: float = 1e-12) -> WalkKernel:
    """Geometric (solid-on-solid) walk at inverse temperature beta.

    The infinite tail is cut at the smallest max_step whose discarded mass is
    below ``tail_tol``; the cut mass is recorded and the kept weights are
    renormalised, so the effective variance differs from the closed form by
    O(tail_tol).
    """
    if not (0 < beta < math.inf and tail_tol > 0):
        raise ParameterError("beta must be positive and finite, and tail_tol "
                             "positive")
    s2 = sos_sigma2(beta)
    if s2 > SIGMA2_MAX + 1e-12:
        raise ParameterError(
            f"sos kernel at beta={beta} has sigma2={s2:.4g} > 1/2; increase beta"
        )
    x = math.exp(-beta)
    z = sos_normalizer(beta)
    kmax = 1
    while 2.0 * x ** (kmax + 1) / ((1.0 - x) * z) >= tail_tol:
        kmax += 1
    defect = 2.0 * x ** (kmax + 1) / ((1.0 - x) * z)
    pairs = {k: x ** abs(k) / z for k in range(-kmax, kmax + 1)}
    return _finalize(
        pairs,
        defect=defect,
        family="sos",
        params=(("beta", beta), ("tail_tol", tail_tol)),
    )


def kernel_from_table(path: str) -> WalkKernel:
    """Load ``k p(k)`` rows for k >= 0; symmetry is implied."""
    pairs: dict[int, float] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ParameterError(
            f"cannot read kernel table {path!r}: {exc.strerror}") from exc
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            row = line.split()
            if len(row) != 2:
                raise ParameterError(f"kernel table row {line!r} is not 'k p(k)'")
            k = spec_number(row[0], "kernel table k", int)
            p = spec_number(row[1], "kernel table p(k)")
            if k < 0 or p < 0:
                raise ParameterError("table rows must be k>=0 with p(k)>=0")
            pairs[k] = p
            pairs[-k] = p
    if not pairs or pairs.get(0, 0.0) <= 0:
        raise ParameterError("table kernel needs positive mass at 0")
    kern = _finalize(pairs, defect=0.0, family="table", params=())
    if not (0.0 < kern.sigma2 <= SIGMA2_MAX + 1e-12):
        raise ParameterError(f"table kernel variance {kern.sigma2:.4g} outside (0, 1/2]")
    return kern


def parse_kernel_spec(spec: str) -> WalkKernel:
    """Parse ``binomial:sigma2=<x>``, ``sos:beta=<x>[,tail_tol=<y>]``, ``table:<path>``."""
    if ":" not in spec:
        raise ParameterError(f"malformed kernel spec {spec!r}")
    head, rest = spec.split(":", 1)
    if head == "table":
        return kernel_from_table(rest)
    if head == "binomial":
        kv = spec_fields(head, rest, ("sigma2",))
        return make_binomial(spec_number(kv["sigma2"], "sigma2"))
    if head == "sos":
        kv = spec_fields(head, rest, ("beta",), ("tail_tol",))
        tail_tol = spec_number(kv.get("tail_tol", "1e-12"), "tail_tol")
        return make_sos(spec_number(kv["beta"], "beta"), tail_tol=tail_tol)
    raise ParameterError(f"unknown kernel family {head!r}")
