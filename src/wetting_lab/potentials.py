"""Pinning potentials: level-indexed nonnegative rewards with certified tails.

A potential assigns a reward eps_j >= 0 to visits of height j >= 0.  All the
criteria downstream weight the sequence by (j+1) or (j+1)^2, so the truncation
currency is the weighted tail sum_{j > j_max} (j+1) eps_j, bounded in closed
form for the power-law and exponential families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, spec_fields, spec_number

LOG2 = math.log(2.0)
_J_CAP = 2_000_000  # highest level a family may reach


@dataclass(frozen=True)
class PinningPotential:
    eps: tuple[float, ...]  # eps[j] for j = 0..j_max, raw (uncapped) values
    tail_bound: float       # certified bound on sum_{j>j_max} (j+1) eps_j
    family_tag: str
    log2_excess: tuple[int, ...] = ()  # levels with eps_j > log 2

    @property
    def j_max(self) -> int:
        return len(self.eps) - 1

    @property
    def exceeds_log2(self) -> bool:
        # rewards above log 2 make one stuck-at-level trajectory grow
        # exponentially on its own; certifiers may short-circuit on this flag
        return bool(self.log2_excess)

    @functools.cached_property  # not a field: eq, hash and repr ignore it
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.eps) if e > 0.0)

    def eps_array(self, n: int) -> np.ndarray:
        """First n values as an array (missing levels are 0)."""
        out = np.zeros(n)
        m = min(n, len(self.eps))
        out[:m] = self.eps[:m]
        return out

    def scaled(self, t: float) -> "PinningPotential":
        if t < 0:
            raise ParameterError("scale factor must be nonnegative")
        return _build(tuple(t * e for e in self.eps), t * self.tail_bound,
                      f"{self.family_tag}*{t:g}")

    def spec_string(self) -> str:
        return self.family_tag


def _build(eps: tuple[float, ...], tail_bound: float, tag: str) -> PinningPotential:
    if not all(math.isfinite(e) for e in eps):
        raise ParameterError("pinning rewards must be finite")
    if any(e < 0 for e in eps):
        raise ParameterError("pinning rewards must be nonnegative")
    excess = tuple(j for j, e in enumerate(eps) if e > LOG2)
    return PinningPotential(eps=eps, tail_bound=tail_bound, family_tag=tag,
                            log2_excess=excess)


def _power_tail(amplitude: float, delta: float, j_max: int) -> float:
    # sum_{j>J} (j+1)^{-1-delta} <= integral_{J+1}^inf x^{-1-delta} dx
    return amplitude * (j_max + 1) ** (-delta) / delta


def _exp_tail(amplitude: float, delta: float, j_max: int) -> float:
    # sum_{j>J} (j+1) x^j = x^{J+1} ((J+2) - (J+1) x) / (1-x)^2, x = e^{-delta}
    x = math.exp(-delta)
    return amplitude * x ** (j_max + 1) * ((j_max + 2) - (j_max + 1) * x) / (1 - x) ** 2


def make_family(
    family: str,
    *,
    amplitude: float = 1.0,
    delta: float | None = None,
    j: int | None = None,
    values: list[float] | tuple[float, ...] | None = None,
    weighted_tail_tol: float = 1e-6,
    sign: str = "+",
) -> PinningPotential:
    """Build a potential from one of the supported families.

    power:  eps_j = amplitude * (j+1)^(-2-delta)  (sign '+')
            eps_j = amplitude * (j+1)^(-2+delta)  (sign '-', non-summable tail)
    exp:    eps_j = amplitude * exp(-delta j)
    single: one nonzero entry at level j
    list:   explicit values
    """
    if amplitude < 0:
        raise ParameterError("amplitude must be nonnegative")
    if family == "single":
        if j is None or not 0 <= j <= _J_CAP:
            raise ParameterError(
                f"single-level potential needs a level 0 <= j <= {_J_CAP}")
        eps = tuple(0.0 if i < j else amplitude for i in range(j + 1))
        return _build(eps, 0.0, f"single:j={j},eps={amplitude:g}")
    if family == "list":
        if values is None:
            raise ParameterError("list potential needs explicit values")
        return _build(tuple(float(v) for v in values), 0.0, "list:<explicit>")
    if delta is None or delta <= 0:
        raise ParameterError(f"{family} family needs delta > 0")
    if family == "exp":
        if amplitude == 0.0:
            return _build((0.0,), 0.0, f"exp:delta={delta:g},amp=0")
        x = math.exp(-delta)
        # the tail bound falls as jm grows, so this settles every jm <= _J_CAP
        if x == 1.0 or _exp_tail(amplitude, delta, _J_CAP) > weighted_tail_tol:
            raise ParameterError("exp family cannot meet tail tolerance below "
                                 "the level cap")
        jm = 0
        while _exp_tail(amplitude, delta, jm) > weighted_tail_tol:
            jm += 1
        eps = tuple(amplitude * x ** i for i in range(jm + 1))
        return _build(eps, _exp_tail(amplitude, delta, jm),
                      f"exp:delta={delta:g},amp={amplitude:g}")
    if family == "power":
        if sign not in ("+", "-"):
            raise ParameterError("power sign must be '+' or '-'")
        expo = -2.0 - delta if sign == "+" else -2.0 + delta
        if amplitude == 0.0:
            return _build((0.0,), 0.0, f"power:delta={delta:g},amp=0,sign={sign}")
        if sign == "-":
            # weighted tail diverges; retain a fixed window and say so
            jm = 255
            try:
                eps = tuple(amplitude * (i + 1) ** expo for i in range(jm + 1))
            except OverflowError:
                raise ParameterError(
                    f"power rewards overflow at delta={delta:g}") from None
            return _build(eps, math.inf,
                          f"power:delta={delta:g},amp={amplitude:g},sign=-")
        jm = 0
        while _power_tail(amplitude, delta, jm) > weighted_tail_tol:
            jm = max(jm + 1, int(jm * 1.3))
            if jm > _J_CAP:
                raise ParameterError(
                    "power family cannot meet tail tolerance below the level cap; "
                    "loosen weighted_tail_tol"
                )
        eps = tuple(amplitude * (i + 1) ** expo for i in range(jm + 1))
        return _build(eps, _power_tail(amplitude, delta, jm),
                      f"power:delta={delta:g},amp={amplitude:g},sign=+")
    raise ParameterError(f"unknown potential family {family!r}")


@dataclass(frozen=True)
class RhoEstimate:
    """Pinning-to-variance ratio with its tail-induced uncertainty."""

    value: float   # sigma^-2 * sum_{j<=j_max} (j+1) eps_j
    upper: float   # value + tail_bound / sigma^2


def rho(pot: PinningPotential, sigma2: float) -> RhoEstimate:
    if sigma2 <= 0:
        raise ParameterError("sigma2 must be positive")
    val = sum((j + 1) * e for j, e in enumerate(pot.eps)) / sigma2
    return RhoEstimate(value=val, upper=val + pot.tail_bound / sigma2)


@dataclass(frozen=True)
class LevelPin:
    j: int
    rho_j: float    # decoupling weight (b sigma^2)^-1 (j+1) eps_j
    kappa_j: float  # single-level strength b sigma^2 / (j+1)


@dataclass(frozen=True)
class Decoupling:
    pot: PinningPotential
    b: float
    sigma2: float
    rho_sum: float  # callers must check <= 1 before using the decomposition

    @functools.cached_property  # built on first read: certify reads rho_sum
    def levels(self) -> tuple[LevelPin, ...]:
        bs = self.b * self.sigma2
        return tuple(LevelPin(j=j, rho_j=(j + 1) * e / bs, kappa_j=bs / (j + 1))
                     for j, e in enumerate(self.pot.eps))


def decouple(pot: PinningPotential, b: float, sigma2: float) -> Decoupling:
    """Split a multi-level potential into independent single-level problems.

    The convexity bound e^{sum_j rho_j kappa_j N_j} <= sum_j rho_j e^{kappa_j N_j}
    needs sum rho_j <= 1; the actual sum is reported, never silently normalised.
    """
    if b <= 0:
        raise ParameterError("decoupling constant b must be positive")
    if sigma2 <= 0:
        raise ParameterError("sigma2 must be positive")
    bs = b * sigma2
    return Decoupling(pot=pot, b=b, sigma2=sigma2,
                      rho_sum=sum((j + 1) * e / bs for j, e in enumerate(pot.eps)))


def parse_potential_spec(spec: str, amplitude: float | None = None) -> PinningPotential:
    """Parse ``single:j=..,eps=..``, ``power:delta=..,amp=..[,sign=+|-]``,
    ``exp:delta=..,amp=..``, ``list:<path>`` (one eps_j per line).

    ``amplitude`` overrides the amp/eps field when given (used by sweeps).
    """
    if ":" not in spec:
        raise ParameterError(f"malformed potential spec {spec!r}")
    head, rest = spec.split(":", 1)
    if head == "list":
        try:
            fh = open(rest)
        except OSError as exc:
            raise ParameterError(
                f"cannot read potential list {rest!r}: {exc.strerror}") from exc
        with fh:
            values = [spec_number(line, "eps") for line in fh if line.strip()]
        pot = make_family("list", values=values)
        return pot if amplitude is None else pot.scaled(amplitude)
    if head == "single":
        kv = spec_fields(head, rest, ("j",), ("eps",))
        amp = spec_number(kv.get("eps", "1"), "eps")
        return make_family("single", j=spec_number(kv["j"], "j", int),
                           amplitude=amp if amplitude is None else amplitude)
    if head == "power":
        kv = spec_fields(head, rest, ("delta",), ("amp", "sign"))
        amp = spec_number(kv.get("amp", "1"), "amp")
        return make_family(
            "power", delta=spec_number(kv["delta"], "delta"),
            amplitude=amp if amplitude is None else amplitude,
            sign=kv.get("sign", "+"),
        )
    if head == "exp":
        kv = spec_fields(head, rest, ("delta",), ("amp",))
        amp = spec_number(kv.get("amp", "1"), "amp")
        return make_family("exp", delta=spec_number(kv["delta"], "delta"),
                           amplitude=amp if amplitude is None else amplitude)
    raise ParameterError(f"unknown potential family {head!r}")
