"""Certificate records shared by the spectral and induction engines."""

from __future__ import annotations

from dataclasses import dataclass

LOCALIZED = "localized"
DELOCALIZED_EMPIRICAL = "delocalized_empirical"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Evidence:
    scale: float          # length scale (or window size) the check ran at
    check: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Certificate:
    """Verdict plus the numeric trail that produced it.

    ``localized`` always carries spectral evidence; ``delocalized_empirical``
    means every recorded inequality passed up to ``valid_up_to`` and claims
    nothing beyond that scale; absence of either is ``undetermined``, never a
    delocalization claim.
    """

    verdict: str
    evidence: tuple[Evidence, ...]
    params: dict
    valid_up_to: int | None = None
    spectral: dict | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict == LOCALIZED and self.spectral is None:
            raise ValueError("localized verdicts need spectral evidence")
        if self.verdict == DELOCALIZED_EMPIRICAL:
            if not self.evidence or not all(e.passed for e in self.evidence):
                raise ValueError(
                    "delocalized_empirical requires every recorded check to pass"
                )
