"""Shared exception types, and the spec-field parsing that raises them.
Exit-code mapping lives in the CLI."""

import math


class ParameterError(ValueError):
    """A caller-supplied parameter is outside the supported range."""


class RefusalError(RuntimeError):
    """A computation was refused because it exceeds a hard cost or honesty cap.

    Oracles and enumerations never approximate; past their caps they refuse.
    """


class TruncationError(RuntimeError):
    """Height/window truncation could not be certified even after doubling."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def positive_finite(value: float, what: str) -> None:
    """Refuse a ``value`` that is not finite and > 0 (nan included) with a
    ParameterError naming ``what``."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{what} must be positive and finite, got {value!r}")


def spec_fields(family: str, body: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> dict[str, str]:
    """Split a spec body ``key=value,...`` into raw strings.

    Every required key must appear, and no key outside ``required`` and
    ``optional`` may, nor any key twice.
    """
    fields: dict[str, str] = {}
    for item in body.split(","):
        if not item:
            continue
        key, eq, val = item.partition("=")
        if not eq:
            raise ParameterError(f"malformed {family} spec field {item!r}")
        if key not in required + optional:
            raise ParameterError(
                f"unknown {family} spec field {key!r}; "
                f"expected {', '.join(required + optional)}")
        if key in fields:
            raise ParameterError(f"{family} spec field {key!r} given twice")
        fields[key] = val
    missing = [k for k in required if k not in fields]
    if missing:
        raise ParameterError(f"{family} spec lacks {', '.join(missing)}")
    return fields


def spec_number(text: str, what: str, kind=float):
    """``kind(text)``, required to be finite; anything else is a
    ParameterError naming ``what``."""
    try:
        x = kind(text)
        finite = math.isfinite(x)
    except ValueError:
        raise ParameterError(
            f"{what}={text!r} is not a valid {kind.__name__}") from None
    except OverflowError:  # an int beyond the float range
        raise ParameterError(f"{what}={text!r} is out of range") from None
    if not finite:
        raise ParameterError(f"{what}={text!r} is not finite")
    return x
