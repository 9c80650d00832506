"""Exact rational time coordinates.

Times, breakpoints and interval endpoints are `fractions.Fraction` values so
that set algebra, refinement and integration stay exact.  Values that only
feed numeric output (masses, epsilons, float-mode coefficients) may be plain
ints or floats; mixed arithmetic degrades to float as usual.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

#: significant digits used whenever a float is written to JSON/SVG/CSV
FLOAT_DIGITS = 12

FLOAT_MAX = int(sys.float_info.max)  # the largest finite float, exactly


def _float_sized(value: int | Fraction) -> int | Fraction:
    """value, unless its magnitude exceeds the largest finite float."""
    if abs(value) > FLOAT_MAX:
        raise ValueError("number beyond the largest finite float (about 1.8e308)")
    return value


def rat(value: Number | str) -> Fraction:
    """Coerce a time coordinate to an exact Fraction.

    Accepts Fraction, int, "p/q" or decimal strings, and floats (floats are
    re-read through their shortest decimal form, so a JSON 0.5 means 1/2).
    A zero denominator, an infinity, a NaN, and an int or string beyond the
    largest finite float raise ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a time coordinate")
    if isinstance(value, int):
        return Fraction(_float_sized(value))
    if isinstance(value, str):
        try:
            return _float_sized(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    if isinstance(value, float):
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def fmt_rat(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when integral)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def num_to_json(value: Number) -> Union[int, float, str]:
    """JSON form of a number: exact rationals as strings, floats rounded."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return fmt_rat(value)
    if isinstance(value, bool):
        raise TypeError("boolean is not a number here")
    if isinstance(value, int):
        return value
    return float(format(value, f".{FLOAT_DIGITS}g"))


def num_from_json(value: Union[int, float, str]) -> Number:
    """Inverse of num_to_json; "p/q" strings come back as Fractions, read by
    rat.  A non-finite float (JSON 1e999) and an int beyond the largest
    finite float raise ValueError."""
    if isinstance(value, str):
        return rat(value)
    if isinstance(value, bool):
        raise TypeError("boolean is not a number here")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    if isinstance(value, int):
        return _float_sized(value)
    return value


def fmt_float(value: float) -> str:
    return format(value, f".{FLOAT_DIGITS}g")


def is_exact(value: Number) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)
