"""Number literals: how far one is read, and how a value is written.

A literal is read only within ``_NUMBER_BOUND`` (``_bounded``), so a short
text such as ``1e-3000000`` never builds a huge integer; a finding quotes a
value briefly (``_plain_number``), so ``1e999`` is not echoed as a thousand
digits.  The scenario parser and the library's checking constructor
``Individual`` both apply these rules; ``format_ratio`` writes every
rational the program prints, exactly.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

DEFAULT_PRECISION = 6
_NUMBER_BOUND = 1000  # most characters, and largest |exponent|, of a literal
_EXPONENT_FROM = 10 ** 21  # findings quote larger magnitudes in exponent form


def _bounded(text: str) -> str:
    """A number literal, refused with ``ValueError`` before any value is
    built when it is beyond _NUMBER_BOUND."""
    exponent = text.lower().partition("e")[2] or "0"
    if len(text) > _NUMBER_BOUND or abs(int(exponent)) > _NUMBER_BOUND:
        raise ValueError(f"number literal longer than {_NUMBER_BOUND} characters "
                         f"or with |exponent| > {_NUMBER_BOUND}")
    return text


def format_ratio(num: int, den: int, digits: int = DEFAULT_PRECISION) -> str:
    """Exact fixed-point rendering of ``num / den`` (``den > 0``), rounded
    half to even, in integer arithmetic only."""
    scale = 10 ** digits if digits > 0 else 1
    scaled, rest = divmod(num * scale, den)
    rest += rest
    if rest > den or (rest == den and scaled & 1):
        scaled += 1
    if digits <= 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _plain_number(value: int | Fraction) -> str:
    """A number as a finding quotes it: from 10**21 in magnitude, its six
    leading digits (truncated) in exponent form, so a short literal such as
    ``1e999`` is not echoed as a thousand digits."""
    if abs(value) >= _EXPONENT_FROM:
        # a Decimal, unlike an int, is written out whatever its length
        digits = str(Decimal(abs(value.numerator) // value.denominator))
        sign = "-" if value < 0 else ""
        return f"{sign}{digits[0]}.{digits[1:6]}e+{len(digits) - 1}"
    if value.denominator == 1:
        return str(value)
    return (format_ratio(value.numerator, value.denominator, 6)
            .rstrip("0").rstrip(".") or "0")
