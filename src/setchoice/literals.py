"""Number literals and quotes: how far a number is read, and how a value
is written.

A number is read only within ``_NUMBER_BOUND`` (``_bounded`` for a literal,
``_bounded_number`` for any value), so a short text such as ``1e-3000000``
never builds a huge integer; a message quotes a value briefly
(``_plain_number``, ``_quoted``), so neither ``1e999`` nor a 5000-character
token is echoed whole.  The scenario parser and the library's checking
constructor ``Individual`` both apply these rules; ``format_ratio`` writes
every rational the program prints, exactly.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

DEFAULT_PRECISION = 6
_NUMBER_BOUND = 1000  # most characters, and largest |exponent|, of a literal
_DIGITS_FROM = 10 ** _NUMBER_BOUND  # the least integer of more digits
_EXPONENT_FROM = 10 ** 21  # findings quote larger magnitudes in exponent form
_QUOTE_BOUND = 40  # most characters of an input string a message quotes whole


class _BeyondBound(ValueError):
    """A number beyond _NUMBER_BOUND, refused before its value is built."""

    def __init__(self):
        super().__init__(f"number literal longer than {_NUMBER_BOUND} "
                         f"characters or with |exponent| > {_NUMBER_BOUND}")


def _bounded(text: str) -> str:
    """A number literal, refused with ``_BeyondBound`` before any value is
    built when it is beyond _NUMBER_BOUND."""
    exponent = text.lower().partition("e")[2] or "0"
    if len(text) > _NUMBER_BOUND or abs(int(exponent)) > _NUMBER_BOUND:
        raise _BeyondBound
    return text


def _bounded_number(value: object) -> object:
    """``value``, refused with ``_BeyondBound`` when beyond _NUMBER_BOUND: a
    string as a literal, a finite Decimal by its digit count and exponent,
    an int or a Fraction by the digit count of its numerator and
    denominator."""
    if isinstance(value, str):
        return _bounded(value)
    if isinstance(value, Decimal):
        if value.is_finite():
            _, digits, exponent = value.as_tuple()
            if len(digits) > _NUMBER_BOUND or abs(exponent) > _NUMBER_BOUND:
                raise _BeyondBound
    elif isinstance(value, (int, Fraction)):
        if (abs(value.numerator) >= _DIGITS_FROM
                or value.denominator >= _DIGITS_FROM):
            raise _BeyondBound
    return value


def _quoted(value: object, form=repr) -> str:
    """``value`` as a message quotes it, ``form(value)``; a string longer
    than _QUOTE_BOUND characters is cut to its first _QUOTE_BOUND and its
    length is stated, so a message does not grow with its input."""
    if isinstance(value, str) and len(value) > _QUOTE_BOUND:
        return f"{form(value[:_QUOTE_BOUND])}... ({len(value)} characters)"
    return form(value)


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
