"""Number literals and quotes: how far a number is read, and how a value
is written.

A number is read only within ``_NUMBER_BOUND`` (``_bounded`` for a literal,
``_bounded_number`` for any value), so a short text such as ``1e-3000000``
never builds a huge integer; a message quotes a value briefly
(``_plain_number``, ``_quoted``), so neither ``1e999`` nor a 5000-character
token is echoed whole.  The scenario parser, which reads a decimal literal as
an exact ``Decimal``, and the library's checking constructor ``Individual``
both apply these rules.  ``format_ratios`` writes every rational the
program prints, exactly, a whole row of them in one pass; ``format_ratio``
is that rule for one value.
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
    if len(text) > _NUMBER_BOUND:
        raise _BeyondBound
    if "e" in text or "E" in text:
        exponent = text.lower().partition("e")[2] or "0"
        if abs(int(exponent)) > _NUMBER_BOUND:
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
    """``value`` as a message quotes it, ``form(value)``, so that a message
    does not grow with its input: a string longer than _QUOTE_BOUND
    characters is cut to its first _QUOTE_BOUND, any other value's text to
    its first _QUOTE_BOUND characters, and the full length is stated."""
    if isinstance(value, str):
        if len(value) > _QUOTE_BOUND:
            return f"{form(value[:_QUOTE_BOUND])}... ({len(value)} characters)"
        return form(value)
    text = form(value)
    if len(text) > _QUOTE_BOUND:
        return f"{text[:_QUOTE_BOUND]}... ({len(text)} characters)"
    return text


def _quoted_id(value: object) -> str:
    """An id as a library message quotes it: between single quotes, and
    cut by ``_quoted`` when long."""
    return _quoted(value, "'{}'".format)


def format_ratios(nums, den: int,
                  digits: int = DEFAULT_PRECISION) -> list[str]:
    """Exact fixed-point rendering of each ``num / den`` (``den > 0``) in
    ``nums``, rounded half to even, in integer arithmetic only: one
    ``divmod`` per value rounds half up, and an exact tie that landed on an
    odd digit steps back to the even one."""
    scale = 10 ** digits if digits > 0 else 1
    twice = den + den
    out = []
    for num in nums:
        q, r = divmod(2 * num * scale + den, twice)
        if not r and q & 1:
            q -= 1
        out.append(q)
    if digits <= 0:
        return [str(q) for q in out]
    pattern = f"%d.%0{digits}d"
    return ["0." + str(q + scale)[1:] if 0 <= q < scale
            else pattern % divmod(q, scale) if q > 0
            else "-" + pattern % divmod(-q, scale) for q in out]


def format_ratio(num: int, den: int, digits: int = DEFAULT_PRECISION) -> str:
    """Exact fixed-point rendering of ``num / den`` (``den > 0``), rounded
    half to even: ``format_ratios`` of one value."""
    return format_ratios((num,), den, digits)[0]


def _plain_number(value: int | Fraction) -> str:
    """A number as a finding quotes it: from 10**21 in magnitude, its six
    leading digits (truncated) in exponent form, so a short literal such as
    ``1e999`` is not echoed as a thousand digits; below that, exactly, as its
    decimal expansion when that ends and as ``num/den`` otherwise, cut by
    ``_quoted``.  Never rounded, so a value just outside [0, 1] such as
    ``1.0000000001`` or ``-1e-1000`` does not read as one inside it.  Of an
    expansion only the quoted characters are built: it may run to thousands
    of places (``-1e-1991``), more than Python writes an int in."""
    if abs(value) >= _EXPONENT_FROM:
        # a Decimal, unlike an int, is written out whatever its length
        digits = str(Decimal(abs(value.numerator) // value.denominator))
        sign = "-" if value < 0 else ""
        return f"{sign}{digits[0]}.{digits[1:6]}e+{len(digits) - 1}"
    num, den = value.numerator, value.denominator
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    # 5**k has b bits for (b - 1) / log2(5) <= k < b / log2(5), and
    # log2(5) < 2321929 / 10**6, so k is this quotient or the next integer
    fives = rest.bit_length() * 10 ** 6 // 2321929
    if 5 ** fives != rest:
        fives += 1
    if 5 ** fives != rest:  # the expansion does not end
        return _quoted(f"{num}/{den}", str)
    whole, rest = divmod(abs(num), den)
    head = f"{'-' if num < 0 else ''}{whole}"
    places = max(twos, fives)  # the last of them is not 0
    if not places:
        return head
    length = len(head) + 1 + places
    shown = min(places, _QUOTE_BOUND - len(head) - 1)
    text = f"{head}.{rest * 10 ** shown // den:0{shown}d}"
    return text if shown == places else f"{text}... ({length} characters)"
