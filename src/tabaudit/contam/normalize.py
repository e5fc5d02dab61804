"""Cell-value normalization for schema-agnostic matching.

Matching is exact equality over normalized values: strings fold case and
whitespace, numbers collapse to one canonical decimal rendering so
"77.0", "77.00" and "77" coincide, booleans become "true"/"false", and a
missing cell maps to a reserved sentinel that never enters the index.

NUL counts as whitespace, so no normalized value of a present cell holds
a NUL: a lone-NUL cell is not mistaken for the missing sentinel ("\x00"),
and the index can end each value's posting key with a NUL.

Tolerance-band numeric matching is deliberately not done here: on dense
numeric corpora it explodes false positives. Near-misses are the query
layer's concern.

Date folding (off by default) canonicalizes common date spellings to ISO
YYYY-MM-DD so "11/30/2021" and "2021-11-30" can be made to coincide;
aggressive date canonicalization risks false associations, hence opt-in.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, DecimalException

MISSING = "\x00"

_NUM_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_INT_RE = re.compile(r"[+-]?\d+")
_DATE_MDY_RE = re.compile(r"(\d{1,2})/(\d{1,2})/(\d{4})")
_DATE_ISO_RE = re.compile(r"(\d{4})-(\d{1,2})-(\d{1,2})")

# Wide precision and exponent range so normalize() neither rounds
# realistic inputs nor overflows on absurd lexical exponents ("7e31432...").
_CTX = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)

# Beyond this magnitude, canonicalize in scientific notation instead of
# expanding a fixed-point string with thousands of zeros.
_MAX_FIXED_EXPONENT = 50


def normalize_cell(cell, fold_dates: bool = False) -> str:
    """Canonical string form of any cell value."""
    if cell is None:
        return MISSING
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return _canonical_number(repr(cell))
    s = str(cell).replace("\x00", " ").strip()
    low = s.lower()
    if low in ("true", "false"):
        return low
    if _INT_RE.fullmatch(s):
        try:
            return str(int(s))
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            return _lexical_integer(s)
    if _NUM_RE.fullmatch(s):
        return _canonical_number(s)
    if fold_dates:
        folded = _fold_date(s)
        if folded is not None:
            return folded
    return " ".join(low.split())


def _lexical_integer(s: str) -> str:
    """``str(int(s))`` for an integer string, by text alone, with no digit limit.

    Drops ``+`` and leading zeros, maps ``-0`` to ``0``, and spells other
    Unicode decimal digits in ASCII, as ``int()`` does.
    """
    sign = "-" if s[0] == "-" else ""
    digits = s.lstrip("+-")
    if not digits.isascii():
        import unicodedata

        digits = "".join(str(unicodedata.decimal(c)) for c in digits)
    digits = digits.lstrip("0")
    return sign + digits if digits else "0"


def _canonical_number(s: str) -> str:
    try:
        d = Decimal(s)
        if not d.is_finite():
            return " ".join(s.lower().split())
        if d == 0:
            return "0"
        d = d.normalize(_CTX)
    except DecimalException:
        return " ".join(s.lower().split())
    if abs(d.adjusted()) > _MAX_FIXED_EXPONENT:
        return str(d).lower()
    return format(d, "f")


def _fold_date(s: str) -> str | None:
    m = _DATE_MDY_RE.fullmatch(s)
    if m:
        month, day, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if 1 <= month <= 12 and 1 <= day <= 31:
            return f"{year:04d}-{month:02d}-{day:02d}"
        return None
    m = _DATE_ISO_RE.fullmatch(s)
    if m:
        year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if 1 <= month <= 12 and 1 <= day <= 31:
            return f"{year:04d}-{month:02d}-{day:02d}"
    return None
