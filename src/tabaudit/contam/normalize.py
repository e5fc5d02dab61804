"""Cell-value normalization for schema-agnostic matching.

Matching is exact equality over normalized values: strings fold case and
whitespace, numbers collapse to one canonical decimal rendering so
"77.0", "77.00" and "77" coincide, booleans become "true"/"false", and a
missing cell maps to a reserved sentinel that never enters the index.

Numbers are the cells that match :data:`tabaudit.tableio.NUMBER_RE`, and
they are canonicalized by text alone, with no precision limit: Unicode
decimal digits are spelled in ASCII, leading and trailing zeros are
dropped (trailing ones folded into the exponent), ``+`` is dropped, and
every zero is ``"0"``. Equal values therefore get one form and unequal
values never share one, however many digits they carry. The form is
fixed point, except for magnitudes beyond 1e50 (or below 1e-50) where
fixed point would have to pad with zeros: those are written ``d.ddde+N``
(or ``e-N``) as ``str(Decimal)`` writes them, lowercased. A number whose
exponent has more than 18 digits, leading zeros aside, is kept as text.
Python ints and floats are canonicalized from their ``repr``.

:func:`normalize_cells` normalizes a list of string cells in one call,
each step over the whole list; :func:`normalize_cell` sends a single
cell's text through it, so the grammar has one implementation.
:func:`table_values` states which values a table contributes to the
contamination index: each distinct present cell, normalized. The index
build and ``scan --corpus`` both take them from it.

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
from itertools import chain, compress
from typing import Iterable

from ..tableio import NUMBER_RE, Cell

MISSING = "\x00"

_DATE_MDY_RE = re.compile(r"(\d{1,2})/(\d{1,2})/(\d{4})")
_DATE_ISO_RE = re.compile(r"(\d{4})-(\d{1,2})-(\d{1,2})")

# Beyond this magnitude, canonicalize in scientific notation instead of
# expanding a fixed-point string with thousands of zeros.
_MAX_FIXED_EXPONENT = 50

# A longer exponent (leading zeros aside) is kept as text: no measurement
# comes near 1e18, and int() would refuse thousands of digits.
_MAX_EXPONENT_DIGITS = 18


def normalize_cell(cell, fold_dates: bool = False) -> str:
    """Canonical string form of any cell value."""
    if cell is None:
        return MISSING
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (int, float)):
        cell = repr(cell)
    return normalize_cells([str(cell)], fold_dates)[0]


def normalize_cells(cells: list[str], fold_dates: bool = False) -> list[str]:
    """Canonical forms of string cells, in order: ``normalize_cell`` of each.

    Each step every cell takes (NUL to space, strip, lowercase, collapse
    whitespace, number match) runs over the whole list at once. Booleans
    need no step of their own: "TRUE" lowercased is "true". One loop
    then visits the numbers, and with ``fold_dates`` the other cells, to
    replace the forms that differ.
    """
    stripped = [cell.replace("\x00", " ").strip() for cell in cells]
    out = list(map(" ".join, map(str.split, map(str.lower, stripped))))
    matches = list(map(NUMBER_RE.fullmatch, stripped))
    visit = enumerate(zip(stripped, matches))
    for i, (s, m) in visit if fold_dates else compress(visit, matches):
        if m:
            number = _canonical_number(m)
            if number is not None:
                out[i] = number
        else:
            folded = _fold_date(s)
            if folded is not None:
                out[i] = folded
    return out


def table_values(rows: Iterable[Iterable[Cell]], fold_dates: bool = False) -> dict[str, str]:
    """Each distinct present cell of ``rows`` mapped to its normalized value:
    the values a table puts in the index. A table's cells repeat, so each
    is normalized once."""
    cells = list(set(chain.from_iterable(rows)) - {None})
    return dict(zip(cells, normalize_cells(cells, fold_dates)))


def _canonical_number(m: re.Match) -> str | None:
    """Canonical text of a :data:`NUMBER_RE` match; None for a huge exponent."""
    if not m.string.isascii():
        m = NUMBER_RE.fullmatch(
            "".join(c if c.isascii() else str(int(c)) for c in m.string)
        )
    sign, whole, frac, exp = m.groups()
    exponent = 0  # of the last written digit
    if frac:
        exponent = -len(frac)
        whole += frac
    lead = whole.lstrip("0")
    if exp:
        digits = exp.lstrip("+-").lstrip("0") or "0"
        if len(digits) > _MAX_EXPONENT_DIGITS:
            return None
        exponent += -int(digits) if exp[0] == "-" else int(digits)
    if not lead:
        return "0"
    coef = lead.rstrip("0")
    exponent += len(lead) - len(coef)
    adjusted = exponent + len(coef) - 1  # of the first digit
    sign = "-" if sign == "-" else ""
    # Fixed point, unless |adjusted| > 50 and fixed point would pad with
    # zeros: str(Decimal)'s choice of scientific form in that range.
    if exponent >= 0:
        if exponent == 0 or adjusted <= _MAX_FIXED_EXPONENT:
            return sign + coef + "0" * exponent
    elif adjusted >= 0:
        return f"{sign}{coef[:adjusted + 1]}.{coef[adjusted + 1:]}"
    elif adjusted >= -_MAX_FIXED_EXPONENT:
        return f"{sign}0.{'0' * (-adjusted - 1)}{coef}"
    point = "." if len(coef) > 1 else ""
    return f"{sign}{coef[0]}{point}{coef[1:]}e{adjusted:+d}"


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
