"""Type inference and raw-text cell parsing.

Open-data CSVs arrive as strings.  :func:`parse_cell` turns a raw string into
the richest :class:`~repro.table.values.Cell` it can justify (``int`` before
``float`` before ``bool`` before ``str``); :func:`infer_dtype` summarizes a
column of already-parsed cells into one of :data:`repro.table.schema.DTYPES`.

Nothing here guesses at semantics (percentages, "1.4M" counts, currencies);
that normalization lives in :mod:`repro.text.normalize` and is applied only
when an analysis explicitly asks for numbers.
"""

from __future__ import annotations

from typing import Iterable

from .values import MISSING, Cell, is_null

__all__ = [
    "DEFAULT_MISSING_TOKENS",
    "parse_cell",
    "infer_dtype",
]

#: Raw strings (case-insensitive, after stripping) read as a *missing* null.
DEFAULT_MISSING_TOKENS = frozenset(
    {"", "na", "n/a", "nan", "null", "none", "missing", "±", "-", "--"}
)

_TRUE_TOKENS = frozenset({"true", "yes"})
_FALSE_TOKENS = frozenset({"false", "no"})


def parse_cell(raw: str, missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS) -> Cell:
    """Parse one raw CSV field into a typed cell.

    The parser is deliberately conservative: anything that is not clearly a
    number, boolean or missing marker stays a (stripped) string, because
    discovery and alignment treat strings as the common currency.
    """
    text = raw.strip()
    if text.lower() in missing_tokens:
        return MISSING
    lowered = text.lower()
    if lowered in _TRUE_TOKENS:
        return True
    if lowered in _FALSE_TOKENS:
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    return value


def infer_dtype(values: Iterable[Cell]) -> str:
    """The narrowest dtype that covers every non-null cell in *values*.

    All-null (or empty) columns are ``"empty"``; columns mixing, say, strings
    and ints are ``"any"``.  ``int`` widens to ``float`` but not vice versa.
    """
    saw_any = False
    saw_int = saw_float = saw_bool = saw_str = False
    for value in values:
        if is_null(value):
            continue
        saw_any = True
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, int):
            saw_int = True
        elif isinstance(value, float):
            saw_float = True
        elif isinstance(value, str):
            saw_str = True
        else:
            return "any"
    if not saw_any:
        return "empty"
    kinds = sum((saw_bool, saw_int or saw_float, saw_str))
    if kinds > 1:
        return "any"
    if saw_str:
        return "string"
    if saw_bool:
        return "bool"
    if saw_float:
        return "float"
    return "int"
