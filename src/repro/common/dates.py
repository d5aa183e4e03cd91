"""Date helpers: DATE columns are stored as int days since 1970-01-01."""

from __future__ import annotations

import datetime

_EPOCH = datetime.date(1970, 1, 1)


def date_to_days(text: str) -> int:
    """Parse 'YYYY-MM-DD' into days since epoch."""
    d = datetime.date.fromisoformat(text)
    return (d - _EPOCH).days


def make_date(year: int, month: int, day: int) -> int:
    return (datetime.date(year, month, day) - _EPOCH).days
