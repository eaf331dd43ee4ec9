"""The budget of the one bounded search left: box enumeration."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchLimits:
    enum_budget: int = 100_000_000  # vectors a box enumeration may visit


DEFAULT_LIMITS = SearchLimits()
