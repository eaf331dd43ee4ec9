"""Search budget knobs shared by the constructive routines."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchLimits:
    max_l1: int = 48  # L1-norm shell cap for vector hunts
    vector_budget: int = 2_000_000  # vectors scanned per hunt
    witness_max_l1: int = 10  # isometry witness search shells
    witness_budget: int = 200_000  # vectors per witness representation step
    enum_budget: int = 100_000_000


DEFAULT_LIMITS = SearchLimits()
