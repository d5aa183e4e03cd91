"""Deterministic parallel I/O scheduling for the depot <-> shared-storage path."""

from repro.io.scheduler import (
    FetchBatch,
    FetchPlan,
    FetchRequest,
    IOScheduler,
    IOStats,
    plan_fetch,
)

__all__ = [
    "FetchBatch",
    "FetchPlan",
    "FetchRequest",
    "IOScheduler",
    "IOStats",
    "plan_fetch",
]
