"""Workload management: resource pools, admission control, closed-loop driving.

See :mod:`repro.wm.admission` for the slot model and
:mod:`repro.wm.driver` for the concurrent closed-loop driver.  The
driver is imported lazily (``from repro.wm.driver import ...``) to keep
the cluster -> wm import edge free of engine/sql dependencies.
"""

from repro.wm.admission import (
    AdmissionController,
    AdmissionTicket,
    PendingAdmission,
)
from repro.wm.pool import GENERAL_POOL, PoolConfig, ResourcePool

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "PendingAdmission",
    "GENERAL_POOL",
    "PoolConfig",
    "ResourcePool",
]
