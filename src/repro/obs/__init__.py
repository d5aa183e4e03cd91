"""``repro.obs`` — the observability subsystem (Data-Collector style).

Three pillars, all stamped by the simulated clock:

* :mod:`repro.obs.metrics` — the ``Ledger`` helper every always-on stats
  dataclass shares, ``cluster_metrics()``, and the registry of
  counters/gauges/histograms for what no ledger carries;
* :mod:`repro.obs.tracing` — parent/child spans across query execution,
  S3 requests, mergeout, reaping, and revive, exportable as JSON;
* :mod:`repro.obs.profile` + :mod:`repro.obs.system_tables` — per-operator
  query profiles exposed as ``v_monitor.*`` virtual tables that run
  through the ordinary SQL planner/executor;
* :mod:`repro.obs.datacollector` — bounded per-node event-history ring
  buffers behind the partitioned ``v_monitor.dc_*`` tables, read by
  :mod:`repro.obs.doctor` to explain slow queries.

:class:`Observability` bundles the three behind one switch.  Disabled (the
default for every cluster) it holds the shared no-op registry and tracer,
so instrumented hot paths cost one attribute check; call
``cluster.enable_observability()`` to start collecting.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.obs.datacollector import (
    DataCollector,
    DC_NODE_PARTITIONED,
    DC_TABLES,
    NULL_DATA_COLLECTOR,
    NullDataCollector,
)
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    NULL_REGISTRY,
    NullRegistry,
    cluster_metrics,
)
from repro.obs.profile import OperatorProfile, QueryProfile, RequestRecord
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer, render_span_tree

__all__ = [
    "Observability",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "render_span_tree",
    "OperatorProfile",
    "QueryProfile",
    "RequestRecord",
    "cluster_metrics",
    "DataCollector",
    "NullDataCollector",
    "NULL_DATA_COLLECTOR",
    "DC_TABLES",
    "DC_NODE_PARTITIONED",
]


#: Recent request records and query profiles kept (the oldest goes first).
MAX_REQUESTS = 512


class Observability:
    """Per-cluster observability state: registry, tracer, recent requests.
    ``Observability(clock=..., enabled=False)`` is the disabled bundle every
    cluster starts with."""

    def __init__(self, clock=None, enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        if enabled:
            self.metrics = MetricsRegistry(clock)
            self.tracer = Tracer(clock)
            self.dc = DataCollector(clock)
        else:
            self.metrics = NULL_REGISTRY
            self.tracer = NULL_TRACER
            self.dc = NULL_DATA_COLLECTOR
        #: Recent RequestRecord / QueryProfile entries (bounded, like the
        #: Data Collector's ring buffers).
        self.requests: "deque[RequestRecord]" = deque(maxlen=MAX_REQUESTS)
        self.profiles: "deque[QueryProfile]" = deque(maxlen=MAX_REQUESTS)
        self._request_ids = itertools.count(1)

    def switched_on(self) -> "Observability":
        """This bundle when it already collects, else a collecting one on the
        same clock — what a cluster's ``enable_observability`` installs."""
        return self if self.enabled else Observability(self.clock)

    def next_request_id(self) -> int:
        return next(self._request_ids)
