"""Layer spans recorded from outside the program.

Nothing under ``src/`` knows about this file.  :class:`LayerTracer` wraps
the layers' public callables — rebinding a function's name in every
``repro`` module that imported it, and a method's name on its class — so
that every call records one span: name, start, end (``perf_counter_ns``),
parent span and the id of the benchmark op that caused it.  Spans nest the
way the call stack does (one thread, plain calls only), so a span's *self
time* is its duration minus the durations of its direct children.

The wrappers are installed only for traced passes (``installed()``), never
while end-to-end numbers are measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: One entry per wrapped callable: span name, ``module:qualname`` of the
#: target, and an optional ``count(args, result)`` giving the units of work
#: the call handled (rows, values, bytes) so ratios are measured where the
#: work happens.  The span name's first component is the layer, i.e. the
#: ``src/repro/<module>`` directory that owns the code.
Target = Tuple[str, str, Optional[Callable[[tuple, object], int]]]


def _join_rows(args: tuple, _result: object) -> int:
    return args[0].num_rows + args[1].num_rows


def _first_arg_rows(args: tuple, _result: object) -> int:
    return args[0].num_rows


def _result_len(_args: tuple, result: object) -> int:
    return len(result)


def _first_arg_len(args: tuple, _result: object) -> int:
    return len(args[0])


def _bytes_written(_args: tuple, report: object) -> int:
    return report.bytes_written


TARGETS: List[Target] = [
    ("sql.parse", "repro.sql.parser:parse", None),
    ("sql.bind", "repro.sql.binder:bind_select", None),
    ("engine.plan", "repro.engine.planner:plan_query", None),
    ("engine.execute", "repro.engine.executor:Executor.execute", None),
    ("engine.hash_join", "repro.engine.operators:hash_join", _join_rows),
    ("engine.aggregate", "repro.engine.operators:aggregate", _first_arg_rows),
    ("engine.sort_limit", "repro.engine.operators:sort_limit", _first_arg_rows),
    ("cluster.create_session", "repro.cluster.eon:EonCluster.create_session", None),
    ("cluster.glue", "repro.cluster.eon:EonCluster.query", None),
    ("cluster.glue", "repro.cluster.eon:EonCluster.query_statement", None),
    ("cluster.glue", "repro.cluster.eon:EonCluster.load", None),
    ("cluster.commit", "repro.cluster.eon:EonCluster.commit", None),
    ("cluster.commit", "repro.cluster.transactions:CommitCoordinator.commit", None),
    ("cluster.scan", "repro.cluster.session:EonStorageProvider.scan", None),
    ("cluster.sync_catalogs", "repro.cluster.eon:EonCluster.sync_catalogs", None),
    ("cluster.cluster_info", "repro.cluster.eon:EonCluster.write_cluster_info", None),
    ("cluster.service_tick", "repro.cluster.services:ServiceScheduler.tick", None),
    ("cluster.reaper", "repro.cluster.reaper:FileReaper.poll", None),
    ("wm.admission", "repro.wm.admission:AdmissionController.admit", None),
    ("wm.admission", "repro.wm.admission:AdmissionController.enqueue", None),
    ("wm.admission", "repro.wm.admission:AdmissionController.release", None),
    ("wm.closed_loop", "repro.wm.driver:run_closed_loop", None),
    ("cache.get_put", "repro.cache.disk_cache:FileCache.get", None),
    ("cache.get_put", "repro.cache.disk_cache:FileCache.put", None),
    ("io.fetch_batch", "repro.io.scheduler:IOScheduler.fetch_batch", None),
    ("io.pushdown_batch", "repro.io.scheduler:IOScheduler.pushdown_batch", None),
    ("shared_storage.request", "repro.shared_storage.s3:SimulatedS3.read", None),
    ("shared_storage.request", "repro.shared_storage.s3:SimulatedS3.read_coalesced", None),
    ("shared_storage.request", "repro.shared_storage.s3:SimulatedS3.write", None),
    ("shared_storage.request", "repro.shared_storage.s3:SimulatedS3.select_scan", None),
    ("shared_storage.request", "repro.shared_storage.s3:SimulatedS3.list", None),
    ("shared_storage.request", "repro.shared_storage.s3:SimulatedS3.delete", None),
    ("storage.decode", "repro.storage.encoding:decode_block", _result_len),
    ("storage.encode", "repro.storage.encoding:encode_block", _first_arg_len),
    ("storage.container_io", "repro.storage.container:read_container", None),
    ("storage.container_io", "repro.storage.container:write_container", None),
    ("storage.container_io", "repro.storage.container:ContainerReader.read_rowset", None),
    ("storage.container_io", "repro.storage.container:ContainerReader.read_rowset_blocks", None),
    ("storage.container_io", "repro.storage.container:ContainerReader.matching_blocks", None),
    ("load.copy", "repro.load.copy:copy_into", None),
    ("catalog.commit_apply", "repro.catalog.catalog:Catalog.apply_commit", None),
    ("catalog.sync", "repro.catalog.catalog:Catalog.sync_to", None),
    ("tuple_mover.mergeout", "repro.tuple_mover.mergeout:MergeoutCoordinatorService.run_all",
     _bytes_written),
    ("obs.record", "repro.obs.datacollector:DataCollector.record", None),
    ("obs.record", "repro.obs.tracing:Tracer.span", None),
    ("obs.record", "repro.obs.tracing:Tracer.record", None),
    ("obs.record", "repro.obs.metrics:MetricsRegistry.counter", None),
    ("obs.record", "repro.obs.metrics:MetricsRegistry.gauge", None),
    ("obs.record", "repro.obs.metrics:MetricsRegistry.histogram", None),
]

#: A span: (name id, start ns, end ns, parent span index or -1, op id,
#: units of work).  Its index in ``LayerTracer.spans`` is its identity.
Span = Tuple[int, int, int, int, int, int]


class LayerTracer:
    """In-memory span recorder around the callables in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        #: Id the runner sets before each op; spans of one op share it.
        self.op_id = -1
        self._stack: List[int] = []
        #: (namespace, attribute, original, wrapper) for every binding site.
        self._sites: List[Tuple[object, str, object, object]] = []
        for name, path, count in TARGETS:
            self._bind(name, path, count)

    # -- wrapping ------------------------------------------------------------

    def _bind(self, name: str, path: str, count) -> None:
        module_name, qualname = path.split(":")
        module = importlib.import_module(module_name)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._sites.append((owner, attr, original, self._wrap(name_id, original, count)))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name_id, original, count)
        # ``from x import f`` copied the function into the importer's
        # namespace; every copy has to be rebound for the call to be seen.
        for other_name, other in list(sys.modules.items()):
            if other is None or not other_name.startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._sites.append((other, key, original, wrapper))

    def wrap(self, name: str, fn):
        """Span around one of the benchmark's own callables (names start
        with ``bench.``), so its time is not booked to the program span
        it runs inside."""
        if name not in self.names:
            self.names.append(name)
        return self._wrap(self.names.index(name), fn, None)

    def _wrap(self, name_id: int, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot: spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(index)
            units = 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                end = perf_counter_ns()
                if count is not None:
                    try:
                        units = count(args, result)
                    except (AttributeError, IndexError, TypeError):
                        units = 0  # called in a shape the counter does not know
                return result
            except BaseException:
                end = perf_counter_ns()
                raise
            finally:
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id, units)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Rebind every site to its wrapper for the duration of the block."""
        for namespace, attr, _original, wrapper in self._sites:
            setattr(namespace, attr, wrapper)
        try:
            yield
        finally:
            for namespace, attr, original, _wrapper in self._sites:
                setattr(namespace, attr, original)

    # -- reading -------------------------------------------------------------

    def self_times(
        self, first: int, last: int, speed: Dict[int, float]
    ) -> Dict[str, Dict[str, float]]:
        """Per span name over ``spans[first:last]``: ``calls``, ``units`` and
        ``self_ns`` — duration minus direct children, at reference speed
        (multiplied by ``speed[op id]``)."""
        spans = self.spans[first:last]
        child_ns = [0] * len(spans)
        for _name_id, start, end, parent, _op, _units in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        out = {name: {"calls": 0, "self_ns": 0.0, "units": 0} for name in self.names}
        for offset, (name_id, start, end, _parent, op, units) in enumerate(spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_ns"] += (end - start - child_ns[offset]) * speed[op]
            entry["units"] += units
        return out

    def to_json(self, limit: Optional[int] = None) -> dict:
        """The trace file's content: ``names`` plus one row per span,
        ``[name index, start ns, end ns, parent row or -1, op id, units]``;
        a span's row number is its id.  ``limit`` keeps the first spans."""
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "units"],
            "names": self.names,
            "spans": [list(span) for span in self.spans[:limit]],
            "spans_recorded": len(self.spans),
        }
