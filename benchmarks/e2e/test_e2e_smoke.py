"""Smoke test of the benchmark itself, on tiny inputs (``run.py --quick``).

Run with ``python -m pytest benchmarks/e2e -q``; it is not part of the
tier-1 suite (``testpaths = tests``).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from run import load_spec, run_child
from selfcheck import EXACT

HERE = Path(__file__).resolve().parent
SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


#: Per workload: seed 42 twice, seed 43 once, seed 42 traced.
RUNS = {"first": (42, 0), "again": (42, 0), "other_seed": (43, 0), "traced": (42, 1)}


@pytest.fixture(scope="module")
def quick_runs():
    """Every quick run of the module, started together: the children are
    separate interpreters and the threads here only wait for them."""
    jobs = [(name, label) for name in WORKLOADS for label in RUNS]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = pool.map(lambda job: run_child(job[0], *RUNS[job[1]], True), jobs)
        return dict(zip(jobs, results))


@pytest.fixture(params=WORKLOADS)
def quick(request, quick_runs):
    name = request.param
    return {"name": name, **{label: quick_runs[name, label] for label in RUNS}}


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_every_declared_metric_is_emitted_with_its_unit(quick):
    for result, declared in (
        (quick["first"], SPEC["end_to_end"]),
        (quick["traced"], SPEC["per_layer"]),
    ):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert math.isfinite(emitted["value"]), metric["name"]
    # End-to-end metrics carry a relative bound, so none may be zero.
    assert all(v > 0 for v in _values(quick["first"]).values())


def test_sim_and_count_metrics_repeat_for_a_seed_and_move_with_it(quick):
    first, again, other = (_values(quick[k]) for k in ("first", "again", "other_seed"))
    for name in EXACT:
        assert first[name] == again[name], name
    assert any(first[name] != other[name] for name in EXACT)


def test_spans_form_a_tree_and_self_times_add_up(quick):
    trace = json.loads((HERE / "out" / f"trace_{quick['name']}.json").read_text())
    spans = trace["spans"]
    assert spans and trace["spans_recorded"] == len(spans)
    child_ns = [0] * len(spans)
    root_ns = 0
    for row, (name, start, end, parent, op, _units) in enumerate(spans):
        assert 0 <= name < len(trace["names"]) and start <= end and op >= 0
        assert -1 <= parent < row, "a parent starts before its child"
        if parent == -1:
            root_ns += end - start
        else:
            _n, parent_start, parent_end, _p, parent_op, _u = spans[parent]
            assert parent_start <= start and end <= parent_end and parent_op == op
            child_ns[parent] += end - start
    self_ns = sum(end - start - child_ns[row]
                  for row, (_n, start, end, _p, _o, _u) in enumerate(spans))
    assert self_ns == root_ns

    layers = _values(quick["traced"])
    spanned = sum(v for k, v in layers.items() if k.endswith("_self_ms_per_op"))
    covered = layers["process.traced_ms_per_op"] * (1 - layers["process.unattributed_share"])
    assert spanned == pytest.approx(covered, rel=1e-6)
    assert layers["process.unattributed_share"] < 0.10
