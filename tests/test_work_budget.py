"""Work budgets: deterministic counts of one benchmark pass, as ratchets.

``benchmarks/work.py`` builds ``dash_short`` and ``tpch_warm`` at their quick
scale, runs a warm-up pass, and counts the next pass (its docstring says
how): max-flow solves, ``decode_block`` calls, ``_KeyEncoder`` builds,
footers parsed, containers tested against a predicate, bytes read from the
depots and Python function calls.  Each count must stay at or under its pin.  A change
may lower a pin freely; raising one is a regression that has to say why.

``iot_ingest`` is counted at its eighth pass after the warm-up (``--pass
8``): its catalog grows pass by pass, so a cost that grows with the catalog
shows there.  Its pins are Python calls per op of each class, and for
``recent_query`` footers parsed and containers tested per op: a recent-window
read tests what its window holds whatever the catalog holds, so its count is
the same at pass 1 as at pass 8, and it parses no footer (the writer handed
every depot the layouts).  A ``service_tick`` uploads one log segment per
node, and a checkpoint only when a node wrote one, so its PUTs per op are
the same at pass 1 as at pass 8 however many commits and catalog objects
came before; and the metadata objects on the shared store (``meta_``) do
not grow from pass 1 to pass 8, because each sync prunes what the
truncation version no longer needs.

The counts are exact on any machine, so unlike a clock they hold across
sessions; Python calls also depend on the interpreter, so the test runs only
on the CPython minor version the pins were written on.  It runs the script
in its own interpreter: the session-layout memo is per process, and what
other tests solved would otherwise serve this pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED_ON = (3, 11)

#: At the commit before replicated work was done once per query the same pass
#: read (maxflow / decode / key_encoders / py_calls): dash_short
#: 56 / 1 372 / 336 / 148 425, tpch_warm 20 / 2 653 / 89 / 113 537.  Before
#: result rows were built column by column, py_calls read 127 391 and 95 256;
#: before a request record summed its own operators, dash_short 117 584.
#: ``depot_bytes`` (bytes the scans read from their depots): before a depot
#: hit was charged the blocks the scan decodes rather than the whole
#: container file, dash_short 4 683 392 and tpch_warm 35 772 278.
PINS = {
    "dash_short": {
        "maxflow": 2, "decode": 1_120, "key_encoders": 210, "depot_bytes": 4_300_394,
        "py_calls": 116_072,
    },
    "tpch_warm": {
        "maxflow": 3, "decode": 2_413, "key_encoders": 59, "depot_bytes": 11_278_385,
        "py_calls": 90_746,
    },
}

#: ``iot_ingest``, quick scale, pass 8: Python calls per op.  Before container
#: groups were carried across commits and log listings searched by name it
#: read copy 1 608, recent_query 6 298, service_tick 57 942; before the
#: sort-key index and the writers' layouts, copy 1 516, recent_query 5 303,
#: service_tick 29 073; before the log went up as segments, service_tick
#: 25 340; before the services ran through one skeleton, 21 141; before a
#: tick stopped visiting an autoscale slot, 21 135.
IOT_PASS = 8
IOT_CALLS_PER_OP = {"copy": 1_493, "recent_query": 3_912, "service_tick": 21_131}
#: ``recent_query`` per op: containers tested and footers parsed.  Before the
#: sort-key index and the writers' layouts pass 8 read 492 and 30.
RECENT_TESTED_PER_OP = 40
RECENT_FOOTERS_PER_OP = 0
#: ``service_tick`` shared-storage PUTs per op, and ``meta_`` objects on the
#: store after the pass.  Before the log went up as one segment per sync
#: (one object per commit, a checkpoint encoded per node per tick) pass 8
#: read 245 PUTs per tick and 2 940 objects (432 after pass 1).
TICK_PUTS_PER_OP = 25
META_OBJECTS = 16

skip_elsewhere = pytest.mark.skipif(
    sys.version_info[:2] != PINNED_ON,
    reason=f"pins written on CPython {PINNED_ON[0]}.{PINNED_ON[1]}",
)


def count(*options: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "work.py"), *options, "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def counted() -> dict:
    return {name: result["counts"] for name, result in count().items()}


@skip_elsewhere
@pytest.mark.parametrize("workload", sorted(PINS))
def test_a_pass_stays_within_its_budget(counted, workload):
    rows = counted[workload]
    total = {key: sum(row[key] for row in rows.values()) for key in PINS[workload]}
    over = {key: (total[key], pin) for key, pin in PINS[workload].items() if total[key] > pin}
    assert not over, f"{workload}: (count, pin) over budget: {over}"


def ingest_pass(number: int) -> dict:
    return count("--workload", "iot_ingest", "--pass", str(number))["iot_ingest"]


@pytest.fixture(scope="module")
def first_ingest() -> dict:
    return ingest_pass(1)


@pytest.fixture(scope="module")
def late_ingest() -> dict:
    return ingest_pass(IOT_PASS)


@pytest.fixture(scope="module")
def late_ingest_pass(late_ingest) -> dict:
    return late_ingest["counts"]


@skip_elsewhere
def test_a_late_ingest_pass_stays_within_its_budget(late_ingest_pass):
    rows = late_ingest_pass
    per_op = {cls: rows[cls]["py_calls"] / rows[cls]["ops"] for cls in IOT_CALLS_PER_OP}
    over = {cls: (round(per_op[cls]), pin)
            for cls, pin in IOT_CALLS_PER_OP.items() if per_op[cls] > pin}
    assert not over, f"iot_ingest pass {IOT_PASS}: (calls per op, pin) over budget: {over}"


def recent_query_per_op(rows: dict) -> dict:
    row = rows["recent_query"]
    return {key: row[key] / row["ops"] for key in ("tested", "footers")}


def test_a_recent_window_read_costs_what_its_window_holds(first_ingest, late_ingest_pass):
    """Exact on any interpreter: containers tested and footers parsed."""
    late = recent_query_per_op(late_ingest_pass)
    assert late["tested"] <= RECENT_TESTED_PER_OP
    assert late["footers"] <= RECENT_FOOTERS_PER_OP
    first = recent_query_per_op(first_ingest["counts"])
    assert first == late


def tick_puts_per_op(counts: dict) -> float:
    return counts["service_tick"]["puts"] / counts["service_tick"]["ops"]


def test_a_tick_uploads_what_it_did_not_before(first_ingest, late_ingest):
    """Exact on any interpreter: a tick's uploads grow neither with the
    catalog nor with the commits since the last sync, and the uploaded
    metadata does not pile up."""
    late = tick_puts_per_op(late_ingest["counts"])
    assert late <= TICK_PUTS_PER_OP
    assert tick_puts_per_op(first_ingest["counts"]) == late
    meta = late_ingest["store"]["meta_objects"]
    assert meta <= META_OBJECTS
    assert first_ingest["store"]["meta_objects"] >= meta
