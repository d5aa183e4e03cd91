"""Work budgets: deterministic counts of one benchmark pass, as ratchets.

``benchmarks/work.py`` builds ``dash_short`` and ``tpch_warm`` at their quick
scale, runs a warm-up pass, and counts the next pass (its docstring says
how): max-flow solves, ``decode_block`` calls, ``_KeyEncoder`` builds and
Python function calls.  Each count must stay at or under its pin.  A change
may lower a pin freely; raising one is a regression that has to say why.

``iot_ingest`` is counted at its eighth pass after the warm-up (``--pass
8``): its catalog grows pass by pass, so a cost that grows with the catalog
shows there.  Its pins are Python calls per op of each class.

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
#: 56 / 1 372 / 336 / 148 425, tpch_warm 20 / 2 653 / 89 / 113 537.
PINS = {
    "dash_short": {"maxflow": 2, "decode": 1_120, "key_encoders": 210, "py_calls": 127_391},
    "tpch_warm": {"maxflow": 3, "decode": 2_413, "key_encoders": 59, "py_calls": 95_256},
}

#: ``iot_ingest``, quick scale, pass 8: Python calls per op.  Before container
#: groups were carried across commits and log listings searched by name it
#: read copy 1 608, recent_query 6 298, service_tick 57 942.
IOT_PASS = 8
IOT_CALLS_PER_OP = {"copy": 1_516, "recent_query": 5_303, "service_tick": 29_073}

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
    return count()


@skip_elsewhere
@pytest.mark.parametrize("workload", sorted(PINS))
def test_a_pass_stays_within_its_budget(counted, workload):
    rows = counted[workload]
    total = {key: sum(row[key] for row in rows.values()) for key in PINS[workload]}
    over = {key: (total[key], pin) for key, pin in PINS[workload].items() if total[key] > pin}
    assert not over, f"{workload}: (count, pin) over budget: {over}"


@skip_elsewhere
def test_a_late_ingest_pass_stays_within_its_budget():
    rows = count("--workload", "iot_ingest", "--pass", str(IOT_PASS))["iot_ingest"]
    per_op = {cls: rows[cls]["py_calls"] / rows[cls]["ops"] for cls in IOT_CALLS_PER_OP}
    over = {cls: (round(per_op[cls]), pin)
            for cls, pin in IOT_CALLS_PER_OP.items() if per_op[cls] > pin}
    assert not over, f"iot_ingest pass {IOT_PASS}: (calls per op, pin) over budget: {over}"
