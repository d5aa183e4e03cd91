"""Deterministic work counts of one measured pass of benchmark workloads.

    python3 benchmarks/work.py                       # dash_short, tpch_warm; quick
    python3 benchmarks/work.py --workload dash_short --full
    python3 benchmarks/work.py --tree ../parent      # another checkout's code
    python3 benchmarks/work.py --workload iot_ingest --full --pass 8

A clock moves by several per cent between identical runs and more between
sessions; a count does not.  Each workload is built as
``benchmarks/e2e/run.py`` builds it (its own ``build``, then one warm-up
pass), and its next pass runs under ``sys.setprofile``, whose hook sees every
Python call.  ``--pass N`` counts the N-th pass after the warm-up instead,
the N - 1 before it run uncounted: where a cost grows with what earlier
passes left behind (``iot_ingest``'s catalog), a late pass shows it.  Per op
class it counts:

* ``ops`` — ops run (``Workload.run_op`` calls);
* ``maxflow`` — session layouts solved (``FlowNetwork`` objects built);
* ``decode`` — blocks decoded (``decode_block`` calls);
* ``key_encoders`` — join build key columns factorized (``_KeyEncoder``
  objects built);
* ``footers`` — column-file footers parsed (``ColumnLayout.parse`` calls);
* ``tested`` — containers a scan tested against its predicate (the
  ``could_match`` calls ``prune_containers`` makes itself, one per
  container it is handed);
* ``puts``, ``gets``, ``lists``, ``deletes`` — shared-storage requests
  (``SimulatedS3`` ``write``; ``read`` and ``read_coalesced``; ``list``;
  ``delete`` calls, a retry counting again);
* ``depot_bytes`` — bytes the scans read from their depots (the
  ``bytes_from_cache`` of each ``ScanResult`` ``EonStorageProvider.scan``
  returns, read off the hook's ``return`` event);
* ``py_calls`` — Python function calls, the program's and the workload's own.

All but the last are the same on any machine; ``py_calls`` depends on the
CPython version as well.  Nothing is patched: the counts are read off the
code objects the hook sees, so the program runs its own call graph.  An op's
class is the ``cls`` of the innermost ``Workload.run_op`` (``q03``,
``dash_recent``, ...), ``closed_loop`` inside ``repro.wm.driver.
run_closed_loop``, and ``(pass)`` for the rest of the pass.

``--tree`` counts another checkout with that checkout's own workloads, e.g. a
``git clone`` of the parent commit, for a before/after table.
``tests/test_work_budget.py`` pins the quick-scale totals as ratchets.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[1]
#: The benchmark's default seed, the one its answers are pinned for.
SEED = 42
DEFAULT_WORKLOADS = ("dash_short", "tpch_warm")
S3 = "repro.shared_storage.s3"
#: count -> (module, qualified name) of each function whose calls it counts.
WATCHED = {
    "maxflow": [("repro.sharding.maxflow", "FlowNetwork.__init__")],
    "decode": [("repro.storage.encoding", "decode_block")],
    "key_encoders": [("repro.engine.operators", "_KeyEncoder.__init__")],
    "footers": [("repro.storage.column", "ColumnLayout.parse")],
    "puts": [(S3, "SimulatedS3.write")],
    "gets": [(S3, "SimulatedS3.read"), (S3, "SimulatedS3.read_coalesced")],
    "lists": [(S3, "SimulatedS3.list")],
    "deletes": [(S3, "SimulatedS3.delete")],
}
#: Whose ``could_match`` calls are ``tested``.
TESTER = ("repro.engine.pruning", "prune_containers")
#: Whose returned ``ScanResult`` is summed into ``depot_bytes``.
SCAN = ("repro.cluster.session", "EonStorageProvider.scan")
COUNTS = ("ops", *WATCHED, "tested", "depot_bytes", "py_calls")


def _pin_hash_seed() -> None:
    """A fixed string-hash seed, as ``run.py`` pins it: set and dict
    iteration order, and so the calls made, cannot differ between runs."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _code(module: str, qualname: str):
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target.__code__


def _could_match_codes() -> set:
    """The code of every ``Expr`` class's own ``could_match``."""
    from repro.engine.expressions import Expr

    codes, classes = set(), [Expr]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if "could_match" in vars(cls):
            codes.add(vars(cls)["could_match"].__code__)
    return codes


def count_pass(tree: Path, name: str, quick: bool, number: int = 1) -> dict:
    """Build ``name`` from ``tree`` at seed :data:`SEED`, warm it up, run
    ``number - 1`` passes uncounted and count the next one: ``{"counts": {op
    class: {count: value}}, "store": {census of the shared store after
    it}}``."""
    sys.path[:0] = [str(tree / "benchmarks" / "e2e"), str(tree / "src")]
    from harness import Pass, SpeedMeter
    from workloads import WORKLOADS, Workload

    from repro.wm import driver

    workload = WORKLOADS[name](SEED, quick)
    workload.build()
    for index in range(number):
        workload.run_pass(Pass(), index)
    gc.collect()

    watched = {
        _code(module, qualname): key
        for key, targets in WATCHED.items() for module, qualname in targets
    }
    tester, scan = _code(*TESTER), _code(*SCAN)
    watched.update(dict.fromkeys(_could_match_codes(), "tested"))
    run_op, closed_loop = Workload.run_op.__code__, driver.run_closed_loop.__code__
    # The speed meter samples when the clock says: a sample and what it
    # calls are not counted (``None`` on the stack).
    sample = SpeedMeter.sample.__code__
    counts: Dict[str, Dict[str, int]] = {}
    classes = ["(pass)"]

    def hook(frame, event, arg) -> None:
        code = frame.f_code
        if event == "call":
            if classes[-1] is None:
                return
            if code is sample:
                classes.append(None)
                return
            if code is run_op:
                classes.append(frame.f_locals["cls"])
            elif code is closed_loop:
                classes.append("closed_loop")
            row = counts.get(classes[-1])
            if row is None:
                row = counts[classes[-1]] = dict.fromkeys(COUNTS, 0)
            row["py_calls"] += 1
            if code is run_op:
                row["ops"] += 1
            key = watched.get(code)
            if key is not None and (key != "tested" or frame.f_back.f_code is tester):
                row[key] += 1
        elif event == "return":
            if code is run_op or code is closed_loop or code is sample:
                classes.pop()
            elif code is scan and arg is not None and classes[-1] is not None:
                counts[classes[-1]]["depot_bytes"] += arg.bytes_from_cache

    measured = Pass()
    sys.setprofile(hook)
    try:
        workload.run_pass(measured, number)
    finally:
        sys.setprofile(None)
    if measured.failed:
        sys.exit(f"{name}: {measured.failed} of {measured.requests} requests failed")
    shared = workload.cluster.shared
    meta = shared.peek("meta_")
    store = {
        "objects": shared.object_count,
        "meta_objects": len(meta),
        "meta_bytes": sum(shared.size(object_name) for object_name in meta),
    }
    return {"counts": counts, "store": store}


def totals(counts: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    return {key: sum(row[key] for row in counts.values()) for key in COUNTS}


def print_table(title: str, counted: dict) -> None:
    counts = counted["counts"]
    print(f"\n{title}")
    print(f"{'op class':16s}" + "".join(f"{key:>14s}" for key in COUNTS))
    for cls in sorted(counts):
        print(f"{cls:16s}" + "".join(f"{counts[cls][key]:14d}" for key in COUNTS))
    total = totals(counts)
    print(f"{'total':16s}" + "".join(f"{total[key]:14d}" for key in COUNTS))
    print("shared store after the pass: " + ", ".join(
        f"{key} {value}" for key, value in counted["store"].items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=("tpch_warm", "tpch_cold", "dash_short", "iot_ingest"),
                        help=f"repeatable; default: {', '.join(DEFAULT_WORKLOADS)}")
    parser.add_argument("--full", action="store_true",
                        help="the benchmark's full inputs (default: its quick ones)")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and workloads are counted")
    parser.add_argument("--pass", dest="number", type=int, default=1, metavar="N",
                        help="count the N-th pass after the warm-up (default 1)")
    parser.add_argument("--json", action="store_true",
                        help='end with one JSON line: {workload: {"counts": {op class: '
                        'counts}, "store": {census}}}')
    args = parser.parse_args()
    names = args.workload or list(DEFAULT_WORKLOADS)
    if len(names) > 1:
        # One interpreter per workload: a memo one workload fills (session
        # layouts are kept per process) must not serve the next.
        results = {}
        for name in names:
            command = [sys.executable, __file__, "--workload", name, "--tree", str(args.tree),
                       "--pass", str(args.number), "--json"] + ["--full"] * args.full
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"{name} failed:\n{done.stderr}")
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])[name]
    else:
        results = {names[0]: count_pass(args.tree.resolve(), names[0], not args.full, args.number)}
    scale = "full" if args.full else "quick"
    for name, counts in results.items():
        print_table(f"{name}, seed {SEED}, {scale} scale: pass {args.number} after a warm-up "
                    f"({args.tree.resolve()})", counts)
    if args.json:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
