"""The reach census: every ``src/repro`` function that no program enters.

    python3 benchmarks/reach.py        # or: make reach (about 8 minutes)

Runs each program in ``PROGRAMS`` in its own interpreter under a profile
hook, then writes ``REACH.json``: one entry per never-entered function
(``file``, ``qualname``, ``lines``, ``reason``).  A function nested in a
never-entered one counts with it and has no entry of its own.

The hook is a ``sitecustomize.py`` in a temporary directory put first on
``PYTHONPATH``, so every interpreter the programs start (``run.py``'s
re-exec, its per-workload subprocesses) loads it too.  It hands
``sys.setprofile`` and ``threading.setprofile`` a function that records the
code object of every event's frame, and at exit writes the
``co_filename:co_firstlineno:co_name`` of each code under ``src/repro``.
A function is entered when some process entered the code that starts at
its first line (its first decorator's, if any) under its name.

The reason of each entry is kept from the committed ``REACH.json`` by
``(file, qualname)``; a function that was not listed before gets
``"none"``.  A ``none`` is paid by deleting the function or by giving it one
of ``REASONS`` (a ``paper_api`` entry also names its ``section``).  Exit 1
while any entry has no reason, when a program fails, or when the hook
missed ``BENCH_BODY_CANARY``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUT = ROOT / "REACH.json"

#: Why a function no program enters stays in ``src/``.
REASONS = {
    "shell": "the interactive SQL shell (repro.shell), driven by a person",
    "observability": "v_monitor tables, the doctor, the Data Collector, traces and metrics views",
    "paper_api": "a mechanism of the paper reached only through the Python API (names its section)",
    "failure_path": "a failure, cancel or diagnosis path no program's run takes",
    "interface": "an abstract method or an operator dunder",
    "reference": "the SQLite oracle and the shrinker that tests compare against",
    "unexercised_input": "a column type, NULL case or SQL form the code accepts that no workload sends",
}

E2E = [
    [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--quick",
     "--seed", "42", "--trace", trace]
    for workload in ("tpch_warm", "tpch_cold", "dash_short", "iot_ingest")
    for trace in ("0", "1")
]

#: Every program the census runs, from the repository root.  The legacy
#: benches run with ``--benchmark-disable``: pytest-benchmark's timed body
#: otherwise runs inside ``PauseInstrumentation``, which sets
#: ``sys.setprofile(None)`` for its length, and the hook sees nothing there.
PROGRAMS = E2E + [
    [sys.executable, "benchmarks/campaigns.py"],
    [sys.executable, "-m", "repro.sim", "--seeds", "3"],
    *([sys.executable, str(path.relative_to(ROOT))]
      for path in sorted((ROOT / "examples").glob("*.py"))),
    [sys.executable, "-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e",
     "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
]

#: A function that only a legacy bench's timed body enters.  Missing from
#: the entered set, the hook was blind inside the timed bodies.
BENCH_BODY_CANARY = ("sharding/assignment.py", "naive_first_subscriber_assignment")

HOOK = """\
import atexit, os, sys, threading

_codes = set()


def _record(frame, event, arg):
    _codes.add(frame.f_code)


def _write():
    sys.setprofile(None)
    src = {src!r}
    lines = sorted({{
        f"{{os.path.relpath(code.co_filename, src)}}:{{code.co_firstlineno}}:{{code.co_name}}"
        for code in list(_codes) if os.path.realpath(code.co_filename).startswith(src + os.sep)
    }})
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "w") as out:
        out.write("\\n".join(lines))


atexit.register(_write)
sys.setprofile(_record)
threading.setprofile(_record)
"""


def entered_codes() -> set:
    """``(file, first line, name)`` of every code some program entered."""
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "out")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK.format(src=str(SRC.resolve()), out=str(out)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(ROOT / "src")]))
        for argv in PROGRAMS:
            print(" ".join(argv[1:]), file=sys.stderr, flush=True)
            written = len(list(out.iterdir()))
            done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            if done.returncode != 0 or len(list(out.iterdir())) == written:
                sys.exit(f"reach: {' '.join(argv[1:])} exited {done.returncode}"
                         f" after {len(list(out.iterdir())) - written} hook reports")
        entered = set()
        for path in out.iterdir():
            for line in path.read_text().splitlines():
                file, first, name = line.split(":")
                entered.add((file, int(first), name))
    return entered


def functions():
    """``(file, qualname, first line, lines, name, parent)`` of every
    function and method under ``src/repro``; ``parent`` is the qualname of
    the function it is nested in, or None."""
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))

        def walk(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield where, qualname, first, child.end_lineno - first + 1, child.name, parent
                    yield from walk(child, qualname + ".<locals>.", qualname)
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".", parent)
                else:
                    yield from walk(child, prefix, parent)

        yield from walk(ast.parse(path.read_text()), "", None)


def census(entered: set) -> list:
    """One entry per never-entered function whose enclosing functions were
    all entered, with its reason from the committed file."""
    reasons = {}
    if OUT.exists():
        reasons = {(e["file"], e["qualname"]): e for e in json.loads(OUT.read_text(encoding="utf-8"))}
    missed = set()
    entries = []
    for where, qualname, first, lines, name, parent in functions():
        if (where, first, name) in entered:
            continue
        missed.add((where, qualname))
        if (where, parent) in missed:
            continue
        entry = {"file": where, "qualname": qualname, "lines": lines, "reason": "none"}
        kept = reasons.get((where, qualname), {})
        entry.update({key: kept[key] for key in ("reason", "section") if key in kept})
        entries.append(entry)
    if BENCH_BODY_CANARY in missed:
        sys.exit(f"reach: the hook never saw {'::'.join(BENCH_BODY_CANARY)}, which a"
                 " legacy bench's timed body enters: was the profiler paused?")
    return entries


def main() -> int:
    entries = census(entered_codes())
    OUT.write_text("[\n" + ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries) + "\n]\n",
                   encoding="utf-8")
    lines, count = Counter(), Counter()
    for entry in entries:
        lines[entry["reason"]] += entry["lines"]
        count[entry["reason"]] += 1
    for reason in sorted(count, key=lambda r: -lines[r]):
        print(f"{lines[reason]:6d} lines {count[reason]:4d} functions  {reason}")
    print(f"{sum(lines.values()):6d} lines {len(entries):4d} functions  never entered")
    unknown = sorted({e["reason"] for e in entries} - set(REASONS))
    if unknown:
        print(f"reasons outside REASONS: {unknown}", file=sys.stderr)
    return 1 if unknown else 0


if __name__ == "__main__":
    sys.exit(main())
