"""Which designer searches pick a different design in another checkout.

    python3 benchmarks/design_picks.py --tree ../parent    # this tree against ../parent
    python3 benchmarks/design_picks.py                      # this tree's searches alone

Records the assignment of every ``DatabaseDesigner._search`` call (per
table: the chosen layout's columns, sort order and segmentation) in three
runs of each tree's own code and files:

* ``tests`` — the designer tests (``tests/test_designer*.py``) under
  ``--hypothesis-seed=0``, with no example database;
* ``campaigns`` — ``benchmarks/campaigns.py`` (every generator profile at
  seeds 0-29);
* ``e9`` — ``benchmarks/bench_designer.py`` (EXPERIMENTS.md E9).

``_search`` is wrapped from outside; nothing in ``src/`` changes.  A search
is named by its run, where it ran (the pytest test id, or the campaign's
profile and seed) and its order there.  The report lists every search whose
assignment differs between the trees, and the searches only one tree made;
a change that moves a search names it in its CHANGES.md entry.  Each tree
runs in its own interpreters, one per run (``make design-picks
TREE=<checkout>``; a few minutes; not part of the tier-1 suite).
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ("tests", "campaigns", "e9")


def record(tree: Path, run: str, out: Path) -> None:
    """Run ``run`` on ``tree``'s code, appending one JSON line per search."""
    sys.path[:0] = [str(tree / "src"), str(tree)]
    os.chdir(tree)
    from repro.engine.designer import DatabaseDesigner

    search, seen = DatabaseDesigner._search, {}
    where = {"campaign": ""}

    def wrapped(designer, shapes, candidates):
        result = search(designer, shapes, candidates)
        context = where["campaign"] or os.environ.get(
            "PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
        seen[context] = seen.get(context, 0) + 1
        assignment = {
            table: [list(c.layout.columns), list(c.layout.sort_order),
                    list(c.layout.segmentation_columns)]
            for table, c in sorted(result.assignment.items())
        }
        with out.open("a") as sink:
            sink.write(json.dumps([run, context, seen[context], assignment]) + "\n")
        return result

    DatabaseDesigner._search = wrapped
    if run == "campaigns":
        import repro.sim as sim

        campaign = sim.run_campaign

        def labelled(seed, generator, **kwargs):
            profile = next(name for name, rows in sim.PROFILES.items()
                           if rows is generator.additions)
            where["campaign"] = f"{profile} {seed}"
            return campaign(seed, generator=generator, **kwargs)

        sim.run_campaign = labelled
        try:
            runpy.run_path(str(tree / "benchmarks" / "campaigns.py"), run_name="__main__")
        except SystemExit:
            pass
        return
    import pytest
    from hypothesis import settings

    settings.register_profile("design_picks", database=None)
    settings.load_profile("design_picks")
    paths = (sorted(str(p) for p in (tree / "tests").glob("test_designer*.py"))
             if run == "tests" else [str(tree / "benchmarks" / "bench_designer.py")])
    pytest.main(paths + ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"])


def searches(tree: Path, workdir: Path) -> dict:
    """``{(run, context, n): assignment}`` of every search ``tree`` makes."""
    picks = {}
    workdir.mkdir()
    for run in RUNS:
        out = workdir / f"{run}.jsonl"
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--record", run,
             "--tree", str(tree), "--out", str(out)],
            check=True, stdout=subprocess.DEVNULL,
        )
        for line in out.read_text().splitlines() if out.exists() else ():
            name, context, n, assignment = json.loads(line)
            picks[name, context, n] = assignment
    return picks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path,
                        help="the checkout to compare against (a parent clone)")
    parser.add_argument("--record", choices=RUNS, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        record(args.tree.resolve(), args.record, args.out)
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        here = searches(ROOT, Path(workdir) / "here")
        if args.tree is None:
            for run in RUNS:
                print(f"{run}: {sum(key[0] == run for key in here)} searches")
            return 0
        there = searches(args.tree.resolve(), Path(workdir) / "there")
    for run in RUNS:
        print(f"{run}: {sum(key[0] == run for key in here)} searches here, "
              f"{sum(key[0] == run for key in there)} in {args.tree}")
    moved = 0
    for key in sorted(set(here) | set(there)):
        if here.get(key) == there.get(key):
            continue
        moved += 1
        print(f"\n{key[0]} | {key[1]} | search {key[2]}")
        before, after = there.get(key, {}), here.get(key, {})
        for table in sorted(set(before) | set(after)):
            if before.get(table) != after.get(table):
                print(f"  {table}: {before.get(table)} -> {after.get(table)}")
    print(f"\n{moved} of {len(set(here) | set(there))} searches differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
