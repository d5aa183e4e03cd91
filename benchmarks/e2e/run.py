"""Two-clock end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                       # all workloads, table
    python3 benchmarks/e2e/run.py --workload tpch_warm --seed 7 --trace 0

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` declares.  Exit code is non-zero on a wrong answer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns, process_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 42
#: The trace file keeps at most this many spans (aggregates use them all).
TRACE_FILE_SPANS = 400_000


def _pin_hash_seed() -> None:
    """One fresh interpreter per workload with a fixed string-hash seed, so
    set and dict iteration order cannot differ between two runs."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """The program is ``src/repro`` of the checkout this file sits in."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark needs the program under {src}; not found")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _run_pass(workload, p, index: int) -> None:
    cpu_start = process_time_ns()
    workload.run_pass(p, index)
    p.cpu_ns = process_time_ns() - cpu_start


def measure(name: str, seed: int, trace: bool, quick: bool) -> dict:
    """Set up, warm up and measure one workload in this process."""
    from harness import Pass, end_to_end_metrics
    from layer_trace import LayerTracer
    from layers import counters, per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    meter = workload.meter
    # Set-up runs once: building again beside the first cluster would put
    # the benchmark's own garbage into ``peak_rss_mb``.
    meter.sample()
    build_start, sampling_ns = perf_counter_ns(), meter.spent_ns
    workload.build()
    build_end = perf_counter_ns()
    build_ns = build_end - build_start - (meter.spent_ns - sampling_ns)
    meter.sample()
    warm_up = Pass()
    _run_pass(workload, warm_up, 0)
    meter.sample()
    meter.rate([warm_up])
    setup_s = (
        build_ns / 1e9 * meter.speed(build_start, build_end) + warm_up.real_seconds
    )
    failed_in_warm_up = warm_up.failed

    # Everything built so far is long-lived: keep it out of the collector's
    # way, but leave the collector on, as it is for a user.
    gc.collect()
    gc.freeze()

    # The traced run does the same passes as the untraced one, so digests
    # and counts agree between the two; passes 2, 5, 8, ... are traced, the
    # others give the plain time that the tracing overhead is taken against.
    # (``--quick`` has one pass and no plain time beside it.)
    count = 1 if quick else workload.passes
    plan = [trace and (quick or index % 3 == 1) for index in range(count)]
    if trace:
        tracer = LayerTracer()
        workload.tracer = tracer
    else:
        tracer = None
    before = counters(workload.cluster)
    gen2_before = gc.get_stats()[2]["collections"]
    passes = []
    for index, traced in enumerate(plan, start=1):
        p = Pass(traced=traced)
        if traced:
            p.first_span = len(tracer.spans)
            with tracer.installed():
                _run_pass(workload, p, index)
            p.last_span = len(tracer.spans)
        else:
            _run_pass(workload, p, index)
        passes.append(p)
    meter.sample()
    meter.rate(passes)
    after = counters(workload.cluster)
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stored_bytes = workload.cluster.shared.total_bytes
    user_bytes = workload.loaded_user_bytes()
    extra = workload.finish()

    problems = list(workload.check_failures)
    summary = workload.digest_summary()
    key = f"{'quick' if quick else 'full'}/{name}"
    if seed == DEFAULT_SEED:
        # Other seeds have no pinned answers: for them every pass must
        # reproduce the first one's digests, which ``run_query`` checked.
        expected = json.loads((HERE / "expected_digests.json").read_text()).get(key, {})
        for cls in sorted(set(summary) | set(expected)):
            if expected.get(cls) != summary.get(cls):
                problems.append(
                    f"{cls}: digest {summary.get(cls)} is not expected_digests.json"
                    f"[{key}] = {expected.get(cls)}"
                )
    attempted = sum(p.requests for p in passes) + len(problems)
    failed = sum(p.failed for p in passes) + len(problems)

    if trace:
        values = per_layer_metrics(
            passes, tracer, meter, before, after, gen2, workload.cluster, extra
        )
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace_{name}.json").write_text(
            json.dumps(tracer.to_json(TRACE_FILE_SPANS))
        )
    else:
        values = end_to_end_metrics(
            passes, setup_s, workload.sim_ops_per_min(passes),
            stored_bytes, user_bytes, peak_rss_mb,
        )
    return {
        "correct": failed == 0 and failed_in_warm_up == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "digests": summary,
        "digest_key": key,
        "problems": problems,
        "samples": {
            "passes": len(passes),
            "ops": sum(len(p.ops) for p in passes),
            "kernel_samples": len(meter.kernel_ns),
        },
    }


def _with_units(values: dict, declared: list) -> dict:
    """Attach the declared unit to each value; the emitted names must be
    exactly the declared ones."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        surplus = sorted(set(values) - set(names))
        sys.exit(f"metrics differ from BENCHMARK.json: missing {missing}, surplus {surplus}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_single(args, spec: dict) -> int:
    _import_program()
    result = measure(args.workload, args.seed, bool(args.trace), args.quick)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = _with_units(result["values"], declared)
    for problem in result["problems"]:
        print(f"WRONG: {problem}", file=sys.stderr)
    if args.verbose:
        print(json.dumps({k: result[k] for k in ("digest_key", "digests", "samples")}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def run_child(workload: str, seed: int, trace: int, quick: bool) -> dict:
    """Run one workload in a fresh interpreter; returns its result object."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    if not done.stdout.strip():
        sys.exit(f"{workload} (trace {trace}) printed no result:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["stderr"] = done.stderr
    return result


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, as a table a person reads."""
    names = [w["name"] for w in spec["workloads"]]
    correct = True
    for trace, title in ((0, "end to end (tracing off)"), (1, "per layer (traced run)")):
        results = {
            name: run_child(name, args.seed, trace, args.quick)
            for name in names
        }
        print(f"\n== {title}; seed {args.seed}; real-clock numbers at reference speed ==")
        print(f"{'metric':44s} {'unit':7s}" + "".join(f"{n:>14s}" for n in names))
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in declared:
            cells = "".join(
                f"{results[n]['metrics'][metric['name']]['value']:14.5g}" for n in names
            )
            print(f"{metric['name']:44s} {metric['unit']:7s}{cells}")
        print(f"{'ops attempted / failed':52s}" + "".join(
            f"{results[n]['attempted']:>9d}/{results[n]['failed']:<4d}" for n in names
        ))
        if trace:
            _print_shares(results, names)
        for name in names:
            if not results[name]["correct"]:
                correct = False
                print(f"WRONG ANSWER on {name}:\n{results[name]['stderr']}")
    return 0 if correct else 1


def _print_shares(results: dict, names: list) -> None:
    """Self-time share of each span name in the traced ops' time."""
    print("\nself-time share of traced op time, %")
    rows = {}
    for name in names:
        metrics = results[name]["metrics"]
        total = metrics["process.traced_ms_per_op"]["value"]
        for key, metric in metrics.items():
            if key.endswith("_self_ms_per_op"):
                rows.setdefault(key[: -len("_self_ms_per_op")], {})[name] = (
                    100.0 * metric["value"] / total
                )
    for span, cells in sorted(rows.items()):
        print(f"{span:52s}" + "".join(f"{cells.get(n, 0.0):14.1f}" for n in names))


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="the driver passes BENCHMARK.json's run_seconds; the work is a fixed "
        "number of passes sized for it, so no other value is accepted",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one pass (the smoke test)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print digests and sample counts")
    args = parser.parse_args()
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds is fixed at {spec['run_seconds']} (pass counts are constants)")
    if args.workload is None:
        return run_all(args, spec)
    return run_single(args, spec)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
