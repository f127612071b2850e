"""One benchmark run of one workload, in a fresh process started by run.py.

Times ``import garma``, builds the seeded inputs and warms up (together
`setup_s`, counted from the moment run.py spawned this process), then runs
whole cycles of the workload's operations in a closed loop with one client
until ``--seconds`` have passed.  With ``--trace 1`` it alternates untraced
cycles with cycles in which every public function is wrapped (spans.py), so
that tracing overhead is a paired difference, and reports per-layer metrics
per cycle.  Outputs of
the first cycle are checked afterwards, outside every timed region.  The
last stdout line is a JSON summary for run.py.
"""

import argparse
import json
import os
import sys
import time
import traceback
import warnings
from time import perf_counter


def environment(np):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_cycles(ops, seconds=None, cycles=None, tracer=None):
    """Closed loop over whole cycles, until ``seconds`` have passed or
    ``cycles`` are done.  Returns per-op latencies, first-cycle results,
    per-op exception counts, cycles run and wall time."""
    latencies = [[] for _ in ops]
    first = [None] * len(ops)
    raised = [0] * len(ops)
    done = 0
    start = perf_counter()
    while (done < cycles) if cycles is not None else (done == 0 or perf_counter() - start < seconds):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # counted as a failed operation
                result = exc
                raised[i] += 1
                if raised[i] == 1:
                    traceback.print_exc(file=sys.stderr)
            latencies[i].append(perf_counter() - t0)
            if done == 0:
                first[i] = result
        done += 1
    return latencies, first, raised, done, perf_counter() - start


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = perf_counter()
    import garma

    import_s = perf_counter() - t0
    import numpy as np

    from workloads import WORKLOADS

    warnings.filterwarnings("ignore", category=garma.GarmaWarning)
    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](garma, np.random.default_rng(args.seed), args.work_dir, nproc)
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(out))
        return

    ops = workload.ops
    out.update(ops_per_cycle=len(ops), perms_per_cycle=sum(op.perms for op in ops),
               kinds=[op.kind for op in ops], units=[op.units for op in ops])
    if not args.trace:
        latencies, first, raised, cycles, wall = run_cycles(ops, seconds=args.seconds)
        out.update(cycles=cycles, wall_s=wall, latencies=latencies, extra=workload.extra(first))
    else:
        import spans

        tracer = spans.Tracer()
        raised = [0] * len(ops)
        cycles, wall, traced_wall, first = 0, 0.0, 0.0, None
        start = perf_counter()
        while cycles == 0 or perf_counter() - start < args.seconds:
            _, results, plain_raised, _, plain_wall = run_cycles(ops, cycles=1)
            replaced = spans.install(tracer)
            workload.set_traced(True)
            _, _, traced_raised, _, cycle_wall = run_cycles(ops, cycles=1, tracer=tracer)
            workload.set_traced(False)
            spans.uninstall(replaced)
            first = first or results
            raised = [a + b + c for a, b, c in zip(raised, plain_raised, traced_raised)]
            wall += plain_wall
            traced_wall += cycle_wall
            cycles += 1
        collected = workload.collect_spans(tracer)
        layers = spans.layer_metrics(tracer.spans, tracer.counts, cycles, len(ops))
        layers["cli.import_s"] = import_s
        layers.update(collected)
        layers.update(workload.extra(first))
        layers["trace.wall_s"] = traced_wall / cycles
        layers["trace.unwrapped_s"] = layers["trace.wall_s"] - layers["trace.self_sum_s"]
        layers["trace.overhead_s"] = (traced_wall - wall) / cycles
        out.update(cycles=cycles, wall_s=wall, layers=layers)
        spans_dir = os.path.join(args.work_dir, os.pardir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.dump(os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json"))

    bad = {i: f"raised {type(r).__name__}" for i, r in enumerate(first) if isinstance(r, Exception)}
    try:
        checked = workload.check(first)
    except Exception:  # a check cannot read a result; count every op as failed
        traceback.print_exc(file=sys.stderr)
        checked = {i: "output check raised" for i in range(len(ops))}
    bad = {**checked, **bad}
    for i, message in sorted(bad.items()):
        print(f"check failed: op {i} ({ops[i].kind}): {message}", file=sys.stderr)
    runs = cycles * (2 if args.trace else 1)
    out["attempted"] = runs * len(ops)
    out["failed"] = sum(runs if i in bad else raised[i] for i in range(len(ops)))
    out["env"] = environment(np)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
