"""garma benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/garma`` and
``BENCHMARK.json``.  Each run is one fresh child process (child.py) with one
BLAS thread; the workloads and why each exists are in workloads.py and
BENCHMARK.json.  Two more children only set up, so that ``setup_s`` is a
median of three, and ``ops_per_s`` is the operations of one cycle divided
by the median cycle wall time.  With ``--trace 0`` the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric of BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric,
per workload cycle.  The lines before it name every metric with its unit,
including per-operation latencies, and the machine the numbers came from.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUDGET_S = 170.0  # every run must exit within 180 s
SETUP_RUNS = 3
# Per-operation latency metrics: op kind -> (metric stem, report p90 too).
# A p90 is printed only from 100 samples up, so that 10 lie beyond it.
KIND_METRICS = {
    "dgarma": ("dgarma_ms", True),
    "rgarma": ("rgarma_ms", True),
    "pgarma": ("pgarma_row_ms", True),
    "acf": ("acf_ms", False),
    "varmat": ("varmat_ms", False),
    "spectrum": ("spectrum_ms", False),
    "intensity": ("intensity_ms", False),
    "cli": ("cli_ms", False),
}


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: on 2 cores, 2 threads made dgarma both slower and noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, work_dir, deadline, setup_only=False):
    """Run child.py to completion (or kill its whole process group at the
    deadline) and return its JSON summary."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args.workload}: child ran past the time budget") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload}: child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(summary, setups):
    """Every end-to-end metric: name -> (value, unit, sample count)."""
    lat = summary["latencies"]
    cycle_s = [sum(per_cycle) for per_cycle in zip(*lat)]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (summary["ops_per_cycle"] / statistics.median(cycle_s), "1/s", len(cycle_s)),
        "error_rate": (summary["failed"] / summary["attempted"], "ratio", summary["attempted"]),
    }
    by_kind = {}
    for kind, units, per_op in zip(summary["kinds"], summary["units"], lat):
        by_kind.setdefault(kind, []).extend(t * 1e3 / units for t in per_op)
    for kind, samples in by_kind.items():
        stem, p90 = KIND_METRICS[kind]
        metrics[f"{stem}.p50"] = (statistics.median(samples), "ms", len(samples))
        if p90 and len(samples) >= 100:
            metrics[f"{stem}.p90"] = (statistics.quantiles(samples, n=10)[-1], "ms", len(samples))
    if "spectrum" in by_kind:
        seconds = sum(sum(per_op) for kind, per_op in zip(summary["kinds"], lat) if kind == "spectrum")
        metrics["spectrum_perm_per_s"] = (summary["perms_per_cycle"] * summary["cycles"] / seconds,
                                          "1/s", len(by_kind["spectrum"]))
    for name, value in summary.get("extra", {}).items():
        metrics[name] = (value, "ms" if name.endswith("_ms.p50") else "count", 1)
    return metrics


def run_workload(args, bench, deadline):
    work_dir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        summary = spawn(args, work_dir, deadline)
        setups = [summary["setup_s"]]
        while not args.trace and len(setups) < SETUP_RUNS and deadline - time.monotonic() > 30:
            setups.append(spawn(args, work_dir, deadline, setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# env {json.dumps(summary['env'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {summary['cycles']} cycles of "
          f"{summary['ops_per_cycle']} ops in {summary['wall_s']:.2f} s, "
          f"{summary['failed']} of {summary['attempted']} failed")
    if args.trace:
        layers = summary["layers"]
        for name in sorted(layers):
            print(f"{name:48s} {layers[name]:.6g}")
        print(f"# traced wall {layers['trace.wall_s']:.6g} s per cycle = wrapped self time "
              f"{layers['trace.self_sum_s']:.6g} s + unwrapped {layers['trace.unwrapped_s']:.6g} s; "
              f"tracing overhead {layers['trace.overhead_s']:.6g} s per cycle")
        chosen = {m["name"]: (layers.get(m["name"], 0.0), m["unit"]) for m in bench["per_layer"]}
    else:
        metrics = end_to_end(summary, setups)
        for name, (value, unit, count) in metrics.items():
            print(f"{name:24s} {value:14.6g} {unit:6s} (n={count})")
        chosen = {m["name"]: (metrics[m["name"]][0], m["unit"]) for m in bench["end_to_end"]}
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "garma", "__init__.py")) or not os.path.isfile(bench_path):
        sys.exit(f"error: {ROOT} holds no src/garma package or no BENCHMARK.json to benchmark")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        run_workload(args, bench, time.monotonic() + BUDGET_S)


if __name__ == "__main__":
    main()
