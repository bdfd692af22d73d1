"""Closed-loop benchmark of the rss_policy solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one instance at a time and the next only after the
previous one has completed (single process, single thread, BLAS pinned to
one thread). Instances come from ``rss_policy.testbed`` with the given
seed; see ``workloads.py`` and ``README.md`` for the workloads. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A fuller record (environment, per-instance results, spans) is written to
``perfbench/out/``. The exit code is 0 only if every check passed.

``--write-reference`` solves the first reference cycles of the default
seed and stores their policies and costs in ``perfbench/reference/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 3
NON_OPTIMAL_GAP = 1e-8  # optimality gap above which kconvex counts as non-optimal

# Host-speed calibration. On a shared host the CPU's speed drifts: identical
# work took 1.9x longer in some runs than in others minutes apart, and a
# drift moves every instance of a run alike. A short fixed kernel, shaped
# like the solvers' per-state loops (an interpreted loop over small numpy
# dot products), runs before every instance, and the per-instance timing
# metrics are reported in "ref-s": seconds on a host on which the kernel
# takes CALIBRATION_REF_S. The raw seconds are kept in the record file.
CALIBRATION_STEPS = 60_000
CALIBRATION_REF_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/ref-s",
    "instance_s_p50": "ref-s",
    "instance_cpu_s_p50": "ref-s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "solver.solve_self_s": "s",
    "solver.context_s": "s",
    "solver.build_grid_s": "s",
    "solver.states_evaluated": "count",
    "solver.scan_fraction": "ratio",
    "solver.q_iterations": "count",
    "costs.cycle_hp_fn_s": "s",
    "costs.cycle_hp_fn_calls": "count",
    "costs.stored_states": "count",
    "conv.calls": "count",
    "conv.macs": "count",
    "conv.s": "s",
    "conv.costs_s": "s",
    "conv.demand_s": "s",
    "conv.solver_s": "s",
    "demand.discretize_s": "s",
    "demand.cumulative_s": "s",
    "demand.cumulative_calls": "count",
    "demand.cumulative_hit_ratio": "ratio",
    "exact.enumerate_self_s": "s",
    "exact.n_schedules": "count",
    "exact.states_evaluated": "count",
    "exact.scarf_s": "s",
    "evaluate.expected_cost_s": "s",
    "evaluate.simulate_self_s": "s",
    "evaluate.mc_paths_per_s": "1/s",
    "bench.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
    "trace.instances": "count",
    "quality.error_rate": "ratio",
    "quality.gap_pct_mean": "%",
    "quality.non_optimal_pct": "%",
    "quality.eval_rel_err_max": "ratio",
    "quality.mc_z_max": "z",
}
# Self-time metrics that partition the traced wall time.
SELF_TIME_METRICS = (
    "bench.self_s", "solver.context_s", "solver.build_grid_s", "solver.solve_self_s",
    "demand.discretize_s", "demand.cumulative_s", "costs.cycle_hp_fn_s", "conv.s",
    "exact.enumerate_self_s", "evaluate.expected_cost_s", "evaluate.simulate_self_s",
)
# Standard percentiles, highest first, considered for the tail report.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Number of the n samples that lie strictly above the p-th percentile
    position (ignoring ties)."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """Highest standard percentile with at least ``min_beyond`` samples
    beyond it, or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "rss_policy").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git_rev = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_rev = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="solve the reference cycles and store their outputs")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (internal)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of the fixed calibration kernel."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 128)
    b = np.linspace(1.0, 0.0, 2048)
    dot = np.dot
    best = 0.0
    w0, c0 = time.perf_counter(), time.process_time()
    for i in range(CALIBRATION_STEPS):
        j = i & 1023
        value = float(dot(a, b[j:j + 128]))
        if value > best:
            best = value
    return time.perf_counter() - w0, time.process_time() - c0


class Run:
    """Counts, per-instance records and solved cases of one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []
        self.solved: list = []  # (Case, Result) of the untraced runs, in order
        self.untraced_wall_s = 0.0  # of the instances the tracer repeated

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload} {where}: {why}", file=sys.stderr)


def attempt(wl, case):
    """Run one case, timed; returns (result or None, wall s, cpu s, failure)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        res, ctx = wl.run_case(case)
    except Exception:  # a raising instance is a failure; keep measuring
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        traceback.print_exc(file=sys.stderr)
        return None, wall, cpu, "raised " + traceback.format_exc(limit=0).strip()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    res.counters["costs.stored_states"] = ctx.engine.stored_states
    return res, wall, cpu, wl.gate(res)


def timed_loop(wl, cycle, seconds, tracer, reference, run: Run) -> float:
    """Instances, cycle after cycle, until ``seconds`` have passed; returns
    the loop's wall time.

    With a tracer, each instance runs untraced and then traced, so the
    overhead is measured on identical work in the same process."""
    loop_start = time.perf_counter()
    for k in itertools.count():
        for j, case in enumerate(cycle(k)):
            if time.perf_counter() - loop_start >= seconds:
                return time.perf_counter() - loop_start
            where = f"cycle {k} case {j} ({case.instance.label})"
            run.attempted += 1
            # Collect garbage (the exact solver's memo sits in a reference
            # cycle) outside the timed region, so that neither the time nor
            # the peak memory of an instance depends on when the cyclic
            # collector last ran.
            gc.collect()
            cal_wall, cal_cpu = calibrate()
            res, wall, cpu, failure = attempt(wl, case)
            record = {"cycle": k, "index": j, "label": case.instance.label,
                      "solver": case.solver, "wall_s": wall, "cpu_s": cpu,
                      "calibration_wall_s": cal_wall, "calibration_cpu_s": cal_cpu}
            if res is not None:
                run.solved.append((case, res))
                record.update(cost=res.cost, gap=res.gap, eval_rel_err=res.eval_rel_err,
                              mc_z=res.mc_z, policy=wl.policy_rows(res.policy),
                              counters=res.counters)
                if reference is not None and (k, j) in reference:
                    failure = failure or wl.reference_mismatch(reference[(k, j)], res)
            if tracer is not None:
                run.untraced_wall_s += wall
                gc.collect()
                with tracer.instance():
                    traced, _, _, traced_failure = attempt(wl, case)
                failure = failure or traced_failure
                if traced is not None:
                    record["counters"] = traced.counters
                    if res is None or (wl.policy_rows(traced.policy), traced.cost) != (
                            wl.policy_rows(res.policy), res.cost):
                        failure = failure or "the traced run gave another policy or cost"
            if failure:
                record["failure"] = failure
                run.fail(where, failure)
            run.records.append(record)


def cli_check(wl, run: Run) -> None:
    """Repeat one solved instance through ``rss-policy solve`` (which also
    exercises the instance and policy JSON schemas); the printed policy
    must equal the in-process one."""
    from rss_policy import cli, serialize

    run.attempted += 1
    target = wl.cli_target(run.workload, run.solved)
    if target is None:
        run.fail("cli", "no solved instance to cross-check")
        return
    case, policy, cost = target
    path = OUT_DIR / f"cli-{run.workload}.json"
    serialize.save_instance(case.instance, path)
    argv = ["solve", str(path)]
    if wl.CLI_SOLVER[run.workload] is not None:
        argv += ["--solver", wl.CLI_SOLVER[run.workload]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        run.fail("cli", f"rss-policy {' '.join(argv)} exited with {code}")
        return
    doc = json.loads(out.getvalue().strip().splitlines()[-1])
    if doc["reviews"] != serialize.policy_to_dict(policy)["reviews"]:
        run.fail("cli", f"CLI policy {doc['reviews']} differs from the in-process one")
    elif abs(doc["expected_cost"] - cost) > wl.EVAL_REL_TOL * abs(cost):
        run.fail("cli", f"CLI cost {doc['expected_cost']!r} differs from {cost!r}")


def setup_probe(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                         check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def quality_metrics(run: Run) -> dict:
    results = [res for _, res in run.solved]
    gaps = [res.gap for res in results if res.gap is not None]
    errs = [res.eval_rel_err for res in results if res.eval_rel_err is not None]
    zs = [res.mc_z for res in results if res.mc_z is not None]
    return {
        "quality.error_rate": run.failed / run.attempted,
        "quality.gap_pct_mean": 100.0 * statistics.fmean(gaps) if gaps else 0.0,
        "quality.non_optimal_pct": (
            100.0 * sum(g > NON_OPTIMAL_GAP for g in gaps) / len(gaps) if gaps else 0.0),
        "quality.eval_rel_err_max": max(errs, default=0.0),
        "quality.mc_z_max": max(zs, default=0.0),
    }


def layer_metrics(tracer, run: Run) -> dict:
    """Per-instance means over the traced instances, plus ratios."""
    n = tracer.instances
    totals: dict[str, float] = {}
    for record in run.records:
        for key, value in record.get("counters", {}).items():
            totals[key] = totals.get(key, 0) + value
    self_s = {m: tracer.self_s.get(m, 0.0) for m in SELF_TIME_METRICS}
    counts = tracer.counts
    simulate_s = self_s["evaluate.simulate_self_s"]
    table_states = totals.get("solver.table_states", 0)
    calls = counts.get("demand.cumulative_calls", 0)
    out = {m: v / n for m, v in self_s.items()}
    for key in ("solver.states_evaluated", "solver.q_iterations", "costs.stored_states",
                "exact.n_schedules", "exact.states_evaluated"):
        out[key] = totals.get(key, 0) / n
    for key in ("costs.cycle_hp_fn_calls", "conv.calls", "conv.macs", "conv.costs_s",
                "conv.demand_s", "conv.solver_s",
                "demand.cumulative_calls", "exact.scarf_s"):
        out[key] = counts.get(key, 0) / n
    out["solver.scan_fraction"] = (
        totals.get("solver.states_evaluated", 0) / table_states if table_states else 0.0)
    out["demand.cumulative_hit_ratio"] = (
        counts.get("demand.cumulative_hits", 0) / calls if calls else 0.0)
    out["evaluate.mc_paths_per_s"] = (
        totals.get("evaluate.mc_paths", 0) / simulate_s if simulate_s > 0 else 0.0)
    out["trace.overhead_pct"] = 100.0 * (tracer.wall_s / run.untraced_wall_s - 1.0)
    out["trace.unaccounted_pct"] = 100.0 * (tracer.wall_s - sum(self_s.values())) / tracer.wall_s
    out["trace.instances"] = n
    return out


def emit(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ----------------------------------------------------------------------

def format_reference(doc: dict) -> str:
    """JSON with one line per instance, so that diffs show which changed."""
    head = json.dumps({k: v for k, v in doc.items() if k != "instances"}, indent=1)
    body = ",\n".join("  " + json.dumps(entry) for entry in doc["instances"])
    return head[:-2] + ',\n "instances": [\n' + body + "\n ]\n}\n"


def write_reference(wl, args, cycle) -> int:
    if args.seed != wl.DEFAULT_SEED:
        print(f"error: references are kept for the default seed {wl.DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    entries, failures = [], 0
    for k in range(wl.REFERENCE_CYCLES):
        for j, case in enumerate(cycle(k)):
            res, _ = wl.run_case(case)
            failure = wl.gate(res)
            if failure:
                failures += 1
                print(f"FAIL cycle {k} case {j}: {failure}", file=sys.stderr)
            entries.append(wl.reference_entry(k, j, res))
    if failures:
        return 1
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "regenerate": (f"python3 perfbench/run.py --workload {args.workload} "
                       f"--seed {args.seed} --write-reference"),
        "env": environment(),
        "instances": entries,
    }
    path = wl.reference_path(args.workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_reference(doc))
    print(f"wrote {len(entries)} reference instances to {path}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    # Pin BLAS and OpenMP pools before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "rss_policy" / "__init__.py").is_file():
        print(f"error: no rss_policy sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        patches = tracing.Patches()
        tracing.install_conv_hooks(tracer, patches)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    if tracer is not None:
        tracing.install_api_hooks(tracer, patches)
    cycle = wl.prepare(args.workload, args.seed)
    for case in wl.warmup_cases(args.workload, args.seed):
        wl.run_case(case)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.write_reference:
        return write_reference(wl, args, cycle)

    OUT_DIR.mkdir(exist_ok=True)
    reference = wl.load_reference(args.workload) if args.seed == wl.DEFAULT_SEED else None
    run = Run(args.workload)
    loop_s = timed_loop(wl, cycle, args.seconds, tracer, reference, run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        cli_check(wl, run)
    except Exception:  # report as a failed check, with the traceback
        traceback.print_exc(file=sys.stderr)
        run.fail("cli", "the cross-check raised")

    walls = [r["wall_s"] for r in run.records]
    cpus = [r["cpu_s"] for r in run.records]
    values = quality_metrics(run)
    # Host speed relative to the reference: > 1 means slower than reference.
    slow_wall = statistics.fmean(r["calibration_wall_s"] for r in run.records) / CALIBRATION_REF_S
    slow_cpu = statistics.fmean(r["calibration_cpu_s"] for r in run.records) / CALIBRATION_REF_S
    values.update({
        "raw.instances_per_s": len(walls) / sum(walls),
        "raw.instance_s_p50": percentile(walls, 50),
        "raw.instance_cpu_s_p50": percentile(cpus, 50),
        "host.slowdown_wall": slow_wall,
        "host.slowdown_cpu": slow_cpu,
    })
    if tracer is None:
        setup_samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        values.update({
            "setup_s": statistics.median(setup_samples),
            "instances_per_s": values["raw.instances_per_s"] * slow_wall,
            "instance_s_p50": values["raw.instance_s_p50"] / slow_wall,
            "instance_cpu_s_p50": values["raw.instance_cpu_s_p50"] / slow_cpu,
            "peak_rss_mb": peak_rss_mb,
        })
        metrics = emit(values, END_TO_END_UNITS)
    else:
        setup_samples = [setup_s]
        values.update(layer_metrics(tracer, run))
        metrics = emit(values, PER_LAYER_UNITS)

    tail = tail_percentile(len(walls))
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "values": values,
        "instance_samples": len(walls), "tail_percentile": tail,
        "instance_s_tail": None if tail is None else percentile(walls, tail),
        "setup_samples_s": setup_samples, "loop_s": loop_s,
        "attempted": run.attempted, "failed": run.failed, "records": run.records,
    }
    if tracer is not None:
        summary["spans"] = tracer.spans
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(summary) + "\n")
    print(f"# {args.workload} seed {args.seed}: {len(walls)} instances in {loop_s:.1f} s, "
          f"{run.failed} failed; raw instance_s_p50 {values['raw.instance_s_p50']:.4f} s, "
          f"host slowdown {slow_wall:.3f}; env {json.dumps(summary['env'])}; "
          f"details in {out_path.name}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
