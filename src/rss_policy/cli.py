"""Command-line interface: solve instances, evaluate policies, run
benchmark campaigns, and generate testbed instance files.

Exit codes: 0 success, 2 input error, 3 capability error (over the exact
solver's node budget, the work bound or memory), 4 output I/O error
(stdout included).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Optional

from .evaluate import expected_cost, optimality_gap, simulate
from .exact import DEFAULT_NODE_BUDGET, HorizonCapError, enumerate_optimal
from .model import Instance
from .serialize import SchemaError, load_instance, load_policy, policy_to_dict, save_instance
from .solver import SolveContext, extract_policy, solve_kconvex, solve_plain
from .testbed import gen_analysis, gen_scalability

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_IO = 4

REPORT_COLUMNS = [
    "label",
    "solver",
    "expected_cost",
    "optimality_gap_pct",
    "n_reviews",
    "wall_time_ms",
    "states_evaluated",
    "candidates_pruned",
    "window_widenings",
    "nodes_explored",
    "nodes_pruned",
]

SUMMARY_COLUMNS = [
    "factor",
    "level",
    "solver",
    "mean_gap_pct",
    "pct_non_optimal",
    "non_optimal_mean_gap_pct",
    "mean_time_ms",
    "mean_reviews",
]

_NON_OPTIMAL_GAP = 1e-8

SOLVERS = ("plain", "kconvex", "exact", "lost_sales")
_HEURISTICS = {"plain": solve_plain, "kconvex": solve_kconvex, "lost_sales": solve_plain}


def _solve_with(name: str, instance: Instance, ctx: SolveContext, exact_budget: int):
    """Run one solver of ``SOLVERS``; returns (policy, cost, stats, the
    exact search's result or None for a heuristic)."""
    if name == "exact":
        result = enumerate_optimal(instance, budget=exact_budget, context=ctx)
        return result.policy, result.cost, result.stats, result
    tables = _HEURISTICS[name](instance, context=ctx)
    policy = extract_policy(tables, instance)
    return policy, tables.root_cost(instance.I0), tables.stats, None


def cmd_solve(args: argparse.Namespace) -> None:
    instance = load_instance(args.instance)
    ctx = SolveContext(instance)
    policy, cost, _, _ = _solve_with(args.solver, instance, ctx, DEFAULT_NODE_BUDGET)
    doc = policy_to_dict(policy, expected_cost=cost)
    print(json.dumps(doc, sort_keys=True, allow_nan=False))


def cmd_evaluate(args: argparse.Namespace) -> None:
    instance = load_instance(args.instance)
    policy = load_policy(args.policy, horizon=instance.T)
    ctx = SolveContext(instance)
    if args.simulate is None:
        doc: dict[str, Any] = {"expected_cost": expected_cost(instance, policy, context=ctx)}
    else:
        if args.simulate < 1:
            raise SchemaError("--simulate needs at least one path")
        doc = asdict(simulate(instance, policy, args.simulate, args.seed, context=ctx))
    print(json.dumps(doc, sort_keys=True, allow_nan=False))


# ----------------------------------------------------------------------
# Benchmark campaign
# ----------------------------------------------------------------------

def _benchmark_instance(
    instance: Instance,
    solvers: list[str],
    reps: int,
    oracle: bool,
    factors: dict[str, str],
    exact_budget: int,
) -> list[dict[str, Any]]:
    """Solve one instance with each requested solver, ``reps >= 1`` times.

    The gap oracle is the exact solver's result when it is among the
    solvers; otherwise, if ``oracle`` is set, an exact search run before
    the solvers. An oracle over its node budget leaves the gaps empty.
    The oracle and every repetition get a fresh context, built outside
    the timing, so no solve reuses the cost curves another one built."""
    oracle_cost: Optional[float] = None
    if oracle and "exact" not in solvers:
        try:
            oracle_cost = enumerate_optimal(
                instance, budget=exact_budget, context=SolveContext(instance)
            ).cost
        except HorizonCapError:
            pass
    rows = []
    for name in solvers:
        times = []
        policy = cost = stats = exact = None
        for _ in range(reps):
            ctx = SolveContext(instance)
            t0 = time.perf_counter()
            policy, cost, stats, exact = _solve_with(name, instance, ctx, exact_budget)
            times.append(time.perf_counter() - t0)
        if exact is not None:
            oracle_cost = cost
        rows.append(
            {
                "label": instance.label,
                "solver": name,
                "expected_cost": cost,
                "n_reviews": policy.n_reviews,
                "wall_time_ms": 1000.0 * statistics.median(times),
                "states_evaluated": stats.states_evaluated,
                "candidates_pruned": stats.candidates_pruned,
                "window_widenings": stats.window_widenings,
                "nodes_explored": None if exact is None else exact.nodes_explored,
                "nodes_pruned": None if exact is None else exact.nodes_pruned,
                "T": instance.T,
                "factors": factors,
            }
        )
    for row in rows:
        gap = None if oracle_cost is None else optimality_gap(row["expected_cost"], oracle_cost)
        row["optimality_gap_pct"] = None if gap is None else 100.0 * gap
    return rows


def _analysis_factors(instance: Instance) -> dict[str, str]:
    first = instance.demand[0]
    sigma = "poisson" if first.kind == "poisson" else f"{first.cv:g}"
    pattern = instance.label.rsplit("-", 1)[1] if instance.label else ""
    return {
        "K": f"{instance.params.K:g}",
        "W": f"{instance.params.W:g}",
        "sigma": sigma,
        "pattern": pattern,
    }


def _level_order(level: str) -> tuple[int, float, str]:
    """Numeric factor levels by value, then named levels by name."""
    try:
        return (0, float(level), "")
    except ValueError:
        return (1, 0.0, level)


def _write_summary(path: Path, rows: list[dict[str, Any]]) -> None:
    """Per-factor aggregation of the factorial rows in the benchmark-table layout."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        solvers = sorted({r["solver"] for r in rows})
        for factor in ("K", "W", "sigma", "pattern"):
            levels = sorted({r["factors"][factor] for r in rows}, key=_level_order)
            for level, solver in itertools.product(levels, solvers):
                sel = [r for r in rows if (r["factors"][factor], r["solver"]) == (level, solver)]
                if not sel:
                    continue
                gaps = [r["optimality_gap_pct"] for r in sel]
                have_gaps = None not in gaps
                non_opt = [g for g in gaps if g > 100.0 * _NON_OPTIMAL_GAP] if have_gaps else []
                writer.writerow(
                    [
                        factor,
                        level,
                        solver,
                        f"{statistics.mean(gaps):.4f}" if have_gaps else "",
                        f"{100.0 * len(non_opt) / len(sel):.2f}" if have_gaps else "",
                        f"{statistics.mean(non_opt):.4f}" if non_opt else "",
                        f"{statistics.mean(r['wall_time_ms'] for r in sel):.2f}",
                        f"{statistics.mean(r['n_reviews'] for r in sel):.2f}",
                    ]
                )


def cmd_benchmark(args: argparse.Namespace) -> None:
    if args.reps < 1:
        raise SchemaError("--reps needs at least one repetition")
    if args.exact_budget < 1:
        raise SchemaError("--exact-budget needs at least one node")
    if args.seed < 0:
        raise SchemaError("--seed must be nonnegative")
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers:
        raise SchemaError("--solvers names no solver")
    unknown = sorted(set(solvers) - set(SOLVERS))
    if unknown:
        raise SchemaError(f"unknown solvers {unknown}; expected some of {list(SOLVERS)}")
    horizons = list(range(args.t_min, args.t_max + 1))
    instances: list[Instance] = []
    for T in horizons:
        if args.suite == "scalability":
            instances.extend(gen_scalability(T, args.n, seed=args.seed + T))
        elif T in (10, 20):
            instances.extend(gen_analysis(T, seed=args.seed))
    if not instances:
        raise SchemaError(f"no {args.suite} instances for T in [{args.t_min}, {args.t_max}]")
    instances.sort(key=lambda inst: inst.label or "")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_rows: list[dict[str, Any]] = []
    with (out_dir / "report.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        fh.flush()
        for instance in instances:
            rows = _benchmark_instance(
                instance,
                solvers,
                args.reps,
                oracle=not args.skip_oracle,
                factors=_analysis_factors(instance) if args.suite == "analysis" else {},
                exact_budget=args.exact_budget,
            )
            for row in rows:
                writer.writerow(_format_row(row))
            fh.flush()
            all_rows.extend(rows)
    for solver in solvers:
        with (out_dir / f"times_{solver}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["T", "median_seconds"])
            for T in horizons:
                sel = [
                    r["wall_time_ms"] / 1000.0
                    for r in all_rows
                    if r["solver"] == solver and r["T"] == T
                ]
                if sel:
                    writer.writerow([T, f"{statistics.median(sel):.6f}"])
    if args.suite == "analysis" and all_rows:
        _write_summary(out_dir / "summary.csv", all_rows)


def _format_row(row: dict[str, Any]) -> dict[str, Any]:
    out = {k: row[k] for k in REPORT_COLUMNS}
    if out["optimality_gap_pct"] is not None:
        out["optimality_gap_pct"] = f"{out['optimality_gap_pct']:.6f}"
    out["expected_cost"] = f"{out['expected_cost']:.6f}"
    out["wall_time_ms"] = f"{out['wall_time_ms']:.3f}"
    return out


def cmd_gen(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise SchemaError("--seed must be nonnegative")
    if args.suite == "scalability":
        batch = gen_scalability(args.t, args.n, args.seed)
    else:
        batch = gen_analysis(args.t, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for instance in batch:
        save_instance(instance, out_dir / f"{instance.label}.json")
    print(f"wrote {len(batch)} instances to {out_dir}")


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rss-policy",
        description="(R,s,S) policy solvers for non-stationary stochastic lot sizing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a policy for an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--solver", choices=SOLVERS, default="kconvex")
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("evaluate", help="evaluate a policy file on an instance")
    p_eval.add_argument("instance")
    p_eval.add_argument("--policy", required=True)
    p_eval.add_argument("--simulate", type=int, default=None, metavar="N",
                        help="also run a Monte-Carlo estimate with N paths")
    p_eval.add_argument("--seed", type=int, default=0,
                        help="seed of the Monte-Carlo estimate")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("benchmark", help="run a benchmark campaign")
    p_bench.add_argument("suite", choices=["scalability", "analysis"])
    p_bench.add_argument("--t-min", type=int, required=True)
    p_bench.add_argument("--t-max", type=int, required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--solvers", default="plain,kconvex")
    p_bench.add_argument("--n", type=int, default=100,
                         help="instances per horizon (scalability suite)")
    p_bench.add_argument("--reps", type=int, default=1,
                         help="timing repetitions, each on a fresh solve context "
                         "built outside the timing; the median is reported")
    p_bench.add_argument("--exact-budget", type=int, default=DEFAULT_NODE_BUDGET,
                         help="node budget of the exact solver and the gap oracle")
    p_bench.add_argument("--skip-oracle", action="store_true",
                         help="do not run the exact oracle for gap columns")
    p_bench.add_argument("--seed", type=int, default=0, help="scalability runs at horizon "
                         "T the batch that `gen scalability --t T --seed SEED+T` writes")
    p_bench.set_defaults(func=cmd_benchmark)

    p_gen = sub.add_parser("gen", help="write generated instance files")
    p_gen.add_argument("suite", choices=["scalability", "analysis"])
    p_gen.add_argument("--t", type=int, required=True)
    p_gen.add_argument("--n", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0, help="scalability with --t T and "
                       "--seed S+T writes what `benchmark scalability --seed S` runs at T")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except (HorizonCapError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: write failure: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # the bytes stdout kept would fail again at exit, as status 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
