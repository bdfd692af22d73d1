"""Bitwise fingerprint of what the library computes, for comparing two trees.

Usage:

    PYTHONPATH=src python tools/fingerprint.py OUT

writes one line per (instance, entry point) to OUT, in a fixed order:
costs as ``float.hex``, policies as (t, R, s, S) tuples, ``SolveStats``,
node counts, ``n_schedules`` and the cost engine's ``stored_states``
after the call. Two trees compute the same numbers exactly when their
files are identical, so a refactor that claims to change no output is
checked by running this on both with each tree's ``src`` on
``PYTHONPATH`` and comparing the files with ``cmp``. ``stored=`` is the
size of the engine's memo after the call, not an output: a change to
which curves are read or kept moves it alone, and such a change is
checked by comparing the files with that field cut out.

The instances are ``gen_scalability(T, 2, seed=T)`` for T = 1..40, every
5th T = 10 ``gen_analysis(seed=0)`` cell, and the second instance of
``gen_scalability(T, 2, seed)`` for twelve (T, seed) pairs on which
``enumerate_optimal`` restarts its search after a failed bound-table
check. Each instance gets a fresh ``SolveContext`` and runs, in order,
``solve_kconvex``, ``solve_plain`` (T <= 12), ``scarf_fixed_R`` on the
kconvex schedule, ``enumerate_optimal`` (T <= 14), ``expected_cost`` and
``simulate`` (20 000 paths, seed 0) of the kconvex policy,
``solve_lost_sales`` at beta = 0.5 on a context of its own, and
``simulate`` of that policy on that context (20 000 paths, seed 0), the
partial-backlog rollout.

The bits depend on the host BLAS's summation order, so compare files
made on one host; CI runs the script and checks only its line count,
1825, which does not depend on the BLAS. It takes about 13 s under
``python -X dev -W error`` on a 2-core x86_64 host with
``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import dataclasses
import sys

from rss_policy import (
    ReviewSchedule,
    SolveContext,
    enumerate_optimal,
    expected_cost,
    extract_policy,
    gen_analysis,
    gen_scalability,
    scarf_fixed_R,
    simulate,
    solve_kconvex,
    solve_lost_sales,
    solve_plain,
)

# (T, seed) of gen_scalability whose second instance restarts the exact search
RESTARTS = ((3, 9), (3, 16), (5, 12), (6, 0), (9, 15), (10, 17), (10, 18), (11, 6),
            (11, 10), (13, 4), (13, 17), (14, 5))


def instances():
    """(name, instance) pairs; the restart instances share their labels."""
    for T in range(1, 41):
        yield from ((inst.label, inst) for inst in gen_scalability(T, 2, seed=T))
    yield from ((inst.label, inst) for inst in gen_analysis(10, seed=0)[::5])
    for T, seed in RESTARTS:
        inst = gen_scalability(T, 2, seed=seed)[1]
        yield f"{inst.label}-seed{seed}", inst


def _policy(policy) -> str:
    return repr([(rv.period, rv.cycle, rv.reorder, rv.order_up_to) for rv in policy.reviews])


def _stats(stats) -> str:
    return repr(tuple(dataclasses.astuple(stats)))


def _tables(tables, inst, ctx) -> str:
    return " ".join((
        tables.root_cost(inst.I0).hex(),
        _policy(extract_policy(tables, inst)),
        _stats(tables.stats),
        f"stored={ctx.engine.stored_states}",
    ))


def lines(inst):
    ctx = SolveContext(inst)
    kconvex = solve_kconvex(inst, context=ctx)
    yield "solve_kconvex", _tables(kconvex, inst, ctx)
    if inst.T <= 12:
        yield "solve_plain", _tables(solve_plain(inst, context=ctx), inst, ctx)
    policy = extract_policy(kconvex, inst)
    schedule = ReviewSchedule(policy.review_periods)
    yield "scarf_fixed_R", _tables(scarf_fixed_R(inst, schedule, context=ctx), inst, ctx)
    if inst.T <= 14:
        res = enumerate_optimal(inst, context=ctx)
        yield "enumerate_optimal", " ".join((
            res.cost.hex(),
            repr(res.schedule.periods),
            _policy(res.policy),
            _stats(res.stats),
            f"schedules={res.n_schedules} explored={res.nodes_explored} pruned={res.nodes_pruned}",
            f"stored={ctx.engine.stored_states}",
        ))
    yield "expected_cost", expected_cost(inst, policy, context=ctx).hex()
    report = simulate(inst, policy, 20_000, seed=0, context=ctx)
    yield "simulate", f"{report.mc_mean.hex()} {report.mc_halfwidth_95.hex()}"
    half = dataclasses.replace(inst, beta=0.5)
    half_ctx = SolveContext(half)
    lost_sales = solve_lost_sales(half, context=half_ctx)
    yield "solve_lost_sales", _tables(lost_sales, half, half_ctx)
    report = simulate(half, extract_policy(lost_sales, half), 20_000, seed=0, context=half_ctx)
    yield "simulate_lost_sales", f"{report.mc_mean.hex()} {report.mc_halfwidth_95.hex()}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0], "w") as out:
        for name, inst in instances():
            for entry, line in lines(inst):
                print(name, entry, line, file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
