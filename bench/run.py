"""sat2mdp benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload decide-planted --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Set-up (a fresh interpreter importing the package, then generating and
writing the workload's instances) is repeated SETUP_REPEATS times and its
median reported.  One warm-up round follows, then ``--seconds / round_s``
rounds, which take at most about ``--seconds`` on the seed code; no round
starts after ``--seconds``.  Every op's output is checked by an oracle in
``workloads.py``.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
every round runs twice, once untraced and once traced (alternating which
goes first), and the per-layer metrics are printed: counts and self times
are per traced op, averaged over whole rounds, and ``trace.overhead_frac``
compares the two copies' wall times.

The last line of standard output is the result JSON; the line before it
records the environment.  See README.md for the metrics and known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> None:
    if not (SRC / "sat2mdp" / "__init__.py").is_file():
        raise SystemExit(f"sat2mdp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import sat2mdp

    if Path(sat2mdp.__file__).resolve().parent != SRC / "sat2mdp":
        raise SystemExit(f"imported sat2mdp from {sat2mdp.__file__}, not {SRC}")


def cold_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sat2mdp"], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - start


class Run:
    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, op, extra_check=None) -> float:
        """Time one op, then check it, and extra_check if given, outside the timed region."""
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = op.check(out) or (extra_check and extra_check())
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{op.label}: {error}")
        return elapsed


def rounds_until(rounds: int, deadline: float):
    """Round numbers 1..rounds; none past the deadline except the first two."""
    for r in range(1, rounds + 1):
        if r > 2 and time.perf_counter() > deadline:
            return
        yield r


def measure_untraced(run: Run, rounds: int, deadline: float) -> dict:
    latencies: list[float] = []
    for r in rounds_until(rounds, deadline):
        latencies += [run.op(op) for op in run.workload.round(r)]
    p10 = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "rounds": r,
        "ops": len(latencies),
        "metrics": {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_s.p50": (statistics.median(latencies), "s"),
            "latency_s.p90": (p10[8], "s"),
        },
    }


# Spans reported as calls per op and as self seconds per op.
CALL_COUNTS = (
    "mdp.generative_query", "cnf.satisfied_fraction", "features.realizability_feature",
    "policies.eval_q_greedy", "policies.eval_q_softmax", "policies.sample_trajectory",
)
SELF_TIMES = (
    "mdp.generative_query", "cnf.satisfied_fraction", "reduction.decide_max3sat",
    "policies.best_greedy", "cli.main", "cnf.parse_dimacs", "cnf.enumerate_universe",
    "mdp.build_mdp", "features.greedy_weight", "features.softmax_weight",
    "features.realizability_feature", "features.RealizabilityFeature.dot",
    "policies.eval_q_greedy", "policies.eval_q_softmax", "policies.enumerate_trajectories",
    "verify.softmax_weight_by_enumeration", "policies.sample_trajectory",
    "reduction.empirical_mcdiarmid",
)


def _continuation_cache_counts() -> tuple[int, int]:
    from sat2mdp import features

    infos = [f.cache_info() for f in (features._greedy_continuation,
                                      features._softmax_continuation)]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def measure_traced(run: Run, rounds: int, deadline: float) -> dict:
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    traced_ops = cache_hits = cache_misses = 0
    queries: dict[int, set[int]] = {}
    for r in rounds_until(rounds, deadline):
        ops = run.workload.round(r)
        for traced in ((True, False) if r % 2 else (False, True)):
            if not traced:
                plain_wall += sum(run.op(op) for op in ops)
                continue
            hits, misses = _continuation_cache_counts()
            tracer.install()
            try:
                for op in ops:
                    before = tracer.stats["mdp.generative_query"].calls

                    def count_queries(n=op.decision_n, before=before) -> str | None:
                        got = tracer.stats["mdp.generative_query"].calls - before
                        queries.setdefault(n, set()).add(got)
                        if got != n * 2**n:
                            return f"{got} generative queries, expected n*2^n = {n * 2**n}"
                        return None

                    traced_wall += run.op(op, count_queries if op.decision_n else None)
                    traced_ops += 1
            finally:
                tracer.uninstall()
            now_hits, now_misses = _continuation_cache_counts()
            cache_hits += now_hits - hits
            cache_misses += now_misses - misses

    ops = traced_ops
    m: dict[str, tuple[float, str]] = {}
    stats = tracer.stats
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (stats[name].calls / ops, "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (stats[name].self_time / ops, "s")
    m["cnf.enumerate_universe.clauses"] = (stats["cnf.enumerate_universe"].result_sizes / ops,
                                           "count")
    # every decision at the largest n issued n*2^n queries, or it failed its check
    m["reduction.queries_per_decision"] = (max(queries[max(queries)]) if queries else 0, "count")
    m["runtime.gc.pause_s"] = (tracer.gc_pause / ops, "s")
    m["runtime.gc.collections_gen2"] = (tracer.gc_gen2 / ops, "count")
    m["features.continuation_cache.hit_ratio"] = (
        cache_hits / max(1, cache_hits + cache_misses), "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self_time(layer) / ops, "s")
    m["bench.self_s"] = ((traced_wall - tracer.covered_time()) / ops, "s")
    m["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    return {"rounds": r, "ops": ops, "metrics": m}


def main(argv=None) -> None:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            import_s = cold_import_seconds()
            start = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_times.append(import_s + time.perf_counter() - start)

        run = Run(workload)
        for op in workload.round(0):  # warm-up, checked but not timed
            run.op(op)
        # The work per run is fixed where time allows: compile-large's cost per
        # op grows with what earlier ops left cached, so equal work keeps its
        # memory and GC figures comparable across runs and commits.  No round
        # starts after --seconds, so a slow stretch cannot overrun the budget.
        rounds = max(2, round(args.seconds / workload.round_s))
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            # each round runs twice, so half as many rounds fill the same time
            measured = measure_traced(run, max(1, rounds // 2), deadline)
        else:
            measured = measure_untraced(run, rounds, deadline)
            measured["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            measured["metrics"]["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    import numpy

    for line in run.errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(load_at_start),
        "rounds": measured["rounds"],
        "ops_measured": measured["ops"],
        "ops_attempted": run.attempted,
        "failed_frac": run.failed / run.attempted,
        "setup_s_each": setup_times,
    }
    print(json.dumps({"env": env}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing the universes that compile-large
    # leaves cached takes seconds and belongs to no metric.
    os._exit(0)


if __name__ == "__main__":
    main()
