"""The benchmark names package functions and reads package objects; a
change to either breaks it.

``bench/run.py --trace 1`` reads ``stats[name]`` for every span in
``CALL_COUNTS`` and ``SELF_TIMES``; a span whose function was deleted,
renamed, made private or listed as a tracer leaf raises ``KeyError`` there.
These tests load the benchmark files and check each span against the
package, and run one round of every workload at seed 0 through its own
output check, so an API the workloads read (``formula.clauses``,
``Clause.to_ints()``, ``phi.b``, ``phi.y_sum``) breaks here first.
"""

import importlib
import importlib.util
import inspect
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


RUN = _load("run")
WORKLOADS = _load("workloads").WORKLOADS
SPANS = sorted(set(RUN.CALL_COUNTS) | set(RUN.SELF_TIMES))


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves_to_package_function(span):
    layer, *path = span.split(".")
    module = importlib.import_module(f"sat2mdp.{layer}")
    owner = module
    for part in path[:-1]:
        owner = getattr(owner, part)
    fn = vars(owner).get(path[-1])
    assert inspect.isfunction(fn), f"{span} is not a function of sat2mdp.{layer}"
    assert fn.__module__ == module.__name__, f"{span} is defined in {fn.__module__}"


def test_tracer_wraps_every_span():
    discovered = {name for name, *_ in _load("tracer").Tracer._discover()}
    assert not set(SPANS) - discovered


@pytest.mark.parametrize("name", ["_greedy_continuation", "_softmax_continuation"])
def test_traced_continuation_caches_exist(name):
    # the traced run reads both caches' cache_info() for its hit ratio
    fn = getattr(importlib.import_module("sat2mdp.features"), name)
    assert callable(fn.cache_info)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]()
    workload.setup(0, tmp_path)
    errors = [(op.label, op.check(op.run())) for op in workload.round(1)]
    assert all(error is None for _, error in errors), errors


def test_traced_decide_round_makes_n_2n_queries(monkeypatch, tmp_path):
    # the traced run fails any decision whose generative_query calls are
    # not n * 2^n; one decide-planted round reaches n = 12
    monkeypatch.syspath_prepend(str(BENCH))
    workload = WORKLOADS["decide-planted"]()
    workload.setup(0, tmp_path)
    run = RUN.Run(workload)
    measured = RUN.measure_traced(run, 1, time.perf_counter() + 600)
    assert run.failed == 0, run.errors
    assert measured["metrics"]["reduction.queries_per_decision"][0] == 12 * 2**12


def test_traced_verify_round_times_the_weight_oracle(monkeypatch, tmp_path):
    # the softmax suite calls the oracle by the name the traced run wraps
    monkeypatch.syspath_prepend(str(BENCH))
    workload = WORKLOADS["verify-sweep"]()
    workload.setup(0, tmp_path)
    run = RUN.Run(workload)
    measured = RUN.measure_traced(run, 1, time.perf_counter() + 600)
    assert run.failed == 0, run.errors
    assert measured["metrics"]["verify.softmax_weight_by_enumeration.self_s"][0] > 0
