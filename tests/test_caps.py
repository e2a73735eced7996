"""The one cap policy: each capped entry point, one past its cap, raises its
own module's error with the one message form before any work."""

import re
from fractions import Fraction
from itertools import count

import pytest

import sat2mdp.cnf
from sat2mdp import Formula, PolicyParams, build_mdp, realizability_feature
from sat2mdp.cli import main
from sat2mdp.cnf import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    UNIVERSE_CAP,
    CnfError,
    enumerate_universe,
    is_zeta_satisfiable,
    leaf_counts,
    universe_block_sizes,
)
from sat2mdp.mdp import MdpError, initial_state, step
from sat2mdp.policies import best_greedy, enumerate_trajectories
from sat2mdp.reduction import ReductionError, exact_solver
from sat2mdp.verify import (
    GREEDY_SUITE_N_MAX,
    SOFTMAX_SUITE_N_MAX,
    check_realizability_greedy,
    check_realizability_softmax,
    check_reduction_roundtrip,
    softmax_weight_by_enumeration,
)

from conftest import call_counts

CAP_MESSAGE = re.compile(r"[a-z -]+ cap exceeded: [a-z_-]+=\d+ > \d+")

WIDE_N = BRUTE_FORCE_CAP + 1
# one free stage past the enumeration cap after a stage-1 state
DEEP_N = ENUMERATION_CAP + 2
# the smallest n whose clause universe has more rows than the cap
HUGE_N = next(n for n in count(1) if sum(universe_block_sizes(n)) > UNIVERSE_CAP)
HUGE_ROWS = sum(universe_block_sizes(HUGE_N))


def one_clause(n):
    return Formula.from_ints(n, [[n]])


def refuse(*args):
    raise AssertionError(f"query issued above the cap: {args}")


CASES = {
    "is_zeta_satisfiable": (
        lambda: is_zeta_satisfiable(one_clause(WIDE_N), 0), CnfError,
        f"brute-force cap exceeded: n={WIDE_N} > {BRUTE_FORCE_CAP}"),
    "leaf_counts": (
        lambda: leaf_counts(one_clause(WIDE_N)), CnfError,
        f"brute-force cap exceeded: n={WIDE_N} > {BRUTE_FORCE_CAP}"),
    "best_greedy": (
        lambda: best_greedy(build_mdp(one_clause(WIDE_N))), CnfError,
        f"brute-force cap exceeded: n={WIDE_N} > {BRUTE_FORCE_CAP}"),
    "exact_solver": (
        lambda: exact_solver(build_mdp(one_clause(WIDE_N)), refuse, Fraction(0), "greedy"),
        ReductionError, f"brute-force cap exceeded: n={WIDE_N} > {BRUTE_FORCE_CAP}"),
    "enumerate_trajectories": (
        lambda: enumerate_trajectories(
            build_mdp(one_clause(DEEP_N)), PolicyParams((1.0,) * DEEP_N), initial_state(DEEP_N), 1
        ),
        MdpError, f"enumeration cap exceeded: n-h={DEEP_N - 1} > {ENUMERATION_CAP}"),
    "softmax_weight_by_enumeration": (
        lambda: softmax_weight_by_enumeration(
            build_mdp(one_clause(DEEP_N)), [PolicyParams((0.5,) * DEEP_N)], 1
        ),
        MdpError, f"enumeration cap exceeded: n-h={DEEP_N - 1} > {ENUMERATION_CAP}"),
    "greedy_suite": (
        lambda: check_realizability_greedy(n_max=GREEDY_SUITE_N_MAX + 1), ValueError,
        f"greedy suite cap exceeded: n_max={GREEDY_SUITE_N_MAX + 1} > {GREEDY_SUITE_N_MAX}"),
    "softmax_suite": (
        lambda: check_realizability_softmax(n_max=SOFTMAX_SUITE_N_MAX + 1), ValueError,
        f"softmax suite cap exceeded: n_max={SOFTMAX_SUITE_N_MAX + 1} > {SOFTMAX_SUITE_N_MAX}"),
    "roundtrip_suite": (
        lambda: check_reduction_roundtrip(n=WIDE_N), ValueError,
        f"brute-force cap exceeded: n={WIDE_N} > {BRUTE_FORCE_CAP}"),
    "enumerate_universe": (
        lambda: enumerate_universe(HUGE_N), CnfError,
        f"universe cap exceeded: rows={HUGE_ROWS} > {UNIVERSE_CAP}"),
}


@pytest.fixture
def combination_calls(monkeypatch):
    """The calls of ``itertools.combinations`` that a universe build makes."""
    calls = []
    real = sat2mdp.cnf.combinations
    monkeypatch.setattr(sat2mdp.cnf, "combinations",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_counter_sees_a_build_below_the_cap(combination_calls):
    enumerate_universe(3)
    assert len(combination_calls) == 3


@pytest.mark.parametrize("name", CASES)
def test_cap_plus_one_raises_the_one_message(combination_calls, name):
    call, error, message = CASES[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert CAP_MESSAGE.fullmatch(message)
    assert combination_calls == []


def test_universe_cap_before_feature_step(combination_calls):
    # the universe is read before step, so the cap refuses an n before any
    # per-state work; the same counter sees the one step of a call below it
    def feature(n):
        try:
            realizability_feature(build_mdp(one_clause(n)), initial_state(n), 0)
        except CnfError as exc:
            return str(exc)

    assert call_counts(lambda: feature(3), step=step) == (None, {"step": 1})
    combination_calls.clear()  # whatever the n = 3 universe drew
    message, counts = call_counts(lambda: feature(HUGE_N), step=step)
    assert message == f"universe cap exceeded: rows={HUGE_ROWS} > {UNIVERSE_CAP}"
    assert counts == {"step": 0}
    assert combination_calls == []


def test_cli_universe_cap_exit_2(capsys, tmp_path, combination_calls):
    # a header that declares n = 1000: eval and reduce stop at the universe
    # cap before any combination is drawn; decide and solve never read the
    # universe and stop at the brute-force cap alone
    n = 1000
    path = tmp_path / "declared.cnf"
    path.write_text(f"p cnf {n} 1\n1 0\n")
    rows = sum(universe_block_sizes(n))
    universe_argvs = (
        ["eval", str(path), "--theta=" + "+" * n, "--state=" + ",".join(["-1"] * n),
         "--action", "0"],
        ["reduce", str(path)],
    )
    for argv in universe_argvs:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: universe cap exceeded: rows={rows} > {UNIVERSE_CAP}\n"
    for argv in (["decide", str(path), "--delta", "0.1"], ["solve", str(path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: brute-force cap exceeded: n={n} > {BRUTE_FORCE_CAP}\n"
    assert combination_calls == []
