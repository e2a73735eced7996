import argparse
import contextlib
import inspect
import io
import json
import math
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sat2mdp import cli, verify
from sat2mdp.cli import main, parse_state, parse_theta
from sat2mdp.reduction import calibration_t

EXAMPLE1 = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def cnf_path(tmp_path):
    path = tmp_path / "example1.cnf"
    path.write_text(EXAMPLE1)
    return str(path)


@pytest.fixture
def contradiction_path(tmp_path):
    path = tmp_path / "contradiction.cnf"
    path.write_text(CONTRADICTION)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _untimed(verify_out):
    """verify's JSON results without their wall times and measured timings."""
    results = json.loads(verify_out)
    for r in results:
        del r["wall_time_s"], r["measured"]
    return results


class TestThetaParsing:
    def test_sign_shorthand(self):
        assert parse_theta("+-+", 3).theta_prime == (1.0, -1.0, 1.0)

    def test_comma_list(self):
        assert parse_theta("1,0.5,-2", 3).theta_prime == (1.0, 0.5, -2.0)

    def test_json_file(self, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"theta_prime": [1, -1]}))
        assert parse_theta(f"@{path}", 2).theta_prime == (1.0, -1.0)

    @pytest.mark.parametrize("command", ["extract", "eval"])
    @pytest.mark.parametrize(
        "payload",
        [{"theta_prime": 5}, {"theta_prime": None}, {"foo": 1}, [1, 2, 3],
         {"theta_prime": [True, 1, 2]}],
    )
    def test_json_file_without_a_number_list_exit_2(self, capsys, tmp_path, command, payload):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(payload))
        cnf = tmp_path / "example1.cnf"
        cnf.write_text(EXAMPLE1)
        argv = {
            "extract": ["extract", f"--theta=@{path}", "--n", "3"],
            "eval": ["eval", str(cnf), f"--theta=@{path}", "--state=-1,-1,-1", "--action", "1"],
        }[command]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "theta_prime" in err

    def test_length_check(self):
        with pytest.raises(ValueError):
            parse_theta("+-", 3)

    def test_state_parsing(self):
        assert parse_state("1,-1,-1", 3) == (1, -1, -1)
        with pytest.raises(ValueError, match="state has 2 entries, formula needs 3"):
            parse_state("-1,-1", 3)
        with pytest.raises(ValueError, match="prefix form"):
            parse_state("-1,1,-1", 3)


class TestReduce:
    def test_example1_descriptor(self, capsys, cnf_path):
        code, out, err = run(capsys, ["reduce", cnf_path])
        assert code == 0
        data = json.loads(out)
        assert data["H"] == 4 and data["d"] == 27 and data["d_prime"] == 3
        assert data["universe_block_sizes"] == [6, 12, 8]
        assert len(data["universe"]) == 26
        assert data["psp_features"][0]["true"] == [1, 0, 0]
        assert "d=27" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n1 -1 0\n")
        code, _, err = run(capsys, ["reduce", str(path)])
        assert code == 2
        assert "tautolog" in err

    def test_empty_clause_list_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 2 0\n")
        code, _, err = run(capsys, ["reduce", str(path)])
        assert code == 2

    def test_dash_reads_stdin(self, capsys, monkeypatch, cnf_path):
        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE1))
        code, out, err = run(capsys, ["reduce", "-"])
        assert (code, out, err) == run(capsys, ["reduce", cnf_path]) and code == 0

    def test_out_file(self, capsys, cnf_path, tmp_path):
        out_path = tmp_path / "descriptor.json"
        code, out, _ = run(capsys, ["reduce", cnf_path, "--out", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["d"] == 27


class TestEval:
    def test_example1_golden_cell(self, capsys, cnf_path):
        code, out, err = run(
            capsys,
            ["eval", cnf_path, "--theta", "+++", "--state=1,-1,-1", "--action", "0"],
        )
        assert code == 0
        assert "q = 1/2, dot = 1/2" in err
        data = json.loads(out)
        assert data["q"] == "1/2" and data["dot"] == "1/2"

    def test_root_all_true(self, capsys, cnf_path):
        code, out, _ = run(
            capsys,
            ["eval", cnf_path, "--theta", "1,1,1", "--state=-1,-1,-1", "--action", "1"],
        )
        assert code == 0
        assert json.loads(out)["q"] == "1/1"

    def test_softmax_decimal(self, capsys, cnf_path):
        code, out, _ = run(
            capsys,
            ["eval", cnf_path, "--theta", "0,0,0", "--class", "softmax",
             "--state=-1,-1,-1", "--action", "1"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["q"] == pytest.approx(0.875, abs=1e-12)
        assert data["dot"] == pytest.approx(0.875, abs=1e-9)

    def test_terminal_state_exit_2(self, capsys, cnf_path):
        code, _, err = run(
            capsys,
            ["eval", cnf_path, "--theta", "+++", "--state=1,0,1", "--action", "0"],
        )
        assert code == 2

    @pytest.mark.parametrize("policy_class", ["greedy", "softmax"])
    def test_wrong_length_state_exit_2(self, capsys, cnf_path, policy_class):
        code, out, err = run(
            capsys,
            ["eval", cnf_path, "--theta", "0.5,0.5,0.5", "--class", policy_class,
             "--state=-1,-1", "--action", "1"],
        )
        assert code == 2 and out == ""
        assert "state has 2 entries, formula needs 3" in err

    @pytest.mark.parametrize("policy_class", ["greedy", "softmax"])
    def test_all_negative_signs_for_two_variables(self, capsys, tmp_path, policy_class):
        # argparse reads a lone '--' as the end of options; --theta=-- is still theta
        path = tmp_path / "two.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
        tail = ["--class", policy_class, "--state=-1,-1", "--action", "0"]
        code, out, err = run(capsys, ["eval", str(path), "--theta=--"] + tail)
        assert code == 0, err
        assert run(capsys, ["eval", str(path), "--theta=-1,-1"] + tail) == (code, out, err)


class TestDecide:
    def test_yes_exit_0(self, capsys, cnf_path):
        code, out, err = run(
            capsys, ["decide", cnf_path, "--delta", "0.1", "--epsilon", "0.05"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["decision"] == "Yes" and data["achieved_fraction"] == "1/1"
        assert err.startswith("Yes")

    def test_no_exit_1(self, capsys, contradiction_path):
        code, out, _ = run(
            capsys, ["decide", contradiction_path, "--delta", "0.1", "--epsilon", "0.05"]
        )
        assert code == 1
        assert json.loads(out)["achieved_fraction"] == "1/2"

    def test_brute_force_cap_exit_2(self, capsys, tmp_path):
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 25 25\n" + "".join(f"{v} 0\n" for v in range(1, 26)))
        started = time.perf_counter()
        code, _, err = run(capsys, ["decide", str(path), "--delta", "0.1"])
        assert code == 2 and "cap" in err
        assert time.perf_counter() - started < 5.0

    def test_cap_exit_2_before_universe(self, capsys, tmp_path, monkeypatch):
        def refuse(n):
            raise AssertionError(f"clause universe built for n={n}")

        monkeypatch.setattr("sat2mdp.mdp.enumerate_universe", refuse)
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 30 30\n" + "".join(f"{v} 0\n" for v in range(1, 31)))
        for argv in (["decide", str(path), "--delta", "0.1"], ["solve", str(path)]):
            code, _, err = run(capsys, argv)
            assert code == 2 and "cap" in err

    def test_precondition_exit_2(self, capsys, cnf_path):
        code, _, err = run(
            capsys, ["decide", cnf_path, "--delta", "0.1", "--epsilon", "0.2"]
        )
        assert code == 2
        assert "delta/2" in err

    def test_softmax_class(self, capsys, cnf_path):
        code, out, err = run(
            capsys,
            ["decide", cnf_path, "--delta", "0.1", "--epsilon", "0.05",
             "--class", "softmax", "--mode", "sample", "--seed", "5"],
        )
        assert code == 0
        assert json.loads(out)["policy_class"] == "softmax"
        assert "note:" not in err

    @pytest.mark.parametrize("flags, noted", [
        (["--mode", "round"], ["--mode"]),
        (["--seed", "5"], ["--seed"]),
        (["--seed", "5", "--mode", "round"], ["--mode", "--seed"]),
        (["--mode", "sample", "--seed", "0"], []),
    ])
    def test_greedy_notes_each_softmax_flag_off_its_default(self, capsys, cnf_path, flags,
                                                            noted):
        # greedy decide reads neither flag: one stderr note each, output unchanged
        argv = ["decide", cnf_path, "--delta", "0.1", "--class", "greedy"]
        code, out, err = run(capsys, argv + flags)
        assert (code, out) == run(capsys, argv)[:2] and code == 0
        notes = [line for line in err.splitlines() if line.startswith("note:")]
        assert notes == [
            f"note: decide --class greedy does not read {flag}; it is ignored" for flag in noted
        ]


class TestSolveAndExtract:
    def test_solve_example1(self, capsys, cnf_path):
        code, out, _ = run(capsys, ["solve", cnf_path])
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "1/1"
        assert len(data["assignment"]) == 3

    @pytest.mark.parametrize(
        "declared", ["-3", "99999999999999999999"], ids=["negative", "huge"]
    )
    def test_bad_header_variable_count_exit_2(self, capsys, tmp_path, declared):
        path = tmp_path / "header.cnf"
        path.write_text(f"p cnf {declared} 1\n1 0\n")
        code, out, err = run(capsys, ["solve", str(path)])
        assert code == 2 and out == ""
        assert f"line 1: 'p cnf' header declares n={declared}" in err

    def test_solve_reads_a_byte_order_mark(self, capsys, tmp_path, cnf_path):
        path = tmp_path / "bom.cnf"
        path.write_bytes(b"\xef\xbb\xbf" + EXAMPLE1.encode())
        assert run(capsys, ["solve", str(path)]) == run(capsys, ["solve", cnf_path])

    def test_extract_greedy(self, capsys):
        code, out, _ = run(capsys, ["extract", "--theta=-+-", "--n", "3"])
        assert code == 0
        assert json.loads(out)["assignment"] == [0, 1, 0]

    def test_extract_all_negative_signs_for_two_variables(self, capsys):
        code, out, err = run(capsys, ["extract", "--theta=--", "--n", "2"])
        assert code == 0, err
        assert json.loads(out)["assignment"] == [0, 0]

    def test_extract_softmax_sample(self, capsys):
        code, out, _ = run(
            capsys,
            ["extract", "--theta", "20,20,20", "--n", "3", "--class", "softmax",
             "--mode", "sample", "--seed", "3"],
        )
        assert code == 0
        assert json.loads(out)["assignment"] == [1, 1, 1]


class TestBound:
    def test_mcdiarmid_t0(self, capsys):
        code, out, _ = run(capsys, ["bound", "--kind", "mcdiarmid", "--t", "0",
                                    "--H", "4", "--b", "3", "--C", "10"])
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    @pytest.mark.parametrize("t", ["nan", "-0.5"])
    def test_mcdiarmid_t_not_a_number_at_least_0(self, capsys, t):
        code, out, err = run(capsys, ["bound", "--kind", "mcdiarmid", "--t", t])
        assert code == 2 and out == ""
        assert err == f"error: t must be a number >= 0, got {float(t)}\n"

    def test_mcdiarmid_t_inf(self, capsys):
        code, out, _ = run(capsys, ["bound", "--kind", "mcdiarmid", "--t", "inf"])
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_greedy_eps(self, capsys):
        code, out, _ = run(capsys, ["bound", "--kind", "greedy-eps", "--delta", "0.1"])
        assert code == 0
        assert json.loads(out)["value"] == "1/20"

    def test_unread_flags_get_a_note_each(self, capsys):
        # --b is not read either, but at its default it draws no note
        code, out, err = run(capsys, ["bound", "--kind", "greedy-eps", "--t", "5", "--H", "9",
                                      "--v-star", "2", "--b", "1"])
        assert (code, out) == run(capsys, ["bound", "--kind", "greedy-eps"])[:2] and code == 0
        assert err == "".join(
            f"note: bound --kind greedy-eps does not read {flag}; it is ignored\n"
            for flag in ("--t", "--H", "--v-star")
        )

    @pytest.mark.parametrize("argv", [
        ["mcdiarmid", "--t", "0.5", "--H", "4", "--b", "3", "--C", "10"],
        ["calibration-t", "--H", "4", "--b", "3", "--C", "10", "--p0", "0.25"],
        ["greedy-eps", "--delta", "0.2"],
        ["softmax-eps", "--v-star", "1", "--H", "11", "--b", "3", "--C", "1000",
         "--delta", "0.1", "--p0", "0.25"],
    ])
    def test_own_flags_get_no_note(self, capsys, argv):
        code, _, err = run(capsys, ["bound", "--kind"] + argv)
        assert (code, err) == (0, "")

    def test_softmax_eps_requires_v_star(self, capsys):
        code, _, err = run(capsys, ["bound", "--kind", "softmax-eps"])
        assert code == 2 and "v-star" in err

    def test_softmax_eps(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "--kind", "softmax-eps", "--v-star", "1", "--H", "11",
             "--b", "3", "--C", "1000", "--delta", "0.1"],
        )
        assert code == 0
        assert json.loads(out)["value"] > 0

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_value_not_finite_exit_2(self, capsys, monkeypatch, value):
        # no input makes a bound function return a non-finite float today;
        # the guard keeps NaN and Infinity out of strict JSON should one do so
        monkeypatch.setattr(cli, "mcdiarmid_tail", lambda t, H, b, C: value)
        code, out, err = run(capsys, ["bound", "--kind", "mcdiarmid"])
        assert (code, out, err) == (2, "", f"error: bound is not finite: {value}\n")

    def test_unknown_kind_is_refused(self, capsys):
        kinds = "'mcdiarmid', 'calibration-t', 'greedy-eps', 'softmax-eps'"
        code, out, err = run(capsys, ["bound", "--kind", "nope"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --kind: invalid choice: 'nope' (choose from {kinds})\n")
        # a direct caller's unknown kind is an error too, never another kind's bound
        with pytest.raises(KeyError, match="nope"):
            cli.cmd_bound(argparse.Namespace(kind="nope"))


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "{cnf}", "--delta", "1/0"],
        ["decide", "{cnf}", "--delta", "1/10", "--p0", "1/0"],
        ["bound", "--kind", "softmax-eps", "--v-star", "1/0"],
        ["bound", "--kind", "mcdiarmid", "--t", "nan"],
        ["bound", "--kind", "mcdiarmid", "--t", "1", "--C", "9" * 401],
        ["bound", "--kind", "calibration-t", "--H", str(10**320)],
        ["bound", "--kind", "softmax-eps", "--v-star", "1e400"],
        ["bound", "--kind", "softmax-eps", "--v-star", "1", "--p0", "1e-320", "--C", "5"],
        ["decide", "{cnf}", "--delta=--"],
        ["bound", "--kind", "softmax-eps", "--v-star=--"],
        ["verify", "--suites", "roundtrip", "--count", "1", "--n", "3", "--delta", "3/4"],
        ["decide", "{cnf}", "--delta", "1/10", "--p0", "1e-320"],
    ],
)
def test_hostile_number_exit_2(capsys, cnf_path, argv):
    # a zero denominator, a NaN, a value too large for a float, a bound that
    # is not finite, a '--' value or a delta outside a suite's premise is a
    # user error: exit 2 with one
    # line, no traceback, and for decide not the exit 1 that means "No"
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("v_star", ["2", "-5", "1e308", "1e400"])
@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "{cnf}", "--delta", "1/10", "--class", "softmax", "--epsilon", "1e300"],
        ["decide", "{cnf}", "--delta", "1/10"],
        ["bound", "--kind", "softmax-eps"],
    ],
)
def test_v_star_outside_unit_interval_exit_2(capsys, cnf_path, argv, v_star):
    # the MDP's values lie in [0, 1]: a v* above 1 would pass the softmax
    # budget check for any epsilon, and 1e400 does not fit a float; the
    # greedy chain reads no v*, but one supplied is checked all the same
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv]
                         + [f"--v-star={v_star}"])
    assert code == 2 and out == ""
    assert err == f"error: v* must be in [0, 1], got {v_star}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "1/0", "--", "1/2/3"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["decide", "{cnf}", "--delta", "1/10", "--class", "softmax"], "--v-star"),
        (["decide", "{cnf}", "--delta", "1/10"], "--v-star"),
        (["decide", "{cnf}"], "--delta"),
        (["decide", "{cnf}", "--delta", "1/10"], "--epsilon"),
        (["decide", "{cnf}", "--delta", "1/10", "--class", "softmax"], "--p0"),
        (["bound", "--kind", "softmax-eps"], "--v-star"),
        (["bound", "--kind", "greedy-eps"], "--delta"),
        (["verify", "--suites", "roundtrip", "--count", "1", "--n", "3"], "--epsilon"),
        (["bound", "--kind", "calibration-t"], "--p0"),
    ],
)
def test_unreadable_exact_value_names_its_flag(capsys, cnf_path, argv, flag, value):
    # a value that is no exact number is refused before any work, in one
    # line that names the flag rather than the Fraction parser's complaint
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv]
                         + [f"{flag}={value}"])
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be an exact number such as 1/10 or 0.1, got {value!r}\n"


@pytest.mark.parametrize("kind", ["calibration-t", "softmax-eps"])
def test_bound_p0_reads_exact_text(capsys, kind):
    # bound reads --p0 as decide does: 1/8 and 0.125 are one value
    argv = ["bound", "--kind", kind, "--v-star", "1", "--H", "4", "--b", "3", "--C", "10"]
    outs = [run(capsys, argv + ["--p0", p0]) for p0 in ("1/8", "0.125")]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_decide_underflowing_delta_is_positive(capsys, cnf_path):
    # 1e-400 is a positive delta, though it rounds to the float 0.0: the
    # softmax chain reports its budget, not a nonpositive delta
    code, out, err = run(capsys, ["decide", cnf_path, "--delta", "1e-400", "--class",
                                  "softmax", "--v-star", "1", "--epsilon", "1e-500"])
    assert code == 2 and out == ""
    assert err.startswith("error: softmax chain infeasible: epsilon budget ")


def test_bound_underflowing_delta_is_positive(capsys):
    code, out, _ = run(capsys, ["bound", "--kind", "softmax-eps", "--v-star", "1",
                                "--delta", "1e-400"])
    assert code == 0
    assert json.loads(out)["value"] == 1.0 + 0.0 - calibration_t(1, 1, 1, 0.125) - 1.0


def test_bound_overflowing_delta_names_delta(capsys):
    code, out, err = run(capsys, ["bound", "--kind", "softmax-eps", "--v-star", "1",
                                  "--delta", "1e400"])
    assert code == 2 and out == ""
    assert err == "error: delta is too large for a float: 1e400\n"


P0_READERS = [
    ["decide", "{cnf}", "--delta", "1/10"],
    ["bound", "--kind", "calibration-t"],
    ["bound", "--kind", "softmax-eps", "--v-star", "1"],
]


@pytest.mark.parametrize("argv", P0_READERS)
def test_underflowing_p0_names_p0(capsys, cnf_path, argv):
    # 1e-400 is a positive p0, though it rounds to the float 0.0: the
    # message says that, not that p0 is outside (0, 1)
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv]
                         + ["--p0", "1e-400"])
    assert code == 2 and out == ""
    assert err == "error: p0 is too small for a float: 1e-400\n"


@pytest.mark.parametrize("argv", P0_READERS)
def test_overflowing_p0_names_p0(capsys, cnf_path, argv):
    # 1e400 is checked against (0, 1) exactly, before a float conversion
    # that would overflow
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv]
                         + ["--p0", "1e400"])
    assert code == 2 and out == ""
    assert err == "error: p0 must be in (0, 1), got 1e400\n"


@pytest.mark.parametrize("argv", P0_READERS)
def test_p0_rounding_to_1_names_p0(capsys, cnf_path, argv):
    # a p0 just below 1 is in (0, 1), though it rounds to the float 1.0: the
    # message says that, not that p0 is outside (0, 1)
    p0 = "0.99999999999999999999999"
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv] + ["--p0", p0])
    assert code == 2 and out == ""
    assert err == f"error: p0 is too close to 1 for a float: {p0}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decide", "{cnf}", "--delta", "1/10", "--class", "softmax", "--mode", "sample",
          "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        # greedy decide reads no seed, but one supplied is checked all the same
        (["decide", "{cnf}", "--delta", "1/10", "--seed", "-1"],
         "--seed must be a non-negative integer, got -1"),
        (["extract", "--theta=+", "--n", "1", "--class", "softmax", "--mode", "sample",
          "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["verify", "--suites", "scaling", "--seed", "-1"],
         "--seed must be a non-negative integer, got -1"),
        (["eval", "{cnf}", "--theta=+++", "--state=0,x,-1", "--action", "0"],
         "--state must be comma-separated integers, got '0,x,-1'"),
        (["extract", "--theta=+", "--n", "0"], "--n must be at least 1, got 0"),
    ],
)
def test_integer_flag_names_itself(capsys, cnf_path, argv, message):
    # refused before any work, in one line that names the flag rather than
    # numpy's or int()'s complaint
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extract", "--theta=", "--n", "2"], "--theta must be a sign pattern such as +-+, "
         "comma-separated numbers or @file.json, got ''"),
        (["eval", "{cnf}", "--theta=1,,2", "--state=-1,-1,-1", "--action", "0"],
         "--theta must be a sign pattern such as +-+, comma-separated numbers or @file.json, "
         "got '1,,2'"),
        (["extract", "--theta=nan", "--n", "1"], "--theta entries must be finite floats, got 'nan'"),
        (["extract", "--theta=1e999,1", "--n", "2"],
         "--theta entries must be finite floats, got '1e999,1'"),
        (["extract", "--theta=@{dir}/huge.json", "--n", "1"],
         "--theta entries must be finite floats, got '@{dir}/huge.json'"),
        (["extract", "--theta=@{dir}/bad.json", "--n", "2"], "--theta file {dir}/bad.json is not "
         "readable JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["extract", "--theta=@{dir}/empty.json", "--n", "2"], "--theta file {dir}/empty.json: "
         "expected an object with a non-empty theta_prime number list"),
        (["eval", "{cnf}", "--theta=+-", "--state=-1,-1,-1", "--action", "0"],
         "--theta has 2 entries, expected n=3"),
    ],
)
def test_theta_names_itself(capsys, cnf_path, tmp_path, argv, message):
    # every refusal of --theta names the flag, never float()'s or json's
    # complaint alone
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "empty.json").write_text('{"theta_prime": []}')
    (tmp_path / "huge.json").write_text('{"theta_prime": [%d]}' % 10**400)
    code, out, err = run(capsys, [part.format(cnf=cnf_path, dir=tmp_path) for part in argv])
    assert code == 2 and out == ""
    assert err == f"error: {message.format(dir=tmp_path)}\n"


@pytest.mark.parametrize("flag", ["--H", "--b", "--C"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--kind", "mcdiarmid", "--t", "0.1"],
        ["bound", "--kind", "calibration-t"],
        ["bound", "--kind", "softmax-eps", "--v-star", "1"],
    ],
)
def test_size_too_large_for_a_float_names_its_flag(capsys, argv, flag):
    huge = str(10**400)
    code, out, err = run(capsys, argv + [flag, huge])
    assert code == 2 and out == ""
    assert err == f"error: {flag[2:]} is too large for a float: {huge}\n"


def test_tail_denominator_too_large_for_a_float(capsys):
    # H and b each fit a float, but H b^2 does not
    big = str(10**200)
    code, out, err = run(capsys, ["bound", "--kind", "mcdiarmid", "--t", "0.1",
                                  "--H", big, "--b", big])
    assert code == 2 and out == ""
    assert err == f"error: H * b^2 is too large for a float: H={big}, b={big}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suites", "softmax", "--n-max=--", "--formulas", "1", "--thetas", "1"],
        ["eval", "{cnf}", "--theta", "+++", "--state=-1,-1,-1", "--action=--"],
        ["decide", "{cnf}", "--delta", "1/10", "--class=--"],
        ["bound", "--kind=--"],
    ],
)
def test_double_dash_value_is_type_checked(capsys, cnf_path, argv):
    # argparse hands --flag=-- over as an empty list, past the flag's type
    # and choices; it is read as '--' and refused with argparse's usage error
    code, out, err = run(capsys, [part.format(cnf=cnf_path) for part in argv])
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and err.rstrip().endswith("'--'")


# hostile values tried on every flag; "1e-320" is subnormal, so its
# reciprocal overflows, and "1e308" overflows when squared or doubled; "--"
# is argparse's end-of-options marker in the separate form and a value in
# the --flag=value form
HUGE = "9" * 401
HOSTILE = ("", "1/0", "nan", "inf", "-inf", "-0", "-1", "1e-320", "1e308", "1e400", HUGE, "--")
CLASSES = ("greedy", "softmax")
# per subcommand: its positional CNF path or not, and each flag's ordinary
# values (--out is left out: it only moves stdout into a file)
ARGV_TABLE = {
    "reduce": (True, {}),
    "solve": (True, {}),
    "eval": (True, {
        "--theta": ("+-+", "0.5,-1,2", "+-", "--", "1,1,1,1"),
        "--class": CLASSES,
        "--state": ("-1,-1,-1", "1,-1,-1", "0,1,-1", "1,0,1", "-1,-1"),
        "--action": ("0", "1"),
    }),
    "decide": (True, {
        "--delta": ("1/10", "0.5", "3/4"),
        "--epsilon": ("1/20", "0.01", "1/2"),
        "--class": CLASSES,
        "--mode": ("round", "sample"),
        "--seed": ("0", "7"),
        "--p0": ("1/8", "0.5"),
        "--v-star": ("1", "0.9"),
    }),
    "extract": (False, {
        "--theta": ("+-+", "0.5,-1,2", "--"),
        "--n": ("3", "2"),
        "--class": CLASSES,
        "--mode": ("round", "sample"),
        "--seed": ("0", "3"),
    }),
    "bound": (False, {
        "--kind": ("mcdiarmid", "calibration-t", "greedy-eps", "softmax-eps"),
        "--t": ("0.5", "0"),
        "--H": ("4", "11"),
        "--b": ("3", "1"),
        "--C": ("2", "1000"),
        "--p0": ("0.125", "0.5"),
        "--delta": ("1/10", "0.3"),
        "--v-star": ("1", "0.2"),
    }),
    "verify": (False, {
        # scaling is left out: it reads no size flag and times itself for
        # about a second
        "--suites": ("greedy", "softmax", "roundtrip", "greedy,softmax", "nope", ","),
        "--n-max": ("1", "2", "3", "4"),
        "--formulas": ("1", "2"),
        "--thetas": ("1", "2"),
        "--tol": ("1e-9", "0"),
        "--count": ("1", "2"),
        "--n": ("1", "2", "3", "4"),
        "--delta": ("1/10", "1/4", "3/4"),
        "--epsilon": ("1/20", "0"),
        "--seed": ("0", "1"),
    }),
}
REQUIRED = {"eval": {"--theta", "--state", "--action"}, "decide": {"--delta"},
            "extract": {"--theta", "--n"}, "bound": {"--kind"}}
# verify always names these, so no suite falls back to its full default sweep;
# a huge count would loop for ever, so they never take HUGE
VERIFY_SIZES = ("--n-max", "--formulas", "--thetas", "--count", "--n")
CHOICE_FLAGS = ("--kind", "--class", "--mode", "--suites")


def hostile_values(command, flag):
    if command == "verify" and flag in VERIFY_SIZES[1:]:
        return tuple(v for v in HOSTILE if v != HUGE)
    return HOSTILE


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_TABLE)))
    takes_cnf, table = ARGV_TABLE[command]
    required = REQUIRED.get(command, set())
    present = [
        flag for flag in table
        if (command == "verify" and flag in VERIFY_SIZES)
        or draw(st.integers(0, 9)) > (0 if flag in required else 5)
    ]
    argv = [command] + (["{cnf}"] if takes_cnf and draw(st.integers(0, 9)) else [])
    for flag in draw(st.permutations(present)):
        hostile = hostile_values(command, flag)
        # one value in four is hostile, so most draws also get past parsing
        value = draw(st.sampled_from(hostile if not draw(st.integers(0, 3)) else table[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def hostile_sweep():
    """Every hostile value on every flag of every command, once per combination
    of the command's choice flags; each other flag takes its first ordinary value."""
    for command, (takes_cnf, table) in ARGV_TABLE.items():
        for flag in table:
            others = [f for f in table if f in CHOICE_FLAGS and f != flag]
            for picks in product(*(table[f] for f in others)):
                values = {f: table[f][0] for f in table} | dict(zip(others, picks))
                for value in hostile_values(command, flag):
                    values[flag] = value
                    yield [command] + (["{cnf}"] if takes_cnf else []) + [
                        f"{f}={v}" for f, v in values.items()
                    ]


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def failed_suite(argv, payload):
    """verify's JSON is a list of suite results, at least one not passed."""
    return (
        argv[0] == "verify"
        and isinstance(payload, list)
        and any(result.get("passed") is False for result in payload)
    )


def argv_fault(argv):
    """How ``main(argv)`` breaks the clean-exit invariants, or None.

    main returns 0, 1 or 2 without raising; 1 only from decide with a "No"
    report or from verify with a failed suite; stdout is empty or strict
    JSON, and empty, with a message on stderr, on exit 2.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out = out.getvalue()
        payload = json.loads(out, parse_constant=_no_constant) if out else None
    except Exception as exc:  # a fault to report with its argv, not to stop at
        return f"raised {exc!r}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    no = argv[0] == "decide" and (payload or {}).get("decision") == "No"
    if code == 1 and not (no or failed_suite(argv, payload)):
        return f"exit 1 without a No decision or a failed suite: {out!r}"
    if code == 2 and (out or not err.getvalue()):
        return f"exit 2 with stdout {out!r} and stderr {err.getvalue()!r}"
    return None


@pytest.fixture(scope="module")
def example1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "example1.cnf"
    path.write_text(EXAMPLE1)
    return str(path)


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_any_argv_exits_cleanly(example1_file, argv):
    argv = [part.format(cnf=example1_file) for part in argv]
    fault = argv_fault(argv)
    assert fault is None, (argv, fault)


def test_every_hostile_value_on_every_flag(example1_file):
    # the property draws a given value on a given flag rarely; this reaches
    # each one on every flag, deterministically
    argvs = [[part.format(cnf=example1_file) for part in argv] for argv in hostile_sweep()]
    faults = [(argv, fault) for argv in argvs if (fault := argv_fault(argv))]
    assert len(argvs) == 1548
    assert not faults


def test_verify_exit_1_with_a_failed_suite_is_clean():
    # --tol 0 leaves no room for the rounding between a softmax q and its
    # dot product, so the softmax suite fails and verify rightly exits 1
    argv = ["verify", "--formulas", "2", "--count", "1", "--thetas", "1", "--n", "1",
            "--delta", "1/10", "--n-max", "4", "--tol", "0"]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 1
    assert failed_suite(argv, json.loads(out.getvalue()))
    assert argv_fault(argv) is None


class TestVerifyCommand:
    def test_greedy_suite_exit_0(self, capsys):
        code, out, err = run(
            capsys,
            ["verify", "--suites", "greedy", "--n-max", "3", "--formulas", "3"],
        )
        assert code == 0
        results = json.loads(out)
        assert results[0]["suite"] == "realizability_greedy"
        assert results[0]["passed"] is True
        assert "pass" in err

    def test_unknown_suite_exit_2(self, capsys):
        code, _, err = run(capsys, ["verify", "--suites", "nope"])
        assert code == 2
        assert "unknown suite" in err

    def test_unknown_suite_runs_nothing(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(verify.SUITES, "greedy", lambda **kwargs: calls.append(kwargs))
        code, out, err = run(capsys, ["verify", "--suites", "greedy,nope"])
        assert code == 2 and out == ""
        assert "unknown suite 'nope'" in err
        assert calls == []

    def test_parser_suite_names_are_the_suites(self):
        # the parser names the suites without importing verify; the names
        # are verify's, in its order, so --suites' default and help match it
        assert cli._SUITE_NAMES == tuple(verify.SUITES)
        assert cli.build_parser().parse_args(["verify"]).suites == ",".join(verify.SUITES)

    def test_flag_table_keywords_are_suite_parameters(self):
        # a suite keyword renamed away from the table would turn its flag
        # into an "ignored" note on every run
        parameters = set()
        for suite in verify.SUITES.values():
            parameters |= set(inspect.signature(suite).parameters)
        assert set(cli._SUITE_KEYWORDS) == set(cli._VERIFY_FLAGS)
        for flag, key in cli._SUITE_KEYWORDS.items():
            assert key in parameters, flag

    def test_scaling_reports_every_slope_and_timing(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "SCALING_N_LIST", (2, 4))
        code, out, _ = run(capsys, ["verify", "--suites", "scaling"])
        # a slope timed at these sizes may fail its cap; the report is the same
        assert code in (0, 1)
        (measured,) = [r["measured"] for r in json.loads(out)]
        items = {"universe", "features", "greedy_weights", "softmax_weights"}
        assert set(measured["slopes"]) == items
        assert {k: len(v) for k, v in measured["timings_s"].items()} == dict.fromkeys(items, 2)

    def test_suite_parameters_are_flag_table_keywords(self):
        # a suite setting without a flag is a module constant in verify
        keywords = set(cli._SUITE_KEYWORDS.values())
        for name, suite in verify.SUITES.items():
            assert set(inspect.signature(suite).parameters) <= keywords, name

    def test_parser_options_are_the_flag_table(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {s for action in sub.choices["verify"]._actions for s in action.option_strings}
        assert options == {"-h", "--help", "--suites", "--out", *cli._VERIFY_FLAGS}

    def test_nan_tolerance_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            ["verify", "--suites", "softmax", "--n-max", "1", "--formulas", "1",
             "--thetas", "1", "--tol", "nan"],
        )
        assert code == 2 and out == ""
        assert "tol must be finite and >= 0, got nan" in err

    @pytest.mark.parametrize("suites", ["", ","])
    def test_no_suites_exit_2(self, capsys, suites):
        code, out, err = run(capsys, ["verify", "--suites", suites])
        assert code == 2 and out == ""
        assert "no suites" in err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--suites", "greedy", "--n-max", "0"], "n_max"),
            (["--suites", "greedy", "--n-max", "-3"], "n_max"),
            (["--suites", "greedy", "--formulas", "0"], "formulas_per_n"),
            (["--suites", "softmax", "--thetas", "0"], "thetas_per_formula"),
            (["--suites", "roundtrip", "--count", "0"], "count"),
        ],
    )
    def test_empty_sweep_exit_2(self, capsys, flags, name):
        code, out, err = run(capsys, ["verify", *flags])
        assert code == 2 and out == ""
        assert f"{name} must be at least 1" in err

    def test_softmax_clamp_named(self, capsys):
        code, out, err = run(
            capsys,
            ["verify", "--suites", "softmax", "--n-max", "6", "--formulas", "1",
             "--thetas", "1"],
        )
        assert code == 0
        assert json.loads(out)[0]["params"]["n_max"] == 5
        assert "--n-max 5, not 6" in err

    @pytest.mark.parametrize(
        "read, unread",
        [
            (["--suites", "roundtrip", "--count", "1", "--n", "3"],
             [("--n-max", "3"), ("--thetas", "2"), ("--tol", "0.5")]),
            (["--suites", "greedy", "--n-max", "1", "--formulas", "1"],
             [("--count", "5"), ("--epsilon", "1/40")]),
            (["--suites", "greedy,roundtrip", "--n-max", "1", "--count", "1", "--n", "3"], []),
        ],
    )
    def test_unread_flags_named(self, capsys, read, unread):
        # one note per flag that no named suite reads; exit code and
        # results are those of the run without it
        extra = [part for pair in unread for part in pair]
        code, out, err = run(capsys, ["verify", *read, *extra])
        notes = [line for line in err.splitlines() if "none of the named suites" in line]
        assert notes == [
            f"note: none of the named suites reads {flag}; it is ignored" for flag, _ in unread
        ]
        plain_code, plain_out, plain_err = run(capsys, ["verify", *read])
        assert "none of the named suites" not in plain_err
        assert code == plain_code == 0
        assert _untimed(out) == _untimed(plain_out)


# per command: its argv before the selection, and an off-default value for
# each flag of its flag table, in the table's order
NOTE_COMMANDS = {
    "decide": (["decide", "{cnf}", "--delta", "0.1", "--epsilon", "0.05"],
               {"--mode": "round", "--seed": "5"}),
    "extract": (["extract", "--theta=1,-1,1", "--n", "3"], {"--mode": "sample", "--seed": "4"}),
    "bound": (["bound"], {"--t": "0.5", "--H": "4", "--b": "3", "--C": "10", "--p0": "0.25",
                          "--delta": "0.2", "--v-star": "1"}),
    "verify": (["verify"], {"--n-max": "1", "--formulas": "1", "--thetas": "1", "--tol": "1e-9",
                            "--count": "1", "--n": "3", "--delta": "1/10", "--epsilon": "1/20",
                            "--seed": "1"}),
}
NOTE_TABLES = {"decide": cli._DECIDE_FLAGS, "extract": cli._EXTRACT_FLAGS,
               "bound": cli._BOUND_FLAGS, "verify": cli._VERIFY_FLAGS}
# (command, selection argv, a note's words before its flag, the table flags
# the selection reads)
SELECTIONS = [
    ("decide", ["--class", "greedy"], "decide --class greedy does not read", ()),
    ("decide", ["--class", "softmax", "--mode", "round"],
     "decide --class softmax --mode round does not read", ("--mode",)),
    ("decide", ["--class", "softmax", "--mode", "sample"], None, ("--mode", "--seed")),
    ("extract", ["--class", "greedy"], "extract --class greedy does not read", ()),
    ("extract", ["--class", "softmax", "--mode", "round"],
     "extract --class softmax --mode round does not read", ("--mode",)),
    ("extract", ["--class", "softmax", "--mode", "sample"], None, ("--mode", "--seed")),
    ("bound", ["--kind", "mcdiarmid"], "bound --kind mcdiarmid does not read",
     ("--t", "--H", "--b", "--C")),
    ("bound", ["--kind", "calibration-t"], "bound --kind calibration-t does not read",
     ("--H", "--b", "--C", "--p0")),
    ("bound", ["--kind", "greedy-eps"], "bound --kind greedy-eps does not read", ("--delta",)),
    ("bound", ["--kind", "softmax-eps"], "bound --kind softmax-eps does not read",
     ("--H", "--b", "--C", "--p0", "--delta", "--v-star")),
    ("verify", ["--suites", "greedy"], "none of the named suites reads",
     ("--n-max", "--formulas", "--seed")),
    ("verify", ["--suites", "softmax"], "none of the named suites reads",
     ("--n-max", "--formulas", "--thetas", "--tol", "--seed")),
    ("verify", ["--suites", "scaling"], "none of the named suites reads", ("--seed",)),
    ("verify", ["--suites", "roundtrip"], "none of the named suites reads",
     ("--count", "--n", "--delta", "--epsilon", "--seed")),
]


@pytest.mark.parametrize("command, selection, reader, reads", SELECTIONS,
                         ids=[" ".join([command, *selection]) for command, selection, *_
                              in SELECTIONS])
def test_each_unread_flag_gets_one_note(capsys, monkeypatch, cnf_path, command, selection,
                                        reader, reads):
    # every table flag off its default: one note for each that the selection
    # does not read, in table order; stdout and the exit code are those of
    # the run with only the flags it reads, which draws no note
    monkeypatch.setattr(verify, "SCALING_N_LIST", (2, 4))
    monkeypatch.setattr(verify, "SCALING_GREEDY_SLOPE_MAX", math.inf)
    monkeypatch.setattr(verify, "SCALING_SOFTMAX_SLOPE_MAX", math.inf)
    before, values = NOTE_COMMANDS[command]
    assert list(values) == list(NOTE_TABLES[command])
    argv = [part.format(cnf=cnf_path) for part in before] + selection
    flags = [flag for flag in values if flag not in selection]
    unread = [flag for flag in flags if flag not in reads]
    read_argv = [part for flag in flags if flag in reads for part in (flag, values[flag])]
    code, out, err = run(capsys, argv + [part for flag in flags for part in (flag, values[flag])])
    plain_code, plain_out, plain_err = run(capsys, argv + read_argv)
    notes = [line for line in err.splitlines() if line.startswith("note:")]
    assert notes == [f"note: {reader} {flag}; it is ignored" for flag in unread]
    assert "note:" not in plain_err
    assert code == plain_code == 0
    if command == "verify":
        out, plain_out = _untimed(out), _untimed(plain_out)
    assert out == plain_out


class TestParserReuse:
    def test_no_option_leaks_between_calls(self, capsys, tmp_path, monkeypatch):
        # main() reuses one parser per process; each call must see only its
        # own options, as a freshly built parser would
        path = tmp_path / "two.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
        sequence = [
            ["eval", str(path), "--theta=--", "--state=-1,-1", "--action", "0"],
            ["extract", "--theta=+-", "--n", "2"],
            ["decide", str(path), "--delta", "0.1", "--class", "softmax"],
        ]
        reused = [run(capsys, argv) for argv in sequence]
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, argv) for argv in sequence]
        assert reused == fresh
        assert all(code in (0, 1) for code, _, _ in reused)


class TestDeterminism:
    def test_exact_paths_byte_identical(self, capsys, cnf_path):
        argv = ["decide", cnf_path, "--delta", "0.1", "--epsilon", "0.05"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        argv = ["reduce", cnf_path]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
