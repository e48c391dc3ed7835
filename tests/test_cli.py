import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import escrowlab
from escrowlab.cli import build_parser, main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_solve_prints_the_flat_report(capsys):
    out = run_cli(capsys, "solve", "--x", "1", "--y", "2", "--gamma", "1/4", "--lambda", "1")
    lines = out.strip().splitlines()
    assert "gamma=1/4" in lines
    assert "complete=true" in lines
    assert "eps_max=1/2" in lines
    assert "strong=true" in lines
    assert "complete_interval=(1/3, 3)" in lines


def test_solve_reads_a_parameter_file(tmp_path, capsys):
    path = tmp_path / "trade.kv"
    path.write_text("x=1\nx_seller=0\ny=2\ngamma=1/2\nscheme=standard\nlambda=1\n")
    out = run_cli(capsys, "solve", "--params", str(path))
    assert "complete=false" in out
    assert "weak=true" in out


def test_solve_requires_enough_flags():
    with pytest.raises(SystemExit):
        main(["solve", "--x", "1"])


def test_flags_and_parameter_files_share_defaults_and_errors(tmp_path, capsys):
    path = tmp_path / "trade.kv"
    path.write_text("x=3\ny=5\n")
    assert run_cli(capsys, "solve", "--x", "3", "--y", "5") == run_cli(capsys, "solve", "--params", str(path))
    for flags, text in (
        (["--x", "1", "--y", "2", "--scheme", "bogus"], "x=1\ny=2\nscheme=bogus\n"),
        (["--x", "1", "--y", "2", "--scheme", "generic", "--omega", "1"], "x=1\ny=2\nscheme=generic\nomega=1\n"),
        (["--x", "1"], "x=1\n"),
        (["--x", "1", "--y", "2", "--omega", "5", "--ell", "3"], "x=1\ny=2\nomega=5\nell=3\n"),
        (
            ["--x", "1", "--y", "2", "--scheme", "generic", "--omega", "2", "--ell", "1", "--lambda", "7"],
            "x=1\ny=2\nscheme=generic\nomega=2\nell=1\nlambda=7\n",
        ),
    ):
        path.write_text(text)
        with pytest.raises(SystemExit) as by_flags:
            main(["solve", *flags])
        with pytest.raises(SystemExit) as by_file:
            main(["solve", "--params", str(path)])
        assert by_flags.value.code == by_file.value.code


def test_flags_override_the_keys_of_a_parameter_file(tmp_path, capsys):
    path = tmp_path / "trade.kv"
    path.write_text("x=1\ny=2\ngamma=1/4\nlambda=1\n")
    lines = run_cli(capsys, "solve", "--params", str(path), "--gamma", "1/2").splitlines()
    assert "gamma=1/2" in lines
    assert "lambda=1" in lines  # the file's keys that no flag names still hold
    assert run_cli(capsys, "solve", "--params", str(path), "--gamma", "1/2", "--x", "3", "--y", "5") == run_cli(
        capsys, "solve", "--x", "3", "--y", "5", "--gamma", "1/2", "--lambda", "1"
    )
    path.write_text("x=1\ny=2\nscheme=bogus\n")
    with pytest.raises(SystemExit, match="unknown scheme 'bogus'"):
        main(["solve", "--params", str(path)])
    assert "scheme=withheld" in run_cli(capsys, "solve", "--params", str(path), "--scheme", "withheld").splitlines()


def test_sweep_emits_the_csv_schema(capsys):
    out = run_cli(
        capsys, "sweep", "--x", "1", "--y", "2",
        "--gammas", "0,1/4,1/2", "--lambdas", "1",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,lambda,tau,scheme,complete,eps_max,strong,weak"
    assert lines[1] == "0,1,0,standard,true,1,true,true"
    assert lines[2] == "1/4,1,0,standard,true,1/2,true,true"
    assert lines[3] == "1/2,1,0,standard,false,,false,true"


def test_scheme_flags_accept_the_spellings_of_params_files(capsys):
    out = run_cli(
        capsys, "sweep", "--x", "1", "--y", "2", "--gammas", "0", "--lambdas", "1",
        "--schemes", "winner-rebate,Withheld",
    )
    assert out.splitlines()[1:] == ["0,1,0,winner_rebate,true,1,true,true", "0,1,0,withheld,false,,false,true"]
    out = run_cli(capsys, "solve", "--x", "1", "--y", "2", "--scheme", "Winner-Rebate")
    assert "scheme=winner_rebate" in out.splitlines()


def test_a_scheme_name_may_have_spaces_around_it_as_a_number_may(capsys):
    # "0, 1/4" is read as "0,1/4"; "standard, winner_rebate" likewise.
    grid = ["sweep", "--x", "3/2", "--y", "4", "--lambdas", "1/2,1", "--taus", "0,1/100"]
    tight = run_cli(capsys, *grid, "--gammas", "0,1/4", "--schemes", "standard,winner_rebate")
    spaced = run_cli(capsys, *grid, "--gammas", "0, 1/4", "--schemes", "standard, winner_rebate")
    assert spaced.encode() == tight.encode() and tight.count("winner_rebate") == 8
    solve = ["solve", "--x", "1", "--y", "2", "--gamma", "1/4"]
    assert run_cli(capsys, *solve, "--scheme", " standard") == run_cli(capsys, *solve, "--scheme", "standard")


def test_sweep_rejects_the_generic_scheme_by_name():
    with pytest.raises(SystemExit, match="escrowlab sweep: Generic schemes have no single wager"):
        main(["sweep", "--x", "1", "--y", "2", "--schemes", "generic"])
    with pytest.raises(SystemExit, match="unknown scheme 'bogus'"):
        main(["sweep", "--x", "1", "--y", "2", "--schemes", "standard,bogus"])


def test_simulate_is_deterministic(capsys):
    args = [
        "simulate", "--x", "1", "--y", "2", "--gamma", "1/4", "--lambda", "1",
        "--seller", "honest", "--buyer", "always-dispute",
        "--trials", "200", "--seed", "7",
    ]
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    assert "dispute_rate=1" in first


def test_simulate_readme_command_output_is_pinned(capsys):
    out = run_cli(
        capsys, "simulate", "--x", "1", "--y", "2", "--gamma", "1/4", "--lambda", "1",
        "--buyer", "always-dispute", "--trials", "10000", "--seed", "7",
    )
    assert out == (
        "trials=10000\n"
        "mean_buyer_payoff=-618/625\n"
        "mean_seller_payoff=309/625\n"
        "dispute_rate=1\n"
        "arbitration_rate=1\n"
        "fees_total=0\n"
    )


@pytest.mark.parametrize("gamma, buyer, seller", [("0", "-2", "1"), ("1", "2", "-1")])
def test_simulate_at_a_certain_oracle_is_pinned(capsys, gamma, buyer, seller):
    # At gamma 0 the oracle always rules for the honest seller, at gamma 1
    # always against: every trial is one class and no error bit is drawn.
    out = run_cli(
        capsys, "simulate", "--x", "1", "--y", "2", "--gamma", gamma, "--lambda", "1",
        "--seller", "always-counter", "--buyer", "always-dispute", "--trials", "1000", "--seed", "5",
    )
    assert out == (
        "trials=1000\n"
        f"mean_buyer_payoff={buyer}\n"
        f"mean_seller_payoff={seller}\n"
        "dispute_rate=1\n"
        "arbitration_rate=1\n"
        "fees_total=0\n"
    )


def test_simulate_honest_pair(capsys):
    out = run_cli(
        capsys, "simulate", "--x", "1", "--y", "2", "--trials", "10", "--seed", "1",
    )
    assert "mean_buyer_payoff=1" in out
    assert "mean_seller_payoff=1" in out


def test_multiparty_from_files(tmp_path, capsys):
    (tmp_path / "pay.txt").write_text("0 3\n5 0\n")
    (tmp_path / "disputes.txt").write_text("0 1\n0 0\n")
    out = run_cli(
        capsys, "multiparty",
        "--matrix", str(tmp_path / "pay.txt"),
        "--disputes", str(tmp_path / "disputes.txt"),
        "--seed", "3",
    )
    # p1's dispute is uncountered (price + wager back) and its 5-sale pays out.
    assert "party p1 payout 11 delta +5 fee_moves 3" in out
    assert "party p2 payout 0 delta -5 fee_moves 1" in out
    assert "arbiter_sink 0" in out


# stdout byte for byte as the dense, per-cell settlement printed it.
def test_multiparty_with_disputes_counters_and_fees_is_pinned(tmp_path, capsys):
    (tmp_path / "pay.txt").write_text("0 1 3\n1 0 0\n4 1/2 0\n")
    (tmp_path / "disputes.txt").write_text("0 1 0\n0 0 0\n1 0 0\n")
    (tmp_path / "counters.txt").write_text("0 0 1\n1 0 0\n0 0 0\n")
    out = run_cli(
        capsys, "multiparty",
        "--matrix", str(tmp_path / "pay.txt"),
        "--disputes", str(tmp_path / "disputes.txt"),
        "--counters", str(tmp_path / "counters.txt"),
        "--tau", "1/10", "--seed", "3",
    )
    assert out == (
        "party p1 payout 9 delta -2/5 fee_moves 4\n"
        "party p2 payout 5/2 delta +1/5 fee_moves 3\n"
        "party p3 payout 3 delta -29/5 fee_moves 3\n"
        "arbiter_sink 5\n"
        "fee_sink 1\n"
    )


# Prices and fee on pairwise coprime denominators (3, 7, 11 and 13), so the
# ledger's amounts share no scale; stdout byte for byte as the parent
# ledger, which added reduced pairs, printed it.
def test_multiparty_on_coprime_denominators_is_pinned(tmp_path, capsys):
    (tmp_path / "pay.txt").write_text("0 1/3 2/7 5/11\n5/11 0 1/3 0\n2/7 5/11 0 1/3\n1/3 0 2/7 0\n")
    (tmp_path / "disputes.txt").write_text("0 1 0 1\n0 0 1 0\n1 0 0 0\n0 0 1 0\n")
    (tmp_path / "counters.txt").write_text("0 0 1 0\n1 0 0 0\n0 1 0 1\n1 0 0 0\n")
    out = run_cli(
        capsys, "multiparty",
        "--matrix", str(tmp_path / "pay.txt"),
        "--disputes", str(tmp_path / "disputes.txt"),
        "--counters", str(tmp_path / "counters.txt"),
        "--tau", "1/13", "--seed", "3",
    )
    assert out == (
        "party p1 payout 524/231 delta -80/429 fee_moves 4\n"
        "party p2 payout 37/33 delta -25/39 fee_moves 4\n"
        "party p3 payout 32/21 delta -109/143 fee_moves 4\n"
        "party p4 payout 1/3 delta -1335/1001 fee_moves 4\n"
        "arbiter_sink 391/231\n"
        "fee_sink 16/13\n"
    )


# Prices and fee spelled as decimals, so each cell is parsed to its own
# reduced denominator (2, 4 and 10; the fee 20); stdout byte for byte as
# the per-step integer sums printed it.
def test_multiparty_with_decimal_prices_is_pinned(tmp_path, capsys):
    (tmp_path / "pay.txt").write_text("0 0.5 1.25 0.1\n2.75 0 0.5 0\n0.1 2.75 0 1.25\n1.25 0 0.5 0\n")
    (tmp_path / "disputes.txt").write_text("0 1 0 1\n0 0 1 0\n1 0 0 1\n0 0 1 0\n")
    (tmp_path / "counters.txt").write_text("0 0 1 0\n1 0 0 1\n0 1 0 0\n1 0 1 0\n")
    out = run_cli(
        capsys, "multiparty",
        "--matrix", str(tmp_path / "pay.txt"),
        "--disputes", str(tmp_path / "disputes.txt"),
        "--counters", str(tmp_path / "counters.txt"),
        "--tau", "0.05", "--seed", "3",
    )
    assert out == (
        "party p1 payout 22/5 delta +33/20 fee_moves 4\n"
        "party p2 payout 15/4 delta -7/10 fee_moves 4\n"
        "party p3 payout 9/4 delta -39/10 fee_moves 4\n"
        "party p4 payout 7/2 delta -3/10 fee_moves 4\n"
        "arbiter_sink 49/20\n"
        "fee_sink 4/5\n"
    )


def test_a_zero_price_prints_the_same_however_it_is_spelled(tmp_path, capsys):
    # A zero price is no trade, whichever way the matrix spells it.
    (tmp_path / "disputes.txt").write_text("0 1 0\n0 0 0\n1 0 0\n")
    (tmp_path / "counters.txt").write_text("0 0 1\n1 0 0\n0 0 0\n")
    outs = []
    for zero in ("0", "00", "0/1", "0.0"):
        (tmp_path / "pay.txt").write_text(f"{zero} 1 3\n1 {zero} {zero}\n4 1/2 {zero}\n")
        outs.append(run_cli(
            capsys, "multiparty",
            "--matrix", str(tmp_path / "pay.txt"),
            "--disputes", str(tmp_path / "disputes.txt"),
            "--counters", str(tmp_path / "counters.txt"),
            "--tau", "1/10", "--seed", "3",
        ))
    assert outs == [outs[0]] * 4 and outs[0].startswith("party p1 payout 9 delta -2/5 fee_moves 4\n")


def test_multiparty_rejects_ragged_matrices(tmp_path):
    (tmp_path / "bad.txt").write_text("0 1\n2\n")
    with pytest.raises(SystemExit):
        main(["multiparty", "--matrix", str(tmp_path / "bad.txt")])


# The README `solve` and `sweep` commands and a three-scheme, two-fee sweep,
# stdout byte for byte as the code printed it before the scheme and tree
# tables (the CSV writer ends rows with \r\n).
def test_solve_readme_command_output_is_pinned(capsys):
    out = run_cli(capsys, "solve", "--x", "1", "--y", "2", "--gamma", "1/4", "--lambda", "1")
    assert out == (
        "gamma=1/4\n"
        "lambda=1\n"
        "tau=0\n"
        "scheme=standard\n"
        "complete=true\n"
        "eps_max=1/2\n"
        "strong=true\n"
        "weak=true\n"
        "complete_interval=(1/3, 3)\n"
    )


def test_solve_of_an_incomplete_setup_is_pinned(capsys):
    # A fee of 2 on a price of 1 fails a wager-free row: no verdict holds.
    out = run_cli(capsys, "solve", "--x", "1", "--y", "2", "--gamma", "1/4", "--tau", "2", "--lambda", "1")
    assert out == (
        "gamma=1/4\n"
        "lambda=1\n"
        "tau=2\n"
        "scheme=standard\n"
        "complete=false\n"
        "eps_max=\n"
        "strong=false\n"
        "weak=false\n"
        "complete_interval=(empty)\n"
    )


@pytest.mark.parametrize(
    "scheme, eps_max, interval",
    [("winner_rebate", "27/200", "(73/100, +inf)"), ("withheld", "23/200", "(73/200, 223/200)")],
)
def test_solve_of_a_slope_scheme_with_a_fee_is_pinned(capsys, scheme, eps_max, interval):
    # The winner nets the price plus or minus the wager, and every
    # non-default move pays the fee.
    out = run_cli(
        capsys, "solve", "--x", "3/2", "--y", "4", "--gamma", "1/4", "--tau", "1/100", "--lambda", "1",
        "--scheme", scheme,
    )
    assert out == (
        "gamma=1/4\n"
        "lambda=1\n"
        "tau=1/100\n"
        f"scheme={scheme}\n"
        "complete=true\n"
        f"eps_max={eps_max}\n"
        "strong=true\n"
        "weak=true\n"
        f"complete_interval={interval}\n"
    )


def test_sweep_readme_command_output_is_pinned(capsys):
    out = run_cli(
        capsys, "sweep", "--x", "1", "--y", "2", "--gammas", "0,1/10,1/4,1/2", "--lambdas", "1/2,1,2",
    )
    assert out == (
        "gamma,lambda,tau,scheme,complete,eps_max,strong,weak\r\n"
        "0,1/2,0,standard,true,1/2,true,true\r\n"
        "0,1,0,standard,true,1,true,true\r\n"
        "0,2,0,standard,true,1,true,true\r\n"
        "1/10,1/2,0,standard,true,7/20,true,true\r\n"
        "1/10,1,0,standard,true,4/5,true,true\r\n"
        "1/10,2,0,standard,true,7/10,true,true\r\n"
        "1/4,1/2,0,standard,true,1/8,true,true\r\n"
        "1/4,1,0,standard,true,1/2,true,true\r\n"
        "1/4,2,0,standard,true,1/4,true,true\r\n"
        "1/2,1/2,0,standard,false,,false,false\r\n"
        "1/2,1,0,standard,false,,false,true\r\n"
        "1/2,2,0,standard,false,,false,false\r\n"
    )


def test_sweep_over_all_three_wager_schemes_and_two_fees_is_pinned(capsys):
    out = run_cli(
        capsys, "sweep", "--x", "1", "--y", "2", "--gammas", "1/10,1/4", "--lambdas", "1/2,2",
        "--schemes", "standard,winner_rebate,withheld", "--taus", "0,1/10",
    )
    assert out == (
        "gamma,lambda,tau,scheme,complete,eps_max,strong,weak\r\n"
        "1/10,1/2,0,standard,true,7/20,true,true\r\n"
        "1/10,2,0,standard,true,7/10,true,true\r\n"
        "1/10,1/2,1/10,standard,true,9/20,true,true\r\n"
        "1/10,2,1/10,standard,true,3/5,true,true\r\n"
        "1/4,1/2,0,standard,true,1/8,true,true\r\n"
        "1/4,2,0,standard,true,1/4,true,true\r\n"
        "1/4,1/2,1/10,standard,true,9/40,true,true\r\n"
        "1/4,2,1/10,standard,true,3/20,true,true\r\n"
        "1/10,1/2,0,winner_rebate,true,3/10,true,true\r\n"
        "1/10,2,0,winner_rebate,true,3/2,true,true\r\n"
        "1/10,1/2,1/10,winner_rebate,true,2/5,true,true\r\n"
        "1/10,2,1/10,winner_rebate,true,8/5,true,true\r\n"
        "1/4,1/2,0,winner_rebate,false,,false,true\r\n"
        "1/4,2,0,winner_rebate,true,3/4,true,true\r\n"
        "1/4,1/2,1/10,winner_rebate,true,1/10,true,true\r\n"
        "1/4,2,1/10,winner_rebate,true,17/20,true,true\r\n"
        "1/10,1/2,0,withheld,true,2/5,true,true\r\n"
        "1/10,2,0,withheld,false,,false,false\r\n"
        "1/10,1/2,1/10,withheld,true,3/10,true,true\r\n"
        "1/10,2,1/10,withheld,false,,false,false\r\n"
        "1/4,1/2,0,withheld,true,1/4,true,true\r\n"
        "1/4,2,0,withheld,false,,false,false\r\n"
        "1/4,1/2,1/10,withheld,true,3/20,true,true\r\n"
        "1/4,2,1/10,withheld,false,,false,false\r\n"
    )


def test_sweep_with_incomplete_rows_that_keep_a_bound_is_pinned(capsys):
    # At tau = 1/10, above x - x' = 1/20, delivery is not worth the fee: a row
    # is incomplete while its dispute layer still bounds every deviation.
    out = run_cli(
        capsys, "sweep", "--x", "1", "--x-seller", "19/20", "--y", "2", "--gammas", "0,1/4", "--lambdas", "1,3",
        "--taus", "0,1/10",
    )
    assert out == (
        "gamma,lambda,tau,scheme,complete,eps_max,strong,weak\r\n"
        "0,1,0,standard,true,1,true,true\r\n"
        "0,3,0,standard,true,1,true,true\r\n"
        "0,1,1/10,standard,false,9/10,false,false\r\n"
        "0,3,1/10,standard,false,9/10,false,false\r\n"
        "1/4,1,0,standard,true,1/2,true,true\r\n"
        "1/4,3,0,standard,false,,false,true\r\n"
        "1/4,1,1/10,standard,false,2/5,false,false\r\n"
        "1/4,3,1/10,standard,false,,false,false\r\n"
    )


# Malformed input ends the command with one line on stderr and exit status 1.
MALFORMED = {
    "ill-posed trade": (
        ["solve", "--x", "2", "--y", "1"],
        "escrowlab solve: need buyer_value > price > seller_value, got 1 / 2 / 0",
    ),
    "unknown scheme in a file": (
        ["solve", "--params", "bogus.kv"],
        "escrowlab solve: unknown scheme 'bogus' (known: standard, winner_rebate, withheld, generic)",
    ),
    "parameter file line without an equals sign": (
        ["solve", "--params", "spaced.kv"],
        "escrowlab solve: expected key=value, got 'x 1'",
    ),
    "unparsable grid": (
        ["sweep", "--x", "1", "--y", "2", "--gammas", "abc"],
        "escrowlab sweep: Invalid literal for Fraction: 'abc'",
    ),
    "underscore in a grid": (
        ["sweep", "--x", "1", "--y", "2", "--gammas", "1/4", "--lambdas", "1_000"],
        "escrowlab sweep: Invalid literal for Fraction: '1_000'",
    ),
    "sweep of an ill-posed trade with no gammas": (
        ["sweep", "--x", "2", "--y", "1", "--gammas", ""],
        "escrowlab sweep: need buyer_value > price > seller_value, got 1 / 2 / 0",
    ),
    "empty part in a grid": (
        ["sweep", "--x", "1", "--y", "2", "--gammas", "1/4,,1/2"],
        "escrowlab sweep: empty value in --gammas '1/4,,1/2'",
    ),
    "empty fee grid": (
        ["sweep", "--x", "1", "--y", "2", "--taus", ""],
        "escrowlab sweep: empty value in --taus ''",
    ),
    "wager grid of empty parts": (
        ["sweep", "--x", "1", "--y", "2", "--lambdas", ","],
        "escrowlab sweep: empty value in --lambdas ','",
    ),
    "empty part in the wager grid": (
        ["sweep", "--x", "1", "--y", "2", "--lambdas", "1,,2"],
        "escrowlab sweep: empty value in --lambdas '1,,2'",
    ),
    "zero in the wager grid": (
        ["sweep", "--x", "1", "--y", "2", "--lambdas", "1,0"],
        "escrowlab sweep: wager must be > 0, got 0",
    ),
    "trailing comma in the schemes": (
        ["sweep", "--x", "1", "--y", "2", "--schemes", "standard,"],
        "escrowlab sweep: empty value in --schemes 'standard,'",
    ),
    "sweep without a price": (
        ["sweep", "--y", "2"],
        "escrowlab sweep: missing key 'x'",
    ),
    "missing matrix file": (
        ["multiparty", "--matrix", "missing.txt"],
        "escrowlab multiparty: [Errno 2] No such file or directory: 'missing.txt'",
    ),
    "unparsable matrix entry": (
        ["multiparty", "--matrix", "letters.txt"],
        "escrowlab multiparty: payments entries must be rationals >= 0",
    ),
    "negative matrix entry": (
        ["multiparty", "--matrix", "negative.txt"],
        "escrowlab multiparty: payments entries must be rationals >= 0",
    ),
    "self-payment in the matrix": (
        ["multiparty", "--matrix", "self.txt"],
        "escrowlab multiparty: self-payments are not allowed",
    ),
    "zero denominator in the price": (
        ["solve", "--x", "1/0", "--y", "2"],
        "escrowlab solve: a rational needs a nonzero denominator, got '1/0'",
    ),
    "zero denominator in the error rates": (
        ["sweep", "--x", "1", "--y", "2", "--gammas", "1/0"],
        "escrowlab sweep: a rational needs a nonzero denominator, got '1/0'",
    ),
    "zero denominator in a matrix entry": (
        ["multiparty", "--matrix", "zero.txt"],
        "escrowlab multiparty: payments entries must be rationals >= 0",
    ),
    "ragged payments file": (
        ["multiparty", "--matrix", "ragged.txt"],
        "escrowlab multiparty: payments must be 2x2",
    ),
    "disputes file of another size": (
        ["multiparty", "--matrix", "pay.txt", "--disputes", "three.txt"],
        "escrowlab multiparty: disputes must be 2x2",
    ),
    "empty matrix file": (
        ["multiparty", "--matrix", "empty.txt"],
        "escrowlab multiparty: need at least two parties",
    ),
}


@pytest.mark.parametrize("argv, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_ends_in_one_named_line(tmp_path, argv, message):
    (tmp_path / "bogus.kv").write_text("x=1\ny=2\nscheme=bogus\n")
    (tmp_path / "spaced.kv").write_text("x 1\ny=2\n")
    (tmp_path / "letters.txt").write_text("0 x\n1 0\n")
    (tmp_path / "negative.txt").write_text("0 -5\n0 0\n")
    (tmp_path / "zero.txt").write_text("0 1/0\n0 0\n")
    (tmp_path / "self.txt").write_text("0 1\n0 2\n")
    (tmp_path / "pay.txt").write_text("0 1\n0 0\n")
    (tmp_path / "ragged.txt").write_text("0 1\n2\n")
    (tmp_path / "three.txt").write_text("0 1 0\n0 0 0\n0 0 0\n")
    (tmp_path / "empty.txt").write_text("\n \n")
    src = str(Path(escrowlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "escrowlab.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message + "\n")


# Each line as `main` reads it and as the nested parsers read it: the
# top-level parser's `parse_args`, then the command it names.  Exit status,
# stdout and stderr must match, and for a line that runs, the namespace its
# command was given.  argparse words usage lines and errors differently across
# Python versions, so the reference is argparse on the running Python.
REFERENCE = {
    "no arguments": [],
    "top-level help": ["-h"],
    "unknown command": ["nosuch"],
    "double dash first": ["--", "sweep", "--x", "1", "--y", "2"],
    "trailing positional": ["sweep", "--x", "1", "--y", "2", "--gammas", "0", "extra"],
    "unknown flag": ["sweep", "--bogus", "3"],
    "flag after a double dash": ["sweep", "--", "--x", "1"],
    "flag without its value": ["sweep", "--x", "1", "--y", "2", "--lambdas"],
    "choice out of range": ["simulate", "--x", "1", "--y", "2", "--seller", "bogus"],
    "solve help": ["solve", "--help"],
    "sweep help": ["sweep", "--help"],
    "simulate help": ["simulate", "--help"],
    "multiparty help": ["multiparty", "--help"],
    "solve": ["solve", "--x", "1", "--y", "2", "--gamma", "1/4", "--lambda", "1"],
    "sweep": ["sweep", "--x", "1", "--y", "2", "--gammas", "0,1/4", "--lambdas", "1/2,1", "--taus", "0,1/10"],
    "simulate": ["simulate", "--x", "1", "--y", "2", "--buyer", "always-dispute", "--trials", "20", "--seed", "7"],
    "multiparty": ["multiparty", "--matrix", "pay.txt", "--disputes", "disputes.txt", "--tau", "1/10", "--seed", "3"],
}


@pytest.mark.parametrize("argv", REFERENCE.values(), ids=REFERENCE.keys())
def test_a_line_reads_as_the_nested_parsers_read_it(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # fixes the help text's wrapping
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pay.txt").write_text("0 1 3\n1 0 0\n4 1/2 0\n")
    (tmp_path / "disputes.txt").write_text("0 1 0\n0 0 0\n1 0 0\n")
    parsed = []  # every parse's namespace; the outermost parse returns last
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recorded(self, *args, **kwargs):
        namespace, extras = parse_known_args(self, *args, **kwargs)
        parsed.append(namespace)
        return namespace, extras

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)

    def nested(argv):
        args = build_parser().parse_args(argv)
        args.func(args)
        return 0

    def outcome(run):
        parsed.clear()
        try:
            status, namespace = run(list(argv)), vars(parsed[-1])
        except SystemExit as exc:
            status, namespace = exc.code, None
        out, err = capsys.readouterr()
        return status, out, err, namespace

    assert outcome(main) == outcome(nested)
