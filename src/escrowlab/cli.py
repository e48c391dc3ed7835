"""Command-line front end.

Subcommands:

* solve       one security report for a parameter set
* sweep       CSV of reports over gamma/wager/fee grids
* simulate    repeated contract episodes with scripted strategies
* multiparty  one settlement batch from a payment-matrix file

The parameter flags are the keys of the key=value file format (x, x_seller,
y, gamma, tau, scheme, lambda, omega, ell) and go through the same parser,
so a flag and a file key share one default and one error message (sweep's
--x, --x-seller and --y too); a flag given with --params overrides the
file's key.  Values may be integers,
decimals, or ratios.

A line that names a command is read by that command's parser; any other
line, and one that leaves an argument unrecognized, is read by the top-level
parser, so each usage line, help text and error is argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from .agents import BuyerStrategy, SellerStrategy, simulate, sweep, sweep_csv
from .equilibrium import lambda_interval, security_report
from .ledger import Ledger
from .multiparty import _payment_grid, multiparty_run
from .trade import _KV_KEYS, _SCHEMES, Generic, Standard, as_fraction, params_from_kv, read_kv, wager_class

SELLER_STRATEGIES = {
    "honest": SellerStrategy.honest(),
    "never-send": SellerStrategy(send=False, counter_if_delivered=True, counter_if_undelivered=False),
    "never-counter": SellerStrategy(send=True, counter_if_delivered=False, counter_if_undelivered=False),
    "always-counter": SellerStrategy(send=True, counter_if_delivered=True, counter_if_undelivered=True),
}

BUYER_STRATEGIES = {
    "honest": BuyerStrategy.honest(),
    "always-dispute": BuyerStrategy(dispute_if_delivered=True, dispute_if_undelivered=True),
    "never-dispute": BuyerStrategy(dispute_if_delivered=False, dispute_if_undelivered=False),
}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per key of the parameter-file format; the defaults of the
    flags left out are the file format's."""
    parser.add_argument("--params", type=Path, help="key=value parameter file; the flags given override its keys")
    parser.add_argument("--x", help="price")
    parser.add_argument("--x-seller", help="seller's value of the item (default 0)")
    parser.add_argument("--y", help="buyer's value of the item")
    parser.add_argument("--gamma", help="arbiter error rate (default 0)")
    parser.add_argument("--tau", help="per-move fee (default 0)")
    parser.add_argument("--scheme", help=f"wager scheme: {', '.join(_SCHEMES)} (default {Standard.name})")
    parser.add_argument("--lambda", help="wager size (defaults to the price)")
    parser.add_argument("--omega", help="generic scheme: winner's net gain")
    parser.add_argument("--ell", help="generic scheme: loser's net loss")


def _build_params(args: argparse.Namespace):
    """The parameter file's keys, if one is given, overridden by the flags
    that were given."""
    flags = vars(args)
    values = read_kv(flags["params"].read_text()) if flags.get("params") is not None else {}
    values.update({key: flags[key] for key in _KV_KEYS if flags.get(key) is not None})
    return params_from_kv(values)


def _grid(flag: str, text: str, parse=as_fraction) -> list:
    """The parsed parts of a comma list; an empty part is an error, not a skip."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty value in --{flag} {text!r}")
    return [parse(part) for part in parts]


def _read_matrix(path: Path) -> list[list[str]]:
    """The file's non-blank lines split into cells; the batch checks the shape."""
    return [line.split() for line in path.read_text().splitlines() if line.strip()]


def cmd_solve(args: argparse.Namespace) -> None:
    params, scheme = _build_params(args)
    report = security_report(params, scheme)
    for key, value in report.to_row().items():
        print(f"{key}={value}")
    if not isinstance(scheme, Generic):
        print(f"complete_interval={lambda_interval(params, scheme)}")


def cmd_sweep(args: argparse.Namespace) -> None:
    params, scheme = _build_params(args)
    gammas = _grid("gammas", args.gammas)
    wagers = _grid("lambdas", args.lambdas) if args.lambdas is not None else [scheme.wager]
    fees = _grid("taus", args.taus)
    schemes = _grid("schemes", args.schemes, wager_class)
    sys.stdout.write(sweep_csv(sweep(params, gammas=gammas, wagers=wagers, fees=fees, schemes=schemes)))


def cmd_simulate(args: argparse.Namespace) -> None:
    params, scheme = _build_params(args)
    stats = simulate(
        params, scheme,
        SELLER_STRATEGIES[args.seller],
        BUYER_STRATEGIES[args.buyer],
        trials=args.trials,
        seed=args.seed,
    )
    for key, value in stats.to_row().items():
        print(f"{key}={value}")


def cmd_multiparty(args: argparse.Namespace) -> None:
    rows = _read_matrix(args.matrix)
    n = len(rows)
    zeros = [[0] * n for _ in range(n)]
    disputes = _read_matrix(args.disputes) if args.disputes else zeros
    counters = _read_matrix(args.counters) if args.counters else zeros

    parties = [f"p{i + 1}" for i in range(n)]
    ledger = Ledger(tau=args.tau)
    # Parsed here for the endowments; `multiparty_run` parses the grid again.
    payments, sellers, ints, scale = _payment_grid(n, rows)
    totals = [Fraction(sum([row[j] for j in paid]), scale) for row, paid in zip(ints, sellers)]
    grand_total = sum(totals)
    for name, row_total in zip(parties, totals):
        ledger.open_account(name, 3 * (row_total + grand_total) + 3 * ledger.tau + 1)
    before = [ledger.balance(name) for name in parties]

    result = multiparty_run(
        ledger, parties, payments, disputes, counters, rng=Random(args.seed)
    )
    for i, name in enumerate(parties):
        delta = ledger.balance(name) - before[i]
        sign = f"+{delta}" if delta.numerator > 0 else str(delta)
        moves = ledger.move_counts.get(name, 0)
        print(f"party {name} payout {result.payouts[i]} delta {sign} fee_moves {moves}")
    print(f"arbiter_sink {ledger.arbiter_sink}")
    print(f"fee_sink {ledger.fee_sink}")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `escrowlab` argument parser and, by name, its commands' parsers."""
    parser = argparse.ArgumentParser(
        prog="escrowlab",
        description="Wager-based escrow contract laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="security report for one parameter set")
    _add_param_flags(solve)
    solve.set_defaults(func=cmd_solve)

    sweep_cmd = sub.add_parser("sweep", help="CSV report over parameter grids")
    sweep_cmd.add_argument("--x")
    sweep_cmd.add_argument("--x-seller")
    sweep_cmd.add_argument("--y")
    sweep_cmd.add_argument("--gammas", default=",".join(f"{k}/20" for k in range(20)))
    sweep_cmd.add_argument("--lambdas", default=None, help="comma list; defaults to the price")
    sweep_cmd.add_argument("--taus", default="0")
    sweep_cmd.add_argument("--schemes", default=Standard.name, help="comma list of wager schemes")
    sweep_cmd.set_defaults(func=cmd_sweep)

    sim = sub.add_parser("simulate", help="repeated trades with scripted strategies")
    _add_param_flags(sim)
    sim.add_argument("--seller", default="honest", choices=sorted(SELLER_STRATEGIES))
    sim.add_argument("--buyer", default="honest", choices=sorted(BUYER_STRATEGIES))
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    mp = sub.add_parser("multiparty", help="settle one payment-matrix batch")
    mp.add_argument("--matrix", type=Path, required=True, help="n x n payment grid")
    mp.add_argument("--disputes", type=Path, default=None)
    mp.add_argument("--counters", type=Path, default=None)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--tau", default="0")
    mp.set_defaults(func=cmd_multiparty)

    commands = {"solve": solve, "sweep": sweep_cmd, "simulate": sim, "multiparty": mp}
    for name, command in commands.items():
        command.set_defaults(command=name)  # as the top-level parser records it
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The `escrowlab` argument parser, built on first use and then kept."""
    return _parsers()[0]


def main(argv=None) -> int:
    """Run one subcommand; malformed input or an unreadable file ends it with
    one line, `escrowlab <command>: <message>`, and exit status 1.  `argv`
    defaults to `sys.argv[1:]`.  A line that names a command is read by that
    command's parser; any other line is read by the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    args, extras = command.parse_known_args(argv[1:]) if command else (None, None)
    if command is None or extras:  # argparse's own usage line and error
        args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"escrowlab {args.command}: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
