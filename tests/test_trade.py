from fractions import Fraction
from random import Random

import pytest

from escrowlab.arbiter import arbiter_errs
from escrowlab.equilibrium import lambda_interval
from escrowlab.trade import (
    AffineWager,
    Generic,
    InvalidSchemeError,
    InvalidTradeError,
    Standard,
    TradeParams,
    WinnerRebate,
    Withheld,
    as_fraction,
    params_from_kv,
    read_kv,
)


def test_params_coerce_to_exact_fractions():
    p = TradeParams(price="1", seller_value=0, buyer_value="3/2", arbiter_error=0.25, fee="0.1")
    assert p.buyer_value == Fraction(3, 2)
    assert p.arbiter_error == Fraction(1, 4)
    assert p.fee == Fraction(1, 10)


def test_as_fraction_uses_decimal_repr_for_floats():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("1/3") == Fraction(1, 3)


@pytest.mark.parametrize(
    "price,seller_value,buyer_value",
    [
        (1, 0, 1),    # y == x
        (1, 1, 2),    # x == x'
        (1, 2, 3),    # x < x'
        (2, 1, "3/2"),  # y < x
    ],
)
def test_ill_posed_trades_rejected(price, seller_value, buyer_value):
    with pytest.raises(InvalidTradeError):
        TradeParams(price=price, seller_value=seller_value, buyer_value=buyer_value)


def test_out_of_range_error_rate_and_fee_rejected():
    with pytest.raises(InvalidTradeError):
        TradeParams(price=1, buyer_value=2, arbiter_error="3/2")
    with pytest.raises(InvalidTradeError):
        TradeParams(price=1, buyer_value=2, fee=-1)


BOOLS = {
    "a price": lambda: TradeParams(price=True, buyer_value=2),
    "a buyer value": lambda: TradeParams(price=1, buyer_value=True),
    "an error rate": lambda: TradeParams(price=1, buyer_value=2, arbiter_error=False),
    "a fee": lambda: TradeParams(price=1, buyer_value=2, fee=False),
    "a wager": lambda: Standard(True),
    "a generic payout": lambda: Generic(win_amount=True, loss_amount=1),
    "an oracle's error rate": lambda: arbiter_errs(True, Random(1)),
    "a coerced amount": lambda: as_fraction(False),
}


@pytest.mark.parametrize("make", BOOLS.values(), ids=BOOLS.keys())
def test_a_bool_is_not_a_number(make):
    with pytest.raises(ValueError, match=r"^an amount must be a number, got (True|False)$"):
        make()


def test_a_fraction_is_kept_and_a_wager_has_one_check():
    third = Fraction(1, 3)
    assert as_fraction(third) is third
    assert AffineWager.checked(third) is third and Standard(third).wager is third
    assert AffineWager.checked("0.5") == Fraction(1, 2)
    with pytest.raises(InvalidSchemeError, match="^wager must be > 0, got -1/3$"):
        AffineWager.checked(-third)


def test_named_schemes_require_positive_wager():
    for kind in (Standard, WinnerRebate, Withheld):
        with pytest.raises(InvalidSchemeError):
            kind(0)
        with pytest.raises(InvalidSchemeError):
            kind(-1)


def test_generic_requires_winning_preferred():
    Generic(win_amount=1, loss_amount=1)
    Generic(win_amount="-1/2", loss_amount=1)  # win > -loss still holds
    with pytest.raises(InvalidSchemeError):
        Generic(win_amount=-1, loss_amount=1)
    with pytest.raises(InvalidSchemeError):
        Generic(win_amount=-2, loss_amount=1)


def test_scheme_payout_parameters():
    p = TradeParams(price=4, seller_value=1, buyer_value=9)
    assert Standard(3).win_gain(p) == 4 and Standard(3).loss_cost(p) == 3
    assert WinnerRebate(3).win_gain(p) == 7
    assert Withheld(3).win_gain(p) == 1
    # One affine rule: win = price + slope * wager, stake = loss = wager.
    assert (Standard.slope, WinnerRebate.slope, Withheld.slope) == (0, 1, -1)
    assert WinnerRebate(3).loss_cost(p) == Withheld(3).loss_cost(p) == 3
    g = Generic(win_amount=5, loss_amount=2)
    assert g.win_gain(p) == 5 and g.loss_cost(p) == 2


def test_kv_round_trip_named_scheme():
    p = TradeParams(price=1, seller_value="1/3", buyer_value=2, arbiter_error="1/4", fee="1/10")
    text = "x=1\nx_seller=1/3\ny=2\ngamma=1/4\ntau=1/10\nscheme=standard\nlambda=5/4\n"
    params, scheme = params_from_kv(read_kv(text))
    assert params == p
    assert scheme == Standard(Fraction(5, 4))


def test_kv_round_trip_generic_scheme():
    p = TradeParams(price=2, buyer_value=5)
    text = "x=2\nx_seller=0\ny=5\ngamma=0\ntau=0\nscheme=generic\nomega=3\nell=1\n"
    params, scheme = params_from_kv(read_kv(text))
    assert params == p
    assert scheme == Generic(Fraction(3), Fraction(1))


def test_kv_parsing_tolerates_comments_and_defaults():
    params, scheme = params_from_kv(read_kv("# trade\nx = 1\ny = 2\ngamma = 1/4\n"))
    assert params.arbiter_error == Fraction(1, 4)
    assert params.fee == 0
    assert scheme == Standard(Fraction(1))  # wager defaults to the price


@pytest.mark.parametrize("text", [
    "x=1\ny=2\nbogus=3\n", "x=1 y=2", "y=2\n",
    "x=1\ny=2\nomega=5\nell=3\n", "x=1\ny=2\nscheme=generic\nomega=2\nell=1\nlambda=7\n",
])
def test_kv_parsing_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        params_from_kv(read_kv(text))


def test_kv_parsing_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="duplicate key 'x'"):
        params_from_kv(read_kv("x=1\ny=4\nx=3\n"))


@pytest.mark.parametrize("spelling, kind", [
    ("standard", Standard), ("STANDARD", Standard),
    ("winner_rebate", WinnerRebate), ("winner-rebate", WinnerRebate), ("Winner-Rebate", WinnerRebate),
    ("withheld", Withheld), ("Withheld", Withheld),
])
def test_scheme_names_are_read_from_one_table(spelling, kind):
    # scheme= in a parameter file and lambda_interval take the same spellings.
    params, scheme = params_from_kv(read_kv(f"x=2\ny=3\ngamma=1/4\nscheme={spelling}\nlambda=1\n"))
    assert scheme == kind(1)
    assert lambda_interval(params, spelling) == lambda_interval(params, kind) == lambda_interval(params, scheme)
    with pytest.raises(ValueError, match="unknown scheme"):
        params_from_kv(read_kv(f"x=2\ny=3\nscheme={spelling}x\n"))
