"""The paper's closed forms, proven on finite grids rather than sampled.

Every slack of the security report is a polynomial in the trade's inputs
(x', x, y, gamma, tau, lambda) with degree at most 1 in each of them:
`gametree._leaf_table` only adds and multiplies, with no branch on a value,
and each named scheme's win (x + slope * lambda) and loss (lambda) are
affine in the wager.  A polynomial of degree at most d in each of k
variables that vanishes on a product grid of d + 1 distinct values per
variable is zero everywhere: fix all but one variable, and a one-variable
polynomial of degree at most d with d + 1 roots is zero; induct on k.  So an
identity below whose two sides have degree at most 1 in each input, checked
at every point of a grid of two values per input, holds for every rational
input, not only for the points a `hypothesis` draw happens to reach.

The grid lies inside the valid domain (y > x > x' >= 0, gamma in [0, 1],
tau >= 0, lambda > 0).  The slacks are read through `agents.sweep`, so each
margin form's evaluation down a row's wagers is checked at every grid point
of each affine scheme.
"""

import itertools
from fractions import Fraction

from escrowlab.agents import sweep
from escrowlab.equilibrium import (
    BUYER_ACCEPTS,
    BUYER_DISPUTES,
    CONSTRAINTS,
    DISPUTE_LAYER,
    SELLER_COUNTERS,
    SELLER_FORFEITS,
    SELLER_SENDS,
    generic_impossibility,
    lambda_interval,
)
from escrowlab.trade import TradeParams, wager_class

from test_equilibrium import NAIVE_NAMES, naive_node_margins

# Two values per input, one more than every identity's degree bound of 1.
SELLER_VALUES = (Fraction(0), Fraction(1, 4))
PRICES = (Fraction(1, 2), Fraction(3, 2))
BUYER_VALUES = (Fraction(2), Fraction(7, 2))
GAMMAS = (Fraction(1, 5), Fraction(2, 3))
FEES = (Fraction(0), Fraction(1, 10))
WAGERS = (Fraction(1, 3), Fraction(5, 2))
SCHEMES = ("standard", "winner_rebate", "withheld")


def grid_reports():
    """(The trade, the report) at every point of the product grid, for each
    affine scheme, the reports read through `sweep`."""
    points = []
    for xs, x, y in itertools.product(SELLER_VALUES, PRICES, BUYER_VALUES):
        trade = TradeParams(price=x, seller_value=xs, buyer_value=y)
        points += [(trade, report) for report in sweep(trade, GAMMAS, WAGERS, FEES, SCHEMES)]
    assert len(points) == 2 ** 6 * len(SCHEMES)
    return points


def test_the_seller_dispute_margins_sum_to_the_generic_impossibility_form():
    # counter + forfeit = (1 - 2 gamma)(omega + ell), omega the winner's net
    # and ell the loser's stake, the fee cancelling.  Degree at most 1 in each
    # input on both sides: the slacks as above, and the right side a product
    # of a form in gamma alone and one in (x, lambda) alone.
    for trade, report in grid_reports():
        omega = trade.price + wager_class(report.scheme).slope * report.wager
        ell, gamma = report.wager, report.gamma
        slacks = report.slacks
        assert slacks[SELLER_COUNTERS] + slacks[SELLER_FORFEITS] == (1 - 2 * gamma) * (omega + ell), report
        assert generic_impossibility(omega, ell, gamma) == (gamma < Fraction(1, 2))


def test_the_third_dispute_layer_row_is_the_second_plus_the_buyers_item_value():
    # buyer-accepts-delivery = dishonest-seller-forfeits + y (1 - gamma).
    # Degree at most 1 in each input on both sides: the slacks as above, and
    # y (1 - gamma) a product of a form in y alone and one in gamma alone.
    for trade, report in grid_reports():
        slacks = report.slacks
        assert slacks[BUYER_ACCEPTS] == slacks[SELLER_FORFEITS] + trade.buyer_value * (1 - report.gamma), report


#: How each slack holds the fee: the counter, a buyer's dispute and the
#: seller's send each cost their mover one fee, and the forfeit and the
#: accept are each the free default against a fee-bearing deviation.
FEE_SIGNS = {SELLER_COUNTERS: -1, SELLER_FORFEITS: 1, BUYER_ACCEPTS: 1, BUYER_DISPUTES: -1, SELLER_SENDS: -1}


def test_each_slack_takes_the_fee_exactly_once():
    # Criterion 6: slack(tau) = slack(0) + sign * tau, each sign +1 or -1.
    # Degree at most 1 in each input on both sides: the slacks as above, and
    # sign * tau linear in tau alone.
    points = grid_reports()
    free = {}
    for trade, report in points:
        if report.fee == 0:
            free[trade, report.gamma, report.wager, report.scheme] = report.slacks
    for trade, report in points:
        base = free[trade, report.gamma, report.wager, report.scheme]
        assert report.slacks == {name: base[name] + sign * report.fee for name, sign in FEE_SIGNS.items()}, report
    assert len(free) == 2 ** 5 * len(SCHEMES)


def test_each_slack_is_its_naive_formula():
    # The five slacks equal `naive_node_margins`, each margin written out by
    # hand in tests/test_equilibrium.py.  Both sides have degree at most 1
    # in each input: the formulas multiply gamma into the win and loss, each
    # affine in (x, lambda), and add x, x', y and tau in linearly.
    for trade, report in grid_reports():
        params = TradeParams(trade.price, trade.seller_value, trade.buyer_value, report.gamma, report.fee)
        naive = naive_node_margins(params, wager_class(report.scheme)(report.wager))
        assert report.slacks == {NAIVE_NAMES[node]: margin for node, margin in naive.items()}, report


def test_the_matching_wagers_counter_row_is_the_strength_bound_less_one_fee():
    # Criteria 2 and 6: under `Standard` at wager = price, the counter slack
    # is x (1 - 2 gamma) - tau.  With lambda = x substituted, a slack of
    # degree at most 1 in x and in lambda has degree at most 2 in x, so the
    # grid takes three prices; every other input keeps degree at most 1.
    prices = (*PRICES, Fraction(1))
    points = 0
    for xs, x, y in itertools.product(SELLER_VALUES, prices, BUYER_VALUES):
        trade = TradeParams(price=x, seller_value=xs, buyer_value=y)
        for report in sweep(trade, GAMMAS, [x], FEES, ["standard"]):
            assert report.slacks[SELLER_COUNTERS] == x * (1 - 2 * report.gamma) - report.fee, report
            points += 1
    assert points == 2 * 3 * 2 * 2 * 2


#: The soundness levels the interval is asked for, beside completeness (None).
EPSILONS = (None, Fraction(1, 20), Fraction(1, 3))


def test_each_finite_bound_of_the_wager_interval_is_a_root_of_one_margin_form():
    # A `lambda_interval` bound is (eps - constant) / coeff for one margin
    # form constant + coeff * lambda, eps = 0 when complete: a ratio of two
    # polynomials in the inputs.  Cross-multiplied, the bound is a root:
    # constant + coeff * bound == eps, for a rising form (coeff > 0) at the
    # lower bound and a falling one at the upper.  Each form is read off
    # `naive_node_margins` at two wagers, the margins being affine in the
    # wager.  Both grid gammas keep every wager-dependent coeff nonzero
    # ((1 - gamma) * slope - gamma for the counter, 1 - gamma - gamma * slope
    # for the other two dispute rows), so each root is defined.  At each
    # bound of a non-empty interval, the lower one included when it is the
    # positivity bound 0, every form the interval is asked about reads at
    # least eps: the lower bound is the largest root of a rising form, the
    # upper the smallest root of a falling one.
    roots, empty = {1: 0, -1: 0}, 0
    for xs, x, y in itertools.product(SELLER_VALUES, PRICES, BUYER_VALUES):
        for gamma, fee, scheme in itertools.product(GAMMAS, FEES, SCHEMES):
            params = TradeParams(x, xs, y, gamma, fee)
            one, two = (naive_node_margins(params, wager_class(scheme)(wager)) for wager in (1, 2))
            forms = {NAIVE_NAMES[node]: (2 * one[node] - two[node], two[node] - one[node]) for node in one}
            assert all(forms[name][1] for name in DISPUTE_LAYER)
            for epsilon in EPSILONS:
                interval = lambda_interval(params, scheme, epsilon)
                if interval.empty:
                    empty += 1
                    continue
                eps = epsilon or 0
                asked = [forms[name] for name in (CONSTRAINTS if epsilon is None else DISPUTE_LAYER)]
                bounds = [(interval.lower, 1)] + ([] if interval.upper is None else [(interval.upper, -1)])
                for bound, side in bounds:
                    assert all(constant + coeff * bound >= eps for constant, coeff in asked), (params, scheme, epsilon)
                    if bound == 0 and side == 1:
                        continue  # the positivity bound, not a root
                    assert any(constant + coeff * bound == eps and side * coeff > 0 for constant, coeff in asked), (
                        params, scheme, epsilon, bound)
                    roots[side] += 1
    # 288 intervals: each side's roots checked, and the empty ones skipped.
    assert (roots[1], roots[-1], empty) == (116, 80, 160)
