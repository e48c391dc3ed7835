import gc
import itertools
import re
from dataclasses import replace
from fractions import Fraction
from random import Random
from typing import Mapping, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab import equilibrium
from escrowlab.agents import sweep
from escrowlab.equilibrium import (
    BUYER_ACCEPTS,
    BUYER_DISPUTES,
    SELLER_COUNTERS,
    SELLER_FORFEITS,
    SELLER_SENDS,
    LambdaInterval,
    SecurityReport,
    SoundnessPreconditionError,
    backward_induction,
    brute_force_spe,
    check_soundness,
    generic_impossibility,
    lambda_interval,
    node_margins,
    profile_epsilon,
    profile_value,
    security_report,
)
from escrowlab.gametree import (
    AFTER_NOSEND,
    AFTER_SEND,
    DISPUTE_AFTER_NOSEND,
    DISPUTE_AFTER_SEND,
    HONEST_PROFILE,
    ROOT,
    Action,
    DecisionNode,
    GameTree,
    Leaf,
    Party,
    build_game_tree,
)
from escrowlab.trade import Generic, Standard, TradeParams, WinnerRebate, Withheld, scaled

from conftest import draw_params, rand_fraction
from test_gametree import naive_leaf_payoff


def params(x=1, xs=0, y=2, gamma=0, fee=0):
    return TradeParams(price=x, seller_value=xs, buyer_value=y, arbiter_error=gamma, fee=fee)


#: The report's dispute-layer slacks, the margins that bound every dishonest deviation.
DISPUTE_LAYER = (SELLER_COUNTERS, SELLER_FORFEITS, BUYER_ACCEPTS)


# ---------------------------------------------------------------------------
# Backward induction against the brute-force oracle
# ---------------------------------------------------------------------------


def test_perfect_arbiter_selects_the_honest_profile():
    tree = build_game_tree(params(gamma=0), Standard(1))
    solved = backward_induction(tree)
    assert solved.chosen == HONEST_PROFILE
    assert solved.unique
    # Oracle: enumerate all 2^5 pure profiles.
    assert brute_force_spe(tree, 0) == [HONEST_PROFILE]


def test_always_wrong_arbiter_makes_the_honest_seller_forfeit():
    # counter value x(1-g) - lam*g - x' drops to -lam - x' at gamma = 1.
    tree = build_game_tree(params(gamma=1), Standard(1))
    solved = backward_induction(tree)
    assert solved.chosen[DISPUTE_AFTER_SEND] == Action.FORFEIT
    margins = node_margins(tree.params, tree.scheme)
    assert margins[DISPUTE_AFTER_SEND] == -1  # -lam - x' versus -x'


def test_fair_coin_with_matching_wager_is_weakly_optimal_everywhere():
    tree = build_game_tree(params(gamma="1/2"), Standard(1))
    solved = backward_induction(tree)
    assert solved.chosen == HONEST_PROFILE
    assert all(margin >= 0 for margin in solved.margins.values())
    zero_nodes = [n for n, margin in solved.margins.items() if margin == 0]
    assert zero_nodes
    for node in zero_nodes:
        # A margin of 0 is a tie: both actions are worth the same to the owner.
        tree_node = tree.node(node)
        values = {profile_value(tree, {**solved.chosen, node: a}, tree_node).for_party(tree_node.owner)
                  for a in tree_node.actions}
        assert len(values) == 1


def test_backward_induction_margins_equal_analytic_margins_when_complete():
    # Capped, so margins that leave no setup complete fail here, not hang.
    rng = Random(23)
    seen = draws = 0
    while seen < 30 and draws < 200:
        draws += 1
        p = draw_params(rng, gamma_hi=Fraction(9, 20))
        scheme = Standard(p.price)
        if not security_report(p, scheme).complete:
            continue
        seen += 1
        solved = backward_induction(build_game_tree(p, scheme))
        assert solved.chosen == HONEST_PROFILE
        assert solved.margins == node_margins(p, scheme)
    assert seen == 30


def test_backward_induction_leaves_no_reference_cycle():
    # Reference counting alone frees everything a call makes: with the
    # cyclic collector off around it, there is nothing left to collect.
    tree = build_game_tree(params(gamma="1/4"), Standard(1))
    gc.collect()
    gc.disable()
    try:
        solved = backward_induction(tree)
        assert solved.chosen == HONEST_PROFILE
        del solved
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


def test_completeness_example_with_quarter_error():
    report = security_report(params(gamma="1/4"), Standard(1))
    assert report.complete
    assert report.slacks[SELLER_COUNTERS] == Fraction(1, 2)  # x(1-g) - lam*g


def test_fair_coin_is_never_complete():
    rng = Random(29)
    for _ in range(20):
        lam = rand_fraction(rng, Fraction(1, 4), 6)
        assert not security_report(params(gamma="1/2", y=3), Standard(lam)).complete


def test_fee_at_the_counter_bound_breaks_completeness():
    # tau >= x(1-g) - lam*g leaves the honest seller unwilling to counter.
    p = params(gamma="1/4", fee="1/2")
    report = security_report(p, Standard(1))
    assert not report.complete
    assert report.slacks[SELLER_COUNTERS] == 0
    assert security_report(params(gamma="1/4", fee="2/5"), Standard(1)).complete


def test_completeness_requires_item_worth_the_fee():
    # x - x' > tau fails although the dispute-layer constraints hold.
    p = TradeParams(price=2, seller_value="9/5", buyer_value=4, arbiter_error="1/10", fee="1/4")
    report = security_report(p, Standard(2))
    assert not report.complete
    assert report.slacks["delivery-worth-the-fee"] <= 0
    assert report.slacks[SELLER_COUNTERS] > 0 and report.slacks[SELLER_FORFEITS] > 0


def test_oracle_agreement_on_random_draws():
    # Analytic completeness must coincide with "enumeration finds exactly the
    # honest profile and every backward-induction margin is positive".
    rng = Random(31)
    agree_true = agree_false = 0
    for _ in range(1000):
        p = draw_params(rng)
        lam = p.price * rng.choice(
            [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 2, 3]
        )
        scheme = Standard(lam)
        tree = build_game_tree(p, scheme)
        analytic = security_report(p, scheme).complete
        solved = backward_induction(tree)
        oracle = brute_force_spe(tree, 0) == [HONEST_PROFILE] and solved.unique
        assert analytic == oracle, f"disagree at {p} lam={lam}"
        agree_true += analytic
        agree_false += not analytic
    assert agree_true > 50 and agree_false > 50  # both regions exercised


def test_redundant_buyer_constraint():
    # Whenever the dishonest seller forfeits, the buyer has no false dispute:
    # the accept slack exceeds the forfeit slack by y(1-g) >= 0.
    rng = Random(37)
    for _ in range(200):
        p = draw_params(rng)
        lam = rand_fraction(rng, Fraction(1, 8), 8)
        slacks = security_report(p, Standard(lam)).slacks
        assert slacks[BUYER_ACCEPTS] >= slacks[SELLER_FORFEITS]
        if slacks[SELLER_FORFEITS] > 0:
            assert slacks[BUYER_ACCEPTS] > 0


# ---------------------------------------------------------------------------
# Soundness
# ---------------------------------------------------------------------------


def test_soundness_with_perfect_arbiter_at_full_price_slack():
    assert check_soundness(params(gamma=0), Standard(1), 1)


def test_soundness_fails_above_the_boundary():
    # eps = 3/5 exceeds x(1-2g) = 1/2 at gamma = 1/4.
    assert not check_soundness(params(gamma="1/4"), Standard(1), Fraction(3, 5))


def test_soundness_boundary_has_zero_slack_on_the_forfeit_constraint():
    p = params(x=1, y=3, gamma="1/4")
    eps = Fraction(1, 2)  # x(1 - 2g)
    assert check_soundness(p, Standard(1), eps)
    assert security_report(p, Standard(1)).slacks[SELLER_FORFEITS] - eps == 0


def test_soundness_precondition_signalled_distinctly():
    with pytest.raises(SoundnessPreconditionError):
        check_soundness(params(x=1, y=2), Standard(1), Fraction(3, 2))  # eps > x
    with pytest.raises(SoundnessPreconditionError):
        check_soundness(params(x=2, y=3, gamma=0), Standard(2), Fraction(3, 2))  # y - eps < x
    with pytest.raises(ValueError):
        check_soundness(params(), Standard(1), 0)


def test_soundness_tightness_at_matching_wager():
    # With lam = x the largest admissible deviation bound is exactly x(1-2g).
    rng = Random(41)
    for _ in range(100):
        p = draw_params(rng, gamma_hi=Fraction(9, 20))
        p = TradeParams(
            price=p.price,
            seller_value=p.seller_value,
            buyer_value=2 * p.price + p.buyer_value,  # keep side conditions satisfiable
            arbiter_error=p.arbiter_error,
        )
        scheme = Standard(p.price)
        boundary = p.price * (1 - 2 * p.arbiter_error)
        assert security_report(p, scheme).sound_epsilon_max == boundary
        assert check_soundness(p, scheme, boundary)
        if p.arbiter_error > 0:
            delta = p.arbiter_error * p.price
            assert not check_soundness(p, scheme, boundary + delta)


def test_oracle_epsilon_requirement_matches_the_analytic_boundary():
    # With no seller-side production cost every dishonest profile needs slack
    # at least x(1-2g) to survive, and some profile needs exactly that.
    rng = Random(43)
    for _ in range(25):
        p = draw_params(rng, gamma_hi=Fraction(9, 20), seller_value_zero=True)
        scheme = Standard(p.price)
        tree = build_game_tree(p, scheme)
        requirement = min(
            profile_epsilon(tree, prof)
            for prof in _all_dishonest_profiles(tree)
        )
        assert requirement == p.price * (1 - 2 * p.arbiter_error)


def all_profiles(tree):
    """Reference: every pure profile, one action per decision node."""
    nodes = list(tree.nodes.values())
    for combo in itertools.product(*(list(node.actions) for node in nodes)):
        yield {node.node_id: action for node, action in zip(nodes, combo)}


def _all_dishonest_profiles(tree):
    return [p for p in all_profiles(tree) if p != HONEST_PROFILE]


def test_dishonest_profiles_enter_the_enumeration_above_the_boundary():
    p = params(x=1, y=3, gamma="1/4")
    tree = build_game_tree(p, Standard(1))
    eps_max = security_report(p, Standard(1)).sound_epsilon_max
    below = brute_force_spe(tree, eps_max - Fraction(1, 100))
    at_or_above = brute_force_spe(tree, eps_max + Fraction(1, 100))
    assert below == [HONEST_PROFILE]
    assert HONEST_PROFILE in at_or_above and len(at_or_above) > 1


def test_every_profile_enters_the_enumeration_once_at_its_own_epsilon():
    # Some profile's seller gains most by deviating at the root and at a
    # dispute below it at once, so no one-node deviation reads its epsilon.
    tree = build_game_tree(params(x=1, y=3, gamma="1/4", fee="1/10"), Standard(1))
    profiles = list(all_profiles(tree))
    epsilons = [profile_epsilon(tree, profile) for profile in profiles]
    assert epsilons == [naive_profile_epsilon(tree, profile) for profile in profiles]
    everything = brute_force_spe(tree, max(epsilons))
    assert len(everything) == len(profiles) == 32 and all(profile in everything for profile in profiles)


MALFORMED_PROFILES = {
    "a node left out": (
        {k: v for k, v in HONEST_PROFILE.items() if k != DISPUTE_AFTER_NOSEND},
        "profile has no action at node 'dispute_after_not_send'",
    ),
    "a node the tree lacks": (
        {**HONEST_PROFILE, "after_dispute": Action.ACCEPT},
        "profile names 'after_dispute', not a decision node of the tree",
    ),
    "a string for an action": (
        {**HONEST_PROFILE, ROOT: "send"},
        "profile's 'send' is not an action at node 'root'",
    ),
    "another node's action": (
        {**HONEST_PROFILE, AFTER_SEND: Action.COUNTER},
        "profile's <Action.COUNTER: 'counter'> is not an action at node 'after_send'",
    ),
}


@pytest.mark.parametrize("profile, message", MALFORMED_PROFILES.values(), ids=MALFORMED_PROFILES.keys())
def test_a_malformed_profile_is_refused_by_name(profile, message):
    tree = build_game_tree(params(gamma="1/4"), Standard(1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        profile_epsilon(tree, profile)


def test_profile_value_names_a_bad_action_on_the_path_and_ignores_the_rest():
    tree = build_game_tree(params(gamma="1/4"), Standard(1))
    honest = profile_value(tree, HONEST_PROFILE)
    off_path = {ROOT: Action.SEND, AFTER_SEND: Action.ACCEPT, AFTER_NOSEND: "accept"}
    assert profile_value(tree, off_path) == honest
    with pytest.raises(ValueError, match="^profile's 'accept' is not an action at node 'after_send'$"):
        profile_value(tree, {**HONEST_PROFILE, AFTER_SEND: "accept"})
    with pytest.raises(ValueError, match="^profile has no action at node 'dispute_after_send'$"):
        profile_value(tree, {ROOT: Action.SEND, AFTER_SEND: Action.DISPUTE})


def test_fair_coin_keeps_honest_in_the_spe_set_but_not_alone():
    tree = build_game_tree(params(gamma="1/2"), Standard(1))
    exact = brute_force_spe(tree, 0)
    assert HONEST_PROFILE in exact
    assert len(exact) > 1


@pytest.mark.parametrize("epsilon, shown", [(-1, "-1"), ("-1/2", "-1/2"), (Fraction(-1, 3), "-1/3")])
def test_brute_force_refuses_a_negative_epsilon(epsilon, shown):
    tree = build_game_tree(params(gamma="1/4"), Standard(1))
    with pytest.raises(ValueError, match=f"^epsilon must be >= 0, got {re.escape(shown)}$"):
        brute_force_spe(tree, epsilon)
    assert brute_force_spe(tree, 0) == brute_force_spe(tree, "0") == [HONEST_PROFILE]


# ---------------------------------------------------------------------------
# Strong security bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tenths", range(0, 5))
def test_matching_wager_strength_across_error_rates(tenths):
    gamma = Fraction(tenths, 10)
    p = params(x=3, y=7, gamma=gamma)
    report = security_report(p, Standard(3))
    assert report.strong and report.sound_epsilon_max == 3 * (1 - 2 * gamma)


def test_fee_discount_on_the_strength_bound():
    rng = Random(47)
    for _ in range(100):
        base = draw_params(rng, gamma_hi=Fraction(9, 20))
        headroom = base.price * (1 - 2 * base.arbiter_error)
        fee = rand_fraction(rng, 0, min(headroom, base.price - base.seller_value))
        if fee == 0 or fee >= headroom or fee >= base.price - base.seller_value:
            continue
        p = TradeParams(
            price=base.price,
            seller_value=base.seller_value,
            buyer_value=base.buyer_value,
            arbiter_error=base.arbiter_error,
            fee=fee,
        )
        report = security_report(p, Standard(p.price))
        assert report.strong and report.sound_epsilon_max == headroom - fee


def test_strong_implies_complete_and_sound_at_the_reported_bound():
    rng = Random(53)
    for _ in range(200):
        p = draw_params(rng)
        lam = rand_fraction(rng, Fraction(1, 8), 8)
        report = security_report(p, Standard(lam))
        if report.strong:
            assert report.complete
            assert all(report.slacks[name] >= report.sound_epsilon_max for name in DISPUTE_LAYER)
        if report.complete:
            assert report.weak


def test_the_dispute_layer_heads_the_constraint_table():
    # A report's eps_max cell reads the table's first len(DISPUTE_LAYER) margins.
    assert equilibrium.DISPUTE_LAYER == DISPUTE_LAYER
    assert equilibrium.CONSTRAINTS[: len(DISPUTE_LAYER)] == DISPUTE_LAYER


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Standard, WinnerRebate, Withheld, Generic]))
def test_buyer_accepts_delivery_is_the_forfeit_row_plus_the_buyers_surplus(data, kind):
    # The third dispute-layer row exceeds the second by y(1 - gamma), so it
    # never binds below the second and ties it only at gamma = 1.
    x = data.draw(AMOUNT)
    gamma = data.draw(st.sampled_from([0, Fraction(1, 2), 1]) | st.fractions(0, 1, max_denominator=60))
    fee = data.draw(st.just(0) | AMOUNT)
    xs = x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
    p = TradeParams(price=x, seller_value=xs, buyer_value=x + data.draw(AMOUNT), arbiter_error=gamma, fee=fee)
    if kind is Generic:
        loss = data.draw(st.just(0) | AMOUNT)
        reports = [security_report(p, Generic(data.draw(AMOUNT) - loss, loss))]
    else:
        wagers = data.draw(st.lists(AMOUNT, min_size=1, max_size=4))
        reports = [security_report(p, kind(wager)) for wager in wagers]
        reports += sweep(p, gammas=[gamma], wagers=wagers, fees=[fee], schemes=[kind])
    for report in reports:
        assert report.slacks[BUYER_ACCEPTS] - report.slacks[SELLER_FORFEITS] == p.buyer_value * (1 - gamma)
        assert (BUYER_ACCEPTS in report.binding) <= (gamma == 1 and SELLER_FORFEITS in report.binding)


def test_report_row_shape():
    row = security_report(params(gamma="1/4"), Standard(1)).to_row()
    assert row == {
        "gamma": "1/4",
        "lambda": "1",
        "tau": "0",
        "scheme": "standard",
        "complete": "true",
        "eps_max": "1/2",
        "strong": "true",
        "weak": "true",
    }


# ---------------------------------------------------------------------------
# Admissible wager intervals
# ---------------------------------------------------------------------------


def in_interval(interval, value):
    """Whether `value` lies in `interval`, each bound read with its closedness."""
    v = Fraction(value)
    above = v > interval.lower or (v == interval.lower and interval.lower_closed)
    below = interval.upper is None or v < interval.upper or (v == interval.upper and interval.upper_closed)
    return above and below


def test_completeness_interval_at_quarter_error():
    interval = lambda_interval(params(gamma="1/4"), Standard)
    assert interval == LambdaInterval(Fraction(1, 3), False, Fraction(3), False)
    assert str(interval) == "(1/3, 3)"


def test_completeness_interval_with_perfect_arbiter_is_unbounded():
    interval = lambda_interval(params(gamma=0), Standard)
    assert not interval.empty
    assert interval.lower == 0 and not interval.lower_closed
    assert interval.upper is None


def test_soundness_interval_collapses_to_the_matching_wager():
    interval = lambda_interval(params(gamma="1/4"), Standard, epsilon=Fraction(1, 2))
    assert interval == LambdaInterval(Fraction(1), True, Fraction(1), True)
    assert in_interval(interval, 1)
    assert not in_interval(interval, Fraction(101, 100))


def test_interval_empty_at_fair_coin_or_worse():
    assert lambda_interval(params(gamma="1/2"), Standard).empty
    assert lambda_interval(params(gamma="3/4"), Standard).empty
    assert lambda_interval(params(gamma="1/4"), Standard, epsilon=1).empty  # eps > x(1-2g)


def test_interval_consistency_with_the_completeness_checker():
    rng = Random(59)
    for _ in range(150):
        p = draw_params(rng)
        interval = lambda_interval(p, Standard)
        candidates = [Fraction(1, 100), p.price / 2, p.price, 2 * p.price, 100 * p.price]
        if not interval.empty:
            mid = (
                interval.lower + 1
                if interval.upper is None
                else (interval.lower + interval.upper) / 2
            )
            candidates.append(mid)
        for lam in candidates:
            if lam <= 0:
                continue
            expected = in_interval(interval, lam)
            assert security_report(p, Standard(lam)).complete == expected, (p, lam)


def test_interval_respects_fee_feasibility():
    # Fee above the trade's surplus: no wager can restore completeness.
    p = TradeParams(price=1, seller_value="9/10", buyer_value=2, arbiter_error=0, fee="1/5")
    assert lambda_interval(p, Standard).empty


def test_generic_scheme_has_no_wager_interval():
    with pytest.raises(ValueError):
        lambda_interval(params(), "generic")


# ---------------------------------------------------------------------------
# The margin table against the formulas and solver it replaced
# ---------------------------------------------------------------------------


def naive_node_margins(p, scheme):
    """Reference: each node margin written out as its own formula."""
    g, t = p.arbiter_error, p.fee
    win, loss = scheme.win_gain(p), scheme.loss_cost(p)
    counter = (1 - g) * win - g * loss - t
    forfeit = (1 - g) * loss - g * win + t
    accept = p.buyer_value * (1 - g) + forfeit
    return {
        DISPUTE_AFTER_SEND: counter,
        DISPUTE_AFTER_NOSEND: forfeit,
        AFTER_SEND: accept,
        AFTER_NOSEND: p.price - t,
        ROOT: p.price - p.seller_value - t,
    }


NAIVE_NAMES = {
    DISPUTE_AFTER_SEND: SELLER_COUNTERS,
    DISPUTE_AFTER_NOSEND: SELLER_FORFEITS,
    AFTER_SEND: BUYER_ACCEPTS,
    AFTER_NOSEND: BUYER_DISPUTES,
    ROOT: SELLER_SENDS,
}


def naive_security_report(p, scheme):
    """Reference: the report read off `naive_node_margins`, and the verdicts
    the naive formulas give, as (report, verdicts by property name)."""
    margins = naive_node_margins(p, scheme)
    slacks = {NAIVE_NAMES[node]: margin for node, margin in margins.items()}
    worst = min(margins[node] for node in (DISPUTE_AFTER_SEND, DISPUTE_AFTER_NOSEND, AFTER_SEND))
    low = min(slacks.values())
    verdicts = {
        "complete": all(margin > 0 for margin in margins.values()),
        "weak": all(margin >= 0 for margin in margins.values()),
        "sound_epsilon_max": worst if worst > 0 else None,
        "binding": tuple(name for name, slack in slacks.items() if slack == low),
    }
    ints, scale = scaled(slacks.values())
    report = SecurityReport(
        margins=tuple(ints),
        scale=scale,
        gamma=p.arbiter_error,
        wager=scheme.loss_cost(p),
        fee=p.fee,
        scheme=scheme.name,
    )
    assert list(report.slacks.items()) == list(slacks.items())
    return report, verdicts


def naive_to_row(report):
    """Reference: `to_row` as it was, each cell read off the verdict
    properties and formatted through `str` of its `Fraction`."""
    complete = str(report.complete).lower()
    eps_max = report.sound_epsilon_max
    return {
        "gamma": str(report.gamma),
        "lambda": str(report.wager),
        "tau": str(report.fee),
        "scheme": report.scheme,
        "complete": complete,
        "eps_max": "" if eps_max is None else str(eps_max),
        "strong": complete,
        "weak": str(report.weak).lower(),
    }


def same_slacks(report, expected):
    """The slacks as read: equal values, each a `Fraction`, in the same key order."""
    ours, theirs = list(report.slacks.items()), list(expected.slacks.items())
    return ours == theirs and all(type(value) is Fraction for _, value in ours)


def matches_naive(report, naive):
    """`report` equals the naive report, with the same slacks as read, and
    each verdict property reads what the naive formulas give."""
    expected, verdicts = naive
    read = {name: getattr(report, name) for name in verdicts}
    return report == expected and same_slacks(report, expected) and read == verdicts


def naive_lambda_interval(p, kind, epsilon=None):
    """Reference: the counter and forfeit constraints as (coefficient, bound)
    pairs in the wager, after a wager-free check of the two fee constraints."""
    slope, x, g, t = kind.slope, p.price, p.arbiter_error, p.fee
    strict = epsilon is None
    eps = Fraction(0) if strict else Fraction(epsilon)
    if strict and not (x > t and x - p.seller_value > t):
        return LambdaInterval.nothing()
    constraints = [
        ((1 - g) * slope - g, eps + t - (1 - g) * x),
        ((1 - g) - g * slope, eps - t + g * x),
    ]
    lower, lower_closed = Fraction(0), False
    upper, upper_closed = None, False
    for coeff, bound in constraints:
        if coeff == 0:
            if bound > 0 or (strict and bound == 0):
                return LambdaInterval.nothing()
            continue
        point = bound / coeff
        if coeff > 0:
            if point > lower:
                lower, lower_closed = point, not strict
            elif point == lower:
                lower_closed = lower_closed and not strict
        else:
            if upper is None or point < upper:
                upper, upper_closed = point, not strict
            elif point == upper:
                upper_closed = upper_closed and not strict
    if upper is not None:
        if lower > upper:
            return LambdaInterval.nothing()
        if lower == upper and not (lower_closed and upper_closed):
            return LambdaInterval.nothing()
    return LambdaInterval(lower, lower_closed, upper, upper_closed)


AMOUNT = st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Standard, WinnerRebate, Withheld, Generic]))
def test_margin_table_matches_the_naive_formulas_and_solver(data, kind):
    x = data.draw(AMOUNT)
    xs = x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
    gamma = data.draw(
        st.sampled_from([0, Fraction(1, 2), 1]) | st.fractions(min_value=0, max_value=1, max_denominator=60)
    )
    # The two fee constraints flip at x - x' and at x.
    fee = data.draw(
        st.sampled_from([0, x - xs, x, x + data.draw(AMOUNT)])
        | st.fractions(min_value=0, max_value=2 * x, max_denominator=12)
    )
    p = TradeParams(price=x, seller_value=xs, buyer_value=x + data.draw(AMOUNT), arbiter_error=gamma, fee=fee)
    if kind is Generic:
        loss = data.draw(st.just(0) | AMOUNT)
        scheme = Generic(data.draw(AMOUNT) - loss, loss)
        assert list(node_margins(p, scheme).items()) == list(naive_node_margins(p, scheme).items())
        assert matches_naive(security_report(p, scheme), naive_security_report(p, scheme))
        return

    bound = x * (1 - 2 * gamma)  # the matching wager's strength bound
    epsilon = data.draw(AMOUNT | st.just(bound)) if bound > 0 else data.draw(AMOUNT)
    endpoints = []
    for eps in (None, epsilon):
        interval = naive_lambda_interval(p, kind, eps)
        assert lambda_interval(p, kind, eps) == interval, eps
        if not interval.empty:
            endpoints += [v for v in (interval.lower, interval.upper) if v]
    wagers = [data.draw(AMOUNT), *endpoints]
    for wager in wagers:
        scheme = kind(wager)
        naive = naive_node_margins(p, scheme)
        assert list(node_margins(p, scheme).items()) == list(naive.items())
        report = security_report(p, scheme)
        assert {name: report.slacks[name] for name in DISPUTE_LAYER} == {
            NAIVE_NAMES[node]: naive[node] for node in (DISPUTE_AFTER_SEND, DISPUTE_AFTER_NOSEND, AFTER_SEND)
        }
        assert matches_naive(report, naive_security_report(p, scheme))
    rows = sweep(p, gammas=[gamma], wagers=wagers, fees=[fee], schemes=[kind])
    naives = [naive_security_report(p, kind(wager)) for wager in wagers]
    assert len(rows) == len(naives) and all(map(matches_naive, rows, naives))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Standard, WinnerRebate, Withheld]))
def test_some_wager_is_complete_iff_the_arbiter_favours_honesty_and_the_fee_allows(data, kind):
    # The paper's "honesty is secure if and only if the arbiter favours honest
    # parties", with fees: a complete wager exists exactly when the arbiter
    # errs less than half the time, the sale is worth a fee to the seller,
    # and, unless the winner pockets the loser's wager (slope > 0), the honest
    # seller's expected arbitration gain covers the counter's fee.
    x = data.draw(AMOUNT)
    xs = x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
    gamma = data.draw(
        st.sampled_from([0, Fraction(1, 2), 1]) | st.fractions(min_value=0, max_value=1, max_denominator=60)
    )
    # Every bound of the condition, and either side of it, is drawn.
    fee = data.draw(
        st.sampled_from([0, x - xs, (1 - gamma) * x, x])
        | st.fractions(min_value=0, max_value=2 * x, max_denominator=12)
    )
    p = TradeParams(price=x, seller_value=xs, buyer_value=x + data.draw(AMOUNT), arbiter_error=gamma, fee=fee)
    expected = gamma < Fraction(1, 2) and x - xs > fee and (kind.slope > 0 or fee < (1 - gamma) * x)
    assert (not lambda_interval(p, kind).empty) == expected


# ---------------------------------------------------------------------------
# The integer paths against the Fraction arithmetic they replaced
# ---------------------------------------------------------------------------


def naive_payoffs(tree):
    """Each leaf's payoffs for the tree's setup, by `naive_leaf_payoff`,
    independent of the tree's own leaf table."""
    return {leaf: naive_leaf_payoff(leaf, tree.params, tree.scheme) for leaf in Leaf}


def naive_profile_epsilon(tree, profile):
    """Reference: `profile_epsilon` as it was, in `Fraction` arithmetic on
    the `naive_payoffs`, worked out once per call."""
    payoffs = naive_payoffs(tree)
    worst = Fraction(0)
    for node in tree.nodes.values():
        reached = node
        while not isinstance(reached, Leaf):
            reached = reached.actions[profile[reached.node_id]]
        actual = payoffs[reached].for_party(node.owner)
        gain = naive_best_response_value(profile, node, node.owner, payoffs) - actual
        if gain > worst:
            worst = gain
    return worst


def naive_best_response_value(profile, node, player, payoffs):
    if isinstance(node, Leaf):
        return payoffs[node].for_party(player)
    if node.owner is player:
        return max(naive_best_response_value(profile, child, player, payoffs) for child in node.actions.values())
    return naive_best_response_value(profile, node.actions[profile[node.node_id]], player, payoffs)


def naive_profile_epsilons(tree):
    """Reference: every profile of the tree with its `naive_profile_epsilon`,
    worked out once, so each epsilon tried filters the same pairs."""
    return [(profile, naive_profile_epsilon(tree, profile)) for profile in all_profiles(tree)]


def naive_brute_force_spe(profile_epsilons, epsilon=Fraction(0)):
    """Reference: `brute_force_spe` as it was, one `Fraction` per comparison,
    over a tree's `naive_profile_epsilons`."""
    eps = Fraction(epsilon)
    found = [p for p, worst in profile_epsilons if worst <= eps]
    found.sort(key=lambda p: tuple(p[k].value for k in sorted(p)))
    return found


def naive_backward_induction(tree):
    """Reference: `backward_induction` as it was, in `Fraction` arithmetic
    on the `naive_payoffs`: (chosen, margins)."""
    chosen, margins = {}, {}
    payoffs = naive_payoffs(tree)

    def solve(node):
        if isinstance(node, Leaf):
            return payoffs[node]
        outcomes = {action: solve(child) for action, child in node.actions.items()}
        own = {action: payoff.for_party(node.owner) for action, payoff in outcomes.items()}
        best_value = max(own.values())
        maximizers = [a for a, value in own.items() if value == best_value]
        honest = HONEST_PROFILE.get(node.node_id)
        pick = honest if honest in maximizers else maximizers[0]
        runner_up = max((value for a, value in own.items() if a != pick), default=best_value)
        chosen[node.node_id] = pick
        margins[node.node_id] = best_value - runner_up
        return outcomes[pick]

    solve(tree.root)
    return chosen, margins


GAMMA = st.sampled_from([0, Fraction(1, 2), 1]) | st.fractions(min_value=0, max_value=1, max_denominator=60)


def draw_trade(data, fee=None):
    """A valid trade with gamma at 0, 1/2, 1 or anywhere between, and a fee."""
    x = data.draw(AMOUNT)
    xs = x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
    gamma = data.draw(GAMMA)
    if fee is None:
        fee = data.draw(st.just(0) | st.fractions(min_value=0, max_value=2 * x, max_denominator=12))
    return TradeParams(price=x, seller_value=xs, buyer_value=x + data.draw(AMOUNT), arbiter_error=gamma, fee=fee)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Standard, WinnerRebate, Withheld, Generic]))
def test_integer_enumeration_matches_the_fraction_enumeration(data, kind):
    p = draw_trade(data)
    if kind is Generic:
        loss = data.draw(st.just(0) | AMOUNT)
        scheme = Generic(data.draw(AMOUNT) - loss, loss)
    else:
        scheme = kind(data.draw(AMOUNT))
    tree = build_game_tree(p, scheme)
    profile_epsilons = naive_profile_epsilons(tree)
    epsilons = [eps for _, eps in profile_epsilons]
    ours = [profile_epsilon(tree, profile) for profile in all_profiles(tree)]
    assert ours == epsilons and all(type(eps) is Fraction for eps in ours)
    # The least dispute-layer margin is where dishonest profiles enter: test
    # at it, on either side of it, at a drawn profile's own epsilon and at 0.
    least = min(node_margins(p, scheme)[node] for node in (DISPUTE_AFTER_SEND, DISPUTE_AFTER_NOSEND, AFTER_SEND))
    tiny = Fraction(1, 10**6)
    drawn = data.draw(st.sampled_from(epsilons) | AMOUNT)
    for eps in {0, least, abs(least), abs(least) - tiny, abs(least) + tiny, drawn, "1/3"}:
        if Fraction(eps) < 0:
            with pytest.raises(ValueError, match="epsilon must be >= 0"):
                brute_force_spe(tree, eps)
        else:
            assert brute_force_spe(tree, eps) == naive_brute_force_spe(profile_epsilons, eps), eps


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Standard, WinnerRebate, Withheld, Generic]))
def test_backward_induction_matches_the_fraction_backward_induction(data, kind):
    # Fees at x - x' and x, gamma at 0, 1/2 and 1, and the wager at the
    # price put margins at exactly 0, so the honest tie-break is exercised.
    p = draw_trade(data)
    x = p.price
    p = replace(p, fee=data.draw(st.sampled_from([p.fee, x - p.seller_value, x])))
    wager = data.draw(st.just(x) | AMOUNT)
    if kind is Generic:
        # A payout the contract can fund: the winner nets at most x + loss.
        loss = data.draw(st.sampled_from([0, wager]))
        scheme = Generic(min(data.draw(st.just(x) | AMOUNT), x + loss), loss)
    else:
        scheme = kind(wager)
    solved = backward_induction(build_game_tree(p, scheme))
    chosen, margins = naive_backward_induction(build_game_tree(p, scheme))
    assert solved.chosen == chosen
    assert list(solved.margins.items()) == list(margins.items())
    assert all(type(margin) is Fraction for margin in solved.margins.values())


# ---------------------------------------------------------------------------
# The index plans against the recursive passes they replaced
# ---------------------------------------------------------------------------


def _solve(node: Union[DecisionNode, Leaf], leaves: Mapping[Leaf, tuple[int, int]],
           chosen: dict[str, Action], margins: dict[str, int]) -> tuple[int, int]:
    """The int payoff pair `node` reaches under backward induction, recording
    each decision node's pick and int margin below it, children first.  The
    children's pairs and the owner's values are lists in action order: the
    pick is the honest action when it attains the maximum, else the first
    maximizer.  A module-level function, not a closure that calls itself, so
    a call leaves no reference cycle."""
    if isinstance(node, Leaf):
        return leaves[node]
    outcomes = [_solve(child, leaves, chosen, margins) for child in node.actions.values()]
    side = node.owner is Party.SELLER  # the owner's index in a payoff pair
    own = [pair[side] for pair in outcomes]
    best = max(own)
    actions = [*node.actions]
    honest = HONEST_PROFILE.get(node.node_id)
    pick = actions.index(honest) if honest in node.actions else None
    if pick is None or own[pick] != best:
        pick = own.index(best)
    chosen[node.node_id] = actions[pick]
    margins[node.node_id] = best - max(own[:pick] + own[pick + 1:], default=best)
    return outcomes[pick]


def _table(node: Union[DecisionNode, Leaf], leaves: Mapping[Leaf, tuple[int, int]]) -> list[tuple]:
    """One entry per profile of the subtree at `node`, from its children's
    tables: (the choices as (node id, action) pairs, `node` first; the
    payoff pair reached; each party's best response; the most any owner in
    the subtree gains by deviating).  The owner's best response is the best
    of its children's, a deviation at all its own nodes below; the other
    party's is that of the child the profile picks.

    Each combination of the children's entries is transposed once, and the
    children's choices joined once, for the node's entries at every action."""
    if isinstance(node, Leaf):
        pair = leaves[node]
        return [((), pair, pair, 0)]
    side = node.owner is Party.SELLER  # the owner's index in a payoff pair
    moves = [(node.node_id, action) for action in node.actions]
    table = []
    for below in itertools.product(*[_table(child, leaves) for child in node.actions.values()]):
        picks, reached, bests, worsts = zip(*below)
        choices = sum(picks, ())
        top = max([best[side] for best in bests])
        worst_below = max(worsts)
        for move, pair, best in zip(moves, reached, bests):
            gain = top - pair[side]
            response = (best[0], top) if side else (top, best[1])
            table.append(((move, *choices), pair, response, gain if gain > worst_below else worst_below))
    return table


def table_brute_force_spe(tree, epsilon):
    """Reference: `brute_force_spe` as it was, reading each profile's worst
    gain off the subtree tables of `_table`."""
    eps = Fraction(epsilon)
    bound, denominator = eps.numerator * tree.scale, eps.denominator
    found = [dict(choices) for choices, _, _, worst in _table(tree.root, tree.leaves) if worst * denominator <= bound]
    if len(found) > 1:
        found.sort(key=lambda p: tuple(p[k].value for k in sorted(p)))
    return found


def assert_the_plans_match_the_recursive_passes(tree):
    """`brute_force_spe`, `profile_epsilon` and `backward_induction` on
    `tree` return what `_table` and `_solve` give, in the same order and
    with every dict's keys in the same order."""
    entries = _table(tree.root, tree.leaves)
    profiles = [dict(choices) for choices, *_ in entries]
    epsilons = [Fraction(worst, tree.scale) for *_, worst in entries]
    assert [profile_epsilon(tree, profile) for profile in profiles] == epsilons
    for eps in [0, *epsilons, 1]:
        found = brute_force_spe(tree, eps)
        assert [list(p.items()) for p in found] == [list(p.items()) for p in table_brute_force_spe(tree, eps)], eps
    chosen, margins = {}, {}
    _solve(tree.root, tree.leaves, chosen, margins)
    solved = backward_induction(tree)
    assert list(solved.chosen.items()) == list(chosen.items())
    assert list(solved.margins.items()) == [(node_id, Fraction(m, tree.scale)) for node_id, m in margins.items()]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from([Standard, WinnerRebate, Withheld]),
       fee=st.sampled_from([0, Fraction(1, 100)]))
def test_the_index_plans_match_the_recursive_passes(data, kind, fee):
    # Gamma at 0, 1/2, 1 and between, and the wager at the price, put
    # margins and gains at exactly 0.
    p = draw_trade(data, fee=fee)
    tree = build_game_tree(p, kind(data.draw(st.just(p.price) | AMOUNT)))
    assert_the_plans_match_the_recursive_passes(tree)


def test_a_hand_set_table_is_solved_through_the_shared_plans():
    # Leaf payoffs (buyer, seller) over scale 2, set by hand on the shared shape:
    # - dispute_after_send: the seller forfeits (3 > 1), honest counter no maximizer;
    # - dispute_after_not_send: the seller is indifferent (0 = 0), so honest
    #   forfeit, listed second; the first maximizer, counter, would hand the
    #   buyer 3 and make after_not_send's dispute strict;
    # - after_not_send: the buyer is indifferent (1 = 1), so honest dispute,
    #   listed second.
    L = Leaf
    base = build_game_tree(params(), Standard(1))
    tree = GameTree({L.SEND_ACCEPT: (2, 2), L.SEND_DISPUTE_FORFEIT: (1, 3), L.SEND_DISPUTE_COUNTER: (0, 1),
                     L.NOSEND_ACCEPT: (1, 0), L.NOSEND_DISPUTE_FORFEIT: (1, 0), L.NOSEND_DISPUTE_COUNTER: (3, 0)},
                    2, base.params, base.scheme)
    assert_the_plans_match_the_recursive_passes(tree)

    solved = backward_induction(tree)
    assert list(solved.chosen.items()) == [
        (DISPUTE_AFTER_SEND, Action.FORFEIT), (AFTER_SEND, Action.ACCEPT),
        (DISPUTE_AFTER_NOSEND, Action.FORFEIT), (AFTER_NOSEND, Action.DISPUTE), (ROOT, Action.SEND),
    ]
    assert list(solved.margins.items()) == [
        (DISPUTE_AFTER_SEND, 1), (AFTER_SEND, Fraction(1, 2)), (DISPUTE_AFTER_NOSEND, 0), (AFTER_NOSEND, 0), (ROOT, 1),
    ]

    def profile(*actions):
        return dict(zip(HONEST_PROFILE, actions))

    S, N, A, D, C, F = Action.SEND, Action.NOT_SEND, Action.ACCEPT, Action.DISPUTE, Action.COUNTER, Action.FORFEIT
    # Not sending while the buyer would dispute a delivery and the seller
    # counter it: the seller reaches 0 and gains 3/2 only by sending and
    # forfeiting at once; sending alone gains 1/2, forfeiting alone 1.
    late = profile(N, D, C, A, C)
    assert profile_epsilon(tree, late) == Fraction(3, 2)
    assert profile_epsilon(tree, profile(S, D, C, A, C)) == 1
    assert profile_epsilon(tree, profile(N, D, F, A, C)) == Fraction(3, 2)
    profiles = list(all_profiles(tree))
    halves = [2, 2, 2, 2, 2, 0, 0, 0, 2, 2, 2, 2, 2, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]
    assert [profile_epsilon(tree, p) for p in profiles] == [Fraction(k, 2) for k in halves]
    exact = [profile(S, A, F, A, F), profile(S, A, F, D, C), profile(S, A, F, D, F)]
    assert brute_force_spe(tree) == exact
    assert [list(p) for p in brute_force_spe(tree)] == [list(HONEST_PROFILE)] * 3
    assert brute_force_spe(tree, Fraction(1, 2)) == [exact[0], profile(S, D, F, A, F), *exact[1:],
                                                     profile(S, D, F, D, C), profile(S, D, F, D, F)]
    assert len(brute_force_spe(tree, 1)) == 24 and late not in brute_force_spe(tree, 1)
    everything = brute_force_spe(tree, Fraction(3, 2))
    assert len(everything) == 32 and all(p in everything for p in profiles)


def test_profile_epsilon_reads_a_profile_whatever_its_key_order():
    # Every profile `all_profiles` yields has its keys in `_TREE` order, the
    # enumeration's own; reversed or shuffled, it must read the same epsilon.
    tree = build_game_tree(params(x=1, y=3, gamma="1/4", fee="1/10"), Standard(1))
    rng = Random(61)
    profiles = list(all_profiles(tree))
    assert len(profiles) == 32 and all(list(p) == list(HONEST_PROFILE) for p in profiles)
    for profile in profiles:
        items = list(profile.items())
        shuffled = items[:]
        while shuffled == items:
            rng.shuffle(shuffled)
        for order in (items[::-1], shuffled):
            assert profile_epsilon(tree, dict(order)) == profile_epsilon(tree, profile), order


@pytest.mark.parametrize(
    "node", [AFTER_SEND, ROOT, DecisionNode("elsewhere", Party.BUYER, {Action.ACCEPT: Leaf.SEND_ACCEPT})],
    ids=["a node id", "the root's id", "a node of no tree"],
)
def test_profile_value_refuses_a_node_of_another_shape_by_name(node):
    tree = build_game_tree(params(gamma="1/4"), Standard(1))
    with pytest.raises(ValueError, match=f"^{re.escape(repr(node))} is not a decision node of the tree$"):
        profile_value(tree, HONEST_PROFILE, node)
    deviation = {**HONEST_PROFILE, AFTER_SEND: Action.DISPUTE}
    assert profile_value(tree, deviation, tree.node(AFTER_SEND)) == profile_value(tree, deviation)


WAGER = st.one_of(
    st.fractions(min_value=Fraction(1, 60), max_value=6, max_denominator=60),
    st.integers(1, 6),
    st.sampled_from(["1/3", "7/9", "0.25", 0.5, Fraction(1, 10_007)]),
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    kinds=st.lists(st.sampled_from([Standard, WinnerRebate, Withheld]), min_size=1, max_size=3),
    gammas=st.lists(GAMMA, min_size=1, max_size=3),
)
def test_every_sweep_report_is_the_security_report_at_its_point(data, kinds, gammas):
    p = draw_trade(data, fee=0)
    x, xs = p.price, p.seller_value
    # Wagers at the price and fees at x - x' and x put margins at exactly 0.
    wagers = data.draw(st.lists(WAGER | st.just(x), min_size=1, max_size=6))
    fee = st.sampled_from([0, x - xs, x]) | st.fractions(min_value=0, max_value=2 * x, max_denominator=12)
    fees = data.draw(st.lists(fee, min_size=1, max_size=3))
    reports = sweep(p, gammas, wagers, fees, kinds)
    points = [
        (replace(p, arbiter_error=gamma, fee=fee), kind(wager))
        for kind in kinds for gamma in gammas for fee in fees for wager in wagers
    ]
    singles = [security_report(point, scheme) for point, scheme in points]
    naives = [naive_security_report(point, scheme) for point, scheme in points]
    assert reports == singles and all(map(same_slacks, reports, singles))
    assert len(reports) == len(naives) and all(map(matches_naive, reports, naives))
    for report in reports:
        assert all(type(v) is Fraction for v in (report.wager, report.gamma, report.fee))
        assert report.sound_epsilon_max is None or type(report.sound_epsilon_max) is Fraction
        assert report.strong == report.complete


def test_a_sweep_report_equals_the_security_report_over_another_scale():
    # 1/7 beside 1 puts the sweep row's margins over a scale the single wager lacks.
    p = params(x=Fraction(3, 2), y=4, gamma=Fraction(1, 4))
    [_, swept] = sweep(p, gammas=[p.arbiter_error], wagers=[Fraction(1, 7), 1])
    single = security_report(p, Standard(1))
    assert swept.scale != single.scale and swept.margins != single.margins
    assert swept == single and not swept != single and same_slacks(swept, single)


def test_reports_that_differ_in_one_slack_are_unequal():
    report = security_report(params(gamma=Fraction(1, 4)), Standard(1))
    for k in range(len(report.margins)):
        margins = list(report.margins)
        margins[k] += 1
        assert replace(report, margins=tuple(margins)) != report
    # The same slacks over twice the scale are the same report.
    doubled = replace(report, margins=tuple(2 * m for m in report.margins), scale=2 * report.scale)
    assert doubled == report and same_slacks(doubled, report)
    assert report != "a report"


def test_a_report_holds_no_verdict_apart_from_its_margins():
    report = security_report(params(gamma=Fraction(1, 4)), Standard(1))
    for verdict in ("complete", "strong", "weak", "binding", "sound_epsilon_max"):
        with pytest.raises(TypeError):
            replace(report, **{verdict: getattr(report, verdict)})


def test_a_report_is_not_hashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(security_report(params(), Standard(1)))


# ---------------------------------------------------------------------------
# Winner rebate and withheld wagers
# ---------------------------------------------------------------------------


def winner_rebate_closed_form(p, eps):
    """The paper's least epsilon-sound winner-rebate wager without a fee."""
    g = p.arbiter_error
    return (p.price * g + eps) / (1 - 2 * g)


def least_rebate_wager(p, eps):
    return lambda_interval(p, WinnerRebate, eps).lower


def test_winner_rebate_wager_examples():
    assert least_rebate_wager(params(gamma=0), 1) == 1
    assert least_rebate_wager(params(gamma="1/4"), Fraction(1, 4)) == 1


def test_winner_rebate_wager_achieves_its_bound():
    rng = Random(61)
    for _ in range(100):
        p = draw_params(rng, gamma_hi=Fraction(9, 20))
        eps = rand_fraction(rng, Fraction(1, 10), p.price)
        p = TradeParams(
            price=p.price,
            seller_value=p.seller_value,
            buyer_value=p.price + eps + p.buyer_value,  # keep the side conditions
            arbiter_error=p.arbiter_error,
        )
        lam = least_rebate_wager(p, eps)
        assert check_soundness(p, WinnerRebate(lam), eps)


def test_winner_rebate_needs_a_larger_wager_at_the_old_bound():
    # At eps = x(1-2g) the rebate wager is x + x*g/(1-2g), above x for g > 0.
    rng = Random(67)
    for _ in range(50):
        gamma = rand_fraction(rng, Fraction(1, 20), Fraction(9, 20))
        p = params(x=2, y=9, gamma=gamma)
        eps = 2 * (1 - 2 * gamma)
        lam = least_rebate_wager(p, eps)
        assert lam == 2 + 2 * gamma / (1 - 2 * gamma)
        assert lam > 2


def test_winner_rebate_impossible_at_fair_coin():
    # No wager is sound once the arbiter errs half the time, whatever the fee.
    for gamma, fee in itertools.product(["1/2", "3/4", 1], [0, "1/2", 2]):
        assert lambda_interval(params(gamma=gamma, fee=fee), WinnerRebate, 1).empty


def test_winner_rebate_impossible_when_the_fee_breaks_a_wager_free_row():
    # A fee of 2 above the price of 1: disputing a missing item is not worth it.
    p = params(gamma="1/4", fee=2)
    assert lambda_interval(p, WinnerRebate).empty
    assert security_report(p, WinnerRebate(1)).slacks[BUYER_DISPUTES] < 0
    # A fee of 1/2 above the seller's 1/4 gain from the sale.
    p = params(xs="3/4", gamma="1/4", fee="1/2")
    assert lambda_interval(p, WinnerRebate).empty
    assert security_report(p, WinnerRebate(1)).slacks[SELLER_SENDS] < 0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_winner_rebate_wager_is_strong_whenever_some_wager_is_complete(data):
    x = data.draw(AMOUNT)
    xs = x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
    gamma = data.draw(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=60).filter(lambda g: g < 1 / 2))
    # A fee on either side of the two wager-free rows, which flip at x - x' and at x.
    fee = data.draw(
        st.sampled_from([x - xs, x]) | st.fractions(min_value=Fraction(1, 12), max_value=2 * x, max_denominator=12)
    )
    p = TradeParams(price=x, seller_value=xs, buyer_value=x + data.draw(AMOUNT), arbiter_error=gamma, fee=fee)
    eps = data.draw(AMOUNT)
    closed = winner_rebate_closed_form(p, eps)
    if lambda_interval(p, WinnerRebate).empty:
        # Below half, gamma leaves only a wager-free row to fail.
        slacks = security_report(p, WinnerRebate(closed)).slacks
        assert min(slacks[BUYER_DISPUTES], slacks[SELLER_SENDS]) <= 0
        return
    # With a fee the closed form is sound but need not be the least sound
    # wager, and the interval may be open at 0.
    interval = lambda_interval(p, WinnerRebate, eps)
    assert in_interval(interval, closed)
    for lam in [closed, interval.lower] if interval.lower_closed else [closed]:
        report = security_report(p, WinnerRebate(lam))
        assert report.strong and report.sound_epsilon_max >= eps


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_winner_rebate_wager_is_the_least_sound_wager_without_a_fee(data):
    # At fee 0 the closed form is the lower end of the epsilon-sound
    # interval, and that end is itself sound.
    x = data.draw(AMOUNT)
    xs = x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
    gamma = data.draw(
        st.just(0) | st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=60).filter(lambda g: g < 1 / 2)
    )
    p = TradeParams(price=x, seller_value=xs, buyer_value=x + data.draw(AMOUNT), arbiter_error=gamma)
    eps = data.draw(AMOUNT)
    interval = lambda_interval(p, WinnerRebate, eps)
    assert winner_rebate_closed_form(p, eps) == interval.lower
    assert interval.lower_closed and in_interval(interval, interval.lower)


def withheld_at_half_price(p):
    return security_report(p, Withheld(p.price / 2))


def test_withheld_security_examples():
    report = withheld_at_half_price(params(x=2, y=5, gamma=0))
    assert report.strong and report.sound_epsilon_max == 1 and report.wager == 1

    report = withheld_at_half_price(params(x=1, y=3, gamma="1/4"))
    assert report.strong and report.sound_epsilon_max == Fraction(1, 4)

    report = withheld_at_half_price(params(gamma="1/2"))
    assert not report.strong


def test_withheld_half_wager_bound_matches_brute_force():
    rng = Random(71)
    for _ in range(25):
        p = draw_params(rng, gamma_hi=Fraction(9, 20), seller_value_zero=True)
        scheme = Withheld(p.price / 2)
        tree = build_game_tree(p, scheme)
        requirement = min(
            profile_epsilon(tree, prof) for prof in _all_dishonest_profiles(tree)
        )
        expected = p.price * (1 - 2 * p.arbiter_error) / 2
        assert requirement == expected
        assert security_report(p, scheme).sound_epsilon_max == expected


# ---------------------------------------------------------------------------
# Generic payout rules
# ---------------------------------------------------------------------------


def test_generic_rules_cannot_beat_the_fair_coin():
    assert generic_impossibility(2, 1, 0)
    assert not generic_impossibility(2, 1, "1/2")
    assert generic_impossibility(2, 1, "49/100")


def test_generic_impossibility_boundary_is_sharp():
    rng = Random(73)
    for _ in range(100):
        omega = rand_fraction(rng, Fraction(1, 4), 5)
        ell = rand_fraction(rng, 0, 5)
        if omega + ell <= 0:
            continue
        gamma = rand_fraction(rng, 0, 1)
        assert generic_impossibility(omega, ell, gamma) == (gamma < Fraction(1, 2))


def test_generic_impossibility_requires_winning_preferred():
    with pytest.raises(ValueError):
        generic_impossibility(-1, 1, 0)


def naive_generic_impossibility(omega, ell, gamma):
    """Reference: a dishonest seller's countering value is strictly below an
    honest seller's."""
    w, l, g = Fraction(omega), Fraction(ell), Fraction(gamma)
    return w * g - l * (1 - g) < w * (1 - g) - l * g


@settings(max_examples=500, deadline=None)
@given(
    omega=st.fractions(min_value=-4, max_value=4, max_denominator=12),
    ell=st.fractions(min_value=-4, max_value=4, max_denominator=12),
    gamma=st.sampled_from([0, Fraction(1, 2), 1]) | st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_generic_impossibility_reads_the_seller_rows_of_the_margin_table(omega, ell, gamma):
    if omega + ell <= 0:
        with pytest.raises(ValueError, match="winning must be preferred"):
            generic_impossibility(omega, ell, gamma)
    else:
        assert generic_impossibility(omega, ell, gamma) == naive_generic_impossibility(omega, ell, gamma)


@pytest.mark.parametrize("gamma", [-1, Fraction(-1, 100), Fraction(101, 100), 2, "3/2"])
def test_generic_impossibility_refuses_a_gamma_outside_the_unit_interval(gamma):
    with pytest.raises(ValueError, match=r"arbiter_error must lie in \[0, 1\]"):
        generic_impossibility(2, 1, gamma)
