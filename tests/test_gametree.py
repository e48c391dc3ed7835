from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.gametree import (
    _FEE_BEARING,
    Action,
    Leaf,
    Party,
    PayoffPair,
    build_game_tree,
    leaf_path,
    leaf_payoff,
)
from escrowlab.trade import Generic, InvalidTradeError, Standard, TradeParams, WinnerRebate, Withheld, scaled

from conftest import draw_params, rand_fraction


def standard_leaf_formulas(x, xs, y, g, lam):
    """The six leaf payoffs of the standard-wager tree, written out directly."""
    return {
        Leaf.SEND_ACCEPT: (y - x, x - xs),
        Leaf.SEND_DISPUTE_FORFEIT: (y, -xs),
        Leaf.SEND_DISPUTE_COUNTER: (
            y * g - (x + lam) * (1 - g),
            x * (1 - g) - lam * g - xs,
        ),
        Leaf.NOSEND_ACCEPT: (-x, x),
        Leaf.NOSEND_DISPUTE_FORFEIT: (Fraction(0), Fraction(0)),
        Leaf.NOSEND_DISPUTE_COUNTER: (
            -(x + lam) * g,
            x * g - lam * (1 - g),
        ),
    }


def table_payoffs(tree):
    """The tree's int leaf table as exact `PayoffPair`s, each int read over its scale."""
    return {leaf: PayoffPair(Fraction(buyer, tree.scale), Fraction(seller, tree.scale))
            for leaf, (buyer, seller) in tree.leaves.items()}


def test_standard_leaves_match_the_closed_forms():
    rng = Random(7)
    for _ in range(50):
        p = draw_params(rng)
        lam = rand_fraction(rng, Fraction(1, 4), 6)
        tree = build_game_tree(p, Standard(lam))
        expected = standard_leaf_formulas(p.price, p.seller_value, p.buyer_value, p.arbiter_error, lam)
        got = {leaf: tuple(pair) for leaf, pair in table_payoffs(tree).items()}
        assert got == expected


def test_arbitration_leaf_with_perfect_arbiter():
    # x=1, x'=0, y=2, gamma=0: the disputing buyer always loses x+lam,
    # the honest seller is always paid.
    p = TradeParams(price=1, seller_value=0, buyer_value=2, arbiter_error=0)
    pay = leaf_payoff(Leaf.SEND_DISPUTE_COUNTER, p, Standard(1))
    assert pay == (-2, 1)


def test_accept_after_send_leaf_for_any_params():
    rng = Random(11)
    for _ in range(20):
        p = draw_params(rng)
        pay = leaf_payoff(Leaf.SEND_ACCEPT, p, Standard(1))
        assert pay == (p.buyer_value - p.price, p.price - p.seller_value)


def test_fair_coin_and_matching_wager_arbitration_leaves():
    # At gamma=1/2 with the wager equal to the price, the not-send
    # arbitration leaf is (-(x+lam)/2, (x-lam)/2) = (-x, 0).
    p = TradeParams(price=3, seller_value=1, buyer_value=5, arbiter_error="1/2")
    pay = leaf_payoff(Leaf.NOSEND_DISPUTE_COUNTER, p, Standard(3))
    assert pay == (-3, 0)
    assert pay.buyer == -(p.price + 3) / 2
    assert pay.seller == (p.price - 3) / 2


def test_named_leaf_values():
    p = TradeParams(price=2, seller_value=1, buyer_value=4)
    assert leaf_payoff("not-send,accept", p, Standard(1)) == (-2, 2)
    assert leaf_payoff("not-send,dispute,forfeit", p, Standard(1)) == (0, 0)


def test_winner_rebate_leaf_with_perfect_arbiter():
    # gamma=0: the honest seller always wins and pockets the buyer's wager.
    p = TradeParams(price=2, seller_value=1, buyer_value=4, arbiter_error=0)
    lam = Fraction(3, 2)
    pay = leaf_payoff(Leaf.SEND_DISPUTE_COUNTER, p, WinnerRebate(lam))
    assert pay == (-(p.price + lam), p.price + lam - p.seller_value)


def test_unknown_leaf_id_rejected():
    p = TradeParams(price=1, buyer_value=2)
    with pytest.raises(ValueError):
        leaf_payoff("send,nonsense", p, Standard(1))


def test_tree_shape():
    tree = build_game_tree(TradeParams(price=1, buyer_value=2), Standard(1))
    nodes = list(tree.nodes.values())
    assert len(nodes) == 5
    assert len(tree.leaves) == 6
    assert sum(len(n.actions) for n in nodes) == 10  # edges
    ends = {child for n in nodes for child in n.actions.values() if isinstance(child, Leaf)}
    assert ends == set(tree.leaves) == set(Leaf)
    owners = {n.node_id: n.owner for n in nodes}
    assert owners["root"] == Party.SELLER
    assert owners["after_send"] == Party.BUYER
    assert owners["dispute_after_send"] == Party.SELLER
    assert owners["after_not_send"] == Party.BUYER
    assert owners["dispute_after_not_send"] == Party.SELLER


def test_wager_sink_conservation_at_arbitration_leaves():
    # Standard scheme, no fees: at either arbitration leaf the two payoffs sum
    # to the realized trade surplus minus one wager, which is what the arbiter
    # keeps.  On the delivered branch the buyer's value only counts on a win
    # (expected y*gamma) and the seller's cost x' is sunk; on the undelivered
    # branch there is no item at all.
    rng = Random(13)
    for _ in range(50):
        p = draw_params(rng)
        lam = rand_fraction(rng, Fraction(1, 4), 6)
        delivered = leaf_payoff(Leaf.SEND_DISPUTE_COUNTER, p, Standard(lam))
        surplus = p.buyer_value * p.arbiter_error - p.seller_value
        assert delivered.buyer + delivered.seller == surplus - lam
        undelivered = leaf_payoff(Leaf.NOSEND_DISPUTE_COUNTER, p, Standard(lam))
        assert undelivered.buyer + undelivered.seller == -lam


# Non-default moves by (buyer, seller) on the path to each leaf: disputing and
# countering cost a fee, as does the seller's delivery notification; accepting
# and forfeiting are reachable by timeout and therefore free.
EXPECTED_FEE_MOVES = {
    Leaf.SEND_ACCEPT: (0, 1),
    Leaf.SEND_DISPUTE_FORFEIT: (1, 1),
    Leaf.SEND_DISPUTE_COUNTER: (1, 2),
    Leaf.NOSEND_ACCEPT: (0, 0),
    Leaf.NOSEND_DISPUTE_FORFEIT: (1, 0),
    Leaf.NOSEND_DISPUTE_COUNTER: (1, 1),
}


def test_fees_reduce_each_player_by_fee_times_their_moves():
    rng = Random(17)
    for _ in range(40):
        fee = rand_fraction(rng, Fraction(1, 20), 1)
        p = draw_params(rng, fee=fee)
        lam = rand_fraction(rng, Fraction(1, 4), 6)
        for leaf_id, (b_moves, s_moves) in EXPECTED_FEE_MOVES.items():
            free = leaf_payoff(leaf_id, replace(p, fee=0), Standard(lam))
            charged = leaf_payoff(leaf_id, p, Standard(lam))
            assert charged.buyer == free.buyer - b_moves * fee
            assert charged.seller == free.seller - s_moves * fee
            assert charged.buyer <= free.buyer and charged.seller <= free.seller


def test_generic_with_standard_payouts_reproduces_standard():
    # The standard winner is paid price + wager gross; net of their own wager
    # that is a win of exactly the price against a loss of the wager.  The
    # winner-rebate winner also nets the loser's wager, the withheld winner
    # loses their own: a win of price + slope * wager in every named scheme.
    rng = Random(19)
    for _ in range(100):
        p = draw_params(rng)
        lam = rand_fraction(rng, Fraction(1, 4), 6)
        for kind, slope in ((Standard, 0), (WinnerRebate, 1), (Withheld, -1)):
            generic = Generic(win_amount=p.price + slope * lam, loss_amount=lam)
            for leaf_id in Leaf:
                assert leaf_payoff(leaf_id, p, generic) == leaf_payoff(leaf_id, p, kind(lam))


def test_every_tree_shares_one_read_only_shape():
    a = build_game_tree(TradeParams(price=1, buyer_value=2), Standard(1))
    other = TradeParams(price=3, seller_value=1, buyer_value=7, arbiter_error="1/3", fee="1/20")
    b = build_game_tree(other, Withheld(2))
    assert a.root is b.root and a.nodes is b.nodes
    assert table_payoffs(a) != table_payoffs(b)
    with pytest.raises(TypeError):
        a.nodes["root"] = a.root
    with pytest.raises(TypeError):
        del a.nodes["root"]
    with pytest.raises(TypeError):
        a.root.actions[Action.SEND] = Leaf.SEND_ACCEPT
    assert a.root.actions[Action.SEND] is b.node("after_send")


def naive_leaf_payoff(leaf_id, params, scheme):
    """Reference: `leaf_payoff` as it was, each leaf derived on its own and
    its fee moves counted on its path."""
    try:
        leaf = Leaf(leaf_id) if not isinstance(leaf_id, Leaf) else leaf_id
    except ValueError:
        raise ValueError(f"unknown leaf id {leaf_id!r}") from None

    x = params.price
    xs = params.seller_value
    y = params.buyer_value
    g = params.arbiter_error
    win = scheme.win_gain(params)
    loss = scheme.loss_cost(params)

    if leaf is Leaf.SEND_ACCEPT:
        pair = (y - x, x - xs)
    elif leaf is Leaf.SEND_DISPUTE_FORFEIT:
        pair = (y, -xs)
    elif leaf is Leaf.SEND_DISPUTE_COUNTER:
        # Disputing buyer (who has the item) wins with probability g.
        buyer = g * (y + win - x) + (1 - g) * (-x - loss)
        seller = (1 - g) * win - g * loss - xs
        pair = (buyer, seller)
    elif leaf is Leaf.NOSEND_ACCEPT:
        pair = (-x, x)
    elif leaf is Leaf.NOSEND_DISPUTE_FORFEIT:
        pair = (Fraction(0), Fraction(0))
    else:  # NOSEND_DISPUTE_COUNTER: honest buyer wins with probability 1 - g.
        buyer = (1 - g) * (win - x) + g * (-x - loss)
        seller = g * win - (1 - g) * loss
        pair = (buyer, seller)

    if params.fee:
        movers = [mover for mover, action in leaf_path(leaf) if action in _FEE_BEARING]
        b_moves, s_moves = movers.count(Party.BUYER), movers.count(Party.SELLER)
        pair = (pair[0] - b_moves * params.fee, pair[1] - s_moves * params.fee)
    return PayoffPair(*pair)


AMOUNT = st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12)


PRIMES = [2, 3, 5, 7, 11, 13]


def over_prime(data, prime, whole=3):
    """A positive fraction whose reduced denominator is exactly `prime`."""
    return Fraction(prime * data.draw(st.integers(0, whole)) + data.draw(st.integers(1, prime - 1)), prime)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from([Standard, WinnerRebate, Withheld, Generic]),
    charged=st.booleans(),
    coprime=st.booleans(),
)
def test_leaf_payoff_matches_the_naive_leaf_payoff(data, kind, charged, coprime):
    if coprime:
        # Price, gamma, fee and wager over four distinct primes, so the leaf
        # table's one scale is their product; these draws always carry a fee.
        primes = data.draw(st.permutations(PRIMES))[:4]
        x = over_prime(data, primes[0])
        p = TradeParams(
            price=x,
            seller_value=Fraction(data.draw(st.integers(0, x.numerator - 1)), primes[0]),
            buyer_value=x + data.draw(st.integers(1, 4)),
            arbiter_error=over_prime(data, primes[1], whole=0),
            fee=over_prime(data, primes[2]),
        )
        wager = over_prime(data, primes[3])
        scheme = Generic(x + wager, wager) if kind is Generic else kind(wager)
        values = [x, p.seller_value, p.buyer_value, p.arbiter_error, scheme.win_gain(p), scheme.loss_cost(p), p.fee]
        assert scaled(values)[1] == primes[0] * primes[1] * primes[2] * primes[3]
    else:
        x = data.draw(AMOUNT)
        p = TradeParams(
            price=x,
            seller_value=x * data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10)),
            buyer_value=x + data.draw(AMOUNT),
            arbiter_error=data.draw(st.sampled_from([0, Fraction(1, 2), 1]) | st.fractions(0, 1, max_denominator=60)),
            fee=data.draw(AMOUNT) if charged else 0,
        )
        if kind is Generic:
            loss = data.draw(st.just(0) | AMOUNT)
            scheme = Generic(data.draw(AMOUNT) - loss, loss)
        else:
            scheme = kind(data.draw(AMOUNT))
    tree = build_game_tree(p, scheme)
    for leaf in Leaf:
        expected = naive_leaf_payoff(leaf, p, scheme)
        for got in (leaf_payoff(leaf, p, scheme), leaf_payoff(leaf.value, p, scheme), table_payoffs(tree)[leaf]):
            assert got == expected
            assert type(got) is PayoffPair and [type(v) for v in got] == [type(v) for v in expected]


def test_build_game_tree_rejects_non_params():
    with pytest.raises(InvalidTradeError):
        build_game_tree({"x": 1}, Standard(1))
    with pytest.raises(InvalidTradeError, match="^params must be a TradeParams instance$"):
        leaf_payoff(Leaf.SEND_ACCEPT, {"x": 1}, Standard(1))
