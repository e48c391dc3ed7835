"""Extensive-form game of the escrow contract after both parties accepted.

The tree has five decision nodes and six leaves:

    root (seller): send | not-send
      send -> buyer: accept | dispute
        dispute -> seller: counter | forfeit
      not-send -> buyer: accept | dispute
        dispute -> seller: counter | forfeit

Leaf payoffs are expected changes in funds, buyer first.  Arbiter randomness
is folded into expectations, so the tree is deterministic.  The buyer's item
value y enters an arbitration leaf only on the branch where the buyer wins;
that convention is what makes the no-dispute and arbitration leaves line up
with the contract's actual fund flows.

Every non-default move on the path to a leaf costs its mover the fee
(`TradeParams.fee`); default actions (accept for the buyer, forfeit for the
seller, and the seller staying silent) are free because a party can always
reach them by timing out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Union

from .trade import InvalidTradeError, TradeParams, WagerScheme


class Party(enum.Enum):
    BUYER = "buyer"
    SELLER = "seller"

    def other(self) -> "Party":
        return Party.SELLER if self is Party.BUYER else Party.BUYER


class Action(enum.Enum):
    SEND = "send"
    NOT_SEND = "not-send"
    ACCEPT = "accept"
    DISPUTE = "dispute"
    COUNTER = "counter"
    FORFEIT = "forfeit"


class Leaf(enum.Enum):
    """The six terminal outcomes, named by the path that reaches them."""

    SEND_ACCEPT = "send,accept"
    SEND_DISPUTE_FORFEIT = "send,dispute,forfeit"
    SEND_DISPUTE_COUNTER = "send,dispute,counter"
    NOSEND_ACCEPT = "not-send,accept"
    NOSEND_DISPUTE_FORFEIT = "not-send,dispute,forfeit"
    NOSEND_DISPUTE_COUNTER = "not-send,dispute,counter"


class PayoffPair(NamedTuple):
    """(buyer, seller) expected payoff at a leaf."""

    buyer: Fraction
    seller: Fraction

    def for_party(self, party: Party) -> Fraction:
        return self.buyer if party is Party.BUYER else self.seller


def leaf_payoff(leaf_id: Union[Leaf, str], params: TradeParams, scheme: WagerScheme) -> PayoffPair:
    """Expected (buyer, seller) payoff at one of the six named outcomes."""
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


@dataclass(frozen=True)
class LeafNode:
    leaf_id: Leaf
    payoff: PayoffPair


@dataclass(frozen=True)
class DecisionNode:
    node_id: str
    owner: Party
    actions: dict[Action, "TreeNode"] = field(hash=False)


TreeNode = Union[DecisionNode, LeafNode]

ROOT = "root"
AFTER_SEND = "after_send"
DISPUTE_AFTER_SEND = "dispute_after_send"
AFTER_NOSEND = "after_not_send"
DISPUTE_AFTER_NOSEND = "dispute_after_not_send"

#: The tree, one row per decision node, parents before children:
#: (node id, owner, honest action, action -> child node id or leaf).  The
#: honest actions deliver, accept deliveries, contest bogus disputes, and
#: raise and stand by justified ones.
_TREE: tuple[tuple[str, Party, Action, dict[Action, Union[str, Leaf]]], ...] = (
    (ROOT, Party.SELLER, Action.SEND,
     {Action.SEND: AFTER_SEND, Action.NOT_SEND: AFTER_NOSEND}),
    (AFTER_SEND, Party.BUYER, Action.ACCEPT,
     {Action.ACCEPT: Leaf.SEND_ACCEPT, Action.DISPUTE: DISPUTE_AFTER_SEND}),
    (DISPUTE_AFTER_SEND, Party.SELLER, Action.COUNTER,
     {Action.COUNTER: Leaf.SEND_DISPUTE_COUNTER, Action.FORFEIT: Leaf.SEND_DISPUTE_FORFEIT}),
    (AFTER_NOSEND, Party.BUYER, Action.DISPUTE,
     {Action.ACCEPT: Leaf.NOSEND_ACCEPT, Action.DISPUTE: DISPUTE_AFTER_NOSEND}),
    (DISPUTE_AFTER_NOSEND, Party.SELLER, Action.FORFEIT,
     {Action.COUNTER: Leaf.NOSEND_DISPUTE_COUNTER, Action.FORFEIT: Leaf.NOSEND_DISPUTE_FORFEIT}),
)

#: The honest action at every decision node.
HONEST_PROFILE: dict[str, Action] = {node_id: honest for node_id, _, honest, _ in _TREE}

#: Moves that cost their mover the fee.  Accepting and forfeiting coincide
#: with timeout defaults and cost nothing; so does the seller never sending.
_FEE_BEARING = (Action.SEND, Action.DISPUTE, Action.COUNTER)


@cache
def leaf_path(leaf: Leaf) -> tuple[tuple[Party, Action], ...]:
    """The (mover, action) pairs from the root down to `leaf`."""
    paths: dict = {ROOT: ()}
    for node_id, owner, _, edges in _TREE:
        for action, target in edges.items():
            paths[target] = paths[node_id] + ((owner, action),)
    return paths[leaf]


@dataclass(frozen=True)
class GameTree:
    """The built tree: its decision nodes by id, root first, in `_TREE` order."""

    nodes: dict[str, DecisionNode] = field(hash=False)
    params: TradeParams
    scheme: WagerScheme

    @property
    def root(self) -> DecisionNode:
        return self.nodes[ROOT]

    def decision_nodes(self) -> list[DecisionNode]:
        return list(self.nodes.values())

    def leaves(self) -> list[LeafNode]:
        children = (child for node in self.nodes.values() for child in node.actions.values())
        return [child for child in children if isinstance(child, LeafNode)]

    def node(self, node_id: str) -> DecisionNode:
        return self.nodes[node_id]


def build_game_tree(params: TradeParams, scheme: WagerScheme) -> GameTree:
    """Build the contract's game tree with scheme- and fee-adjusted payoffs."""
    if not isinstance(params, TradeParams):
        raise InvalidTradeError("params must be a TradeParams instance")

    def child(target: Union[str, Leaf]) -> TreeNode:
        if isinstance(target, Leaf):
            return LeafNode(target, leaf_payoff(target, params, scheme))
        return nodes[target]

    # Children are built before their parents; the tree lists the root first.
    nodes: dict[str, DecisionNode] = {}
    for node_id, owner, _, edges in reversed(_TREE):
        nodes[node_id] = DecisionNode(
            node_id, owner, {action: child(target) for action, target in edges.items()}
        )
    return GameTree(dict(reversed(nodes.items())), params, scheme)
