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

The shape and the six leaf paths are built once, at import, from `_TREE`,
and every tree shares them.  `_leaf_table` states the six payoffs once, as
int forms constant + coeff * stake over one scale (`trade.scaled`), less the
fees counted once per leaf in `_FEE_MOVES`; `equilibrium` reads the five
constraint margins off the same forms.  A tree holds them at its scheme's
stake, its only form of the table; `leaf_payoff` makes one leaf's `Fraction`s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

from .trade import InvalidTradeError, TradeParams, WagerScheme, scaled


class Party(enum.Enum):
    BUYER = "buyer"
    SELLER = "seller"

    __hash__ = object.__hash__  # identity hashing in C, as equality is identity

    def other(self) -> "Party":
        return Party.SELLER if self is Party.BUYER else Party.BUYER


class Action(enum.Enum):
    SEND = "send"
    NOT_SEND = "not-send"
    ACCEPT = "accept"
    DISPUTE = "dispute"
    COUNTER = "counter"
    FORFEIT = "forfeit"

    __hash__ = object.__hash__


class Leaf(enum.Enum):
    """The six terminal outcomes, named by the path that reaches them."""

    SEND_ACCEPT = "send,accept"
    SEND_DISPUTE_FORFEIT = "send,dispute,forfeit"
    SEND_DISPUTE_COUNTER = "send,dispute,counter"
    NOSEND_ACCEPT = "not-send,accept"
    NOSEND_DISPUTE_FORFEIT = "not-send,dispute,forfeit"
    NOSEND_DISPUTE_COUNTER = "not-send,dispute,counter"

    __hash__ = object.__hash__


class PayoffPair(NamedTuple):
    """(buyer, seller) expected payoff at a leaf."""

    buyer: Fraction
    seller: Fraction

    def for_party(self, party: Party) -> Fraction:
        return self.buyer if party is Party.BUYER else self.seller


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


def _paths() -> dict[Leaf, tuple[tuple[Party, Action], ...]]:
    """Each leaf's (mover, action) pairs from the root down, walked once through `_TREE`."""
    paths: dict = {ROOT: ()}
    for node_id, owner, _, edges in _TREE:
        for action, target in edges.items():
            paths[target] = paths[node_id] + ((owner, action),)
    return {leaf: paths[leaf] for leaf in Leaf}


_PATHS = _paths()


def leaf_path(leaf: Leaf) -> tuple[tuple[Party, Action], ...]:
    """The (mover, action) pairs from the root down to `leaf`."""
    return _PATHS[leaf]


#: Each leaf's (buyer, seller) count of fee-bearing moves on its path.
_FEE_MOVES: dict[Leaf, tuple[int, int]] = {
    leaf: tuple(sum(mover is party and action in _FEE_BEARING for mover, action in path) for party in Party)
    for leaf, path in _PATHS.items()
}


def _leaf_table(
    params: TradeParams, win: Fraction, slope: int, stakes: list[Fraction]
) -> tuple[dict[Leaf, tuple[tuple[int, int], tuple[int, int]]], list[int], int]:
    """The six leaf payoffs as (buyer, seller) int forms (constant, coeff),
    meaning constant + coeff * stake, when each disputant stakes `stake`,
    the arbitration winner nets win + slope * stake and the loser loses
    the stake; each party less the fee once per fee-bearing move of its own
    (`_FEE_MOVES`).  The values and stakes go over one scale s
    (`trade.scaled`): a constant is an int over s * s, a coeff over s.
    Returns (the forms by leaf, each stake as an int over s, s)."""
    (x, xs, y, g, win, fee, *wagers), s = scaled([
        params.price, params.seller_value, params.buyer_value, params.arbiter_error, win, params.fee, *stakes,
    ])
    h = s - g
    table = {
        Leaf.SEND_ACCEPT: (((y - x) * s, 0), ((x - xs) * s, 0)),
        Leaf.SEND_DISPUTE_FORFEIT: ((y * s, 0), (-xs * s, 0)),
        # The disputing buyer, who has the item, wins with probability g.
        Leaf.SEND_DISPUTE_COUNTER: ((g * (y + win - x) - h * x, g * slope - h), (h * win - xs * s, h * slope - g)),
        Leaf.NOSEND_ACCEPT: ((-x * s, 0), (x * s, 0)),
        Leaf.NOSEND_DISPUTE_FORFEIT: ((0, 0), (0, 0)),
        # The honest buyer wins with probability 1 - g.
        Leaf.NOSEND_DISPUTE_COUNTER: ((h * win - x * s, h * slope - g), (g * win, g * slope - h)),
    }
    fee *= s
    forms = {
        leaf: ((buyer - _FEE_MOVES[leaf][0] * fee, bk), (seller - _FEE_MOVES[leaf][1] * fee, sk))
        for leaf, ((buyer, bk), (seller, sk)) in table.items()
    }
    return forms, wagers, s


def leaf_payoff(leaf_id: Union[Leaf, str], params: TradeParams, scheme: WagerScheme) -> PayoffPair:
    """Expected (buyer, seller) payoff at one of the six named outcomes."""
    try:
        leaf = Leaf(leaf_id) if not isinstance(leaf_id, Leaf) else leaf_id
    except ValueError:
        raise ValueError(f"unknown leaf id {leaf_id!r}") from None
    tree = build_game_tree(params, scheme)
    buyer, seller = tree.leaves[leaf]
    return PayoffPair(Fraction(buyer, tree.scale), Fraction(seller, tree.scale))


@dataclass(frozen=True)
class DecisionNode:
    node_id: str
    owner: Party
    actions: Mapping[Action, Union["DecisionNode", Leaf]] = field(hash=False)

    def __reduce_ex__(self, protocol):
        """A node of the shared shape pickles and copies as that very node,
        as an enum member does; any other node as a plain dataclass."""
        if _SHAPE.get(self.node_id) is self:
            return _shape_node, (self.node_id,)
        return super().__reduce_ex__(protocol)


def _shape_node(node_id: str) -> DecisionNode:
    return _SHAPE[node_id]


def _shape() -> Mapping[str, DecisionNode]:
    """The tree's shape, built once and shared by every tree: one
    `DecisionNode` per `_TREE` row, by id, root first.  A node id target is
    its node, built before its parent, and a leaf stays a `Leaf`; the nodes
    and each node's actions are read-only views."""
    nodes: dict[str, DecisionNode] = {}
    for node_id, owner, _, edges in reversed(_TREE):
        children = {action: nodes.get(target, target) for action, target in edges.items()}
        nodes[node_id] = DecisionNode(node_id, owner, MappingProxyType(children))
    return MappingProxyType(dict(reversed(nodes.items())))


_SHAPE = _shape()
#: The six leaves, the keys of every tree's leaf table.
_LEAVES = frozenset(Leaf)


@dataclass(frozen=True)
class GameTree:
    """Its leaf table, each leaf's (buyer, seller) payoffs as ints over
    `scale`, and its setup.  Its shape is `_SHAPE`: `nodes` is the shared
    read-only map of decision nodes by id, root first, in `_TREE` order."""

    leaves: Mapping[Leaf, tuple[int, int]] = field(hash=False)
    scale: int
    params: TradeParams
    scheme: WagerScheme

    nodes = _SHAPE
    root = _SHAPE[ROOT]

    def __post_init__(self) -> None:
        """Refuse by name a leaf table that does not map exactly the six
        leaves each to a pair of ints, and a scale that is not a positive
        int, so the solvers never meet one."""
        leaves, scale = self.leaves, self.scale
        try:
            kinds = {(type(buyer), type(seller)) for buyer, seller in leaves.values()}
        except (AttributeError, TypeError, ValueError):
            kinds = None
        if kinds != {(int, int)} or leaves.keys() != _LEAVES:
            raise ValueError(f"a game tree's leaves must map the six leaves each to a pair of ints, got {leaves!r}")
        if type(scale) is not int or scale <= 0:
            raise ValueError(f"a game tree's scale must be a positive int, got {scale!r}")

    def node(self, node_id: str) -> DecisionNode:
        return _SHAPE[node_id]


def build_game_tree(params: TradeParams, scheme: WagerScheme) -> GameTree:
    """The contract's game tree: the shared shape and the leaf forms at the
    scheme's own stake, the arbitration winner netting `win_gain`."""
    if not isinstance(params, TradeParams):
        raise InvalidTradeError("params must be a TradeParams instance")
    forms, (stake,), s = _leaf_table(params, scheme.win_gain(params), 0, [scheme.loss_cost(params)])
    leaves = {leaf: (buyer + bk * stake, seller + sk * stake) for leaf, ((buyer, bk), (seller, sk)) in forms.items()}
    return GameTree(leaves, s * s, params, scheme)
