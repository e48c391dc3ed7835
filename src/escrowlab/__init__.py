"""escrowlab: a simulation lab for a wager-based escrow smart contract.

Two mutually distrusting parties trade a non-digital good through an escrow
contract; disputes are settled by an arbiter both parties wager on convincing.
This package models the contract as an extensive-form game, decides its
game-theoretic guarantees exactly, and runs the state machine on a
deterministic in-memory ledger with pluggable arbiters and scripted or
rational agents.
"""

from .trade import (
    Generic,
    InvalidSchemeError,
    InvalidTradeError,
    Standard,
    TradeParams,
    WagerScheme,
    WinnerRebate,
    Withheld,
    as_fraction,
    from_kv,
    to_kv,
)
from .gametree import (
    Action,
    GameTree,
    HONEST_PROFILE,
    Leaf,
    Party,
    PayoffPair,
    build_game_tree,
    leaf_payoff,
)
from .equilibrium import (
    LambdaInterval,
    SecurityReport,
    SolvedTree,
    SoundnessPreconditionError,
    backward_induction,
    brute_force_spe,
    check_soundness,
    generic_impossibility,
    lambda_interval,
    node_margins,
    security_report,
    winner_rebate_lambda,
)

__all__ = [
    "Action",
    "GameTree",
    "Generic",
    "HONEST_PROFILE",
    "InvalidSchemeError",
    "InvalidTradeError",
    "LambdaInterval",
    "Leaf",
    "Party",
    "PayoffPair",
    "SecurityReport",
    "SolvedTree",
    "SoundnessPreconditionError",
    "Standard",
    "TradeParams",
    "WagerScheme",
    "WinnerRebate",
    "Withheld",
    "as_fraction",
    "backward_induction",
    "brute_force_spe",
    "build_game_tree",
    "check_soundness",
    "from_kv",
    "generic_impossibility",
    "lambda_interval",
    "leaf_payoff",
    "node_margins",
    "security_report",
    "to_kv",
    "winner_rebate_lambda",
]

__version__ = "0.1.0"
