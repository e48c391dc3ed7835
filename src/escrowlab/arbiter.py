"""Dispute arbiters behind one Verdict interface.

Two production arbiters:

* a biased oracle that rules against the honest party with a configured
  error probability, and
* a commit-then-reveal coin toss between the disputants, where the seller
  commits to a bit, the buyer answers with a bit, and the XOR decides.

Messages are tagged records with a stable one-line wire form, and every
verdict carries its transcript.  One rule, `_message`, reads a record's
line as the message its round asks for: the coin toss records a reply only
when that rule accepts its wire line, and replay refuses by name any record
it does not.  The toss decides by the same rule that replays a transcript,
on the transcript it recorded, so replay always re-derives the verdict's
winner, including the timeout and invalid-opening paths.  Replay accepts
only an arbiter's one rule or the exchange in order, each record from the
party whose turn it is, and refuses by name a transcript that breaks it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Optional, Protocol, Union

from .gametree import Party
from .ledger import TimeoutPolicy, _require_whole
from .trade import as_fraction

#: Size of the commitment randomness, in bits.
COMMIT_RANDOMNESS_BITS = 256
_COMMIT_TAG = b"escrowlab/coin-commit/v1"


class CommitmentError(ValueError):
    pass


def commit(bit: int, randomness: bytes) -> bytes:
    """Hash commitment to a single bit.

    Hiding and binding rest on the hash; adequate at desk scale, not a
    substitute for a real commitment scheme against resourceful adversaries.
    """
    if bit not in (0, 1):
        raise CommitmentError(f"bit must be 0 or 1, got {bit!r}")
    if len(randomness) * 8 != COMMIT_RANDOMNESS_BITS:
        raise CommitmentError(
            f"randomness must be exactly {COMMIT_RANDOMNESS_BITS} bits"
        )
    return hashlib.sha256(_COMMIT_TAG + bytes([bit]) + randomness).digest()


def verify(digest: bytes, bit: int, randomness: bytes) -> bool:
    try:
        return commit(bit, randomness) == digest
    except CommitmentError:
        return False


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Commit:
    digest: bytes

    def wire(self) -> str:
        return f"COMMIT {self.digest.hex()}"


@dataclass(frozen=True)
class Bit:
    value: int

    def wire(self) -> str:
        return f"BIT {self.value}"


@dataclass(frozen=True)
class Open:
    bit: int
    randomness: bytes

    def wire(self) -> str:
        return f"OPEN {self.bit} {self.randomness.hex()}"


Message = Union[Commit, Bit, Open]


def parse_message(line: str) -> Message:
    parts = line.strip().split()
    try:
        if parts[0] == "COMMIT" and len(parts) == 2:
            return Commit(bytes.fromhex(parts[1]))
        if parts[0] == "BIT" and len(parts) == 2 and parts[1] in ("0", "1"):
            return Bit(int(parts[1]))
        if parts[0] == "OPEN" and len(parts) == 3 and parts[1] in ("0", "1"):
            return Open(int(parts[1]), bytes.fromhex(parts[2]))
    except (ValueError, IndexError):
        pass
    raise ValueError(f"malformed message {line!r}")


Transcript = tuple[tuple[str, str], ...]

#: The exchange, in order: who is asked, for which record.
_ROUNDS = ((Party.SELLER, "commit", Commit), (Party.BUYER, "bit", Bit), (Party.SELLER, "open", Open))
#: The party an arbiter's `RULE` record may name, by its name.
_WINNERS = {party.value: party for party in Party}


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

BASIS_ORACLE = "oracle"
BASIS_COIN = "coin"
BASIS_TIMEOUT = "forfeit-by-timeout"
BASIS_INVALID_OPENING = "invalid-opening"


@dataclass(frozen=True)
class Verdict:
    winner: Party
    basis: str
    transcript: Transcript


def replay_winner(transcript: Transcript) -> Party:
    """Re-derive the winner from a transcript alone."""
    return _decide(transcript)[0]


def _decide(transcript: Transcript) -> tuple[Party, str]:
    """Winner and basis of an arbiter's rule, a timeout (the other party
    wins) or a completed toss (the seller wins on heads; an opening that
    fails verification forces tails), the exchange walked against `_ROUNDS`.
    A transcript is a tuple or a list of records, each a pair of strs."""
    if not isinstance(transcript, (tuple, list)):
        raise ValueError(f"transcript {transcript!r} is not a tuple or a list of records")
    if not transcript:
        raise ValueError("empty transcript")
    received = []
    for k, record in enumerate(transcript):
        _require_record(transcript, k, isinstance(record, (tuple, list)) and len(record) == 2
                        and isinstance(record[0], str) and isinstance(record[1], str))
        sender, line = record
        if k == 0 and line.startswith("RULE "):
            winner = _WINNERS.get(line[5:])
            _require_record(transcript, 0, sender == "arbiter" and winner is not None)
            _require_record(transcript, 1, len(transcript) == 1)
            return winner, BASIS_ORACLE
        _require_record(transcript, k, k < len(_ROUNDS) and sender == _ROUNDS[k][0].value)
        party, _, kind = _ROUNDS[k]
        if line == "TIMEOUT":
            _require_record(transcript, k + 1, k + 1 == len(transcript))
            return party.other(), BASIS_TIMEOUT
        msg = _message(kind, line)
        _require_record(transcript, k, msg is not None)
        received.append(msg)
    if len(received) < len(_ROUNDS):
        raise ValueError("incomplete transcript")
    committed, bit, opening = received
    if verify(committed.digest, opening.bit, opening.randomness):
        return (Party.SELLER if opening.bit ^ bit.value else Party.BUYER), BASIS_COIN
    return Party.BUYER, BASIS_INVALID_OPENING


def _message(kind: type, line: str) -> Optional[Message]:
    """The `kind` message whose own wire line `line` is, or None."""
    try:
        msg = parse_message(line)
    except ValueError:
        return None
    return msg if isinstance(msg, kind) and msg.wire() == line else None


def _require_record(transcript: Transcript, k: int, ok: bool) -> None:
    if not ok:
        raise ValueError(f"record {k} {transcript[k]!r} breaks the exchange")


# ---------------------------------------------------------------------------
# Oracle arbiter
# ---------------------------------------------------------------------------


def _rate(gamma) -> tuple[int, int]:
    """Gamma as (numerator, denominator), checked by the int test
    0 <= numerator <= denominator (the denominator is positive)."""
    g = as_fraction(gamma)
    n, d = g.numerator, g.denominator
    if not 0 <= n <= d:
        raise ValueError(f"gamma must lie in [0, 1], got {g}")
    return n, d


def _errs(n: int, d: int, rng: Random) -> bool:
    return rng.randrange(d) < n


def arbiter_errs(gamma, rng: Random) -> bool:
    """One draw of the error event, true with probability exactly gamma.

    The event is drawn on the rational gamma, so seeded runs hit the
    advertised frequency without float rounding.
    """
    return _errs(*_rate(gamma), rng)


def _trial_errs(gamma, seed: int, trials: int) -> tuple[int, dict[bool, int]]:
    """`arbiter_errs(gamma, Random(f"{seed}:{i}"))` over trials 0..trials-1,
    for trials >= 1.

    Returns how many trials err and, per outcome that occurs, its first
    trial, in first-trial order.  One generator is re-seeded per trial,
    which gives it the state a fresh `Random(f"{seed}:{i}")` has.  A gamma
    of 0 or 1 decides every trial alike, so nothing is drawn.
    """
    n, d = _rate(gamma)
    if d == 1:
        return n * trials, {bool(n): 0}
    rng = Random(0)  # an int seed reads nothing from the OS; re-seeded per trial below
    erring = 0
    first: dict[bool, int] = {}
    for i in range(trials):
        rng.seed(f"{seed}:{i}")
        errs = _errs(n, d, rng)
        erring += errs
        if errs not in first:
            first[errs] = i
    return erring, first


def oracle_arbitrate(honest_party: Party, gamma, rng: Random) -> Verdict:
    """Rule for the honest party except with probability gamma."""
    winner = honest_party.other() if arbiter_errs(gamma, rng) else honest_party
    transcript = (("arbiter", f"RULE {winner.value}"),)
    return Verdict(winner=winner, basis=BASIS_ORACLE, transcript=transcript)


# ---------------------------------------------------------------------------
# Coin-toss arbiter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Late:
    """A response delivered after `ticks` of delay, a whole number >= 0."""

    message: Message
    ticks: int

    def __post_init__(self) -> None:
        _require_whole("ticks", self.ticks)
        if self.ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {self.ticks}")


class Channel(Protocol):
    def respond(self, request: str, transcript: Transcript) -> Union[Message, Late, None]:
        ...


class HonestSeller:
    """Samples a bit, commits, and opens honestly when asked.

    Asked to open before it has committed, it stays silent, which the
    coin toss records as the seller's timeout.
    """

    def __init__(self, rng: Random):
        self.rng = rng
        self._opening: Optional[Open] = None

    def respond(self, request: str, transcript: Transcript):
        if request == "commit":
            self._opening = Open(self.rng.getrandbits(1), self.rng.randbytes(COMMIT_RANDOMNESS_BITS // 8))
            return Commit(commit(self._opening.bit, self._opening.randomness))
        if request == "open":
            return self._opening
        return None


class HonestBuyer:
    def __init__(self, rng: Random):
        self.rng = rng

    def respond(self, request: str, transcript: Transcript):
        if request == "bit":
            return Bit(self.rng.getrandbits(1))
        return None


def coin_toss_arbitrate(
    seller_channel: Channel,
    buyer_channel: Channel,
    policy: Optional[TimeoutPolicy] = None,
) -> Verdict:
    """Run the commit / bit / open exchange and decide by XOR.

    A reply is recorded as its wire line when replay's rule reads that line
    as the record asked for; a party that stays silent, answers with a
    reply whose wire line cannot be built or is not the record asked for,
    or (under a policy) answers at or past the timeout forfeits on the spot:
    the transcript records their TIMEOUT.  An opening that fails
    verification counts as heads-for-the-buyer rather than a forfeit: the
    coin is forced to 0.  The verdict is the transcript's own:
    `replay_winner`'s rule decides it.
    """
    channels = {Party.SELLER: seller_channel, Party.BUYER: buyer_channel}
    transcript: list[tuple[str, str]] = []
    for party, request, kind in _ROUNDS:
        response = channels[party].respond(request, tuple(transcript))
        response, ticks = (response.message, response.ticks) if isinstance(response, Late) else (response, 0)
        try:
            line = response.wire()
            counts = _message(kind, line) is not None and (policy is None or ticks < policy.timeout)
        except (AttributeError, TypeError, ValueError):  # silence, or a line that cannot be built
            counts = False
        if not counts:
            transcript.append((party.value, "TIMEOUT"))
            break
        transcript.append((party.value, line))
    record = tuple(transcript)
    winner, basis = _decide(record)
    return Verdict(winner=winner, basis=basis, transcript=record)
