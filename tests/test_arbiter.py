import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escrowlab.arbiter import (
    BASIS_COIN,
    BASIS_INVALID_OPENING,
    BASIS_TIMEOUT,
    COMMIT_RANDOMNESS_BITS,
    Bit,
    Commit,
    CommitmentError,
    HonestBuyer,
    HonestSeller,
    Late,
    Open,
    Verdict,
    _ROUNDS,
    _trial_errs,
    arbiter_errs,
    coin_toss_arbitrate,
    commit,
    oracle_arbitrate,
    parse_message,
    replay_winner,
    verify,
)
from escrowlab.contract import Phase, propose
from escrowlab.gametree import Leaf, Party, leaf_payoff
from escrowlab.ledger import Ledger, TimeoutPolicy
from escrowlab.trade import Standard, TradeParams, WinnerRebate, as_fraction

# Critical value of the chi-square distribution with 1 degree of freedom at
# the 0.99 quantile (significance 0.01).
CHI2_1DF_CRIT_P99 = 6.6348966010212145


def serialize_transcript(transcript) -> str:
    """A transcript as text, one `sender line` per message."""
    return "\n".join(f"{sender} {line}" for sender, line in transcript) + "\n"


def parse_transcript(text: str):
    """The transcript `serialize_transcript` wrote; blank lines are skipped."""
    entries = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        sender, _, line = raw.partition(" ")
        entries.append((sender, line))
    return tuple(entries)


def rand_bytes(rng, bits=COMMIT_RANDOMNESS_BITS):
    return rng.randbytes(bits // 8)


# ---------------------------------------------------------------------------
# Commitments
# ---------------------------------------------------------------------------


def test_commit_round_trip():
    r = bytes(32)
    digest = commit(0, r)
    assert verify(digest, 0, r)


def test_commit_binds_the_bit():
    rng = Random(1)
    r = rand_bytes(rng)
    digest = commit(1, r)
    assert not verify(digest, 0, r)
    assert not verify(digest, 1, rand_bytes(rng))


def test_commit_rejects_wrong_randomness_length():
    with pytest.raises(CommitmentError):
        commit(0, bytes(16))
    with pytest.raises(CommitmentError):
        commit(2, bytes(32))
    assert not verify(b"x" * 32, 0, bytes(16))  # malformed opening just fails


def test_commit_is_deterministic():
    r = bytes(range(32))
    assert commit(1, r) == commit(1, r)


def test_an_honest_sellers_opening_verifies_its_own_commitment():
    seller = HonestSeller(Random(10))
    assert seller.respond("open", ()) is None  # nothing to open before it commits
    committed = seller.respond("commit", ())
    opening = seller.respond("open", (("seller", committed.wire()),))
    assert verify(committed.digest, opening.bit, opening.randomness)
    assert committed == Commit(commit(opening.bit, opening.randomness))
    draws = Random(10)  # the bit first, then the randomness
    assert (opening.bit, opening.randomness) == (draws.getrandbits(1), draws.randbytes(COMMIT_RANDOMNESS_BITS // 8))


# ---------------------------------------------------------------------------
# Oracle arbiter
# ---------------------------------------------------------------------------


def test_perfect_oracle_always_picks_the_honest_party():
    rng = Random(2)
    for _ in range(200):
        verdict = oracle_arbitrate(Party.SELLER, 0, rng)
        assert verdict.winner is Party.SELLER
        assert replay_winner(verdict.transcript) is Party.SELLER


def binomial_3sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("gamma,expected", [("1/2", 0.5), ("1/4", 0.75)])
def test_oracle_error_rate_is_calibrated(gamma, expected):
    rng = Random(3)
    n = 10_000
    honest_wins = sum(
        oracle_arbitrate(Party.BUYER, gamma, rng).winner is Party.BUYER for _ in range(n)
    )
    assert abs(honest_wins / n - expected) <= binomial_3sigma(expected, n)


def test_oracle_is_deterministic_for_a_seed():
    a = [oracle_arbitrate(Party.BUYER, "1/3", Random(9)).winner for _ in range(1)]
    b = [oracle_arbitrate(Party.BUYER, "1/3", Random(9)).winner for _ in range(1)]
    assert a == b


def naive_arbiter_errs(gamma, rng):
    """Reference: `arbiter_errs` with its range check made by two `Fraction`
    comparisons."""
    g = as_fraction(gamma)
    if not 0 <= g <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {g}")
    return rng.randrange(g.denominator) < g.numerator


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)


GAMMA_CASES = [Fraction(-1, 2), 0, 1, Fraction(3, 2), "1.5", True, False, "-1/2", 1.5, -0.5, "x", math.nan, math.inf]
GAMMAS = st.one_of(
    st.sampled_from(GAMMA_CASES),
    st.fractions(min_value=-2, max_value=2, max_denominator=60),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=60).map(str),
    st.floats(min_value=-2, max_value=2),
)


@settings(max_examples=400, deadline=None)
@given(gamma=GAMMAS, seed=st.integers(0, 2**32))
def test_arbiter_errs_matches_the_fraction_comparisons(gamma, seed):
    # The same draw from the same stream, the same refusal and message, and
    # the stream left in the same state.
    ours, naive = Random(seed), Random(seed)
    assert outcome(arbiter_errs, gamma, ours) == outcome(naive_arbiter_errs, gamma, naive)
    assert ours.getstate() == naive.getstate()


def naive_trial_errs(gamma, seed, trials):
    """Reference: one fresh stream and one `arbiter_errs` per trial, reduced
    to the erring count and the first trial of each outcome, in first-trial
    order."""
    draws = [arbiter_errs(gamma, Random(f"{seed}:{i}")) for i in range(trials)]
    first = {}
    for i, errs in enumerate(draws):
        first.setdefault(errs, i)
    return sum(draws), first


#: Rates over denominators above 2**32: `randrange` then draws several
#: 32-bit words and, just above a power of two, rejects about half its draws.
WIDE_RATES = st.integers(2**32 + 1, 2**70).flatmap(lambda d: st.integers(0, d).map(lambda n: Fraction(n, d)))
RATES = st.one_of(
    st.sampled_from([0, 1, Fraction(1, 2)]),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    WIDE_RATES,
)


@settings(max_examples=300, deadline=None)
@given(gamma=RATES, seed=st.integers(-(2**64), 2**64), trials=st.integers(1, 40))
def test_trial_errs_matches_a_fresh_stream_per_trial(gamma, seed, trials):
    erring, first = _trial_errs(gamma, seed, trials)
    naive_erring, naive_first = naive_trial_errs(gamma, seed, trials)
    assert erring == naive_erring
    assert list(first.items()) == list(naive_first.items())  # the same classes, in the same order


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-(2**64), 2**64), i=st.integers(0, 10**6), draws=st.integers(0, 20), d=st.integers(1, 2**70))
def test_a_reseeded_generator_is_a_fresh_stream(seed, i, draws, d):
    # Draws, a pending gauss value included, leave nothing behind a re-seed.
    rng = Random(seed)
    for _ in range(draws):
        rng.randrange(d)
    rng.gauss(0.0, 1.0)
    rng.seed(f"{seed}:{i}")
    assert rng.getstate() == Random(f"{seed}:{i}").getstate()


# ---------------------------------------------------------------------------
# Coin-toss protocol
# ---------------------------------------------------------------------------


class ScriptedSeller:
    def __init__(self, bit, randomness, open_bit=None, open_randomness=None, silent_on=()):
        self.bit = bit
        self.randomness = randomness
        self.open_bit = bit if open_bit is None else open_bit
        self.open_randomness = randomness if open_randomness is None else open_randomness
        self.silent_on = silent_on

    def respond(self, request, transcript):
        if request in self.silent_on:
            return None
        if request == "commit":
            return Commit(commit(self.bit, self.randomness))
        if request == "open":
            return Open(self.open_bit, self.open_randomness)
        return None


class ScriptedBuyer:
    def __init__(self, bit=0, silent=False):
        self.bit = bit
        self.silent = silent

    def respond(self, request, transcript):
        if self.silent:
            return None
        return Bit(self.bit)


def test_valid_opening_xors_the_bits():
    r = bytes(32)
    verdict = coin_toss_arbitrate(ScriptedSeller(1, r), ScriptedBuyer(0))
    assert verdict.winner is Party.SELLER  # coin = 1 xor 0 = 1
    assert verdict.basis == BASIS_COIN
    verdict = coin_toss_arbitrate(ScriptedSeller(1, r), ScriptedBuyer(1))
    assert verdict.winner is Party.BUYER  # coin = 0


def test_invalid_opening_forces_the_coin_to_zero():
    r = bytes(32)
    verdict = coin_toss_arbitrate(ScriptedSeller(1, r, open_bit=0), ScriptedBuyer(0))
    assert verdict.winner is Party.BUYER
    assert verdict.basis == BASIS_INVALID_OPENING


def test_silent_seller_forfeits():
    r = bytes(32)
    verdict = coin_toss_arbitrate(ScriptedSeller(1, r, silent_on=("open",)), ScriptedBuyer(0))
    assert verdict.winner is Party.BUYER
    assert verdict.basis == BASIS_TIMEOUT
    verdict = coin_toss_arbitrate(ScriptedSeller(1, r, silent_on=("commit",)), ScriptedBuyer(0))
    assert verdict.winner is Party.BUYER


def test_silent_buyer_forfeits():
    verdict = coin_toss_arbitrate(ScriptedSeller(0, bytes(32)), ScriptedBuyer(silent=True))
    assert verdict.winner is Party.SELLER
    assert verdict.basis == BASIS_TIMEOUT


class MalformedBuyer:
    def respond(self, request, transcript):
        return Open(0, bytes(32))  # wrong record type for "bit"


def test_malformed_message_counts_as_a_timeout_of_the_sender():
    verdict = coin_toss_arbitrate(ScriptedSeller(0, bytes(32)), MalformedBuyer())
    assert verdict.winner is Party.SELLER
    assert verdict.basis == BASIS_TIMEOUT


def test_late_reply_past_the_policy_timeout_forfeits():
    policy = TimeoutPolicy(threshold=2, timeout=5)

    class SlowBuyer:
        def respond(self, request, transcript):
            return Late(Bit(0), ticks=5)

    verdict = coin_toss_arbitrate(ScriptedSeller(0, bytes(32)), SlowBuyer(), policy=policy)
    assert verdict.winner is Party.SELLER
    assert verdict.basis == BASIS_TIMEOUT

    class PromptBuyer:
        def respond(self, request, transcript):
            return Late(Bit(1), ticks=4)

    verdict = coin_toss_arbitrate(ScriptedSeller(0, bytes(32)), PromptBuyer(), policy=policy)
    assert verdict.basis == BASIS_COIN


@pytest.mark.parametrize(
    "ticks, message",
    [
        (-5, r"^ticks must be >= 0, got -5$"),
        (2.5, r"^ticks must be a whole number of ticks, got 2.5$"),
        (True, r"^ticks must be a whole number of ticks, got True$"),
    ],
)
def test_a_late_reply_is_late_by_whole_ticks(ticks, message):
    with pytest.raises(ValueError, match=message):
        Late(Bit(0), ticks)
    assert Late(Bit(0), 0).ticks == 0


def test_honest_coin_is_uniform_chi_square():
    rng = Random(5)
    n = 10_000
    seller_wins = sum(
        coin_toss_arbitrate(HonestSeller(rng), HonestBuyer(rng)).winner is Party.SELLER
        for _ in range(n)
    )
    expected = n / 2
    statistic = (seller_wins - expected) ** 2 / expected + (
        (n - seller_wins) - expected
    ) ** 2 / expected
    assert statistic < CHI2_1DF_CRIT_P99


@pytest.mark.parametrize("fixed_bit", [0, 1])
def test_one_uniform_party_suffices_for_fairness(fixed_bit):
    # Fix the seller's bit; the honest buyer's bit alone keeps the XOR uniform.
    rng = Random(6)
    n = 10_000
    wins = 0
    for _ in range(n):
        seller = ScriptedSeller(fixed_bit, rng.randbytes(32))
        if coin_toss_arbitrate(seller, HonestBuyer(rng)).winner is Party.SELLER:
            wins += 1
    assert abs(wins / n - 0.5) <= binomial_3sigma(0.5, n)


def test_digest_peeking_buyer_gains_nothing():
    # A buyer choosing their bit from the digest alone cannot bias a hiding
    # commitment's coin.
    rng = Random(7)

    class DigestPeekingBuyer:
        def respond(self, request, transcript):
            digest = parse_message(transcript[-1][1]).digest
            return Bit(digest[0] & 1)

    n = 10_000
    wins = sum(
        coin_toss_arbitrate(HonestSeller(rng), DigestPeekingBuyer()).winner is Party.BUYER
        for _ in range(n)
    )
    assert abs(wins / n - 0.5) <= binomial_3sigma(0.5, n)


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------


def test_open_before_commit_is_the_sellers_timeout():
    rng = Random(10)
    seller = HonestSeller(rng)
    assert seller.respond("open", ()) is None

    class StaleRelay:
        # Answers "commit" with a digest of its own, so the honest seller's
        # first request is "open".
        def respond(self, request, transcript):
            if request == "commit":
                return Commit(commit(1, bytes(32)))
            return seller.respond(request, transcript)

    verdict = coin_toss_arbitrate(StaleRelay(), HonestBuyer(rng))
    assert verdict.winner is Party.BUYER
    assert verdict.basis == BASIS_TIMEOUT
    assert verdict.transcript[-1] == ("seller", "TIMEOUT")
    assert replay_winner(verdict.transcript) is Party.BUYER


def test_transcript_replay_matches_the_verdict():
    rng = Random(8)
    for _ in range(50):
        verdict = coin_toss_arbitrate(HonestSeller(rng), HonestBuyer(rng))
        assert replay_winner(verdict.transcript) is verdict.winner


def test_transcript_replay_covers_timeout_and_invalid_paths():
    r = bytes(32)
    timed_out = coin_toss_arbitrate(ScriptedSeller(1, r, silent_on=("open",)), ScriptedBuyer(0))
    assert replay_winner(timed_out.transcript) is timed_out.winner
    invalid = coin_toss_arbitrate(ScriptedSeller(1, r, open_bit=0), ScriptedBuyer(0))
    assert replay_winner(invalid.transcript) is invalid.winner


def test_transcript_serialization_round_trip():
    rng = Random(9)
    verdict = coin_toss_arbitrate(HonestSeller(rng), HonestBuyer(rng))
    text = serialize_transcript(verdict.transcript)
    assert parse_transcript(text) == verdict.transcript
    assert replay_winner(parse_transcript(text)) is verdict.winner


_DIGEST = commit(1, bytes(32)).hex()
BAD_TRANSCRIPTS = {
    "empty": ((), "empty transcript"),
    "no-opening": ((("seller", f"COMMIT {_DIGEST}"), ("buyer", "BIT 0")), "incomplete transcript"),
    "rule-for-nobody": ((("arbiter", "RULE nobody"),), "record 0 ('arbiter', 'RULE nobody') breaks the exchange"),
    "timeout-of-a-non-party": ((("arbiter", "TIMEOUT"),), "record 0 ('arbiter', 'TIMEOUT') breaks the exchange"),
    "not-a-message": ((("seller", f"COMMIT {_DIGEST}"), ("buyer", "HELLO")), "record 1 ('buyer', 'HELLO') breaks the exchange"),
}


@pytest.mark.parametrize("transcript, message", BAD_TRANSCRIPTS.values(), ids=BAD_TRANSCRIPTS.keys())
def test_replay_refuses_a_bad_transcript_by_name(transcript, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replay_winner(transcript)


_R = bytes(32)
_COMMIT, _OPEN = ("seller", f"COMMIT {_DIGEST}"), ("seller", f"OPEN 1 {_R.hex()}")
#: Transcripts that break the exchange, each with the index of its first bad record.
BROKEN_EXCHANGES = {
    "parties-swapped": ((("buyer", f"COMMIT {_DIGEST}"), ("seller", "BIT 0"), ("buyer", f"OPEN 1 {_R.hex()}")), 0),
    "reverse-order": ((_OPEN, ("buyer", "BIT 0"), _COMMIT), 0),
    "two-bits": ((_COMMIT, ("buyer", "BIT 0"), ("buyer", "BIT 1"), _OPEN), 2),
    "buyer-times-out-before-the-commit": ((("buyer", "TIMEOUT"),), 0),
    "rule-after-a-commit": ((_COMMIT, ("arbiter", "RULE buyer")), 1),
    "party-rules-for-itself": ((("seller", "RULE seller"),), 0),
    "record-after-the-exchange": ((_COMMIT, ("buyer", "BIT 0"), _OPEN, ("buyer", "TIMEOUT")), 3),
    "record-after-a-timeout": ((_COMMIT, ("buyer", "TIMEOUT"), ("seller", f"OPEN 1 {_R.hex()}")), 2),
    "record-after-a-rule": ((("arbiter", "RULE buyer"), ("arbiter", "RULE seller")), 1),
    "not-the-wire-line": ((_COMMIT, ("buyer", "BIT  0")), 1),
}


@pytest.mark.parametrize("transcript, bad", BROKEN_EXCHANGES.values(), ids=BROKEN_EXCHANGES.keys())
def test_replay_refuses_a_transcript_that_breaks_the_exchange(transcript, bad):
    message = f"record {bad} {transcript[bad]!r} breaks the exchange"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replay_winner(transcript)


#: Transcripts that are not a tuple or a list of pairs of strs, each with
#: the index of its first bad record, or None when the transcript itself is.
MALFORMED_TRANSCRIPTS = {
    "a-line-that-is-an-int": ((("arbiter", 5),), 0),
    "a-line-that-is-none": ((("seller", None),), 0),
    "a-record-of-one-field": ((("arbiter",),), 0),
    "a-record-of-three-fields": ((("arbiter", "RULE buyer", "again"),), 0),
    "a-record-that-is-a-str": (("arbiter RULE buyer",), 0),
    "a-sender-that-is-a-party": (((Party.SELLER, f"COMMIT {_DIGEST}"),), 0),
    "a-bad-record-after-a-commit": ((_COMMIT, ("buyer", 0)), 1),
    "an-int": (5, None),
    "a-str": ("RULE buyer", None),
    "none": (None, None),
    "a-one-pass-iterator": (iter([("arbiter", "RULE buyer")]), None),
}


@pytest.mark.parametrize("transcript, bad", MALFORMED_TRANSCRIPTS.values(), ids=MALFORMED_TRANSCRIPTS.keys())
def test_replay_refuses_a_malformed_record_or_transcript_by_name(transcript, bad):
    if bad is None:
        message = f"transcript {transcript!r} is not a tuple or a list of records"
    else:
        message = f"record {bad} {transcript[bad]!r} breaks the exchange"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replay_winner(transcript)


def test_replay_accepts_each_valid_form():
    assert replay_winner((("arbiter", "RULE buyer"),)) is Party.BUYER
    assert replay_winner((("arbiter", "RULE seller"),)) is Party.SELLER
    assert replay_winner((("seller", "TIMEOUT"),)) is Party.BUYER
    assert replay_winner((_COMMIT, ("buyer", "TIMEOUT"))) is Party.SELLER
    assert replay_winner((_COMMIT, ("buyer", "BIT 0"), ("seller", "TIMEOUT"))) is Party.BUYER
    assert replay_winner((_COMMIT, ("buyer", "BIT 0"), _OPEN)) is Party.SELLER
    assert replay_winner((_COMMIT, ("buyer", "BIT 1"), _OPEN)) is Party.BUYER
    assert replay_winner((_COMMIT, ("buyer", "BIT 0"), ("seller", f"OPEN 0 {_R.hex()}"))) is Party.BUYER
    assert replay_winner([["arbiter", "RULE seller"]]) is Party.SELLER  # a list of lists reads as a tuple of pairs


def test_message_parsing_rejects_garbage():
    for line in ["COMMIT", "BIT 2", "OPEN 1", "NOPE 1", "BIT x", "OPEN 1 zz"]:
        with pytest.raises(ValueError):
            parse_message(line)


# ---------------------------------------------------------------------------
# Verdicts read from their own transcript
# ---------------------------------------------------------------------------


def naive_coin_toss_arbitrate(seller_channel, buyer_channel, policy=None):
    """The coin toss as it was: three early returns, the winner decided
    apart from the transcript."""
    transcript = []
    expected_of = {"commit": Commit, "bit": Bit, "open": Open}

    def ask(channel, party, request):
        response = channel.respond(request, tuple(transcript))
        ticks = 0
        if isinstance(response, Late):
            response, ticks = response.message, response.ticks
        if (
            response is None
            or not isinstance(response, expected_of[request])
            or (policy is not None and ticks >= policy.timeout)
        ):
            transcript.append((party.value, "TIMEOUT"))
            return None
        transcript.append((party.value, response.wire()))
        return response

    commitment = ask(seller_channel, Party.SELLER, "commit")
    if commitment is None:
        return Verdict(Party.BUYER, BASIS_TIMEOUT, tuple(transcript))
    buyer_bit = ask(buyer_channel, Party.BUYER, "bit")
    if buyer_bit is None:
        return Verdict(Party.SELLER, BASIS_TIMEOUT, tuple(transcript))
    opening = ask(seller_channel, Party.SELLER, "open")
    if opening is None:
        return Verdict(Party.BUYER, BASIS_TIMEOUT, tuple(transcript))
    if verify(commitment.digest, opening.bit, opening.randomness):
        winner = Party.SELLER if opening.bit ^ buyer_bit.value else Party.BUYER
        return Verdict(winner, BASIS_COIN, tuple(transcript))
    return Verdict(Party.BUYER, BASIS_INVALID_OPENING, tuple(transcript))


class Script:
    """Answers each request with a fixed response."""

    def __init__(self, answers):
        self.answers = answers

    def respond(self, request, transcript):
        return self.answers.get(request)


class NoWire:
    """A reply with no wire line at all."""


class WireTakesAnArgument:
    def wire(self, spelling):
        return f"BIT {spelling}"


class WireRefuses:
    def wire(self):
        raise ValueError("no line")


_SPELLED = {"commit": Commit(commit(1, bytes(32))), "bit": Bit(0), "open": Open(1, bytes(32))}
#: Replies that are their sender's timeout, each with the request it
#: answers: a wire line that does not parse back to the record asked for,
#: or one that cannot be built.
FORFEITED = {
    "bit 2": ("bit", Bit(2)),
    "open 7": ("open", Open(7, bytes(32))),
    "empty commit": ("commit", Commit(b"")),
    "commit of an int": ("commit", Commit(5)),
    "commit of a str": ("commit", Commit("00")),
    "open of a str": ("open", Open(1, "ab")),
    **{f"no wire at {request}": (request, NoWire()) for request in _SPELLED},
    "a wire that takes an argument": ("bit", WireTakesAnArgument()),
    "a wire that refuses": ("open", WireRefuses()),
}


def spelled_but(request, reply):
    """Channels that answer every request with `_SPELLED`'s message but
    `request`, answered with `reply`."""
    answers = {**_SPELLED, request: reply}
    return Script({"commit": answers["commit"], "open": answers["open"]}), Script({"bit": answers["bit"]})


@pytest.mark.parametrize("asked, reply", FORFEITED.values(), ids=FORFEITED.keys())
def test_a_response_that_does_not_parse_back_is_its_senders_timeout(asked, reply):
    k, sender = next((k, party) for k, (party, request, _) in enumerate(_ROUNDS) if request == asked)
    verdict = coin_toss_arbitrate(*spelled_but(asked, reply))
    assert verdict.basis == BASIS_TIMEOUT
    assert verdict.transcript[k:] == ((sender.value, "TIMEOUT"),)
    assert replay_winner(verdict.transcript) is verdict.winner is sender.other()
    assert verdict == coin_toss_arbitrate(*spelled_but(asked, None))  # as if it had stayed silent


@pytest.mark.parametrize("asked, reply", FORFEITED.values(), ids=FORFEITED.keys())
def test_a_forfeited_reply_settles_the_contract(asked, reply):
    ledger = Ledger(0)
    ledger.open_account("buyer", 10)
    ledger.open_account("seller", 10)
    params = TradeParams(price=1, seller_value=Fraction(1, 3), buyer_value=2)
    contract = propose(ledger, "trade", "buyer", "seller", params, Standard(1))
    contract.accept("seller")
    contract.fund("buyer")
    contract.dispute("buyer")
    contract.counter("seller")
    verdict = contract.run_arbitration(lambda c: coin_toss_arbitrate(*spelled_but(asked, reply)))
    assert contract.phase is Phase.SETTLED
    assert contract.settled_how == f"arbitration:{verdict.winner.value}"
    assert ledger.pot_balance("trade") == 0


class LoudBit(Bit):
    """A `Bit` of another class whose wire line is the canonical one."""


class BitLine:
    """No message class at all, only the canonical wire line of a bit."""

    def __init__(self, value):
        self.value = value

    def wire(self):
        return f"BIT {self.value}"


@pytest.mark.parametrize("reply", [LoudBit(1), BitLine(1)], ids=["a bit subclass", "a bare wire line"])
def test_a_reply_whose_wire_line_replay_accepts_is_recorded_as_that_line(reply):
    verdict = coin_toss_arbitrate(*spelled_but("bit", reply))
    assert verdict.transcript[1] == ("buyer", "BIT 1")
    assert verdict == coin_toss_arbitrate(*spelled_but("bit", Bit(1)))
    assert (verdict.winner, verdict.basis) == (Party.BUYER, BASIS_COIN)  # coin = 1 xor 1 = 0


def round_trips(message):
    try:
        return parse_message(message.wire()) == message
    except (AttributeError, ValueError):
        return False


_R = bytes(range(32))
MESSAGES = st.one_of(
    st.none(),
    st.sampled_from([Commit(commit(1, _R)), Bit(0), Bit(1), Open(1, _R), Open(0, _R)]),
    st.builds(Commit, st.binary(max_size=40)),
    st.builds(Commit, st.integers() | st.text(max_size=4)),  # no wire line can be built
    st.builds(Bit, st.integers(-2, 3)),
    st.builds(Open, st.integers(-1, 3), st.sampled_from([_R, bytes(32), b"", bytes(16)])),
    st.builds(Open, st.integers(-1, 3), st.text(max_size=4)),  # no wire line can be built
)
RESPONSES = st.one_of(MESSAGES, st.builds(Late, MESSAGES, st.integers(0, 8)))


@settings(max_examples=500, deadline=None)
@given(
    commit_reply=RESPONSES,
    bit_reply=RESPONSES,
    open_reply=RESPONSES,
    policy=st.sampled_from([None, TimeoutPolicy(threshold=2, timeout=5)]),
)
def test_every_verdict_replays_from_its_transcript(commit_reply, bit_reply, open_reply, policy):
    # Silence, the wrong record, values out of range and late replies, with
    # and without a policy: the verdict is always its transcript's, and
    # wherever every reply parses back from its wire line it is the verdict
    # the coin toss gave before it read its own transcript.
    seller = Script({"commit": commit_reply, "open": open_reply})
    buyer = Script({"bit": bit_reply})
    verdict = coin_toss_arbitrate(seller, buyer, policy)
    assert replay_winner(verdict.transcript) == verdict.winner
    assert replay_winner(parse_transcript(serialize_transcript(verdict.transcript))) == verdict.winner
    replies = [r.message if isinstance(r, Late) else r for r in (commit_reply, bit_reply, open_reply)]
    if all(r is None or round_trips(r) for r in replies):
        assert verdict == naive_coin_toss_arbitrate(seller, buyer, policy)


# ---------------------------------------------------------------------------
# The coin toss against every deterministic deviation, the honest bit enumerated
# ---------------------------------------------------------------------------

TOSS_POLICY = TimeoutPolicy(threshold=2, timeout=5)

#: Each way a seller can answer the opening request, given its committed bit c.
OPENINGS = {
    "valid": lambda c: Open(c, _R),
    "flipped": lambda c: Open(1 - c, _R),
    "silent": lambda c: None,
    "the wrong record": lambda c: Bit(c),
    "late in the window": lambda c: Late(Open(c, _R), TOSS_POLICY.timeout - 1),
    "late at the timeout": lambda c: Late(Open(c, _R), TOSS_POLICY.timeout),
}

#: Each fixed answer a buyer can give without reading the seller's bit.
BIT_REPLIES = {
    "bit 0": Bit(0),
    "bit 1": Bit(1),
    "silent": None,
    "the wrong record": Open(0, _R),
    **{f"bit {b} late {ticks}": Late(Bit(b), ticks)
       for b in (0, 1) for ticks in (TOSS_POLICY.timeout - 1, TOSS_POLICY.timeout)},
}


class OpeningBySellerBit:
    """A deterministic seller: commits to `bit` (None commits to no bit at
    all) and opens as the `OPENINGS` entry named `openings[b]`, b the
    buyer's bit it has seen."""

    def __init__(self, bit, openings):
        self.digest = commit(bit, _R) if bit is not None else bytes(32)
        self.openings = [OPENINGS[name](bit or 0) for name in openings]

    def respond(self, request, transcript):
        if request == "commit":
            return Commit(self.digest)
        return self.openings[parse_message(transcript[-1][1]).value]


#: Every deterministic seller: 3 commitments x 6 x 6 openings.
SELLER_DEVIATIONS = [
    OpeningBySellerBit(bit, openings)
    for bit, openings in itertools.product((0, 1, None), itertools.product(OPENINGS, repeat=2))
]


def honest_buyer(own):
    return Script({"bit": Bit(own)})


def honest_seller(own):
    return Script({"commit": Commit(commit(own, _R)), "open": Open(own, _R)})


def toss_winners(seller_for, buyer_for, policy):
    """The winner of the toss for each of the honest party's two bits, each
    verdict replayed from its transcript."""
    winners = []
    for own in (0, 1):
        verdict = coin_toss_arbitrate(seller_for(own), buyer_for(own), policy)
        assert replay_winner(verdict.transcript) is verdict.winner
        winners.append(verdict.winner)
    return winners


@pytest.mark.parametrize("policy", [None, TOSS_POLICY], ids=["no policy", "a policy"])
def test_no_seller_strategy_wins_both_bits_of_the_honest_buyer(policy):
    # Each deviation against both buyer bits.
    for seller in SELLER_DEVIATIONS:
        winners = toss_winners(lambda own: seller, honest_buyer, policy)
        assert Party.BUYER in winners, (seller.digest, seller.openings)


@pytest.mark.parametrize("policy", [None, TOSS_POLICY], ids=["no policy", "a policy"])
@pytest.mark.parametrize("reply", BIT_REPLIES.values(), ids=BIT_REPLIES.keys())
def test_no_buyer_strategy_blind_to_the_sellers_bit_wins_both_bits_of_the_honest_seller(reply, policy):
    winners = toss_winners(honest_seller, lambda own: Script({"bit": reply}), policy)
    assert Party.SELLER in winners


def disputant_utility(params, scheme, policy, honest, seller, buyer):
    """Play one trade through a contract to `run_arbitration`, the toss
    between the `seller` and `buyer` channels; the seller delivers exactly
    when it is the `honest` party.  (The honest party's utility: its change
    in funds, less the delivery cost if it delivered; whether it lost.)"""
    ledger = Ledger(params.fee)
    ledger.open_account("buyer", 10)
    ledger.open_account("seller", 10)
    contract = propose(ledger, "trade", "buyer", "seller", params, scheme, policy)
    contract.accept("seller")
    contract.fund("buyer")
    if honest is Party.SELLER:
        contract.notify_delivery("seller")
    contract.dispute("buyer")
    contract.counter("seller")
    verdict = contract.run_arbitration(lambda c: coin_toss_arbitrate(seller, buyer, policy))
    utility = ledger.balance(honest.value) - 10
    if contract.delivered:
        utility -= params.seller_value
    return utility, verdict.winner is not honest


@pytest.mark.parametrize("fee", [Fraction(0), Fraction(1, 10)], ids=["fee 0", "a fee"])
@pytest.mark.parametrize("policy", [None, TOSS_POLICY], ids=["no policy", "a policy"])
def test_the_honest_disputants_contract_utility_is_its_leaf_at_half_its_losses(policy, fee):
    # Every deviation above, played through a real contract (under the
    # toss's policy, so with liveness deposits) to a coin-toss arbitration.
    # Averaged over its own two bits, the honest disputant's utility is its
    # arbitration leaf at gamma = (its losses) / 2, less the fee on its entry
    # move (accept or fund), which comes before the tree.  It loses at most
    # one bit, so it gets at least its gamma = 1/2 leaf.
    params = TradeParams(price=1, seller_value=Fraction(1, 3), buyer_value=2, arbiter_error=Fraction(1, 2), fee=fee)
    cases = [(Party.BUYER, Leaf.NOSEND_DISPUTE_COUNTER, lambda own, s=seller: s, honest_buyer)
             for seller in SELLER_DEVIATIONS]
    cases += [(Party.SELLER, Leaf.SEND_DISPUTE_COUNTER, honest_seller, lambda own, r=reply: Script({"bit": r}))
              for reply in BIT_REPLIES.values()]
    for scheme in (Standard(1), WinnerRebate(Fraction(1, 2))):
        for honest, leaf, seller_for, buyer_for in cases:
            played = [disputant_utility(params, scheme, policy, honest, seller_for(own), buyer_for(own))
                      for own in (0, 1)]
            losses = sum(lost for _, lost in played)
            mean = sum(utility for utility, _ in played) / 2
            at_losses = replace(params, arbiter_error=Fraction(losses, 2))
            assert mean == leaf_payoff(leaf, at_losses, scheme).for_party(honest) - fee
            assert losses <= 1
            assert mean >= leaf_payoff(leaf, params, scheme).for_party(honest) - fee
