"""Known mutants of `src/escrowlab`, each with the tests that must kill it.

Run from anywhere: `python tests/mutants.py`.  It copies `src/`, `tests/`
and `pyproject.toml` to a temporary directory, so pytest's `pythonpath`
setting points at the copy.  It first runs every named test once on the
unmutated copy, and they must pass, so a renamed or deleted test is caught.
It then applies each mutant in turn, runs all of its tests in one
`python -m pytest -q -p no:cacheprovider` process, without `-x`, under a
time limit and a fixed `--hypothesis-seed`, reads each test's outcome from
the run's `--junitxml` report, and restores the file.  `hypothesis` runs
under a profile with no example database and no shrinking: a failing
example kills the mutant as it is found.  A test fails when one of its
cases fails and none hits an error; its first failing case skips its other
parameters.  A mutant is killed only when every one of its tests fails, so
each test listed for it is shown to kill it; an error, a test the report
does not name and a run that times out are not kills.  It prints one line
per mutant: killed, not killed (followed by each test that passed, was
skipped, timed out, hit an error or did not run), or text not found (the
text must occur exactly once).
It exits nonzero unless every mutant is killed.

pytest does not collect this file: its name has no `test_` prefix.  A
change that stops a mutant's text from matching ports the mutant to the
new code in the same change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
TIME_LIMIT = 120  # seconds per pytest run, one per mutant
#: A pytest plugin, written into the copy, that loads the `mutants` profile
#: and, once one case of a test named without a parameter fails, skips its
#: other parameters: one failing case fails it, as `-x` stopped a run of it.
PLUGIN = """import pytest
from hypothesis import Phase, settings

settings.register_profile("mutants", database=None, phases=[Phase.explicit, Phase.generate])
failed = set()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.failed:
        failed.add(item.nodeid.split("[")[0])
    return report


def pytest_runtest_setup(item):
    test = item.nodeid.split("[")[0]
    if test in failed and test in item.config.args:  # named without a parameter
        pytest.skip("another case of this test failed")
"""
#: A junit test case's child tags as outcomes, and the outcomes from least to
#: most severe.  A listed test reads as the most severe outcome among its
#: cases (every parameter of a test listed without one): any case failing
#: fails it, and an error, in a case or in a teardown after a failure, is
#: no kill.
REPORTED = {"skipped": "skipped", "failure": "failed", "error": "error"}
SEVERITY = ("passed", "skipped", "failed", "error")


class Mutant(NamedTuple):
    id: str
    file: str  # under src/escrowlab
    text: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # node ids under tests/, each of which must kill it
    source: str  # the change or roadmap item that named it


EQ = "tests/test_equilibrium.py::"
ACCEPTANCE = "tests/test_acceptance.py::"
HAND_SET = EQ + "test_a_hand_set_table_is_solved_through_the_shared_plans"
EVERY_PROFILE = EQ + "test_every_profile_enters_the_enumeration_once_at_its_own_epsilon"
RUN_TRIAL = "tests/test_agents.py::test_run_trial_matches_the_fraction_sums"
SELLER_TOSS = "tests/test_arbiter.py::test_no_seller_strategy_wins_both_bits_of_the_honest_buyer"
RAMP = "tests/test_contract.py::test_a_timed_contract_pays_its_leaf_less_its_ramp"
GENERIC_SUM = "tests/test_identities.py::test_the_seller_dispute_margins_sum_to_the_generic_impossibility_form"
THIRD_ROW = "tests/test_identities.py::test_the_third_dispute_layer_row_is_the_second_plus_the_buyers_item_value"
TRADE = "tests/test_trade.py::"
TRADE_CHECKS = TRADE + "test_trade_checks_on_int_ratios_match_the_fraction_comparisons"
GENERIC_CHECKS = TRADE + "test_generic_checks_on_int_ratios_match_the_fraction_comparisons"
BOUNDARIES = TRADE + "test_the_range_checks_hold_at_their_boundaries"
LEDGER = "tests/test_ledger.py::"
INTEGER_PAIRS = LEDGER + "test_integer_pairs_match_the_fraction_ledger"
MULTIPARTY = "tests/test_multiparty.py::"
DENSE_LOOP = MULTIPARTY + "test_per_trade_settlement_matches_the_dense_loop"
INTERVAL_ROOTS = "tests/test_identities.py::test_each_finite_bound_of_the_wager_interval_is_a_root_of_one_margin_form"


MUTANTS = (
    Mutant(
        "enumeration-one-shot-deviations", "equilibrium.py",
        "top = frozenset().union(*[deviation[side] for deviation in deviations])",
        "top = frozenset([at + side for at in reached])",
        (EVERY_PROFILE, HAND_SET), "PR 40 (a)",
    ),
    Mutant(
        "enumeration-gain-reads-the-other-party", "equilibrium.py",
        "term = terms.setdefault((top, at + side), len(terms))",
        "term = terms.setdefault((top, at + (not side)), len(terms))",
        (EQ + "test_perfect_arbiter_selects_the_honest_profile", EVERY_PROFILE, HAND_SET), "PR 40 (b)",
    ),
    Mutant(
        "induction-first-maximizer-over-an-honest-tie", "equilibrium.py",
        "pick = honest if own[honest] == best else own.index(best)",
        "pick = own.index(best)",
        (EQ + "test_fair_coin_with_matching_wager_is_weakly_optimal_everywhere", HAND_SET), "PR 40 (c)",
    ),
    Mutant(
        "enumeration-last-profile-twice", "equilibrium.py",
        "entries = _subtree_entries(root, leaves, terms)\n",
        "entries = _subtree_entries(root, leaves, terms)\n    entries.append(entries[-1])\n",
        (EVERY_PROFILE, HAND_SET), "PR 40 (d)",
    ),
    Mutant(
        "profile-epsilon-keyed-on-key-order", "equilibrium.py",
        "_PLACES[frozenset(profile.items())]",
        "[tuple(choices) for choices in _ENUMERATION[1]].index(tuple(profile.items()))",
        (EQ + "test_profile_epsilon_reads_a_profile_whatever_its_key_order",), "one game shape",
    ),
    Mutant(
        "profile-value-takes-any-node", "equilibrium.py",
        "elif not (isinstance(node, DecisionNode) and _SHAPE.get(node.node_id) is node):",
        "elif False:",
        (EQ + "test_profile_value_refuses_a_node_of_another_shape_by_name",), "one game shape",
    ),
    Mutant(
        "dispute-layer-two-rows", "equilibrium.py",
        "DISPUTE_LAYER = CONSTRAINTS[:3]",
        "DISPUTE_LAYER = CONSTRAINTS[:2]",
        (EQ + "test_the_dispute_layer_heads_the_constraint_table",), "PR 37",
    ),
    Mutant(
        "root-constraint-reads-the-counter-leaf", "equilibrium.py",
        "_CONSTRAINT_LEAVES = [_constraint_leaves(_SHAPE[node_id]) for node_id in _NODES]",
        "_CONSTRAINT_LEAVES = [_constraint_leaves(_SHAPE[node_id]) for node_id in _NODES[:4]] + [\n"
        "    (True, Leaf.SEND_DISPUTE_COUNTER, Leaf.NOSEND_DISPUTE_FORFEIT)]",
        (ACCEPTANCE + "test_criterion_2_matching_wager_strong_security_exact",), "PR 39 (b)",
    ),
    Mutant(
        "root-constraint-reads-the-deviation-leaf", "equilibrium.py",
        "_CONSTRAINT_LEAVES = [_constraint_leaves(_SHAPE[node_id]) for node_id in _NODES]",
        "_CONSTRAINT_LEAVES = [_constraint_leaves(_SHAPE[node_id]) for node_id in _NODES[:4]] + [\n"
        "    (True, Leaf.NOSEND_DISPUTE_FORFEIT, Leaf.NOSEND_DISPUTE_FORFEIT)]",
        (EQ + "test_backward_induction_margins_equal_analytic_margins_when_complete",), "PR 39",
    ),
    Mutant(
        "constraint-owner-flipped", "equilibrium.py",
        "return node.owner is Party.SELLER, _reached(",
        "return node.owner is Party.BUYER, _reached(",
        (ACCEPTANCE + "test_criterion_1_completeness_boundary_matches_brute_force",), "PR 39 (c)",
    ),
    Mutant(
        "report-columns-zipped-in-reversed-order", "equilibrium.py",
        "for margins, stake in zip(zip(*columns), stakes)",
        "for margins, stake in zip(zip(*reversed(columns)), stakes)",
        (GENERIC_SUM,), "report rows",
    ),
    Mutant(
        "report-stores-the-fee-as-gamma", "equilibrium.py",
        "gamma=gamma, wager=wager",
        "gamma=fee, wager=wager",
        (EQ + "test_a_report_built_any_way_is_frozen_and_shows_its_six_fields_in_order",), "report rows",
    ),
    Mutant(
        "leaf-drops-the-sellers-counter-fee", "gametree.py",
        "(seller - _FEE_MOVES[leaf][1] * fee, sk)",
        "(seller - _FEE_MOVES[leaf][1] * fee * (leaf is not Leaf.NOSEND_DISPUTE_COUNTER), sk)",
        (GENERIC_SUM, THIRD_ROW), "item 23",
    ),
    Mutant(
        "arbitration-leaf-g-and-h-swapped", "gametree.py",
        "(g * win, g * slope - h)",
        "(h * win, h * slope - g)",
        (GENERIC_SUM, THIRD_ROW), "item 23",
    ),
    Mutant(
        "counter-leaf-seller-coeff-sign", "gametree.py",
        "(h * win - xs * s, h * slope - g)",
        "(h * win - xs * s, h * slope + g)",
        (ACCEPTANCE + "test_criterion_3_wager_intervals_exact",), "PR 39 (a)",
    ),
    Mutant(
        "tree-drops-the-sellers-stake-term", "gametree.py",
        "(buyer + bk * stake, seller + sk * stake)",
        "(buyer + bk * stake, seller)",
        (ACCEPTANCE + "test_criterion_1_completeness_boundary_matches_brute_force",), "PR 39 (d)",
    ),
    *[
        Mutant(
            f"splits-{name.replace(':', '-')}-leaves-swapped", "contract.py",
            f'"{name}": ("{role}", {arbitrated}, (Leaf.NOSEND_{leaf}, Leaf.SEND_{leaf})),',
            f'"{name}": ("{role}", {arbitrated}, (Leaf.SEND_{leaf}, Leaf.NOSEND_{leaf})),',
            (RUN_TRIAL,), "PR 37",
        )
        for name, role, arbitrated, leaf in [
            ("accept", "seller", False, "ACCEPT"),
            ("forfeit", "buyer", False, "DISPUTE_FORFEIT"),
            ("arbitration:buyer", "buyer", True, "DISPUTE_COUNTER"),
            ("arbitration:seller", "seller", True, "DISPUTE_COUNTER"),
        ]
    ],
    Mutant(
        "pay-in-wagers-the-liveness-deposit", "contract.py",
        "amount -= deposit",
        "amount -= 0",
        ("tests/test_contract.py::test_unfunded_proposal_aborts_with_empty_pots",), "PR 37",
    ),
    Mutant(
        "ramp-reads-the-best-lateness", "contract.py",
        "max(self.worst_lateness.get(party, 0), lateness)",
        "min(self.worst_lateness.get(party, 0), lateness)",
        (RAMP,), "PR 36",
    ),
    Mutant(
        "disputed-timeout-charges-the-buyer", "contract.py",
        'Phase.DISPUTED: ("seller", "forfeit"),',
        'Phase.DISPUTED: ("buyer", "forfeit"),',
        (RAMP,), "PR 36",
    ),
    Mutant(
        "trade-accepts-a-buyer-value-equal-to-the-price", "trade.py",
        "y * xq > x * yq",
        "y * xq >= x * yq",
        (TRADE_CHECKS, BOUNDARIES, TRADE + "test_ill_posed_trades_rejected[1-0-1]"), "int ratio checks",
    ),
    Mutant(
        "trade-refuses-an-arbiter-that-always-errs", "trade.py",
        "g <= gq",
        "g < gq",
        (TRADE_CHECKS, BOUNDARIES), "int ratio checks",
    ),
    Mutant(
        "trade-refuses-a-zero-fee", "trade.py",
        "fee < 0",
        "fee <= 0",
        (TRADE_CHECKS, BOUNDARIES), "int ratio checks",
    ),
    Mutant(
        "generic-refuses-a-zero-loss", "trade.py",
        "loss < 0",
        "loss <= 0",
        (GENERIC_CHECKS, BOUNDARIES), "int ratio checks",
    ),
    Mutant(
        "converted-field-not-set-again", "trade.py",
        "held[name] = value = as_fraction(value)",
        "value = as_fraction(value)",
        (TRADE_CHECKS, GENERIC_CHECKS, TRADE + "test_params_coerce_to_exact_fractions"), "int ratio checks",
    ),
    Mutant(
        "rescale-leaves-the-fee-unscaled", "ledger.py",
        "        self._fee *= factor\n",
        "",
        (INTEGER_PAIRS, LEDGER + "test_amounts_on_fresh_prime_denominators_stay_exact"), "one fee rule",
    ),
    Mutant(
        "rollback-keeps-the-blocks-scale-and-fee", "ledger.py",
        "            self._scale, self._fee = scale, fee\n",
        "",
        (LEDGER + "test_a_rescale_inside_a_block_that_raises_is_undone",), "one fee rule",
    ),
    Mutant(
        "contract-move-burns-no-fee", "ledger.py",
        'self._sinks["fee_sink"] += fee',
        'self._sinks["fee_sink"] += 0',
        (LEDGER + "test_contract_move_charges_the_fee_to_the_mover",
         LEDGER + "test_conservation_under_random_operation_sequences"), "one fee rule",
    ),
    Mutant(
        "scheduler-fires-a-stale-entry", "ledger.py",
        "if cid in bucket:",
        "if True:",
        (LEDGER + "test_a_callback_that_cancels_or_rearms_an_unfired_id_of_its_own_due",
         LEDGER + "test_heap_scheduler_matches_the_sorted_scan"), "one fee rule",
    ),
    Mutant(
        "rearm-leaves-the-id-in-its-old-bucket", "ledger.py",
        "        self.cancel_timeout(contract_id)\n",
        "",
        (LEDGER + "test_rearming_one_id_at_many_distinct_dues_keeps_every_container_small",
         LEDGER + "test_rearming_one_id_many_times_fires_once_and_keeps_little",
         LEDGER + "test_a_callback_that_cancels_or_rearms_an_unfired_id_of_its_own_due"), "timeout buckets",
    ),
    Mutant(
        "emptied-bucket-never-dropped", "ledger.py",
        "            if not bucket:\n                del self._buckets[due]\n",
        "",
        (LEDGER + "test_rearming_one_id_at_many_distinct_dues_keeps_every_container_small",), "timeout buckets",
    ),
    Mutant(
        "batch-keeps-an-unfunded-step", "multiparty.py",
        "steps[i] = []",
        "pass",
        (MULTIPARTY + "test_unfunded_purchases_are_cancelled", MULTIPARTY + "test_unfunded_counters_default_to_forfeit",
         DENSE_LOOP), "one fee rule",
    ),
    Mutant(
        "counter-wager-reads-the-transposed-price", "multiparty.py",
        "[xs[j][i] for j in cols] if by_seller",
        "[xs[i][j] for j in cols] if by_seller",
        (DENSE_LOOP, MULTIPARTY + "test_random_three_party_batches_compose"), "one fee rule",
    ),
    Mutant(
        "coin-pays-the-loser", "multiparty.py",
        "credits[j if b[i][j] else i]",
        "credits[i if b[i][j] else j]",
        (MULTIPARTY + "test_countered_dispute_settles_by_the_coin", DENSE_LOOP), "one fee rule",
    ),
    Mutant(
        "coin-takes-the-low-bit", "multiparty.py",
        "bytes(v >> 7 for v in range(256))",
        "bytes(v & 1 for v in range(256))",
        (MULTIPARTY + "test_the_drawn_coin_grid_is_n_squared_single_bit_draws[7]",
         DENSE_LOOP), "one fee rule",
    ),
    Mutant(
        "interval-bound-adds-the-constant", "equilibrium.py",
        "bound = eps - Fraction(constant, s * s)",
        "bound = eps + Fraction(constant, s * s)",
        (INTERVAL_ROOTS,), "item 23",
    ),
    Mutant(
        "interval-lower-bound-is-the-least-root", "equilibrium.py",
        "lower, upper = max(lowers), min(uppers, default=None)",
        "lower, upper = min(lowers), min(uppers, default=None)",
        (INTERVAL_ROOTS,), "item 23",
    ),
    Mutant(
        "toss-skips-verify", "arbiter.py",
        "if verify(committed.digest, opening.bit, opening.randomness):",
        "if True:",
        (SELLER_TOSS,), "item 19",
    ),
    Mutant(
        "toss-silent-opener-wins", "arbiter.py",
        "return party.other(), BASIS_TIMEOUT",
        "return (party if kind is Open else party.other()), BASIS_TIMEOUT",
        (SELLER_TOSS,), "item 19",
    ),
)


def _junit_key(node: str) -> tuple[str, str]:
    """A node id as the (classname, name) its test case has in a junit report."""
    path, *inner = node.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *inner[:-1]]), inner[-1]


def pytest(copy: Path, tests) -> dict[str, str]:
    """Run `tests` in the copy in one process; each test's outcome: passed,
    failed, error, skipped, not run, or timed out when the run did."""
    report = copy / "report.xml"
    report.unlink(missing_ok=True)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants_plugin",
               "--hypothesis-profile=mutants", f"--hypothesis-seed={SEED}", f"--junitxml={report}", *tests]
    try:
        # No bytecode is written, so a restored file is never read from a mutant's stale cache.
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        return dict.fromkeys(tests, "timed out")
    if run.returncode not in (0, 1):
        print(run.stdout[-2000:], run.stderr[-2000:], sep="\n", file=sys.stderr)
    keys = {_junit_key(test): test for test in tests}
    cases: dict[str, list[str]] = {test: [] for test in tests}
    if report.exists():
        for case in ElementTree.parse(report).iter("testcase"):
            classname, name = case.get("classname"), case.get("name")
            test = keys.get((classname, name)) or keys.get((classname, name.split("[")[0]))
            if test is not None:
                reported = (REPORTED[child.tag] for child in case if child.tag in REPORTED)
                cases[test].append(max(reported, key=SEVERITY.index, default="passed"))
    return {test: max(outcomes, key=SEVERITY.index) if outcomes else "not run" for test, outcomes in cases.items()}


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="escrowlab-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "mutants_plugin.py").write_text(PLUGIN)
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        unpassed = {test: run for test, run in pytest(copy, tests).items() if run != "passed"}
        print(f"baseline: {len(tests)} named tests, {len(unpassed)} not passed, in {time.perf_counter() - start:.1f} s")
        for test, run in unpassed.items():
            print(f"    {run}: {test}")
        if unpassed:
            return 1
        unkilled = 0
        for mutant in MUTANTS:
            path = copy / "src" / "escrowlab" / mutant.file
            original = path.read_text()
            began = time.perf_counter()
            missed = {}
            if original.count(mutant.text) != 1:
                outcome = "text not found"
            else:
                path.write_text(original.replace(mutant.text, mutant.replacement))
                try:
                    runs = pytest(copy, mutant.tests)
                finally:
                    path.write_text(original)
                missed = {test: run for test, run in runs.items() if run != "failed"}
                outcome = "not killed" if missed else "killed"
            unkilled += outcome != "killed"
            print(f"{outcome:<14} {time.perf_counter() - began:5.1f} s  {mutant.id} ({mutant.source})")
            for test, run in missed.items():
                print(f"    {run}: {test}")
    print(f"{len(MUTANTS)} mutants, {unkilled} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if unkilled else 0


if __name__ == "__main__":
    sys.exit(main())
