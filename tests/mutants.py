"""Known mutants of `src/escrowlab`, each with the tests that must kill it.

Run from anywhere: `python tests/mutants.py`.  It copies `src/`, `tests/`
and `pyproject.toml` to a temporary directory, so pytest's `pythonpath`
setting points at the copy.  It first runs every named test once on the
unmutated copy, and they must pass, so a renamed or deleted test is caught.
It then applies each mutant in turn, runs each of its tests on its own with
`python -m pytest -x -q -p no:cacheprovider` under a time limit and a fixed
`--hypothesis-seed`, and restores the file.  `hypothesis` runs under a
profile with no example database and no shrinking: a failing example kills
the mutant as it is found.  A mutant is killed only when every one of its
tests fails, so each test listed for it is shown to kill it.  It prints one
line per mutant: killed, not killed (followed by each test that passed, timed
out or hit an error), or text not found (the text must occur exactly once).
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

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
TIME_LIMIT = 120  # seconds per pytest run
#: A pytest plugin, written into the copy, that loads the `mutants` profile.
PROFILE = """from hypothesis import Phase, settings

settings.register_profile("mutants", database=None, phases=[Phase.explicit, Phase.generate])
"""


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


def pytest(copy: Path, tests) -> str:
    """Run `tests` in the copy: passed, failed, timed out or error."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", "mutants_profile",
               "--hypothesis-profile=mutants", f"--hypothesis-seed={SEED}", *tests]
    try:
        # No bytecode is written, so a restored file is never read from a mutant's stale cache.
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        return "timed out"
    if run.returncode in (0, 1):
        return "passed" if run.returncode == 0 else "failed"
    print(run.stdout[-2000:], run.stderr[-2000:], sep="\n", file=sys.stderr)
    return "error"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="escrowlab-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "mutants_profile.py").write_text(PROFILE)
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        baseline = pytest(copy, tests)
        print(f"baseline: {len(tests)} named tests {baseline} in {time.perf_counter() - start:.1f} s")
        if baseline != "passed":
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
                    runs = {test: pytest(copy, (test,)) for test in mutant.tests}
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
