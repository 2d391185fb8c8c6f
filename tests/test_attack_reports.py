"""Whole attack reports pinned against recorded values.

The oracle's answer is a pure function of the candidate app's contents, so
every report depends only on the attack's own choices and randomness, never on
a trained model or on floating-point library behaviour. Any change to how the
attacks pick perturbations, consume randomness, keep or revert candidates, or
count queries shows up here as a report that differs from the recording.

To record the values again after a deliberate behaviour change, run
``PYTHONPATH=src:tests python tests/test_attack_reports.py``.
"""
import json
from pathlib import Path

import pytest

from apk_builders import HARDENED, ContentOracle, apk, small_pset
from pst_evade.attack import AttackConfig, run_attack

RECORDED = Path(__file__).parent / "data" / "attack_reports.json"
# Budgets from one query to more than the tree has leaves, and a target that
# cannot evade, so that every ending (budget spent, tree depleted, evasion)
# appears.
CASES = [(algorithm, seed, budget, hardened)
         for algorithm in ("pst", "mab", "random")
         for seed, budget, hardened in ((0, 1, False), (1, 6, False), (2, 15, False),
                                        (3, 30, False), (4, 30, True))]


def _report(algorithm, seed, budget, hardened):
    config = AttackConfig(budget=budget, algorithm=algorithm, seed=seed)
    target = apk(perms=[(HARDENED, "signature")] if hardened else [])
    report = run_attack(ContentOracle(), target, small_pset(), config)
    return {"sample_id": report.sample_id, "outcome": report.outcome,
            "queries_used": report.queries_used, "applied": list(report.applied),
            "confidence_trace": list(report.confidence_trace),
            "failure_reason": report.failure_reason}


def _case_id(algorithm, seed, budget, hardened):
    # "free": the gate query does not count against the budget.
    return f"{algorithm}-seed{seed}-budget{budget}{'-hardened' if hardened else ''}-free"


@pytest.mark.parametrize("case", CASES, ids=lambda case: _case_id(*case))
def test_report_matches_recording(case):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert _report(*case) == recorded[_case_id(*case)]


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps({_case_id(*case): _report(*case) for case in CASES},
                                   indent=1) + "\n", encoding="utf-8")
