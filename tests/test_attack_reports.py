"""Whole attack reports pinned against recorded values.

The oracle's answer is a pure function of the candidate app's contents, so
every report depends only on the attack's own choices and randomness, never on
a trained model or on floating-point library behaviour. Any change to how the
attacks pick perturbations, consume randomness, keep or revert candidates, or
count queries shows up here as a report that differs from the recording.

To record the values again after a deliberate behaviour change, run
``PYTHONPATH=src:tests python tests/test_attack_reports.py``.
"""
import hashlib
import json
from pathlib import Path

import pytest

from apk_builders import apk, code_component, declared
from pst_evade.attack import AttackConfig, report_to_dict, run_attack
from pst_evade.catalog import AndroidCatalog
from pst_evade.detectors import Feedback
from pst_evade.perturbset import build_perturbation_set

RECORDED = Path(__file__).parent / "data" / "attack_reports.json"
HARDENED = "com.example.permission.HARDENED"
# Budgets from one query to more than the tree has leaves, and a target that
# cannot evade, so that every ending (budget spent, tree depleted, evasion)
# appears.
CASES = [(algorithm, seed, budget, hardened)
         for algorithm in ("pst", "mab", "random")
         for seed, budget, hardened in ((0, 1, False), (1, 6, False), (2, 15, False),
                                        (3, 30, False), (4, 30, True))]


class ContentOracle:
    """Each permission or feature lowers the confidence by 0.05 (by 0.02 on an
    app holding HARDENED, which thus never evades), plus a jitter in [0, 0.1)
    hashed from their names; intents and injected code leave it unchanged.
    Below 0.5 the answer is benign."""

    def __init__(self):
        self.query_count = 0

    def query(self, app):
        self.query_count += 1
        names = (sorted(p.name for p in app.permissions)
                 + sorted(app.uses_features))
        step = 20 if HARDENED in names else 50
        digest = hashlib.sha256("\n".join(names).encode()).digest()
        milli = 900 - step * len(names) + int.from_bytes(digest[:2], "big") % 100
        return Feedback(label="benign" if milli < 500 else "malicious",
                        confidence=milli / 1000)


def _donor(donor_id, kinds):
    decls, comps, edges = [], [], []
    for i, kind in enumerate(kinds):
        funcs = [f"{donor_id}.c{i}.f{k}@{k % 3}" for k in range(3)]
        decls.append(declared(kind=kind, name=f"{donor_id}.{kind.title()}{i}"))
        comps.append(code_component(kind=kind, functions=funcs))
        edges += [(funcs[0], funcs[1]), (funcs[1], funcs[2])]
    return apk(apk_id=donor_id, ground_truth="benign", declared_components=decls,
               components=comps, edges=edges)


def _pset():
    catalog = AndroidCatalog(
        hardware_features=("android.hardware.camera", "android.hardware.camera.flash",
                           "android.hardware.nfc", "android.hardware.wifi"),
        software_features=("android.software.backup", "android.software.webview"),
        permissions=tuple((f"android.permission.{name}", level) for name, level in (
            ("ACCESS_WIFI_STATE", "normal"), ("CHANGE_WIFI_STATE", "normal"),
            ("ACCESS_NETWORK_STATE", "normal"), ("CHANGE_NETWORK_STATE", "normal"),
            ("VIBRATE", "normal"), ("WAKE_LOCK", "normal"),
            ("SET_ALARM", "normal"), ("INTERNET", "normal"),
            ("BIND_JOB_SERVICE", "signature"), ("BIND_WALLPAPER", "signature"),
            ("READ_SMS", "dangerous"))),
        activity_actions=("android.intent.action.VIEW", "android.intent.action.SEND"),
        broadcast_actions=("android.intent.action.BOOT_COMPLETED",),
        categories=("android.intent.category.DEFAULT", "android.intent.category.BROWSABLE"))
    donors = [_donor("d0", ("service", "receiver")),
              _donor("d1", ("provider", "service"))]
    return build_perturbation_set(catalog, donors)


def _report(algorithm, seed, budget, hardened):
    config = AttackConfig(budget=budget, algorithm=algorithm, seed=seed)
    target = apk(perms=[(HARDENED, "signature")] if hardened else [])
    doc = report_to_dict(run_attack(ContentOracle(), target, _pset(), config))
    del doc["wall_time"]
    return doc


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
