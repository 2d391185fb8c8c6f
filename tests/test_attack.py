"""Attack loops: gating, budget accounting, learning behavior, baselines."""
import dataclasses
import math
import random

import numpy as np
import pytest
from scipy import stats

from apk_builders import StubPerturbation, apk, declared
from pst_evade import detectors, perturbset
from pst_evade.attack import (
    ALGORITHMS,
    AttackConfig,
    Oracle,
    reference_tree,
    run_attack,
)
from pst_evade.catalog import AndroidCatalog, load_default_catalog
from pst_evade.corpus import CodeComponent, contains, validate_apk, verify_isolation
from pst_evade.detectors import DetectorModel, Ensemble, Feedback, FeatureSpace
from pst_evade.harness import DetectorSpec, make_default_ensemble, train_detector
from pst_evade.perturbset import (
    InjectablePayload,
    apply_perturbation,
    build_perturbation_set,
)
from pst_evade.pstree import build_tree, tree_to_dict

# One case per algorithm, with the case ids the per-algorithm entry points had.
EACH_ALGORITHM = pytest.mark.parametrize("algorithm", ALGORITHMS,
                                         ids=[f"{a}_attack" for a in ALGORITHMS])


class ConstOracle:
    """Always malicious at a fixed confidence."""

    def __init__(self, confidence=0.9):
        self.confidence = confidence
        self.query_count = 0

    def query(self, _apk):
        self.query_count += 1
        return Feedback(label="malicious", confidence=self.confidence)


class ScriptOracle:
    """Plays back a fixed (label, confidence) script; first entry answers the gate."""

    def __init__(self, script):
        self.script = list(script)
        self.query_count = 0

    def query(self, _apk):
        self.query_count += 1
        label, conf = self.script.pop(0)
        return Feedback(label=label, confidence=conf)


class BenignOracle:
    def query(self, _apk):
        return Feedback(label="benign", confidence=0.1)


def _mini_pset():
    catalog = AndroidCatalog(
        hardware_features=("android.hardware.camera", "android.hardware.nfc"),
        software_features=(),
        permissions=(("android.permission.ALPHA", "normal"),
                     ("android.permission.BRAVO", "normal")),
        activity_actions=(), broadcast_actions=(),
        categories=("android.intent.category.DEFAULT",))
    return build_perturbation_set(catalog)


@EACH_ALGORITHM
def test_benign_sample_is_not_applicable(algorithm):
    report = run_attack(BenignOracle(), apk(), _mini_pset(),
                        AttackConfig(budget=10, algorithm=algorithm))
    assert report.outcome == "not_applicable"
    assert report.queries_used == 0
    assert len(report.confidence_trace) == 1
    assert report.applied == ()


@EACH_ALGORITHM
def test_success_on_first_perturbation(algorithm):
    oracle = ScriptOracle([("malicious", 0.9), ("benign", 0.2)])
    report = run_attack(oracle, apk(), _mini_pset(),
                        AttackConfig(budget=10, algorithm=algorithm))
    assert report.outcome == "success"
    assert report.queries_used == 1
    assert report.confidence_trace == (0.9, 0.2)
    assert report.failure_reason is None
    assert len(report.applied) >= 1


@EACH_ALGORITHM
def test_constant_oracle_exhausts_exact_budget(algorithm):
    report = run_attack(ConstOracle(0.9), apk(), _mini_pset(),
                        AttackConfig(budget=4, algorithm=algorithm))
    assert report.outcome == "failure"
    assert report.failure_reason == "budget_exhausted"
    assert report.queries_used == 4
    assert report.confidence_trace == (0.9,) * 5


def test_equal_confidence_keeps_perturbed_sample():
    # Keep-on-equal: a flat confidence still accumulates perturbations.
    report = run_attack(ConstOracle(0.9), apk(), _mini_pset(),
                        AttackConfig(budget=3))
    assert len(report.applied) >= 1
    assert report.adversarial is not None


def test_worsening_confidence_reverts_sample():
    # Gate 0.5, then every perturbed query is strictly worse: nothing kept.
    oracle = ScriptOracle([("malicious", 0.5)] + [("malicious", 0.8)] * 3)
    report = run_attack(oracle, apk(), _mini_pset(), AttackConfig(budget=3))
    assert report.outcome == "failure"
    assert report.applied == ()


def test_tree_depletion_stops_early():
    catalog = AndroidCatalog(
        hardware_features=(), software_features=(),
        permissions=(("android.permission.ALPHA", "normal"),
                     ("android.permission.KILO_UNRELATED", "signature")),
        activity_actions=(), broadcast_actions=(), categories=())
    pset = build_perturbation_set(catalog)
    report = run_attack(ConstOracle(0.9), apk(), pset, AttackConfig(budget=10))
    assert report.outcome == "failure"
    assert report.failure_reason == "tree_depleted"
    assert report.queries_used == len(pset.groups)
    assert report.queries_used < 10


@EACH_ALGORITHM
def test_budget_safety_fuzz(algorithm):
    rng = random.Random(61)
    for trial in range(15):
        budget = rng.randint(1, 12)
        script = [("malicious", 0.9)] + [
            ("malicious", round(rng.random(), 3)) for _ in range(budget + 2)]
        oracle = ScriptOracle(script)
        report = run_attack(oracle, apk(), _mini_pset(),
                            AttackConfig(budget=budget, algorithm=algorithm, seed=trial))
        assert report.queries_used <= budget
        assert len(report.confidence_trace) == report.queries_used + 1


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        AttackConfig(budget=0)
    with pytest.raises(ValueError):
        AttackConfig(budget=5, algorithm="gradient")


def test_run_attack_dispatches():
    oracle = ScriptOracle([("malicious", 0.9), ("benign", 0.2)])
    report = run_attack(oracle, apk(), _mini_pset(),
                        AttackConfig(budget=5, algorithm="random"))
    assert report.outcome == "success"


# ---------------------------------------------------------------------------
# Determinism and prefix behavior (real detector oracle)


def _strip_nondeterministic(report):
    return dataclasses.replace(report, wall_time=0.0, adversarial=None)


@pytest.mark.parametrize("algorithm", ["pst", "mab", "random"])
def test_seed_determinism(attack_setup, algorithm):
    model, pset, tps = attack_setup
    cfg = AttackConfig(budget=12, algorithm=algorithm, seed=77)
    a = run_attack(Oracle(model), tps[0], pset, cfg)
    b = run_attack(Oracle(model), tps[0], pset, cfg)
    assert _strip_nondeterministic(a) == _strip_nondeterministic(b)
    c = run_attack(Oracle(model), tps[0], pset,
                   AttackConfig(budget=12, algorithm=algorithm, seed=78))
    assert a.confidence_trace != c.confidence_trace or a.applied != c.applied


@pytest.mark.parametrize("algorithm", ["pst", "mab", "random"])
def test_budget_prefix_property(attack_setup, algorithm):
    model, pset, tps = attack_setup
    for i, sample in enumerate(tps[:4]):
        small = run_attack(Oracle(model), sample, pset,
                           AttackConfig(budget=8, algorithm=algorithm, seed=200 + i))
        large = run_attack(Oracle(model), sample, pset,
                           AttackConfig(budget=30, algorithm=algorithm, seed=200 + i))
        if small.outcome == "success":
            assert large.outcome == "success"
            assert large.queries_used == small.queries_used
            assert large.confidence_trace == small.confidence_trace
        else:
            assert large.confidence_trace[:len(small.confidence_trace)] == \
                small.confidence_trace


def test_pst_attacks_copy_the_pset_reference_tree(attack_setup, small_corpus):
    # Every pst attack on a pset works on a copy of the pset's one reference
    # tree; the attacks leave it as built and report what attacks on a fresh
    # pset, with no reference tree yet, report.
    model, pset, tps = attack_setup
    fresh = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    assert fresh.tree is None

    def attacks(pset):
        return [_strip_nondeterministic(run_attack(
                    Oracle(model), sample, pset, AttackConfig(budget=15, seed=400 + i)))
                for i, sample in enumerate(tps)]

    got = attacks(pset)
    assert tree_to_dict(pset.tree) == tree_to_dict(build_tree(pset.groups))
    assert got == attacks(fresh)
    assert reference_tree(fresh) is fresh.tree is not None


@pytest.mark.parametrize("algorithm", ["pst", "mab", "random"])
def test_successful_attacks_preserve_functionality(attack_setup, algorithm):
    model, pset, tps = attack_setup
    successes = 0
    for i, sample in enumerate(tps):
        report = run_attack(Oracle(model), sample, pset,
                            AttackConfig(budget=20, algorithm=algorithm, seed=300 + i))
        if report.outcome == "success":
            successes += 1
            assert contains(sample, report.adversarial)
            assert verify_isolation(report.adversarial)
            validate_apk(report.adversarial)
    assert successes >= 1


# ---------------------------------------------------------------------------
# Brute-force cross-check: one known feature flip crosses the threshold


def test_single_flip_found_by_tree_search():
    catalog = AndroidCatalog(
        hardware_features=(), software_features=(),
        permissions=(("android.permission.AAA_X", "normal"),
                     ("android.permission.BBB_Y", "normal"),
                     ("android.permission.CCC_Z", "normal"),
                     ("android.permission.DDD_W", "normal")),
        activity_actions=(), broadcast_actions=(), categories=())
    pset = build_perturbation_set(catalog)
    keys = ("perm:android.permission.AAA_X", "perm:android.permission.BASE")
    model = DetectorModel(
        kind="linear", space=FeatureSpace("binary", keys=keys),
        params={"w": np.array([-6.0, 3.0]), "b": 0.0})
    base = apk(perms=[("android.permission.BASE", "normal")])

    flips = []
    for p in pset.perturbations:
        candidate = apply_perturbation(base, p, random.Random(0))
        x = model.space.extract(candidate)
        conf = 1.0 / (1.0 + math.exp(-float(np.dot(model.params["w"], x))))
        if conf < 0.5:
            flips.append(p.key)
    assert flips == ["permission:android.permission.AAA_X"]

    report = run_attack(Oracle(model), base, pset,
                        AttackConfig(budget=len(pset.groups), seed=9))
    assert report.outcome == "success"
    assert report.queries_used <= len(pset.groups)
    assert flips[0] in report.applied


# ---------------------------------------------------------------------------
# Bandit baseline specifics


def test_second_layer_arm_buckets(full_pset):
    arms = full_pset.arms
    assert set(arms) == {"uses_feature", "permission", "action_category",
                         "service", "receiver", "provider"}
    total = sum(len(v) for v in arms.values())
    assert total == len(full_pset.perturbations)
    assert list(arms) == ["uses_feature", "permission", "action_category",
                          "service", "receiver", "provider"]


def test_mab_attacks_share_the_pset_arms(full_pset, donor_corpus, monkeypatch):
    # The arms depend on the pset alone: the first bandit attack on a pset
    # buckets its groups, and later attacks read the same arms.
    pset = build_perturbation_set(load_default_catalog(), donor_corpus.donors)
    calls = []
    leaf_path = perturbset.leaf_path
    monkeypatch.setattr(perturbset, "leaf_path", lambda g: calls.append(g) or leaf_path(g))
    reports = [run_attack(ConstOracle(), apk(), pset,
                          AttackConfig(budget=5, seed=seed, algorithm="mab"))
               for seed in (1, 2)]
    assert len(calls) == len(pset.groups)
    assert pset.arms == full_pset.arms
    assert [r.queries_used for r in reports] == [5, 5]


class ArmBiasedOracle:
    """Confidence drops when permissions are added and rises otherwise, while
    always staying malicious."""

    def __init__(self, base_perm_count):
        self.base = base_perm_count
        self.query_count = 0

    def query(self, target):
        self.query_count += 1
        gained = len(target.permissions) - self.base
        conf = 0.9 - 0.004 * gained + 0.001 * len(target.uses_features)
        return Feedback(label="malicious", confidence=max(0.55, conf))


def test_mab_learns_rewarding_arm():
    pset = _mini_pset()
    base = apk()
    oracle = ArmBiasedOracle(base_perm_count=0)
    report = run_attack(oracle, base, pset, AttackConfig(budget=60, seed=13,
                                                         algorithm="mab"))
    assert report.outcome == "failure"
    perm_kept = sum(1 for k in report.applied if k.startswith("permission:"))
    assert perm_kept >= 1
    # The rewarded arm dominates the kept pulls.
    assert perm_kept / max(1, len(report.applied)) > 0.5


def test_single_arm_reduces_to_uniform():
    catalog = AndroidCatalog(
        hardware_features=(), software_features=(),
        permissions=(("android.permission.AAA", "normal"),
                     ("android.permission.QQ_DISTINCT", "normal")),
        activity_actions=(), broadcast_actions=(), categories=())
    pset = build_perturbation_set(catalog)
    arms = pset.arms
    assert list(arms) == ["permission"]
    report = run_attack(ConstOracle(0.9), apk(), pset,
                        AttackConfig(budget=30, seed=3, algorithm="mab"))
    assert report.outcome == "failure"
    kinds = {k.split(":")[0] for k in report.applied}
    assert kinds == {"permission"}


# ---------------------------------------------------------------------------
# Random baseline specifics


def test_random_attack_accumulates_without_revert():
    # Confidence gets strictly worse every round; everything still sticks.
    script = [("malicious", 0.5)] + [("malicious", 0.5 + 0.01 * i)
                                     for i in range(1, 9)]
    report = run_attack(ScriptOracle(script), apk(), _mini_pset(),
                        AttackConfig(budget=8, seed=5, algorithm="random"))
    assert report.outcome == "failure"
    assert len(report.applied) == report.queries_used == 8


def test_random_attack_single_perturbation_set():
    catalog = AndroidCatalog(
        hardware_features=("android.hardware.nfc",), software_features=(),
        permissions=(), activity_actions=(), broadcast_actions=(), categories=())
    pset = build_perturbation_set(catalog)
    report = run_attack(ConstOracle(0.9), apk(), pset,
                        AttackConfig(budget=5, seed=1, algorithm="random"))
    assert report.applied == ("uses_feature:android.hardware.nfc",) * 5


def test_random_attack_draws_uniformly():
    catalog = AndroidCatalog(
        hardware_features=(), software_features=(),
        permissions=tuple((f"android.permission.U{i}_T{i}", "normal")
                          for i in range(8)),
        activity_actions=(), broadcast_actions=(), categories=())
    pset = build_perturbation_set(catalog)
    n = 100_000
    report = run_attack(ConstOracle(0.9), apk(), pset,
                        AttackConfig(budget=n, seed=21, algorithm="random"))
    counts: dict[str, int] = {}
    for key in report.applied:
        counts[key] = counts.get(key, 0) + 1
    observed = [counts[p.key] for p in pset.perturbations]
    assert stats.chisquare(observed).pvalue > 0.01


# ---------------------------------------------------------------------------
# Incremental oracle: every answer equals a full extraction, bit for bit

SINGLE_DETECTORS = [f"{features}-{kind}" for features in ("binary", "markov", "api_cluster")
                    for kind in ("linear", "mlp", "knn", "forest")]


@pytest.fixture(scope="module")
def detector_zoo(small_corpus):
    """Every detector kind on every feature kind, the stock ensemble, and an
    ensemble of six of them that reads all three feature kinds."""
    zoo = {}
    for name in SINGLE_DETECTORS:
        features, kind = name.split("-")
        zoo[name] = train_detector(DetectorSpec(name=name, kind=kind, features=features),
                                   small_corpus)
    zoo["ensemble"] = make_default_ensemble(small_corpus, seed=0, size=20)
    zoo["mixed"] = Ensemble([zoo[name] for name in (
        "binary-linear", "markov-mlp", "api_cluster-forest", "binary-knn", "markov-forest",
        "api_cluster-linear")])
    return zoo


@pytest.fixture(scope="module")
def donor_pset(small_corpus):
    return build_perturbation_set(load_default_catalog(), small_corpus.donors)


@pytest.fixture
def full_extractions(monkeypatch):
    """The feature spaces the oracle extracted an app in, in full, one per call."""
    calls = []
    state = FeatureSpace.state

    def counted(space, app):
        calls.append(space)
        return state(space, app)

    monkeypatch.setattr(FeatureSpace, "state", counted)
    return calls


def _bits(fb):
    return fb.label, fb.confidence.hex()


class DifferentialOracle:
    """Answers through an ``Oracle`` and checks each answer against a full
    extraction of the app, bit for bit."""

    def __init__(self, model):
        self.model = model
        self.oracle = Oracle(model)
        self.answers = 0

    def query(self, app):
        fb = self.oracle.query(app)
        assert _bits(fb) == _bits(detectors.query(self.model, app))
        self.answers += 1
        return fb


@pytest.mark.parametrize("name", SINGLE_DETECTORS + ["ensemble", "mixed"])
def test_oracle_answers_equal_full_extraction(detector_zoo, small_corpus, donor_pset,
                                              full_extractions, name):
    model = detector_zoo[name]
    rng = random.Random(name)
    targets = [a for a in small_corpus.malicious
               if detectors.query(model, a).label == "malicious"]
    assert targets
    later_answers = 0
    for algorithm in ALGORITHMS:
        for target in rng.sample(targets, min(3, len(targets))):
            oracle = DifferentialOracle(model)
            before = len(full_extractions)
            run_attack(oracle, target, donor_pset,
                       AttackConfig(budget=rng.randint(8, 16), algorithm=algorithm,
                                    seed=rng.randrange(2 ** 32)))
            # Only the gate query is extracted in full; every candidate
            # extends an app the oracle remembers.
            assert full_extractions[before:] == list(model.spaces)
            later_answers += oracle.answers - 1
    assert later_answers >= 20


def test_oracle_keeps_the_kept_sample_when_a_candidate_adds_nothing(
        attack_setup, full_extractions):
    # mab may propose a rejected perturbation again: that candidate adds nothing
    # to the rejected one, and must not push the kept sample out of memory.
    model, pset, tps = attack_setup
    queries = 0
    for i in range(60):
        oracle = DifferentialOracle(model)
        run_attack(oracle, tps[i % len(tps)], pset,
                   AttackConfig(budget=200, algorithm="mab", seed=400 + i))
        queries += oracle.answers
    assert queries > 1000
    assert len(full_extractions) == 60


def _with_components(app, components):
    return dataclasses.replace(app, components=tuple(components))


def test_oracle_extracts_an_app_that_extends_no_remembered_app_in_full(
        detector_zoo, small_corpus, donor_pset, full_extractions):
    model = detector_zoo["mixed"]
    spaces = list(model.spaces)
    assert {s.kind for s in spaces} == {"binary", "markov", "api_cluster"}
    rng = random.Random(3)
    inject = next(p for p in donor_pset.perturbations if p.kind.startswith("inject_"))
    first, second = small_corpus.malicious[:2]
    assert first.components and first.permissions
    extended = apply_perturbation(first, inject, rng)
    oracle = DifferentialOracle(model)

    def extracted_in_full(app):
        before = len(full_extractions)
        oracle.query(app)
        return full_extractions[before:] == spaces

    assert extracted_in_full(first)
    assert not extracted_in_full(extended)
    # One oracle reused for an unrelated app, then for the first app again,
    # which it no longer remembers.
    assert extracted_in_full(second)
    assert extracted_in_full(first)
    assert not extracted_in_full(extended)
    # Equal components that are not the same objects; a permission dropped;
    # the first app without its last code component.
    copies = _with_components(extended, [dataclasses.replace(c)
                                         for c in extended.components])
    dropped = dataclasses.replace(
        extended, permissions=frozenset(list(first.permissions)[1:]))
    shorter = _with_components(first, first.components[:-1])
    for app in (copies, dropped, shorter):
        assert extracted_in_full(app)


@pytest.mark.parametrize("name,component,needle", [
    ("api_cluster-linear", {"api_calls": ("api.nowhere.fn999",)},
     "api id missing from cluster map: api.nowhere.fn999"),
])
def test_oracle_raises_the_full_extraction_error_for_an_added_part(
        detector_zoo, small_corpus, full_extractions, name, component, needle):
    model = detector_zoo[name]
    target = small_corpus.malicious[0]
    payload = InjectablePayload(
        source_apk_id="d", declared=declared(kind="service", name="Bad"),
        component=CodeComponent(**{"kind": "service", "classes": 1, "families": [],
                                   "edges": [], "api_calls": (), **component}))
    candidate = apply_perturbation(target, StubPerturbation("inject_service", payload),
                                   random.Random(0))
    with pytest.raises(ValueError) as full:
        detectors.query(model, candidate)
    assert str(full.value) == needle
    oracle = Oracle(model)
    oracle.query(target)
    with pytest.raises(ValueError) as delta:
        oracle.query(candidate)
    assert str(delta.value) == needle
    # The candidate extends the gate's app, so only the gate was extracted in full.
    assert full_extractions == [model.space]
