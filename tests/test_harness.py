"""Experiment runner: metrics math, grid coverage, determinism, file formats."""
from collections import Counter

import numpy as np
import pytest

from apk_builders import HARDENED, REPORT_LISTS, ContentOracle, file_document, small_pset
from apk_builders import apk as build_apk
from pst_evade import harness
from pst_evade.attack import AttackConfig, Oracle, run_attack
from pst_evade.catalog import load_default_catalog
from pst_evade.corpus import CorpusSpec, generate_corpus
from pst_evade.detectors import DetectorModel
from pst_evade.detectors import query as model_query
from pst_evade.harness import (
    DETAIL_KEYS,
    DetectorSpec,
    ExperimentConfig,
    budget_rows,
    cells_from_rows,
    compute_asr,
    config_from_dict,
    config_to_dict,
    derive_seed,
    detector_spec_from_dict,
    detector_spec_to_dict,
    format_grid,
    grid_from_rows,
    load_rows,
    make_default_ensemble,
    run_experiment,
    save_report,
    select_true_positives,
    train_detector,
)
from pst_evade.perturbset import build_perturbation_set


def _mini_config(**overrides):
    base = dict(
        detectors=(DetectorSpec(name="linear"),),
        algorithms=("pst", "mab", "random"),
        budgets=(5, 10), sample_count=6, seeds=(0, 1))
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def mini_report(small_corpus):
    return run_experiment(_mini_config(), small_corpus)


def _strip_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


# ---------------------------------------------------------------------------
# Seed derivation


def test_derived_seed_is_stable_hash():
    assert derive_seed(0, "b000") == 11530356793670756999
    assert derive_seed(7, "m012") == 8358528495962060789


def test_derived_seeds_separate_samples_and_masters():
    seeds = {derive_seed(m, s) for m in range(20) for s in ("a", "b", "c")}
    assert len(seeds) == 60


# ---------------------------------------------------------------------------
# Metrics


def _row(outcome):
    return {"outcome": outcome}


def test_asr_counts_successes():
    rows = [_row("success")] * 45 + [_row("failure")] * 55
    assert compute_asr(rows) == 0.45


def test_asr_zero_successes():
    assert compute_asr([_row("failure")] * 9) == 0.0


def test_asr_excludes_gate_rejections():
    rows = ([_row("not_applicable")] * 3 + [_row("success")] * 4
            + [_row("failure")] * 3)
    assert compute_asr(rows) == 4 / 7


def test_asr_requires_applicable_reports():
    with pytest.raises(ValueError):
        compute_asr([])
    with pytest.raises(ValueError):
        compute_asr([_row("not_applicable")])


# ---------------------------------------------------------------------------
# Config plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        _mini_config(budgets=(10, 5))
    with pytest.raises(ValueError):
        _mini_config(budgets=(5, 5))
    with pytest.raises(ValueError):
        _mini_config(budgets=())
    with pytest.raises(ValueError):
        _mini_config(budgets=(0, 5))
    with pytest.raises(ValueError):
        _mini_config(seeds=())
    with pytest.raises(ValueError):
        _mini_config(detectors=())
    with pytest.raises(ValueError):
        _mini_config(algorithms=("pst", "gradient"))
    with pytest.raises(ValueError):
        _mini_config(sample_count=0)
    # Two detectors of one name would collapse into one model, and a repeated
    # algorithm or seed would attack every sample of its cells twice.
    with pytest.raises(ValueError, match="detector name 'a' is repeated"):
        _mini_config(detectors=(DetectorSpec(name="a"), DetectorSpec(name="a", kind="knn")))
    with pytest.raises(ValueError, match="algorithm 'pst' is repeated"):
        _mini_config(algorithms=("pst", "mab", "pst"))
    with pytest.raises(ValueError, match="seed 0 is repeated"):
        _mini_config(seeds=(0, 1, 0))


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec(name="x", kind="svm")
    with pytest.raises(ValueError):
        DetectorSpec(name="x", features="tfidf")


def test_config_round_trip():
    cfg = _mini_config(corpus_path="corpus.json",
                       detectors=(DetectorSpec(name="f", kind="forest",
                                               features="markov", train_seed=3),))
    assert config_from_dict(config_to_dict(cfg)) == cfg
    spec = cfg.detectors[0]
    assert detector_spec_from_dict(detector_spec_to_dict(spec)) == spec


def test_config_from_dict_fills_defaults():
    cfg = config_from_dict({"detectors": [{"name": "linear"}]})
    assert cfg.budgets == (10, 20, 30, 40)
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.algorithms == ("pst", "mab", "random")


def test_config_from_dict_ignores_an_old_workers_key():
    cfg = config_from_dict({"detectors": [{"name": "linear"}], "workers": 8})
    assert cfg == config_from_dict({"detectors": [{"name": "linear"}]})
    assert "workers" not in config_to_dict(cfg)


@pytest.mark.parametrize("change,message", [
    ({"seeds": "01"}, 'seeds is "01", not a list'),
    ({"budgets": "48"}, 'budgets is "48", not a list'),
    ({"algorithms": "pst"}, 'algorithms is "pst", not a list'),
    ({"detectors": {"name": "linear"}}, 'detectors is {"name": "linear"}, not a list'),
    ({"budgets": [4, 8.0]}, "budgets holds 8.0, not an integer"),
    ({"budgets": ["4"]}, 'budgets holds "4", not an integer'),
    ({"seeds": [0, True]}, "seeds holds true, not an integer"),
    ({"sample_count": True}, "sample_count is true, not an integer"),
    ({"sample_count": "5"}, 'sample_count is "5", not an integer'),
    ({"sample_count": 2.9}, "sample_count is 2.9, not an integer"),
    # Settings that are now constants, and a misspelt field, are unknown keys.
    ({"similarity_threshold": 0.5}, "config: unknown key 'similarity_threshold'"),
    ({"budget": [10]}, "config: unknown key 'budget'"),
    ({"detectors": [{"name": "linear", "cluster_count": 24}]},
     "detector: unknown key 'cluster_count'"),
    ({"detectors": [{"name": "linear", "hyperparams": {}}]},
     "detector: unknown key 'hyperparams'"),
    ({"detectors": [{"name": "linear", "train_seed": 2.9}]},
     "train_seed is 2.9, not an integer"),
    ({"detectors": [{"name": "linear", "train_seed": False}]},
     "train_seed is false, not an integer"),
    ({"detectors": [{"name": "linear", "ensemble_size": 20}]},
     "detector: unknown key 'ensemble_size'"),
    ({"detectors": [{"name": "linear", "threshold": 0.5}]},
     "detector: unknown key 'threshold'"),
    # Only a config's own old "workers" key is dropped.
    ({"detectors": [{"name": "linear", "workers": 2}]}, "detector: unknown key 'workers'"),
    # A seed numpy would refuse, and features an ensemble would ignore.
    ({"detectors": [{"name": "linear", "train_seed": -3}]},
     "train_seed is -3, not an integer >= 0"),
    ({"detectors": [{"name": "e", "kind": "ensemble", "features": "api_cluster"}]},
     "detector 'e': an ensemble's members bring their own feature spaces; "
     "leave features unset, not 'api_cluster'"),
])
def test_config_from_dict_refuses_a_field_of_the_wrong_type(change, message):
    with pytest.raises(ValueError) as exc:
        config_from_dict({"detectors": [{"name": "linear"}], **change})
    assert str(exc.value) == message


def test_run_experiment_requires_a_corpus(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(_mini_config())
    with pytest.raises(FileNotFoundError):
        run_experiment(_mini_config(corpus_path=str(tmp_path / "missing.json")))


# ---------------------------------------------------------------------------
# The runner


def test_rows_cover_full_cross_product(mini_report):
    rows = mini_report.rows
    assert len(rows) == 3 * 2 * 2 * 6  # algorithms x budgets x seeds x samples
    per_cell = {}
    for r in rows:
        per_cell.setdefault((r["algorithm"], r["budget"], r["seed"]), []).append(r)
    assert len(per_cell) == 12
    assert all(len(v) == 6 for v in per_cell.values())
    # Gate-selected true positives are never rejected at attack time.
    assert all(r["outcome"] != "not_applicable" for r in rows)
    assert all(r["queries_used"] <= r["budget"] for r in rows)


def test_same_seed_attacks_same_samples(mini_report):
    rows = mini_report.rows
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r["algorithm"], r["budget"], r["seed"]),
                           set()).add(r["sample_id"])
    ids_by_seed = {}
    for (_, _, seed), ids in by_cell.items():
        ids_by_seed.setdefault(seed, []).append(ids)
    for groups in ids_by_seed.values():
        assert all(g == groups[0] for g in groups)


def test_reruns_and_worker_counts_agree(small_corpus, mini_report):
    again = run_experiment(_mini_config(), small_corpus)
    assert _strip_wall(again.rows) == _strip_wall(mini_report.rows)


def test_asr_never_drops_with_budget(mini_report):
    by_cell = {(c["algorithm"], c["budget"], c["seed"]): c["asr"]
               for c in mini_report.cells}
    for algo in ("pst", "mab", "random"):
        for seed in (0, 1):
            assert by_cell[(algo, 10, seed)] >= by_cell[(algo, 5, seed)]


def test_aggregates_recompute_from_rows(mini_report):
    cells, grid = mini_report.cells, mini_report.grid
    assert all(cell.keys() == {"detector", "algorithm", "budget", "seed", "asr"}
               for cell in cells)
    assert all(entry.keys() == {"detector", "algorithm", "budget", "asr_mean"}
               for entry in grid)
    for cell in cells:
        assert 0.0 <= cell["asr"] <= 1.0
    assert len(grid) == 3 * 2  # algorithms x budgets
    for entry in grid:
        asrs = [c["asr"] for c in cells
                if (c["detector"], c["algorithm"], c["budget"])
                == (entry["detector"], entry["algorithm"], entry["budget"])]
        assert len(asrs) == 2  # seeds
        assert entry["asr_mean"] == sum(asrs) / len(asrs)


def test_true_positive_pool_shortfall_is_an_error(small_corpus):
    with pytest.raises(ValueError, match="true positives"):
        run_experiment(_mini_config(sample_count=100), small_corpus)


def test_a_config_that_cannot_run_fails_before_any_attack(small_corpus, monkeypatch):
    # "silent" fires on no app, so it has no true positives; the detector
    # before it has them, and no attack on it runs either.
    trained = harness.train_detector

    def training(spec, corpus):
        model = trained(spec, corpus)
        if spec.name != "silent":
            return model
        return DetectorModel(kind="linear", space=model.space,
                             params={"w": np.zeros(model.space.width), "b": -40.0})

    calls = []
    monkeypatch.setattr(harness, "train_detector", training)
    monkeypatch.setattr(harness, "run_attack", lambda *args: calls.append(args))
    config = _mini_config(detectors=(DetectorSpec(name="linear"), DetectorSpec(name="silent")))
    with pytest.raises(ValueError, match="^detector 'silent' yielded only 0 true positives"):
        run_experiment(config, small_corpus)
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# Budget-prefix rows: one attack at the largest budget gives every budget's row


def _per_budget_attacks(config, corpus):
    """The grid the slow way: a separate attack for every budget. Its rows, and
    each attack's report by (detector, algorithm, seed, sample_id, budget)."""
    _, test_apks = corpus.train_test_split()
    pset = build_perturbation_set(load_default_catalog(), corpus.donors)
    malicious = [a for a in test_apks if a.ground_truth == "malicious"]
    rows, reports = [], {}
    for spec in config.detectors:
        model = train_detector(spec, corpus)
        for master in config.seeds:
            for apk in select_true_positives(model, malicious, config.sample_count,
                                             master, spec.name):
                for algo in config.algorithms:
                    for budget in config.budgets:
                        cfg = AttackConfig(budget=budget, algorithm=algo,
                                           seed=derive_seed(master, apk.id))
                        report = run_attack(Oracle(model), apk, pset, cfg)
                        reports[spec.name, algo, master, apk.id, budget] = report
                        rows.append({
                            "sample_id": apk.id, "detector": spec.name,
                            "algorithm": algo, "budget": budget, "seed": master,
                            "outcome": report.outcome,
                            "queries_used": report.queries_used})
    rows.sort(key=lambda r: (r["detector"], r["algorithm"], r["budget"],
                             r["seed"], r["sample_id"]))
    return rows, reports


def test_derived_rows_equal_one_attack_per_budget(small_corpus, mini_report):
    assert _strip_wall(mini_report.rows) == _per_budget_attacks(_mini_config(),
                                                                small_corpus)[0]


def test_each_detail_is_the_largest_budget_attack_and_every_budget_saw_its_prefix(
        small_corpus, mini_report):
    config = _mini_config()
    _, reports = _per_budget_attacks(config, small_corpus)
    keys = [detail[:4] for detail in mini_report.details]
    # One detail per (detector, algorithm, seed, sample_id), sorted by them.
    assert keys == sorted({(r["detector"], r["algorithm"], r["seed"], r["sample_id"])
                           for r in mini_report.rows})
    for *key, applied, trace, reason in mini_report.details:
        largest = reports[(*key, config.budgets[-1])]
        assert (applied, trace, reason) == (largest.applied, largest.confidence_trace,
                                            largest.failure_reason)
        for budget in config.budgets:
            report = reports[(*key, budget)]
            assert trace[:len(report.confidence_trace)] == report.confidence_trace
            assert applied[:len(report.applied)] == report.applied


def test_derived_rows_equal_one_attack_per_budget_on_determinism_config():
    # The acceptance bench-determinism setting.
    corpus = generate_corpus(CorpusSpec(n_benign=80, n_malicious=80,
                                        donor_count=30, seed=23))
    config = _mini_config(budgets=(5, 10), sample_count=10, seeds=(0,))
    derived = _strip_wall(run_experiment(config, corpus).rows)
    assert len(derived) == 60
    assert derived == _per_budget_attacks(config, corpus)[0]


def test_grid_attacks_once_per_sample_at_the_largest_budget(small_corpus, monkeypatch):
    calls, reports = [], {}

    def counting(oracle, apk, pset, config):
        calls.append((id(oracle.model), config.budget))
        report = run_attack(oracle, apk, pset, config)
        reports[id(report.confidence_trace)] = report
        return report

    monkeypatch.setattr(harness, "run_attack", counting)
    config = _mini_config(detectors=(DetectorSpec(name="a"),
                                     DetectorSpec(name="b", train_seed=1)))
    report = run_experiment(config, small_corpus)
    per_detector = 3 * 2 * 6  # algorithms x seeds x samples
    assert sorted(Counter(model for model, _ in calls).values()) == [per_detector] * 2
    assert {budget for _, budget in calls} == {10}
    assert len(report.rows) == 2 * per_detector * 2  # ... x detectors x budgets
    # Each detail holds its attack's own tuples, not copies; the report that
    # holds the adversarial app is not kept.
    assert len(report.details) == 2 * per_detector
    for *_, applied, trace, reason in report.details:
        assert reports[id(trace)].applied is applied
        assert reports[id(trace)].failure_reason == reason


BRANCH_BUDGETS = (12, 21, 25, 40)
# (algorithm, seed, target, the largest-budget report's (outcome, queries_used,
# failure_reason)) covering every derivation branch.
BRANCH_CASES = {
    "gate_rejects": ("pst", 0, "benign", ("not_applicable", 0, None)),
    "success_before_smallest_budget": ("pst", 2, "plain", ("success", 11, None)),
    "success_between_budgets": ("pst", 0, "plain", ("success", 20, None)),
    "mab_success_between_budgets": ("mab", 7, "plain", ("success", 19, None)),
    "random_success_between_budgets": ("random", 0, "plain", ("success", 16, None)),
    # The tree has 21 leaves: it depletes exactly at budget 21, and before the
    # smaller-than-largest budget 25.
    "tree_depleted_at_and_before_a_budget": ("pst", 0, "hardened",
                                             ("failure", 21, "tree_depleted")),
    "budget_exhausted": ("mab", 0, "hardened", ("failure", 40, "budget_exhausted")),
}


def _branch_target(kind):
    if kind == "benign":  # ten permissions: ContentOracle answers benign at once
        return build_apk(perms=[(f"p{i}", "normal") for i in range(10)])
    return build_apk(perms=[(HARDENED, "signature")] if kind == "hardened" else [])


# "free": the gate query does not count against the budget.
@pytest.mark.parametrize("case", sorted(BRANCH_CASES), ids=lambda case: f"{case}-free")
def test_budget_rows_equal_one_attack_per_budget(case):
    algorithm, seed, kind, expected = BRANCH_CASES[case]
    target, pset = _branch_target(kind), small_pset()

    def attack(budget):
        config = AttackConfig(budget=budget, algorithm=algorithm, seed=seed)
        return run_attack(ContentOracle(), target, pset, config)

    report = attack(BRANCH_BUDGETS[-1])
    assert (report.outcome, report.queries_used, report.failure_reason) == expected
    derived = budget_rows(report, BRANCH_BUDGETS)
    reference = [attack(b) for b in BRANCH_BUDGETS]
    assert [row[:3] for row in derived] == [
        (b, r.outcome, r.queries_used) for b, r in zip(BRANCH_BUDGETS, reference)]
    # wall_ms: the whole attack where the budget-b one ends where it did, else
    # the time of the last answer the budget-b attack saw.
    for (_, _, _, wall_ms), r in zip(derived, reference):
        if r.queries_used == report.queries_used:
            assert wall_ms == report.wall_time * 1000.0
        else:
            last = len(r.confidence_trace) - 1
            assert wall_ms == report.elapsed_trace[last] * 1000.0


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_elapsed_trace_times_every_answer(case):
    algorithm, seed, kind, _ = BRANCH_CASES[case]
    config = AttackConfig(budget=BRANCH_BUDGETS[-1], algorithm=algorithm, seed=seed)
    report = run_attack(ContentOracle(), _branch_target(kind), small_pset(), config)
    elapsed = report.elapsed_trace
    assert len(elapsed) == len(report.confidence_trace)
    assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))
    assert 0.0 <= elapsed[0] and elapsed[-1] <= report.wall_time
    walls = [row[3] for row in budget_rows(report, BRANCH_BUDGETS)]
    assert walls[-1] == report.wall_time * 1000.0
    assert all(0.0 <= w <= walls[-1] for w in walls)


def test_derived_wall_times_stay_within_the_largest_budget_row(mini_report):
    largest = {(r["algorithm"], r["seed"], r["sample_id"]): r["wall_ms"]
               for r in mini_report.rows if r["budget"] == 10}
    for r in mini_report.rows:
        assert 0.0 <= r["wall_ms"] <= largest[(r["algorithm"], r["seed"], r["sample_id"])]


# ---------------------------------------------------------------------------
# Files and presentation


def _rows_read_back(report, path):
    save_report(report, path)
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temporary file left
    doc = file_document(path, REPORT_LISTS)
    assert doc["format"] == 4 and doc["config"] == report.config
    assert doc["details"] == [dict(zip(DETAIL_KEYS, map(_json_value, detail)))
                              for detail in report.details]
    return load_rows(path)


def _json_value(value):
    return list(value) if isinstance(value, tuple) else value


def test_report_files_round_trip(mini_report, tmp_path):
    # JSON keeps every float whole, so wall_ms comes back exactly.
    back = _rows_read_back(mini_report, tmp_path / "report.json")
    assert back == mini_report.rows
    assert all(r["wall_ms"] >= 0.0 for r in back)
    assert cells_from_rows(back) == mini_report.cells
    assert grid_from_rows(back) == mini_report.grid


def test_a_report_save_that_fails_leaves_the_old_file_as_it_was(mini_report, tmp_path):
    path = tmp_path / "report.json"
    save_report(mini_report, path)
    before = path.read_bytes()
    unwritable = harness.MetricsReport(config={"corpus": object()}, rows=mini_report.rows,
                                       details=mini_report.details)
    with pytest.raises(TypeError):
        save_report(unwritable, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    missing = tmp_path / "nodir" / "report.json"
    with pytest.raises(FileNotFoundError) as exc:
        save_report(mini_report, missing)
    assert str(exc.value) == f"{missing}: No such file or directory"


def test_grid_formatting(mini_report, tmp_path):
    text = format_grid(mini_report.grid)
    assert "linear" in text
    for algo in ("pst", "mab", "random"):
        assert algo in text
    assert "N=5" in text and "N=10" in text
    back = _rows_read_back(mini_report, tmp_path / "report.json")
    assert format_grid(grid_from_rows(back)) == text


# ---------------------------------------------------------------------------
# Detector construction helpers


@pytest.mark.parametrize("features", ["binary", "markov", "api_cluster"])
def test_train_detector_feature_kinds(small_corpus, features):
    spec = DetectorSpec(name=f"lin-{features}", features=features)
    model = train_detector(spec, small_corpus)
    _, test = small_corpus.train_test_split()
    fb = model_query(model, test[0])
    assert fb.label in ("benign", "malicious")
    assert 0.0 <= fb.confidence <= 1.0


def test_default_ensemble_composition(small_corpus):
    ens = make_default_ensemble(small_corpus, seed=0, size=20)
    assert ens.kind == "ensemble"
    kinds = {}
    for m in ens.members:
        kinds[m.kind] = kinds.get(m.kind, 0) + 1
    assert kinds == {"linear": 14, "forest": 3, "knn": 2, "mlp": 1}
    assert not hasattr(ens, "space")
    spaces = {m.space.kind for m in ens.members}
    assert spaces == {"binary", "markov", "api_cluster"}


def test_default_ensemble_is_seeded(small_corpus):
    a = make_default_ensemble(small_corpus, seed=4, size=6)
    b = make_default_ensemble(small_corpus, seed=4, size=6)
    _, test = small_corpus.train_test_split()
    for apk in test[:5]:
        assert model_query(a, apk) == model_query(b, apk)
    with pytest.raises(ValueError):
        make_default_ensemble(small_corpus, size=0)
