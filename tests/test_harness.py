"""Experiment runner: metrics math, grid coverage, determinism, file formats."""
import json
import random

import pytest
from scipy import stats

from pst_evade.detectors import query as model_query
from pst_evade.harness import (
    DetectorSpec,
    ExperimentConfig,
    cells_from_rows,
    compute_asr,
    compute_cdf,
    config_from_dict,
    config_to_dict,
    derive_seed,
    detector_spec_from_dict,
    detector_spec_to_dict,
    format_grid,
    grid_from_rows,
    make_default_ensemble,
    metrics_to_dict,
    read_rows_csv,
    run_experiment,
    save_report,
    train_detector,
)


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


def test_cdf_counts_duplicates():
    assert compute_cdf([1, 1, 2]) == [(1.0, 2 / 3), (2.0, 1.0)]


def test_cdf_single_value():
    assert compute_cdf([4.5]) == [(4.5, 1.0)]


def test_cdf_rejects_empty():
    with pytest.raises(ValueError):
        compute_cdf([])


def test_cdf_is_nondecreasing_and_ends_at_one():
    rng = random.Random(3)
    values = [rng.randint(0, 30) for _ in range(500)]
    cdf = compute_cdf(values)
    assert cdf[-1][1] == 1.0
    assert all(a[1] < b[1] and a[0] < b[0] for a, b in zip(cdf, cdf[1:]))
    # Spot-check fractions against direct counting.
    for x, frac in cdf:
        assert frac == sum(1 for v in values if v <= x) / len(values)


def test_cdf_of_uniform_draws_passes_ks():
    rng = random.Random(11)
    draws = [rng.random() for _ in range(100)]
    assert stats.kstest(draws, "uniform").pvalue > 0.01


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


def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec(name="x", kind="svm")
    with pytest.raises(ValueError):
        DetectorSpec(name="x", features="tfidf")


def test_config_round_trip():
    cfg = _mini_config(corpus_path="corpus.json",
                       detectors=(DetectorSpec(name="f", kind="forest",
                                               features="markov",
                                               hyperparams={"trees": 8}),))
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
    assert tuple(cells_from_rows(mini_report.rows)) == mini_report.cells
    assert tuple(grid_from_rows(mini_report.rows)) == mini_report.grid
    for cell in mini_report.cells:
        assert 0.0 <= cell["asr"] <= 1.0
    for entry in mini_report.grid:
        seeds = entry["asr_by_seed"]
        assert entry["asr_mean"] == sum(seeds.values()) / len(seeds)
        if entry["qt_cdf"] is not None:
            assert entry["qt_cdf"][-1][1] == 1.0


def test_true_positive_pool_shortfall_is_an_error(small_corpus):
    with pytest.raises(ValueError, match="true positives"):
        run_experiment(_mini_config(sample_count=100), small_corpus)


# ---------------------------------------------------------------------------
# Files and presentation


def test_report_files_round_trip(mini_report, tmp_path):
    json_path, csv_path = save_report(mini_report, tmp_path / "out")
    back = read_rows_csv(csv_path)
    assert _strip_wall(back) == _strip_wall(mini_report.rows)
    assert all(r["wall_ms"] >= 0.0 for r in back)
    loaded = json.loads(json_path.read_text())
    assert loaded["row_count"] == len(mini_report.rows)
    assert loaded["cells"] == list(mini_report.cells)


def test_csv_header_is_checked(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("sample,detector\nx,y\n")
    with pytest.raises(ValueError):
        read_rows_csv(bad)


def test_grid_formatting(mini_report):
    text = format_grid(metrics_to_dict(mini_report))
    assert "linear" in text
    for algo in ("pst", "mab", "random"):
        assert algo in text
    assert "N=5" in text and "N=10" in text


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
    spaces = {m.space.kind for m in ens.members}
    assert spaces == {"binary_string", "markov_family", "api_cluster"}


def test_default_ensemble_is_seeded(small_corpus):
    a = make_default_ensemble(small_corpus, seed=4, size=6)
    b = make_default_ensemble(small_corpus, seed=4, size=6)
    _, test = small_corpus.train_test_split()
    for apk in test[:5]:
        assert model_query(a, apk) == model_query(b, apk)
    with pytest.raises(ValueError):
        make_default_ensemble(small_corpus, size=0)
