"""Detector training, querying, and serialization."""
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from apk_builders import apk
from pst_evade.attack import AttackConfig, run_attack
from pst_evade.catalog import load_default_catalog
from pst_evade.corpus import CodeGraph
from pst_evade.detectors import (
    DetectorModel,
    FeatureSpace,
    Feedback,
    confidence_from_dense,
    ensemble_query,
    load_model,
    make_ensemble,
    model_from_dict,
    model_to_dict,
    query,
    save_model,
    train,
    vocab_hash,
)
from pst_evade.features import ApiClusterMap, FeatureVocab, cluster_vocab
from pst_evade.harness import make_default_ensemble, select_true_positives
from pst_evade.perturbset import build_perturbation_set

SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)


def _binary_space(keys=("perm:P",)):
    return FeatureSpace(kind="binary_string",
                        vocab=FeatureVocab(kind="binary_string", keys=tuple(keys)))


def _linear_model(w, b, keys=("perm:P",), threshold=0.5):
    return DetectorModel(kind="linear", space=_binary_space(keys),
                         params={"w": np.array(w, dtype=float), "b": float(b)},
                         hyperparams={}, threshold=threshold)


# ---------------------------------------------------------------------------
# Confidence arithmetic


def test_linear_confidence_is_logistic():
    model = _linear_model([1.0], 0.0)
    assert confidence_from_dense(model, np.array([1.0])) == pytest.approx(
        SIGMOID_1, abs=1e-12)
    assert confidence_from_dense(model, np.array([-1.0])) == pytest.approx(
        1.0 - SIGMOID_1, abs=1e-12)


def test_linear_query_labels_against_threshold():
    model = _linear_model([1.0], 0.0)
    fb = query(model, apk(perms=[("P", "normal")]))
    assert fb.label == "malicious"
    assert fb.confidence == pytest.approx(SIGMOID_1, abs=1e-12)
    strict = _linear_model([1.0], 0.0, threshold=0.9)
    assert query(strict, apk(perms=[("P", "normal")])).label == "benign"


def test_knn_vote_fraction():
    model = DetectorModel(
        kind="knn", space=_binary_space(),
        params={"x": np.array([[0.0], [0.2], [0.4], [5.0], [6.0]]),
                "y": np.array([1.0, 0.0, 1.0, 0.0, 0.0])},
        hyperparams={"k": 3})
    assert confidence_from_dense(model, np.array([0.1])) == pytest.approx(2 / 3)


def test_knn_ties_resolve_by_lowest_index():
    model = DetectorModel(
        kind="knn", space=_binary_space(),
        params={"x": np.array([[0.0], [2.0]]), "y": np.array([1.0, 0.0])},
        hyperparams={"k": 1})
    assert confidence_from_dense(model, np.array([1.0])) == 1.0


def test_forest_vote_fraction():
    trees = [{"leaf": True, "vote": 1}] + [{"leaf": True, "vote": 0}] * 3
    model = DetectorModel(kind="forest", space=_binary_space(),
                          params={"trees": trees}, hyperparams={})
    assert confidence_from_dense(model, np.array([0.0])) == 0.25
    assert query(model, apk(perms=[("P", "normal")])).label == "benign"


def test_forest_split_navigation():
    tree = {"leaf": False, "feature": 0, "threshold": 0.5,
            "left": {"leaf": True, "vote": 0}, "right": {"leaf": True, "vote": 1}}
    model = DetectorModel(kind="forest", space=_binary_space(),
                          params={"trees": [tree]}, hyperparams={})
    assert confidence_from_dense(model, np.array([1.0])) == 1.0
    assert confidence_from_dense(model, np.array([0.0])) == 0.0


# ---------------------------------------------------------------------------
# Ensemble


def _member(always_malicious):
    return _linear_model([0.0], 40.0 if always_malicious else -40.0)


def test_ensemble_detection_fraction():
    members = [_member(True)] * 13 + [_member(False)] * 7
    fb = ensemble_query(members, apk(perms=[("P", "normal")]))
    assert fb.confidence == pytest.approx(0.65)
    assert fb.label == "malicious"


def test_ensemble_flags_on_any_member():
    members = [_member(True)] + [_member(False)] * 19
    fb = ensemble_query(members, apk(perms=[("P", "normal")]))
    assert fb.confidence == pytest.approx(0.05)
    assert fb.label == "malicious"
    quiet = ensemble_query([_member(False)] * 20, apk(perms=[("P", "normal")]))
    assert quiet.confidence == 0.0
    assert quiet.label == "benign"


def test_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        ensemble_query([], apk())
    with pytest.raises(ValueError):
        make_ensemble([])


def test_ensemble_model_queries_members():
    model = make_ensemble([_member(True), _member(False)])
    fb = query(model, apk(perms=[("P", "normal")]))
    assert fb.confidence == 0.5


def _reference_feedback(model, app):
    """One extraction per member on fresh copies of the app's components, whose
    edge families nobody has computed: the per-member path that the ensemble's
    shared extraction replaces."""
    if model.kind != "ensemble":
        fresh = replace(app, code=CodeGraph(tuple(replace(c) for c in app.code.components)))
        return query(model, fresh)
    hits = sum(_reference_feedback(m, app).label == "malicious" for m in model.members)
    conf = hits / len(model.members)
    return Feedback(label="malicious" if conf > 0 else "benign", confidence=conf)


class _CheckedOracle:
    """Answers with the ensemble's fast path and checks it, and each nested
    ensemble's answer, against the reference."""

    def __init__(self, model):
        self.model = model
        self.checked = 0

    def query(self, app):
        for nested in self.model.members:
            if nested.kind == "ensemble":
                assert query(nested, app) == _reference_feedback(nested, app)
        fb = query(self.model, app)
        assert fb == _reference_feedback(self.model, app)
        self.checked += 1
        return fb


def test_ensemble_shared_extraction_matches_per_member_queries(small_corpus):
    stock = make_default_ensemble(small_corpus, seed=0, size=20)
    spaces = {m.space for m in stock.members}
    assert len(spaces) < len(stock.members)
    # An api-cluster, a Markov, a forest and a kNN member; the first never fires
    # on these targets and the others come and go.
    nested = make_ensemble([stock.members[i] for i in (17, 15, 8, 12)])
    model = make_ensemble(stock.members + (nested,))
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    _, test = small_corpus.train_test_split()
    targets = select_true_positives(model, [a for a in test if a.ground_truth == "malicious"],
                                    3, master_seed=5, detector_name="ensemble")
    oracle = _CheckedOracle(model)
    rng = random.Random(11)
    for algorithm in ("pst", "mab", "random"):
        for target in targets:
            config = AttackConfig(budget=8, algorithm=algorithm, seed=rng.getrandbits(32))
            run_attack(oracle, target, pset, config)
    assert oracle.checked >= 60


# ---------------------------------------------------------------------------
# Training


def _separable_rows(n_per_class=12):
    """(space, x, labels): alternating malicious rows [1, 0] and benign rows [0, 1]."""
    space = _binary_space(("perm:M", "perm:B"))
    x = np.tile([[1.0, 0.0], [0.0, 1.0]], (n_per_class, 1))
    labels = ["malicious", "benign"] * n_per_class
    return space, x, labels


@pytest.mark.parametrize("kind", ["linear", "mlp", "knn", "forest"])
def test_train_learns_separable_data(kind):
    space, x, labels = _separable_rows()
    model = train(kind, space, x, labels, seed=3)
    assert model.report.f1 == 1.0
    assert model.report.on_holdout


@pytest.mark.parametrize("kind", ["linear", "mlp", "knn", "forest"])
def test_train_is_deterministic(kind):
    space, x, labels = _separable_rows()
    a = train(kind, space, x, labels, seed=3)
    b = train(kind, space, x, labels, seed=3)
    assert json.dumps(model_to_dict(a), sort_keys=True) == \
           json.dumps(model_to_dict(b), sort_keys=True)


def test_knn_stores_only_fit_portion():
    space, x, labels = _separable_rows()  # 12 per class, 3 held out per class
    model = train("knn", space, x, labels, seed=3)
    assert model.params["x"].shape[0] == 18
    assert model.report.holdout_size == 6


def test_train_rejects_bad_inputs():
    space, x, labels = _separable_rows()
    with pytest.raises(ValueError):
        train("linear", space, np.empty((0, 2)), [])
    with pytest.raises(ValueError):
        train("linear", space, x, ["malicious"] * len(x))
    with pytest.raises(ValueError):
        train("linear", space, x, labels[:-1])
    with pytest.raises(ValueError):
        train("ensemble", space, x, labels)
    with pytest.raises(ValueError):
        train("oracle", space, x, labels)
    with pytest.raises(ValueError):
        train("knn", space, x, labels, hyperparams={"k": 4})
    with pytest.raises(ValueError):
        train("knn", space, x, labels, hyperparams={"k": 999})


def test_train_rejects_rows_narrower_or_wider_than_the_vocab():
    space, x, labels = _separable_rows()
    for width in (1, 3):
        with pytest.raises(ValueError, match="do not match the 2-key binary_string") as err:
            train("linear", space, np.zeros((len(x), width)), labels)
        assert "\n" not in str(err.value)


def _hand_corpus():
    malicious = [apk(apk_id=f"m{i}", ground_truth="malicious",
                     perms=[("M", "normal")], features=["android.hardware.wifi"])
                 for i in range(3)]
    benign = [apk(apk_id=f"b{i}", ground_truth="benign",
                  perms=[("B", "normal")], features=["android.hardware.wifi"])
              for i in range(3)]
    return malicious + benign


def test_train_and_query_end_to_end():
    from pst_evade.features import build_vocab
    apps = _hand_corpus()
    space = FeatureSpace(kind="binary_string", vocab=build_vocab(apps))
    x = np.stack([space.extract(a) for a in apps])
    labels = [a.ground_truth for a in apps]
    model = train("linear", space, x, labels, seed=1)
    # Too few per class for a holdout; the report falls back to the fit set.
    assert not model.report.on_holdout
    probe = apk(apk_id="probe", perms=[("M", "normal")])
    assert query(model, probe).label == "malicious"
    assert query(model, apk(apk_id="probe2", perms=[("B", "normal")])).label == "benign"


def test_feature_space_requires_cluster_map():
    space = FeatureSpace(kind="api_cluster",
                         vocab=FeatureVocab(kind="api_cluster", keys=("cluster:000",)))
    with pytest.raises(ValueError):
        space.extract(apk())


# ---------------------------------------------------------------------------
# Serialization


@pytest.mark.parametrize("kind", ["linear", "mlp", "knn", "forest"])
def test_model_file_round_trip(tmp_path, kind):
    space, x, labels = _separable_rows()
    model = train(kind, space, x, labels, seed=3)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    back = load_model(path)
    probe = apk(perms=[("M", "normal")])
    assert query(back, probe).confidence == query(model, probe).confidence
    assert back.report == model.report


def test_vocab_hash_is_stable_and_sensitive():
    a = FeatureVocab(kind="binary_string", keys=("perm:P",))
    b = FeatureVocab(kind="binary_string", keys=("perm:P",))
    c = FeatureVocab(kind="binary_string", keys=("perm:Q",))
    assert vocab_hash(a) == vocab_hash(b)
    assert len(vocab_hash(a)) == 64
    assert vocab_hash(a) != vocab_hash(c)


def test_model_dict_records_vocab_hash():
    model = _linear_model([1.0], 0.0)
    doc = model_to_dict(model)
    assert doc["vocab_hash"] == vocab_hash(model.space.vocab)
    back = model_from_dict(doc)
    assert back.threshold == model.threshold
    assert back.params["b"] == model.params["b"]


def _swap_keys(vocab_doc):
    vocab_doc["keys"] = vocab_doc["keys"][::-1]


def _tampered_load(tmp_path, model, tamper, match="vocab_hash"):
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    tamper(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=match) as err:
        load_model(path)
    assert "\n" not in str(err.value)


def test_load_rejects_vocab_that_does_not_match_its_hash(tmp_path):
    # Swapped keys would otherwise score each feature with another's weight.
    model = _linear_model([1.0, -1.0], 0.0, keys=("perm:P", "perm:Q"))
    _tampered_load(tmp_path, model, lambda doc: _swap_keys(doc["vocab"]))


def test_load_rejects_ensemble_member_vocab_that_does_not_match_its_hash(tmp_path):
    model = make_ensemble([_linear_model([1.0, -1.0], 0.0, keys=("perm:P", "perm:Q")),
                           _linear_model([2.0, -2.0], 0.0, keys=("perm:R", "perm:S"))])
    save_model(model, tmp_path / "intact.json")
    assert len(load_model(tmp_path / "intact.json").members) == 2
    _tampered_load(tmp_path, model, lambda doc: _swap_keys(doc["members"][1]["vocab"]))


def _cluster_model():
    cmap = ApiClusterMap(cluster_count=2, assignment=(("api.a", 0), ("api.b", 1)))
    space = FeatureSpace(kind="api_cluster", vocab=cluster_vocab(2), cluster_map=cmap)
    return DetectorModel(kind="linear", space=space,
                         params={"w": np.array([1.0, -1.0]), "b": 0.0},
                         hyperparams={}, threshold=0.5)


def _swap_clusters(cmap_doc):
    cmap_doc["assignment"] = [[a, 1 - c] for a, c in cmap_doc["assignment"]]


def test_load_rejects_cluster_map_that_does_not_match_its_hash(tmp_path):
    # An edited assignment would otherwise score apps through the altered map.
    model = _cluster_model()
    save_model(model, tmp_path / "intact.json")
    assert load_model(tmp_path / "intact.json").space.cluster_map == model.space.cluster_map
    _tampered_load(tmp_path, model, lambda doc: _swap_clusters(doc["cluster_map"]),
                   match="cluster_map_hash")
    _tampered_load(tmp_path, model, lambda doc: doc.pop("cluster_map_hash"),
                   match="cluster_map_hash")
    ensemble = make_ensemble([_linear_model([1.0], 0.0), model])
    _tampered_load(tmp_path, ensemble,
                   lambda doc: _swap_clusters(doc["members"][1]["cluster_map"]),
                   match="cluster_map_hash")


def test_model_file_records_its_format(tmp_path):
    save_model(_linear_model([1.0], 0.0), tmp_path / "model.json")
    assert json.loads((tmp_path / "model.json").read_text())["format"] == 2


@pytest.mark.parametrize("found", [None, 1, 3])
def test_load_model_refuses_other_formats(tmp_path, found):
    path = tmp_path / "model.json"
    save_model(_linear_model([1.0], 0.0), path)
    doc = json.loads(path.read_text())
    if found is None:
        del doc["format"]  # written before model files were versioned
    else:
        doc["format"] = found
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == (f"{path}: model format {found or 1} is not supported; "
                              "retrain it with train")


def test_model_missing_a_key_is_a_one_line_value_error():
    with pytest.raises(ValueError, match="linear model: missing key 'vocab'"):
        model_from_dict({"kind": "linear"})
    doc = model_to_dict(_linear_model([1.0], 0.0))
    del doc["params"]["w"]
    with pytest.raises(ValueError, match="linear model: missing key 'w'") as err:
        model_from_dict(doc)
    assert "\n" not in str(err.value)


def test_model_file_with_legacy_tpr_still_loads():
    space, x, labels = _separable_rows()
    model = train("linear", space, x, labels, seed=3)
    doc = model_to_dict(model)
    assert "tpr" not in doc["report"]
    doc["report"]["tpr"] = doc["report"]["recall"]
    assert model_from_dict(doc).report == model.report
