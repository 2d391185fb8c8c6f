"""Detector training, querying, and serialization."""
import base64
import hashlib
import json
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from apk_builders import MODEL_LISTS, apk, file_document, saved_document, write_file
from pst_evade import detectors
from pst_evade.attack import AttackConfig, Oracle, run_attack
from pst_evade.catalog import load_default_catalog, pack_array
from pst_evade.detectors import (
    MODEL_FORMAT,
    DetectorModel,
    Ensemble,
    FeatureSpace,
    Feedback,
    _build_tree,
    _ForestBlock,
    _KnnBlock,
    _nearest_vote,
    _scalar_sigmoid,
    _scorer_to_dict,
    _sigmoid,
    block_states,
    confidence_from_dense,
    load_model,
    query,
    save_model,
    score,
    space_from_dict,
    space_to_dict,
    train,
)
from pst_evade.corpus import API_FAMILY_COUNT
from pst_evade.features import CLUSTER_COUNT
from pst_evade.harness import make_default_ensemble, select_true_positives
from pst_evade.perturbset import build_perturbation_set

SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)


def _binary_space(keys=("perm:P",)):
    return FeatureSpace("binary", keys=tuple(keys))


def _linear_model(w, b, keys=("perm:P",)):
    return DetectorModel(kind="linear", space=_binary_space(keys),
                         params={"w": np.array(w, dtype=float), "b": float(b)})


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
    assert query(model, apk()).label == "malicious"  # confidence exactly 0.5
    assert query(_linear_model([1.0], -1e-9), apk()).label == "benign"


def test_scalar_sigmoid_equals_array_sigmoid_bit_for_bit():
    rng = np.random.default_rng(4)
    edges = [v for e in (40.0, -40.0) for v in (e, np.nextafter(e, 0.0), np.nextafter(e, 2 * e))]
    zs = np.concatenate([rng.normal(0.0, 1.0, 50_000), rng.normal(0.0, 30.0, 50_000),
                         edges, [1e308, -1e308, np.inf, -np.inf, np.nan, -0.0, 0.0]])
    scalar = np.array([_scalar_sigmoid(float(z)) for z in zs])
    assert scalar.tobytes() == _sigmoid(zs).tobytes()


def test_knn_vote_fraction():
    model = DetectorModel(
        kind="knn", space=_binary_space(),
        params={"x": np.array([[0.0], [0.2], [0.4], [5.0], [6.0]]),
                "y": np.array([1.0, 0.0, 1.0, 0.0, 0.0])})
    assert confidence_from_dense(model, np.array([0.1])) == pytest.approx(2 / 3)


def test_knn_ties_resolve_by_lowest_index(monkeypatch):
    monkeypatch.setattr(detectors, "KNN_K", 1)
    model = DetectorModel(
        kind="knn", space=_binary_space(),
        params={"x": np.array([[0.0], [2.0]]), "y": np.array([1.0, 0.0])})
    assert confidence_from_dense(model, np.array([1.0])) == 1.0


def test_forest_vote_fraction():
    trees = [{"leaf": True, "vote": 1}] + [{"leaf": True, "vote": 0}] * 3
    model = DetectorModel(kind="forest", space=_binary_space(),
                          params={"trees": trees})
    assert confidence_from_dense(model, np.array([0.0])) == 0.25
    assert query(model, apk(perms=[("P", "normal")])).label == "benign"


def test_forest_split_navigation():
    tree = {"leaf": False, "feature": 0, "threshold": 0.5,
            "left": {"leaf": True, "vote": 0}, "right": {"leaf": True, "vote": 1}}
    model = DetectorModel(kind="forest", space=_binary_space(),
                          params={"trees": [tree]})
    assert confidence_from_dense(model, np.array([1.0])) == 1.0
    assert confidence_from_dense(model, np.array([0.0])) == 0.0


# ---------------------------------------------------------------------------
# Scoring kernels against their reference expressions


def _reference_knn(model, x):
    """The difference form plus lexsort: the kNN kernel's reference. A test
    that sets ``detectors.KNN_K`` keeps it set while it builds and checks."""
    train_x, train_y = model.params["x"], model.params["y"]
    d2 = np.sum(np.square(train_x - x), axis=1)
    order = np.lexsort((np.arange(len(d2)), d2))[:detectors.KNN_K]
    return float(train_y[order].mean())


def _reference_tree_vote(tree, x):
    node = tree
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return int(node["vote"])


def _reference_forest(model, x):
    """A dict-tree walk per tree: the forest kernel's reference."""
    return float(np.mean([_reference_tree_vote(t, x) for t in model.params["trees"]]))


_REFERENCE = {"knn": _reference_knn, "forest": _reference_forest}


def _space_of_width(kind, width):
    """A binary space of ``width`` keys, or the api_cluster space."""
    if kind == "binary":
        return _binary_space(tuple(f"k{i}" for i in range(width)))
    return FeatureSpace("api_cluster",
                        cluster_map={f"api.{i}": i for i in range(CLUSTER_COUNT)})


def _flip(rng, row):
    """0/1 ``row`` with one to three of its columns flipped."""
    out = row.copy()
    cols = rng.choice(len(row), size=int(rng.integers(1, 4)), replace=False)
    out[cols] = 1.0 - out[cols]
    return out


def _random_0_1(rng, shape, density):
    return (rng.random(shape) < density).astype(float)


@pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 526])
def test_knn_hamming_distances_equal_the_difference_form_across_word_boundaries(monkeypatch,
                                                                                width):
    # Widths on both sides of a 64-bit word and the stock binary width. Sparse
    # rows keep many equal distances even at 526 columns.
    seen = []
    nearest_vote = detectors._nearest_vote
    monkeypatch.setattr(detectors, "_nearest_vote",
                        lambda d2, y, k: seen.append(d2) or nearest_vote(d2, y, k))
    rng = np.random.default_rng(width)
    boundary_ties = 0
    for _ in range(30):
        rows = int(rng.integers(1, 40))
        k = int(rng.choice([k for k in (1, 3, 5, 7) if k <= rows]))
        monkeypatch.setattr(detectors, "KNN_K", k)
        density = float(rng.choice([0.02, 0.1, 0.5]))
        model = DetectorModel(kind="knn", space=_space_of_width("binary", width), params={
            "x": _random_0_1(rng, (rows, width), density),
            "y": rng.integers(0, 2, rows).astype(float)})
        assert model.blocks[0].words is not None
        for x in _random_0_1(rng, (16, width), density):
            assert confidence_from_dense(model, x) == _reference_knn(model, x)
            d2 = np.sum(np.square(model.params["x"] - x), axis=1)
            assert np.array_equal(seen.pop(), d2)
            d2 = np.sort(d2)
            boundary_ties += k < rows and d2[k - 1] == d2[k]
    assert boundary_ties > 100


def test_knn_hamming_kernel_answers_rows_not_0_1_by_the_difference_form():
    rng = np.random.default_rng(2)
    model = DetectorModel(kind="knn", space=_space_of_width("binary", 70),
                          params={"x": _random_0_1(rng, (20, 70), 0.3),
                                  "y": rng.integers(0, 2, 20).astype(float)})
    block = model.blocks[0]
    assert block.words is not None
    x = _random_0_1(rng, 70, 0.3)
    for col, value in ((0, 0.5), (3, -0.25), (65, np.nan), (2, np.inf), (69, -np.inf),
                       (4, 2.0), (1, -1.0), (5, -0.0), (6, 1.0)):
        other = x.copy()
        other[col] = value
        with np.errstate(invalid="ignore"):
            assert confidence_from_dense(model, other) == _reference_knn(model, other)
            # Hamming distances are intp counts, the difference form's float64;
            # -0.0 is a 0 and keeps the Hamming distance.
            distances = block.state(other)
        assert distances.dtype == (np.intp if value in (0.0, 1.0) else np.float64)


@pytest.mark.parametrize("space_kind", ["binary", "api_cluster", "markov"])
def test_knn_kernel_is_chosen_by_the_fit_rows(monkeypatch, space_kind):
    # Only 0/1 fit rows are packed into words; any others leave the block on
    # the difference form for every row.
    monkeypatch.setattr(detectors, "KNN_K", 5)
    rng = np.random.default_rng(9)
    space = FeatureSpace("markov") if space_kind == "markov" else _space_of_width(space_kind, 24)
    shape = (30, space.width)
    zero_one = _random_0_1(rng, shape, 0.2)
    integers = rng.integers(-3, 5, shape).astype(float)
    markov = rng.random(shape)
    markov /= markov.sum(axis=1, keepdims=True)  # fractional rows, as Markov rows are
    for fit in (zero_one, integers, markov):
        model = DetectorModel(kind="knn", space=space,
                              params={"x": fit, "y": rng.integers(0, 2, 30).astype(float)})
        block = model.blocks[0]
        assert (block.words is not None) == (fit is zero_one)
        for x in np.concatenate([zero_one[:4], integers[:4], markov[:4]]):
            assert confidence_from_dense(model, x) == _reference_knn(model, x)
            hamming = fit is zero_one and np.isin(x, (0.0, 1.0)).all()
            assert block.state(x).dtype == (np.intp if hamming else np.float64)


def test_nearest_vote_equals_a_full_lexsort_with_ties_and_non_finite_distances():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, n + 1))
        d2 = rng.choice([0.0, 1.0, 2.0, 2.5, 7.0, np.inf, np.nan], n,
                        p=[0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1])
        y = rng.integers(0, 2, n).astype(float)
        order = np.lexsort((np.arange(n), d2))[:k]
        assert _nearest_vote(d2, y, k) == float(y[order].mean())


def test_knn_answer_of_a_row_does_not_depend_on_the_row_before(monkeypatch):
    monkeypatch.setattr(detectors, "KNN_K", 5)
    rng = np.random.default_rng(21)
    params = {"x": _random_0_1(rng, (25, 70), 0.2), "y": rng.integers(0, 2, 25).astype(float)}
    base = _random_0_1(rng, 70, 0.2)
    rows = [base] + [_flip(rng, base) for _ in range(12)]
    rows += [np.where(base == 1, 0.5, base), np.full(70, np.nan)]
    model = DetectorModel(kind="knn", space=_space_of_width("binary", 70), params=params)
    for x in rows:
        alone = DetectorModel(kind="knn", space=_space_of_width("binary", 70), params=params)
        answer = confidence_from_dense(alone, x)
        assert answer == _reference_knn(model, x)
        for before in rows:
            confidence_from_dense(model, before)
            assert confidence_from_dense(model, x) == answer


def _held_matrices(block):
    """The 2-D arrays a kNN block holds, its members' fit rows among them."""
    held = [*vars(block).values(), *(a for fit in block.fits for a in fit)]
    return [a for a in held if isinstance(a, np.ndarray) and a.ndim == 2]


def test_knn_block_holds_its_0_1_fit_rows_once_as_uint8(stock_ensemble):
    model = train("knn", *_separable_rows(), seed=3)
    by_hand = DetectorModel(kind="knn", space=_binary_space(("a", "b")),
                            params={"x": np.array([[0, 1], [1, 0], [1, 1]]),
                                    "y": np.array([0.0, 1.0, 1.0])})
    knn = [m for m in stock_ensemble.members if m.kind == "knn"]
    (joined,) = [b for b in stock_ensemble.blocks if isinstance(b, _KnnBlock)]
    for block, members in ((model.blocks[0], [model]), (by_hand.blocks[0], [by_hand]),
                           (joined, knn)):
        block.flips  # built on first use: an int8 (columns x fit rows) matrix
        assert block.words is not None
        assert all(m.params["x"].dtype == np.uint8 for m in members)
        # The fit rows are the members' own params["x"], and no other matrix of
        # their shape or of float64 is held.
        shapes = {m.params["x"].shape for m in members}
        assert [id(a) for a in _held_matrices(block) if a.shape in shapes] == [
            id(m.params["x"]) for m in members]
        assert [a for a in _held_matrices(block) if a.dtype == np.float64] == []


def test_knn_block_keeps_fractional_fit_rows_as_float64():
    x = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    model = DetectorModel(kind="knn", space=_binary_space(("a", "b")),
                          params={"x": x, "y": np.array([0.0, 1.0, 1.0])})
    assert model.blocks[0].words is None
    assert model.params["x"] is x
    assert [a is x for a in _held_matrices(model.blocks[0])] == [True]


def _bits(a):
    """``a``'s float64 values as bits: -0.0 is not 0.0, and NaN equals NaN."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_difference_form_at_uint8_fit_rows_answers_as_at_float64_ones():
    rng = np.random.default_rng(5)
    fit = _random_0_1(rng, (30, 70), 0.3)
    y = rng.integers(0, 2, 30).astype(float)
    model = DetectorModel(kind="knn", space=_space_of_width("binary", 70),
                          params={"x": fit.copy(), "y": y})
    narrow = model.blocks[0]
    assert model.params["x"].dtype == np.uint8
    # The same block over the float64 rows, as it was built before narrowing.
    wide = _KnnBlock(narrow.space, [(fit, y, detectors.KNN_K)], narrow.words)
    base = _random_0_1(rng, 70, 0.3)
    for value in (0.5, 2.0, np.nan, np.inf, -np.inf):
        for cols in ([3], [0, 40, 69], list(range(70))):
            x = base.copy()
            x[cols] = value
            got, want = narrow.state(x), wide.state(x)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(_bits(got), _bits(want))
            assert narrow.confidences(got) == wide.confidences(want)


def _random_tree(rng, width, depth):
    if depth == 0 or rng.random() < 0.2:
        return {"leaf": True, "vote": int(rng.integers(0, 2))}
    return {"leaf": False, "feature": int(rng.integers(0, width)),
            "threshold": float(rng.choice([0.5, rng.random()])),
            "left": _random_tree(rng, width, depth - 1),
            "right": _random_tree(rng, width, depth - 1)}


def test_forest_kernel_matches_dict_tree_walk_on_random_trees():
    rng = np.random.default_rng(8)
    for _ in range(30):
        width = int(rng.integers(1, 9))
        trees = [_random_tree(rng, width, int(rng.integers(0, 7)))
                 for _ in range(int(rng.integers(1, 12)))]
        model = DetectorModel(kind="forest", params={"trees": trees},
                              space=_binary_space(tuple(f"k{i}" for i in range(width))))
        # 0/1 rows, rows at the common 0.5 threshold, and rows of random reals.
        queries = np.concatenate([rng.integers(0, 2, (12, width)).astype(float),
                                  rng.choice([0.0, 0.5, 1.0], (12, width)),
                                  rng.random((12, width))])
        queries[::5, 0] = np.nan
        for x in queries:
            assert confidence_from_dense(model, x) == _reference_forest(model, x)


def test_forest_routes_nan_features_right_as_before():
    # x[f] <= threshold is False for NaN, so a NaN takes the right branch.
    tree = {"leaf": False, "feature": 1, "threshold": 0.5,
            "left": {"leaf": True, "vote": 1},
            "right": {"leaf": False, "feature": 0, "threshold": 0.5,
                      "left": {"leaf": True, "vote": 0}, "right": {"leaf": True, "vote": 1}}}
    model = DetectorModel(kind="forest", space=_binary_space(("perm:P", "perm:Q")),
                          params={"trees": [tree, {"leaf": True, "vote": 1}]})
    assert confidence_from_dense(model, np.array([0.0, np.nan])) == 0.5
    assert confidence_from_dense(model, np.array([np.nan, np.nan])) == 1.0
    assert confidence_from_dense(model, np.array([np.nan, 0.0])) == 1.0


# ---------------------------------------------------------------------------
# Ensemble


def _member(always_malicious):
    return _linear_model([0.0], 40.0 if always_malicious else -40.0)


def test_ensemble_detection_fraction():
    members = [_member(True)] * 13 + [_member(False)] * 7
    fb = query(Ensemble(members), apk(perms=[("P", "normal")]))
    assert fb.confidence == pytest.approx(0.65)
    assert fb.label == "malicious"


def test_ensemble_flags_on_any_member():
    members = [_member(True)] + [_member(False)] * 19
    fb = query(Ensemble(members), apk(perms=[("P", "normal")]))
    assert fb.confidence == pytest.approx(0.05)
    assert fb.label == "malicious"
    quiet = query(Ensemble([_member(False)] * 20), apk(perms=[("P", "normal")]))
    assert quiet.confidence == 0.0
    assert quiet.label == "benign"


def test_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        Ensemble([])


def test_ensemble_without_members_is_refused_at_load(tmp_path):
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as err:
        _load_doc(path, {"format": MODEL_FORMAT, "kind": "ensemble", "members": []})
    assert str(err.value) == f"{path}: ensemble model: has no members"


def test_models_compare_and_hash_by_identity():
    # Two scorers with equal multi-weight params: comparing their numpy arrays
    # would raise, so models are equal only to themselves.
    a, b = (_linear_model([1.0, 2.0], 0.5, keys=("perm:P", "perm:Q")) for _ in range(2))
    assert a == a and a != b
    assert Ensemble([a]) == Ensemble([a]) and Ensemble([a]) != Ensemble([b])
    assert len({a, b, Ensemble([a]), Ensemble([a]), Ensemble([b])}) == 4


def test_ensemble_model_queries_members():
    model = Ensemble([_member(True), _member(False)])
    fb = query(model, apk(perms=[("P", "normal")]))
    assert fb.confidence == 0.5


def _reference_feedback(model, app):
    """One extraction per member on fresh copies of the app's components, whose
    edge families nobody has computed: the per-member path that the ensemble's
    shared extraction replaces."""
    if model.kind != "ensemble":
        fresh = replace(app, components=tuple(replace(c) for c in app.components))
        return query(model, fresh)
    hits = sum(_reference_feedback(m, app).label == "malicious" for m in model.members)
    conf = hits / len(model.members)
    return Feedback(label="malicious" if conf > 0 else "benign", confidence=conf)


class _CheckedOracle:
    """Answers with the ensemble's fast path and checks it against the reference."""

    def __init__(self, model):
        self.model = model
        self.checked = 0

    def query(self, app):
        fb = query(self.model, app)
        assert fb == _reference_feedback(self.model, app)
        self.checked += 1
        return fb


@pytest.fixture(scope="module")
def stock_ensemble(small_corpus):
    return make_default_ensemble(small_corpus, seed=0, size=20)


def test_ensemble_shared_extraction_matches_per_member_queries(small_corpus, stock_ensemble):
    model = stock_ensemble
    spaces = {m.space for m in model.members}
    assert len(spaces) < len(model.members)
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


def _block_members(model, block):
    """The members that ``block``, one of the model's blocks, scores, in order."""
    members = model.members if isinstance(model, Ensemble) else (model,)
    return [m for m in members if m.blocks and m.blocks[0].group == block.group]


def _reference_confidences(model, block, x):
    return [_REFERENCE[m.kind](m, x) for m in _block_members(model, block)]


class _KernelCheckingOracle:
    """Answers with the ensemble and checks each of its blocks, and each kNN and
    forest member's block of one, against the members' references on the
    queried app."""

    def __init__(self, model):
        self.model = model
        self.checked = {"knn": 0, "forest": 0}

    def query(self, app):
        for block in self.model.blocks:
            x = block.space.extract(app)
            want = _reference_confidences(self.model, block, x)
            assert block.confidences(block.state(x)) == want
            members = _block_members(self.model, block)
            assert [confidence_from_dense(m, x) for m in members] == want
            for m in members:
                self.checked[m.kind] += 1
        return query(self.model, app)


def test_kernels_match_references_on_every_attack_query(small_corpus, stock_ensemble):
    # Each forest and kNN member is scored in one block, a kNN block with its
    # 0/1 fit rows packed.
    blocks = stock_ensemble.blocks
    assert sum(len(_block_members(stock_ensemble, b)) for b in blocks) == 5
    assert all(b.words is not None for b in blocks if isinstance(b, _KnnBlock))
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    _, test = small_corpus.train_test_split()
    targets = select_true_positives(stock_ensemble,
                                    [a for a in test if a.ground_truth == "malicious"],
                                    4, master_seed=9, detector_name="ensemble")
    oracle = _KernelCheckingOracle(stock_ensemble)
    rng = random.Random(23)
    for algorithm in ("pst", "mab", "random"):
        for target in targets:
            config = AttackConfig(budget=8, algorithm=algorithm, seed=rng.getrandbits(32))
            run_attack(oracle, target, pset, config)
    # Two kNN and three forest members answer every query.
    assert oracle.checked["knn"] >= 2 * 80
    assert oracle.checked["forest"] >= 3 * 80


def test_blocks_answer_as_their_members_alone_on_random_members(monkeypatch):
    # Forests of different tree counts and depths, kNN members of different
    # fit-row counts, and one kNN member whose fit rows are not 0/1, which
    # takes a block of its own; rows 0/1 and not.
    monkeypatch.setattr(detectors, "KNN_K", 3)
    rng = np.random.default_rng(31)
    for _ in range(12):
        width = int(rng.integers(1, 90))
        space = _space_of_width("binary", width)
        forests = [DetectorModel(kind="forest", space=space, params={"trees": [
            _random_tree(rng, width, int(rng.integers(0, 7)))
            for _ in range(int(rng.integers(1, 12)))]}) for _ in range(int(rng.integers(1, 4)))]
        knns = [DetectorModel(kind="knn", space=space, params={
            "x": _random_0_1(rng, (rows, width), float(rng.choice([0.05, 0.3]))),
            "y": rng.integers(0, 2, rows).astype(float)})
            for rows in rng.integers(3, 40, int(rng.integers(1, 4)))]
        integers = rng.integers(0, 3, (5, width)).astype(float)
        integers[0, 0] = 2.0
        knns.append(DetectorModel(kind="knn", space=space, params={
            "x": integers, "y": rng.integers(0, 2, 5).astype(float)}))
        linear = _linear_model(rng.normal(size=width), 0.0, space.keys)
        model = Ensemble([knns[0], linear, *forests, *knns[1:]])
        assert len(model.blocks) == 3
        xs = np.concatenate([_random_0_1(rng, (8, width), 0.3),
                             rng.choice([0.0, 0.5, 1.0, 2.0, np.nan], (8, width))])
        for x in xs:
            with np.errstate(invalid="ignore"):
                for block in model.blocks:
                    assert block.confidences(block.state(x)) == _reference_confidences(
                        model, block, x)
                hits = sum(conf >= detectors.THRESHOLD for conf in
                           [confidence_from_dense(linear, x)]
                           + [_REFERENCE[m.kind](m, x) for m in [*forests, *knns]])
                assert score(model, {space: x}).confidence == hits / len(model.members)


class _ReferenceCheckedOracle:
    """Answers through an ``Oracle`` and checks every answer against the
    per-member reference."""

    def __init__(self, model):
        self.model = model
        self.oracle = Oracle(model)

    def query(self, app):
        fb = self.oracle.query(app)
        assert fb == _reference_feedback(self.model, app)
        return fb


def _count_block_paths(monkeypatch, blocks):
    """Calls to the full path (``state``) and the delta path (``extended``) of
    ``blocks``, and to ``FeatureSpace.extended``, as they happen."""
    calls = {"state": 0, "extended": 0, "space_extended": 0}

    def count(cls, name, key, only=None):
        original = getattr(cls, name)

        def counted(self, *args):
            if only is None or any(self is b for b in only):
                calls[key] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)

    for cls in (_ForestBlock, _KnnBlock):
        count(cls, "state", "state", blocks)
        count(cls, "extended", "extended", blocks)
    count(FeatureSpace, "extended", "space_extended")
    return calls


def test_oracle_answers_every_extension_from_block_deltas(monkeypatch, small_corpus,
                                                          stock_ensemble):
    model = stock_ensemble
    calls = _count_block_paths(monkeypatch, model.blocks)
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    _, test = small_corpus.train_test_split()
    targets = select_true_positives(model, [a for a in test if a.ground_truth == "malicious"],
                                    4, master_seed=3, detector_name="ensemble")
    rng = random.Random(41)
    extending = 0
    for algorithm in ("pst", "mab", "random"):
        for target in targets:
            calls.update(state=0, extended=0, space_extended=0)
            run_attack(_ReferenceCheckedOracle(model), target, pset,
                       AttackConfig(budget=10, algorithm=algorithm, seed=rng.getrandbits(32)))
            # The gate is scored in full; every query that extends a
            # remembered app, which extends each space once, takes the delta
            # in each block, and none falls back to the full path.
            queries, rest = divmod(calls["space_extended"], len(model.spaces))
            assert rest == 0
            assert calls["state"] == len(model.blocks)
            assert calls["extended"] == len(model.blocks) * queries
            extending += queries
    assert extending >= 80


def test_a_column_back_to_0_or_a_row_not_0_1_takes_the_full_path(monkeypatch, small_corpus,
                                                                  stock_ensemble):
    model = stock_ensemble
    app = small_corpus.malicious[0]
    rows = {space: space.extract(app) for space in model.spaces}
    states = block_states(model, rows)
    # The kNN block's space; in it, the 0/1 row of the app.
    space = next(b.space for b in model.blocks if isinstance(b, _KnnBlock))
    x = rows[space]
    zeros, ones = np.flatnonzero(x == 0), np.flatnonzero(x == 1)
    grown = x.copy()
    grown[zeros[:3]] = 1.0
    back = grown.copy()
    back[ones[0]] = 0.0
    half = grown.copy()
    half[zeros[3]] = 0.5
    # The paths taken by the blocks in that space, a forest's and the kNN's.
    in_space = [b for b in model.blocks if b.space == space]
    assert {type(b) for b in in_space} == {_ForestBlock, _KnnBlock}
    calls = _count_block_paths(monkeypatch, in_space)
    for row, delta in ((grown, True), (x, True), (back, False), (half, False)):
        calls.update(state=0, extended=0)
        new_rows = {**rows, space: row}
        got = block_states(model, new_rows, (rows, states))
        if delta:
            assert calls == {"state": 0, "extended": len(in_space), "space_extended": 0}
        else:
            assert calls == {"state": len(in_space), "extended": 0, "space_extended": 0}
        for block in model.blocks:
            assert block.confidences(got[block]) == _reference_confidences(
                model, block, new_rows[block.space])
        assert score(model, new_rows, got) == score(model, new_rows)
    # From a base row that is not 0/1, a forest's node choices still update
    # (each reads its own column), but kNN distances are not Hamming distances.
    half_rows = {**rows, space: half}
    half_states = block_states(model, half_rows)
    more = half.copy()
    more[zeros[4]] = 1.0
    calls.update(state=0, extended=0)
    more_rows = {**rows, space: more}
    got = block_states(model, more_rows, (half_rows, half_states))
    knn = next(b for b in model.blocks if isinstance(b, _KnnBlock))
    assert got[knn].dtype == np.float64
    assert calls == {"state": 1, "extended": len(in_space), "space_extended": 0}
    for block in model.blocks:
        assert block.confidences(got[block]) == _reference_confidences(
            model, block, more_rows[block.space])


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
def test_train_is_deterministic(tmp_path, kind):
    space, x, labels = _separable_rows()
    for name in ("a.json", "b.json"):
        save_model(train(kind, space, x, labels, seed=3), tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


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
    with pytest.raises(ValueError, match="^unknown label: evil$"):
        train("linear", space, x, labels[:-1] + ["evil"])


def test_train_rejects_rows_narrower_or_wider_than_the_vocab():
    space, x, labels = _separable_rows()
    for width in (1, 3):
        with pytest.raises(ValueError, match="do not match the 2-feature binary space") as err:
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
    space = FeatureSpace("binary", keys=build_vocab(apps))
    x = np.stack([space.extract(a) for a in apps])
    labels = [a.ground_truth for a in apps]
    model = train("linear", space, x, labels, seed=1)
    # Too few per class for a holdout; the report falls back to the fit set.
    assert not model.report.on_holdout
    probe = apk(apk_id="probe", perms=[("M", "normal")])
    assert query(model, probe).label == "malicious"
    assert query(model, apk(apk_id="probe2", perms=[("B", "normal")])).label == "benign"


def test_detector_model_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown detector kind: svm$"):
        DetectorModel(kind="svm", space=_binary_space(("perm:P",)), params={})


def test_feature_space_requires_cluster_map():
    with pytest.raises(ValueError, match="api_cluster feature space needs a cluster map"):
        FeatureSpace("api_cluster")


def test_space_rejects_unknown_kind_and_bad_family_count():
    with pytest.raises(ValueError, match="unknown feature kind: texture"):
        FeatureSpace("texture")
    # A Markov space always reads the API_FAMILY_COUNT families; its doc
    # records that count, and a doc that records another is refused.
    for family_count, needle in ((0, "0, not 11"), (-1, "-1, not 11"), (12, "12, not 11"),
                                 (2.0, "2.0, not an integer")):
        with pytest.raises(ValueError, match=f"^space family_count is {re.escape(needle)}$"):
            space_from_dict({"kind": "markov", "family_count": family_count})


def test_space_width_follows_its_kind():
    cmap = {"api.a": 2}
    assert _binary_space(("perm:P", "perm:Q")).width == 2
    assert FeatureSpace("markov").width == API_FAMILY_COUNT ** 2 == 121
    assert FeatureSpace("api_cluster", cluster_map=cmap).width == CLUSTER_COUNT == 24


def test_train_refuses_non_finite_or_overflowing_rows():
    space, x, labels = _separable_rows()
    for kind in ("linear", "forest"):
        for bad in (np.nan, np.inf, -np.inf, 1e308):
            rows = x.copy()
            rows[3, 1] = bad
            with pytest.raises(ValueError) as err:
                train(kind, space, rows, labels)
            assert str(err.value) == (f"{kind} detector: feature rows hold NaN, infinite "
                                      "or out-of-range values (|v| > 8.988e+307)")


# ---------------------------------------------------------------------------
# Forest training: the sorted-column split search against a per-threshold loop


def _reference_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _reference_build_tree(x, y, idx, depth, max_depth, min_leaf, n_feats, rng):
    """Every threshold of every candidate feature tried in turn: the split
    search ``_build_tree`` must reproduce tree for tree."""
    labels = y[idx]
    pos = int(labels.sum())
    neg = len(idx) - pos
    if depth >= max_depth or len(idx) < 2 * min_leaf or pos == 0 or neg == 0:
        return {"leaf": True, "vote": 1 if pos >= neg else 0}
    feats = rng.choice(x.shape[1], size=min(n_feats, x.shape[1]), replace=False)
    feats.sort()
    best = None
    parent_gini = _reference_gini(np.array([neg, pos]))
    for f in feats:
        col = x[idx, f]
        values = np.unique(col)
        if len(values) < 2:
            continue
        thresholds = (values[:-1] + values[1:]) / 2.0
        for thr in thresholds:
            left = col <= thr
            nl = int(left.sum())
            nr = len(idx) - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            lp = int(labels[left].sum())
            rp = pos - lp
            g = (nl * _reference_gini(np.array([nl - lp, lp])) +
                 nr * _reference_gini(np.array([nr - rp, rp]))) / len(idx)
            gain = parent_gini - g
            if best is None or gain > best[0] + 1e-12:
                best = (gain, int(f), float(thr), left)
    if best is None or best[0] <= 1e-12:
        return {"leaf": True, "vote": 1 if pos >= neg else 0}
    _, f, thr, left = best
    return {
        "leaf": False, "feature": f, "threshold": thr,
        "left": _reference_build_tree(x, y, idx[left], depth + 1, max_depth, min_leaf,
                                      n_feats, rng),
        "right": _reference_build_tree(x, y, idx[~left], depth + 1, max_depth, min_leaf,
                                       n_feats, rng),
    }


def _assert_same_tree(x, y, idx, max_depth, min_leaf, n_feats, seed):
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = _build_tree(x, y, idx, 0, max_depth, min_leaf, n_feats, fast_rng)
    slow = _reference_build_tree(x, y, idx, 0, max_depth, min_leaf, n_feats, slow_rng)
    assert fast == slow
    # Both drew the same features at the same nodes.
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    return fast


def _splits(tree):
    if tree["leaf"]:
        return 0
    return 1 + _splits(tree["left"]) + _splits(tree["right"])


def _ulp_neighbours(rng, n, d):
    """Columns of a few positive anchors each stepped up by 0 to 5 ulps."""
    anchors = rng.choice([0.1, 0.3, 1.0, 1.5, 3.7], size=(3, d))
    picks = anchors[rng.integers(0, 3, (n, d)), np.arange(d)]
    return (picks.view(np.int64) + rng.integers(0, 6, (n, d))).view(np.float64)


def _rounds_up(x):
    """Whether some midpoint of adjacent distinct values in a column of x equals
    the upper value."""
    for col in x.T:
        v = np.unique(col)
        if np.any((v[:-1] + v[1:]) / 2.0 == v[1:]):
            return True
    return False


@pytest.mark.parametrize("matrix", ["binary", "ties", "ulp", "reals"])
def test_forest_split_search_matches_per_threshold_loop(matrix):
    rng = np.random.default_rng(["binary", "ties", "ulp", "reals"].index(matrix))
    splits = 0
    rounded_up = False
    for case in range(40):
        n, d = int(rng.integers(2, 70)), int(rng.integers(1, 10))
        if matrix == "binary":
            x = rng.integers(0, 2, (n, d)).astype(float)
        elif matrix == "ties":
            x = rng.integers(0, 4, (n, d)).astype(float)
        elif matrix == "ulp":
            x = _ulp_neighbours(rng, n, d)
            rounded_up |= _rounds_up(x)
        else:
            x = rng.normal(size=(n, d))
        # A constant column and, on reals, a column of all-distinct values.
        x[:, int(rng.integers(0, d))] = 0.5
        if matrix == "reals":
            x[:, int(rng.integers(0, d))] = rng.permutation(n) / 7.0
        # Labels that follow a column, a fifth of them flipped.
        c = int(rng.integers(0, d))
        y = (x[:, c] > np.median(x[:, c])).astype(float)
        flip = rng.random(n) < 0.2
        y[flip] = 1.0 - y[flip]
        idx = rng.integers(0, n, n)
        tree = _assert_same_tree(x, y, idx, max_depth=int(rng.integers(1, 9)),
                                 min_leaf=int(rng.integers(1, 5)),
                                 n_feats=int(rng.integers(1, d + 1)), seed=case)
        splits += _splits(tree)
    assert splits >= 40
    if matrix == "ulp":
        assert rounded_up


def test_forest_split_search_at_the_min_leaf_boundary():
    # Four rows, min_leaf 2: the node is just big enough to split, and the one
    # split leaves exactly min_leaf rows on each side.
    x = np.array([[0.0, 7.0], [0.0, 7.0], [1.0, 7.0], [1.0, 7.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    idx = np.arange(4)
    tree = _assert_same_tree(x, y, idx, max_depth=3, min_leaf=2, n_feats=2, seed=0)
    assert (tree["feature"], tree["threshold"]) == (0, 0.5)
    assert tree["left"] == {"leaf": True, "vote": 0}
    # At min_leaf 3 the four rows are too few to split; the 2-2 tie votes 1.
    assert _assert_same_tree(x, y, idx, max_depth=3, min_leaf=3, n_feats=2,
                             seed=0) == {"leaf": True, "vote": 1}
    # Six rows at min_leaf 3 may split, but the one threshold leaves 4 | 2.
    x6 = np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [1.0]])
    y6 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    assert _assert_same_tree(x6, y6, np.arange(6), max_depth=3, min_leaf=3,
                             n_feats=1, seed=0) == {"leaf": True, "vote": 0}
    assert _assert_same_tree(x6, y6, np.arange(6), max_depth=3, min_leaf=2,
                             n_feats=1, seed=0)["threshold"] == 0.5


def test_forest_split_threshold_may_round_up_to_the_upper_value():
    # (a + b) / 2 of adjacent floats can equal b; that threshold then puts b's
    # rows on the left, and both searches count them there.
    a = 1.0 + 2.0 ** -52
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    x = np.array([[1.0], [a], [b], [b], [2.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    for min_leaf in (1, 2, 3):
        _assert_same_tree(x, y, np.arange(6), max_depth=4, min_leaf=min_leaf,
                          n_feats=1, seed=0)


# ---------------------------------------------------------------------------
# Serialization


# A cluster map out of api-id order: a loaded map keeps its file's order.
ROUND_TRIP_SPACES = {"binary": _binary_space(("perm:M", "perm:B")),
                     "markov": FeatureSpace("markov"),
                     "api_cluster": FeatureSpace("api_cluster",
                                                 cluster_map={"api.b": 1, "api.a": 0})}


@pytest.mark.parametrize("kind", ["linear", "mlp", "knn", "forest"])
def test_model_file_round_trip(tmp_path, kind):
    # Save, load and save again give the same bytes in every kind of space: a
    # cluster map's digest and space_hash are of the map in its order.
    for features, space in ROUND_TRIP_SPACES.items():
        x = np.zeros((24, space.width))
        x[0::2, 0] = x[1::2, 1] = 1.0
        model = train(kind, space, x, ["malicious", "benign"] * 12, seed=3)
        path, again = tmp_path / f"{features}.json", tmp_path / f"{features}.again.json"
        save_model(model, path)
        back = load_model(path)
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()
        assert [back.kernel(row) for row in x] == [model.kernel(row) for row in x]
        assert back.report == model.report
        assert back.space == space and back.space.cluster_map == space.cluster_map
    assert list(load_model(tmp_path / "api_cluster.json").space.cluster_map) == [
        "api.b", "api.a"]


@pytest.mark.parametrize("kind", ["linear", "mlp", "knn", "forest"])
def test_a_model_of_a_space_with_no_columns_round_trips(tmp_path, kind):
    # A file's 2-D arrays of no values: the fit rows are as many as the labels,
    # and w1's columns as the hidden units.
    space = _binary_space(())
    model = train(kind, space, np.zeros((8, 0)), ["malicious", "benign"] * 4, seed=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    for name, value in model.params.items():
        if isinstance(value, np.ndarray):
            assert back.params[name].shape == value.shape, name
    assert back.kernel(np.zeros(0)) == model.kernel(np.zeros(0))


def test_ensemble_file_round_trip(tmp_path, stock_ensemble):
    # The stock ensemble holds three api_cluster members, each with a built map.
    clustered = [m.space.cluster_map for m in stock_ensemble.members
                 if m.space.kind == "api_cluster"]
    assert len(clustered) == 3 and all(list(c) == sorted(c) for c in clustered)
    path, again = tmp_path / "ensemble.json", tmp_path / "again.json"
    save_model(stock_ensemble, path)
    save_model(load_model(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_stock_members_load_with_their_trained_params_and_answers(tmp_path, small_corpus,
                                                                   stock_ensemble):
    # Each array param comes back with its shape, its dtype (0/1 fit rows as
    # uint8 in both) and every bit of its float64 values.
    path = tmp_path / "ensemble.json"
    save_model(stock_ensemble, path)
    loaded = load_model(path)
    assert len(loaded.members) == len(stock_ensemble.members) == 20
    for trained, back in zip(stock_ensemble.members, loaded.members):
        assert back.kind == trained.kind and back.params.keys() == trained.params.keys()
        for name, value in trained.params.items():
            if isinstance(value, np.ndarray):
                got = back.params[name]
                assert (got.shape, got.dtype) == (value.shape, value.dtype), name
                assert np.array_equal(_bits(got), _bits(value)), name
            else:
                assert back.params[name] == value, name
    _, test = small_corpus.train_test_split()
    assert [query(loaded, a) for a in test] == [query(stock_ensemble, a) for a in test]


def _stored_dtypes(model, path):
    """The dtype the model file saved at ``path`` stores each array param in."""
    return {name: v["dtype"] for name, v in saved_document(
                save_model, model, path, MODEL_LISTS)["params"].items()
            if isinstance(v, dict) and "dtype" in v}


def test_fractional_fit_rows_and_trained_weights_are_stored_as_float64(tmp_path):
    rng = np.random.default_rng(4)
    space = FeatureSpace("markov")
    x = rng.random((24, space.width))
    labels = ["malicious", "benign"] * 12
    knn, mlp = (train(kind, space, x, labels, seed=3) for kind in ("knn", "mlp"))
    path = tmp_path / "model.json"
    for model, stored in ((knn, {"x": "<f8", "y": "<u1"}),
                          (mlp, {"w1": "<f8", "b1": "<f8", "w2": "<f8"})):
        assert _stored_dtypes(model, path) == stored
        back = load_model(path)
        for name in stored:
            assert np.array_equal(_bits(back.params[name]), _bits(model.params[name])), name


def test_a_negative_zero_weight_keeps_its_sign_and_whole_weights_go_narrow(tmp_path):
    signed = _linear_model([-0.0, 1.0], 0.0, keys=("a", "b"))
    whole = _linear_model([0.0, -3.0], 0.0, keys=("a", "b"))
    path = tmp_path / "model.json"
    for model, stored in ((signed, "<f8"), (whole, "<i1")):
        assert _stored_dtypes(model, path) == {"w": stored}
        w = load_model(path).params["w"]
        assert w.dtype == np.float64 and w.flags.aligned and w.flags.writeable
        assert np.array_equal(_bits(w), _bits(model.params["w"]))
        assert np.signbit(w[0]) == (model is signed)


def test_a_loaded_knn_member_keeps_its_0_1_fit_rows_as_uint8(tmp_path):
    # The file stores 0/1 fit rows as <u1, and the loader keeps that dtype: no
    # float64 copy of the rows (8 bytes a value) is made on the way in.
    rng = np.random.default_rng(5)
    space = _binary_space([f"perm:P{i}" for i in range(400)])
    x = (rng.random((200, space.width)) < 0.3).astype(np.float64)
    trained = train("knn", space, x, ["malicious", "benign"] * 100, seed=3)
    path = tmp_path / "knn.json"
    save_model(trained, path)
    tracemalloc.start()
    try:
        loaded = load_model(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = loaded.params["x"]
    assert rows.dtype == np.uint8 and np.array_equal(rows, trained.params["x"])
    assert peak - held < 8 * rows.size, (peak - held, rows.size)
    assert [loaded.kernel(row) for row in x] == [trained.kernel(row) for row in x]


def test_a_loaded_ensembles_binary_members_share_their_key_strings(tmp_path, stock_ensemble):
    path = tmp_path / "ensemble.json"
    save_model(stock_ensemble, path)
    loaded = load_model(path)
    keys = [key for m in loaded.members if m.space.kind == "binary" for key in m.space.keys]
    assert len(keys) > 2 * len(set(keys))  # the binary members name the same keys
    assert len({id(key) for key in keys}) == len(set(keys))


def test_load_refuses_a_cluster_map_that_names_an_api_id_twice(tmp_path):
    # As a dict, the second pair would replace the first and the space would
    # fail its space_hash; the refusal names the id instead.
    _tampered_load(tmp_path, _cluster_model(),
                   lambda doc: doc["space"]["cluster_map"]["assignment"].append(["api.a", 3]),
                   match=r": cluster assignment names api id 'api\.a' twice$")


def test_vocab_hash_is_stable_and_sensitive():
    # A binary space's digest is the hash of its key list.
    a, b, c = _binary_space(("perm:P",)), _binary_space(("perm:P",)), _binary_space(("perm:Q",))
    assert a.digest == b.digest
    assert len(a.digest) == 64
    assert a.digest != c.digest


def test_space_equality_and_hash_are_by_digest():
    a, b, c = _binary_space(("perm:P",)), _binary_space(("perm:P",)), _binary_space(("perm:Q",))
    assert a == b and hash(a) == hash(b) and a != c
    markov = FeatureSpace("markov")
    assert markov == FeatureSpace("markov") and markov != a
    # The digest is the sha256 of the canonical doc, whatever the kind.
    assert markov.digest == hashlib.sha256(
        b'{"family_count": 11, "kind": "markov"}').hexdigest()
    assert len({a, b, c, markov, FeatureSpace("markov")}) == 3


def test_space_round_trip():
    cmap = {"api.a": 0, "api.b": 1}
    for space in (FeatureSpace("markov"), FeatureSpace("api_cluster", cluster_map=cmap)):
        back = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
        assert back == space
        assert (back.kind, back.cluster_map) == (space.kind, space.cluster_map)


def test_model_file_records_vocab_hash(tmp_path):
    # The space_hash covers the binary key list.
    model, path = _linear_model([1.0], 0.0), tmp_path / "model.json"
    doc = saved_document(save_model, model, path, MODEL_LISTS)
    assert doc["space"] == {"kind": "binary", "keys": ["perm:P"]}
    assert doc["space_hash"] == model.space.digest
    back = load_model(path)
    assert back.space == model.space
    assert back.params["b"] == model.params["b"]


def _swap_keys(space_doc):
    space_doc["keys"] = space_doc["keys"][::-1]


def _tampered_load(tmp_path, model, tamper, match="space does not match its space_hash"):
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = file_document(path, MODEL_LISTS)
    tamper(doc)
    write_file(path, doc, MODEL_LISTS)
    with pytest.raises(ValueError, match=match) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")
    assert "\n" not in str(err.value)


def test_load_rejects_vocab_that_does_not_match_its_hash(tmp_path):
    # Swapped keys would otherwise score each feature with another's weight.
    model = _linear_model([1.0, -1.0], 0.0, keys=("perm:P", "perm:Q"))
    _tampered_load(tmp_path, model, lambda doc: _swap_keys(doc["space"]))
    _tampered_load(tmp_path, model, lambda doc: doc.pop("space_hash"),
                   match="linear model: missing key 'space_hash'")


def test_load_rejects_ensemble_member_vocab_that_does_not_match_its_hash(tmp_path):
    model = Ensemble([_linear_model([1.0, -1.0], 0.0, keys=("perm:P", "perm:Q")),
                      _linear_model([2.0, -2.0], 0.0, keys=("perm:R", "perm:S"))])
    save_model(model, tmp_path / "intact.json")
    assert len(load_model(tmp_path / "intact.json").members) == 2
    _tampered_load(tmp_path, model, lambda doc: _swap_keys(doc["members"][1]["space"]))


def _cluster_model():
    cmap = {"api.a": 0, "api.b": 1}
    space = FeatureSpace("api_cluster", cluster_map=cmap)
    return DetectorModel(kind="linear", space=space,
                         params={"w": np.array([1.0, -1.0] + [0.0] * 22), "b": 0.0})


def _swap_clusters(cmap_doc):
    cmap_doc["assignment"] = [[a, 1 - c] for a, c in cmap_doc["assignment"]]


def test_load_rejects_cluster_map_that_does_not_match_its_hash(tmp_path):
    # An edited assignment would otherwise score apps through the altered map.
    model = _cluster_model()
    save_model(model, tmp_path / "intact.json")
    assert load_model(tmp_path / "intact.json").space.cluster_map == model.space.cluster_map
    _tampered_load(tmp_path, model,
                   lambda doc: _swap_clusters(doc["space"]["cluster_map"]))
    ensemble = Ensemble([_linear_model([1.0], 0.0), model])
    _tampered_load(tmp_path, ensemble,
                   lambda doc: _swap_clusters(doc["members"][1]["space"]["cluster_map"]))


def test_ensemble_has_no_space_and_its_file_none(tmp_path):
    ensemble = Ensemble([_linear_model([1.0], 0.0), _cluster_model()])
    assert not hasattr(ensemble, "space")
    path = tmp_path / "model.json"
    doc = saved_document(save_model, ensemble, path, MODEL_LISTS)
    assert "space" not in doc and "space_hash" not in doc
    assert load_model(path).members[1].space == _cluster_model().space


def test_model_file_holds_exactly_its_kinds_keys(tmp_path):
    space, x, labels = _separable_rows()
    doc = saved_document(save_model, Ensemble([train(kind, space, x, labels, seed=3)
                                               for kind in ("linear", "mlp", "knn", "forest")]),
                         tmp_path / "ensemble.json", MODEL_LISTS)
    assert sorted(doc) == ["format", "kind", "members"]
    scorer_keys = ["format", "kind", "params", "report", "space", "space_hash"]
    assert [sorted(m) for m in doc["members"]] == [scorer_keys] * 4
    assert [sorted(m["params"]) for m in doc["members"]] == [
        ["b", "w"], ["b1", "b2", "w1", "w2"], ["x", "y"], ["trees"]]
    # A hand-built model has no training report, and its file none.
    assert sorted(saved_document(save_model, _linear_model([1.0], 0.0),
                                 tmp_path / "model.json", MODEL_LISTS)) == [
        "format", "kind", "params", "space", "space_hash"]


def test_model_file_records_its_format(tmp_path):
    save_model(_linear_model([1.0], 0.0), tmp_path / "model.json")
    assert json.loads((tmp_path / "model.json").read_text())["format"] == 6


def test_ensembles_are_one_level_deep(tmp_path):
    a, b = _member(True), _member(False)
    with pytest.raises(ValueError) as err:
        Ensemble([a, Ensemble([b])])
    assert str(err.value) == "ensemble model: member 1 is an ensemble; ensembles are one level deep"
    # A file that wraps an ensemble as a member is refused at load, naming the file.
    path = tmp_path / "nested.json"
    save_model(Ensemble([a, b]), path)
    doc = file_document(path, MODEL_LISTS)
    doc["members"].insert(0, file_document(path, MODEL_LISTS))
    write_file(path, doc, MODEL_LISTS)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == (f"{path}: ensemble model: member 0 is an ensemble; "
                              "ensembles are one level deep")


def test_a_nested_ensemble_is_refused_naming_its_own_member_index(tmp_path):
    path = tmp_path / "nested.json"
    save_model(Ensemble([_member(True), _member(False)]), path)
    doc = file_document(path, MODEL_LISTS)
    doc["members"][1] = file_document(path, MODEL_LISTS)
    write_file(path, doc, MODEL_LISTS)
    message = "ensemble model: member 1 is an ensemble; ensembles are one level deep"
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {message}"


def test_a_model_file_is_refused_for_its_first_fault_in_file_order(tmp_path):
    # Member 0's bad param comes before member 1's format: the line reader
    # builds each member as its line is read.
    path = tmp_path / "two-faults.json"
    save_model(Ensemble([_member(True), _member(False)]), path)
    doc = file_document(path, MODEL_LISTS)
    doc["members"][0]["params"]["b"] = "x"
    doc["members"][1]["format"] = 99
    write_file(path, doc, MODEL_LISTS)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f'{path}: linear model: params.b is "x", not a number'


@pytest.mark.parametrize("found", [None, 1, 2, 3, 4, 5])
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


def _load_doc(path, doc):
    """The model that ``doc``, written at ``path`` as a model file, loads as."""
    write_file(path, doc, MODEL_LISTS)
    return load_model(path)


def test_model_missing_a_key_is_a_one_line_value_error(tmp_path):
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as err:
        _load_doc(path, {"format": MODEL_FORMAT, "kind": "linear"})
    assert str(err.value) == f"{path}: linear model: missing key 'space'"
    # A key missing inside ``params`` or ``report`` is named by its path.
    doc = _scorer_to_dict(_linear_model([1.0], 0.0))
    del doc["params"]["w"]
    with pytest.raises(ValueError) as err:
        _load_doc(path, doc)
    assert str(err.value) == f"{path}: linear model: missing key 'params.w'"
    doc = _scorer_to_dict(_linear_model([1.0], 0.0))
    doc["report"] = {"precision": 1.0, "recall": 1.0, "holdout_size": 2, "on_holdout": True}
    with pytest.raises(ValueError) as err:
        _load_doc(path, doc)
    assert str(err.value) == f"{path}: linear model: missing key 'report.f1'"


def _two_key_doc(kind):
    """The line a scorer file holds for a hand-built model over two binary keys."""
    params = {
        "linear": {"w": np.array([1.0, -1.0]), "b": 0.0},
        "mlp": {"w1": np.ones((2, 3)), "b1": np.zeros(3), "w2": np.ones(3), "b2": 0.0},
        "knn": {"x": np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                "y": np.array([0.0, 1.0, 1.0])},
        "forest": {"trees": [{"leaf": False, "feature": 1, "threshold": 0.5,
                              "left": {"leaf": True, "vote": 0},
                              "right": {"leaf": True, "vote": 1}}]},
    }[kind]
    return _scorer_to_dict(DetectorModel(kind=kind, space=_binary_space(("perm:P", "perm:Q")),
                                         params=params))


def _give_cluster_space(doc, space_extra=(), map_extra=()):
    """Make a linear model's doc that of ``_cluster_model``, plus the extra keys
    in its space and in its cluster map."""
    doc.update(_scorer_to_dict(_cluster_model()))
    doc["space"].update(space_extra)
    doc["space"]["cluster_map"].update(map_extra)


def _param_doc(doc, name, values=None, **fields):
    """Give param ``name`` of model ``doc`` the array doc of ``values`` (by
    default the one it holds) with ``fields`` changed."""
    array = dict(doc["params"][name]) if values is None else pack_array(
        np.asarray(values, dtype=np.float64))
    doc["params"][name] = {**array, **fields}


SCORING_PARAM_CASES = [
    ("knn", lambda d: _param_doc(d, "x", [0.0, 1.0, 1.0]),
     "knn model: params.x holds 3 values, which do not fill rows of 2"),
    ("knn", lambda d: _param_doc(d, "x", dtype="<f8"),
     "knn model: params.x data holds 6 bytes, not a multiple of 8 for <f8"),
    ("knn", lambda d: _param_doc(d, "y", [0.0]), "knn model: y must hold one 0/1 label"),
    ("knn", lambda d: _param_doc(d, "y", [0.0, 0.5, 1.0]),
     "knn model: y must hold one 0/1 label"),
    ("knn", lambda d: (_param_doc(d, "x", [0.0, 1.0, 1.0, 0.0]), _param_doc(d, "y", [0.0, 1.0])),
     "knn model: k=3 is not between 1 and the 2"),
    ("forest", lambda d: d["params"]["trees"][0].update(feature=99),
     "forest model: split feature 99 is outside the 2-feature binary space"),
    ("forest", lambda d: d["params"]["trees"][0]["left"].update(vote=2),
     "forest model: leaf vote 2 is not 0 or 1"),
    # A forest of no trees would answer 0 / 0.
    ("forest", lambda d: d["params"].update(trees=[]), "forest model: has no trees"),
    ("linear", lambda d: _param_doc(d, "w", [1.0]), "linear model: weights w of shape (1,)"),
    ("mlp", lambda d: _param_doc(d, "w1", [1.0, 1.0, 1.0]),
     "mlp model: params.w1 holds 3 values, which do not fill 2 rows"),
    ("forest", lambda d: d["params"]["trees"][0].update(threshold=None),
     "forest model: split threshold is null, not a number"),
    ("linear", lambda d: d["params"].update(b=None), "linear model: params.b is null"),
    ("mlp", lambda d: d["params"].update(b2="0.5"), 'mlp model: params.b2 is "0.5"'),
    ("linear", lambda d: d.update(threshold=None), "linear model: unknown key 'threshold'"),
    ("linear", lambda d: d.update(space=[]), "linear model: space is not a JSON object"),
    ("linear", lambda d: d.update(params=[]), "linear model: params is not a JSON object"),
    # A params list, as format 5 held them, is not an array doc.
    ("linear", lambda d: d["params"].update(w=[1.0, -1.0]),
     "linear model: params.w is not a {dtype, data} object"),
    ("linear", lambda d: _param_doc(d, "w", data="#"),
     "linear model: params.w data is not valid base64"),
    ("linear", lambda d: _param_doc(d, "w", dtype="<f4"),
     'linear model: params.w dtype "<f4" is not one of <u1, <i1, <u2, <i2, <u4, <i4, <i8, <f8'),
    ("knn", lambda d: _param_doc(d, "x", data=base64.b64encode(bytes(5)).decode()),
     "knn model: params.x holds 5 values, which do not fill rows of 2"),
    ("knn", lambda d: _param_doc(d, "y", [0.0, np.nan, 1.0]),
     "knn model: params.y is not an array of finite numbers"),
    ("mlp", lambda d: _param_doc(d, "w1", [np.inf] * 6),
     "mlp model: params.w1 is not an array of finite numbers"),
    ("mlp", lambda d: _param_doc(d, "b1", [0.0]),
     "mlp model: b1 of shape (1,) does not match the 3 hidden units of w1"),
    ("mlp", lambda d: d["params"]["b1"].pop("dtype"),
     "mlp model: params.b1 is not a {dtype, data} object"),
    ("mlp", lambda d: _param_doc(d, "w2", [1.0, 1.0]),
     "mlp model: w2 of shape (2,) does not match the 3 hidden units of w1"),
    ("linear", lambda d: d["space"].update(keys="PQ"), "space keys are not a list of strings"),
    ("linear", lambda d: d["space"].update(kind="api_cluster", cluster_map={
        "cluster_count": "2", "assignment": []}), 'cluster_count is "2", not an integer'),
    ("knn", lambda d: d.update(hyperparams={"k": "1"}), "knn model: unknown key 'hyperparams'"),
    ("forest", lambda d: d["params"]["trees"][0].update(feature=True),
     "forest model: split feature is true, not an integer"),
    ("knn", lambda d: d.update(hyperparams={"k": 4}), "knn model: unknown key 'hyperparams'"),
    ("linear", lambda d: d.update(hyperparams={"bogus": 1}),
     "linear model: unknown key 'hyperparams'"),
    ("linear", lambda d: d.update(threshold=1.5), "linear model: unknown key 'threshold'"),
    ("forest", lambda d: d.update(threshold=0), "forest model: unknown key 'threshold'"),
    # Loaded, and the extra name was dropped.
    ("linear", lambda d: d["params"].update(extra=[1, 2]),
     "linear model: unknown key 'params.extra'"),
    ("linear", lambda d: d.update(members=[]), "linear model: unknown key 'members'"),
    # Loaded, and the space carried the extra keys: its digest does not read them.
    ("linear", lambda d: d["space"].update(bogus=1), "linear model: unknown key 'space.bogus'"),
    ("linear", lambda d: d["space"].update(family_count=7),
     "linear model: unknown key 'space.family_count'"),
    ("linear", lambda d: _give_cluster_space(d, space_extra={"keys": ["zzz"]}),
     "linear model: unknown key 'space.keys'"),
    ("linear", lambda d: _give_cluster_space(d, map_extra={"extra": 5}),
     "linear model: unknown key 'space.cluster_map.extra'"),
    # Format 3 reports could hold "tpr", a copy of recall.
    ("linear", lambda d: d.update(report={"precision": 1.0, "recall": 1.0, "f1": 1.0,
                                          "holdout_size": 2, "on_holdout": True, "tpr": 1.0}),
     "linear model: report: unknown key 'tpr'"),
    # Only the space kind's own field is read: a stray cluster map is an unknown
    # key, whatever it holds, and the own field missing is a space key missing.
    ("linear", lambda d: d["space"].update(cluster_map={"cluster_count": 3, "assignment": []}),
     "linear model: unknown key 'space.cluster_map'"),
    ("linear", lambda d: d.update(space={"kind": "markov"}),
     "linear model: missing key 'space.family_count'"),
    ("linear", lambda d: d["space"].update(kind="bogus"), "unknown feature kind: bogus"),
    ("linear", lambda d: d.update(kind="svm"), "unknown detector kind: svm"),
    ("linear", lambda d: _give_cluster_space(d, map_extra={"assignment": [["api.a", 24]]}),
     'cluster assignment holds ["api.a", 24], not an [api id, cluster below 24] pair'),
]


@pytest.mark.parametrize("kind,tamper,needle", SCORING_PARAM_CASES,
                         ids=["knn_x_not_whole_rows", "knn_x_partial_value", "knn_short_y",
                              "knn_fractional_y", "knn_k_above_rows", "forest_feature_99",
                              "forest_vote_2", "forest_no_trees", "linear_narrow_w",
                              "mlp_w1_not_whole_rows",
                              "forest_null_split", "linear_null_b", "mlp_string_b2",
                              "linear_null_threshold", "linear_space_array",
                              "linear_params_array", "linear_list_w", "linear_w_bad_base64",
                              "linear_w_unlisted_dtype", "knn_x_bytes_not_whole_rows",
                              "knn_nan_y", "mlp_infinite_w1", "mlp_short_b1",
                              "mlp_b1_without_dtype", "mlp_short_w2",
                              "linear_string_keys", "api_cluster_string_count", "knn_string_k",
                              "forest_bool_feature", "knn_even_k", "linear_unknown_hyperparam",
                              "linear_threshold_1.5", "forest_threshold_0",
                              "linear_extra_param", "linear_members", "linear_space_bogus",
                              "linear_binary_space_family_count", "linear_cluster_space_keys",
                              "linear_cluster_map_extra", "linear_report_tpr",
                              "linear_binary_space_cluster_map",
                              "linear_markov_space_without_family_count",
                              "linear_bogus_space_kind", "svm_model_kind",
                              "api_cluster_cluster_24"])
def test_model_load_checks_scoring_params(tmp_path, kind, tamper, needle):
    doc, path = _two_key_doc(kind), tmp_path / "model.json"
    assert _load_doc(path, doc).kind == kind
    tamper(doc)
    with pytest.raises(ValueError, match=re.escape(needle)) as err:
        _load_doc(path, doc)
    assert "\n" not in str(err.value)
    # Ensemble members are checked on load too.
    ensemble = {"format": MODEL_FORMAT, "kind": "ensemble", "members": [doc]}
    with pytest.raises(ValueError, match=re.escape(needle)):
        _load_doc(path, ensemble)


@pytest.mark.parametrize("kind,params,needle", [
    ("knn", {"x": np.array([[0.0], [1.0]]), "y": np.array([0.0, 1.0])},
     "knn model: fit rows of shape (2, 1) do not match the 2-feature binary space"),
    ("knn", {"x": np.array([0.0, 1.0]), "y": np.array([0.0, 1.0])},
     "knn model: fit rows of shape (2,)"),
    ("mlp", {"w1": np.ones((1, 3)), "b1": np.zeros(3), "w2": np.ones(3), "b2": 0.0},
     "mlp model: weights w1 of shape (1, 3) do not match the 2-feature"),
    ("mlp", {"w1": np.ones((2, 3)), "b1": np.zeros((1, 3)), "w2": np.ones(3), "b2": 0.0},
     "mlp model: b1 of shape (1, 3) does not match the 3 hidden units of w1"),
], ids=["knn_narrow_rows", "knn_flat_rows", "mlp_narrow_w1", "mlp_2d_b1"])
def test_hand_built_params_of_another_shape_are_refused(kind, params, needle):
    # A file's arrays take their shapes from the space; a model built in memory
    # is checked by its kernel or block.
    with pytest.raises(ValueError, match=re.escape(needle)):
        DetectorModel(kind=kind, space=_binary_space(("perm:P", "perm:Q")), params=params)
