"""Acceptance gate: every stated bar runs at its stated tolerance and prints
one PASS/FAIL line on the terminal."""
import hashlib
import json
import random
import time

import numpy as np
import pytest
from scipy import stats

from apk_builders import (
    MODEL_LISTS,
    brute_force_cluster,
    child_probs,
    feature_group,
    find,
    first_child,
    inject_group,
    perm_groups,
    random_permissions,
    rewalk_leaf_counts,
    saved_document,
)
from pst_evade.attack import AttackConfig, Oracle, run_attack
from pst_evade.cli import main as cli_main
from pst_evade.corpus import (
    CorpusSpec,
    contains,
    generate_corpus,
    load_corpus,
    load_default_catalog,
    save_corpus,
    validate_apk,
    verify_isolation,
)
from pst_evade.detectors import load_model, query as model_query, save_model
from pst_evade.harness import (
    DEFAULT_BENCH_SPEC,
    DetectorSpec,
    ExperimentConfig,
    derive_seed,
    load_rows,
    make_default_ensemble,
    run_experiment,
    select_true_positives,
    train_detector,
)
from pst_evade.perturbset import (CHILD_ORDER, build_perturbation_set, cluster_perturbations,
                                  keyword_extract, tree_position)
from pst_evade.pstree import (
    adjust,
    build_tree,
    delete_leaf_and_transfer,
    init_probabilities,
    sample_path,
    validate_probabilities,
)


@pytest.fixture
def verdict(capfd):
    def emit(name, ok, detail=""):
        with capfd.disabled():
            print(f"{'PASS' if ok else 'FAIL'} acceptance[{name}]: {detail}")
        assert ok, f"{name}: {detail}"
    return emit


@pytest.fixture(scope="module")
def bench_corpus():
    return generate_corpus(DEFAULT_BENCH_SPEC)


@pytest.fixture(scope="module")
def bench_pset(bench_corpus):
    return build_perturbation_set(load_default_catalog(), bench_corpus.donors)


@pytest.fixture(scope="module")
def bench_linear(bench_corpus):
    return train_detector(DetectorSpec(name="linear"), bench_corpus)


@pytest.fixture(scope="module")
def bench_ensemble(bench_corpus):
    return make_default_ensemble(bench_corpus, seed=0, size=20)


# ---------------------------------------------------------------------------
# 1. Tree probability integrity under random operation sequences


def _random_groups(rng):
    groups = []
    target = rng.randint(4, 200)
    g = 0
    while len(groups) < target:
        roll = rng.random()
        if roll < 0.35:
            level = rng.choice(["normal", "signature"])
            groups.extend(perm_groups(level, 1, size=rng.randint(1, 5),
                                      tag=f"P{g}"))
        elif roll < 0.65:
            bucket = rng.choice(["hardware", "software"])
            groups.append(feature_group(bucket, rng.randint(1, 9), f"t{g}"))
        else:
            kind = rng.choice(["inject_service", "inject_receiver",
                               "inject_provider"])
            groups.append(inject_group(g, kind=kind))
        g += 1
    return groups[:target]


def _random_tree(rng):
    return build_tree(_random_groups(rng))


def test_probability_integrity_fuzz(verdict):
    t0 = time.perf_counter()
    rng = random.Random(0xF1DE)
    tree = _random_tree(rng)
    sequences = 10_000
    ops = 0
    counts_ok = nonnegative = True
    for _ in range(sequences):
        if tree.is_empty():
            tree = _random_tree(rng)
        for _ in range(rng.randint(1, 8)):
            if tree.is_empty():
                break
            op = rng.randrange(4)
            leaves = tree.leaves()
            leaf = rng.choice(leaves)
            if op == 0:
                init_probabilities(tree)
            elif op == 1:
                sample_path(tree, rng)
            elif op == 2:
                delete_leaf_and_transfer(tree, leaf)
            else:
                y = rng.random()
                delta = rng.choice([-0.2, 0.0, 0.2]) * rng.random()
                adjust(tree, leaf, y_prev=y, y_new=min(1.0, max(0.0, y + delta)))
            validate_probabilities(tree)
            counts_ok = counts_ok and tree.leaf_counts == rewalk_leaf_counts(tree)
            # The sibling transfer clamps only at 1.0: it relies on this.
            nonnegative = nonnegative and all(p >= 0.0 for probs in tree.probs.values()
                                              for p in probs.values())
            ops += 1
    elapsed = time.perf_counter() - t0
    verdict("probability-integrity",
            counts_ok and nonnegative and elapsed < 30.0,
            f"{sequences} sequences ({ops} ops) clean in {elapsed:.1f}s (< 30s), "
            f"leaf counts {'match' if counts_ok else 'differ from'} a re-walk, "
            f"every probability {'>= 0' if nonnegative else 'NOT >= 0'}")


# ---------------------------------------------------------------------------
# 2. Clustering equals the brute-force reference


def test_clustering_matches_reference_oracle(verdict):
    t0 = time.perf_counter()
    rng = random.Random(0xC1)
    agree = total = 0
    for threshold in (0.3, 0.5, 0.7):
        for _ in range(100):
            ps = random_permissions(rng, rng.randint(1, 15))
            got = cluster_perturbations(ps, threshold)
            want = brute_force_cluster(ps, threshold)
            got_sets = sorted(sorted(p.key for p in g.members) for g in got)
            want_sets = sorted(sorted(p.key for p in g) for g in want)
            agree += got_sets == want_sets
            total += 1
    elapsed = time.perf_counter() - t0
    verdict("clustering-equivalence",
            agree == total and elapsed < 10.0,
            f"{agree}/{total} instances agree at thresholds 0.3/0.5/0.7 "
            f"in {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 3. Sampling matches path-product probabilities


def test_sampling_fidelity_chi_square(verdict):
    groups = [feature_group("hardware", 1, "cam"),
              feature_group("hardware", 5, "gps"),
              feature_group("hardware", 9, "nfc"),
              feature_group("software", 2, "web"),
              *perm_groups("normal", 3, size=2, tag="NRM"),
              *perm_groups("signature", 1, tag="SIG"),
              inject_group(0), inject_group(1),
              inject_group(2, kind="inject_receiver")]
    tree = build_tree(groups)

    def path_product(node):
        p = 1.0
        while tree.parents[node] >= 0:
            parent = tree.parents[node]
            p *= tree.probs[parent][node]
            node = parent
        return p

    leaves = tree.leaves()
    expected = [path_product(leaf) for leaf in leaves]
    index = {leaf: i for i, leaf in enumerate(leaves)}
    rng = random.Random(0x5A)
    n = 100_000
    observed = [0] * len(leaves)
    for _ in range(n):
        observed[index[sample_path(tree, rng)]] += 1
    result = stats.chisquare(observed, [p * n for p in expected])
    verdict("sampling-fidelity",
            result.pvalue > 0.01,
            f"chi-square p={result.pvalue:.3f} over {n} draws on "
            f"{len(leaves)} leaves (> 0.01)")


# ---------------------------------------------------------------------------
# 4. Feedback-adjustment worked examples


def _policy_tree():
    groups = [feature_group("hardware", 1, "cam"),
              feature_group("hardware", 1, "gps"),
              feature_group("software", 1, "web"),
              *perm_groups("normal", 1),
              inject_group()]
    return build_tree(groups)


def test_adjustment_worked_examples(verdict):
    checks = []

    tree = _policy_tree()
    hardware = find(tree, "hardware")
    before = (dict(tree.probs[0]), dict(tree.probs[find(tree, "manifest")]),
              dict(tree.probs[find(tree, "uses_feature")]))
    adjust(tree, first_child(tree, hardware), y_prev=0.9, y_new=0.4)
    after = (tree.probs[0], tree.probs[find(tree, "manifest")],
             tree.probs[find(tree, "uses_feature")])
    checks.append(("improvement deletes only", before == after
                   and list(tree.probs[hardware].values()) == [1.0]))

    tree = _policy_tree()
    adjust(tree, first_child(tree, find(tree, "hardware")), y_prev=0.9, y_new=0.9)
    uf = child_probs(tree, find(tree, "uses_feature"))
    man = child_probs(tree, find(tree, "manifest"))
    root = child_probs(tree, 0)
    checks.append(("no-effect penalty at depth 3",
                   uf == pytest.approx({"hardware": 7 / 17, "software": 10 / 17})
                   and man == pytest.approx({"uses_feature": 2 / 7,
                                             "permission": 5 / 7})))
    checks.append(("first-layer halving renormalizes",
                   root == pytest.approx({"manifest": 1 / 3, "code": 2 / 3})))

    tree = _policy_tree()
    adjust(tree, first_child(tree, find(tree, "hardware")), y_prev=0.5, y_new=0.9)
    checks.append(("worsening reinitializes without penalty",
                   child_probs(tree, find(tree, "uses_feature")) == pytest.approx(
                       {"hardware": 0.5, "software": 0.5})
                   and child_probs(tree, 0) == pytest.approx(
                       {"manifest": 1 / 3, "code": 2 / 3})))

    failed = [name for name, ok in checks if not ok]
    verdict("adjustment-examples",
            not failed,
            f"{len(checks)} hand-derived cases exact" if not failed
            else f"failed: {failed}")


# ---------------------------------------------------------------------------
# 5. Ordering reproduction on the stock benchmark


def test_benchmark_ordering(verdict, bench_corpus):
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig(detectors=(DetectorSpec(name="linear"),)),
                            bench_corpus)
    elapsed = time.perf_counter() - t0

    cell = {(c["algorithm"], c["budget"], c["seed"]): c["asr"]
            for c in report.cells}
    seeds = sorted({c["seed"] for c in report.cells})
    budgets = sorted({c["budget"] for c in report.cells})
    tree_wins = sum(cell[("pst", 10, s)] >= cell[("random", 10, s)]
                    for s in seeds)
    monotone = all(cell[(a, b1, s)] <= cell[(a, b2, s)]
                   for a in ("pst", "mab", "random")
                   for s in seeds
                   for b1, b2 in zip(budgets, budgets[1:]))
    mean10 = {a: sum(cell[(a, 10, s)] for s in seeds) / len(seeds)
              for a in ("pst", "mab", "random")}
    verdict("benchmark-ordering",
            tree_wins >= 4 and monotone and elapsed < 300.0,
            f"tree>=random at budget 10 in {tree_wins}/5 seeds (need >=4); "
            f"monotone in budget: {monotone}; mean ASR@10 "
            f"pst={mean10['pst']:.2f} mab={mean10['mab']:.2f} "
            f"random={mean10['random']:.2f}; {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 6. Detection-fraction reduction against the ensemble


def test_ensemble_detection_reduction(verdict, bench_corpus, bench_pset,
                                      bench_ensemble):
    _, test = bench_corpus.train_test_split()
    malicious = [a for a in test if a.ground_truth == "malicious"]
    fractions = []
    for seed in range(5):
        targets = select_true_positives(bench_ensemble, malicious, 100, seed,
                                        "ensemble")
        reduced = attacked = 0
        for apk in targets:
            r = run_attack(Oracle(bench_ensemble), apk, bench_pset,
                           AttackConfig(budget=10, seed=derive_seed(seed, apk.id)))
            if r.outcome == "not_applicable":
                continue
            attacked += 1
            reduced += min(r.confidence_trace[1:]) < r.confidence_trace[0]
        fractions.append(reduced / attacked)
    mean_reduced = sum(fractions) / len(fractions)
    verdict("ensemble-reduction",
            mean_reduced >= 0.60,
            f"detection fraction strictly reduced for {mean_reduced:.0%} "
            f"of attacked samples at budget 10 over 5 seeds (need >= 60%)")


# ---------------------------------------------------------------------------
# 7. Functional consistency of successful attacks


def test_functional_consistency(verdict, bench_corpus, bench_pset,
                                bench_linear, bench_ensemble):
    _, test = bench_corpus.train_test_split()
    malicious = [a for a in test if a.ground_truth == "malicious"]
    tps = select_true_positives(bench_linear, malicious, 60, 0, "linear")
    runs = [(bench_linear, algo, 20, tps)
            for algo in ("pst", "mab", "random")]
    ens_tps = select_true_positives(bench_ensemble, malicious, 12, 0, "ensemble")
    runs.append((bench_ensemble, "pst", 10, ens_tps))

    successes = clean = 0
    for model, algo, budget, targets in runs:
        for apk in targets:
            r = run_attack(Oracle(model), apk, bench_pset,
                           AttackConfig(budget=budget, algorithm=algo,
                                        seed=derive_seed(17, apk.id)))
            if r.outcome != "success":
                continue
            successes += 1
            validate_apk(r.adversarial)
            ok = (contains(apk, r.adversarial) and verify_isolation(r.adversarial)
                  and model_query(model, r.adversarial).label == "benign")
            clean += ok
    verdict("functional-consistency",
            successes >= 20 and clean == successes,
            f"{clean}/{successes} successful attacks keep the original intact "
            f"and isolate injected code (need 100%)")


# ---------------------------------------------------------------------------
# 8. Benchmark determinism: a rerun, with an ignored "workers" key, gives the same rows


def test_bench_determinism_across_workers(verdict, tmp_path):
    spec = CorpusSpec(n_benign=80, n_malicious=80, donor_count=30, seed=23)
    corpus_path = tmp_path / "corpus.json"
    save_corpus(generate_corpus(spec), corpus_path)
    base = {
        "corpus_path": str(corpus_path),
        "detectors": [{"name": "linear"}],
        "algorithms": ["pst", "mab", "random"],
        "budgets": [5, 10],
        "sample_count": 10,
        "seeds": [0],
    }
    runs = []
    for workers in (1, 8):
        cfg_path = tmp_path / f"bench{workers}.json"
        cfg_path.write_text(json.dumps({**base, "workers": workers}))
        out_dir = tmp_path / f"out{workers}"
        assert cli_main(["bench", "--config", str(cfg_path),
                         "--out-dir", str(out_dir)]) == 0
        rows = load_rows(out_dir / "report.json")
        assert all(r.pop("wall_ms") >= 0.0 for r in rows)
        runs.append(rows)

    rows1, rows8 = runs
    verdict("bench-determinism",
            rows1 == rows8 and len(rows1) == 60,
            f"{len(rows1)} rows bit-identical when a config with an ignored "
            "'workers' key is rerun (wall clock column excluded)")


# ---------------------------------------------------------------------------
# 9. Set-up is pinned: the stock corpus and ensemble are the same bit for bit


# sha256 over every DEFAULT_BENCH_SPEC component's families and edges (shape
# repr, then the values' int64 bytes, whatever dtype a component holds them
# in), and of the stock ensemble's model file's document as json.dumps(sort_keys=True).
# The ensemble's hash is taken at the default BLAS thread count; at one thread
# its MLP member trains to other bits and the document reads e1798614...
BENCH_COMPONENTS_SHA256 = "787ff035197364913767e9be1b01a2778197e386334e9a0a1351b00e5e35ea58"
BENCH_ENSEMBLE_SHA256 = "397f9cbd050613c2a99abbd1029b116cb874520e0d037c659952f7010df75fe8"


def _components_sha256(corpus) -> str:
    h = hashlib.sha256()
    for apps in (corpus.benign, corpus.malicious, corpus.donors):
        for apk in apps:
            for comp in apk.components:
                for arr in (comp.families, comp.edges):
                    h.update(repr(arr.shape).encode())
                    h.update(np.asarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def _ensemble_sha256(ensemble, path) -> str:
    """The hash of the document of the file that ``ensemble`` saves as at ``path``."""
    doc = saved_document(save_model, ensemble, path, MODEL_LISTS)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_setup_is_pinned(verdict, bench_corpus, bench_ensemble, tmp_path):
    components = _components_sha256(bench_corpus)
    ensemble = _ensemble_sha256(bench_ensemble, tmp_path / "ensemble.json")
    verdict("setup-pinned",
            components == BENCH_COMPONENTS_SHA256 and ensemble == BENCH_ENSEMBLE_SHA256,
            f"stock corpus components {components[:8]} (pinned "
            f"{BENCH_COMPONENTS_SHA256[:8]}), stock ensemble model {ensemble[:8]} "
            f"(pinned {BENCH_ENSEMBLE_SHA256[:8]})")


def test_stock_ensemble_file_is_pinned_and_round_trips(tmp_path, bench_ensemble):
    # The file holds the model document whose sha256 is pinned above; loading
    # it and saving again gives the same bytes.
    path, again = tmp_path / "ensemble.json", tmp_path / "again.json"
    assert _ensemble_sha256(bench_ensemble, path) == BENCH_ENSEMBLE_SHA256
    save_model(load_model(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_stock_component_arrays_fit_in_13_mb(bench_corpus):
    # uint8 families and uint16 edges (no stock component has more than 65 536
    # functions): 2.01 + 10.43 MB on the stock corpus, where int32 edges took
    # 20.85 MB and intp arrays 16.1 + 41.7 MB.
    comps = [c for apps in (bench_corpus.benign, bench_corpus.malicious, bench_corpus.donors)
             for a in apps for c in a.components]
    assert all(c.families.dtype == np.uint8 and c.edges.dtype == np.uint16 for c in comps)
    assert sum(c.families.nbytes + c.edges.nbytes for c in comps) <= 13_000_000


def test_every_stock_perturbation_has_a_tree_position_and_its_keywords(bench_pset):
    # tree_position and keyword_extract check nothing: every perturbation drawn
    # from the bundled catalog and the stock donors sits in a bucket of the
    # tree, and a manifest one has keywords.
    positions = {}
    for p in bench_pset.perturbations:
        path = tree_position(p)
        for parent, label in zip(("root", *path), path):
            assert label in CHILD_ORDER[parent], (p.key, path)
        assert path[-1] not in CHILD_ORDER, (p.key, path)  # a leaf bucket
        if path[0] == "manifest":
            assert keyword_extract(p.kind, p.payload), p.key
        positions[path[0]] = positions.get(path[0], 0) + 1
    assert positions.keys() == {"manifest", "code"}


def test_saved_and_loaded_stock_corpus_is_the_generated_one(bench_corpus, tmp_path):
    path = tmp_path / "corpus.json"
    save_corpus(bench_corpus, path)
    loaded = load_corpus(path)
    # Apps compare by value, every code component's arrays included.
    assert loaded == bench_corpus
    assert _components_sha256(loaded) == BENCH_COMPONENTS_SHA256
