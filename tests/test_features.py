"""Feature extraction: binary strings, markov transition matrices, api clusters."""
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from apk_builders import StubPerturbation, apk, code_component, declared
from pst_evade.catalog import load_default_catalog
from pst_evade.corpus import (API_FAMILY_COUNT, CodeGraph, InjectablePayload,
                              apply_perturbation)
from pst_evade.detectors import FeatureSpace, space_from_dict, space_to_dict
from pst_evade.features import (
    ApiClusterMap,
    build_api_cluster_map,
    build_vocab,
    cluster_map_from_dict,
    cluster_map_to_dict,
    extract_api_cluster,
    extract_binary,
    extract_markov,
)
from pst_evade.perturbset import build_perturbation_set


def _feature_apk():
    comp = declared(actions=["A"], categories=["C"])
    code = code_component(api_ids=["api.a"], functions=["t.c0.f0@0"])
    return apk(features=["android.hardware.camera"], perms=[("P", "normal")],
               declared_components=[comp], components=[code])


def test_binary_keys_cover_all_families():
    from pst_evade.features import binary_keys
    assert set(binary_keys(_feature_apk())) == {
        "feature:android.hardware.camera", "perm:P", "action:A", "category:C",
        "api:api.a",
    }


def test_build_vocab_is_sorted_union():
    other = apk(apk_id="t001", perms=[("Q", "signature")])
    vocab = build_vocab([_feature_apk(), other])
    assert vocab == ("action:A", "api:api.a", "category:C",
                          "feature:android.hardware.camera", "perm:P", "perm:Q")


def test_build_vocab_rejects_empty():
    with pytest.raises(ValueError):
        build_vocab([])


def test_extract_binary_dense_values():
    other = apk(apk_id="t001", perms=[("Q", "signature")])
    vocab = build_vocab([_feature_apk(), other])
    vec = extract_binary(_feature_apk(), {k: i for i, k in enumerate(vocab)})
    assert vec.dtype == np.float64
    assert vec.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]


def test_extract_binary_ignores_unseen_keys():
    vocab = build_vocab([_feature_apk()])
    stranger = apk(apk_id="t002", perms=[("P", "normal"), ("UNSEEN", "normal")])
    vec = extract_binary(stranger, {k: i for i, k in enumerate(vocab)})
    assert vec.sum() == 1.0


# ---------------------------------------------------------------------------
# Markov transition features


def test_markov_vocab_row_major():
    # Column a * family_count + b holds the a -> b transition.
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@1"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@1")])
    assert extract_markov(app, 2).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_markov_hand_computed_rows():
    # Family 0 has four out-edges: one to family 0 and three to family 1.
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@0", "t.c0.f2@1",
                                     "t.c0.f3@1", "t.c0.f4@1"])
    app = apk(components=[comp],
              edges=[("t.c0.f0@0", "t.c0.f2@1"),
                     ("t.c0.f0@0", "t.c0.f3@1"),
                     ("t.c0.f1@0", "t.c0.f4@1"),
                     ("t.c0.f0@0", "t.c0.f1@0")])
    vec = extract_markov(app, 2)
    assert vec.dtype == np.float64
    assert vec.tolist() == [0.25, 0.75, 0.0, 0.0]


def test_markov_zero_rows_stay_zero():
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@1"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@1")])
    dense = extract_markov(app, 3).reshape(3, 3)
    assert dense[0].sum() == 1.0
    assert dense[1].sum() == 0.0
    assert dense[2].sum() == 0.0


def test_markov_no_edges_is_empty():
    assert extract_markov(apk(), 4).tolist() == [0.0] * 16


def test_markov_rejects_family_out_of_range():
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@3"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@3")])
    with pytest.raises(ValueError):
        extract_markov(app, 2)


def test_markov_rejects_zero_families():
    with pytest.raises(ValueError):
        extract_markov(apk(), 0)


def test_markov_rows_normalized_on_corpus(small_corpus):
    fc = API_FAMILY_COUNT
    for app in small_corpus.malicious[:5]:
        rows = extract_markov(app, fc).reshape(fc, fc)
        sums = rows.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))


def test_markov_equal_graphs_give_equal_vectors():
    def build():
        comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@1"])
        return apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@1")])
    assert np.array_equal(extract_markov(build(), 2), extract_markov(build(), 2))


def _markov_reference(app, family_count):
    """From-scratch Markov values: look up every local edge's families, count,
    row-normalize."""
    counts = np.zeros((family_count, family_count))
    for comp in app.code.components:
        for a, b in comp.edges:
            counts[comp.families[a], comp.families[b]] += 1.0
    row_sums = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, row_sums, out=np.zeros_like(counts),
                     where=row_sums > 0).ravel()


def test_markov_matches_from_scratch_reference(small_corpus):
    fc = API_FAMILY_COUNT
    apps = small_corpus.benign + small_corpus.malicious
    for app in apps:
        assert np.array_equal(extract_markov(app, fc), _markov_reference(app, fc))

    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    manifest_p = next(p for p in pset.perturbations if p.kind == "permission")
    inject_p = next(p for p in pset.perturbations if p.kind.startswith("inject_"))
    target = small_corpus.malicious[0]
    same_graph, present = apply_perturbation(target, manifest_p, random.Random(0))
    assert not present and same_graph.code is target.code
    new_graph, present = apply_perturbation(target, inject_p, random.Random(0))
    assert not present
    assert new_graph.code is not target.code
    for app in (same_graph, new_graph):
        assert np.array_equal(extract_markov(app, fc), _markov_reference(app, fc))


def test_markov_range_check_survives_a_wider_extraction():
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@3"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f0@0"),
                                        ("t.c0.f0@0", "t.c0.f1@3")])
    assert np.array_equal(extract_markov(app, 4), _markov_reference(app, 4))
    with pytest.raises(ValueError,
                       match=r"family_count=2: component 0 local edge \(0, 1\) has families \(0, 3\)"):
        extract_markov(app, 2)
    assert np.array_equal(extract_markov(app, 4), _markov_reference(app, 4))


def _fresh(app):
    """The app on fresh copies of its components, whose edge families nobody has
    computed."""
    return replace(app, code=CodeGraph(tuple(replace(c) for c in app.code.components)))


@pytest.mark.parametrize("parse_parent", [True, False])
def test_injected_family_pairs_match_a_fresh_parse(small_corpus, parse_parent):
    # Chains of injections into parents whose components have, or have not, had
    # their edge families computed already.
    fc = API_FAMILY_COUNT
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    injects = [p for p in pset.perturbations if p.kind.startswith("inject_")]
    rng = random.Random(17)
    for target in small_corpus.malicious[:8]:
        app = _fresh(target)
        assert all("edge_families" not in vars(c) for c in app.code.components)
        if parse_parent:
            extract_markov(app, fc)
        for _ in range(rng.randint(1, 3)):
            app, _ = apply_perturbation(app, rng.choice(injects), rng)
        for comp in app.code.components:
            expected = np.array([[comp.families[a], comp.families[b]] for a, b in comp.edges],
                                dtype=np.intp).reshape(-1, 2)
            assert np.array_equal(comp.edge_families, expected)
        assert np.array_equal(extract_markov(app, fc), _markov_reference(app, fc))


def test_injection_shares_one_component_per_payload(small_corpus):
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    inject = next(p for p in pset.perturbations if p.kind.startswith("inject_"))
    first, second = (apply_perturbation(a, inject, random.Random(0))[0]
                     for a in small_corpus.malicious[:2])
    assert first.code.components[-1] is second.code.components[-1]
    assert first.code.components[-1].origin == "injected"
    assert inject.payload.component.origin == "original"


def test_markov_range_error_names_the_payload_edge_after_reuse():
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@1"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@1"),
                                        ("t.c0.f1@1", "t.c0.f0@0")])
    donor = apk(apk_id="d", components=[code_component(
        functions=["d.c0.f0@1", "d.c0.f1@0", "d.c0.f2@3"])],
        edges=[("d.c0.f0@1", "d.c0.f1@0"), ("d.c0.f1@0", "d.c0.f2@3")])
    payload = InjectablePayload(
        source_apk_id="d", declared=declared(kind="service", name="Donor"),
        component=donor.code.components[0])
    assert np.array_equal(extract_markov(app, 2), _markov_reference(app, 2))
    injected, _ = apply_perturbation(app, StubPerturbation("inject_service", payload),
                                     random.Random(0))
    with pytest.raises(ValueError,
                       match=r"family_count=2: component 1 local edge \(1, 2\) has families \(0, 3\)"):
        extract_markov(injected, 2)
    assert np.array_equal(extract_markov(injected, 4), _markov_reference(injected, 4))


# ---------------------------------------------------------------------------
# Api cluster features


def test_cluster_map_is_balanced_and_total():
    cmap = build_api_cluster_map([f"api.{i}" for i in range(10)], 3, seed=4)
    sizes = {}
    for _, c in cmap.assignment:
        sizes[c] = sizes.get(c, 0) + 1
    assert sorted(sizes.values(), reverse=True) == [4, 3, 3]
    assert len(cmap.assignment) == 10


def test_cluster_map_deterministic_and_seed_sensitive():
    ids = [f"api.{i}" for i in range(40)]
    a = build_api_cluster_map(ids, 5, seed=1)
    b = build_api_cluster_map(ids, 5, seed=1)
    c = build_api_cluster_map(ids, 5, seed=2)
    assert a == b
    assert a != c


def test_extract_api_cluster_is_presence_not_count():
    cmap = ApiClusterMap(cluster_count=3, assignment=(("api.a", 2), ("api.b", 0)))
    comp = code_component(api_ids=["api.a", "api.a", "api.b"],
                          functions=["t.c0.f0@0"])
    vec = extract_api_cluster(apk(components=[comp]), cmap)
    assert vec.dtype == np.float64
    assert vec.tolist() == [1.0, 0.0, 1.0]


def test_extract_api_cluster_rejects_unmapped_id():
    cmap = ApiClusterMap(cluster_count=2, assignment=(("api.a", 0),))
    comp = code_component(api_ids=["api.mystery"], functions=["t.c0.f0@0"])
    with pytest.raises(ValueError, match="api.mystery"):
        extract_api_cluster(apk(components=[comp]), cmap)


# ---------------------------------------------------------------------------
# Serialization


def test_vocab_round_trip():
    vocab = build_vocab([_feature_apk()])
    space = FeatureSpace("binary", keys=vocab)
    back = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
    assert back.keys == vocab
    assert back == space


def test_cluster_map_round_trip():
    cmap = build_api_cluster_map([f"api.{i}" for i in range(7)], 3, seed=9)
    assert cluster_map_from_dict(cluster_map_to_dict(cmap)) == cmap
