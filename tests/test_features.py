"""Feature extraction: binary strings, markov transition matrices, api clusters."""
import json
import random
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from apk_builders import StubPerturbation, apk, code_component, declared
from pst_evade.attack import Oracle
from pst_evade.catalog import load_default_catalog
from pst_evade.corpus import API_FAMILY_COUNT, CodeComponent
from pst_evade.detectors import (Ensemble, FeatureSpace, score, space_from_dict,
                                 space_to_dict, train)
from pst_evade.features import (
    CLUSTER_COUNT,
    Parts,
    added_parts,
    app_parts,
    build_api_cluster_map,
    build_vocab,
    extract_api_cluster,
    extract_binary,
    extract_markov,
    cluster_columns,
    key_columns,
    markov_counts,
    part_keys,
)
from pst_evade.perturbset import InjectablePayload, apply_perturbation, build_perturbation_set


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
    index = {k: i for i, k in enumerate(vocab)}
    vec = extract_binary(_feature_apk(), index, key_columns(index))
    assert vec.dtype == np.float64
    assert vec.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]


def test_extract_binary_ignores_unseen_keys():
    vocab = build_vocab([_feature_apk()])
    stranger = apk(apk_id="t002", perms=[("P", "normal"), ("UNSEEN", "normal")])
    index = {k: i for i, k in enumerate(vocab)}
    vec = extract_binary(stranger, index, key_columns(index))
    assert vec.sum() == 1.0


# ---------------------------------------------------------------------------
# Markov transition features


FC = API_FAMILY_COUNT


def test_markov_vocab_row_major():
    # Column a * API_FAMILY_COUNT + b holds the a -> b transition.
    comp = code_component(functions=["t.c0.f0@2", "t.c0.f1@3"])
    app = apk(components=[comp], edges=[("t.c0.f0@2", "t.c0.f1@3")])
    vec = extract_markov(app)
    assert vec.shape == (FC * FC,)
    assert np.flatnonzero(vec).tolist() == [2 * FC + 3] and vec[2 * FC + 3] == 1.0


def test_markov_hand_computed_rows():
    # Family 0 has four out-edges: one to family 0 and three to family 1.
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@0", "t.c0.f2@1",
                                     "t.c0.f3@1", "t.c0.f4@1"])
    app = apk(components=[comp],
              edges=[("t.c0.f0@0", "t.c0.f2@1"),
                     ("t.c0.f0@0", "t.c0.f3@1"),
                     ("t.c0.f1@0", "t.c0.f4@1"),
                     ("t.c0.f0@0", "t.c0.f1@0")])
    vec = extract_markov(app)
    assert vec.dtype == np.float64
    dense = vec.reshape(FC, FC)
    assert dense[:2, :2].tolist() == [[0.25, 0.75], [0.0, 0.0]]
    assert dense.sum() == 1.0


def test_markov_zero_rows_stay_zero():
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@1"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@1")])
    dense = extract_markov(app).reshape(FC, FC)
    assert dense[0].sum() == 1.0
    assert dense[1:].sum() == 0.0


def test_markov_no_edges_is_empty():
    assert extract_markov(apk()).tolist() == [0.0] * (FC * FC)


def test_markov_rejects_family_out_of_range():
    # A component refuses such a family when it is made, so no extraction meets
    # one; the last family counts in the last cell.
    for family, refusal in ((FC, "function family above 10"), (-1, "negative function family")):
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            CodeComponent(kind="service", classes=1, families=[0, family], edges=[[0, 1]],
                          api_calls=())
    comp = code_component(functions=["t.c0.f0@0", f"t.c0.f1@{FC - 1}"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", f"t.c0.f1@{FC - 1}")])
    assert np.flatnonzero(extract_markov(app)).tolist() == [FC - 1]


def test_markov_rejects_zero_families():
    with pytest.raises(ValueError, match="^space family_count is 0, not 11$"):
        space_from_dict({"kind": "markov", "family_count": 0})


def test_markov_rows_normalized_on_corpus(small_corpus):
    for app in small_corpus.malicious[:5]:
        rows = extract_markov(app).reshape(FC, FC)
        sums = rows.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))


def test_markov_equal_graphs_give_equal_vectors():
    def build():
        comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@1"])
        return apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@1")])
    assert np.array_equal(extract_markov(build()), extract_markov(build()))


def _markov_reference(app):
    """From-scratch Markov values: look up every local edge's families, count,
    row-normalize."""
    counts = np.zeros((FC, FC))
    for comp in app.components:
        for a, b in comp.edges:
            counts[comp.families[a], comp.families[b]] += 1.0
    row_sums = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, row_sums, out=np.zeros_like(counts),
                     where=row_sums > 0).ravel()


def test_markov_matches_from_scratch_reference(small_corpus):
    apps = small_corpus.benign + small_corpus.malicious
    for app in apps:
        assert np.array_equal(extract_markov(app), _markov_reference(app))

    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    manifest_p = next(p for p in pset.perturbations if p.kind == "permission")
    inject_p = next(p for p in pset.perturbations if p.kind.startswith("inject_"))
    target = small_corpus.malicious[0]
    same_graph = apply_perturbation(target, manifest_p, random.Random(0))
    assert same_graph is not target and same_graph.components is target.components
    new_graph = apply_perturbation(target, inject_p, random.Random(0))
    assert new_graph is not target
    assert new_graph.components is not target.components
    for app in (same_graph, new_graph):
        assert np.array_equal(extract_markov(app), _markov_reference(app))


def test_markov_range_check_survives_a_wider_extraction():
    # Transition counts are computed once per component. A family past the last
    # is refused when the component is made, and an in-range app extracts the
    # same on every call after its transition counts are kept.
    with pytest.raises(ValueError, match="^function family above 10$"):
        CodeComponent(kind="service", classes=1, families=[0, 12], edges=[[0, 0], [0, 1]],
                      api_calls=())
    good = apk(components=[code_component(functions=["t.c0.f0@0", "t.c0.f1@3"])],
               edges=[("t.c0.f0@0", "t.c0.f0@0"), ("t.c0.f0@0", "t.c0.f1@3")])
    assert np.array_equal(extract_markov(good), _markov_reference(good))
    assert "transition_counts" in vars(good.components[0])
    assert np.array_equal(extract_markov(good), _markov_reference(good))


def _fresh(app):
    """The app on fresh copies of its components, whose transition counts nobody
    has computed."""
    return replace(app, components=tuple(replace(c) for c in app.components))


def _pair_counts(comp):
    """The component's call edges counted by (caller family, callee family) with
    ``np.add.at``, flattened row-major."""
    fam = comp.families.astype(np.intp)
    counts = np.zeros((FC, FC), dtype=np.intp)
    np.add.at(counts, (fam[comp.edges[:, 0]], fam[comp.edges[:, 1]]), 1)
    return counts.ravel()


def _markov_counts_reference(components):
    """Markov counts as extraction made them before the per-component cache: one
    bincount over the concatenated (caller family, callee family) pairs, in intp."""
    pairs = np.concatenate([c.families.astype(np.intp)[c.edges] for c in components]
                           or [np.empty((0, 2), dtype=np.intp)])
    return np.bincount(pairs[:, 0] * FC + pairs[:, 1], minlength=FC * FC).astype(np.float64)


@pytest.mark.parametrize("parse_parent", [True, False])
def test_injected_family_pairs_match_a_fresh_parse(small_corpus, parse_parent):
    # Chains of injections into parents whose components have, or have not, had
    # their transition counts computed already.
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    injects = [p for p in pset.perturbations if p.kind.startswith("inject_")]
    rng = random.Random(17)
    for target in small_corpus.malicious[:8]:
        app = _fresh(target)
        assert all("transition_counts" not in vars(c) for c in app.components)
        if parse_parent:
            extract_markov(app)
        for _ in range(rng.randint(1, 3)):
            app = apply_perturbation(app, rng.choice(injects), rng)
        for comp in app.components:
            expected = np.array([[comp.families[a], comp.families[b]] for a, b in comp.edges],
                                dtype=np.intp).reshape(-1, 2)
            assert np.array_equal(comp.transition_counts,
                                  np.bincount(expected[:, 0] * FC + expected[:, 1],
                                              minlength=FC * FC))
        assert np.array_equal(extract_markov(app), _markov_reference(app))


def test_transition_counts_equal_a_count_over_the_edges(small_corpus):
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    payloads = [p.payload.component for p in pset.perturbations
                if p.kind.startswith("inject_")]
    apps = small_corpus.benign + small_corpus.malicious + small_corpus.donors
    comps = [c for a in apps for c in a.components] + payloads
    assert payloads and len(comps) > len(payloads)
    for comp in comps:
        cached = comp.transition_counts
        assert cached.dtype == np.intp and cached.shape == (FC * FC,)
        assert not cached.flags.writeable
        assert np.array_equal(cached, _pair_counts(comp))
        assert cached.sum() == len(comp.edges)
        assert comp.transition_counts is cached


def _chains(small_corpus, seed):
    """Apps of ``small_corpus`` with 1 to 3 injections applied in a chain."""
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    injects = [p for p in pset.perturbations if p.kind.startswith("inject_")]
    rng = random.Random(seed)
    for target in small_corpus.malicious[:8] + small_corpus.benign[:4]:
        app = target
        for _ in range(rng.randint(1, 3)):
            app = apply_perturbation(app, rng.choice(injects), rng)
        yield app


def test_markov_counts_equal_the_concatenated_pair_reference(small_corpus):
    empty = CodeComponent(kind="service", classes=0, families=[], edges=[], api_calls=())
    no_edges = code_component(functions=["t.c0.f0@2"])
    component_lists = [[], [empty], [empty, empty], [no_edges], [empty, no_edges]]
    for app in small_corpus.benign + small_corpus.malicious + small_corpus.donors:
        component_lists.append(app.components)
        component_lists.append([empty, *app.components])
    for app in _chains(small_corpus, 23):
        component_lists.append(app.components)
        component_lists.append(app.components[-1:])
    for components in component_lists:
        counts, reference = markov_counts(components), _markov_counts_reference(components)
        assert counts.dtype == reference.dtype == np.float64
        assert np.array_equal(counts, reference)
        assert counts.tobytes() == reference.tobytes()


def test_a_component_keeps_no_array_sized_by_its_edges(small_corpus):
    # After extraction a component holds its families, its edges and its 121
    # transition counts; no per-edge derived array.
    apps = small_corpus.malicious[:6] + tuple(_chains(small_corpus, 5))
    for app in apps:
        extract_markov(app)
        for comp in app.components:
            arrays = {name: value.shape for name, value in vars(comp).items()
                      if isinstance(value, np.ndarray)}
            assert arrays == {"families": (len(comp.families),),
                              "edges": (len(comp.edges), 2),
                              "transition_counts": (FC * FC,)}


def test_injection_shares_one_component_per_payload(small_corpus):
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    inject = next(p for p in pset.perturbations if p.kind.startswith("inject_"))
    first, second = (apply_perturbation(a, inject, random.Random(0))
                     for a in small_corpus.malicious[:2])
    assert first.components[-1] is second.components[-1]
    assert first.components[-1].origin == "injected"
    assert inject.payload.component.origin == "original"


def test_markov_range_error_names_the_payload_edge_after_reuse():
    # A payload component with an out-of-range family cannot be made, not even
    # by ``replace`` from a valid one. A parent whose edge families are already
    # computed takes the valid payload; both extract as from scratch.
    comp = code_component(functions=["t.c0.f0@0", "t.c0.f1@1"])
    app = apk(components=[comp], edges=[("t.c0.f0@0", "t.c0.f1@1"),
                                        ("t.c0.f1@1", "t.c0.f0@0")])
    donor = apk(apk_id="d", components=[code_component(
        functions=["d.c0.f0@1", "d.c0.f1@0", "d.c0.f2@10"])],
        edges=[("d.c0.f0@1", "d.c0.f1@0"), ("d.c0.f1@0", "d.c0.f2@10")])
    for family, refusal in ((12, "function family above 10"), (-1, "negative function family")):
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            replace(donor.components[0], families=[1, 0, family])
    payload = InjectablePayload(
        source_apk_id="d", declared=declared(kind="service", name="Donor"),
        component=donor.components[0])
    assert np.array_equal(extract_markov(app), _markov_reference(app))
    injected = apply_perturbation(app, StubPerturbation("inject_service", payload),
                                  random.Random(0))
    for _ in range(2):
        assert np.array_equal(extract_markov(injected), _markov_reference(injected))
    assert np.array_equal(extract_markov(app), _markov_reference(app))


# ---------------------------------------------------------------------------
# Api cluster features


def test_cluster_map_is_balanced_and_total():
    cmap = build_api_cluster_map([f"api.{i}" for i in range(50)], seed=4)
    sizes = {}
    for c in cmap.values():
        sizes[c] = sizes.get(c, 0) + 1
    assert sorted(sizes) == list(range(CLUSTER_COUNT))
    assert sorted(sizes.values(), reverse=True) == [3, 3] + [2] * 22
    # Every id, in api-id order.
    assert list(cmap) == sorted(f"api.{i}" for i in range(50))


def test_cluster_map_deterministic_and_seed_sensitive():
    ids = [f"api.{i}" for i in range(40)]
    a = build_api_cluster_map(ids, seed=1)
    b = build_api_cluster_map(ids, seed=1)
    c = build_api_cluster_map(ids, seed=2)
    assert a == b
    assert a != c


def test_extract_api_cluster_is_presence_not_count():
    cmap = {"api.a": 2, "api.b": 0}
    comp = code_component(api_ids=["api.a", "api.a", "api.b"],
                          functions=["t.c0.f0@0"])
    vec = extract_api_cluster(apk(components=[comp]), cluster_columns(cmap))
    assert vec.dtype == np.float64
    assert vec.tolist() == [1.0, 0.0, 1.0] + [0.0] * (CLUSTER_COUNT - 3)


def test_extract_api_cluster_rejects_unmapped_id():
    cmap = {"api.a": 0}
    comp = code_component(api_ids=["api.mystery"], functions=["t.c0.f0@0"])
    with pytest.raises(ValueError, match="api.mystery"):
        extract_api_cluster(apk(components=[comp]), cluster_columns(cmap))


# ---------------------------------------------------------------------------
# Api-call column arrays against the per-key walk


def _walk_row(space, parts):
    """A binary or api_cluster row as it was made before column arrays: each
    key of the parts, or each api call's cluster, looked up one at a time."""
    row = np.zeros(space.width)
    if space.kind == "binary":
        for key in part_keys(parts):
            i = space.key_index.get(key)
            if i is not None:
                row[i] = 1.0
        return row
    for comp in parts.components:
        for api in comp.api_calls:
            cluster = space.cluster_map.get(api)
            if cluster is None:
                raise ValueError(f"api id missing from cluster map: {api}")
            row[cluster] = 1.0
    return row


def _bits(row):
    assert row.dtype == np.float64
    return row.tobytes()


def _column_setting(corpus):
    """(apps, perturbations, train apps, fresh spaces): a binary space over
    the train split's keys less every other api key, and two api_cluster spaces
    with different cluster maps."""
    apps = corpus.benign + corpus.malicious + corpus.donors
    pset = build_perturbation_set(load_default_catalog(), corpus.donors)
    train_apps = corpus.train_test_split()[0]
    ids = sorted({api for app in apps for comp in app.components
                  for api in comp.api_calls})
    keys = tuple(k for i, k in enumerate(build_vocab(train_apps))
                 if not (k.startswith("api:") and i % 2))
    spaces = [FeatureSpace("binary", keys=keys),
              *(FeatureSpace("api_cluster", cluster_map=build_api_cluster_map(ids, seed))
                for seed in (1, 2))]
    assert any("api:" + api not in spaces[0].key_index for api in ids)
    return apps, pset.perturbations, train_apps, spaces


def test_column_arrays_match_the_per_key_walk(small_corpus):
    apps, perturbations, _, spaces = _column_setting(small_corpus)
    injects = [p for p in perturbations if p.kind.startswith("inject_")]
    for space in spaces:
        for app in apps:
            assert _bits(space.extract(app)) == _bits(_walk_row(space, app_parts(app)))
        # Every app and every payload, each app extended by two payloads in turn.
        rng = random.Random(5)
        for k in range(max(len(apps), len(injects))):
            app = apps[k % len(apps)]
            state = space.state(app)
            for inject in (injects[k % len(injects)], injects[(7 * k + 3) % len(injects)]):
                bigger = apply_perturbation(app, inject, rng)
                state = space.extended(state, added_parts(app, bigger))
                app = bigger
                assert _bits(state) == _bits(_walk_row(space, app_parts(app)))


def test_oracle_answers_match_the_per_key_walk(small_corpus):
    _, perturbations, train_apps, spaces = _column_setting(small_corpus)
    labels = [a.ground_truth for a in train_apps]
    members = [train("linear", space, np.stack([_walk_row(space, app_parts(a))
                                                for a in train_apps]), labels, seed=3)
               for space in spaces]
    for model in [*members, Ensemble(members)]:
        oracle = Oracle(model)
        rng = random.Random(9)
        for app in small_corpus.malicious:
            # A gate query, then a chain of candidates answered from deltas.
            for _ in range(4):
                want = score(model, {s: _walk_row(s, app_parts(app)) for s in model.spaces})
                assert oracle.query(app) == want
                app = apply_perturbation(app, rng.choice(perturbations), rng)


def test_column_arrays_are_cached_and_read_only(small_corpus):
    apps, _, _, spaces = _column_setting(small_corpus)
    comp = next(c for app in apps for c in app.components if c.api_calls)
    for space in spaces:
        columns = space.api_columns
        assert space.api_columns is columns
        assert comp.api_calls not in columns
        cols = columns[comp.api_calls]
        assert cols.dtype == np.intp and cols.size
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0] = 0
        for app in apps:
            space.extract(app)
        assert columns[comp.api_calls] is cols
    # An api id outside the binary vocabulary sets no column.
    unseen = code_component(api_ids=["api.unseen"])
    assert spaces[0].api_columns[unseen.api_calls].size == 0


def test_threads_sharing_a_space_get_the_walked_rows(small_corpus):
    # The harness runs on one thread, but a caller may share a model between
    # threads, and so its spaces' column arrays: threads that build the same
    # tuple at once must still agree.
    apps, _, _, spaces = _column_setting(small_corpus)
    wants = [(s, [_bits(_walk_row(s, app_parts(a))) for a in apps]) for s in spaces]
    wrong = []

    def extract_all(space, want):
        if [_bits(space.extract(a)) for a in apps] != want:
            wrong.append(space.kind)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extract_all, args=(space, want))
                   for space, want in wants for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_unmapped_api_raises_on_every_call():
    space = FeatureSpace("api_cluster", cluster_map={"api.a": 0, "api.b": 1})
    known = code_component(api_ids=["api.a"])
    stray = code_component(api_ids=["api.b", "api.mystery", "api.other"])
    app = apk(components=[known, stray])
    state = space.state(apk(components=[known]))
    needle = r"^api id missing from cluster map: api\.mystery$"
    for _ in range(3):
        with pytest.raises(ValueError, match=needle):
            space.extract(app)
        with pytest.raises(ValueError, match=needle):
            space.extended(state, Parts((), (), (), (stray,)))
        assert stray.api_calls not in space.api_columns
    assert known.api_calls in space.api_columns


# ---------------------------------------------------------------------------
# Serialization


def test_vocab_round_trip():
    vocab = build_vocab([_feature_apk()])
    space = FeatureSpace("binary", keys=vocab)
    back = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
    assert back.keys == vocab
    assert back == space


def _cluster_space(count, seed=9):
    return FeatureSpace("api_cluster", cluster_map=build_api_cluster_map(
        [f"api.{i}" for i in range(count)], seed))


def test_cluster_map_round_trip():
    space = _cluster_space(7)
    back = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
    assert back == space
    assert back.cluster_map == space.cluster_map
    assert list(back.cluster_map) == list(space.cluster_map)


def test_cluster_map_records_its_24_clusters_and_refuses_any_other_count():
    doc = space_to_dict(_cluster_space(30))
    assert doc["cluster_map"]["cluster_count"] == 24
    for count, needle in ((3, "3, not 24"), (0, "0, not 24"), ("3", '"3", not an integer')):
        with pytest.raises(ValueError, match=f"^cluster_count is {re.escape(needle)}$"):
            space_from_dict({**doc, "cluster_map": {**doc["cluster_map"], "cluster_count": count}})
