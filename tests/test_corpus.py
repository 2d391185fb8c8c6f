"""App model, corpus generator, and perturbation application."""
import base64
import hashlib
import json
import random
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from apk_builders import (
    CORPUS_LISTS,
    MALFORMED_ARRAYS,
    StubPerturbation,
    apk,
    code_component,
    declared,
    file_document,
    file_text,
    saved_document,
    set_stored_value,
    write_file,
)
from pst_evade import detectors, perturbset
from pst_evade.catalog import (ARRAY_DTYPES, canonical_json, check_format, load_default_catalog,
                              pack_array, unpack_array)
from pst_evade.corpus import (
    ACTION_MAIN,
    API_FAMILY_COUNT,
    CATEGORY_LAUNCHER,
    CORPUS_FORMAT,
    ApkModel,
    CodeComponent,
    CorpusSpec,
    DeclaredComponent,
    Permission,
    _component_from_dict,
    _component_to_dict,
    apk_to_dict,
    contains,
    generate_corpus,
    load_corpus,
    save_corpus,
    spec_from_dict,
    spec_to_dict,
    validate_apk,
    verify_isolation,
)
from pst_evade.detectors import DetectorModel, Ensemble, FeatureSpace, save_model
from pst_evade.perturbset import (
    InjectablePayload,
    apply_perturbation,
    build_perturbation_set,
    random_name,
)

NAME_RE = re.compile(r"^[a-z0-9]{20}$")


def _after_names(seed, *lengths):
    """The state of ``random.Random(seed)`` after drawing names of these lengths."""
    rng = random.Random(seed)
    for length in lengths:
        random_name(rng, length)
    return rng.getstate()


# ---------------------------------------------------------------------------
# Generator


def test_corpus_counts_and_ids(small_corpus):
    assert len(small_corpus.benign) == 60
    assert len(small_corpus.malicious) == 60
    assert len(small_corpus.donors) == 12
    assert [a.id for a in small_corpus.benign[:2]] == ["b000", "b001"]
    assert [a.id for a in small_corpus.malicious[-1:]] == ["m059"]
    assert [a.id for a in small_corpus.donors[:2]] == ["d000", "d001"]
    assert all(a.ground_truth == "benign" for a in small_corpus.benign)
    assert all(a.ground_truth == "malicious" for a in small_corpus.malicious)
    assert all(a.ground_truth == "benign" for a in small_corpus.donors)


def test_generated_apps_are_valid(small_corpus):
    for app in small_corpus.benign + small_corpus.malicious + small_corpus.donors:
        validate_apk(app)
        assert verify_isolation(app)
        mains = [c for c in app.declared_components
                 if c.name.endswith(".Main")]
        assert len(mains) == 1
        assert ACTION_MAIN in mains[0].intent_actions
        assert CATEGORY_LAUNCHER in mains[0].intent_categories


def test_generated_function_ids_carry_families(small_corpus):
    app = small_corpus.malicious[0]
    fams = {int(f) for c in app.components for f in c.families}
    assert fams
    assert min(fams) >= 0
    assert max(fams) < API_FAMILY_COUNT


def test_generator_is_deterministic(small_corpus):
    again = generate_corpus(CorpusSpec(n_benign=60, n_malicious=60,
                                       donor_count=12, seed=11))
    assert again == small_corpus


def test_generator_seed_changes_output():
    a = generate_corpus(CorpusSpec(n_benign=4, n_malicious=4, donor_count=2, seed=1))
    b = generate_corpus(CorpusSpec(n_benign=4, n_malicious=4, donor_count=2, seed=2))
    assert (a.benign, a.malicious, a.donors) != (b.benign, b.malicious, b.donors)


def test_donor_component_scale():
    # Donor components per kind follow the configured means; 4-sigma Poisson bands.
    spec = CorpusSpec(n_benign=2, n_malicious=2, donor_count=100, seed=7)
    corpus = generate_corpus(spec)
    per_kind = {"service": 0, "receiver": 0, "provider": 0}
    func_counts = []
    for donor in corpus.donors:
        for comp in donor.components:
            per_kind[comp.kind] += 1
            if comp.kind == "service":
                func_counts.append(len(comp.families))
    assert 66 <= per_kind["service"] <= 150
    assert 63 <= per_kind["receiver"] <= 145
    assert 5 <= per_kind["provider"] <= 44
    mean_funcs = sum(func_counts) / len(func_counts)
    assert 850 <= mean_funcs <= 896


def test_train_test_split_is_trailing_per_class(small_corpus):
    train, test = small_corpus.train_test_split()
    assert len(train) == 90 and len(test) == 30
    test_ids = [a.id for a in test]
    assert test_ids == [f"b{i:03d}" for i in range(45, 60)] + \
                       [f"m{i:03d}" for i in range(45, 60)]
    assert set(a.id for a in train).isdisjoint(test_ids)


# ---------------------------------------------------------------------------
# Perturbation application


def _plain_apk():
    main = declared(name="com.app.t000.Main", actions=[ACTION_MAIN],
                    categories=[CATEGORY_LAUNCHER])
    comp = code_component(functions=["t000.c0.f0@0", "t000.c0.f1@1"],
                          api_ids=["api.pkg00.fn000"])
    return apk(features=["android.hardware.camera"], perms=[("P", "normal")],
               declared_components=[main], components=[comp],
               edges=[("t000.c0.f0@0", "t000.c0.f1@1")])


def test_add_uses_feature():
    rng = random.Random(5)
    base = _plain_apk()
    out = apply_perturbation(base, StubPerturbation("uses_feature", "android.hardware.nfc"), rng)
    assert out is not base
    assert "android.hardware.nfc" in out.uses_features
    assert contains(_plain_apk(), out)


def test_uses_feature_noop_consumes_no_rng():
    rng = random.Random(5)
    state = rng.getstate()
    base = _plain_apk()
    out = apply_perturbation(
        base, StubPerturbation("uses_feature", "android.hardware.camera"), rng)
    assert out is base
    assert rng.getstate() == state


def test_permission_noop_matches_by_name():
    # Same name at a different protection level still counts as present.
    base = _plain_apk()
    out = apply_perturbation(
        base, StubPerturbation("permission", Permission("P", "signature")), random.Random(0))
    assert out is base
    out = apply_perturbation(
        base, StubPerturbation("permission", Permission("Q", "signature")), random.Random(0))
    assert out is not base
    assert Permission("Q", "signature") in out.permissions


def test_activity_action_creates_fresh_activity():
    base = _plain_apk()
    rng = random.Random(7)
    out = apply_perturbation(
        base, StubPerturbation("activity_action", "android.intent.action.VIEW"), rng)
    assert out is not base
    added = [c for c in out.declared_components
             if "android.intent.action.VIEW" in c.intent_actions]
    assert len(added) == 1
    comp = added[0]
    assert comp.kind == "activity"
    assert NAME_RE.match(comp.name)
    assert comp.intent_categories == frozenset()
    # The component's name, then the draws of a process name and a data URI,
    # which no feature reads: they keep every later draw where it was.
    assert rng.getstate() == _after_names(7, 20, 8, 16)
    assert len(out.components) == len(_plain_apk().components)


def test_broadcast_action_creates_receiver():
    out = apply_perturbation(
        _plain_apk(),
        StubPerturbation("broadcast_action", "android.intent.action.BOOT_COMPLETED"),
        random.Random(7))
    added = [c for c in out.declared_components
             if "android.intent.action.BOOT_COMPLETED" in c.intent_actions]
    assert added[0].kind == "receiver"


def test_category_creates_activity_with_category():
    out = apply_perturbation(
        _plain_apk(), StubPerturbation("category", "android.intent.category.DEFAULT"),
        random.Random(7))
    added = [c for c in out.declared_components
             if "android.intent.category.DEFAULT" in c.intent_categories]
    assert added[0].kind == "activity"
    assert added[0].intent_actions == frozenset()


def test_action_presence_anywhere_is_noop():
    rng = random.Random(7)
    state = rng.getstate()
    base = _plain_apk()
    out = apply_perturbation(base, StubPerturbation("activity_action", ACTION_MAIN), rng)
    assert out is base
    assert rng.getstate() == state


def test_apply_is_deterministic_under_seed():
    p = StubPerturbation("activity_action", "android.intent.action.VIEW")
    a = apply_perturbation(_plain_apk(), p, random.Random(13))
    b = apply_perturbation(_plain_apk(), p, random.Random(13))
    assert canonical_json(apk_to_dict(a)) == canonical_json(apk_to_dict(b))


def _inject_payload():
    decl = declared(kind="service", name="com.donor.Svc0")
    comp = CodeComponent(kind="service", families=[0, 1], edges=[[0, 1]],
                         api_calls=("api.pkg01.fn001",),
                         origin="original")
    return InjectablePayload(source_apk_id="d000", declared=decl, component=comp)


def test_inject_service():
    base = _plain_apk()
    rng = random.Random(3)
    out = apply_perturbation(base, StubPerturbation("inject_service", _inject_payload()), rng)
    assert out is not base
    assert ("service", "com.donor.Svc0") in {(c.kind, c.name) for c in out.declared_components}
    # The draw of a process name, which no feature reads, stays.
    assert rng.getstate() == _after_names(3, 8)
    injected = [c for c in out.components if c.origin == "injected"]
    assert len(injected) == 1
    assert injected[0].families.tolist() == [0, 1]
    # The original components stay as they were; the payload's edges arrive
    # inside its own component.
    assert out.components[:-1] == base.components
    assert injected[0].edges.tolist() == [[0, 1]]
    assert contains(base, out)
    assert verify_isolation(out)
    validate_apk(out)


def test_inject_duplicate_is_noop():
    out = apply_perturbation(
        _plain_apk(), StubPerturbation("inject_service", _inject_payload()),
        random.Random(3))
    rng = random.Random(4)
    state = rng.getstate()
    out2 = apply_perturbation(
        out, StubPerturbation("inject_service", _inject_payload()), rng)
    assert out2 is out
    assert rng.getstate() == state


def test_every_app_an_injection_lands_in_holds_the_payloads_own_objects():
    # The payload's declaration and its injected component are each one object,
    # whatever app they are added to.
    payload = _inject_payload()
    inject = StubPerturbation("inject_service", payload)
    outs = [apply_perturbation(app, inject, random.Random(seed))
            for seed, app in enumerate([_plain_apk(), apk(apk_id="t001")])]
    for out in outs:
        assert out.declared_components[-1] is payload.declared
        assert out.components[-1] is payload.injected_component


def test_noop_keeps_rng_stream_aligned():
    # A no-op before a randomized apply must not shift its outcome.
    base = _plain_apk()
    noop = StubPerturbation("uses_feature", "android.hardware.camera")
    randomized = StubPerturbation("activity_action", "android.intent.action.VIEW")
    rng1 = random.Random(21)
    mid = apply_perturbation(base, noop, rng1)
    a = apply_perturbation(mid, randomized, rng1)
    b = apply_perturbation(base, randomized, random.Random(21))
    assert canonical_json(apk_to_dict(a)) == canonical_json(apk_to_dict(b))


def test_a_taken_component_name_is_drawn_again(monkeypatch):
    # The first name drawn is that of an activity the app declares.
    names = iter(["taken", "fresh", "proc", "uri"])
    monkeypatch.setattr(perturbset, "random_name", lambda rng, length: next(names))
    base = apk(declared_components=[declared(name="taken")])
    out = apply_perturbation(
        base, StubPerturbation("activity_action", "android.intent.action.VIEW"),
        random.Random(0))
    assert [c.name for c in out.declared_components] == ["taken", "fresh"]
    assert next(names, None) is None


def test_random_perturbation_chain_stays_additive(small_corpus):
    catalog = load_default_catalog()
    rng = random.Random(99)
    donor = small_corpus.donors[0]
    donor_comp = next(c for c in donor.components if c.families.size)
    donor_decl = next(d for d in donor.declared_components
                      if d.kind == donor_comp.kind)
    payload = InjectablePayload(source_apk_id=donor.id, declared=donor_decl,
                                component=donor_comp)
    pool = (
        [StubPerturbation("uses_feature", f) for f in catalog.hardware_features[:10]]
        + [StubPerturbation("permission", Permission(n, level))
           for n, level in catalog.permissions if level == "normal"][:10]
        + [StubPerturbation("activity_action", a) for a in catalog.activity_actions[:5]]
        + [StubPerturbation("broadcast_action", a) for a in catalog.broadcast_actions[:5]]
        + [StubPerturbation("category", c) for c in catalog.categories[:5]]
        + [StubPerturbation("inject_" + donor_comp.kind, payload)]
    )
    base = small_corpus.malicious[3]
    cur = base
    for _ in range(30):
        prev = cur
        cur = apply_perturbation(cur, rng.choice(pool), rng)
        assert contains(prev, cur)
        validate_apk(cur)
    assert contains(base, cur)
    assert verify_isolation(cur)


def _apply_by_replace(apk, perturbation, rng):
    """``apply_perturbation`` written with ``dataclasses.replace``, which carries
    every field it is not told to change: the reference for the constructors
    ``apply_perturbation`` calls, field for field and draw for draw."""
    kind, payload, declared = perturbation.kind, perturbation.payload, apk.declared_components
    taken = {(c.kind, c.name) for c in declared}
    if kind == "uses_feature":
        if payload in apk.uses_features:
            return apk
        return replace(apk, uses_features=apk.uses_features | {payload})
    if kind == "permission":
        if any(p.name == payload.name for p in apk.permissions):
            return apk
        return replace(apk, permissions=apk.permissions | {payload})
    if kind.startswith("inject_"):
        if (payload.declared.kind, payload.declared.name) in taken:
            return apk
        random_name(rng, 8)
        return replace(apk, declared_components=declared + (payload.declared,),
                       components=apk.components + (payload.injected_component,))
    field = "intent_categories" if kind == "category" else "intent_actions"
    if any(payload in getattr(c, field) for c in declared):
        return apk
    comp_kind = "receiver" if kind == "broadcast_action" else "activity"
    name = random_name(rng, 20)
    while (comp_kind, name) in taken:
        name = random_name(rng, 20)
    added, none = frozenset({payload}), frozenset()
    decl = DeclaredComponent(kind=comp_kind, name=name,
                             intent_actions=none if kind == "category" else added,
                             intent_categories=added if kind == "category" else none)
    random_name(rng, 8)
    random_name(rng, 16)
    return replace(apk, declared_components=declared + (decl,))


def test_every_perturbation_kind_matches_the_replace_reference(small_corpus, full_pset):
    # A payload whose declaration holds intents, which the donors' declarations
    # do not.
    rich = InjectablePayload(
        source_apk_id="d000", component=_inject_payload().component,
        declared=declared(kind="service", name="com.donor.Rich", actions=["A"],
                          categories=["C"]))
    perturbations = list(full_pset.perturbations) + [StubPerturbation("inject_service", rich)]
    assert {p.kind for p in perturbations} == {
        "uses_feature", "permission", "activity_action", "broadcast_action", "category",
        "inject_service", "inject_receiver", "inject_provider"}
    for i, app in enumerate([_plain_apk(), *small_corpus.malicious[:2]]):
        for j, perturbation in enumerate(perturbations):
            # Applying twice also takes each kind's already-present path.
            got, want = app, app
            for _ in range(2):
                rng, ref_rng = random.Random(i * 1000 + j), random.Random(i * 1000 + j)
                got_out = apply_perturbation(got, perturbation, rng)
                want_out = _apply_by_replace(want, perturbation, ref_rng)
                assert (got_out is got) == (want_out is want)
                assert got_out == want_out
                assert rng.getstate() == ref_rng.getstate()
                got, want = got_out, want_out


def test_apply_perturbation_builds_every_field():
    # apply_perturbation builds these with their constructors, field by field
    # in this order: a field added to one of them must be added there too.
    assert [f.name for f in fields(ApkModel)] == [
        "id", "uses_features", "permissions", "declared_components", "components",
        "ground_truth"]
    assert [f.name for f in fields(DeclaredComponent)] == [
        "kind", "name", "intent_actions", "intent_categories"]
    assert [f.name for f in fields(CodeComponent)] == [
        "kind", "families", "edges", "api_calls", "origin"]


# ---------------------------------------------------------------------------
# Containment and isolation edges


def test_contains_fails_on_removal():
    base = _plain_apk()
    stripped = apk(features=[], perms=[("P", "normal")],
                   declared_components=base.declared_components,
                   components=base.components)
    assert not contains(base, stripped)


def test_isolation_rejects_cross_origin_edge():
    # Edges are local to a component, so a call from original into injected
    # code has no representation: the builder refuses it.
    orig = code_component(functions=["a.c0.f0@0"])
    inj = code_component(kind="receiver", functions=["d.c0.f0@0"], origin="injected")
    with pytest.raises(ValueError, match="crosses components"):
        apk(components=[orig, inj], edges=[("a.c0.f0@0", "d.c0.f0@0")])


def test_validate_rejects_duplicate_declared():
    dup = declared(name="X")
    with pytest.raises(ValueError):
        validate_apk(apk(declared_components=[dup, dup]))


def test_validate_rejects_unknown_edge_endpoint():
    # An endpoint outside the component is a local index out of range, which the
    # component refuses when it is made, so no app can hold it.
    with pytest.raises(ValueError, match="^edge index out of range for 1 functions$"):
        CodeComponent(kind="service", families=[0], edges=[[0, 1]], api_calls=())


@pytest.mark.parametrize("field,value,refusal", [
    ("kind", "activity", "bad code component kind: activity"),
    ("origin", "grafted", "bad origin: grafted"),
    ("api_calls", ["api.a"], "api_calls is a list, not a list of api call ids"),
    ("api_calls", ("api.a", 7), "api call id is not a string: 7"),
    ("families", [0, -1], "negative function family"),
    ("families", [0, 11], "function family above 10"),
    ("edges", [[0, 2]], "edge index out of range for 2 functions"),
    ("edges", [[-1, 0]], "edge index out of range for 2 functions"),
    # Values that the narrow in-memory dtypes would wrap into range: 259 is 3 as
    # uint8, -256 is 0, 2**16 is 0 as uint16, and 2**32 is 0 as int32.
    ("families", [0, 259], "function family above 10"),
    ("families", [0, -256], "negative function family"),
    ("edges", [[0, 2 ** 32]], "edge index out of range for 2 functions"),
    ("edges", [[0, 2 ** 16]], "edge index out of range for 2 functions"),
    ("families", [0.0, 1.0], "code component families must be integers, got float64"),
])
def test_code_component_refuses_a_malformed_value(field, value, refusal):
    good = {"kind": "service", "families": [0, 1], "edges": [[0, 1]],
            "api_calls": ("api.a",), "origin": "original"}
    CodeComponent(**good)
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        CodeComponent(**{**good, field: value})


# ---------------------------------------------------------------------------
# Serialization


def test_spec_round_trip():
    spec = CorpusSpec(n_benign=5, seed=42)
    assert spec_from_dict(spec_to_dict(spec)) == spec


@pytest.mark.parametrize("doc,needle", [
    ({"n_benign": 4, "n_malicous": 4}, "corpus spec: unknown key 'n_malicous'"),
    ({"n_benign": "x"}, "corpus spec: n_benign is 'x', not a non-negative integer"),
    ({"donor_count": -1}, "corpus spec: donor_count is -1, not a non-negative integer"),
    ({"n_malicious": 2.0}, "corpus spec: n_malicious is 2.0, not a non-negative integer"),
    ({"n_benign": True}, "corpus spec: n_benign is True, not a non-negative integer"),
    ({"n_benign": 4, "edge_factor": 2.0}, "corpus spec: unknown key 'edge_factor'"),
    ({"seed": "x"}, "corpus spec: seed is 'x', not a non-negative integer"),
])
def test_spec_from_dict_refuses_unknown_keys_and_bad_counts(doc, needle):
    with pytest.raises(ValueError) as exc:
        spec_from_dict(doc)
    assert str(exc.value) == needle


def test_corpus_file_round_trip(tmp_path):
    corpus = generate_corpus(CorpusSpec(n_benign=3, n_malicious=3, donor_count=2,
                                        seed=5))
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_corpus_file_stores_component_arrays_as_narrow_base64(tmp_path):
    corpus = generate_corpus(CorpusSpec(n_benign=2, n_malicious=2, donor_count=1, seed=5))
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    doc = file_document(path, CORPUS_LISTS)
    assert doc["format"] == 7
    comp = corpus.benign[0].components[0]
    stored = doc["benign"][0]["code"]["components"][0]
    # Families lie in [0, 11) and edge indices below the function count.
    assert stored["families"]["dtype"] == "<u1"
    assert stored["edges"]["dtype"] == ("<u1" if len(comp.families) <= 256 else "<u2")
    for name, arr in (("families", comp.families), ("edges", comp.edges.ravel())):
        raw = base64.b64decode(stored[name]["data"])
        assert np.frombuffer(raw, stored[name]["dtype"]).tolist() == arr.tolist()
    assert stored["api_calls"] == list(comp.api_calls)
    assert stored["api_calls"] and all(isinstance(a, str) for a in stored["api_calls"])
    assert set(doc["benign"][0]["code"]) == {"components"}


def test_saving_a_corpus_twice_gives_the_same_bytes(tmp_path):
    corpus = generate_corpus(CorpusSpec(n_benign=3, n_malicious=3, donor_count=2, seed=5))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_corpus(corpus, first)
    save_corpus(load_corpus(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("empty", [False, True], ids=["small", "empty"])
def test_saved_corpus_is_the_canonical_document(small_corpus, tmp_path, empty):
    # The writer streams app by app; its bytes are the canonical lines of the
    # document it holds: line 1 with each app list given as its length, then
    # one app a line, the lists in sorted key order.
    corpus = (generate_corpus(CorpusSpec(n_benign=0, n_malicious=0, donor_count=0, seed=3))
              if empty else small_corpus)
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    doc = file_document(path, CORPUS_LISTS)
    assert path.read_bytes() == file_text(doc, CORPUS_LISTS).encode("utf-8")
    assert [len(doc[key]) for key in CORPUS_LISTS] == [
        len(corpus.benign), len(corpus.malicious), len(corpus.donors)]
    assert load_corpus(path) == corpus
    if empty:
        assert path.read_bytes().startswith(
            b'{"benign":0,"donors":0,"format":7,"malicious":0,"spec":{')
        assert path.read_bytes().count(b"\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]


@pytest.mark.parametrize("existing", [True, False])
def test_a_failed_save_leaves_the_file_as_it_was(tmp_path, monkeypatch, existing):
    import pst_evade.corpus as corpus_module

    corpus = generate_corpus(CorpusSpec(n_benign=3, n_malicious=3, donor_count=2, seed=5))
    path = tmp_path / "corpus.json"
    if existing:
        save_corpus(generate_corpus(CorpusSpec(n_benign=2, n_malicious=2, donor_count=1,
                                               seed=4)), path)
    before = path.read_bytes() if existing else None
    calls = []

    def failing_apk_to_dict(apk):
        calls.append(apk.id)
        if len(calls) == 3:
            raise RuntimeError("third app")
        return apk_to_dict(apk)

    monkeypatch.setattr(corpus_module, "apk_to_dict", failing_apk_to_dict)
    with pytest.raises(RuntimeError, match="^third app$"):
        save_corpus(corpus, path)
    assert len(calls) == 3
    assert (path.read_bytes() if path.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == (["corpus.json"] if existing else [])


@pytest.mark.parametrize("existing", [True, False])
def test_a_failed_model_save_leaves_the_file_as_it_was(tmp_path, monkeypatch, existing):
    # A model file is written one ensemble member at a time, through the same
    # temporary sibling as a corpus file.
    def member(b):
        return DetectorModel(kind="linear", space=FeatureSpace("binary", keys=("perm:P",)),
                             params={"w": np.array([1.0]), "b": b})

    path = tmp_path / "model.json"
    if existing:
        save_model(member(0.5), path)
    before = path.read_bytes() if existing else None
    calls, scorer_to_dict = [], detectors._scorer_to_dict

    def failing_scorer_to_dict(model):
        calls.append(model)
        if len(calls) == 2:
            raise RuntimeError("second member")
        return scorer_to_dict(model)

    monkeypatch.setattr(detectors, "_scorer_to_dict", failing_scorer_to_dict)
    with pytest.raises(RuntimeError, match="^second member$"):
        save_model(Ensemble([member(1.0), member(2.0), member(3.0)]), path)
    assert len(calls) == 2
    assert (path.read_bytes() if path.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == (["model.json"] if existing else [])


def test_load_corpus_holds_no_parsed_document(tmp_path):
    # Beyond the corpus it builds, the line reader holds one app's line (under
    # 0.1 MB here); a parsed document would take more than the file's size
    # (11 MB). The peak is taken above what the loaded corpus holds, so the
    # apps themselves do not count.
    path = tmp_path / "corpus.json"
    save_corpus(generate_corpus(CorpusSpec(n_benign=200, n_malicious=200, donor_count=40,
                                           seed=3)), path)
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus.benign) == 200
    assert peak - held < path.stat().st_size / 10, (peak - held, path.stat().st_size)


def _held(make):
    """What ``make()`` returns, and the traced memory it still holds."""
    tracemalloc.start()
    try:
        value = make()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held


def test_a_loaded_corpus_holds_about_what_the_generated_one_does(tmp_path):
    # A loaded corpus shares its names, permissions and intent sets as the
    # generator does; with a str object per name read it would hold about half
    # as much again.
    spec = CorpusSpec(n_benign=200, n_malicious=200, donor_count=40, seed=3)
    generated, made = _held(lambda: generate_corpus(spec))
    save_corpus(generated, tmp_path / "corpus.json")
    # A first load, kept while the second is measured, interns the corpus's
    # names: the interpreter's table of them, which may grow or be rebuilt as
    # they are added, is not the corpus's to count.
    first = load_corpus(tmp_path / "corpus.json")
    loaded, read = _held(lambda: load_corpus(tmp_path / "corpus.json"))
    assert loaded == first == generated
    assert read <= 1.05 * made, (read, made)


def _distinct(values) -> tuple[int, int]:
    """(distinct objects, distinct values) among ``values``."""
    values = list(values)
    return len({id(v) for v in values}), len(set(values))


def test_a_loaded_corpus_holds_each_name_and_permission_once(tmp_path):
    generated = generate_corpus(CorpusSpec(n_benign=12, n_malicious=12, donor_count=6, seed=3))
    save_corpus(generated, tmp_path / "corpus.json")
    corpus = load_corpus(tmp_path / "corpus.json")
    assert corpus == generated
    apps = corpus.benign + corpus.malicious + corpus.donors
    api_ids = [api for app in apps for c in app.components for api in c.api_calls]
    declared = [c for app in apps for c in app.declared_components]
    for values in (api_ids,
                   [p for app in apps for p in app.permissions],
                   [p.name for app in apps for p in app.permissions],
                   [f for app in apps for f in app.uses_features],
                   [n for c in declared for n in c.intent_actions | c.intent_categories],
                   [c.kind for c in declared] + [c.kind for app in apps for c in app.components]):
        objects, distinct = _distinct(values)
        assert objects == distinct
    assert len(api_ids) > 10 * _distinct(api_ids)[1]
    # The empty intent set, and each launcher set, is one object.
    for names in ([], [ACTION_MAIN], [CATEGORY_LAUNCHER]):
        held = [s for c in declared for s in (c.intent_actions, c.intent_categories)
                if s == frozenset(names)]
        assert len(held) > 1 and len({id(s) for s in held}) == 1


# sha256 of the corpus file written for this spec. The component arrays and the
# stock ensemble are pinned elsewhere; this pins the rest of the layout, its
# lines and the corpus's "code": {"components": [...]} nesting too.
PINNED_FILES_SPEC = CorpusSpec(n_benign=6, n_malicious=6, donor_count=4, seed=5)
PINNED_CORPUS_SHA256 = "ebad52d5d9bb84ecb507cce168a0de71bf23cde53fdab6cbc1ee45219d60eae8"


def test_saved_corpus_bytes_are_pinned(tmp_path):
    save_corpus(generate_corpus(PINNED_FILES_SPEC), tmp_path / "corpus.json")
    assert hashlib.sha256((tmp_path / "corpus.json").read_bytes()).hexdigest() == \
        PINNED_CORPUS_SHA256


# ---------------------------------------------------------------------------
# The array codec against the format-4 list form it replaced


@pytest.mark.parametrize("values,dtype", [
    ([], "<u1"),
    ([0, 255], "<u1"),
    ([0, 256], "<u2"),
    ([-1, 127], "<i1"),
    ([-128, 128], "<i2"),
    ([65535], "<u2"),
    ([65536], "<u4"),
    ([-1, 65535], "<i4"),
    ([2 ** 32 - 1], "<u4"),
    ([2 ** 32], "<i8"),
    ([-(2 ** 31)], "<i4"),
    ([-(2 ** 31) - 1], "<i8"),
    ([np.iinfo(np.int64).min, np.iinfo(np.int64).max], "<i8"),
])
def test_pack_array_picks_the_narrowest_dtype_and_round_trips(values, dtype):
    a = np.array(values, dtype=np.int64)
    doc = json.loads(json.dumps(pack_array(a)))
    assert doc["dtype"] == dtype
    back = unpack_array(doc, "families")
    assert back.dtype == np.dtype(dtype)
    # The format-4 reader built the same intp array from the JSON list.
    want = np.array(a.tolist(), dtype=np.intp)
    got = np.array(back, dtype=np.intp)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("families,edges", [
    ([], []),
    ([3], [[0, 0]]),
    (list(range(11)) * 30, [[329, 0], [1, 2]]),
])
def test_component_arrays_round_trip_by_value(families, edges):
    comp = CodeComponent(kind="service", families=families, edges=edges,
                         api_calls=("api.pkg00.fn000",))
    back = _component_from_dict(json.loads(json.dumps(_component_to_dict(comp))), "component")
    assert back == comp
    assert back.edges.shape == comp.edges.shape == (len(edges), 2)


def _holds_narrow_read_only_arrays(comp):
    edge_dtype = np.uint16 if len(comp.families) <= 2 ** 16 else np.int32
    return (comp.families.dtype == np.uint8 and comp.families.ndim == 1
            and comp.edges.dtype == edge_dtype and comp.edges.shape[1:] == (2,)
            and not comp.families.flags.writeable and not comp.edges.flags.writeable)


def test_components_hold_uint8_families_and_uint16_edges(tmp_path):
    # Generated, loaded, payload and injected components all hold the same two
    # dtypes for the same function count, read-only, so equality and hashing by
    # bytes are by value.
    corpus = generate_corpus(PINNED_FILES_SPEC)
    save_corpus(corpus, tmp_path / "corpus.json")
    loaded = load_corpus(tmp_path / "corpus.json")
    pset = build_perturbation_set(load_default_catalog(), loaded.donors)
    injects = [p for p in pset.perturbations if p.kind.startswith("inject_")]
    injected = apply_perturbation(corpus.malicious[0], injects[0], random.Random(0))
    apps = [a for c in (corpus, loaded) for a in c.benign + c.malicious + c.donors]
    comps = [comp for a in apps + [injected] for comp in a.components]
    comps += [p.payload.component for p in injects]
    assert injects and any(c.origin == "injected" for c in injected.components)
    assert all(_holds_narrow_read_only_arrays(c) for c in comps)
    for wide in (np.int64, np.uint64, np.int16):
        comp = CodeComponent(kind="service", families=np.array([0, 10], dtype=wide),
                             edges=np.array([[1, 0]], dtype=wide), api_calls=())
        assert _holds_narrow_read_only_arrays(comp)
        assert comp == CodeComponent(kind="service", families=[0, 10],
                                     edges=[[1, 0]], api_calls=())


@pytest.mark.parametrize("n_functions,edge_dtype", [(2 ** 16, np.uint16),
                                                    (2 ** 16 + 1, np.int32)])
def test_edges_widen_to_int32_only_past_65536_functions(n_functions, edge_dtype):
    # The last function's index is 65 535 with 2**16 functions, which uint16
    # holds, and 65 536 with one more, which it would hold as 0.
    last = n_functions - 1
    edges = [[0, last], [last, 1], [last, last]]

    def make(dtype):
        return CodeComponent(kind="service",
                             families=np.arange(n_functions, dtype=dtype) % 11,
                             edges=np.array(edges, dtype=dtype), api_calls=())

    comp = make(np.int64)
    assert comp.edges.dtype == edge_dtype and _holds_narrow_read_only_arrays(comp)
    assert comp.edges.tolist() == edges
    assert comp == make(np.int64) and hash(comp) == hash(make(np.int64))
    assert comp == make(np.uint32) and hash(comp) == hash(make(np.uint32))


# ---------------------------------------------------------------------------
# Loading refuses other formats and malformed apps


def _corpus_doc(tmp_path):
    """The document of a small corpus's file, saved in ``tmp_path``."""
    return saved_document(save_corpus, generate_corpus(CorpusSpec(
        n_benign=3, n_malicious=3, donor_count=2, seed=5)), tmp_path / "source.json",
                          CORPUS_LISTS)


@pytest.mark.parametrize("found", [None, 1, 2, 3, 4, 5, 6])
def test_load_corpus_refuses_other_formats(tmp_path, found):
    doc = _corpus_doc(tmp_path)
    if found is None:
        del doc["format"]  # written before corpus files were versioned
    else:
        doc["format"] = found
    path = tmp_path / "corpus.json"
    path.write_text(canonical_json(doc))  # one line, as every earlier format was written
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert str(exc.value) == (f"{path}: corpus format {found or 1} is not supported; "
                              "regenerate it with gen-corpus")


def test_check_format_counts_a_missing_format_as_format_1():
    assert check_format({}, "corpus", 1, "regenerate it") == {}
    with pytest.raises(ValueError, match="^corpus format 1 is not supported; regenerate it$"):
        check_format({}, "corpus", CORPUS_FORMAT, "regenerate it")


@pytest.mark.parametrize("what,doc", [("corpus", []), ("model", "model"), ("report", None)])
def test_check_format_refuses_a_top_level_that_is_not_an_object(what, doc):
    with pytest.raises(ValueError, match=f"^{what} is not a JSON object$"):
        check_format(doc, what, 1, "regenerate it")


def _edge_out_of_range(comp, app):
    set_stored_value(comp, "edges", 1, len(unpack_array(comp["families"], "families")))


def _negative_edge_index(comp, app):
    set_stored_value(comp, "edges", 0, -1)


def _negative_family(comp, app):
    set_stored_value(comp, "families", 0, -1)


def _edge_wrapping_to_zero(comp, app):
    # Stored as <i8; uint16 and int32 would hold it as 0.
    set_stored_value(comp, "edges", 1, 2 ** 32)


def _family_wrapping_into_range(comp, app):
    # Stored as <u2; uint8 would hold it as 3.
    set_stored_value(comp, "families", 0, 259)


def _bad_origin(comp, app):
    comp["origin"] = "grafted"


def _non_string_api_id(comp, app):
    comp["api_calls"].append(7)


def _api_calls_string(comp, app):
    comp["api_calls"] = "api.pkg00.fn000"


def _duplicate_declared(comp, app):
    decls = app["manifest"]["declared_components"]
    decls.append(dict(decls[0]))


def _widget_declared(comp, app):
    app["manifest"]["declared_components"][0]["kind"] = "widget"


@pytest.mark.parametrize("corrupt,needle", [
    (_edge_out_of_range, "component {i}: edge index out of range"),
    (_negative_edge_index, "component {i}: edge index out of range"),
    (_negative_family, "component {i}: negative function family"),
    (_edge_wrapping_to_zero, "component {i}: edge index out of range"),
    (_family_wrapping_into_range, "component {i}: function family above 10"),
    (_bad_origin, "component {i}: bad origin: grafted"),
    (_non_string_api_id, "component {i}: api call id is not a string: 7"),
    (_api_calls_string, "component {i}: api_calls is a str, not a list of api call ids"),
    (_duplicate_declared, ": duplicate declared component"),
    (_widget_declared, ": bad component kind: widget"),
], ids=["edge_out_of_range", "negative_edge_index", "negative_family",
        "edge_wrapping_to_zero", "family_wrapping_into_range", "bad_origin",
        "non_string_api_id", "api_calls_string", "duplicate_declared", "widget_declared"])
def test_load_corpus_validates_every_app(tmp_path, corrupt, needle):
    doc = _corpus_doc(tmp_path)
    app = doc["malicious"][2]
    i, comp = next((i, c) for i, c in enumerate(app["code"]["components"])
                   if c["edges"]["data"])
    corrupt(comp, app)
    path = tmp_path / "corpus.json"
    write_file(path, doc, CORPUS_LISTS)
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: app {app['id']}")
    assert needle.format(i=i) in message
    assert "\n" not in message


@pytest.mark.parametrize("field,value", [("families", 1.5), ("edges", "0")])
def test_load_corpus_rejects_non_integer_indices(tmp_path, field, value):
    # A non-integer index can only be written in a dtype outside the list: the
    # float as <f8, the string as <U1.
    doc = _corpus_doc(tmp_path)
    app, i, comp = next((a, i, c) for a in doc["benign"]
                        for i, c in enumerate(a["code"]["components"]) if c["edges"]["data"])
    arr = np.array([value])
    comp[field] = {"dtype": arr.dtype.str,
                   "data": base64.b64encode(arr.tobytes()).decode("ascii")}
    path = tmp_path / "corpus.json"
    write_file(path, doc, CORPUS_LISTS)
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert str(exc.value) == (f"{path}: app {app['id']} component {i}: code component "
                              f'{field} dtype "{arr.dtype.str}" '
                              f"is not one of {', '.join(ARRAY_DTYPES)}")


@pytest.mark.parametrize("case", list(MALFORMED_ARRAYS))
def test_load_corpus_refuses_a_malformed_array(tmp_path, case):
    field, stored, message = MALFORMED_ARRAYS[case]
    doc = _corpus_doc(tmp_path)
    app = next(a for a in doc["benign"] if a["code"]["components"])
    app["code"]["components"][0][field] = stored
    path = tmp_path / "corpus.json"
    write_file(path, doc, CORPUS_LISTS)
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert str(exc.value) == (f"{path}: app {app['id']} component 0: "
                              f"code component {field}{message}")


@pytest.mark.parametrize("key,value", [
    ("exported", True), ("enabled", False), ("process", ":p"), ("data_uri", None),
    ("classes", 12),
])
def test_load_corpus_refuses_a_key_no_app_value_holds(tmp_path, key, value):
    # No feature reads these, and no app holds them: a file that gives one is
    # refused as it refuses any other unknown key.
    doc = _corpus_doc(tmp_path)
    app = doc["benign"][0]
    if key == "classes":
        app["code"]["components"][0][key] = value
        message = f"app {app['id']} component 0: unknown key 'classes'"
    else:
        app["manifest"]["declared_components"][0][key] = value
        message = f"app {app['id']} declared component 0: unknown key {key!r}"
    path = tmp_path / "corpus.json"
    write_file(path, doc, CORPUS_LISTS)
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: {message}"
