"""Perturbation-set construction, keyword similarity, and clustering."""
import random

import pytest

from apk_builders import (apk, brute_force_cluster, code_component, declared, perm,
                          random_permissions)
from pst_evade.catalog import AndroidCatalog, load_default_catalog
from pst_evade.perturbset import (
    Perturbation,
    PerturbationGroup,
    build_perturbation_set,
    cluster_perturbations,
    keyword_extract,
    keyword_similarity,
    leaf_path,
)


def group_of(*perturbations):
    keywords = frozenset(k for p in perturbations for k in keyword_extract(p.kind, p.payload))
    return PerturbationGroup(members=tuple(perturbations), keywords=keywords)


# ---------------------------------------------------------------------------
# Keyword extraction


def test_permission_keywords():
    p = perm("android.permission.ACCESS_WIFI_STATE")
    assert keyword_extract(p.kind, p.payload) == ["ACCESS", "WIFI", "STATE"]


def test_feature_keywords_keep_dotted_tokens():
    p = keyword_extract("uses_feature", "android.hardware.audio.output")
    assert p == ["audio", "output"]
    q = keyword_extract("uses_feature", "android.hardware.audio.pro")
    assert q[0] == p[0]


def test_software_feature_keywords_keep_underscores():
    assert keyword_extract("uses_feature", "android.software.app_widgets") == ["app_widgets"]


def test_category_keywords():
    assert keyword_extract("category", "android.intent.category.INFO") == ["INFO"]


def test_action_keywords_use_last_segment():
    assert keyword_extract("broadcast_action", "android.intent.action.BOOT_COMPLETED") == [
        "BOOT", "COMPLETED"]


def test_empty_tokens_are_dropped():
    assert keyword_extract("uses_feature", "android.hardware.audio..pro") == ["audio", "pro"]
    assert keyword_extract("category", "android.intent.category.__INFO_") == ["INFO"]


# ---------------------------------------------------------------------------
# Keyword similarity


def test_similarity_identical_and_disjoint():
    a = group_of(perm("android.permission.ACCESS_WIFI_STATE"))
    b = group_of(perm("android.permission.ACCESS_WIFI_STATE"))
    assert keyword_similarity(a, b) == 1.0
    c = group_of(perm("android.permission.READ_SMS"))
    assert keyword_similarity(a, c) == 0.0


def test_similarity_partial_overlap():
    a = group_of(perm("android.permission.ACCESS_WIFI_STATE"))
    b = group_of(perm("android.permission.ACCESS_NETWORK_STATE"))
    assert keyword_similarity(a, b) == pytest.approx(2 / 3)


def test_similarity_symmetric_and_bounded():
    rng = random.Random(17)
    tokens = ["ACCESS", "WIFI", "STATE", "NETWORK", "READ", "WRITE", "PHONE", "SMS"]
    for _ in range(200):
        ka = frozenset(rng.sample(tokens, rng.randint(1, 4)))
        kb = frozenset(rng.sample(tokens, rng.randint(1, 4)))
        a = PerturbationGroup(members=(), keywords=ka)
        b = PerturbationGroup(members=(), keywords=kb)
        s = keyword_similarity(a, b)
        assert s == keyword_similarity(b, a)
        assert 0.0 <= s <= 1.0


# ---------------------------------------------------------------------------
# Clustering


def test_identical_keyword_sets_collapse():
    ps = [perm("android.permission.READ_SMS") for _ in range(4)]
    groups = cluster_perturbations(ps, 0.5)
    assert len(groups) == 1
    assert len(groups[0]) == 4


def test_disjoint_keywords_stay_singletons():
    ps = [perm("android.permission.READ_SMS"),
          perm("android.permission.ACCESS_WIFI"),
          perm("android.permission.SEND_MMS")]
    groups = cluster_perturbations(ps, 0.5)
    assert [len(g) for g in groups] == [1, 1, 1]


def test_clustering_matches_brute_force_reference():
    rng = random.Random(29)
    for trial in range(40):
        n = rng.randint(2, 15)
        ps = random_permissions(rng, n)
        got = cluster_perturbations(ps, 0.5)
        want = brute_force_cluster(ps, 0.5)
        got_sets = sorted(sorted(p.key for p in g.members) for g in got)
        want_sets = sorted(sorted(p.key for p in g) for g in want)
        assert got_sets == want_sets, f"trial {trial}"


def restart_cluster(perturbations, threshold):
    """Reference: after each merge, scan the pairs again from (0, 1)."""
    groups = [group_of(p) for p in perturbations]
    while pair := next(((i, j) for i in range(len(groups)) for j in range(i + 1, len(groups))
                        if keyword_similarity(groups[i], groups[j]) > threshold), None):
        i, j = pair
        groups[i] = PerturbationGroup(members=groups[i].members + groups[j].members,
                                      keywords=groups[i].keywords | groups[j].keywords)
        del groups[j]
    return groups


@pytest.mark.parametrize("threshold", [0.25, 0.4, 0.5, 0.6, 0.75, 1.0])
def test_clustering_resumes_where_a_restart_would_merge_next(threshold):
    # The same groups, members and order as rescanning from (0, 1) after
    # every merge, over random buckets that merge in chains.
    rng = random.Random(37)
    for trial in range(100):
        ps = random_permissions(rng, rng.randint(1, 30))
        got = cluster_perturbations(ps, threshold)
        want = restart_cluster(ps, threshold)
        assert [[id(p) for p in g.members] for g in got] == \
            [[id(p) for p in g.members] for g in want], f"trial {trial}"
        assert [g.keywords for g in got] == [g.keywords for g in want]


def test_clustering_partitions_input():
    rng = random.Random(31)
    for _ in range(30):
        ps = random_permissions(rng, rng.randint(1, 12))
        groups = cluster_perturbations(ps, 0.5)
        flat = [id(p) for g in groups for p in g.members]
        assert sorted(flat) == sorted(id(p) for p in ps)


def test_cluster_threshold_validation():
    with pytest.raises(ValueError):
        cluster_perturbations([], 0.0)
    assert cluster_perturbations([], 1.0) == []


def test_feature_clusters_equal_first_token_partition():
    # With the similarity cutoff at 0.4 the keyword merge reproduces grouping by
    # the first post-prefix token, for both hardware and software features.
    catalog = load_default_catalog()
    for names in (catalog.hardware_features, catalog.software_features):
        ps = [Perturbation(kind="uses_feature", payload=name) for name in names]
        groups = cluster_perturbations(ps, 0.4)
        got = sorted(sorted(p.payload for p in g.members) for g in groups)
        by_token: dict[str, list] = {}
        for p in ps:
            by_token.setdefault(keyword_extract(p.kind, p.payload)[0], []).append(p.payload)
        want = sorted(sorted(v) for v in by_token.values())
        assert got == want


# ---------------------------------------------------------------------------
# Set construction


def test_dangerous_permissions_excluded():
    catalog = AndroidCatalog(
        hardware_features=(), software_features=(),
        permissions=(("android.permission.A", "normal"),
                     ("android.permission.B", "dangerous"),
                     ("android.permission.C", "signature")),
        activity_actions=(), broadcast_actions=(), categories=())
    pset = build_perturbation_set(catalog)
    names = {p.payload.name for p in pset.perturbations}
    assert names == {"android.permission.A", "android.permission.C"}


def test_default_catalog_eligible_count():
    pset = build_perturbation_set(load_default_catalog())
    assert len(pset) == 256
    assert not any(p.kind.startswith("inject_") for p in pset.perturbations)


def test_full_set_matches_reference_scale(full_pset):
    assert 450 <= len(full_pset) <= 540


def test_zero_function_donor_components_skipped():
    donor = apk(
        apk_id="d900", ground_truth="benign",
        declared_components=[declared(kind="service", name="com.app.d900.Service0"),
                             declared(kind="receiver", name="com.app.d900.Receiver1")],
        components=[code_component(kind="service", functions=()),
                    code_component(kind="receiver", functions=["d900.c1.f0@0"])])
    catalog = load_default_catalog()
    pset = build_perturbation_set(catalog, [donor])
    injects = [p for p in pset.perturbations if p.kind.startswith("inject_")]
    assert len(injects) == 1
    assert injects[0].kind == "inject_receiver"


def test_mismatched_donor_declarations_rejected():
    donor = apk(apk_id="d901", ground_truth="benign",
                components=[code_component(kind="service",
                                           functions=["d901.c0.f0@0"])])
    with pytest.raises(ValueError):
        build_perturbation_set(load_default_catalog(), [donor])


def test_donor_declarations_in_another_kind_order_rejected():
    donor = apk(apk_id="d902", ground_truth="benign",
                declared_components=[declared(kind="receiver", name="R"),
                                     declared(kind="service", name="S")],
                components=[code_component(kind="service", functions=["d902.c0.f0@0"]),
                            code_component(kind="receiver", functions=["d902.c1.f0@0"])])
    with pytest.raises(ValueError, match="^donor d902 component order is inconsistent$"):
        build_perturbation_set(load_default_catalog(), [donor])


def test_groups_are_kind_homogeneous_and_cover(full_pset):
    seen = []
    for g in full_pset.groups:
        kinds = {p.kind for p in g.members}
        assert len(kinds) == 1
        if next(iter(kinds)).startswith("inject_"):
            assert len(g) == 1
        seen.extend(p.key for p in g.members)
    assert sorted(seen) == sorted(p.key for p in full_pset.perturbations)


def test_leaf_paths(full_pset):
    want_paths = {
        "uses_feature": {("manifest", "uses_feature", "hardware"),
                         ("manifest", "uses_feature", "software")},
        "permission": {("manifest", "permission", "normal"),
                       ("manifest", "permission", "signature")},
        "activity_action": {("manifest", "action_category", "activity_action")},
        "broadcast_action": {("manifest", "action_category", "broadcast")},
        "category": {("manifest", "action_category", "category")},
        "inject_service": {("code", "service")},
        "inject_receiver": {("code", "receiver")},
        "inject_provider": {("code", "provider")},
    }
    got: dict[str, set] = {}
    for g in full_pset.groups:
        got.setdefault(g.members[0].kind, set()).add(leaf_path(g))
    assert got == want_paths
