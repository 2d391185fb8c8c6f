"""Selection-tree construction, sampling, deletion, and adjustment policy."""
import hashlib
import json
import random
import re

import pytest
from scipy import stats

from apk_builders import (
    child_probs,
    feature_group,
    find,
    first_child,
    inject_group,
    perm_groups,
    rewalk_leaf_counts,
)
from pst_evade.pstree import (
    _normalize,
    adjust,
    build_tree,
    delete_leaf_and_transfer,
    dump_tree,
    sample_path,
    tree_to_dict,
    validate_probabilities,
)


def path_to(tree, node):
    """Node ids from the root to ``node``, read off ``tree.parents``."""
    path = [node]
    while tree.parents[path[-1]] >= 0:
        path.append(tree.parents[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# Construction and initialization


@pytest.mark.parametrize("probs,needle", [
    ((0.4, 0.4), "probabilities under root#0 sum to 0.8"),
    ((1.5, -0.5), "probability out of range under root#0: 1.5"),
])
def test_validate_probabilities_names_the_node(probs, needle):
    tree = build_tree(perm_groups("normal", 2) + [inject_group()])
    tree.probs[0] = dict(zip(tree.probs[0], probs))
    with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
        validate_probabilities(tree)


def test_full_tree_structure(full_pset):
    tree = build_tree(full_pset.groups)
    validate_probabilities(tree)
    assert [tree.labels[c] for c in tree.probs[0]] == ["manifest", "code"]
    assert list(tree.probs[0].values()) == [0.5, 0.5]
    assert tree.leaf_counts[0] == len(full_pset.groups)
    assert tree.leaf_counts == rewalk_leaf_counts(tree)
    assert all(tree.parents[n] < n for n in range(1, len(tree.parents)))  # preorder
    for leaf in tree.leaves():
        want = 4 if tree.groups[leaf].members[0].kind in (
            "uses_feature", "permission", "activity_action", "broadcast_action",
            "category") else 3
        assert tree.depth(leaf) == want


def test_full_tree_snapshot_is_pinned(full_pset):
    # Recorded from the object tree the flat one replaced: same ids, labels,
    # depths, probabilities and groups.
    doc = tree_to_dict(build_tree(full_pset.groups))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "3d31365e2e7597566168f9c4d12ed661d99c8aac019dccdf8cd9eb2e46afc813"


def test_copy_owns_its_state_and_shares_the_shape(full_pset):
    reference = build_tree(full_pset.groups[:60])
    before = tree_to_dict(reference)
    tree = reference.copy()
    assert tree.labels is reference.labels and tree.groups is reference.groups
    rng = random.Random(3)
    while not tree.is_empty():
        adjust(tree, sample_path(tree, rng), 0.5, 0.5)
    assert tree_to_dict(reference) == before


def test_copy_is_independent_of_its_source_on_every_branch(full_pset):
    # Each adjust branch (improved, no effect, worse) and deletion cascades
    # that empty the copy leave the source as built. Every fifth group spans
    # the tree's buckets, so emptying them cascades.
    reference = build_tree(full_pset.groups[::5])
    before, counts = tree_to_dict(reference), list(reference.leaf_counts)
    tree = reference.copy()
    rng = random.Random(8)
    for y_new in (0.1, 0.5, 0.9) * 10:
        adjust(tree, sample_path(tree, rng), 0.5, y_new)
    cascades = 0
    while not tree.is_empty():
        leaf = sample_path(tree, rng)
        absorbing = delete_leaf_and_transfer(tree, leaf)
        cascades += absorbing is not None and absorbing != tree.parents[leaf]
    assert cascades > 0
    assert tree_to_dict(reference) == before
    assert reference.leaf_counts == counts


def test_manifest_only_tree_prunes_code():
    tree = build_tree(perm_groups("normal", 3))
    assert [tree.labels[c] for c in tree.probs[0]] == ["manifest"]
    assert list(tree.probs[0].values()) == [1.0]
    assert "code" not in tree.labels


def test_single_group_chain_has_unit_probabilities():
    tree = build_tree(perm_groups("normal", 1))
    node = 0
    while tree.groups[node] is None:
        assert list(tree.probs[node].values()) == [1.0]
        node = first_child(tree, node)


def test_zero_groups_build_a_root_only_empty_tree():
    tree = build_tree([])
    assert tree.labels == ("root",)
    assert tree.is_empty()
    assert tree.leaves() == []
    assert tree_to_dict(tree) == {
        "leaf_count": 0, "root": {"id": 0, "label": "root", "depth": 0, "children": []}}
    with pytest.raises(ValueError):
        sample_path(tree, random.Random(0))


def test_internal_weights_inverse_leaf_counts():
    # 2 vs 8 leaves -> 1/2 : 1/8 -> 0.8 / 0.2.
    groups = perm_groups("normal", 2, tag="N") + perm_groups("signature", 8, tag="S")
    tree = build_tree(groups)
    assert child_probs(tree, find(tree, "permission")) == pytest.approx(
        {"normal": 0.8, "signature": 0.2})


def test_equal_size_manifest_leaves_are_uniform():
    tree = build_tree(perm_groups("normal", 3, size=5))
    assert list(tree.probs[find(tree, "normal")].values()) == pytest.approx([1 / 3] * 3)


def test_manifest_leaf_normal_density_weights():
    # Sizes 1, 5, 9: mu=5, population variance 32/3; extreme sizes share
    # the same density, the mean-sized group gets the mode.
    groups = [feature_group("hardware", 1, "alpha"),
              feature_group("hardware", 5, "beta"),
              feature_group("hardware", 9, "gamma")]
    tree = build_tree(groups)
    assert list(tree.probs[find(tree, "hardware")].values()) == pytest.approx(
        [0.2428953111403593, 0.5142093777192815, 0.2428953111403593], abs=1e-12)


def test_code_leaves_are_uniform():
    groups = [inject_group(i) for i in range(4)]
    tree = build_tree(groups)
    assert list(tree.probs[find(tree, "service")].values()) == pytest.approx([0.25] * 4)


# ---------------------------------------------------------------------------
# Sampling


def test_single_leaf_always_sampled():
    tree = build_tree(perm_groups("normal", 1))
    rng = random.Random(1)
    leaf = sample_path(tree, rng)
    assert [tree.labels[n] for n in path_to(tree, leaf)] == [
        "root", "manifest", "permission", "normal", "leaf"]
    assert tree.leaves() == [leaf]


def test_sampled_path_is_parent_chain(full_pset):
    tree = build_tree(full_pset.groups)
    rng = random.Random(5)
    for _ in range(50):
        path = path_to(tree, sample_path(tree, rng))
        assert path[0] == 0 and tree.groups[path[-1]] is not None
        for a, b in zip(path, path[1:]):
            assert b in tree.probs[a]


def test_sampling_matches_probabilities():
    tree = build_tree(perm_groups("normal", 2))
    bucket = find(tree, "normal")
    leaf_ids = list(tree.probs[bucket])
    tree.probs[bucket] = dict(zip(leaf_ids, [0.8, 0.2]))
    rng = random.Random(123)
    counts = {i: 0 for i in leaf_ids}
    n = 100_000
    for _ in range(n):
        counts[sample_path(tree, rng)] += 1
    observed = [counts[i] for i in leaf_ids]
    result = stats.chisquare(observed, [0.8 * n, 0.2 * n])
    assert result.pvalue > 0.01


def test_pruned_branch_never_sampled():
    tree = build_tree(perm_groups("normal", 4))
    rng = random.Random(7)
    for _ in range(1000):
        assert "code" not in [tree.labels[n] for n in path_to(tree, sample_path(tree, rng))]


def test_sampling_empty_tree_raises():
    tree = build_tree(perm_groups("normal", 1))
    delete_leaf_and_transfer(tree, tree.leaves()[0])
    assert tree.is_empty()
    with pytest.raises(ValueError):
        sample_path(tree, random.Random(0))


# ---------------------------------------------------------------------------
# Deletion with probability transfer


def test_delete_splits_probability_equally():
    tree = build_tree(perm_groups("normal", 3))
    bucket = find(tree, "normal")
    leaf_ids = list(tree.probs[bucket])
    tree.probs[bucket] = dict(zip(leaf_ids, [0.5, 0.3, 0.2]))
    victim = leaf_ids[1]
    absorbing = delete_leaf_and_transfer(tree, victim)
    assert absorbing == bucket
    assert list(tree.probs[bucket].values()) == pytest.approx([0.65, 0.35])
    assert victim not in tree.probs[bucket]
    assert tree.leaf_counts[victim] == 0


def test_delete_only_child_cascades_upward():
    groups = perm_groups("normal", 1, tag="N") + perm_groups("signature", 1, tag="S")
    tree = build_tree(groups)
    normal = find(tree, "normal")
    leaf = first_child(tree, normal)
    absorbing = delete_leaf_and_transfer(tree, leaf)
    assert tree.labels[absorbing] == "permission"
    assert tree.leaf_counts[normal] == tree.leaf_counts[leaf] == 0
    assert [tree.labels[c] for c in tree.probs[absorbing]] == ["signature"]
    assert list(tree.probs[absorbing].values()) == [1.0]
    assert tree.leaf_counts == rewalk_leaf_counts(tree)
    validate_probabilities(tree)


def test_delete_last_leaf_signals_empty():
    tree = build_tree(perm_groups("normal", 1))
    result = delete_leaf_and_transfer(tree, tree.leaves()[0])
    assert result is None
    assert tree.is_empty()
    assert tree.leaf_counts == [0] * len(tree.labels)


def test_delete_refuses_internal_and_deleted_nodes():
    tree = build_tree(perm_groups("normal", 2))
    leaf = tree.leaves()[0]
    delete_leaf_and_transfer(tree, leaf)
    for node in (0, find(tree, "normal"), leaf, len(tree.labels), -1):
        with pytest.raises(ValueError, match="is not a surviving leaf"):
            delete_leaf_and_transfer(tree, node)


def test_delete_never_orphans_nodes(full_pset):
    tree = build_tree(full_pset.groups[:60])
    rng = random.Random(41)
    while not tree.is_empty():
        before = tree.leaf_counts[0]
        leaves = tree.leaves()
        delete_leaf_and_transfer(tree, rng.choice(leaves))
        assert tree.leaf_counts[0] == before - 1
        reachable = set()
        stack = [0]
        while stack:
            n = stack.pop()
            reachable.add(n)
            stack.extend(tree.probs.get(n, ()) if tree.groups[n] is None else ())
        # A node is reachable exactly when a surviving leaf lies below it.
        assert reachable - {0} == {n for n, c in enumerate(tree.leaf_counts) if c} - {0}
        assert tree.leaf_counts == rewalk_leaf_counts(tree)
        validate_probabilities(tree)


# ---------------------------------------------------------------------------
# Adjustment policy


def _policy_tree():
    # manifest: uses_feature{hardware: 2 groups, software: 1}, permission{normal: 1}
    # code: service: 1 group
    groups = [feature_group("hardware", 1, "cam"),
              feature_group("hardware", 1, "gps"),
              feature_group("software", 1, "web"),
              *perm_groups("normal", 1),
              inject_group()]
    return build_tree(groups)


def test_adjust_improvement_deletes_only():
    tree = _policy_tree()
    hardware = find(tree, "hardware")
    root_before = dict(tree.probs[0])
    manifest_before = dict(tree.probs[find(tree, "manifest")])
    uf_before = dict(tree.probs[find(tree, "uses_feature")])
    adjust(tree, first_child(tree, hardware), y_prev=0.9, y_new=0.4)
    assert tree.probs[0] == root_before
    assert tree.probs[find(tree, "manifest")] == manifest_before
    assert tree.probs[find(tree, "uses_feature")] == uf_before
    assert list(tree.probs[hardware].values()) == [1.0]
    validate_probabilities(tree)


def test_adjust_refuses_internal_and_deleted_nodes_leaving_the_tree_as_it_was():
    # The deletion makes the one leaf check, before it changes anything.
    tree = _policy_tree()
    hardware = find(tree, "hardware")
    leaf = first_child(tree, hardware)
    adjust(tree, leaf, y_prev=0.9, y_new=0.9)
    before = tree_to_dict(tree)
    for node in (0, hardware, leaf, len(tree.labels), -1):
        with pytest.raises(ValueError, match=f"^node {node} is not a surviving leaf$"):
            adjust(tree, node, y_prev=0.9, y_new=0.9)
        assert tree_to_dict(tree) == before


def test_adjust_no_effect_worked_example():
    # Tie at the oracle: depth-3 ancestor penalized by 0.7, depth-2 by 0.8,
    # first layer halved 0.5 -> 0.25 then renormalized to 1/3 vs 2/3.
    tree = _policy_tree()
    hardware = find(tree, "hardware")
    adjust(tree, first_child(tree, hardware), y_prev=0.9, y_new=0.9)
    uf = child_probs(tree, find(tree, "uses_feature"))
    assert uf == pytest.approx({"hardware": 7 / 17, "software": 10 / 17})
    man = child_probs(tree, find(tree, "manifest"))
    assert man == pytest.approx({"uses_feature": 2 / 7, "permission": 5 / 7})
    assert child_probs(tree, 0) == pytest.approx({"manifest": 1 / 3, "code": 2 / 3})
    validate_probabilities(tree)


def test_adjust_harmful_reinits_without_penalty():
    tree = _policy_tree()
    hardware = find(tree, "hardware")
    adjust(tree, first_child(tree, hardware), y_prev=0.5, y_new=0.9)
    assert child_probs(tree, find(tree, "uses_feature")) == pytest.approx(
        {"hardware": 0.5, "software": 0.5})
    assert child_probs(tree, find(tree, "manifest")) == pytest.approx(
        {"uses_feature": 1 / 3, "permission": 2 / 3})
    assert child_probs(tree, 0) == pytest.approx({"manifest": 1 / 3, "code": 2 / 3})
    validate_probabilities(tree)


def test_adjust_code_side_halves_code_branch():
    groups = [*perm_groups("normal", 1), inject_group(0), inject_group(1),
              inject_group(2, kind="inject_receiver")]
    tree = build_tree(groups)
    service = find(tree, "service")
    adjust(tree, first_child(tree, service), y_prev=0.9, y_new=0.9)
    assert child_probs(tree, find(tree, "code")) == pytest.approx(
        {"service": 4 / 9, "receiver": 5 / 9})
    assert child_probs(tree, 0) == pytest.approx({"manifest": 2 / 3, "code": 1 / 3})
    validate_probabilities(tree)


def test_adjust_penalized_weight_below_reinit_weight():
    tree = _policy_tree()
    hardware = find(tree, "hardware")
    adjust(tree, first_child(tree, hardware), y_prev=0.9, y_new=0.9)
    # Reinit alone would give hardware 0.5 among uses_feature children.
    assert child_probs(tree, find(tree, "uses_feature"))["hardware"] < 0.5


def test_adjust_cascade_starts_at_surviving_ancestor():
    # hardware holds a single group: its deletion collapses the bucket, so the
    # reinit walk starts at uses_feature.
    groups = [feature_group("hardware", 1, "cam"),
              feature_group("software", 1, "web"),
              *perm_groups("normal", 1)]
    tree = build_tree(groups)
    leaf = first_child(tree, find(tree, "hardware"))
    adjust(tree, leaf, y_prev=0.9, y_new=0.9)
    man = child_probs(tree, find(tree, "manifest"))
    # Reinit: uses_feature 1 leaf, permission 1 leaf -> 0.5/0.5; penalty on
    # uses_feature at depth 2: x0.8 -> 0.4/0.5 -> 4/9, 5/9.
    assert man == pytest.approx({"uses_feature": 4 / 9, "permission": 5 / 9})
    validate_probabilities(tree)


def test_adjust_fuzzed_invariants(full_pset):
    rng = random.Random(97)
    ops = 0
    tree = None
    while ops < 10_000:
        if tree is None or tree.is_empty():
            start = rng.randrange(0, len(full_pset.groups) - 40)
            tree = build_tree(full_pset.groups[start:start + 40])
        leaf = sample_path(tree, rng)
        roll = rng.random()
        if roll < 0.25:
            delete_leaf_and_transfer(tree, leaf)
        elif roll < 0.5:
            y = rng.random()
            adjust(tree, leaf, y, y)  # exact tie
        else:
            adjust(tree, leaf, rng.random(), rng.random())
        validate_probabilities(tree)
        assert tree.leaf_counts == rewalk_leaf_counts(tree)
        ops += 1


def test_normalization_invariance():
    tree = _policy_tree()
    before = tree.probs[find(tree, "manifest")]
    assert _normalize({c: p * 3.7 for c, p in before.items()}) == pytest.approx(before)


# ---------------------------------------------------------------------------
# Snapshots


def test_tree_snapshot_round_trips_through_json(tmp_path):
    tree = _policy_tree()
    doc = tree_to_dict(tree)
    assert doc["leaf_count"] == 5
    assert json.loads(json.dumps(doc)) == doc
    out = tmp_path / "tree.json"
    dump_tree(tree, out)
    assert json.loads(out.read_text())["root"]["label"] == "root"
