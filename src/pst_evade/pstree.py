"""Probabilistic perturbation-selection tree: construction, probability
initialization, path sampling, leaf deletion with probability transfer, and the
feedback-driven adjustment policy."""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

from .perturbset import PerturbationGroup, leaf_path

# Fixed child order per structural label; only populated branches materialize.
CHILD_ORDER = {
    "root": ("manifest", "code"),
    "manifest": ("uses_feature", "permission", "action_category"),
    "uses_feature": ("hardware", "software"),
    "permission": ("normal", "signature"),
    "action_category": ("activity_action", "broadcast", "category"),
    "code": ("service", "receiver", "provider"),
}

INTERNAL_WEIGHTINGS = ("inverse", "proportional")


@dataclass(frozen=True)
class TreeConfig:
    internal_weighting: str = "inverse"
    epsilon: float = 1e-6
    penalty_constant: float = 0.1
    first_layer_prior: tuple[float, float] | None = None  # (manifest, code)

    def __post_init__(self):
        if self.internal_weighting not in INTERNAL_WEIGHTINGS:
            raise ValueError(
                f"internal_weighting must be one of {INTERNAL_WEIGHTINGS}")


class Node:
    __slots__ = ("id", "label", "parent", "children", "probs", "group")

    def __init__(self, node_id: int, label: str, parent: "Node | None" = None,
                 group: PerturbationGroup | None = None):
        self.id = node_id
        self.label = label
        self.parent = parent
        self.children: list[Node] = []
        self.probs: list[float] = []
        self.group = group

    def depth(self) -> int:
        d, node = 0, self
        while node.parent is not None:
            d += 1
            node = node.parent
        return d

    def is_leaf(self) -> bool:
        return self.group is not None


@dataclass(frozen=True)
class SamplePath:
    node_ids: tuple[int, ...]
    labels: tuple[str, ...]
    group: PerturbationGroup

    @property
    def leaf_id(self) -> int:
        return self.node_ids[-1]


class PSTree:
    """Single-writer mutable tree; one instance per attack."""

    def __init__(self, config: TreeConfig | None = None):
        self.config = config or TreeConfig()
        self.root = Node(0, "root")
        self.nodes: dict[int, Node] = {0: self.root}
        self._next_id = 1

    def _new_node(self, label: str, parent: Node,
                  group: PerturbationGroup | None = None) -> Node:
        node = Node(self._next_id, label, parent, group)
        self._next_id += 1
        self.nodes[node.id] = node
        parent.children.append(node)
        parent.probs.append(0.0)
        return node

    def is_empty(self) -> bool:
        return not self.root.children

    def leaves(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                yield node
            else:
                stack.extend(reversed(node.children))

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())


def _leaf_count_below(node: Node) -> int:
    if node.is_leaf():
        return 1
    return sum(_leaf_count_below(c) for c in node.children)


def _normalize(node: Node) -> None:
    total = sum(node.probs)
    if total <= 0:
        node.probs = [1.0 / len(node.probs)] * len(node.probs)
    else:
        node.probs = [p / total for p in node.probs]


def _first_layer(node: Node) -> Node:
    """The node's ancestor directly below the root, or the node itself."""
    while node.parent is not None and node.parent.parent is not None:
        node = node.parent
    return node


def _init_leaf_parent(node: Node) -> None:
    # Children are leaf groups. Code-side leaves are uniform; manifest-side
    # leaves are weighted by the normal density at each group's size.
    if _first_layer(node).label == "code":
        node.probs = [1.0 / len(node.children)] * len(node.children)
        return
    sizes = [len(c.group.members) for c in node.children]
    mu = sum(sizes) / len(sizes)
    var = sum((s - mu) ** 2 for s in sizes) / len(sizes)
    if var == 0.0:
        node.probs = [1.0 / len(node.children)] * len(node.children)
        return
    sigma = math.sqrt(var)
    node.probs = [
        math.exp(-((s - mu) ** 2) / (2 * var)) / (sigma * math.sqrt(2 * math.pi))
        for s in sizes
    ]
    _normalize(node)


def _internal_weights(children: list[Node], weighting: str) -> list[float]:
    counts = [_leaf_count_below(c) for c in children]
    if weighting == "proportional":
        return [float(c) for c in counts]
    return [1.0 / c for c in counts]


def _reinit_internal(node: Node, weighting: str) -> None:
    node.probs = _internal_weights(node.children, weighting)
    _normalize(node)


def init_probabilities(tree: PSTree) -> PSTree:
    """Assign all selection probabilities per the initialization rules."""
    root = tree.root
    if not root.children:
        return tree
    if len(root.children) == 1:
        root.probs = [1.0]
    elif tree.config.first_layer_prior is not None:
        pm, pc = tree.config.first_layer_prior
        by_label = {c.label: i for i, c in enumerate(root.children)}
        root.probs = [0.0, 0.0]
        root.probs[by_label["manifest"]] = pm
        root.probs[by_label["code"]] = pc
        _normalize(root)
    else:
        root.probs = [0.5] * len(root.children)

    stack = list(root.children)
    while stack:
        node = stack.pop()
        if node.is_leaf() or not node.children:
            continue
        if node.children[0].is_leaf():
            _init_leaf_parent(node)
        else:
            _reinit_internal(node, tree.config.internal_weighting)
            stack.extend(node.children)
    return tree


def build_tree(groups, config: TreeConfig | None = None) -> PSTree:
    """Route groups into the fixed tree shape, pruning empty branches."""
    groups = list(groups)
    if not groups:
        raise ValueError("cannot build a selection tree from zero groups")
    by_path: dict[tuple[str, ...], list[PerturbationGroup]] = {}
    for g in groups:
        by_path.setdefault(leaf_path(g), []).append(g)

    tree = PSTree(config)

    def present(prefix: tuple[str, ...]) -> bool:
        return any(p[:len(prefix)] == prefix for p in by_path)

    def grow(parent: Node, prefix: tuple[str, ...]) -> None:
        if prefix in by_path:
            for g in by_path[prefix]:
                tree._new_node("leaf", parent, group=g)
            return
        for label in CHILD_ORDER[parent.label]:
            child_prefix = prefix + (label,)
            if present(child_prefix):
                grow(tree._new_node(label, parent), child_prefix)

    grow(tree.root, ())
    return init_probabilities(tree)


def sample_path(tree: PSTree, rng: random.Random) -> SamplePath:
    """Walk root to leaf, choosing each child by its selection probability."""
    if tree.is_empty():
        raise ValueError("cannot sample from an empty tree")
    node = tree.root
    ids = [node.id]
    labels = [node.label]
    while not node.is_leaf():
        r = rng.random()
        acc = 0.0
        chosen = node.children[-1]
        for child, p in zip(node.children, node.probs):
            acc += p
            if r < acc:
                chosen = child
                break
        node = chosen
        ids.append(node.id)
        labels.append(node.label)
    return SamplePath(node_ids=tuple(ids), labels=tuple(labels), group=node.group)


def _resolve(tree: PSTree, leaf: "Node | int") -> Node:
    node = tree.nodes[leaf] if isinstance(leaf, int) else leaf
    if not node.is_leaf():
        raise ValueError(f"node {node.id} is not a leaf")
    return node


def delete_leaf_and_transfer(tree: PSTree, leaf: "Node | int") -> Node | None:
    """Remove a leaf, handing its probability equally to its remaining siblings.

    An only child cascades the deletion upward until an ancestor with other
    children absorbs the mass. Returns the absorbing parent, or None when the
    deletion emptied the whole tree.
    """
    node = _resolve(tree, leaf)
    while node.parent is not None and len(node.parent.children) == 1:
        node = node.parent
    parent = node.parent

    def forget(n: Node) -> None:
        del tree.nodes[n.id]
        for c in n.children:
            forget(c)

    forget(node)
    if parent is None:
        # node is the root: the tree is now empty.
        tree.root.children = []
        tree.root.probs = []
        tree.nodes = {0: tree.root}
        tree.root.id = 0
        return None
    idx = parent.children.index(node)
    freed = parent.probs[idx]
    del parent.children[idx]
    del parent.probs[idx]
    share = freed / len(parent.children)
    # Clamp: the equal split can overshoot 1.0 by an ulp when one sibling remains.
    parent.probs = [min(1.0, max(0.0, p + share)) for p in parent.probs]
    return parent


def adjust(tree: PSTree, leaf: "Node | int", y_prev: float, y_new: float) -> PSTree:
    """Feedback-driven update after trying the leaf's perturbation group.

    The leaf is always deleted. A confidence drop beyond epsilon keeps every
    remaining probability as is. Otherwise ancestors' sibling sets are re-derived
    from the surviving leaf counts, walking from the absorbing parent's level up
    to just below the root; a near-unchanged confidence additionally penalizes
    each on-path ancestor by (1 - depth * penalty_constant), and the first-layer
    node on the path is halved with the root's children renormalized.
    """
    node = _resolve(tree, leaf)
    cfg = tree.config
    eps = cfg.epsilon

    # First-layer node on the selected path, captured before any deletion.
    first_layer = _first_layer(node)

    absorbing = delete_leaf_and_transfer(tree, node)

    if y_new < y_prev - eps:
        return tree  # the try helped; leave elevated mass in place

    no_effect = abs(y_new - y_prev) <= eps
    p = absorbing
    depth = p.depth() if p is not None else 0  # p's depth, one less per level climbed
    while p is not None and p.parent is not None and p.parent.parent is not None:
        parent = p.parent
        _reinit_internal(parent, cfg.internal_weighting)
        if no_effect:
            factor = max(1.0 - depth * cfg.penalty_constant, 0.01)
            parent.probs[parent.children.index(p)] *= factor
            _normalize(parent)
        p = parent
        depth -= 1

    root = tree.root
    if first_layer in root.children:
        idx = root.children.index(first_layer)
        root.probs[idx] *= 0.5
        _normalize(root)
    return tree


def validate_probabilities(tree: PSTree) -> None:
    """Raise when any sibling probability set is not a distribution."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            continue
        if node.children:
            total = sum(node.probs)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"probabilities under {node.label}#{node.id} sum to {total!r}")
            for p in node.probs:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(
                        f"probability out of range under {node.label}#{node.id}: {p!r}")
            stack.extend(node.children)


def tree_to_dict(tree: PSTree) -> dict:
    """JSON-friendly snapshot for debugging dumps."""

    def node_doc(node: Node, prob: float | None) -> dict:
        doc: dict = {"id": node.id, "label": node.label, "depth": node.depth()}
        if prob is not None:
            doc["p"] = prob
        if node.is_leaf():
            doc["group"] = {"size": len(node.group.members),
                            "keywords": sorted(node.group.keywords),
                            "members": [m.key for m in node.group.members]}
        else:
            doc["children"] = [node_doc(c, p)
                               for c, p in zip(node.children, node.probs)]
        return doc

    return {
        "config": {
            "internal_weighting": tree.config.internal_weighting,
            "epsilon": tree.config.epsilon,
            "penalty_constant": tree.config.penalty_constant,
            "first_layer_prior": (list(tree.config.first_layer_prior)
                                  if tree.config.first_layer_prior else None),
        },
        "leaf_count": tree.leaf_count(),
        "root": node_doc(tree.root, None),
    }


def dump_tree(tree: PSTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh, indent=2, sort_keys=True)
