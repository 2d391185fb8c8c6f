"""Probabilistic perturbation-selection tree: construction, probability
initialization, path sampling, leaf deletion with probability transfer, and the
feedback-driven adjustment policy. A node is its preorder id, the root 0."""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

from .catalog import replacing
from .perturbset import CHILD_ORDER, PerturbationGroup, leaf_path

# A confidence change within EPSILON counts as no effect.
EPSILON = 1e-6
# A no-effect try scales each on-path ancestor by 1 - depth * PENALTY_CONSTANT.
PENALTY_CONSTANT = 0.1


@dataclass(repr=False)
class PSTree:
    """A selection tree; one copy per attack. Copies share the shape: ``labels``,
    ``parents`` (-1 at the root) and ``groups`` (None at internal nodes). Each
    owns its state: ``probs`` maps each internal node to its surviving children,
    in the fixed child order, and each child to its selection probability;
    ``leaf_counts`` holds the surviving leaves below each node."""

    labels: tuple[str, ...]
    parents: tuple[int, ...]
    groups: tuple[PerturbationGroup | None, ...]
    probs: dict[int, dict[int, float]]
    leaf_counts: list[int]

    def copy(self) -> PSTree:
        """A tree of the same shape with its own copy of the state."""
        return replace(self, probs={n: dict(p) for n, p in self.probs.items()},
                       leaf_counts=list(self.leaf_counts))

    def is_empty(self) -> bool:
        return not self.probs[0]

    def depth(self, node: int) -> int:
        d = 0
        while self.parents[node] >= 0:
            d += 1
            node = self.parents[node]
        return d

    def leaves(self) -> list[int]:
        """The surviving leaves, in preorder."""
        return [n for n, g in enumerate(self.groups) if g is not None and self.leaf_counts[n]]


def _normalize(weights: dict[int, float]) -> dict[int, float]:
    total = sum(weights.values())
    if total <= 0:
        return dict.fromkeys(weights, 1.0 / len(weights))
    return {c: w / total for c, w in weights.items()}


def _first_layer(tree: PSTree, node: int) -> int:
    """The node's ancestor directly below the root, or the node itself."""
    while tree.parents[node] > 0:
        node = tree.parents[node]
    return node


def _init_leaf_parent(tree: PSTree, node: int) -> None:
    # Children are leaf groups. Code-side leaves are uniform; manifest-side
    # leaves are weighted by the normal density at each group's size.
    sizes = {c: len(tree.groups[c].members) for c in tree.probs[node]}
    mu = sum(sizes.values()) / len(sizes)
    var = sum((s - mu) ** 2 for s in sizes.values()) / len(sizes)
    if var == 0.0 or tree.labels[_first_layer(tree, node)] == "code":
        tree.probs[node] = dict.fromkeys(sizes, 1.0 / len(sizes))
        return
    sigma = math.sqrt(var)
    tree.probs[node] = _normalize({
        c: math.exp(-((s - mu) ** 2) / (2 * var)) / (sigma * math.sqrt(2 * math.pi))
        for c, s in sizes.items()
    })


def _reinit_internal(tree: PSTree, node: int) -> None:
    # Weighted by inverse surviving-leaf count: the sparser branch is likelier.
    tree.probs[node] = _normalize({c: 1.0 / tree.leaf_counts[c] for c in tree.probs[node]})


def init_probabilities(tree: PSTree) -> PSTree:
    """Assign all selection probabilities per the initialization rules."""
    kids = tree.probs[0]
    if not kids:
        return tree
    tree.probs[0] = dict.fromkeys(kids, 1.0 / len(kids))

    stack = list(kids)
    while stack:
        node = stack.pop()
        if tree.groups[next(iter(tree.probs[node]))] is not None:
            _init_leaf_parent(tree, node)
        else:
            _reinit_internal(tree, node)
            stack.extend(tree.probs[node])
    return tree


def build_tree(groups) -> PSTree:
    """Route groups into the fixed tree shape, pruning empty branches; ids are
    assigned in preorder."""
    by_path: dict[tuple[str, ...], list[PerturbationGroup]] = {}
    for g in groups:
        by_path.setdefault(leaf_path(g), []).append(g)

    shape: list[tuple[str, int, PerturbationGroup | None]] = []  # label, parent, group
    probs: dict[int, dict[int, float]] = {}  # filled in by init_probabilities

    def add(label: str, parent: int, group: PerturbationGroup | None = None) -> int:
        node = len(shape)
        shape.append((label, parent, group))
        if parent >= 0:
            probs[parent][node] = 0.0
        if group is None:
            probs[node] = {}
        return node

    prefixes = {path[:i] for path in by_path for i in range(1, len(path) + 1)}

    def grow(node: int, prefix: tuple[str, ...]) -> None:
        if prefix in by_path:
            for g in by_path[prefix]:
                add("leaf", node, g)
            return
        for label in CHILD_ORDER[shape[node][0]]:
            if prefix + (label,) in prefixes:
                grow(add(label, node), prefix + (label,))

    grow(add("root", -1), ())
    labels, parents, leaf_groups = zip(*shape)
    counts = [0 if g is None else 1 for g in leaf_groups]
    for node in range(len(counts) - 1, 0, -1):  # children before their parents
        counts[parents[node]] += counts[node]
    return init_probabilities(PSTree(labels, parents, leaf_groups, probs, counts))


def sample_path(tree: PSTree, rng: random.Random) -> int:
    """Walk root to leaf, choosing each child by its selection probability, and
    return the leaf; the path is the leaf's ancestors through ``tree.parents``."""
    if tree.is_empty():
        raise ValueError("cannot sample from an empty tree")
    node = 0
    while tree.groups[node] is None:
        r = rng.random()
        acc = 0.0
        for child, p in tree.probs[node].items():  # falls through to the last child
            acc += p
            if r < acc:
                break
        node = child
    return node


def delete_leaf_and_transfer(tree: PSTree, leaf: int) -> int | None:
    """Remove a leaf, handing its probability equally to its remaining siblings.

    An only child cascades the deletion upward until an ancestor with other
    children absorbs the mass. Returns the absorbing parent, or None when the
    deletion emptied the whole tree.
    """
    if not (0 <= leaf < len(tree.groups) and tree.groups[leaf] is not None
            and tree.leaf_counts[leaf]):
        raise ValueError(f"node {leaf} is not a surviving leaf")
    parents, probs = tree.parents, tree.probs
    node = n = leaf
    while n >= 0:
        tree.leaf_counts[n] -= 1
        n = parents[n]
    while parents[node] >= 0 and len(probs[parents[node]]) == 1:
        node = parents[node]
    parent = parents[node]
    if parent < 0:
        # node is the root: the tree is now empty.
        probs[0].clear()
        return None
    siblings = probs[parent]
    share = siblings.pop(node) / len(siblings)
    # Clamp: the equal split can overshoot 1.0 by an ulp when one sibling remains.
    # Every probability and share is >= 0, so only the upper bound can bind.
    probs[parent] = {c: q if (q := p + share) < 1.0 else 1.0 for c, p in siblings.items()}
    return parent


def adjust(tree: PSTree, leaf: int, y_prev: float, y_new: float) -> PSTree:
    """Feedback-driven update after trying the leaf's perturbation group.

    The leaf is always deleted. A confidence drop beyond ``EPSILON`` keeps every
    remaining probability as is. Otherwise ancestors' sibling sets are re-derived
    from the surviving leaf counts, walking from the absorbing parent's level up
    to just below the root; a near-unchanged confidence additionally penalizes
    each on-path ancestor by (1 - depth * ``PENALTY_CONSTANT``), and the
    first-layer node on the path is halved with the root's children renormalized.
    """
    p = delete_leaf_and_transfer(tree, leaf)

    if p is None or y_new < y_prev - EPSILON:
        return tree  # emptied, or the try helped: leave elevated mass in place

    no_effect = abs(y_new - y_prev) <= EPSILON
    depth = tree.depth(p)  # p's depth, one less per level climbed
    while tree.parents[p] > 0:
        parent = tree.parents[p]
        _reinit_internal(tree, parent)
        if no_effect:
            probs = tree.probs[parent]
            probs[p] *= 1.0 - depth * PENALTY_CONSTANT
            tree.probs[parent] = _normalize(probs)
        p = parent
        depth -= 1

    # The first-layer node on the selected path: deletions leave ``parents`` as built.
    root, first_layer = tree.probs[0], _first_layer(tree, leaf)
    if first_layer in root:
        root[first_layer] *= 0.5
        tree.probs[0] = _normalize(root)
    return tree


def validate_probabilities(tree: PSTree) -> None:
    """Raise when any sibling probability set is not a distribution."""
    stack = [0]
    while stack:
        node = stack.pop()
        probs = tree.probs.get(node)
        if not probs:
            continue
        where = f"{tree.labels[node]}#{node}"
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities under {where} sum to {total!r}")
        for p in probs.values():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of range under {where}: {p!r}")
        stack.extend(probs)


def tree_to_dict(tree: PSTree) -> dict:
    """JSON-friendly snapshot for debugging dumps."""

    def node_doc(node: int, depth: int, prob: float | None) -> dict:
        doc: dict = {"id": node, "label": tree.labels[node], "depth": depth}
        if prob is not None:
            doc["p"] = prob
        group = tree.groups[node]
        if group is not None:
            doc["group"] = {"size": len(group.members),
                            "keywords": sorted(group.keywords),
                            "members": [m.key for m in group.members]}
        else:
            doc["children"] = [node_doc(c, depth + 1, p) for c, p in tree.probs[node].items()]
        return doc

    return {"leaf_count": tree.leaf_counts[0], "root": node_doc(0, 0, None)}


def dump_tree(tree: PSTree, path) -> None:
    with replacing(path) as fh:
        json.dump(tree_to_dict(tree), fh, indent=2, sort_keys=True)
