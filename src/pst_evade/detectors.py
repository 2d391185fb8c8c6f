"""Pluggable malware-detector oracles: training, querying, and serialization.

All models are trained from scratch on numpy so that parameters are JSON-serializable
and training is bit-reproducible under a seed.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .catalog import (ARRAY_DTYPES, FLOAT_DTYPE, build_document, check_format, exact_keys,
                      fields_of, fixed, flag, integer, items, narrowest, number, obj, only,
                      pack_array, pairs, read_lines, string, strings, unpack_array, write_lines)
from .corpus import API_FAMILY_COUNT, GROUND_TRUTHS, ApkModel
from .features import (
    CLUSTER_COUNT,
    ApiColumns,
    Parts,
    cluster_columns,
    extract_api_cluster,
    extract_binary,
    extract_markov,
    key_columns,
    mark_api_calls,
    mark_keys,
    markov_counts,
    markov_row,
)

DETECTOR_KINDS = ("linear", "mlp", "knn", "forest", "ensemble")
FEATURE_KINDS = ("binary", "markov", "api_cluster")

# Version of the model JSON layout; files of any other version are refused.
MODEL_FORMAT = 6

# A scorer (every kind but an ensemble) fires at a confidence of THRESHOLD.
# Training holds out HOLDOUT_FRACTION of each class and fits with these settings.
THRESHOLD, HOLDOUT_FRACTION = 0.5, 0.25
LINEAR_LR, LINEAR_ITERS, LINEAR_L2 = 0.5, 400, 1e-3
MLP_HIDDEN, MLP_LR, MLP_EPOCHS = 32, 0.01, 300
FOREST_TREES, FOREST_MAX_DEPTH, FOREST_MIN_LEAF = 32, 8, 2
KNN_K = 3


@dataclass(frozen=True)
class Feedback:
    """Oracle answer: hard label plus malicious confidence in [0, 1]."""

    label: str
    confidence: float


@dataclass(frozen=True, eq=False)
class FeatureSpace:
    """How a detector turns an app into a dense float64 row. A space holds what
    its kind's extractor needs: the binary ``keys`` (column i is key i) or the
    api ``cluster_map`` (column i is cluster i); a Markov space needs nothing
    (column a * API_FAMILY_COUNT + b is the a -> b transition). Equality and
    hashing are by ``digest``."""

    kind: str  # one of FEATURE_KINDS
    keys: tuple[str, ...] = ()
    cluster_map: dict[str, int] | None = None

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind: {self.kind}")
        if self.kind == "api_cluster" and self.cluster_map is None:
            raise ValueError("api_cluster feature space needs a cluster map")

    @property
    def width(self) -> int:
        if self.kind == "binary":
            return len(self.keys)
        return API_FAMILY_COUNT ** 2 if self.kind == "markov" else CLUSTER_COUNT

    @cached_property
    def key_index(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def api_columns(self) -> ApiColumns:
        """The columns of each api-call tuple in a binary or api_cluster row,
        found on the tuple's first use in this space."""
        if self.kind == "binary":
            return key_columns(self.key_index)
        return cluster_columns(self.cluster_map)

    @cached_property
    def digest(self) -> str:
        """sha256 of the space's canonical JSON doc (``space_to_dict``)."""
        return _digest(space_to_dict(self))

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSpace) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def extract(self, apk: ApkModel) -> np.ndarray:
        if self.kind == "binary":
            return extract_binary(apk, self.key_index, self.api_columns)
        if self.kind == "markov":
            return extract_markov(apk)
        return extract_api_cluster(apk, self.api_columns)

    # An app's state in a space is what its row is made from and what an app
    # that extends it adds to: the row itself, or for Markov the transition
    # counts before row normalization.

    def state(self, apk: ApkModel) -> np.ndarray:
        if self.kind == "markov":
            return markov_counts(apk.components)
        return self.extract(apk)

    def extended(self, state: np.ndarray, parts: Parts) -> np.ndarray:
        """The state of an app that adds ``parts`` to the app in ``state``;
        ``state`` itself when the parts add nothing to this space."""
        if self.kind == "binary":
            out = state.copy()
            mark_keys(out, parts, self.key_index, self.api_columns)
            return out
        if not parts.components:
            return state
        if self.kind == "markov":
            return state + markov_counts(parts.components)
        out = state.copy()
        mark_api_calls(out, parts.components, self.api_columns)
        return out

    def row(self, state: np.ndarray) -> np.ndarray:
        return markov_row(state) if self.kind == "markov" else state


def space_to_dict(space: FeatureSpace) -> dict:
    if space.kind == "binary":
        return {"kind": "binary", "keys": list(space.keys)}
    if space.kind == "markov":
        return {"kind": "markov", "family_count": API_FAMILY_COUNT}
    # The map's own order: api-id order when built, the file's when loaded.
    return {"kind": "api_cluster", "cluster_map": {"cluster_count": CLUSTER_COUNT,
            "assignment": [[a, c] for a, c in space.cluster_map.items()]}}


def space_from_dict(d: dict, what: str = "feature space") -> FeatureSpace:
    """The space in ``d``, which holds its ``kind`` and that kind's one field:
    ``keys``, ``family_count`` or ``cluster_map``. That field is read first; the
    absence of a key is a KeyError and any other key a ValueError, each naming
    the key by its path from ``space.``, the latter under ``what``, the holder
    of ``d``."""
    if "kind" not in d:
        raise KeyError("space.kind")
    kind = string(d["kind"], "space kind")
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind: {kind}")
    own = {"binary": "keys", "markov": "family_count", "api_cluster": "cluster_map"}[kind]
    if own not in d:
        raise KeyError(f"space.{own}")
    if kind == "binary":
        space = FeatureSpace(kind, keys=strings(d[own], "space keys"))
    elif kind == "markov":
        fixed(d[own], "space family_count", API_FAMILY_COUNT)
        space = FeatureSpace(kind)
    else:
        cmap = obj(d[own], "space cluster_map")
        if "cluster_count" not in cmap:
            raise KeyError("space.cluster_map.cluster_count")
        fixed(cmap["cluster_count"], "cluster_count", CLUSTER_COUNT)
        if "assignment" not in cmap:
            raise KeyError("space.cluster_map.assignment")
        cluster_map = {}
        for api, cluster in pairs(cmap["assignment"], "cluster assignment",
                                  f"an [api id, cluster below {CLUSTER_COUNT}] pair",
                                  lambda c: type(c) is int and 0 <= c < CLUSTER_COUNT):
            if api in cluster_map:
                raise ValueError(f"cluster assignment names api id {api!r} twice")
            cluster_map[api] = cluster
        space = FeatureSpace(kind, cluster_map=cluster_map)
        only(cmap, ("cluster_count", "assignment"), what, "space.cluster_map.")
    # The digest reads only these keys, so another one would load unchecked.
    only(d, ("kind", own), what, "space.")
    return space


@dataclass(frozen=True)
class TrainReport:
    precision: float
    recall: float
    f1: float
    holdout_size: int
    on_holdout: bool


@dataclass(eq=False)
class DetectorModel:
    """A scorer: a detector of every kind but an ensemble. ``params`` are read
    once, when the model is made: the scoring kernel is built from them then,
    and the parameters are checked against the feature space. A forest or kNN
    scorer is scored as a block of one (``_ForestBlock``, ``_KnnBlock``), a
    linear or MLP one by its own product. Models compare and hash by
    identity: ``params`` holds numpy arrays."""

    kind: str
    space: FeatureSpace
    params: dict
    report: TrainReport | None = None
    # x -> malicious confidence; built from ``params``, never serialized.
    kernel: Callable[[np.ndarray], float] = field(init=False, repr=False, compare=False)
    # The model's one scoring block if it is a forest or kNN, else none.
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind in _BLOCK_BUILDERS:
            block = _BLOCK_BUILDERS[self.kind](self.space, self.params)
            self.blocks = (block,)
            self.kernel = partial(_lone_confidence, block)
        elif self.kind in _KERNEL_BUILDERS:
            self.blocks = ()
            self.kernel = _KERNEL_BUILDERS[self.kind](self.space, self.params)
        else:
            raise ValueError(f"unknown detector kind: {self.kind}")

    @property
    def spaces(self) -> tuple[FeatureSpace, ...]:
        """The feature spaces the model reads: its own."""
        return (self.space,)


@dataclass(frozen=True)
class Ensemble:
    """A detector whose scorers vote: it answers with the share of its members
    that fire, and is one level deep. Its scoring groups are built with it:
    each space's linear and MLP members (``products``), scored one by one on
    the space's row, and one block per space and block kind (``blocks``)."""

    members: tuple[DetectorModel, ...]
    products: tuple[tuple[FeatureSpace, tuple[DetectorModel, ...]], ...] = field(
        init=False, repr=False, compare=False)
    blocks: tuple = field(init=False, repr=False, compare=False)
    kind = "ensemble"  # a class attribute, not a field

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("ensemble model: has no members")
        products: dict[FeatureSpace, list[DetectorModel]] = {}
        blocks: dict[tuple, list] = {}
        for i, m in enumerate(self.members):
            _refuse_nested(m.kind, i)
            if m.blocks:
                blocks.setdefault(m.blocks[0].group, []).append(m.blocks[0])
            else:
                products.setdefault(m.space, []).append(m)
        object.__setattr__(self, "products", tuple(
            (space, tuple(ms)) for space, ms in products.items()))
        object.__setattr__(self, "blocks", tuple(
            type(bs[0]).joined(bs) for bs in blocks.values()))

    @cached_property
    def spaces(self) -> tuple[FeatureSpace, ...]:
        """The distinct feature spaces the members read, in member order."""
        return tuple(dict.fromkeys(m.space for m in self.members))


def _refuse_nested(kind: str, i: int) -> None:
    if kind == "ensemble":
        raise ValueError(f"ensemble model: member {i} is an ensemble; ensembles are one level deep")


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))


def _scalar_sigmoid(z: float) -> float:
    """``_sigmoid`` of one Python float, bit for bit, without ``np.clip``'s
    array dispatch: both comparisons are false for a NaN, which passes through
    as ``np.clip`` passes it."""
    z = -40.0 if z < -40.0 else 40.0 if z > 40.0 else z
    return 1.0 / (1.0 + float(np.exp(-z)))


def _encode_labels(labels: Sequence[str]) -> np.ndarray:
    for lab in labels:
        if lab not in GROUND_TRUTHS:
            raise ValueError(f"unknown label: {lab}")
    return np.array([1.0 if lab == "malicious" else 0.0 for lab in labels])


# ---------------------------------------------------------------------------
# Per-kind training


def _train_linear(x: np.ndarray, y: np.ndarray) -> dict:
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(LINEAR_ITERS):
        p = _sigmoid(x @ w + b)
        err = p - y
        gw = x.T @ err / n + LINEAR_L2 * w
        gb = float(err.mean())
        w -= LINEAR_LR * gw
        b -= LINEAR_LR * gb
    return {"w": w, "b": b}


def _train_mlp(x: np.ndarray, y: np.ndarray, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, d = x.shape
    w1 = rng.normal(0.0, 1.0 / max(1.0, math.sqrt(d)), size=(d, MLP_HIDDEN))
    b1 = np.zeros(MLP_HIDDEN)
    w2 = rng.normal(0.0, 1.0 / math.sqrt(MLP_HIDDEN), size=MLP_HIDDEN)
    b2 = 0.0
    # Adam, full batch.
    ms = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
    vs = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, MLP_EPOCHS + 1):
        h = np.tanh(x @ w1 + b1)
        p = _sigmoid(h @ w2 + b2)
        err = (p - y) / n
        gw2 = h.T @ err
        gb2 = float(err.sum())
        gh = np.outer(err, w2) * (1.0 - h * h)
        gw1 = x.T @ gh
        gb1 = gh.sum(axis=0)
        grads = [gw1, gb1, gw2, gb2]
        new_params = []
        for i, (param, g) in enumerate(zip([w1, b1, w2, b2], grads)):
            ms[i] = beta1 * ms[i] + (1 - beta1) * g
            vs[i] = beta2 * vs[i] + (1 - beta2) * np.square(g)
            mhat = ms[i] / (1 - beta1 ** t)
            vhat = vs[i] / (1 - beta2 ** t)
            new_params.append(param - MLP_LR * mhat / (np.sqrt(vhat) + eps))
        w1, b1, w2, b2 = new_params
        b2 = float(b2)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


def _gini(neg, pos, total):
    """Gini impurity of class counts, elementwise, for total > 0. Evaluated as
    1 - (a*a + b*b): split gains are compared to 1e-12, so the float
    operations and their order are part of which split wins."""
    a = neg / total
    b = pos / total
    return 1.0 - (a * a + b * b)


def _build_tree(x: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int,
                max_depth: int, min_leaf: int, n_feats: int,
                rng: np.random.Generator) -> dict:
    """Grow one tree on the rows ``idx``. At each split node a random set of
    features is tried; a feature's thresholds are the midpoints between its
    adjacent distinct values there, scanned feature by feature in ascending
    order, and a later split must beat the best one by more than 1e-12."""
    labels = y[idx]
    n = len(idx)
    pos = int(labels.sum())
    neg = n - pos
    if depth >= max_depth or n < 2 * min_leaf or pos == 0 or neg == 0:
        return {"leaf": True, "vote": 1 if pos >= neg else 0}
    feats = rng.choice(x.shape[1], size=min(n_feats, x.shape[1]), replace=False)
    feats.sort()
    # Sort each candidate column once: a threshold's left side is a prefix of
    # the sorted column, and its positives a cumulative sum of sorted labels.
    cols = x[np.ix_(idx, feats)]
    order = np.argsort(cols, axis=0)
    cols = np.take_along_axis(cols, order, axis=0)
    pos_upto = np.cumsum(labels.astype(np.intp)[order], axis=0)
    lo, hi = cols[:-1], cols[1:]
    distinct = lo != hi
    thresholds = (lo + hi) / 2.0
    # Rows at or below each sorted value: the end of its run of equal values.
    ends = np.where(np.vstack([distinct, np.ones((1, len(feats)), bool)]),
                    np.arange(1, n + 1)[:, None], n)
    at_or_below = np.minimum.accumulate(ends[::-1], axis=0)[::-1]
    # Left of a threshold is everything up to lo, and hi's run too when the
    # midpoint of adjacent floats rounds up to hi.
    n_left = np.where(thresholds >= hi, at_or_below[1:], np.arange(1, n)[:, None])
    valid = distinct & (n_left >= min_leaf) & (n - n_left >= min_leaf)
    # Candidates in scan order: feature-major, thresholds ascending.
    col, row = np.nonzero(valid.T)
    if col.size == 0:
        return {"leaf": True, "vote": 1 if pos >= neg else 0}
    nl = n_left[row, col]
    lp = pos_upto[nl - 1, col]
    nr = n - nl
    rp = pos - lp
    g = (nl * _gini(nl - lp, lp, nl) + nr * _gini(nr - rp, rp, nr)) / n
    gains = (_gini(neg, pos, n) - g).tolist()
    best = 0
    for j, gain in enumerate(gains):
        if gain > gains[best] + 1e-12:
            best = j
    if gains[best] <= 1e-12:
        return {"leaf": True, "vote": 1 if pos >= neg else 0}
    f = int(feats[col[best]])
    thr = float(thresholds[row[best], col[best]])
    left = x[idx, f] <= thr
    return {
        "leaf": False, "feature": f, "threshold": thr,
        "left": _build_tree(x, y, idx[left], depth + 1, max_depth, min_leaf, n_feats, rng),
        "right": _build_tree(x, y, idx[~left], depth + 1, max_depth, min_leaf, n_feats, rng),
    }


def _train_forest(x: np.ndarray, y: np.ndarray, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, d = x.shape
    n_feats = max(1, int(math.sqrt(d)))
    trees = []
    for _ in range(FOREST_TREES):
        boot = rng.integers(0, n, n)
        trees.append(_build_tree(x, y, boot, 0, FOREST_MAX_DEPTH, FOREST_MIN_LEAF, n_feats,
                                 rng))
    return {"trees": trees}


# ---------------------------------------------------------------------------
# Scoring kernels: built once per model, each checks the parameters it reads.

def _shape_error(kind: str, name: str, shape: tuple, space: FeatureSpace) -> ValueError:
    return ValueError(f"{kind} model: {name} of shape {shape} do not match the "
                      f"{space.width}-feature {space.kind} space")


def _linear_score(w: np.ndarray, b: float, x: np.ndarray) -> float:
    return _scalar_sigmoid(float(np.dot(w, x)) + b)


def _linear_kernel(space: FeatureSpace, p: dict):
    if np.shape(p["w"]) != (space.width,):
        raise _shape_error("linear", "weights w", np.shape(p["w"]), space)
    return partial(_linear_score, p["w"], p["b"])


def _mlp_score(w1, b1, w2, b2, x: np.ndarray) -> float:
    h = np.tanh(x @ w1 + b1)
    return _scalar_sigmoid(float(h @ w2) + b2)


def _mlp_kernel(space: FeatureSpace, p: dict):
    if np.ndim(p["w1"]) != 2 or len(p["w1"]) != space.width:
        raise _shape_error("mlp", "weights w1", np.shape(p["w1"]), space)
    hidden = np.shape(p["w1"])[1]
    for name in ("b1", "w2"):
        if np.shape(p[name]) != (hidden,):
            raise ValueError(f"mlp model: {name} of shape {np.shape(p[name])} does not "
                             f"match the {hidden} hidden units of w1")
    return partial(_mlp_score, p["w1"], p["b1"], p["w2"], p["b2"])


_KERNEL_BUILDERS = {"linear": _linear_kernel, "mlp": _mlp_kernel}


# ---------------------------------------------------------------------------
# Scoring blocks: the forest or kNN members that read one feature space, scored
# together. A block's state for a row is what its members' answers are read
# from; ``extended`` updates a base state to that of a row that sets more
# columns. Every count, vote and Hamming distance is an integer, so each
# member's answer from a block is its answer alone, bit for bit.


def _nearest_vote(d2: np.ndarray, train_y: np.ndarray, k: int) -> float:
    """Mean label of the k nearest rows; equal distances go to the lowest index.
    No full sort: the rows not beyond the k-th distance, in index order, of
    which a stable sort keeps the k nearest. NaN distances sort last, as in a
    full sort. The sum of k 0/1 labels is exact, so the mean is the same float."""
    near = np.flatnonzero(~(d2 > np.partition(d2, k - 1)[k - 1]))
    if len(near) > k:
        near = near[np.argsort(d2[near], kind="stable")[:k]]
    return float(train_y[near].sum()) / k


def _packed(bits: np.ndarray) -> np.ndarray:
    """0/1 ``bits`` packed along the last axis into uint64 words, zero-padded."""
    width = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (8 * ((width + 63) // 64),), dtype=np.uint8)
    out[..., :(width + 7) // 8] = np.packbits(bits, axis=-1)
    return out.view(np.uint64)


class _KnnBlock:
    """kNN members that read one feature space. A row's state is its distance
    to each member's fit rows, member after member; each member votes on its
    own run (``_nearest_vote``). When every fit row is 0/1, ``words`` holds them
    packed, word-major, so each word of a row meets one contiguous row of
    words: a 0/1 row's distances are then Hamming distances, exact integers,
    from one XOR and popcount pass. Any other row takes the difference form on
    each member's ``params["x"]``, the block's one copy of the fit rows, held
    as ``_knn_block`` narrows it and subtracted in float64."""

    def __init__(self, space: FeatureSpace, fits: Sequence[tuple[np.ndarray, np.ndarray, int]],
                 words: np.ndarray | None):
        self.space = space
        self.fits = tuple(fits)  # (params["x"], labels, k) per member
        self.words = words
        self.bounds = np.cumsum([0] + [len(x) for x, _, _ in self.fits]).tolist()
        # A sum of at most ``width`` steps of +-1 fits int16 when the width does.
        self.step_sum = np.int16 if space.width <= np.iinfo(np.int16).max else np.intp
        # Members with and without 0/1 fit rows take different paths.
        self.group = (space, "knn", words is not None)

    @classmethod
    def joined(cls, blocks: Sequence[_KnnBlock]) -> _KnnBlock:
        words = blocks[0].words
        if words is not None:
            words = np.concatenate([b.words for b in blocks], axis=1)
        return cls(blocks[0].space, [f for b in blocks for f in b.fits], words)

    def state(self, x: np.ndarray) -> np.ndarray:
        """Distances as intp Hamming counts, or float64 by the difference form."""
        if self.words is not None:
            bits = x != 0
            if (x == bits).all():  # not fractional, NaN, infinite or past 1
                return np.bitwise_count(self.words ^ _packed(bits)[:, None]).sum(
                    axis=0, dtype=np.intp)
        return np.concatenate([np.sum(np.square(np.subtract(train_x, x, dtype=np.float64)),
                                      axis=1) for train_x, _, _ in self.fits])

    @cached_property
    def flips(self) -> np.ndarray:
        """int8 (columns, fit rows), built on first use: what setting column c
        adds to each fit row's Hamming distance, 1 where the fit row has a 0
        there and -1 where it has a 1."""
        fit_bytes = np.ascontiguousarray(self.words.T).view(np.uint8)
        flips = np.unpackbits(fit_bytes, axis=1, count=self.space.width).T.astype(
            np.int8, order="C")
        flips *= -2
        flips += 1
        return flips

    def extended(self, distances: np.ndarray, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The distances of ``x``, which sets ``cols`` (0 in the base row) to 1.
        Distances that are not Hamming distances take the full path."""
        if distances.dtype != np.intp:
            return self.state(x)
        if not len(cols):
            return distances
        return distances + self.flips[cols].sum(axis=0, dtype=self.step_sum)

    def confidences(self, distances: np.ndarray) -> list[float]:
        b = self.bounds
        return [_nearest_vote(distances[b[i]:b[i + 1]], y, k)
                for i, (_, y, k) in enumerate(self.fits)]


def _knn_block(space: FeatureSpace, p: dict) -> _KnnBlock:
    """One kNN scorer's block. ``params["x"]`` becomes the fit rows that the
    block reads, in the dtype a model file stores them in
    (``catalog.narrowest``): uint8 for 0/1 rows, float64 for fractional ones.
    Every value comes back as float64 bit for bit, so the difference form's
    distances are those of float64 rows."""
    train_x = np.asarray(p["x"], dtype=np.float64)
    train_y = np.asarray(p["y"], dtype=np.float64)
    if train_x.ndim != 2 or train_x.shape[1] != space.width:
        raise _shape_error("knn", "fit rows", train_x.shape, space)
    p["x"] = train_x = train_x.astype(narrowest(train_x), copy=False)
    n = len(train_x)
    if train_y.shape != (n,) or not np.isin(train_y, (0.0, 1.0)).all():
        raise ValueError(f"knn model: y must hold one 0/1 label for each of the {n} fit rows")
    if not 1 <= KNN_K <= n:
        raise ValueError(f"knn model: k={KNN_K} is not between 1 and the {n} fit rows")
    bits = train_x != 0
    words = np.ascontiguousarray(_packed(bits).T) if (train_x == bits).all() else None
    return _KnnBlock(space, [(train_x, train_y, KNN_K)], words)


class _ForestBlock:
    """The trees of forests that read one feature space as one node array:
    internal nodes first, then leaves, each leaf its own child. A row's state
    is each node's child, chosen for an internal node by ``x[feature] <=
    threshold``; every root then steps down together, and each member's votes
    are summed over its own run of roots. The internal nodes are sorted by
    split column, so those that split on column c are the run
    ``first[c]:first[c + 1]``."""

    def __init__(self, space: FeatureSpace, feature: np.ndarray, threshold: np.ndarray,
                 left: np.ndarray, right: np.ndarray, vote: np.ndarray, roots: np.ndarray,
                 trees: Sequence[int], steps: int):
        """The node arrays hold every node, in any order, each leaf its own child."""
        self.space = space
        leaf = left == np.arange(len(vote))
        order = np.lexsort((feature, leaf))  # stable: internal nodes by column, then leaves
        new = np.empty_like(order)
        new[order] = np.arange(len(order))
        inner = order[:len(order) - np.count_nonzero(leaf)]
        self.feature, self.threshold = feature[inner], threshold[inner]
        self.left, self.right, self.vote = new[left[inner]], new[right[inner]], vote[order]
        self.roots, self.trees, self.steps = new[roots], tuple(trees), steps
        self.leaves = np.arange(len(inner), len(vote))
        self.starts = np.cumsum((0,) + self.trees[:-1])
        self.first = np.searchsorted(self.feature, np.arange(space.width + 1)).tolist()
        # The child each internal node takes when its column is 1.
        self.at_one = np.where(1.0 <= self.threshold, self.left, self.right)
        self.group = (space, "forest")

    @classmethod
    def joined(cls, blocks: Sequence[_ForestBlock]) -> _ForestBlock:
        """One block of the blocks' trees, in block order."""
        def nodes(b: _ForestBlock, offset: int) -> tuple:
            # Leaves read no column: they are written as ``_forest_block`` does.
            n = len(b.leaves)
            return (np.concatenate((b.feature, np.zeros(n, dtype=np.intp))),
                    np.concatenate((b.threshold, np.zeros(n))),
                    np.concatenate((b.left, b.leaves)) + offset,
                    np.concatenate((b.right, b.leaves)) + offset, b.vote, b.roots + offset)

        offsets = np.cumsum([0] + [len(b.vote) for b in blocks]).tolist()
        joined = [np.concatenate(parts)
                  for parts in zip(*map(nodes, blocks, offsets))]
        return cls(blocks[0].space, *joined, [t for b in blocks for t in b.trees],
                   max(b.steps for b in blocks))

    def state(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate((np.where(x[self.feature] <= self.threshold, self.left,
                                        self.right), self.leaves))

    def extended(self, child: np.ndarray, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The children for ``x``, which sets ``cols`` (0 in the base row) to 1:
        just the nodes that split on those columns choose again."""
        if not len(cols):
            return child
        child = child.copy()
        first, at_one = self.first, self.at_one
        for c in cols.tolist():
            child[first[c]:first[c + 1]] = at_one[first[c]:first[c + 1]]
        return child

    def confidences(self, child: np.ndarray) -> list[float]:
        node = self.roots
        for _ in range(self.steps):
            node = child[node]
        votes = np.add.reduceat(self.vote[node], self.starts).tolist()
        return [v / n for v, n in zip(votes, self.trees)]


def _forest_block(space: FeatureSpace, p: dict) -> _ForestBlock:
    """One forest scorer's block: its dict trees flattened breadth first."""
    width = space.width
    nodes = list(p["trees"])
    if not nodes:
        raise ValueError("forest model: has no trees")
    depth = [0] * len(nodes)
    feature, threshold, left, right, vote = [], [], [], [], []
    for i, node in enumerate(nodes):  # grows while it is walked
        if flag(obj(node, "forest model: tree node")["leaf"], "forest model: node leaf"):
            v = integer(node["vote"], "forest model: leaf vote")
            if v not in (0, 1):
                raise ValueError(f"forest model: leaf vote {v} is not 0 or 1")
            feature.append(0)
            threshold.append(0.0)
            left.append(i)
            right.append(i)
            vote.append(v)
            continue
        f = integer(node["feature"], "forest model: split feature")
        if not 0 <= f < width:
            raise ValueError(f"forest model: split feature {f} is outside the "
                             f"{width}-feature {space.kind} space")
        feature.append(f)
        threshold.append(number(node["threshold"], "forest model: split threshold"))
        left.append(len(nodes))
        right.append(len(nodes) + 1)
        vote.append(0)
        nodes += [node["left"], node["right"]]
        depth += [depth[i] + 1] * 2
    return _ForestBlock(space, np.array(feature, dtype=np.intp), np.array(threshold),
                        np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                        np.array(vote, dtype=np.intp), np.arange(len(p["trees"])),
                        [len(p["trees"])], max(depth))


def _lone_confidence(block, x: np.ndarray) -> float:
    """The kernel of a forest or kNN scorer: the answer of its block of one."""
    return block.confidences(block.state(x))[0]


_BLOCK_BUILDERS = {"knn": _knn_block, "forest": _forest_block}


# ---------------------------------------------------------------------------
# Confidence + query


def confidence_from_dense(model: DetectorModel, x: np.ndarray) -> float:
    """A scorer's malicious confidence for an already-extracted dense vector."""
    return model.kernel(x)


def _added_columns(old: np.ndarray, new: np.ndarray) -> np.ndarray | None:
    """The columns that go from 0 in ``old`` to 1 in ``new``, or None when any
    other column differs."""
    cols = np.flatnonzero(new != old)
    return cols if (old[cols] == 0).all() and (new[cols] == 1).all() else None


def block_states(model: DetectorModel | Ensemble, rows: Mapping[FeatureSpace, np.ndarray],
                 base: tuple[Mapping, Mapping] | None = None) -> dict:
    """The state of each of the model's blocks for an app whose dense rows are
    ``rows``. ``base``, when given, is the ``(rows, states)`` of an app that this
    one extends. A block updates its base state (``extended``) when its space
    is not Markov, whose rows change in nearly every column, and every column
    that differs from the base row goes from 0 to 1, as an added part sets it;
    a kNN block whose base distances are not Hamming distances still takes
    the full path. Any other block takes the full path (``state``)."""
    states, added = {}, {}
    for block in model.blocks:
        space = block.space
        x = rows[space]
        if base is not None and space.kind != "markov" and space not in added:
            added[space] = _added_columns(base[0][space], x)
        cols = added.get(space)
        states[block] = (block.state(x) if cols is None
                         else block.extended(base[1][block], x, cols))
    return states


def score(model: DetectorModel | Ensemble, rows: Mapping[FeatureSpace, np.ndarray],
          blocks: Mapping | None = None) -> Feedback:
    """The answer for an app whose dense row in each of the model's feature spaces
    is in ``rows``, and the state of each of its blocks in ``blocks``
    (``block_states``, computed from the rows when not given). An ensemble
    answers with its detection fraction, the share of members whose confidence
    reaches THRESHOLD, flagged malicious when any does."""
    if blocks is None:
        blocks = block_states(model, rows)
    if isinstance(model, Ensemble):
        hits = 0
        for space, members in model.products:
            x = rows[space]
            hits += sum(confidence_from_dense(m, x) >= THRESHOLD for m in members)
        for block in model.blocks:
            hits += sum(c >= THRESHOLD for c in block.confidences(blocks[block]))
        conf = hits / len(model.members)
        return Feedback(label="malicious" if conf > 0 else "benign", confidence=conf)
    if model.blocks:
        conf = model.blocks[0].confidences(blocks[model.blocks[0]])[0]
    else:
        conf = confidence_from_dense(model, rows[model.space])
    return Feedback(label="malicious" if conf >= THRESHOLD else "benign", confidence=conf)


def query(model: DetectorModel | Ensemble, apk: ApkModel,
          view: Callable[[ApkModel], tuple[Mapping, Mapping]] | None = None) -> Feedback:
    """Black-box oracle answer for one app. ``view(apk)`` gives the app's dense
    row in each of ``model.spaces`` and the state of each of ``model.blocks``;
    without it each row is extracted in full, once per space however many
    members read it, and each block scores its row in full."""
    if view is None:
        return score(model, {space: space.extract(apk) for space in model.spaces})
    return score(model, *view(apk))


# ---------------------------------------------------------------------------
# Training entry point


def _holdout_split(y: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed ^ 0x5EED)
    fit_idx: list[int] = []
    hold_idx: list[int] = []
    for cls in (0.0, 1.0):
        cls_idx = np.flatnonzero(y == cls)
        cls_idx = cls_idx[rng.permutation(len(cls_idx))]
        n_hold = int(round(len(cls_idx) * HOLDOUT_FRACTION)) if len(cls_idx) >= 4 else 0
        hold_idx.extend(cls_idx[:n_hold].tolist())
        fit_idx.extend(cls_idx[n_hold:].tolist())
    return np.array(sorted(fit_idx), dtype=int), np.array(sorted(hold_idx), dtype=int)


def _metrics(y_true: np.ndarray, y_pred: np.ndarray, holdout: bool) -> TrainReport:
    tp = float(np.sum((y_true == 1) & (y_pred == 1)))
    fn = float(np.sum((y_true == 1) & (y_pred == 0)))
    fp = float(np.sum((y_true == 0) & (y_pred == 1)))
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return TrainReport(precision=precision, recall=recall, f1=f1,
                       holdout_size=len(y_true), on_holdout=holdout)


# Largest feature magnitude a model is trained on: the midpoint of any two
# such values, a forest's split threshold, is a finite float.
_MAX_FEATURE = np.finfo(np.float64).max / 2


def train(kind: str, space: FeatureSpace, x: np.ndarray, labels: Sequence[str],
          seed: int = 0) -> DetectorModel:
    """Train one scorer on labeled rows of ``space``'s features, one row of
    ``x`` per label. Deterministic under a seed."""
    if kind not in _PARAMS:
        raise ValueError(f"unknown detector kind: {kind}")
    if len(x) == 0:
        raise ValueError("empty training set")
    if len(x) != len(labels):
        raise ValueError("feature rows and labels differ in length")
    if x.ndim != 2 or x.shape[1] != space.width:
        raise ValueError(f"feature rows of shape {x.shape} do not match the "
                         f"{space.width}-feature {space.kind} space")
    # max and min build no copy of x; a NaN fails both comparisons.
    if x.size and not (x.max() <= _MAX_FEATURE and x.min() >= -_MAX_FEATURE):
        raise ValueError(f"{kind} detector: feature rows hold NaN, infinite or "
                         f"out-of-range values (|v| > {_MAX_FEATURE:.4g})")
    y = _encode_labels(labels)
    if len(set(labels)) < 2:
        raise ValueError("training set must contain both classes")

    fit_idx, hold_idx = _holdout_split(y, seed)
    x_fit, y_fit = x[fit_idx], y[fit_idx]

    if kind == "knn":
        params = {"x": x_fit, "y": y_fit}
    elif kind == "linear":
        params = _train_linear(x_fit, y_fit)
    elif kind == "mlp":
        params = _train_mlp(x_fit, y_fit, seed)
    else:
        params = _train_forest(x_fit, y_fit, seed)

    model = DetectorModel(kind=kind, space=space, params=params)
    eval_idx = hold_idx if len(hold_idx) > 0 else fit_idx
    preds = np.array([
        1.0 if confidence_from_dense(model, x[i]) >= THRESHOLD else 0.0 for i in eval_idx
    ])
    model.report = _metrics(y[eval_idx], preds, holdout=len(hold_idx) > 0)
    return model


# ---------------------------------------------------------------------------
# Serialization


def _array(value, name: str) -> np.ndarray:
    """The values of a param's array doc, flat, as an aligned float64 copy:
    ``catalog.unpack_array`` of a listed integer dtype or ``FLOAT_DTYPE``. A
    non-finite value is refused."""
    arr = unpack_array(value, name, (*ARRAY_DTYPES, FLOAT_DTYPE)).astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} is not an array of finite numbers")
    return arr


def _matrix(arr: np.ndarray, name: str, width: int, axis: int, other: int) -> np.ndarray:
    """``arr``, the flat values of a 2-D param, shaped with ``axis`` as long as
    the space's ``width``; values that do not fill that shape are refused. The
    other axis is ``other`` long only in a space of no columns, where the
    values do not tell it."""
    if width:
        other = arr.size // width
    if other * width != arr.size:
        raise ValueError(f"{name} holds {arr.size} values, which do not fill "
                         + (f"rows of {width}" if axis else f"{width} rows"))
    return arr.reshape((other, width) if axis else (width, other))


# The keys of a model file, whose ensemble's members are scorer files, and the
# params each scorer kind reads, each with its reader. An array param is an
# array doc. The 2-D ones have the axis given as long as the space is wide, and
# the other as long as the param named: a kNN's fit rows are rows of the space,
# one per label, and an MLP's w1 has a row per column and a column per unit.
_SCORER_KEYS = ("format", "kind", "space", "space_hash", "params", "report")
_ENSEMBLE_KEYS = ("format", "kind", "members")
_PARAMS = {"linear": {"w": _array, "b": number},
           "mlp": {"w1": _array, "b1": _array, "w2": _array, "b2": number},
           "knn": {"x": _array, "y": _array}, "forest": {"trees": items}}
_MATRICES = {"x": (1, "y"), "w1": (0, "b1")}


def _digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _scorer_to_dict(model: DetectorModel) -> dict:
    doc = {"format": MODEL_FORMAT, "kind": model.kind, "space": space_to_dict(model.space),
           "space_hash": model.space.digest,
           "params": {name: pack_array(np.asarray(v)) if _PARAMS[model.kind].get(name) is _array
                      else v for name, v in model.params.items()}}
    if model.report is not None:
        doc["report"] = asdict(model.report)
    return doc


def model_to_dict(model: DetectorModel | Ensemble) -> dict:
    return {key: list(map(_scorer_to_dict, value)) if key == "members" else value
            for key, value in _model_fields(model).items()}


def _model_fields(model: DetectorModel | Ensemble) -> dict:
    """The model document, an ensemble's members still models."""
    if isinstance(model, Ensemble):
        return {"format": MODEL_FORMAT, "kind": "ensemble", "members": model.members}
    return _scorer_to_dict(model)


def _scorer_from_dict(doc: dict) -> DetectorModel:
    kind = string(doc.get("kind"), "model kind")
    if kind not in _PARAMS:
        raise ValueError(f"unknown detector kind: {kind}")
    try:
        only(doc, _SCORER_KEYS, f"{kind} model")
        space = space_from_dict(obj(doc["space"], f"{kind} model: space"), f"{kind} model")
        if space.digest != doc["space_hash"]:
            raise ValueError(f"{kind} model: space does not match its space_hash")
        try:
            report = None if "report" not in doc else TrainReport(**fields_of(
                TrainReport, doc["report"], f"{kind} model: report", precision=number,
                recall=number, f1=number, holdout_size=integer, on_holdout=flag))
        except KeyError as exc:
            raise KeyError(f"report.{exc.args[0]}") from None
        params = obj(doc["params"], f"{kind} model: params")
        exact_keys(params, _PARAMS[kind], f"{kind} model", "params.")
        read = {name: reader(params[name], f"{kind} model: params.{name}")
                for name, reader in _PARAMS[kind].items()}
        for name, (axis, other) in _MATRICES.items():
            if name in read:
                read[name] = _matrix(read[name], f"{kind} model: params.{name}", space.width,
                                     axis, len(read[other]))
        return DetectorModel(kind=kind, space=space, report=report, params=read)
    except KeyError as exc:
        raise ValueError(f"{kind} model: missing key {exc.args[0]!r}") from None


def model_from_dict(doc: dict) -> DetectorModel | Ensemble:
    """Inverse of ``model_to_dict``: the member builder and model checks that
    ``load_model`` streams a file through, run over a parsed document. A key
    that is missing or not one its kind's file holds, a value not of its type,
    an ensemble member of another format, a nested ensemble, or a space that
    does not match its ``space_hash`` is a one-line ValueError naming the
    kind."""
    return build_document(doc, _MODEL_LISTS, _model_from_parts)


def _member_from_dict(m, i: int) -> DetectorModel:
    """Ensemble member ``i``: a scorer file of this format."""
    check_format(m, f"ensemble model: member {i}", MODEL_FORMAT, "retrain it with train")
    _refuse_nested(m.get("kind"), i)
    return _scorer_from_dict(m)


# The model document's one list, an ensemble's members, and its builder.
_MODEL_LISTS = {"members": _member_from_dict}


def _model_from_parts(doc: dict) -> DetectorModel | Ensemble:
    """The model of a document whose ``members``, if a list, are built models."""
    if doc.get("kind") != "ensemble":
        return _scorer_from_dict(doc)
    only(doc, _ENSEMBLE_KEYS, "ensemble model")
    return Ensemble(items(doc.get("members"), "ensemble model: members"))


def save_model(model: DetectorModel | Ensemble, path: str | Path) -> None:
    """Write the lines of ``model_to_dict(model)``, a scorer on one line and an
    ensemble one member a line (``catalog.write_lines``), so no whole-document
    dict or string is built. A failed save leaves ``path`` as it was."""
    write_lines(path, _model_fields(model), {"members": _scorer_to_dict})


def load_model(path: str | Path) -> DetectorModel | Ensemble:
    """The model in a file; every error names the file at its start. An
    ensemble's members are built one at a time as their lines are read, so the
    parsed document is never held (``catalog.read_lines``)."""
    return read_lines(path, ("model", MODEL_FORMAT, "retrain it with train"),
                      _MODEL_LISTS, _model_from_parts)
