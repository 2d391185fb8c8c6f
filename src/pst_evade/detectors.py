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

from .catalog import (exact_keys, fields_of, fixed, flag, integer, items, number, numbers, obj,
                      only, pairs, read_streamed, string, strings, write_json)
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
MODEL_FORMAT = 4

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
    and the parameters are checked against the feature space. Models compare
    and hash by identity: ``params`` holds numpy arrays."""

    kind: str
    space: FeatureSpace
    params: dict
    report: TrainReport | None = None
    # x -> malicious confidence; built from ``params``, never serialized.
    kernel: Callable[[np.ndarray], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KERNEL_BUILDERS:
            raise ValueError(f"unknown detector kind: {self.kind}")
        self.kernel = _KERNEL_BUILDERS[self.kind](self.space, self.params)

    @property
    def spaces(self) -> tuple[FeatureSpace, ...]:
        """The feature spaces the model reads: its own."""
        return (self.space,)


@dataclass(frozen=True)
class Ensemble:
    """A detector whose scorers vote: it answers with the share of its members
    that fire, and is one level deep."""

    members: tuple[DetectorModel, ...]
    kind = "ensemble"  # a class attribute, not a field

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("ensemble model: has no members")
        _refuse_nested([m.kind for m in self.members])

    @cached_property
    def spaces(self) -> tuple[FeatureSpace, ...]:
        """The distinct feature spaces the members read, in member order."""
        return tuple(dict.fromkeys(m.space for m in self.members))


def _refuse_nested(member_kinds: Sequence[str]) -> None:
    if "ensemble" in member_kinds:
        raise ValueError(f"ensemble model: member {member_kinds.index('ensemble')} is an "
                         "ensemble; ensembles are one level deep")


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))


def _scalar_sigmoid(z: float) -> float:
    """``_sigmoid`` of one Python float, bit for bit, without ``np.clip``'s
    array dispatch: ``max`` and ``min`` pass a NaN through as ``np.clip`` does."""
    return 1.0 / (1.0 + float(np.exp(-min(max(z, -40.0), 40.0))))


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


def _nearest_vote(d2: np.ndarray, train_y: np.ndarray, k: int) -> float:
    """Mean label of the k nearest rows; equal distances go to the lowest index.
    No full sort: the rows not beyond the k-th distance, in index order, of
    which a stable sort keeps the k nearest. NaN distances sort last, as in a
    full sort. The sum of k 0/1 labels is exact, so the mean is the same float."""
    near = np.flatnonzero(~(d2 > np.partition(d2, k - 1)[k - 1]))
    if len(near) > k:
        near = near[np.argsort(d2[near], kind="stable")[:k]]
    return float(train_y[near].sum()) / k


def _knn_by_difference(train_x, train_y, k: int, x: np.ndarray) -> float:
    return _nearest_vote(np.sum(np.square(train_x - x), axis=1), train_y, k)


def _packed(bits: np.ndarray) -> np.ndarray:
    """0/1 ``bits`` packed along the last axis into uint64 words, zero-padded."""
    width = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (8 * ((width + 63) // 64),), dtype=np.uint8)
    out[..., :(width + 7) // 8] = np.packbits(bits, axis=-1)
    return out.view(np.uint64)


def _knn_by_hamming(train_x, words, train_y, k: int, x: np.ndarray) -> float:
    """On 0/1 rows ||t - x||^2 is the Hamming distance, an exact integer: the
    count of set bits in t XOR x. ``words`` holds the 0/1 fit rows packed,
    word-major, so each word of x meets one contiguous row of words. A row
    that is not all 0/1 takes the difference form on ``train_x``."""
    bits = x != 0
    if not (x == bits).all():  # fractional, NaN, infinite or past 1
        return _knn_by_difference(train_x, train_y, k, x)
    d2 = np.bitwise_count(words ^ _packed(bits)[:, None]).sum(axis=0)
    return _nearest_vote(d2, train_y, k)


def _knn_kernel(space: FeatureSpace, p: dict):
    """Fit rows that are all 0/1 take ``_knn_by_hamming``, any others the
    difference form. ``params["x"]`` is the kernel's one float copy of them."""
    p["x"] = train_x = np.asarray(p["x"], dtype=np.float64)
    train_y = np.asarray(p["y"], dtype=np.float64)
    if train_x.ndim != 2 or train_x.shape[1] != space.width:
        raise _shape_error("knn", "fit rows", train_x.shape, space)
    n = len(train_x)
    if train_y.shape != (n,) or not np.isin(train_y, (0.0, 1.0)).all():
        raise ValueError(f"knn model: y must hold one 0/1 label for each of the {n} fit rows")
    if not 1 <= KNN_K <= n:
        raise ValueError(f"knn model: k={KNN_K} is not between 1 and the {n} fit rows")
    bits = train_x != 0
    if not (train_x == bits).all():
        return partial(_knn_by_difference, train_x, train_y, KNN_K)
    words = np.ascontiguousarray(_packed(bits).T)
    return partial(_knn_by_hamming, train_x, words, train_y, KNN_K)


def _forest_score(feature, threshold, left, right, vote, roots, steps: int,
                  x: np.ndarray) -> float:
    # One comparison per node, then every tree steps down together; a leaf is
    # its own child, so trees that reach a leaf early stay there.
    child = np.where(x[feature] <= threshold, left, right)
    node = roots
    for _ in range(steps):
        node = child[node]
    return float(vote[node].sum()) / len(node)


def _forest_kernel(space: FeatureSpace, p: dict):
    """Flatten the dict trees breadth first into per-node arrays."""
    width = space.width
    nodes = list(p["trees"])
    depth = [0] * len(nodes)
    roots = np.arange(len(nodes), dtype=np.intp)
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
    return partial(_forest_score, np.array(feature, dtype=np.intp), np.array(threshold),
                   np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                   np.array(vote, dtype=np.intp), roots, max(depth, default=0))


_KERNEL_BUILDERS = {"linear": _linear_kernel, "mlp": _mlp_kernel, "knn": _knn_kernel,
                    "forest": _forest_kernel}


# ---------------------------------------------------------------------------
# Confidence + query


def confidence_from_dense(model: DetectorModel, x: np.ndarray) -> float:
    """A scorer's malicious confidence for an already-extracted dense vector."""
    return model.kernel(x)


def score(model: DetectorModel | Ensemble,
          rows: Mapping[FeatureSpace, np.ndarray]) -> Feedback:
    """The answer for an app whose dense row in each of the model's feature spaces
    is in ``rows``. An ensemble answers with its detection fraction, the share of
    members whose confidence reaches THRESHOLD, flagged malicious when any does."""
    if isinstance(model, Ensemble):
        conf = sum(confidence_from_dense(m, rows[m.space]) >= THRESHOLD
                   for m in model.members) / len(model.members)
        return Feedback(label="malicious" if conf > 0 else "benign", confidence=conf)
    conf = confidence_from_dense(model, rows[model.space])
    return Feedback(label="malicious" if conf >= THRESHOLD else "benign", confidence=conf)


def query(model: DetectorModel | Ensemble, apk: ApkModel,
          rows: Callable[[ApkModel], Mapping[FeatureSpace, np.ndarray]] | None = None
          ) -> Feedback:
    """Black-box oracle answer for one app. ``rows(apk)`` gives the app's dense row
    in each of ``model.spaces``; without it each is extracted in full, once per
    space however many members read it."""
    if rows is None:
        return score(model, {space: space.extract(apk) for space in model.spaces})
    return score(model, rows(apk))


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
    if kind not in _KERNEL_BUILDERS:
        raise ValueError(f"unknown detector kind: {kind}")
    if len(x) == 0:
        raise ValueError("empty training set")
    if len(x) != len(labels):
        raise ValueError("feature rows and labels differ in length")
    if x.ndim != 2 or x.shape[1] != space.width:
        raise ValueError(f"feature rows of shape {x.shape} do not match the "
                         f"{space.width}-feature {space.kind} space")
    if not (np.abs(x) <= _MAX_FEATURE).all():
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


# The keys of a format-4 model file, whose ensemble's members are scorer files,
# and the params each scorer kind reads, each with its reader.
_SCORER_KEYS = ("format", "kind", "space", "space_hash", "params", "report")
_ENSEMBLE_KEYS = ("format", "kind", "members")
_PARAMS = {"linear": {"w": numbers, "b": number},
           "mlp": {"w1": numbers, "b1": numbers, "w2": numbers, "b2": number},
           "knn": {"x": numbers, "y": numbers}, "forest": {"trees": items}}


def _digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _scorer_to_dict(model: DetectorModel) -> dict:
    doc = {"format": MODEL_FORMAT, "kind": model.kind, "space": space_to_dict(model.space),
           "space_hash": model.space.digest,
           "params": {name: v.tolist() if isinstance(v, np.ndarray) else v
                      for name, v in model.params.items()}}
    if model.report is not None:
        doc["report"] = asdict(model.report)
    return doc


def model_to_dict(model: DetectorModel | Ensemble) -> dict:
    return _model_fields(model, list)


def _model_fields(model: DetectorModel | Ensemble, members: Callable) -> dict:
    """The model document, an ensemble's members given as ``members`` of the
    iterator of their dicts."""
    if isinstance(model, Ensemble):
        return {"format": MODEL_FORMAT, "kind": "ensemble",
                "members": members(map(_scorer_to_dict, model.members))}
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
        return DetectorModel(kind=kind, space=space, report=report, params={
            name: read(params[name], f"{kind} model: params.{name}")
            for name, read in _PARAMS[kind].items()})
    except KeyError as exc:
        raise ValueError(f"{kind} model: missing key {exc.args[0]!r}") from None


def model_from_dict(doc: dict) -> DetectorModel | Ensemble:
    """Inverse of ``model_to_dict``. A key that is missing or not one its kind's
    file holds, a value not of its type, an ensemble member of another format, a
    nested ensemble, or a space that does not match its ``space_hash`` is a
    one-line ValueError naming the kind."""
    doc = obj(doc, "model")
    if doc.get("kind") != "ensemble":
        return _scorer_from_dict(doc)
    only(doc, _ENSEMBLE_KEYS, "ensemble model")
    members = [obj(m, "ensemble model: member")
               for m in items(doc.get("members"), "ensemble model: members")]
    for i, m in enumerate(members):
        _check_member_format(m, i)
    _refuse_nested([m.get("kind") for m in members])
    return Ensemble([_scorer_from_dict(m) for m in members])


def _check_member_format(m: dict, i: int) -> None:
    found = m.get("format", 1)  # as in ``read_document``, none is format 1
    if found != MODEL_FORMAT:
        raise ValueError(f"ensemble model: member {i} format {found} is not supported; "
                         "retrain it with train")


def _member_from_dict(m, i: int) -> DetectorModel:
    """Ensemble member ``i`` as ``load_model`` builds it on reading it: refused
    where ``model_from_dict`` would refuse it, if not always in its words."""
    _check_member_format(obj(m, "ensemble model: member"), i)
    _refuse_nested([m.get("kind")])
    return _scorer_from_dict(m)


def _model_from_parts(doc: dict) -> DetectorModel | Ensemble:
    """``model_from_dict`` of a document whose ``members``, if it has them,
    are built models."""
    if doc.get("kind") != "ensemble" or "members" not in doc:
        return model_from_dict(doc)
    only(doc, _ENSEMBLE_KEYS, "ensemble model")
    return Ensemble(doc["members"])


def save_model(model: DetectorModel | Ensemble, path: str | Path) -> None:
    """Write ``json.dumps(model_to_dict(model), sort_keys=True)``, an ensemble
    one member at a time, so no whole-document dict or string is built. A
    failed save leaves ``path`` as it was (``catalog.replacing``)."""
    write_json(path, _model_fields(model, iter))


def load_model(path: str | Path) -> DetectorModel | Ensemble:
    """The model in a file; every error names the file at its start. An
    ensemble's members are built one at a time as they are read, so the parsed
    document is never held (``catalog.read_streamed``)."""
    return read_streamed(path, model_from_dict,
                         ("model", MODEL_FORMAT, "retrain it with train"),
                         {"members": _member_from_dict}, _model_from_parts)
