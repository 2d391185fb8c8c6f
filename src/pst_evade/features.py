"""Feature families over the app model: binary string vectors, markov family-transition
matrices, and api-cluster indicator vectors. Each extractor returns one dense float64
row, indexed like its vocabulary."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .corpus import ApkModel

VOCAB_KINDS = ("binary_string", "markov_family", "api_cluster")


@dataclass(frozen=True)
class FeatureVocab:
    kind: str
    keys: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in VOCAB_KINDS:
            raise ValueError(f"unknown vocab kind: {self.kind}")

    @cached_property
    def key_to_index(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)


def binary_keys(apk: ApkModel) -> Iterator[str]:
    """Feature keys an app exhibits: manifest string sets plus api-call ids."""
    m = apk.manifest
    for name in m.uses_features:
        yield "feature:" + name
    for perm in m.permissions:
        yield "perm:" + perm.name
    for comp in m.declared_components:
        for action in comp.intent_actions:
            yield "action:" + action
        for cat in comp.intent_categories:
            yield "category:" + cat
    for comp in apk.code.components:
        for api in comp.api_calls:
            yield "api:" + api


def build_vocab(apks: Iterable[ApkModel]) -> FeatureVocab:
    """Binary-string vocabulary: the sorted union of keys over a training corpus."""
    keys: set[str] = set()
    n = 0
    for apk in apks:
        n += 1
        keys.update(binary_keys(apk))
    if n == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    return FeatureVocab(kind="binary_string", keys=tuple(sorted(keys)))


def extract_binary(apk: ApkModel, vocab: FeatureVocab) -> np.ndarray:
    """1.0 at each vocabulary key the app exhibits; out-of-vocabulary keys are ignored."""
    if vocab.kind != "binary_string":
        raise ValueError(f"binary extraction needs a binary_string vocab, got {vocab.kind}")
    index = vocab.key_to_index
    out = np.zeros(len(vocab))
    for key in binary_keys(apk):
        i = index.get(key)
        if i is not None:
            out[i] = 1.0
    return out


@lru_cache(maxsize=16)
def markov_vocab(family_count: int) -> FeatureVocab:
    keys = tuple(
        f"trans:{a}>{b}" for a in range(family_count) for b in range(family_count)
    )
    return FeatureVocab(kind="markov_family", keys=keys)


def extract_markov(apk: ApkModel, family_count: int) -> np.ndarray:
    """Row-normalized family-transition matrix of the call graph, flattened row-major.

    Entry (a, b) is the fraction of family-a out-edges that land in family b; families
    with no out-edges keep an all-zero row.
    """
    if family_count < 1:
        raise ValueError("family_count must be >= 1")
    pairs = np.concatenate([c.edge_families for c in apk.code.components]
                           or [np.empty((0, 2), dtype=np.intp)])
    if pairs.size and (pairs.min() < 0 or pairs.max() >= family_count):
        for i, comp in enumerate(apk.code.components):
            out = (comp.edge_families < 0) | (comp.edge_families >= family_count)
            bad = np.flatnonzero(out.any(axis=1))
            if bad.size:
                raise ValueError(
                    f"edge family out of range for family_count={family_count}: component "
                    f"{i} local edge {tuple(comp.edges[bad[0]].tolist())} has families "
                    f"{tuple(comp.edge_families[bad[0]].tolist())}")
    counts = np.bincount(pairs[:, 0] * family_count + pairs[:, 1],
                         minlength=family_count ** 2).astype(np.float64)
    counts = counts.reshape(family_count, family_count)
    row_sums = counts.sum(axis=1, keepdims=True)
    matrix = np.divide(counts, row_sums, out=np.zeros_like(counts), where=row_sums > 0)
    return matrix.ravel()


@dataclass(frozen=True)
class ApiClusterMap:
    """Total mapping from api id to cluster id."""

    cluster_count: int
    assignment: tuple[tuple[str, int], ...]

    @cached_property
    def lookup(self) -> dict[str, int]:
        return dict(self.assignment)


def build_api_cluster_map(api_ids: Iterable[str], cluster_count: int, seed: int) -> ApiClusterMap:
    """Seeded, balanced random partition of the api vocabulary into clusters."""
    ids = sorted(set(api_ids))
    if cluster_count < 1:
        raise ValueError("cluster_count must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    assignment = tuple(
        (ids[int(j)], int(rank % cluster_count)) for rank, j in enumerate(order)
    )
    return ApiClusterMap(cluster_count=cluster_count,
                         assignment=tuple(sorted(assignment)))


@lru_cache(maxsize=16)
def cluster_vocab(cluster_count: int) -> FeatureVocab:
    return FeatureVocab(kind="api_cluster",
                        keys=tuple(f"cluster:{i:03d}" for i in range(cluster_count)))


def extract_api_cluster(apk: ApkModel, cmap: ApiClusterMap) -> np.ndarray:
    """1.0 at cluster i when any api call mapped to cluster i occurs in the app."""
    lookup = cmap.lookup
    out = np.zeros(cmap.cluster_count)
    for comp in apk.code.components:
        for api in comp.api_calls:
            cluster = lookup.get(api)
            if cluster is None:
                raise ValueError(f"api id missing from cluster map: {api}")
            out[cluster] = 1.0
    return out


def vocab_to_dict(vocab: FeatureVocab) -> dict:
    return {"kind": vocab.kind, "keys": list(vocab.keys)}


def vocab_from_dict(d: dict) -> FeatureVocab:
    return FeatureVocab(kind=d["kind"], keys=tuple(d["keys"]))


def cluster_map_to_dict(cmap: ApiClusterMap) -> dict:
    return {"cluster_count": cmap.cluster_count,
            "assignment": [[a, c] for a, c in cmap.assignment]}


def cluster_map_from_dict(d: dict) -> ApiClusterMap:
    return ApiClusterMap(cluster_count=int(d["cluster_count"]),
                         assignment=tuple((a, int(c)) for a, c in d["assignment"]))
