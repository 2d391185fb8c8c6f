"""Feature families over the app model: binary string vectors, markov family-transition
matrices, and api-cluster indicator vectors. Each extractor returns one dense float64
row and takes the plain value that fixes its columns: a key index, a family count, or
a cluster map."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .corpus import ApkModel


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


def build_vocab(apks: Iterable[ApkModel]) -> tuple[str, ...]:
    """Binary-string vocabulary: the sorted union of keys over a training corpus."""
    keys: set[str] = set()
    n = 0
    for apk in apks:
        n += 1
        keys.update(binary_keys(apk))
    if n == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    return tuple(sorted(keys))


def extract_binary(apk: ApkModel, index: Mapping[str, int]) -> np.ndarray:
    """1.0 at ``index[key]`` for each key the app exhibits, in a row of
    ``len(index)`` columns; keys outside the index are ignored."""
    out = np.zeros(len(index))
    for key in binary_keys(apk):
        i = index.get(key)
        if i is not None:
            out[i] = 1.0
    return out


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


def cluster_map_to_dict(cmap: ApiClusterMap) -> dict:
    return {"cluster_count": cmap.cluster_count,
            "assignment": [[a, c] for a, c in cmap.assignment]}


def cluster_map_from_dict(d: dict) -> ApiClusterMap:
    return ApiClusterMap(cluster_count=int(d["cluster_count"]),
                         assignment=tuple((a, int(c)) for a, c in d["assignment"]))
