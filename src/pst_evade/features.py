"""Feature families over the app model: binary string vectors, markov family-transition
matrices, and api-cluster indicator vectors. Each extractor returns one dense float64
row. A Markov row always has ``API_FAMILY_COUNT ** 2`` columns and an api-cluster row
``CLUSTER_COUNT``; the binary extractor takes the key index that fixes its columns, and
it and the api-cluster one take that layout's ``ApiColumns``.

Every feature is a sum or a union over an app's parts, so each kind defines its
contribution from a set of parts once (``mark_keys``, ``markov_counts``,
``mark_api_calls``), and full extraction applies it to all of an app's parts
(``app_parts``). The same definitions turn the features of an app into those of
an app that extends it by the parts ``added_parts`` finds.

A code component's binary or api-cluster contribution depends only on its
``api_calls`` tuple, so each tuple's columns are found once per column layout
(``ApiColumns``) and written with one fancy-indexed store."""
from __future__ import annotations

from operator import is_
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import API_FAMILY_COUNT, ApkModel, CodeComponent, DeclaredComponent, Permission

# Clusters of every api-cluster map.
CLUSTER_COUNT = 24


class Parts(NamedTuple):
    """Parts of an app that features read: whole, or what it adds to another app."""

    uses_features: Collection[str]
    permissions: Collection[Permission]
    declared: Sequence[DeclaredComponent]
    components: Sequence[CodeComponent]

    @property
    def empty(self) -> bool:
        return not (self.uses_features or self.permissions or self.declared
                    or self.components)


def app_parts(apk: ApkModel) -> Parts:
    return Parts(apk.uses_features, apk.permissions, apk.declared_components,
                 apk.components)


def _added(old: frozenset, new: frozenset) -> Collection | None:
    if new is old:
        return ()
    return new - old if old <= new else None


def _leading(old: tuple, new: tuple) -> bool:
    return len(old) <= len(new) and all(map(is_, old, new))


def added_parts(base: ApkModel, apk: ApkModel) -> Parts | None:
    """The parts ``apk`` adds to ``base``, or None when it does not extend it.

    ``apk`` extends ``base`` when base's code and declared components are the
    leading ones of apk's, the same objects, and base's uses-feature and
    permission sets are subsets of apk's. Then each feature of ``apk`` is that of
    ``base`` plus the contribution of the added parts."""
    old, new = base.components, apk.components
    old_decl, new_decl = base.declared_components, apk.declared_components
    if not (_leading(old, new) and _leading(old_decl, new_decl)):
        return None
    features = _added(base.uses_features, apk.uses_features)
    permissions = _added(base.permissions, apk.permissions)
    if features is None or permissions is None:
        return None
    return Parts(features, permissions, new_decl[len(old_decl):], new[len(old):])


def manifest_keys(parts: Parts) -> Iterator[str]:
    """Binary feature keys of the parts' manifest strings."""
    for name in parts.uses_features:
        yield "feature:" + name
    for perm in parts.permissions:
        yield "perm:" + perm.name
    for comp in parts.declared:
        for action in comp.intent_actions:
            yield "action:" + action
        for cat in comp.intent_categories:
            yield "category:" + cat


def part_keys(parts: Parts) -> Iterator[str]:
    """Binary feature keys of the parts: manifest strings plus api-call ids."""
    yield from manifest_keys(parts)
    for comp in parts.components:
        for api in comp.api_calls:
            yield "api:" + api


def binary_keys(apk: ApkModel) -> Iterator[str]:
    """Feature keys an app exhibits."""
    return part_keys(app_parts(apk))


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


class ApiColumns(dict):
    """Api-call tuple -> the row columns its api calls set, as a read-only intp
    array, built on the tuple's first use by ``columns_of``. A build that raises
    stores nothing, so the same tuple raises again on its next use."""

    def __init__(self, columns_of: Callable[[tuple[str, ...]], np.ndarray]):
        super().__init__()
        self.columns_of = columns_of

    def __missing__(self, api_calls: tuple[str, ...]) -> np.ndarray:
        cols = self.columns_of(api_calls)
        cols.setflags(write=False)
        self[api_calls] = cols
        return cols


def key_columns(index: Mapping[str, int]) -> ApiColumns:
    """Binary columns: ``index["api:" + id]``; ids whose key is outside the index
    set none."""
    column = {key.removeprefix("api:"): i for key, i in index.items()
              if key.startswith("api:")}
    return ApiColumns(lambda api_calls: np.array(
        [i for i in map(column.get, api_calls) if i is not None], dtype=np.intp))


def mark_api_calls(row: np.ndarray, components: Iterable[CodeComponent],
                   columns: ApiColumns) -> None:
    """Set 1.0 at the columns of each component's api calls."""
    for comp in components:
        row[columns[comp.api_calls]] = 1.0


def mark_keys(row: np.ndarray, parts: Parts, index: Mapping[str, int],
              columns: ApiColumns) -> None:
    """Set 1.0 at ``index[key]`` for each key of the parts; keys outside the index
    are ignored. ``columns`` are ``key_columns(index)``."""
    for key in manifest_keys(parts):
        i = index.get(key)
        if i is not None:
            row[i] = 1.0
    mark_api_calls(row, parts.components, columns)


def extract_binary(apk: ApkModel, index: Mapping[str, int],
                   columns: ApiColumns) -> np.ndarray:
    """1.0 at ``index[key]`` for each key the app exhibits, in a row of
    ``len(index)`` columns; keys outside the index are ignored. ``columns`` are
    ``key_columns(index)``."""
    out = np.zeros(len(index))
    mark_keys(out, app_parts(apk), index, columns)
    return out


def markov_counts(components: Sequence[CodeComponent]) -> np.ndarray:
    """Family-transition counts of the components' call edges as float64, flattened
    row-major: entry a * API_FAMILY_COUNT + b counts the a -> b edges. The sum of
    the components' cached ``transition_counts``."""
    counts = np.zeros(API_FAMILY_COUNT ** 2, dtype=np.intp)
    for c in components:
        counts += c.transition_counts
    return counts.astype(np.float64)


def markov_row(counts: np.ndarray) -> np.ndarray:
    """Row-normalize flat transition counts: entry (a, b) becomes the fraction of
    family-a out-edges that land in family b; families with no out-edges keep an
    all-zero row."""
    counts = counts.reshape(API_FAMILY_COUNT, API_FAMILY_COUNT)
    row_sums = counts.sum(axis=1, keepdims=True)
    matrix = np.divide(counts, row_sums, out=np.zeros_like(counts), where=row_sums > 0)
    return matrix.ravel()


def extract_markov(apk: ApkModel) -> np.ndarray:
    """Row-normalized family-transition matrix of the call graph, flattened row-major."""
    return markov_row(markov_counts(apk.components))


def build_api_cluster_map(api_ids: Iterable[str], seed: int) -> dict[str, int]:
    """Seeded, balanced random partition of the api ids into clusters, in api-id order."""
    ids = sorted(set(api_ids))
    order = np.random.default_rng(seed).permutation(len(ids))
    return dict(sorted((ids[int(j)], int(rank % CLUSTER_COUNT))
                       for rank, j in enumerate(order)))


def cluster_columns(cluster_map: Mapping[str, int]) -> ApiColumns:
    """Api-cluster columns: each api id's cluster. An id the map lacks raises."""
    def columns_of(api_calls: tuple[str, ...]) -> np.ndarray:
        try:
            return np.array([cluster_map[api] for api in api_calls], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"api id missing from cluster map: {exc.args[0]}") from None
    return ApiColumns(columns_of)


def extract_api_cluster(apk: ApkModel, columns: ApiColumns) -> np.ndarray:
    """1.0 at cluster i when any api call mapped to cluster i occurs in the app.
    ``columns`` are the ``cluster_columns`` of the cluster map."""
    out = np.zeros(CLUSTER_COUNT)
    mark_api_calls(out, apk.components, columns)
    return out

