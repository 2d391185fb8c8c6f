"""Perturbation-set construction from the Android catalog and benign donors,
keyword extraction, keyword similarity, and semantic clustering."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import json

from .catalog import AndroidCatalog, integer, items, obj, read_document, string, strings
from .corpus import (
    CODE_KINDS,
    InjectablePayload,
    Permission,
    _component_from_dict,
    _component_to_dict,
    _declared_from_dict,
    _declared_to_dict,
    check_code_component,
)

if TYPE_CHECKING:
    from .pstree import PSTree

INJECT_KINDS = ("inject_service", "inject_receiver", "inject_provider")

# Keyword similarity a pair of manifest groups must exceed to merge.
SIMILARITY_THRESHOLD = 0.5

# Version of the pset JSON layout; files of any other version are refused.
PSET_FORMAT = 5

_FEATURE_PREFIXES = ("android.hardware.", "android.software.")

# Fixed child order per selection-tree label; the labels with no entry are the
# buckets that hold leaf groups.
CHILD_ORDER = {
    "root": ("manifest", "code"),
    "manifest": ("uses_feature", "permission", "action_category"),
    "uses_feature": ("hardware", "software"),
    "permission": ("normal", "signature"),
    "action_category": ("activity_action", "broadcast", "category"),
    "code": ("service", "receiver", "provider"),
}


@dataclass(frozen=True)
class Perturbation:
    kind: str
    payload: object
    keywords: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Stable identifier used in attack traces and reports."""
        if self.kind == "permission":
            return f"permission:{self.payload.name}"
        if self.kind in INJECT_KINDS:
            p = self.payload
            return f"{self.kind}:{p.source_apk_id}/{p.declared.name}"
        return f"{self.kind}:{self.payload}"


@dataclass(frozen=True)
class PerturbationGroup:
    members: tuple[Perturbation, ...]
    keywords: frozenset[str]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PerturbationSet:
    perturbations: tuple[Perturbation, ...]
    groups: tuple[PerturbationGroup, ...]
    # The selection tree the pst attacks copy, set by ``attack.reference_tree``.
    tree: PSTree | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.perturbations)

    @cached_property
    def arms(self) -> dict[str, tuple[Perturbation, ...]]:
        """The bandit's arms, ``second_layer_arms`` of the set: every bandit
        attack reads them and none changes them."""
        return second_layer_arms(self)


def keyword_extract(p: Perturbation) -> list[str]:
    """Semantic keywords of a manifest perturbation's payload name."""
    if p.kind == "permission":
        name = p.payload.name
    elif p.kind in ("activity_action", "broadcast_action", "category"):
        name = p.payload
    elif p.kind == "uses_feature":
        name = p.payload
        for prefix in _FEATURE_PREFIXES:
            if name.startswith(prefix):
                return name[len(prefix):].split(".")
        raise ValueError(f"feature name lacks a known prefix: {name}")
    else:
        raise ValueError(f"no keywords for perturbation kind: {p.kind}")
    segment = name.rsplit(".", 1)[-1]
    return [tok.upper() for tok in segment.split("_") if tok]


def keyword_similarity(c_i: PerturbationGroup, c_j: PerturbationGroup) -> float:
    """Identical-keyword count over the smaller group's keyword-set size."""
    if not c_i.keywords or not c_j.keywords:
        raise ValueError("keyword similarity needs non-empty keyword sets")
    overlap = len(c_i.keywords & c_j.keywords)
    return overlap / min(len(c_i.keywords), len(c_j.keywords))


def cluster_perturbations(perturbations: Sequence[Perturbation],
                          threshold: float = SIMILARITY_THRESHOLD
                          ) -> list[PerturbationGroup]:
    """Greedy agglomerative merge: repeatedly merge the first pair (lexicographic
    enumeration over current positions) whose similarity strictly exceeds the
    threshold, until no pair qualifies."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("similarity threshold must lie in (0, 1]")
    groups = [PerturbationGroup(members=(p,), keywords=frozenset(p.keywords))
              for p in perturbations]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if keyword_similarity(groups[i], groups[j]) > threshold:
                    groups[i] = PerturbationGroup(
                        members=groups[i].members + groups[j].members,
                        keywords=groups[i].keywords | groups[j].keywords)
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return groups


def leaf_path(group: PerturbationGroup) -> tuple[str, ...]:
    """Position of a group in the selection tree: its first member's."""
    return tree_position(group.members[0])


def second_layer_arms(pset: PerturbationSet) -> dict[str, tuple[Perturbation, ...]]:
    """Perturbations bucketed by their second-layer tree position, in fixed order."""
    order = CHILD_ORDER["manifest"] + CHILD_ORDER["code"]
    buckets: dict[str, list[Perturbation]] = {}
    for group in pset.groups:
        label = leaf_path(group)[1]
        buckets.setdefault(label, []).extend(group.members)
    return {label: tuple(buckets[label]) for label in order if label in buckets}


def tree_position(p: Perturbation) -> tuple[str, ...]:
    """The labels below the root of the selection-tree bucket that holds a
    perturbation; a permission level with no bucket raises ``ValueError``."""
    kind = p.kind
    if kind == "uses_feature":
        bucket = ("hardware" if p.payload.startswith("android.hardware.")
                  else "software")
        return ("manifest", "uses_feature", bucket)
    if kind == "permission":
        level = p.payload.protection_level
        if level not in CHILD_ORDER["permission"]:
            raise ValueError(f"perturbation {p.key}: no selection-tree position "
                             f"manifest/permission/{level}")
        return ("manifest", "permission", level)
    if kind == "activity_action":
        return ("manifest", "action_category", "activity_action")
    if kind == "broadcast_action":
        return ("manifest", "action_category", "broadcast")
    if kind == "category":
        return ("manifest", "action_category", "category")
    if kind in INJECT_KINDS:
        return ("code", kind.removeprefix("inject_"))
    raise ValueError(f"unknown perturbation kind: {kind}")


def _manifest_perturbations(catalog: AndroidCatalog) -> list[Perturbation]:
    out: list[Perturbation] = []
    for name in catalog.hardware_features + catalog.software_features:
        out.append(Perturbation(kind="uses_feature", payload=name))
    for name, level in catalog.permissions:
        if level == "dangerous":
            continue
        out.append(Perturbation(kind="permission",
                                payload=Permission(name, level)))
    for name in catalog.activity_actions:
        out.append(Perturbation(kind="activity_action", payload=name))
    for name in catalog.broadcast_actions:
        out.append(Perturbation(kind="broadcast_action", payload=name))
    for name in catalog.categories:
        out.append(Perturbation(kind="category", payload=name))
    return [Perturbation(kind=p.kind, payload=p.payload,
                         keywords=tuple(keyword_extract(p))) for p in out]


def _donor_perturbations(donors) -> list[Perturbation]:
    out: list[Perturbation] = []
    for donor in donors:
        declared_code = [d for d in donor.manifest.declared_components
                         if d.kind in CODE_KINDS]
        if len(declared_code) != len(donor.components):
            raise ValueError(f"donor {donor.id} declarations do not match its code")
        for decl, comp in zip(declared_code, donor.components):
            if decl.kind != comp.kind:
                raise ValueError(f"donor {donor.id} component order is inconsistent")
            if not comp.families.size:
                continue  # nothing to inject
            payload = InjectablePayload(source_apk_id=donor.id, declared=decl,
                                        component=comp)
            out.append(Perturbation(kind="inject_" + comp.kind, payload=payload))
    return out


def build_perturbation_set(catalog: AndroidCatalog, donors=()) -> PerturbationSet:
    """One perturbation per eligible catalog entry (dangerous permissions are
    excluded) plus one injection per non-empty donor component; manifest
    perturbations are then clustered per tree position at
    ``SIMILARITY_THRESHOLD``."""
    perturbations = _manifest_perturbations(catalog) + _donor_perturbations(donors)
    if not perturbations:
        raise ValueError("no eligible catalog entries and no donor components")

    by_path: dict[tuple[str, ...], list[Perturbation]] = {}
    for p in perturbations:
        by_path.setdefault(tree_position(p), []).append(p)

    groups: list[PerturbationGroup] = []
    for path in sorted(by_path):
        bucket = by_path[path]
        if path[0] == "code":
            groups.extend(PerturbationGroup(members=(p,), keywords=frozenset())
                          for p in bucket)
        else:
            groups.extend(cluster_perturbations(bucket))
    return PerturbationSet(perturbations=tuple(perturbations), groups=tuple(groups))


# ---------------------------------------------------------------------------
# Serialization


def _perturbation_to_dict(p: Perturbation) -> dict:
    doc: dict = {"kind": p.kind, "keywords": list(p.keywords)}
    if p.kind == "permission":
        doc["payload"] = asdict(p.payload)
    elif p.kind in INJECT_KINDS:
        doc["payload"] = {
            "source_apk_id": p.payload.source_apk_id,
            "declared": _declared_to_dict(p.payload.declared),
            "component": _component_to_dict(p.payload.component),
        }
    else:
        doc["payload"] = p.payload
    return doc


def _perturbation_from_dict(doc: dict) -> Perturbation:
    kind = string(doc["kind"], "perturbation kind")
    raw, where = doc["payload"], f"{kind} payload"
    if kind == "permission":
        payload: object = Permission(string(obj(raw, where)["name"], where + " name"),
                                     string(raw["protection_level"], where + " level"))
    elif kind in INJECT_KINDS:
        payload = InjectablePayload(
            source_apk_id=string(obj(raw, where)["source_apk_id"], where + " source_apk_id"),
            declared=_declared_from_dict(raw["declared"]),
            component=_component_from_dict(raw["component"]))
    else:
        payload = string(raw, where)
    return Perturbation(kind=kind, payload=payload,
                        keywords=strings(doc["keywords"], f"{kind} keywords"))


def pset_to_dict(pset: PerturbationSet) -> dict:
    key_index = {p.key: i for i, p in enumerate(pset.perturbations)}
    return {
        "format": PSET_FORMAT,
        "perturbations": [_perturbation_to_dict(p) for p in pset.perturbations],
        "groups": [{"members": [key_index[m.key] for m in g.members],
                    "keywords": sorted(g.keywords)} for g in pset.groups],
    }


def pset_from_dict(doc: dict) -> PerturbationSet:
    """The pset in a document; keywords that are not strings, malformed groups or
    payload components, an injection whose kind, declaration and component
    disagree, a member index out of range or a perturbation with no tree
    position raise a one-line ``ValueError``."""
    perturbations = tuple(map(_perturbation_from_dict,
                              items(doc["perturbations"], "perturbations")))
    for p in perturbations:
        tree_position(p)
        if p.kind in INJECT_KINDS:
            check_code_component(p.payload.component, f"payload {p.key}")
            declared, code = p.payload.declared.kind, p.payload.component.kind
            if p.kind != "inject_" + code or declared != code:
                raise ValueError(f"payload {p.key}: kinds disagree: {p.kind}, "
                                 f"declared {declared}, code {code}")
    if not isinstance(doc["groups"], list):
        raise ValueError(f"groups is a {type(doc['groups']).__name__}, not a list")
    groups = []
    for i, g in enumerate(doc["groups"]):
        if not (isinstance(g, dict) and isinstance(g.get("members"), list) and g["members"]):
            raise ValueError(f"group {i} is not an object with a non-empty members list")
        for m in g["members"]:
            if not 0 <= integer(m, f"group {i}: member index") < len(perturbations):
                raise ValueError(f"group {i}: member index {m} out of range")
        groups.append(PerturbationGroup(
            members=tuple(perturbations[m] for m in g["members"]),
            keywords=frozenset(strings(g["keywords"], f"group {i} keywords"))))
    return PerturbationSet(perturbations=perturbations, groups=tuple(groups))


def save_pset(pset: PerturbationSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(pset_to_dict(pset), sort_keys=True),
                          encoding="utf-8")


def load_pset(path: str | Path) -> PerturbationSet:
    """Load a pset file and check every group and payload component in it."""
    return read_document(path, pset_from_dict,
                         ("pset", PSET_FORMAT, "rebuild it with build-pset"))
