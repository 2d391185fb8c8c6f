"""Perturbations: their kinds, their application to an app, and the
perturbation set built from the Android catalog and benign donors, with keyword
extraction, keyword similarity, and semantic clustering."""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .catalog import AndroidCatalog
from .corpus import CODE_KINDS, NO_NAMES, ApkModel, CodeComponent, DeclaredComponent, permission

if TYPE_CHECKING:
    from .pstree import PSTree

INJECT_KINDS = ("inject_service", "inject_receiver", "inject_provider")


class IntentKind(NamedTuple):
    """An intent perturbation kind: the kind of the declared component its
    payload lands in, whether the payload is a category (else an action), and
    its selection-tree bucket under manifest/action_category."""

    component: str
    category: bool
    bucket: str


INTENT_KINDS = {
    "activity_action": IntentKind("activity", False, "activity_action"),
    "broadcast_action": IntentKind("receiver", False, "broadcast"),
    "category": IntentKind("activity", True, "category"),
}

# Keyword similarity a pair of manifest groups must exceed to merge.
SIMILARITY_THRESHOLD = 0.5

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
    """Perturbations and their groups, which ``build_perturbation_set`` derives."""

    perturbations: tuple[Perturbation, ...]
    groups: tuple[PerturbationGroup, ...]
    # The selection tree the pst attacks copy, set by ``attack.reference_tree``.
    tree: PSTree | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.perturbations)

    @cached_property
    def arms(self) -> dict[str, tuple[Perturbation, ...]]:
        """The bandit's arms: the perturbations bucketed by their second-layer
        tree position, in fixed order. Every bandit attack reads them and none
        changes them."""
        buckets: dict[str, list[Perturbation]] = {}
        for group in self.groups:
            buckets.setdefault(leaf_path(group)[1], []).extend(group.members)
        return {label: tuple(buckets[label])
                for label in CHILD_ORDER["manifest"] + CHILD_ORDER["code"] if label in buckets}


def keyword_extract(kind: str, payload) -> list[str]:
    """Semantic keywords of a manifest perturbation's payload name: the non-empty
    tokens of a feature's name after its ``android.hardware.`` or
    ``android.software.`` prefix split at dots, or of any other name's last
    segment split at underscores and upper-cased."""
    name = payload.name if kind == "permission" else payload
    if kind == "uses_feature":
        tokens = name.split(".")[2:]
    else:
        tokens = [tok.upper() for tok in name.rsplit(".", 1)[-1].split("_")]
    return [tok for tok in tokens if tok]


def keyword_similarity(c_i: PerturbationGroup, c_j: PerturbationGroup) -> float:
    """Identical-keyword count over the smaller group's keyword-set size."""
    overlap = len(c_i.keywords & c_j.keywords)
    return overlap / min(len(c_i.keywords), len(c_j.keywords))


def cluster_perturbations(perturbations: Sequence[Perturbation],
                          threshold: float = SIMILARITY_THRESHOLD
                          ) -> list[PerturbationGroup]:
    """Greedy agglomerative merge of manifest perturbations, each first a group
    of its own ``keyword_extract`` keywords: repeatedly merge the first pair
    (lexicographic enumeration over current positions) whose similarity strictly
    exceeds the threshold, until no pair qualifies."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("similarity threshold must lie in (0, 1]")
    groups = [PerturbationGroup(members=(p,),
                                keywords=frozenset(keyword_extract(p.kind, p.payload)))
              for p in perturbations]

    def pairs(i: int):
        # After a merge into position i, every pair (a, b) with a < i and b != i
        # was checked before and holds the same groups, so the scan resumes
        # with the pairs (a, i) and then from (i, i + 1).
        yield from ((a, i) for a in range(i))
        yield from ((a, b) for a in range(i, len(groups)) for b in range(a + 1, len(groups)))

    i = 0
    while pair := next(((a, b) for a, b in pairs(i)
                        if keyword_similarity(groups[a], groups[b]) > threshold), None):
        i, j = pair
        groups[i] = PerturbationGroup(members=groups[i].members + groups[j].members,
                                      keywords=groups[i].keywords | groups[j].keywords)
        del groups[j]
    return groups


def leaf_path(group: PerturbationGroup) -> tuple[str, ...]:
    """Position of a group in the selection tree: its first member's."""
    return tree_position(group.members[0])


def tree_position(p: Perturbation) -> tuple[str, ...]:
    """The labels below the root of the selection-tree bucket that holds a
    perturbation."""
    kind = p.kind
    if kind == "uses_feature":
        bucket = ("hardware" if p.payload.startswith("android.hardware.")
                  else "software")
        return ("manifest", "uses_feature", bucket)
    if kind == "permission":
        return ("manifest", "permission", p.payload.protection_level)
    if kind in INTENT_KINDS:
        return ("manifest", "action_category", INTENT_KINDS[kind].bucket)
    return ("code", kind.removeprefix("inject_"))


def _manifest_perturbations(catalog: AndroidCatalog) -> list[Perturbation]:
    entries = (
        [("uses_feature", name)
         for name in catalog.hardware_features + catalog.software_features]
        + [("permission", permission(name, level))
           for name, level in catalog.permissions if level != "dangerous"]
        + [("activity_action", name) for name in catalog.activity_actions]
        + [("broadcast_action", name) for name in catalog.broadcast_actions]
        + [("category", name) for name in catalog.categories])
    return [Perturbation(kind, payload) for kind, payload in entries]


def _donor_perturbations(donors) -> list[Perturbation]:
    out: list[Perturbation] = []
    for donor in donors:
        declared_code = [d for d in donor.declared_components
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
    excluded) plus one injection per non-empty donor component, grouped per
    tree position: each manifest bucket clustered at ``SIMILARITY_THRESHOLD``,
    one group per injection."""
    perturbations = _manifest_perturbations(catalog) + _donor_perturbations(donors)
    by_path: dict[tuple[str, ...], list[Perturbation]] = {}
    for p in perturbations:
        by_path.setdefault(tree_position(p), []).append(p)

    groups: list[PerturbationGroup] = []
    for path, bucket in sorted(by_path.items()):
        if path[0] == "code":
            groups.extend(PerturbationGroup(members=(p,), keywords=frozenset()) for p in bucket)
        else:
            groups.extend(cluster_perturbations(bucket))
    return PerturbationSet(perturbations=tuple(perturbations), groups=tuple(groups))


# ---------------------------------------------------------------------------
# Application


@dataclass(frozen=True)
class InjectablePayload:
    """A donor component ready for injection: manifest declaration + code."""

    source_apk_id: str
    declared: DeclaredComponent
    component: CodeComponent

    @cached_property
    def injected_component(self) -> CodeComponent:
        """The component as it lands in a target app; one object shared by every
        app the payload is injected into."""
        return replace(self.component, origin="injected")


_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def random_name(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(_NAME_ALPHABET, k=length))


def _declared_names(apk: ApkModel) -> set[tuple[str, str]]:
    return {(c.kind, c.name) for c in apk.declared_components}


def _fresh_component_name(apk: ApkModel, kind: str, rng: random.Random) -> str:
    taken = _declared_names(apk)
    name = random_name(rng, 20)
    while (kind, name) in taken:
        name = random_name(rng, 20)
    return name


def apply_perturbation(apk: ApkModel, perturbation: Perturbation,
                       rng: random.Random) -> ApkModel:
    """Apply one additive perturbation and return the perturbed model.

    When the perturbation's effect is already present the input model itself is
    returned, and no randomness is consumed. Each branch builds the new app with
    the constructor, not ``dataclasses.replace``, which reads each class's fields
    on every call: an attack builds one per query.
    """
    kind = perturbation.kind
    payload = perturbation.payload
    declared = apk.declared_components

    if kind == "uses_feature":
        if payload in apk.uses_features:
            return apk
        return ApkModel(apk.id, apk.uses_features | {payload}, apk.permissions,
                        declared, apk.components, apk.ground_truth)

    if kind == "permission":
        if any(p.name == payload.name for p in apk.permissions):
            return apk
        return ApkModel(apk.id, apk.uses_features, apk.permissions | {payload},
                        declared, apk.components, apk.ground_truth)

    if kind in INTENT_KINDS:
        comp_kind, category, _ = INTENT_KINDS[kind]
        if any(payload in (c.intent_categories if category else c.intent_actions)
               for c in declared):
            return apk
        added = frozenset({payload})
        comp = DeclaredComponent(
            kind=comp_kind, name=_fresh_component_name(apk, comp_kind, rng),
            intent_actions=NO_NAMES if category else added,
            intent_categories=added if category else NO_NAMES,
            exported=True, enabled=True,
            process=":" + random_name(rng, 8),
            data_uri="scheme://" + random_name(rng, 16))
        return ApkModel(apk.id, apk.uses_features, apk.permissions, declared + (comp,),
                        apk.components, apk.ground_truth)

    # An injection: one of INJECT_KINDS.
    source = payload.declared
    if (source.kind, source.name) in _declared_names(apk):
        return apk
    comp = DeclaredComponent(
        source.kind, source.name, source.intent_actions, source.intent_categories,
        exported=True, enabled=True, process=":" + random_name(rng, 8),
        data_uri=source.data_uri)
    return ApkModel(apk.id, apk.uses_features, apk.permissions, declared + (comp,),
                    apk.components + (payload.injected_component,), apk.ground_truth)
