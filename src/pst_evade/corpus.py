"""Abstract Android app model: manifest + code graph, synthetic corpus generation,
additive perturbation application, and containment/isolation checks."""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .catalog import AndroidCatalog, load_default_catalog, read_json

if TYPE_CHECKING:
    from .perturbset import Perturbation

GROUND_TRUTHS = ("benign", "malicious")
COMPONENT_KINDS = ("activity", "service", "receiver", "provider")
CODE_KINDS = ("service", "receiver", "provider")
ORIGINS = ("original", "injected")

_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

ACTION_MAIN = "android.intent.action.MAIN"
CATEGORY_LAUNCHER = "android.intent.category.LAUNCHER"


@dataclass(frozen=True)
class Permission:
    name: str
    protection_level: str


@dataclass(frozen=True)
class DeclaredComponent:
    kind: str
    name: str
    intent_actions: frozenset[str]
    intent_categories: frozenset[str]
    exported: bool
    enabled: bool
    process: str | None = None
    data_uri: str | None = None


@dataclass(frozen=True)
class ManifestModel:
    uses_features: frozenset[str]
    permissions: frozenset[Permission]
    declared_components: tuple[DeclaredComponent, ...]


@dataclass(frozen=True)
class ApiCall:
    api_id: str
    family_id: int
    package_id: int


@dataclass(frozen=True)
class CodeComponent:
    kind: str
    classes: int
    functions: tuple[str, ...]
    api_calls: tuple[ApiCall, ...]
    origin: str = "original"


@dataclass(frozen=True)
class CodeGraph:
    components: tuple[CodeComponent, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def family_pairs(self) -> np.ndarray:
        """(caller family, callee family) per edge, shape (m, 2); parsed once per graph,
        which manifest-only perturbations keep and donor injections extend."""
        return _parse_family_pairs(self.edges)


@dataclass(frozen=True)
class ApkModel:
    id: str
    manifest: ManifestModel
    code: CodeGraph
    ground_truth: str


# Function ids carry their markov family as a suffix: "<apk>.c<i>.f<k>@<family>".
def function_family(function_id: str) -> int:
    """Family label of a function id; raises if the id carries none."""
    _, sep, tail = function_id.rpartition("@")
    if not sep:
        raise ValueError(f"function id has no family label: {function_id!r}")
    try:
        fam = int(tail)
    except ValueError as exc:
        raise ValueError(f"function id has a malformed family label: {function_id!r}") from exc
    if fam < 0:
        raise ValueError(f"function id has a negative family label: {function_id!r}")
    return fam


def _parse_family_pairs(edges: tuple[tuple[str, str], ...]) -> np.ndarray:
    """(caller family, callee family) of each edge, in edge order, shape (m, 2)."""
    fams = [function_family(f) for edge in edges for f in edge]
    # The narrowest dtype that holds every family: the array lives as long as its graph.
    dtype = np.min_scalar_type(max(fams, default=0))
    return np.array(fams, dtype=dtype).reshape(-1, 2)


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for the synthetic corpus generator. Defaults are desk scale."""

    n_benign: int = 260
    n_malicious: int = 260
    donor_count: int = 100
    # Mean code components per app, per kind. With 100 donors the expected donor
    # pool is ~108 services, ~104 receivers, ~24 providers.
    mean_services: float = 1.08
    mean_receivers: float = 1.04
    mean_providers: float = 0.24
    # Mean component richness, per kind.
    mean_classes_service: float = 175.0
    mean_classes_receiver: float = 136.0
    mean_classes_provider: float = 417.0
    mean_functions_service: float = 873.0
    mean_functions_receiver: float = 703.0
    mean_functions_provider: float = 2044.0
    # Manifest/API pools. None means the full catalog pool.
    feature_pool_size: int | None = None
    permission_pool_size: int | None = None
    action_pool_size: int | None = None
    category_pool_size: int | None = None
    api_vocab_size: int = 240
    api_family_count: int = 11
    api_package_count: int = 40
    # Class-conditional per-item inclusion probabilities are drawn uniformly
    # from [inclusion_low, inclusion_high], independently per class.
    inclusion_low: float = 0.02
    inclusion_high: float = 0.45
    edge_factor: float = 1.3
    # Trailing test fraction of each class is drawn with per-item drifted rates.
    test_fraction: float = 0.25
    test_drift: float = 0.15
    seed: int = 7

    def mean_components(self, kind: str) -> float:
        return {"service": self.mean_services, "receiver": self.mean_receivers,
                "provider": self.mean_providers}[kind]

    def mean_classes(self, kind: str) -> float:
        return {"service": self.mean_classes_service, "receiver": self.mean_classes_receiver,
                "provider": self.mean_classes_provider}[kind]

    def mean_functions(self, kind: str) -> float:
        return {"service": self.mean_functions_service, "receiver": self.mean_functions_receiver,
                "provider": self.mean_functions_provider}[kind]


@dataclass(frozen=True)
class Corpus:
    spec: CorpusSpec
    benign: tuple[ApkModel, ...]
    malicious: tuple[ApkModel, ...]
    donors: tuple[ApkModel, ...]

    def train_test_split(self) -> tuple[tuple[ApkModel, ...], tuple[ApkModel, ...]]:
        """(train, test) across both classes, using the spec's trailing test fraction."""
        nb = _train_count(len(self.benign), self.spec.test_fraction)
        nm = _train_count(len(self.malicious), self.spec.test_fraction)
        train = self.benign[:nb] + self.malicious[:nm]
        test = self.benign[nb:] + self.malicious[nm:]
        return train, test


def _train_count(n: int, test_fraction: float) -> int:
    return n - int(round(n * test_fraction))


class _Pool:
    """One item pool with per-class, per-split inclusion rates."""

    def __init__(self, items: list[str], rng: np.random.Generator, spec: CorpusSpec):
        self.items = items
        n = len(items)
        lo, hi = spec.inclusion_low, spec.inclusion_high
        self.rate = {
            "benign": lo + (hi - lo) * rng.random(n),
            "malicious": lo + (hi - lo) * rng.random(n),
        }
        drift_sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        self.test_rate = {
            cls: np.clip(self.rate[cls] * (1.0 + spec.test_drift * drift_sign), 0.0, 1.0)
            for cls in GROUND_TRUTHS
        }

    def sample(self, rng: np.random.Generator, cls: str, shifted: bool) -> list[str]:
        rates = self.test_rate[cls] if shifted else self.rate[cls]
        mask = rng.random(len(self.items)) < rates
        return [item for item, hit in zip(self.items, mask) if hit]

    def sample_indices(self, rng: np.random.Generator, cls: str, shifted: bool) -> np.ndarray:
        rates = self.test_rate[cls] if shifted else self.rate[cls]
        return np.flatnonzero(rng.random(len(self.items)) < rates)


class _GeneratorState:
    def __init__(self, spec: CorpusSpec, catalog: AndroidCatalog, rng: np.random.Generator):
        self.spec = spec
        self.catalog = catalog

        features = list(catalog.hardware_features + catalog.software_features)
        perms = list(catalog.permissions)
        actions = list(catalog.activity_actions + catalog.broadcast_actions)
        categories = list(catalog.categories)
        if spec.feature_pool_size is not None:
            features = features[: spec.feature_pool_size]
        if spec.permission_pool_size is not None:
            perms = perms[: spec.permission_pool_size]
        if spec.action_pool_size is not None:
            actions = actions[: spec.action_pool_size]
        if spec.category_pool_size is not None:
            categories = categories[: spec.category_pool_size]

        self.permissions = {name: Permission(name, level) for name, level in perms}
        self.feature_pool = _Pool(features, rng, spec)
        self.permission_pool = _Pool([name for name, _ in perms], rng, spec)
        self.action_pool = _Pool(actions, rng, spec)
        self.category_pool = _Pool(categories, rng, spec)

        f, p = spec.api_family_count, max(1, spec.api_package_count)
        self.api_ids = [f"api.pkg{i % p:02d}.fn{i:03d}" for i in range(spec.api_vocab_size)]
        self.api_families = rng.integers(0, max(1, f), spec.api_vocab_size)
        self.api_packages = np.array([i % p for i in range(spec.api_vocab_size)])
        self.api_pool = _Pool(self.api_ids, rng, spec)

        # Class-conditional family-transition propensities for call edges.
        fam = max(1, f)
        self.transitions = {
            cls: rng.dirichlet(np.full(fam, 0.7), size=fam) for cls in GROUND_TRUTHS
        }
        self.transition_cum = {cls: np.cumsum(t, axis=1) for cls, t in self.transitions.items()}


def _gen_component(state: _GeneratorState, rng: np.random.Generator, apk_id: str,
                   comp_index: int, kind: str, cls: str, shifted: bool) -> tuple[CodeComponent, tuple[tuple[str, str], ...]]:
    spec = state.spec
    fam_count = max(1, spec.api_family_count)
    classes = int(rng.poisson(spec.mean_classes(kind)))
    n_f = int(rng.poisson(spec.mean_functions(kind)))
    fams = rng.integers(0, fam_count, n_f) if n_f else np.empty(0, dtype=int)
    prefix = f"{apk_id}.c{comp_index}"
    functions = tuple(f"{prefix}.f{k}@{fams[k]}" for k in range(n_f))

    api_idx = state.api_pool.sample_indices(rng, cls, shifted)
    api_calls = tuple(
        ApiCall(state.api_ids[i], int(state.api_families[i]), int(state.api_packages[i]))
        for i in api_idx
    )

    edges: tuple[tuple[str, str], ...] = ()
    if n_f > 0:
        m = int(rng.poisson(spec.edge_factor * n_f))
        if m > 0:
            order = np.argsort(fams, kind="stable")
            counts = np.bincount(fams, minlength=fam_count)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            callers = rng.integers(0, n_f, m)
            caller_fams = fams[callers]
            u = rng.random(m)
            cum = state.transition_cum[cls]
            callee_fams = (u[:, None] > cum[caller_fams]).sum(axis=1)
            callee_fams = np.minimum(callee_fams, fam_count - 1)
            # Empty target families fall back to the caller's own family.
            callee_fams = np.where(counts[callee_fams] == 0, caller_fams, callee_fams)
            offsets = rng.integers(0, counts[callee_fams])
            callees = order[starts[callee_fams] + offsets]
            pairs = np.unique(np.stack([callers, callees], axis=1), axis=0)
            edges = tuple((functions[a], functions[b]) for a, b in pairs)

    comp = CodeComponent(kind=kind, classes=classes, functions=functions,
                         api_calls=api_calls, origin="original")
    return comp, edges


def _gen_app(state: _GeneratorState, rng: np.random.Generator, apk_id: str,
             cls: str, shifted: bool) -> ApkModel:
    spec = state.spec
    features = frozenset(state.feature_pool.sample(rng, cls, shifted))
    perm_names = state.permission_pool.sample(rng, cls, shifted)
    permissions = frozenset(state.permissions[name] for name in perm_names)
    actions = frozenset(state.action_pool.sample(rng, cls, shifted))
    categories = frozenset(state.category_pool.sample(rng, cls, shifted))

    declared: list[DeclaredComponent] = [
        DeclaredComponent(kind="activity", name=f"com.app.{apk_id}.Main",
                          intent_actions=frozenset({ACTION_MAIN}),
                          intent_categories=frozenset({CATEGORY_LAUNCHER}),
                          exported=True, enabled=True)
    ]
    if actions or categories:
        declared.append(DeclaredComponent(
            kind="activity", name=f"com.app.{apk_id}.Intents",
            intent_actions=actions, intent_categories=categories,
            exported=bool(rng.integers(0, 2)), enabled=True))

    components: list[CodeComponent] = []
    edges: list[tuple[str, str]] = []
    comp_index = 0
    for kind in CODE_KINDS:
        count = int(rng.poisson(spec.mean_components(kind)))
        for _ in range(count):
            comp, comp_edges = _gen_component(state, rng, apk_id, comp_index, kind, cls, shifted)
            components.append(comp)
            edges.extend(comp_edges)
            declared.append(DeclaredComponent(
                kind=kind, name=f"com.app.{apk_id}.{kind.capitalize()}{comp_index}",
                intent_actions=frozenset(), intent_categories=frozenset(),
                exported=bool(rng.integers(0, 2)), enabled=True))
            comp_index += 1

    manifest = ManifestModel(uses_features=features, permissions=permissions,
                             declared_components=tuple(declared))
    code = CodeGraph(components=tuple(components), edges=tuple(edges))
    return ApkModel(id=apk_id, manifest=manifest, code=code, ground_truth=cls)


def generate_corpus(spec: CorpusSpec, catalog: AndroidCatalog | None = None) -> Corpus:
    """Deterministically generate a labeled corpus plus a benign donor pool."""
    if catalog is None:
        catalog = load_default_catalog()
    rng = np.random.default_rng(spec.seed)
    state = _GeneratorState(spec, catalog, rng)

    n_train_b = _train_count(spec.n_benign, spec.test_fraction)
    n_train_m = _train_count(spec.n_malicious, spec.test_fraction)
    benign = tuple(
        _gen_app(state, rng, f"b{i:03d}", "benign", shifted=i >= n_train_b)
        for i in range(spec.n_benign)
    )
    malicious = tuple(
        _gen_app(state, rng, f"m{i:03d}", "malicious", shifted=i >= n_train_m)
        for i in range(spec.n_malicious)
    )
    donors = tuple(
        _gen_app(state, rng, f"d{i:03d}", "benign", shifted=False)
        for i in range(spec.donor_count)
    )
    return Corpus(spec=spec, benign=benign, malicious=malicious, donors=donors)


# ---------------------------------------------------------------------------
# Perturbation application


@dataclass(frozen=True)
class InjectablePayload:
    """A donor component ready for injection: manifest declaration + code + its edges."""

    source_apk_id: str
    declared: DeclaredComponent
    component: CodeComponent
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def family_pairs(self) -> np.ndarray:
        """The payload edges' family pairs, parsed once and shared by every app the
        payload is injected into."""
        return _parse_family_pairs(self.edges)


def random_name(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(_NAME_ALPHABET, k=length))


def _declared_names(apk: ApkModel) -> set[tuple[str, str]]:
    return {(c.kind, c.name) for c in apk.manifest.declared_components}


def _fresh_component_name(apk: ApkModel, kind: str, rng: random.Random) -> str:
    taken = _declared_names(apk)
    name = random_name(rng, 20)
    while (kind, name) in taken:
        name = random_name(rng, 20)
    return name


def _with_manifest(apk: ApkModel, manifest: ManifestModel) -> ApkModel:
    return replace(apk, manifest=manifest)


def _add_declared(apk: ApkModel, comp: DeclaredComponent) -> ApkModel:
    manifest = replace(apk.manifest,
                       declared_components=apk.manifest.declared_components + (comp,))
    return _with_manifest(apk, manifest)


def apply_perturbation(apk: ApkModel, perturbation: "Perturbation",
                       rng: random.Random) -> tuple[ApkModel, bool]:
    """Apply one additive perturbation. Returns (model, already_present).

    When the perturbation's effect is already present the input model is returned
    unchanged, the flag is True, and no randomness is consumed.
    """
    kind = perturbation.kind
    payload = perturbation.payload

    if kind == "uses_feature":
        if payload in apk.manifest.uses_features:
            return apk, True
        manifest = replace(apk.manifest, uses_features=apk.manifest.uses_features | {payload})
        return _with_manifest(apk, manifest), False

    if kind == "permission":
        if any(p.name == payload.name for p in apk.manifest.permissions):
            return apk, True
        manifest = replace(apk.manifest, permissions=apk.manifest.permissions | {payload})
        return _with_manifest(apk, manifest), False

    if kind in ("activity_action", "broadcast_action", "category"):
        if kind == "category":
            if any(payload in c.intent_categories for c in apk.manifest.declared_components):
                return apk, True
        else:
            if any(payload in c.intent_actions for c in apk.manifest.declared_components):
                return apk, True
        comp_kind = "receiver" if kind == "broadcast_action" else "activity"
        name = _fresh_component_name(apk, comp_kind, rng)
        comp = DeclaredComponent(
            kind=comp_kind, name=name,
            intent_actions=frozenset() if kind == "category" else frozenset({payload}),
            intent_categories=frozenset({payload}) if kind == "category" else frozenset(),
            exported=True, enabled=True,
            process=":" + random_name(rng, 8),
            data_uri="scheme://" + random_name(rng, 16))
        return _add_declared(apk, comp), False

    if kind in ("inject_service", "inject_receiver", "inject_provider"):
        declared = payload.declared
        if (declared.kind, declared.name) in _declared_names(apk):
            return apk, True
        injected_decl = replace(declared, exported=True, enabled=True,
                                process=":" + random_name(rng, 8))
        injected_comp = replace(payload.component, origin="injected")
        apk = _add_declared(apk, injected_decl)
        code = CodeGraph(components=apk.code.components + (injected_comp,),
                         edges=apk.code.edges + payload.edges)
        # Reuse the parent's parsed pairs when it has them; a graph nobody asked
        # for Markov features stays unparsed.
        parent_pairs = vars(apk.code).get("family_pairs")
        if parent_pairs is not None:
            vars(code)["family_pairs"] = np.concatenate([parent_pairs, payload.family_pairs])
        return replace(apk, code=code), False

    raise ValueError(f"unknown perturbation kind: {kind}")


def contains(original: ApkModel, perturbed: ApkModel) -> bool:
    """True when every manifest element and code node/edge of the original is preserved."""
    om, pm = original.manifest, perturbed.manifest
    if not om.uses_features <= pm.uses_features:
        return False
    if not om.permissions <= pm.permissions:
        return False
    if not set(om.declared_components) <= set(pm.declared_components):
        return False
    oc, pc = original.code, perturbed.code
    if not set(oc.components) <= set(pc.components):
        return False
    o_funcs = {f for c in oc.components for f in c.functions}
    p_funcs = {f for c in pc.components for f in c.functions}
    if not o_funcs <= p_funcs:
        return False
    return set(oc.edges) <= set(pc.edges)


def verify_isolation(apk: ApkModel) -> bool:
    """True when no call edge crosses between injected and original code."""
    origin_of: dict[str, str] = {}
    for comp in apk.code.components:
        for fn in comp.functions:
            origin_of[fn] = comp.origin
    for a, b in apk.code.edges:
        oa, ob = origin_of.get(a), origin_of.get(b)
        if oa is None or ob is None:
            return False
        if oa != ob:
            return False
    return True


def validate_apk(apk: ApkModel) -> None:
    """Raise ValueError on structural violations of the app model."""
    if apk.ground_truth not in GROUND_TRUTHS:
        raise ValueError(f"bad ground truth: {apk.ground_truth}")
    seen: set[tuple[str, str]] = set()
    for comp in apk.manifest.declared_components:
        if comp.kind not in COMPONENT_KINDS:
            raise ValueError(f"bad component kind: {comp.kind}")
        key = (comp.kind, comp.name)
        if key in seen:
            raise ValueError(f"duplicate declared component: {key}")
        seen.add(key)
    funcs: set[str] = set()
    for comp in apk.code.components:
        if comp.kind not in CODE_KINDS:
            raise ValueError(f"bad code component kind: {comp.kind}")
        if comp.origin not in ORIGINS:
            raise ValueError(f"bad origin: {comp.origin}")
        for fn in comp.functions:
            if fn in funcs:
                raise ValueError(f"duplicate function id: {fn}")
            funcs.add(fn)
    for a, b in apk.code.edges:
        if a not in funcs or b not in funcs:
            raise ValueError(f"edge references unknown function: {(a, b)}")
    if not verify_isolation(apk):
        raise ValueError("edge crosses between injected and original code")


# ---------------------------------------------------------------------------
# Serialization


def _declared_to_dict(c: DeclaredComponent) -> dict:
    return {
        "kind": c.kind, "name": c.name,
        "intent_actions": sorted(c.intent_actions),
        "intent_categories": sorted(c.intent_categories),
        "exported": c.exported, "enabled": c.enabled,
        "process": c.process, "data_uri": c.data_uri,
    }


def _declared_from_dict(d: dict) -> DeclaredComponent:
    return DeclaredComponent(
        kind=d["kind"], name=d["name"],
        intent_actions=frozenset(d["intent_actions"]),
        intent_categories=frozenset(d["intent_categories"]),
        exported=bool(d["exported"]), enabled=bool(d["enabled"]),
        process=d.get("process"), data_uri=d.get("data_uri"),
    )


def _component_to_dict(c: CodeComponent) -> dict:
    return {
        "kind": c.kind, "classes": c.classes,
        "functions": list(c.functions),
        "api_calls": [[a.api_id, a.family_id, a.package_id] for a in c.api_calls],
        "origin": c.origin,
    }


def _component_from_dict(d: dict) -> CodeComponent:
    return CodeComponent(
        kind=d["kind"], classes=int(d["classes"]),
        functions=tuple(d["functions"]),
        api_calls=tuple(ApiCall(a, int(f), int(p)) for a, f, p in d["api_calls"]),
        origin=d.get("origin", "original"),
    )


def apk_to_dict(apk: ApkModel) -> dict:
    return {
        "id": apk.id,
        "ground_truth": apk.ground_truth,
        "manifest": {
            "uses_features": sorted(apk.manifest.uses_features),
            "permissions": sorted(
                [p.name, p.protection_level] for p in apk.manifest.permissions
            ),
            "declared_components": [_declared_to_dict(c) for c in apk.manifest.declared_components],
        },
        "code": {
            "components": [_component_to_dict(c) for c in apk.code.components],
            "edges": [[a, b] for a, b in apk.code.edges],
        },
    }


def apk_from_dict(d: dict) -> ApkModel:
    manifest = ManifestModel(
        uses_features=frozenset(d["manifest"]["uses_features"]),
        permissions=frozenset(Permission(n, l) for n, l in d["manifest"]["permissions"]),
        declared_components=tuple(
            _declared_from_dict(c) for c in d["manifest"]["declared_components"]
        ),
    )
    code = CodeGraph(
        components=tuple(_component_from_dict(c) for c in d["code"]["components"]),
        edges=tuple((a, b) for a, b in d["code"]["edges"]),
    )
    return ApkModel(id=d["id"], manifest=manifest, code=code, ground_truth=d["ground_truth"])


def spec_to_dict(spec: CorpusSpec) -> dict:
    return {f.name: getattr(spec, f.name) for f in spec.__dataclass_fields__.values()}


def spec_from_dict(d: dict) -> CorpusSpec:
    known = {k: v for k, v in d.items() if k in CorpusSpec.__dataclass_fields__}
    return CorpusSpec(**known)


def corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "spec": spec_to_dict(corpus.spec),
        "benign": [apk_to_dict(a) for a in corpus.benign],
        "malicious": [apk_to_dict(a) for a in corpus.malicious],
        "donors": [apk_to_dict(a) for a in corpus.donors],
    }


def corpus_from_dict(d: dict) -> Corpus:
    return Corpus(
        spec=spec_from_dict(d["spec"]),
        benign=tuple(apk_from_dict(a) for a in d["benign"]),
        malicious=tuple(apk_from_dict(a) for a in d["malicious"]),
        donors=tuple(apk_from_dict(a) for a in d["donors"]),
    )


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(canonical_json(corpus_to_dict(corpus)), encoding="utf-8")


def load_corpus(path: str | Path) -> Corpus:
    return corpus_from_dict(read_json(path))
