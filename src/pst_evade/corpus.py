"""Abstract Android app model: manifest + code components, synthetic corpus generation,
containment/isolation checks and the corpus file."""
from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .catalog import (AndroidCatalog, fields_of, flag, integer, items, load_default_catalog,
                      permission_pairs, read_document, string, strings)

GROUND_TRUTHS = ("benign", "malicious")
COMPONENT_KINDS = ("activity", "service", "receiver", "provider")
CODE_KINDS = ("service", "receiver", "provider")
ORIGINS = ("original", "injected")

# Version of the corpus JSON layout; files of any other version are refused.
CORPUS_FORMAT = 5

# The dtypes a component array may be stored as in a file, narrowest first: the
# writer takes the first that holds every value, and the reader refuses any other.
ARRAY_DTYPES = ("<u1", "<i1", "<u2", "<i2", "<u4", "<i4", "<i8")
_DTYPE_RANGES = tuple((d, int(np.iinfo(d).min), int(np.iinfo(d).max))
                      for d in ARRAY_DTYPES)

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


@dataclass(frozen=True, eq=False)
class CodeComponent:
    """One code component. Function k has markov family ``families[k]``; each row
    of ``edges`` is a call (caller, callee) between local function indices, so an
    edge cannot leave its component; ``api_calls`` are the ids of the Android APIs
    it calls. Equality and hashing are by value."""

    kind: str
    classes: int
    families: np.ndarray
    edges: np.ndarray
    api_calls: tuple[str, ...]
    origin: str = "original"

    def __post_init__(self):
        # Read-only intp copies: components are shared between apps and payloads.
        for name, shape in (("families", -1), ("edges", (-1, 2))):
            arr = np.asarray(getattr(self, name))
            if arr.size and arr.dtype.kind not in "iu":
                raise ValueError(f"code component {name} must be integers, got {arr.dtype}")
            arr = np.array(arr, dtype=np.intp).reshape(shape)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _key(self) -> tuple:
        return (self.kind, self.classes, self.origin, self.api_calls,
                self.families.tobytes(), self.edges.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, CodeComponent) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def edge_families(self) -> np.ndarray:
        """(caller family, callee family) per edge, shape (m, 2); computed once per
        component and shared by every app and payload that holds it."""
        return self.families[self.edges]


@dataclass(frozen=True)
class ApkModel:
    """One app: its manifest entries, then its code components."""

    id: str
    uses_features: frozenset[str]
    permissions: frozenset[Permission]
    declared_components: tuple[DeclaredComponent, ...]
    components: tuple[CodeComponent, ...]
    ground_truth: str


# The synthetic corpus generator. Mean code components per app, per kind: with
# 100 donors the expected donor pool is ~108 services, ~104 receivers, ~24
# providers.
MEAN_COMPONENTS = {"service": 1.08, "receiver": 1.04, "provider": 0.24}
# Mean component richness, per kind.
MEAN_CLASSES = {"service": 175.0, "receiver": 136.0, "provider": 417.0}
MEAN_FUNCTIONS = {"service": 873.0, "receiver": 703.0, "provider": 2044.0}
# API ids are spread over the packages; every function has one of the families.
API_VOCAB_SIZE = 240
API_FAMILY_COUNT = 11
API_PACKAGE_COUNT = 40
# Class-conditional per-item inclusion probabilities are drawn uniformly from
# INCLUSION_RANGE, independently per class.
INCLUSION_RANGE = (0.02, 0.45)
# Call edges drawn per function, before duplicate pairs merge.
EDGE_FACTOR = 1.3
# The trailing TEST_FRACTION of each class is drawn with rates drifted by TEST_DRIFT.
TEST_FRACTION = 0.25
TEST_DRIFT = 0.15


@dataclass(frozen=True)
class CorpusSpec:
    """App counts and seed of a synthetic corpus. Defaults are desk scale."""

    n_benign: int = 260
    n_malicious: int = 260
    donor_count: int = 100
    seed: int = 7

    def __post_init__(self):
        for name in ("n_benign", "n_malicious", "donor_count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"corpus spec: {name} is {value!r}, "
                                 "not a non-negative integer")


@dataclass(frozen=True)
class Corpus:
    spec: CorpusSpec
    benign: tuple[ApkModel, ...]
    malicious: tuple[ApkModel, ...]
    donors: tuple[ApkModel, ...]

    def train_test_split(self) -> tuple[tuple[ApkModel, ...], tuple[ApkModel, ...]]:
        """(train, test) across both classes; the trailing TEST_FRACTION is test."""
        nb = _train_count(len(self.benign))
        nm = _train_count(len(self.malicious))
        train = self.benign[:nb] + self.malicious[:nm]
        test = self.benign[nb:] + self.malicious[nm:]
        return train, test


def _train_count(n: int) -> int:
    return n - int(round(n * TEST_FRACTION))


class _Pool:
    """One item pool with per-class, per-split inclusion rates."""

    def __init__(self, items: list[str], rng: np.random.Generator):
        self.items = items
        n = len(items)
        lo, hi = INCLUSION_RANGE
        self.rate = {
            "benign": lo + (hi - lo) * rng.random(n),
            "malicious": lo + (hi - lo) * rng.random(n),
        }
        drift_sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        self.test_rate = {
            cls: np.clip(self.rate[cls] * (1.0 + TEST_DRIFT * drift_sign), 0.0, 1.0)
            for cls in GROUND_TRUTHS
        }

    def sample(self, rng: np.random.Generator, cls: str, shifted: bool) -> list[str]:
        rates = self.test_rate[cls] if shifted else self.rate[cls]
        mask = rng.random(len(self.items)) < rates
        return [item for item, hit in zip(self.items, mask) if hit]


class _GeneratorState:
    def __init__(self, catalog: AndroidCatalog, rng: np.random.Generator):
        features = catalog.hardware_features + catalog.software_features
        actions = catalog.activity_actions + catalog.broadcast_actions
        perms = catalog.permissions
        self.permissions = {name: Permission(name, level) for name, level in perms}
        self.feature_pool = _Pool(list(features), rng)
        self.permission_pool = _Pool([name for name, _ in perms], rng)
        self.action_pool = _Pool(list(actions), rng)
        self.category_pool = _Pool(list(catalog.categories), rng)

        api_ids = [f"api.pkg{i % API_PACKAGE_COUNT:02d}.fn{i:03d}"
                   for i in range(API_VOCAB_SIZE)]
        # No feature reads an API's family, but the draw stays: it moves the rng
        # every later draw comes from, so dropping it would change every corpus.
        rng.integers(0, API_FAMILY_COUNT, API_VOCAB_SIZE)
        self.api_pool = _Pool(api_ids, rng)

        # Class-conditional family-transition propensities for call edges.
        fam = API_FAMILY_COUNT
        self.transition_cum = {
            cls: np.cumsum(rng.dirichlet(np.full(fam, 0.7), size=fam), axis=1)
            for cls in GROUND_TRUTHS
        }


def _gen_component(state: _GeneratorState, rng: np.random.Generator, kind: str,
                   cls: str, shifted: bool) -> CodeComponent:
    classes = int(rng.poisson(MEAN_CLASSES[kind]))
    n_f = int(rng.poisson(MEAN_FUNCTIONS[kind]))
    fams = rng.integers(0, API_FAMILY_COUNT, n_f) if n_f else np.empty(0, dtype=int)

    api_calls = tuple(state.api_pool.sample(rng, cls, shifted))

    edges = ()
    if n_f > 0:
        m = int(rng.poisson(EDGE_FACTOR * n_f))
        if m > 0:
            order = np.argsort(fams, kind="stable")
            counts = np.bincount(fams, minlength=API_FAMILY_COUNT)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            callers = rng.integers(0, n_f, m)
            caller_fams = fams[callers]
            u = rng.random(m)
            cum = state.transition_cum[cls]
            callee_fams = (u[:, None] > cum[caller_fams]).sum(axis=1)
            callee_fams = np.minimum(callee_fams, API_FAMILY_COUNT - 1)
            # Empty target families fall back to the caller's own family.
            callee_fams = np.where(counts[callee_fams] == 0, caller_fams, callee_fams)
            offsets = rng.integers(0, counts[callee_fams])
            callees = order[starts[callee_fams] + offsets]
            # One key per (caller, callee) pair sorts the pairs lexicographically.
            key = np.unique(callers * n_f + callees)
            edges = np.stack([key // n_f, key % n_f], axis=1)

    return CodeComponent(kind=kind, classes=classes, families=fams, edges=edges,
                         api_calls=api_calls, origin="original")


def _gen_app(state: _GeneratorState, rng: np.random.Generator, apk_id: str,
             cls: str, shifted: bool) -> ApkModel:
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
    for kind in CODE_KINDS:
        count = int(rng.poisson(MEAN_COMPONENTS[kind]))
        for _ in range(count):
            comp_index = len(components)
            components.append(_gen_component(state, rng, kind, cls, shifted))
            declared.append(DeclaredComponent(
                kind=kind, name=f"com.app.{apk_id}.{kind.capitalize()}{comp_index}",
                intent_actions=frozenset(), intent_categories=frozenset(),
                exported=bool(rng.integers(0, 2)), enabled=True))

    return ApkModel(id=apk_id, uses_features=features, permissions=permissions,
                    declared_components=tuple(declared), components=tuple(components),
                    ground_truth=cls)


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically generate a labeled corpus plus a benign donor pool from
    the bundled catalog."""
    rng = np.random.default_rng(spec.seed)
    state = _GeneratorState(load_default_catalog(), rng)

    n_train_b = _train_count(spec.n_benign)
    n_train_m = _train_count(spec.n_malicious)
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
# Containment and isolation


def contains(original: ApkModel, perturbed: ApkModel) -> bool:
    """True when every manifest element and code component (functions and edges
    included) of the original is preserved."""
    return (original.uses_features <= perturbed.uses_features
            and original.permissions <= perturbed.permissions
            and set(original.declared_components) <= set(perturbed.declared_components)
            and set(original.components) <= set(perturbed.components))


def _edges_in_range(comp: CodeComponent) -> bool:
    return comp.edges.size == 0 or (
        comp.edges.min() >= 0 and comp.edges.max() < len(comp.families))


def verify_isolation(apk: ApkModel) -> bool:
    """True when no call edge leaves its component, so none joins injected and
    original code; edges hold local indices, which makes this a bounds check."""
    return all(_edges_in_range(c) for c in apk.components)


def check_code_component(comp: CodeComponent, where: str) -> None:
    """Raise a one-line ValueError starting with ``where`` on a malformed component."""
    if comp.kind not in CODE_KINDS:
        raise ValueError(f"{where}: bad code component kind: {comp.kind}")
    if comp.origin not in ORIGINS:
        raise ValueError(f"{where}: bad origin: {comp.origin}")
    if not isinstance(comp.api_calls, tuple):
        raise ValueError(f"{where}: api_calls is a {type(comp.api_calls).__name__}, "
                         "not a list of api call ids")
    for api in comp.api_calls:
        if not isinstance(api, str):
            raise ValueError(f"{where}: api call id is not a string: {api!r}")
    if comp.families.size and comp.families.min() < 0:
        raise ValueError(f"{where}: negative function family")
    if comp.families.size and comp.families.max() >= API_FAMILY_COUNT:
        raise ValueError(f"{where}: function family above {API_FAMILY_COUNT - 1}")
    if not _edges_in_range(comp):
        raise ValueError(f"{where}: edge index out of range for "
                         f"{len(comp.families)} functions")


def validate_apk(apk: ApkModel) -> None:
    """Raise a ValueError naming the app on structural violations of its model."""
    if apk.ground_truth not in GROUND_TRUTHS:
        raise ValueError(f"app {apk.id}: bad ground truth: {apk.ground_truth}")
    seen: set[tuple[str, str]] = set()
    for comp in apk.declared_components:
        if comp.kind not in COMPONENT_KINDS:
            raise ValueError(f"app {apk.id}: bad component kind: {comp.kind}")
        key = (comp.kind, comp.name)
        if key in seen:
            raise ValueError(f"app {apk.id}: duplicate declared component: {key}")
        seen.add(key)
    for i, comp in enumerate(apk.components):
        check_code_component(comp, f"app {apk.id} component {i}")


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
    name = string(d["name"], "declared component name")
    where = f"declared component {name}: "
    return DeclaredComponent(
        kind=d["kind"], name=name,
        intent_actions=frozenset(strings(d["intent_actions"], where + "intent_actions")),
        intent_categories=frozenset(strings(d["intent_categories"],
                                            where + "intent_categories")),
        exported=flag(d["exported"], where + "exported"),
        enabled=flag(d["enabled"], where + "enabled"),
        process=string(d.get("process"), where + "process", null=True),
        data_uri=string(d.get("data_uri"), where + "data_uri", null=True),
    )


def pack_array(arr: np.ndarray) -> dict:
    """An integer array as ``{"dtype", "data"}``: its values in the narrowest of
    ``ARRAY_DTYPES`` that holds them, as base64 of the raw bytes."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    dtype = next(d for d, d_lo, d_hi in _DTYPE_RANGES if d_lo <= lo and hi <= d_hi)
    return {"dtype": dtype,
            "data": base64.b64encode(arr.astype(dtype).tobytes()).decode("ascii")}


def unpack_array(doc, name: str) -> np.ndarray:
    """The flat array ``pack_array`` wrote; anything else raises a one-line
    ``ValueError`` naming ``name``."""
    if not (isinstance(doc, dict) and "dtype" in doc and "data" in doc):
        raise ValueError(f"{name} is not a {{dtype, data}} object")
    dtype, data = doc["dtype"], doc["data"]
    if dtype not in ARRAY_DTYPES:
        raise ValueError(f"{name} dtype {json.dumps(dtype)} is not one of "
                         f"{', '.join(ARRAY_DTYPES)}")
    if not isinstance(data, str):
        raise ValueError(f"{name} data is {type(data).__name__}, not a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:
        raise ValueError(f"{name} data is not valid base64") from None
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise ValueError(f"{name} data holds {len(raw)} bytes, "
                         f"not a multiple of {itemsize} for {dtype}")
    return np.frombuffer(raw, dtype=dtype)


def _component_to_dict(c: CodeComponent) -> dict:
    return {
        "kind": c.kind, "classes": c.classes,
        "families": pack_array(c.families),
        "edges": pack_array(c.edges.ravel()),
        "api_calls": list(c.api_calls),
        "origin": c.origin,
    }


def _component_from_dict(d: dict) -> CodeComponent:
    classes = integer(d["classes"], "code component classes", lo=0)
    edges = unpack_array(d["edges"], "code component edges")
    if edges.size % 2:
        raise ValueError(f"code component edges holds {edges.size} values, "
                         "not (caller, callee) pairs")
    # A non-list stays as read, for check_code_component to refuse: tuple() of a
    # string would split it into one-character ids.
    api_calls = d["api_calls"]
    return CodeComponent(
        kind=d["kind"], classes=classes,
        families=unpack_array(d["families"], "code component families"), edges=edges,
        api_calls=tuple(api_calls) if isinstance(api_calls, list) else api_calls,
        origin=d.get("origin", "original"),
    )


def apk_to_dict(apk: ApkModel) -> dict:
    return {
        "id": apk.id,
        "ground_truth": apk.ground_truth,
        "manifest": {
            "uses_features": sorted(apk.uses_features),
            "permissions": sorted([p.name, p.protection_level] for p in apk.permissions),
            "declared_components": [_declared_to_dict(c) for c in apk.declared_components],
        },
        "code": {"components": [_component_to_dict(c) for c in apk.components]},
    }


def apk_from_dict(d: dict) -> ApkModel:
    apk_id = string(d["id"], "app id")
    m, where = d["manifest"], f"app {apk_id}: "
    return ApkModel(
        id=apk_id,
        uses_features=frozenset(strings(m["uses_features"], where + "uses_features")),
        permissions=frozenset(Permission(n, l) for n, l in
                              permission_pairs(m["permissions"], where + "permissions")),
        declared_components=tuple(map(_declared_from_dict, items(
            m["declared_components"], where + "declared_components"))),
        components=tuple(map(_component_from_dict, items(
            d["code"]["components"], where + "code components"))),
        ground_truth=d["ground_truth"],
    )


def spec_to_dict(spec: CorpusSpec) -> dict:
    return asdict(spec)


def spec_from_dict(d: dict) -> CorpusSpec:
    return CorpusSpec(**fields_of(CorpusSpec, d, "corpus spec"))


def corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "format": CORPUS_FORMAT,
        "spec": spec_to_dict(corpus.spec),
        "benign": [apk_to_dict(a) for a in corpus.benign],
        "malicious": [apk_to_dict(a) for a in corpus.malicious],
        "donors": [apk_to_dict(a) for a in corpus.donors],
    }


def corpus_from_dict(d: dict) -> Corpus:
    """Inverse of ``corpus_to_dict``. Every app is validated, holds the ground
    truth of its list (a donor's is benign) and has an id no other app has:
    attack seeds and report rows are keyed by the app id."""
    corpus = Corpus(
        spec=spec_from_dict(d["spec"]),
        benign=tuple(map(apk_from_dict, items(d["benign"], "benign"))),
        malicious=tuple(map(apk_from_dict, items(d["malicious"], "malicious"))),
        donors=tuple(map(apk_from_dict, items(d["donors"], "donors"))),
    )
    seen: set[str] = set()
    for where, truth, apks in (("benign", "benign", corpus.benign),
                               ("malicious", "malicious", corpus.malicious),
                               ("donors", "benign", corpus.donors)):
        for apk in apks:
            validate_apk(apk)
            if apk.ground_truth != truth:
                raise ValueError(f"app {apk.id}: ground truth {apk.ground_truth} in the "
                                 f"{where} list, which holds {truth} apps")
            if apk.id in seen:
                raise ValueError(f"app {apk.id}: id is not unique")
            seen.add(apk.id)
    return corpus


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(canonical_json(corpus_to_dict(corpus)), encoding="utf-8")


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus file and validate every app in it."""
    return read_document(path, corpus_from_dict,
                         ("corpus", CORPUS_FORMAT, "regenerate it with gen-corpus"))
