"""Abstract Android app model: manifest + code components, synthetic corpus generation,
containment/isolation checks and the corpus file."""
from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path

import numpy as np

from .catalog import (AndroidCatalog, exact_keys, fields_of, flag, integer, items,
                      load_default_catalog, obj, pack_array, permission_pairs, read_lines, shared,
                      string, strings, unpack_array, write_lines)

GROUND_TRUTHS = ("benign", "malicious")
# The corpus document's app lists, in the order they are checked.
APP_LISTS = ("benign", "malicious", "donors")
COMPONENT_KINDS = ("activity", "service", "receiver", "provider")
CODE_KINDS = ("service", "receiver", "provider")
ORIGINS = ("original", "injected")

# Version of the corpus file layout; files of any other version are refused.
CORPUS_FORMAT = 6

# Interned, as every name a loaded corpus reads is (``catalog.shared``): the
# catalog lists both, so an app may hold them outside a launcher's sets too.
ACTION_MAIN = sys.intern("android.intent.action.MAIN")
CATEGORY_LAUNCHER = sys.intern("android.intent.category.LAUNCHER")

# The intent sets most declared components hold: none, and a launcher's action
# and category. Each is one object wherever it is held.
NO_NAMES: frozenset[str] = frozenset()
LAUNCHER_ACTIONS = frozenset({ACTION_MAIN})
LAUNCHER_CATEGORIES = frozenset({CATEGORY_LAUNCHER})
_SHARED_NAME_SETS = {s: s for s in (NO_NAMES, LAUNCHER_ACTIONS, LAUNCHER_CATEGORIES)}


def name_set(names) -> frozenset[str]:
    """``frozenset(names)``, the shared object when it equals one of the sets above."""
    names = frozenset(names)
    return _SHARED_NAME_SETS.get(names, names)


@dataclass(frozen=True)
class Permission:
    name: str
    protection_level: str


@lru_cache(maxsize=1024)
def permission(name: str, protection_level: str) -> Permission:
    """The one ``Permission`` of these values that the generator, the loader and
    the perturbations all hold: the stock corpus names each of the catalog's 130
    about 200 times."""
    return Permission(name, protection_level)


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
    """One code component. Function k has markov family ``families[k]``, below
    ``API_FAMILY_COUNT``; each row of ``edges`` is a call (caller, callee) between
    local function indices, so an edge cannot leave its component; ``api_calls``
    are the ids of the Android APIs it calls. A component that breaks this cannot
    be made: it raises a one-line ``ValueError``. Whatever integer dtype they are
    given in, it keeps read-only copies: ``families`` as uint8 and ``edges`` as
    (n, 2) uint16 when it has at most 65 536 functions, so every index fits, and
    int32 above that; each value is checked before the cast, so none can wrap
    into range. Equality and hashing are by value. Beyond its fields it keeps only
    ``transition_counts``, 121 intp integers filled on first use; no array sized
    by the edge count besides ``edges``."""

    kind: str
    classes: int
    families: np.ndarray
    edges: np.ndarray
    api_calls: tuple[str, ...]
    origin: str = "original"

    def __post_init__(self):
        arrays = {}
        for name, shape in (("families", -1), ("edges", (-1, 2))):
            arr = np.asarray(getattr(self, name))
            if arr.size and arr.dtype.kind not in "iu":
                raise ValueError(f"code component {name} must be integers, got {arr.dtype}")
            arrays[name] = arr.reshape(shape)
        if self.kind not in CODE_KINDS:
            raise ValueError(f"bad code component kind: {self.kind}")
        if self.origin not in ORIGINS:
            raise ValueError(f"bad origin: {self.origin}")
        if not isinstance(self.api_calls, tuple):
            raise ValueError(f"api_calls is a {type(self.api_calls).__name__}, "
                             "not a list of api call ids")
        for api in self.api_calls:
            if not isinstance(api, str):
                raise ValueError(f"api call id is not a string: {api!r}")
        # The values are checked as given, before the narrowing cast could wrap one.
        families, edges = arrays["families"], arrays["edges"]
        if families.size and families.min() < 0:
            raise ValueError("negative function family")
        if families.size and families.max() >= API_FAMILY_COUNT:
            raise ValueError(f"function family above {API_FAMILY_COUNT - 1}")
        if not _edges_in_range(edges, len(families)):
            raise ValueError(f"edge index out of range for {len(families)} functions")
        # Read-only copies: components are shared between apps and payloads.
        edge_dtype = np.uint16 if len(families) <= 1 << 16 else np.int32
        for name, dtype in (("families", np.uint8), ("edges", edge_dtype)):
            arr = np.array(arrays[name], dtype=dtype)
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
    def transition_counts(self) -> np.ndarray:
        """Read-only intp counts of the call edges by (caller family, callee family),
        flattened row-major: entry a * API_FAMILY_COUNT + b counts the a -> b edges.
        Computed once per component and shared by every app and payload that holds
        it; nothing sized by the edge count is kept. The families are widened to
        intp before the multiply, so the counts do not depend on their dtype."""
        fam = self.families.astype(np.intp)
        counts = np.bincount(fam[self.edges[:, 0]] * API_FAMILY_COUNT + fam[self.edges[:, 1]],
                             minlength=API_FAMILY_COUNT ** 2)
        counts.flags.writeable = False
        return counts


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
        self.permissions = {name: permission(name, level) for name, level in perms}
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
            # The callee family is the number of the caller family's cumulative
            # propensities below u, at most the last family: one pass per column.
            callee_fams = np.zeros(m, dtype=np.intp)
            for column in cum.T[:-1]:
                callee_fams += u > column[caller_fams]
            # Empty target families fall back to the caller's own family.
            callee_fams = np.where(counts[callee_fams] == 0, caller_fams, callee_fams)
            offsets = rng.integers(0, counts[callee_fams])
            callees = order[starts[callee_fams] + offsets]
            # One key per (caller, callee) pair sorts the pairs lexicographically;
            # a sorted key equal to its predecessor is a repeated call.
            key = np.sort(callers * n_f + callees)
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
            edges = np.stack(np.divmod(key, n_f), axis=1)

    return CodeComponent(kind=kind, classes=classes, families=fams, edges=edges,
                         api_calls=api_calls, origin="original")


def _gen_app(state: _GeneratorState, rng: np.random.Generator, apk_id: str,
             cls: str, shifted: bool) -> ApkModel:
    features = frozenset(state.feature_pool.sample(rng, cls, shifted))
    perm_names = state.permission_pool.sample(rng, cls, shifted)
    permissions = frozenset(state.permissions[name] for name in perm_names)
    actions = name_set(state.action_pool.sample(rng, cls, shifted))
    categories = name_set(state.category_pool.sample(rng, cls, shifted))

    declared: list[DeclaredComponent] = [
        DeclaredComponent(kind="activity", name=f"com.app.{apk_id}.Main",
                          intent_actions=LAUNCHER_ACTIONS,
                          intent_categories=LAUNCHER_CATEGORIES,
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
                intent_actions=NO_NAMES, intent_categories=NO_NAMES,
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


def _edges_in_range(edges: np.ndarray, n_functions: int) -> bool:
    return edges.size == 0 or (edges.min() >= 0 and edges.max() < n_functions)


def verify_isolation(apk: ApkModel) -> bool:
    """True when no call edge leaves its component, so none joins injected and
    original code; edges hold local indices, which makes this a bounds check."""
    return all(_edges_in_range(c.edges, len(c.families)) for c in apk.components)


def validate_apk(apk: ApkModel) -> None:
    """Raise a ValueError naming the app on a bad ground truth or declared component."""
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


def _declared_from_dict(d: dict, what: str) -> DeclaredComponent:
    """The declared component in ``d``; ``what`` names it in the refusal of a key."""
    exact_keys(obj(d, what), ("kind", "name", "intent_actions", "intent_categories", "exported",
                              "enabled"), what, optional=("process", "data_uri"))
    name = string(d["name"], "declared component name")
    where = f"declared component {name}: "
    return DeclaredComponent(
        kind=shared(d["kind"]), name=name,
        intent_actions=name_set(strings(d["intent_actions"], where + "intent_actions")),
        intent_categories=name_set(strings(d["intent_categories"], where + "intent_categories")),
        exported=flag(d["exported"], where + "exported"),
        enabled=flag(d["enabled"], where + "enabled"),
        process=string(d.get("process"), where + "process", null=True),
        data_uri=string(d.get("data_uri"), where + "data_uri", null=True),
    )


def _component_to_dict(c: CodeComponent) -> dict:
    return {
        "kind": c.kind, "classes": c.classes,
        "families": pack_array(c.families),
        "edges": pack_array(c.edges.ravel()),
        "api_calls": list(c.api_calls),
        "origin": c.origin,
    }


def _component_from_dict(d: dict, where: str) -> CodeComponent:
    """The code component in ``d``; ``where`` starts the refusal of a key or value."""
    exact_keys(obj(d, where), ("kind", "classes", "families", "edges", "api_calls"), where,
               optional=("origin",))
    # A non-list stays as read, for the component to refuse: tuple() of a string
    # would split it into one-character ids. Each string read is shared, and
    # any other value kept for the component to refuse.
    api_calls = d["api_calls"]
    try:
        classes = integer(d["classes"], "code component classes", lo=0)
        edges = unpack_array(d["edges"], "code component edges")
        if edges.size % 2:
            raise ValueError(f"code component edges holds {edges.size} values, "
                             "not (caller, callee) pairs")
        return CodeComponent(
            kind=shared(d["kind"]), classes=classes,
            families=unpack_array(d["families"], "code component families"), edges=edges,
            api_calls=tuple(map(shared, api_calls)) if isinstance(api_calls, list) else api_calls,
            origin=shared(d.get("origin", "original")))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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


def apk_from_dict(d: dict, what: str) -> ApkModel:
    """The app in ``d``; ``what`` names it until its id is read, and then its id."""
    if "id" not in obj(d, what):
        raise ValueError(f"{what}: missing key 'id'")
    app = f"app {string(d['id'], 'app id')}"
    exact_keys(d, ("id", "ground_truth", "manifest", "code"), app)
    m = exact_keys(obj(d["manifest"], f"{app}: manifest"),
                   ("uses_features", "permissions", "declared_components"), app, "manifest.")
    code = exact_keys(obj(d["code"], f"{app}: code"), ("components",), app, "code.")
    where = app + ": "
    return ApkModel(
        id=d["id"],
        uses_features=frozenset(strings(m["uses_features"], where + "uses_features")),
        permissions=frozenset(permission(n, l) for n, l in
                              permission_pairs(m["permissions"], where + "permissions")),
        declared_components=tuple(_declared_from_dict(c, f"{app} declared component {i}")
                                  for i, c in enumerate(items(m["declared_components"],
                                                              where + "declared_components"))),
        components=tuple(_component_from_dict(c, f"{app} component {i}") for i, c in
                         enumerate(items(code["components"], where + "code components"))),
        ground_truth=shared(d["ground_truth"]),
    )


def spec_to_dict(spec: CorpusSpec) -> dict:
    return asdict(spec)


def spec_from_dict(d: dict) -> CorpusSpec:
    return CorpusSpec(**fields_of(CorpusSpec, d, "corpus spec"))


def _corpus_fields(corpus: Corpus) -> dict:
    """The corpus document's fields, each app list still a tuple of apps."""
    return {"format": CORPUS_FORMAT, "spec": spec_to_dict(corpus.spec),
            "benign": corpus.benign, "malicious": corpus.malicious, "donors": corpus.donors}


def _corpus_from_parts(d: dict) -> Corpus:
    """The corpus of a document whose app lists hold built apps. Every app is
    validated, holds the ground truth of its list (a donor's is benign) and has
    an id no app before it has: attack seeds and report rows are keyed by the
    app id. A key that the document lacks, or does not hold, is refused."""
    exact_keys(d, ("spec", *APP_LISTS), "corpus", optional=("format",))
    corpus = Corpus(spec=spec_from_dict(d["spec"]),
                    **{key: items(d[key], key) for key in APP_LISTS})
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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus file: line 1 the format, the spec and the length of
    each app list, then one ``apk_to_dict`` a line (``catalog.write_lines``),
    so no whole-document dict or string is built. A failed save leaves
    ``path`` as it was and no temporary file behind."""
    write_lines(path, _corpus_fields(corpus), dict.fromkeys(APP_LISTS, apk_to_dict))


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus file and validate every app in it. Each app is built as
    soon as its line is read, so the parsed document is never held
    (``catalog.read_lines``)."""
    return read_lines(path, ("corpus", CORPUS_FORMAT, "regenerate it with gen-corpus"),
                      _APP_BUILDERS, _corpus_from_parts)


def _app_of_list(key: str, d, i: int) -> ApkModel:
    return apk_from_dict(d, f"app {i} of {key}")


# Each app list's builder: the app in an element of the list.
_APP_BUILDERS = {key: partial(_app_of_list, key) for key in APP_LISTS}
