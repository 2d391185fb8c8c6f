"""Hand-built miniature app models, perturbations, groups, trees and oracles
shared across test modules, and the corpus and model file layout written and
read apart from the library's own writer and reader.

Functions are named ``"<x>@<family>"`` and edges are given between names across
the whole app; ``apk`` turns them into each component's family array and local
edge pairs, and rejects an edge whose endpoints lie in different components."""
import base64
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pst_evade.catalog import ARRAY_DTYPES, AndroidCatalog, pack_array, unpack_array
from pst_evade.corpus import (
    APP_LISTS,
    ApkModel,
    CodeComponent,
    DeclaredComponent,
    Permission,
)
from pst_evade.detectors import Feedback
from pst_evade.perturbset import (
    InjectablePayload,
    Perturbation,
    PerturbationGroup,
    build_perturbation_set,
    keyword_extract,
)


@dataclass(frozen=True)
class StubPerturbation:
    kind: str
    payload: object


@dataclass(frozen=True, eq=False)
class NamedComponent(CodeComponent):
    """A code component that still knows its functions' names, so that ``apk``
    can place name-to-name edges in it."""

    names: tuple[str, ...] = ()


def declared(kind="activity", name="Main", actions=(), categories=(),
             exported=False, enabled=True, process=None, data_uri=None):
    return DeclaredComponent(kind=kind, name=name,
                             intent_actions=frozenset(actions),
                             intent_categories=frozenset(categories),
                             exported=exported, enabled=enabled,
                             process=process, data_uri=data_uri)


def code_component(kind="service", functions=(), api_ids=(), classes=1,
                   origin="original"):
    families = [int(f.rpartition("@")[2]) for f in functions]
    return NamedComponent(kind=kind, classes=classes, families=families, edges=(),
                          api_calls=tuple(api_ids), origin=origin, names=tuple(functions))


def _place_edges(components, edges):
    """The components with each named edge added as a local index pair."""
    where = {name: (i, k) for i, comp in enumerate(components)
             for k, name in enumerate(getattr(comp, "names", ()))}
    local = [comp.edges.tolist() for comp in components]
    for a, b in edges:
        if a not in where or b not in where:
            raise ValueError(f"edge references an unknown function: {(a, b)}")
        (ca, ka), (cb, kb) = where[a], where[b]
        if ca != cb:
            raise ValueError(f"edge crosses components {ca} and {cb}: {(a, b)}")
        local[ca].append([ka, kb])
    return tuple(
        CodeComponent(kind=c.kind, classes=c.classes, families=c.families,
                      edges=pairs, api_calls=c.api_calls, origin=c.origin)
        for c, pairs in zip(components, local))


def apk(apk_id="t000", ground_truth="malicious", features=(), perms=(),
        declared_components=(), components=(), edges=()):
    """perms is a sequence of (name, protection_level) pairs."""
    return ApkModel(id=apk_id, uses_features=frozenset(features),
                    permissions=frozenset(Permission(n, lvl) for n, lvl in perms),
                    declared_components=tuple(declared_components),
                    components=_place_edges(tuple(components), edges),
                    ground_truth=ground_truth)


def set_stored_value(comp: dict, name: str, index: int, value: int) -> None:
    """Re-encode a stored component's ``name`` array through the file codec with
    one value changed."""
    arr = unpack_array(comp[name], name).astype(np.int64)
    arr[index] = value
    comp[name] = pack_array(arr)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


_NOT_LISTED = f"is not one of {', '.join(ARRAY_DTYPES)}"

# Stored component arrays that a corpus file must not load with:
# case -> (field, stored value, what the error says after "code component <field>").
MALFORMED_ARRAYS = {
    "dtype-big-endian": ("families", {"dtype": ">u2", "data": ""},
                         f' dtype ">u2" {_NOT_LISTED}'),
    "dtype-u8": ("edges", {"dtype": "<u8", "data": ""}, f' dtype "<u8" {_NOT_LISTED}'),
    "data-list": ("families", {"dtype": "<u1", "data": [0, 1]},
                  " data is list, not a base64 string"),
    "data-null": ("edges", {"dtype": "<u1", "data": None},
                  " data is NoneType, not a base64 string"),
    "data-bad-padding": ("families", {"dtype": "<u1", "data": "AA=A"},
                         " data is not valid base64"),
    "data-bad-alphabet": ("edges", {"dtype": "<u1", "data": "not base64!"},
                          " data is not valid base64"),
    "data-not-ascii": ("families", {"dtype": "<u1", "data": "AA\u00e9="},
                       " data is not valid base64"),
    "bytes-3-for-u2": ("families", {"dtype": "<u2", "data": _b64(b"\x00\x01\x02")},
                       " data holds 3 bytes, not a multiple of 2 for <u2"),
    "bytes-6-for-i4": ("edges", {"dtype": "<i4", "data": _b64(b"\x00" * 6)},
                       " data holds 6 bytes, not a multiple of 4 for <i4"),
    "edges-odd-count": ("edges", {"dtype": "<u1", "data": _b64(b"\x00\x00\x00")},
                        " holds 3 values, not (caller, callee) pairs"),
    "families-list-form": ("families", [0, 1, 2], " is not a {dtype, data} object"),
    "edges-without-dtype": ("edges", {"data": ""}, " is not a {dtype, data} object"),
}


# ---------------------------------------------------------------------------
# Corpus, model and report files: line 1 is the document with each of its
# lists given as its length, and the lists' items follow, one a line, in sorted
# key order.

CORPUS_LISTS = APP_LISTS
MODEL_LISTS = ("members",)
REPORT_LISTS = ("details", "rows")


def file_text(doc: dict, lists) -> str:
    """The text of the file that holds ``doc``, a document whose lists are the
    keys ``lists``. A value of such a key that is not a list stays in line 1."""
    listed = [key for key in sorted(doc) if key in lists and isinstance(doc[key], list)]
    lines = [{key: len(value) if key in listed else value for key, value in doc.items()},
             *(item for key in listed for item in doc[key])]
    return "".join(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
                   for line in lines)


def write_file(path, doc: dict, lists) -> None:
    Path(path).write_text(file_text(doc, lists), encoding="utf-8")


def file_document(path, lists) -> dict:
    """The document in the file at ``path``: line 1, each of ``lists`` it
    counts holding the items on the lines that follow."""
    head, *rest = map(json.loads, Path(path).read_text(encoding="utf-8").splitlines())
    items = iter(rest)
    return {key: [next(items) for _ in range(value)] if key in lists else value
            for key, value in sorted(head.items())}


def saved_document(save, value, path, lists) -> dict:
    """The document of the file that ``save(value, path)`` writes."""
    save(value, path)
    return file_document(path, lists)


# ---------------------------------------------------------------------------
# Perturbations and clustering


def perm(name, level="normal"):
    return Perturbation(kind="permission", payload=Permission(name, level))


def brute_force_cluster(perturbations, threshold):
    """Independent reference: recomputes keyword unions from scratch each sweep,
    merging the first qualifying (i, j) pair into position i."""
    groups = [[p] for p in perturbations]
    while True:
        found = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                ki = {k for p in groups[i] for k in keyword_extract(p.kind, p.payload)}
                kj = {k for p in groups[j] for k in keyword_extract(p.kind, p.payload)}
                if len(ki & kj) / min(len(ki), len(kj)) > threshold:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            return groups
        i, j = found
        groups[i] = groups[i] + groups[j]
        del groups[j]


def random_permissions(rng, n):
    tokens = ["ACCESS", "WIFI", "STATE", "NETWORK", "READ", "WRITE", "PHONE", "SMS"]
    out = []
    for _ in range(n):
        name = "_".join(rng.sample(tokens, rng.randint(1, 3)))
        out.append(perm(f"android.permission.{name}"))
    return out


# ---------------------------------------------------------------------------
# Selection-tree groups and walks


def perm_groups(level, count, size=1, tag="PERM"):
    out = []
    for g in range(count):
        members = tuple(
            Perturbation(kind="permission",
                         payload=Permission(f"android.permission.{tag}{g}_{i}", level))
            for i in range(size))
        out.append(PerturbationGroup(members=members,
                                     keywords=frozenset({f"{tag}{g}"})))
    return out


def feature_group(bucket, size, tag):
    prefix = f"android.{bucket}."
    members = tuple(
        Perturbation(kind="uses_feature", payload=f"{prefix}{tag}.v{i}")
        for i in range(size))
    return PerturbationGroup(members=members, keywords=frozenset({tag}))


def inject_group(idx=0, kind="inject_service"):
    comp_kind = kind.removeprefix("inject_")
    payload = InjectablePayload(
        source_apk_id=f"d{idx:03d}",
        declared=declared(kind=comp_kind, name=f"com.donor.C{idx}"),
        component=code_component(kind=comp_kind,
                                 functions=(f"d{idx:03d}.c0.f0@0",)))
    p = Perturbation(kind=kind, payload=payload)
    return PerturbationGroup(members=(p,), keywords=frozenset())


def child_probs(tree, node):
    return {tree.labels[c]: p for c, p in tree.probs[node].items()}


def first_child(tree, node):
    return next(iter(tree.probs[node]))


def find(tree, label):
    return tree.labels.index(label)


def rewalk_leaf_counts(tree):
    """Surviving leaves below each node by a walk of the reachable tree, 0 off
    it: the reference the tree's maintained ``leaf_counts`` replace."""
    counts = [0] * len(tree.labels)

    def walk(node):
        if tree.groups[node] is not None:
            counts[node] = 1
        else:
            counts[node] = sum(walk(c) for c in tree.probs[node])
        return counts[node]

    walk(0)
    return counts


# ---------------------------------------------------------------------------
# A content-keyed oracle and the small pset it is pinned on


HARDENED = "com.example.permission.HARDENED"


class ContentOracle:
    """Each permission or feature lowers the confidence by 0.05 (by 0.02 on an
    app holding HARDENED, which thus never evades), plus a jitter in [0, 0.1)
    hashed from their names; intents and injected code leave it unchanged.
    Below 0.5 the answer is benign."""

    def __init__(self):
        self.query_count = 0

    def query(self, app):
        self.query_count += 1
        names = (sorted(p.name for p in app.permissions)
                 + sorted(app.uses_features))
        step = 20 if HARDENED in names else 50
        digest = hashlib.sha256("\n".join(names).encode()).digest()
        milli = 900 - step * len(names) + int.from_bytes(digest[:2], "big") % 100
        return Feedback(label="benign" if milli < 500 else "malicious",
                        confidence=milli / 1000)


def _donor(donor_id, kinds):
    decls, comps, edges = [], [], []
    for i, kind in enumerate(kinds):
        funcs = [f"{donor_id}.c{i}.f{k}@{k % 3}" for k in range(3)]
        decls.append(declared(kind=kind, name=f"{donor_id}.{kind.title()}{i}"))
        comps.append(code_component(kind=kind, functions=funcs))
        edges += [(funcs[0], funcs[1]), (funcs[1], funcs[2])]
    return apk(apk_id=donor_id, ground_truth="benign", declared_components=decls,
               components=comps, edges=edges)


def small_pset():
    """The perturbation set of a small catalog and two donors, on which the
    attack reports are recorded."""
    catalog = AndroidCatalog(
        hardware_features=("android.hardware.camera", "android.hardware.camera.flash",
                           "android.hardware.nfc", "android.hardware.wifi"),
        software_features=("android.software.backup", "android.software.webview"),
        permissions=tuple((f"android.permission.{name}", level) for name, level in (
            ("ACCESS_WIFI_STATE", "normal"), ("CHANGE_WIFI_STATE", "normal"),
            ("ACCESS_NETWORK_STATE", "normal"), ("CHANGE_NETWORK_STATE", "normal"),
            ("VIBRATE", "normal"), ("WAKE_LOCK", "normal"),
            ("SET_ALARM", "normal"), ("INTERNET", "normal"),
            ("BIND_JOB_SERVICE", "signature"), ("BIND_WALLPAPER", "signature"),
            ("READ_SMS", "dangerous"))),
        activity_actions=("android.intent.action.VIEW", "android.intent.action.SEND"),
        broadcast_actions=("android.intent.action.BOOT_COMPLETED",),
        categories=("android.intent.category.DEFAULT", "android.intent.category.BROWSABLE"))
    donors = [_donor("d0", ("service", "receiver")),
              _donor("d1", ("provider", "service"))]
    return build_perturbation_set(catalog, donors)
