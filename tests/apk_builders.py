"""Hand-built miniature app models shared across test modules.

Functions are named ``"<x>@<family>"`` and edges are given between names across
the whole app; ``apk`` turns them into each component's family array and local
edge pairs, and rejects an edge whose endpoints lie in different components."""
import base64
from dataclasses import dataclass

import numpy as np

from pst_evade.corpus import (
    ARRAY_DTYPES,
    ApkModel,
    CodeComponent,
    DeclaredComponent,
    Permission,
    pack_array,
    unpack_array,
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

# Stored component arrays that a corpus or pset file must not load with:
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
