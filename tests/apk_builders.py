"""Hand-built miniature app models shared across test modules.

Functions are named ``"<x>@<family>"`` and edges are given between names across
the whole app; ``apk`` turns them into each component's family array and local
edge pairs, and rejects an edge whose endpoints lie in different components."""
from dataclasses import dataclass

from pst_evade.corpus import (
    ApkModel,
    CodeComponent,
    CodeGraph,
    DeclaredComponent,
    ManifestModel,
    Permission,
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
    manifest = ManifestModel(
        uses_features=frozenset(features),
        permissions=frozenset(Permission(n, lvl) for n, lvl in perms),
        declared_components=tuple(declared_components),
    )
    code = CodeGraph(components=_place_edges(tuple(components), edges))
    return ApkModel(id=apk_id, manifest=manifest, code=code,
                    ground_truth=ground_truth)
