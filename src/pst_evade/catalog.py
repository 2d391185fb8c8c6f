"""Catalog of Android manifest entries that perturbations and generated apps draw from."""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

PROTECTION_LEVELS = ("normal", "signature", "dangerous")


@dataclass(frozen=True)
class AndroidCatalog:
    """Pools of manifest-level names: features, permissions, intent actions, categories."""

    hardware_features: tuple[str, ...]
    software_features: tuple[str, ...]
    permissions: tuple[tuple[str, str], ...]  # (name, protection_level)
    activity_actions: tuple[str, ...]
    broadcast_actions: tuple[str, ...]
    categories: tuple[str, ...]

    def permission_names(self, levels: tuple[str, ...] = PROTECTION_LEVELS) -> tuple[str, ...]:
        return tuple(name for name, level in self.permissions if level in levels)


def catalog_from_dict(doc: dict) -> AndroidCatalog:
    perms = tuple((str(name), str(level)) for name, level in doc["permissions"])
    for _, level in perms:
        if level not in PROTECTION_LEVELS:
            raise ValueError(f"unknown protection level: {level}")
    return AndroidCatalog(
        hardware_features=tuple(doc["hardware_features"]),
        software_features=tuple(doc["software_features"]),
        permissions=perms,
        activity_actions=tuple(doc["activity_actions"]),
        broadcast_actions=tuple(doc["broadcast_actions"]),
        categories=tuple(doc["categories"]),
    )


def read_document(path: str | Path, parse: Callable, fmt: tuple[str, int, str] | None = None):
    """``parse`` of the JSON document in a file. ``fmt`` is (what, version,
    remedy) for a versioned layout; a file written before layouts were versioned
    counts as format 1. Every error names the file at its start: an ``OSError``
    keeps its type, and what a bad document raises becomes a ``ValueError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if fmt is not None:
            what, version, remedy = fmt
            found = doc.get("format", 1) if isinstance(doc, dict) else None
            if found != version:
                raise ValueError(f"{what} format {found} is not supported; {remedy}")
        return parse(doc)
    except OSError as exc:
        raise type(exc)(f"{path}: {exc.strerror or exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_catalog(path: str | Path) -> AndroidCatalog:
    return read_document(path, catalog_from_dict)


def load_default_catalog() -> AndroidCatalog:
    text = resources.files("pst_evade").joinpath("data/android_catalog.json").read_text("utf-8")
    return catalog_from_dict(json.loads(text))
