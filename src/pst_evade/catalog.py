"""Catalog of Android manifest entries that perturbations and generated apps draw from."""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

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


def read_json(path: str | Path):
    """The JSON document in a file; a file that does not parse raises a
    ``ValueError`` whose message starts with the file's path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_json_format(path: str | Path, what: str, version: int, remedy: str) -> dict:
    """The JSON document in a file of a versioned layout; a document whose
    ``"format"`` is not ``version`` raises a one-line ``ValueError``. Files
    written before layouts were versioned carry no key and count as format 1."""
    doc = read_json(path)
    found = doc.get("format", 1) if isinstance(doc, dict) else None
    if found != version:
        raise ValueError(f"{path}: {what} format {found} is not supported; {remedy}")
    return doc


def load_catalog(path: str | Path) -> AndroidCatalog:
    return catalog_from_dict(read_json(path))


def load_default_catalog() -> AndroidCatalog:
    text = resources.files("pst_evade").joinpath("data/android_catalog.json").read_text("utf-8")
    return catalog_from_dict(json.loads(text))
