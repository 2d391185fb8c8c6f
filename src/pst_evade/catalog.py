"""Catalog of Android manifest entries that perturbations and generated apps draw
from, and the checked reading of every input file: ``read_document`` and the
field readers the loaders take each field of a document through."""
from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

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


# ---------------------------------------------------------------------------
# Field readers: each returns the value it is given when that holds what it
# reads, and otherwise raises a one-line ValueError: "<name> is <json>, not
# <what>" for a scalar, "<name> holds <json>, not <what>" for a list item, and
# "<name> is not <what>" ("are not" for strings) for a container.


def _wrong(name: str, value, what: str) -> ValueError:
    return ValueError(f"{name} is {json.dumps(value)}, not {what}")


def integer(value, name: str, lo: int | None = None) -> int:
    """A JSON integer, not ``true`` or ``3.0``; at least ``lo`` where one is given."""
    if type(value) is not int:
        raise _wrong(name, value, "an integer")
    if lo is not None and value < lo:
        raise _wrong(name, value, f"an integer >= {lo}")
    return value


def fixed(value, name: str, want: int) -> None:
    """Refuse all but the JSON integer ``want``: a value the program fixes and files record."""
    if integer(value, name) != want:
        raise _wrong(name, value, str(want))


def number(value, name: str) -> float:
    """A JSON number, not ``true`` or ``"0.5"``, as a float; not ``NaN``,
    ``Infinity`` or an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _wrong(name, value, "a number")
    if not abs(value) <= sys.float_info.max:  # False for NaN too
        raise _wrong(name, value, "a finite number")
    return float(value)


def flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise _wrong(name, value, "true or false")
    return value


def string(value, name: str, null: bool = False) -> str | None:
    if not (isinstance(value, str) or null and value is None):
        raise _wrong(name, value, "a string or null" if null else "a string")
    return value


def items(value, name: str) -> list:
    if not isinstance(value, list):
        raise _wrong(name, value, "a list")
    return value


def integers(value, name: str) -> tuple[int, ...]:
    for v in items(value, name):
        if type(v) is not int:
            raise ValueError(f"{name} holds {json.dumps(v)}, not an integer")
    return tuple(value)


def strings(value, name: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{name} are not a list of strings")
    return tuple(value)


def pairs(value, name: str, what: str, second: Callable[[object], bool]) -> tuple:
    """A list of [string, x] pairs, each x one that ``second`` accepts."""
    for pair in items(value, name):
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                and second(pair[1])):
            raise ValueError(f"{name} holds {json.dumps(pair)}, not {what}")
    return tuple(map(tuple, value))


def permission_pairs(value, name: str) -> tuple[tuple[str, str], ...]:
    return pairs(value, name, "a [name, protection level] pair", PROTECTION_LEVELS.__contains__)


def numbers(value, name: str) -> np.ndarray:
    """A finite JSON number or nested lists of them, as an array."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} is not an array of numbers")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} is not an array of finite numbers")
    return arr


def obj(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} is not a JSON object")
    return value


def only(d: dict, names, what: str, prefix: str = "") -> None:
    """Refuse ``d``, an object named ``what``, in one line naming the first of
    its keys (after ``prefix``) that is not in ``names``."""
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ValueError(f"{what}: unknown key {prefix + unknown[0]!r}")


def exact_keys(d: dict, names, what: str, prefix: str = "", optional=()) -> dict:
    """``d``, an object named ``what`` that holds each of ``names`` and may
    hold ``optional``: any other key is refused by ``only``, and a missing one
    in one line naming the first of ``names`` (after ``prefix``) it lacks."""
    only(d, (*names, *optional), what, prefix)
    missing = [name for name in names if name not in d]
    if missing:
        raise ValueError(f"{what}: missing key {prefix + missing[0]!r}")
    return d


def fields_of(cls, d, what: str, /, retired: tuple[str, ...] = (), **readers) -> dict:
    """The fields of dataclass ``cls`` that ``d``, an object named ``what``,
    gives, each read by its entry in ``readers`` as ``read(value, field name)``
    or, with no entry, taken as given for ``cls`` to check. A field ``d`` omits
    keeps its default, one with no default is a missing key, a ``retired`` key
    that older files hold is ignored, and any other key is refused by ``only``."""
    d, given = obj(d, what), {}
    only(d, [f.name for f in fields(cls)] + list(retired), what)
    for f in fields(cls):
        if f.name in d:
            read = readers.get(f.name)
            given[f.name] = d[f.name] if read is None else read(d[f.name], f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return given


def load_default_catalog() -> AndroidCatalog:
    """The catalog bundled with the package, the one every pset and corpus draws
    from; it is package data, not an input file, so it is read as it stands."""
    text = resources.files("pst_evade").joinpath("data/android_catalog.json").read_text("utf-8")
    return AndroidCatalog(**{name: tuple(map(tuple, pool)) if name == "permissions"
                             else tuple(pool) for name, pool in json.loads(text).items()})
