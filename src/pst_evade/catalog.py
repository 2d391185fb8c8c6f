"""Catalog of Android manifest entries that perturbations and generated apps draw
from, and the reading and writing of every file: ``read_document``, which reads
a hand-written spec or config, one JSON document; ``read_lines`` and
``write_lines``, which read and write every file the program writes (corpus,
model and report files) as lines of JSON, one list item a line, the file
replaced only once it is complete; the field readers the loaders take each
field of a document through; and ``pack_array`` and ``unpack_array``, the one
codec of the arrays that corpus and model files hold."""
from __future__ import annotations

import base64
import json
import math
import os
import sys
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Callable, TextIO

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


def check_format(doc, what: str, version: int, remedy: str) -> dict:
    """``doc``, a JSON object of layout ``version``; one written before layouts
    were versioned has no ``format`` and counts as format 1. ``what`` names it,
    and ``remedy`` ends the refusal of another format."""
    found = obj(doc, what).get("format", 1)
    if found != version:
        raise ValueError(f"{what} format {found} is not supported; {remedy}")
    return doc


def canonical_json(value) -> str:
    """The text of ``value`` on a line of a corpus or model file: sorted keys,
    no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@contextmanager
def _refusals(path: str | Path) -> Iterator[None]:
    """Re-raise what reading the file at ``path`` raises in the block as one
    line naming the file at its start: an ``OSError`` keeps its type, and what
    a bad document raises becomes a ``ValueError``."""
    try:
        yield
    except OSError as exc:
        raise type(exc)(f"{path}: {exc.strerror or exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_document(path: str | Path, parse: Callable):
    """``parse`` of the JSON document in a hand-written file: a corpus spec or
    a bench config. Every error names the file at its start (``_refusals``)."""
    with _refusals(path):
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))


# ---------------------------------------------------------------------------
# Corpus, model and report files: lines of JSON. Line 1 is the document with
# each of its lists given as its length; the lists' items follow, one a line,
# the lists in sorted key order.


def _line(text: str, n: int):
    """The JSON value in ``text``, line ``n`` of a file with its newline."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        column = min(exc.pos, len(text.rstrip("\n"))) + 1  # not past the newline
        raise ValueError(f"{exc.msg}: line {n} column {column}") from None


def read_lines(path: str | Path, fmt: tuple[str, int, str],
               streamed: Mapping[str, Callable[[object, int], object]], finish: Callable):
    """``finish`` of the document in the lines of a file, ``fmt`` the (what,
    version, remedy) of ``check_format``, checked on line 1. Each key named in
    ``streamed`` counts the lines of its list, and each item is built by its
    builder as ``build(item, index)`` as soon as its line is read, so no parsed
    list is held. A line that is not JSON, a file that ends before its last counted
    item and a line after it are refused naming the line; every error names
    the file at its start (``_refusals``)."""
    with _refusals(path):
        with open(path, "r", encoding="utf-8") as fh:
            n, doc = 1, check_format(_line(fh.readline(), 1), *fmt)
            for key in sorted(streamed.keys() & doc.keys()):
                if isinstance(doc[key], list):  # a whole document: refused without its items
                    raise ValueError(f"line 1: {key} is a list, not its length")
                count, built = integer(doc[key], key, lo=0), []
                while len(built) < count:
                    n, text = n + 1, fh.readline()
                    if not text:
                        raise ValueError(f"line {n}: the file ends after {len(built)} "
                                         f"of {count} {key}")
                    built.append(streamed[key](_line(text, n), len(built)))
                doc[key] = tuple(built)
            if fh.readline():
                raise ValueError(f"line {n + 1}: more lines than line 1 counts")
        return finish(doc)


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file to write that replaces ``path`` once the block completes.
    Until then it is a temporary file beside ``path``: a block that raises
    leaves ``path`` as it was and no temporary file behind. An ``OSError``
    keeps its type and becomes one line naming ``path`` at its start, as
    ``_refusals`` names a file it reads."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise type(exc)(f"{path}: {exc.strerror or exc}") from None
    finally:
        tmp.unlink(missing_ok=True)  # gone once it has replaced ``path``


def write_lines(path: str | Path, doc: dict, lists: Mapping[str, Callable]) -> None:
    """Write ``doc`` through ``replacing`` as the lines ``read_lines`` reads.
    Each key named in ``lists`` holds a sequence, given on line 1 as its length;
    each of its items is written as ``lists[key](item)`` on a line of its own,
    so no whole-file string is built. Every line is ``canonical_json``."""
    with replacing(path) as fh:
        fh.write(canonical_json({key: len(value) if key in lists else value
                                 for key, value in doc.items()}) + "\n")
        for key in sorted(lists.keys() & doc.keys()):
            for item in doc[key]:
                fh.write(canonical_json(lists[key](item)) + "\n")


# ---------------------------------------------------------------------------
# Field readers: each returns the value it is given when that holds what it
# reads, and otherwise raises a one-line ValueError: "<name> is <json>, not
# <what>" for a scalar, "<name> holds <json>, not <what>" for a list item, and
# "<name> is not <what>" ("are not" for strings) for a container. The strings
# that ``strings`` and ``pairs`` return are ``shared``.


def shared(value):
    """The one interned string equal to ``value`` when it is a string, so equal
    names read from files are one object, as in a generated corpus; any other
    value as given, for its reader to refuse."""
    return sys.intern(value) if type(value) is str else value


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


def items(value, name: str) -> list | tuple:
    """A JSON list, or the tuple ``read_lines`` built of one."""
    if not isinstance(value, (list, tuple)):
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
    return tuple(map(shared, value))


def pairs(value, name: str, what: str, second: Callable[[object], bool]) -> tuple:
    """A list of [string, x] pairs, each x one that ``second`` accepts."""
    for pair in items(value, name):
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                and second(pair[1])):
            raise ValueError(f"{name} holds {json.dumps(pair)}, not {what}")
    return tuple((shared(first), shared(second)) for first, second in value)


def permission_pairs(value, name: str) -> tuple[tuple[str, str], ...]:
    return pairs(value, name, "a [name, protection level] pair", PROTECTION_LEVELS.__contains__)


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


# ---------------------------------------------------------------------------
# Arrays in a file: ``{"dtype", "data"}``, the array's raw bytes in base64. An
# integer array, or a float one whose every value an integer dtype gives back
# bit for bit, is stored in the narrowest of ``ARRAY_DTYPES`` that holds its
# values; any other float array as ``FLOAT_DTYPE``, which keeps every bit.

ARRAY_DTYPES = ("<u1", "<i1", "<u2", "<i2", "<u4", "<i4", "<i8")
FLOAT_DTYPE = "<f8"
_DTYPE_RANGES = tuple((d, int(np.iinfo(d).min), int(np.iinfo(d).max))
                      for d in ARRAY_DTYPES)


def narrowest(arr: np.ndarray) -> str:
    """The dtype ``pack_array`` stores ``arr`` in: the narrowest of
    ``ARRAY_DTYPES`` that holds its values, and for a float array only if
    every value comes back bit for bit (none is a fraction, -0.0, NaN or
    infinite); else ``FLOAT_DTYPE``."""
    lo, hi = (arr.min().item(), arr.max().item()) if arr.size else (0, 0)
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN or infinite
        return FLOAT_DTYPE
    dtype = next((d for d, d_lo, d_hi in _DTYPE_RANGES if d_lo <= lo and hi <= d_hi),
                 FLOAT_DTYPE)
    if arr.dtype.kind == "f" and dtype != FLOAT_DTYPE:
        bits = f"u{arr.itemsize}"  # compared as bits, -0.0 is not 0
        if not np.array_equal(arr.astype(dtype).astype(arr.dtype).view(bits), arr.view(bits)):
            return FLOAT_DTYPE
    return dtype


def pack_array(arr: np.ndarray) -> dict:
    """``arr``, an integer or float64 array, as ``{"dtype", "data"}``: its
    values flat, in C order, in the ``narrowest`` dtype that holds them."""
    dtype = narrowest(arr)
    return {"dtype": dtype,
            "data": base64.b64encode(arr.astype(dtype).tobytes()).decode("ascii")}


def unpack_array(doc, name: str, dtypes: tuple[str, ...] = ARRAY_DTYPES) -> np.ndarray:
    """The flat array ``pack_array`` wrote, in one of ``dtypes``; anything else
    raises a one-line ``ValueError`` naming ``name``."""
    if not (isinstance(doc, dict) and "dtype" in doc and "data" in doc):
        raise ValueError(f"{name} is not a {{dtype, data}} object")
    dtype, data = doc["dtype"], doc["data"]
    if dtype not in dtypes:
        raise ValueError(f"{name} dtype {json.dumps(dtype)} is not one of {', '.join(dtypes)}")
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


def load_default_catalog() -> AndroidCatalog:
    """The catalog bundled with the package, the one every pset and corpus draws
    from; it is package data, not an input file, so it is read as it stands. Its
    names are ``shared``: a generated and a loaded corpus hold the same objects."""
    text = resources.files("pst_evade").joinpath("data/android_catalog.json").read_text("utf-8")
    return AndroidCatalog(**{name: tuple((shared(n), shared(level)) for n, level in pool)
                             if name == "permissions" else tuple(map(shared, pool))
                             for name, pool in json.loads(text).items()})
