"""Catalog of Android manifest entries that perturbations and generated apps draw
from, and the reading and writing of every file: ``read_document`` and the
field readers the loaders take each field of a document through, the windowed
reader ``read_streamed`` that builds a document's list elements one at a time,
``build_document``, which builds them the same way from a parsed document, and
``write_json``, which writes a document one list element at a time and replaces
the file only once it is complete."""
from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import partial
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


def read_document(path: str | Path, parse: Callable, fmt: tuple[str, int, str] | None = None):
    """``parse`` of the JSON document in a file. ``fmt`` is the (what, version,
    remedy) of ``check_format`` for a versioned layout, checked before
    ``parse``. Every error names the file at its start: an ``OSError`` keeps its
    type, and what a bad document raises becomes a ``ValueError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if fmt is not None:
            check_format(doc, *fmt)
        return parse(doc)
    except OSError as exc:
        raise type(exc)(f"{path}: {exc.strerror or exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# The windowed reader: a document's top-level object, one value at a time.

_WINDOW = 1 << 20  # characters read at a time, at least
_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace json skips
_DECODER = json.JSONDecoder()


class _NotStreamed(ValueError):
    """A file in a layout the windowed reader does not take."""


class _Window:
    """The text of a file, held a window of about ``_WINDOW`` characters at a
    time past the value being decoded."""

    def __init__(self, fh: TextIO):
        self.fh, self.text, self.pos, self.eof = fh, "", 0, False

    def _more(self) -> None:
        # The read text is dropped first, so the old window, the text kept and
        # the new read are never all held at once. Reading as much as is kept
        # bounds the retries of a value that spans several windows to a few.
        rest, self.text = self.text[self.pos:], ""
        chunk = self.fh.read(max(_WINDOW, len(rest)))
        self.text, self.pos, self.eof = rest + chunk, 0, not chunk

    def peek(self) -> str:
        """The next character that is not whitespace, left unread; "" at the end."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self._more()

    def take(self, chars: str) -> str:
        """Read the next character, one of ``chars``."""
        char = self.peek()
        if not char or char not in chars:
            raise _NotStreamed(f"expected one of {chars!r}")
        self.pos += 1
        return char

    def value(self):
        """Decode the next JSON value. One that ends where the window does may
        go on past it (a number), so it is decoded again with more text."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
                if end < len(self.text) or self.eof:
                    self.pos = end
                    return value
            except json.JSONDecodeError:
                if self.eof:
                    raise
            self._more()

    def elements(self, build: Callable[[object, int], object]) -> tuple:
        """The list that comes next, each element built by ``build(element,
        index)`` as soon as it is decoded."""
        self.take("[")
        built = []
        if self.peek() == "]":
            self.pos += 1
            return ()
        while True:
            built.append(build(self.value(), len(built)))
            if self.take(",]") == "]":
                return tuple(built)


def _walk(path: str | Path, streamed: Mapping[str, Callable[[object, int], object]]) -> dict:
    """The top-level object of the file at ``path``, each key named in
    ``streamed`` holding the tuple of its list's built elements."""
    doc = {}
    with open(path, "r", encoding="utf-8") as fh:
        window = _Window(fh)
        window.take("{")
        while True:
            key = window.value()
            if not isinstance(key, str) or key in doc:
                raise _NotStreamed("a key that is not a string, or repeats")
            window.take(":")
            doc[key] = window.elements(streamed[key]) if key in streamed else window.value()
            if window.take(",}") == "}":
                break
        if window.peek():
            raise _NotStreamed("text after the document")
    return doc


def build_document(doc: dict, streamed: Mapping[str, Callable[[object, int], object]],
                   finish: Callable):
    """``finish`` of the parsed document ``doc`` once each list held by a key
    named in ``streamed`` is built, in the order of the keys, into the tuple of
    its elements, each built by its builder as ``build(element, index)``. A
    value that is not a list is left for ``finish`` to refuse."""
    return finish({key: tuple(streamed[key](v, i) for i, v in enumerate(value))
                   if key in streamed and isinstance(value, list) else value
                   for key, value in doc.items()})


def read_streamed(path: str | Path, fmt: tuple[str, int, str],
                  streamed: Mapping[str, Callable[[object, int], object]], finish: Callable):
    """What ``read_document`` gives of ``build_document`` with these builders
    and ``finish``, without holding the parsed document: the file is decoded
    through a window of about 1 MB, and each list element is built as soon as
    it is decoded. A file the window does not take (a top-level value that is
    not an object, a repeated key, a streamed key that holds no list) and any
    file refused go to ``read_document``, which gives each refusal its words:
    bad JSON and the format come before any element."""
    try:
        return finish(check_format(_walk(path, streamed), *fmt))
    except (OSError, KeyError, ValueError, TypeError, AttributeError, IndexError):
        pass  # the reference below reads the file again, with nothing held from this try
    return read_document(path, partial(build_document, streamed=streamed, finish=finish), fmt)


# ---------------------------------------------------------------------------
# Writing


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file to write that replaces ``path`` once the block completes.
    Until then it is a temporary file beside ``path``: a block that raises
    leaves ``path`` as it was and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc: dict, separators: tuple[str, str] = (", ", ": ")) -> None:
    """Write ``json.dumps(doc, sort_keys=True, separators=separators)`` through
    ``replacing``, where a top-level value that is an iterator stands for the
    list of its items: that list is written one item at a time, so neither it
    nor the whole document's string is ever built."""
    dumps = partial(json.dumps, sort_keys=True, separators=separators)
    comma, colon = separators
    with replacing(path) as fh:
        fh.write("{")
        for i, key in enumerate(sorted(doc)):
            fh.write((comma if i else "") + dumps(key) + colon)
            value = doc[key]
            if not isinstance(value, Iterator):
                fh.write(dumps(value))
                continue
            fh.write("[")
            for j, item in enumerate(value):
                fh.write((comma if j else "") + dumps(item))
            fh.write("]")
        fh.write("}")


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
    """A JSON list, or the tuple ``build_document`` built of one."""
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
    from; it is package data, not an input file, so it is read as it stands. Its
    names are ``shared``: a generated and a loaded corpus hold the same objects."""
    text = resources.files("pst_evade").joinpath("data/android_catalog.json").read_text("utf-8")
    return AndroidCatalog(**{name: tuple((shared(n), shared(level)) for n, level in pool)
                             if name == "permissions" else tuple(map(shared, pool))
                             for name, pool in json.loads(text).items()})
