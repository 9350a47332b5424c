"""Canonical JSON for dataclasses, and the JSON-lines files built from it.

Canonical text has sorted keys and no spaces, so its bytes depend only on
the value. A dataclass is stored as an object of the fields its constructor
takes: a field declared with ``init=False`` lives in memory only. Str and
int enums are stored by value, dates as ISO strings and tuples as lists.
Decoding follows the type hints, through a plan built once per type.
"""

from __future__ import annotations

import codecs
import copy
import dataclasses
import functools
import json
import re
import types
import typing
import uuid
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping


def replace_text(path: str | Path, text: str) -> None:
    """Write ``path`` via a temp file of its own beside it: a failed write leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.part")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_date(text: str) -> date:
    """``text`` as a ``YYYY-MM-DD`` date in ASCII digits, on every Python: from
    3.11 on, ``date.fromisoformat`` alone also reads ``20170615`` and week dates."""
    day = date.fromisoformat(text)  # reads ASCII digits only; a value that is not a string raises TypeError
    if len(text) != 10 or text[4] != "-" or text[7] != "-":  # of the forms it reads, only YYYY-MM-DD has this shape
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return day


LOAD_CHUNK_BYTES = 1 << 20  # how much of a file ``load`` reads at a time
_DECODER = json.JSONDecoder()
# Guessed cuts, checked by decoding: a member that is an object; a comma after a list or object, before a key.
_OBJECT_MEMBER = re.compile(r'[{,][ \t\n\r]*("(?:[^"\\]|\\.)*")[ \t\n\r]*:[ \t\n\r]*\{')
_LAST_CUT = re.compile(r'.*[\]}][ \t\n\r]*(,)[ \t\n\r]*"', re.S)


def load(path: str | Path, chunk_bytes: int = LOAD_CHUNK_BYTES) -> Any:
    """``json.loads`` of the UTF-8 text of ``path``. A top-level object whose last member is an
    object, as in a fixture-search file, is decoded with about one chunk of its text undecoded
    at a time; any other text goes whole to ``json.loads``, which gives the value or the error."""
    try:
        with open(path, "rb") as handle:
            return _load_last_member_in_runs(handle, chunk_bytes)
    except (OSError, ValueError):  # also a UnicodeDecodeError, whose position would count from a chunk
        pass
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_last_member_in_runs(handle: typing.BinaryIO, chunk_bytes: int) -> dict:
    """The members before the first one that is an object come from the first chunk. That object's
    members are decoded a run at a time, as "{" + run + "}": this succeeds only at a comma between
    two of them (a "}" closes one level, a comma never splits a token, a cut string stays open)."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    buf, eof = decode(handle.read(chunk_bytes)), False
    if not (member := _OBJECT_MEMBER.search(buf)):
        raise ValueError("no member that is an object in the first chunk")
    key, pos, member = json.loads(member[1]), member.end() - 1, None  # a match holds all of ``buf``
    head, stop = _DECODER.raw_decode(buf[: pos + 1] + "}}")  # {} stands in for the object
    if stop < pos + 3:
        raise ValueError("the top-level object closes before that member")
    while True:  # buf[pos] is the object's "{" or the "," after its last decoded member
        cut = None if eof else _LAST_CUT.match(buf, pos + 1)  # at the end, decode the rest
        end = cut.start(1) if cut else len(buf)
        try:
            run, stop = _DECODER.raw_decode("{" + buf[pos + 1 : end] + ("}" if cut else ""))
        except json.JSONDecodeError:  # the run is not whole yet, or the guess was wrong
            if eof:
                raise
        else:
            head[key].update(run)
            if not cut or stop <= end - pos:  # the object closed before the added "}"
                break
            pos = end
            continue
        tail, buf = buf[pos:], ""  # read as much again as is left: a long member is decoded O(log n) times
        eof = not (data := handle.read(max(chunk_bytes, len(tail))))
        text, data = decode(data, eof), b""  # each copy of the text dies before the next is made
        buf, pos, text = tail + text, 0, ""
    if (buf[pos + stop :] + decode(handle.read(), True)).strip(" \t\n\r") != "}":
        raise ValueError("a member follows the object")
    return head


def _stored_names(cls: type) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.init]


@functools.cache
def _field_encoder(cls: type, tag: tuple[str, Any] | None = None) -> Callable[[Any], dict]:
    items = [f"{name!r}: obj.{name}" for name in _stored_names(cls)] + ([f"{tag[0]!r}: tag"] if tag else [])
    # A dict display compiled once per class runs several times faster than
    # a comprehension over the names, and every stored object goes through it.
    return eval(f"lambda obj: {{{', '.join(items)}}}", {"tag": tag and tag[1]})


class _Invalid(ValueError):
    """Bad input, with the bad field's path (innermost first) and any unknown keys."""

    def __init__(self, problem: str, unknown: list[str] | None = None):
        super().__init__(problem)
        self.unknown, self.path = unknown, []


def _describe(exc: Exception, label: str) -> str:
    path = ".".join(reversed(getattr(exc, "path", [])))
    if getattr(exc, "unknown", None) is None:
        return f"bad {label}{f' field {path!r}' if path else ''}: {exc}"
    return f"unknown keys in {label} field {path!r}: {exc.unknown}" if path else f"unknown {label} keys: {exc.unknown}"


class Codec:
    """Dataclasses to canonical JSON and back.

    ``tags`` maps a class to a ``(key, value)`` item stored with each
    instance, such as a format version, that decoding requires. ``custom``
    maps a class to ``(encode, reshape)``: ``encode`` returns an instance's
    stored form (None: the field form) and ``reshape`` turns that back into
    the field form; it may decode parts with ``plan(cls)``, whose errors keep the field path.
    """

    def __init__(self, tags: Mapping[type, tuple[str, Any]] | None = None, custom: Mapping[type, tuple] | None = None):
        self._tags, self._custom = dict(tags or {}), dict(custom or {})
        # Plans are built once per type; the caches die with the codec.
        self._encoder = functools.cache(self._encoder_for)
        self.plan = functools.cache(self._plan)
        self.dumps: Callable[[Any], str] = json.JSONEncoder(
            sort_keys=True, separators=(",", ":"), default=lambda obj: self._encoder(type(obj))(obj)
        ).encode

    def decode(self, cls: type, data: Any, label: str, error: type[Exception] = ValueError) -> Any:
        """A ``cls`` from its stored form; bad input raises ``error`` naming ``label`` and the field."""
        try:
            return self.plan(cls)(copy.deepcopy(data))
        except (TypeError, ValueError) as exc:
            raise error(_describe(exc, label)) from None

    def write_lines(self, objs: Iterable[Any], path: str | Path) -> None:
        replace_text(path, "".join([self.dumps(obj) + "\n" for obj in objs]))

    def read_lines(self, cls: type, path: str | Path, label: str, error: type[Exception] = ValueError) -> list:
        """Decode each non-blank line of ``path``; a bad line raises ``error``."""
        decode, objs = self.plan(cls), []
        try:
            with open(path, encoding="utf-8") as lines:  # not str.splitlines(): JSON strings may hold U+2028
                for line_no, line in enumerate(lines, 1):
                    if line.strip():
                        try:
                            objs.append(decode(json.loads(line)))
                        except json.JSONDecodeError as exc:
                            raise error(f"{label} line {line_no}: invalid JSON ({exc.msg})") from None
                        except (TypeError, ValueError) as exc:
                            raise error(f"{label} line {line_no}: {_describe(exc, label)}") from None
        except UnicodeDecodeError as exc:  # raised while reading, so no line number
            raise error(f"cannot read {label} file {path}: {exc}") from None
        return objs

    def _encoder_for(self, cls: type) -> Callable[[Any], Any]:
        if cls in self._custom and self._custom[cls][0] is not None:
            return self._custom[cls][0]
        if dataclasses.is_dataclass(cls):
            return _field_encoder(cls, self._tags.get(cls))
        if issubclass(cls, date):
            return cls.isoformat
        raise TypeError(f"no JSON form for {cls.__name__}")

    def _plan(self, hint: Any) -> Callable[[Any], Any] | None:
        if typing.get_origin(hint) is tuple:  # tuple[X, ...] or tuple[X, X, X]: lists of one type
            (item_hint,) = {a for a in typing.get_args(hint) if a is not Ellipsis}
            item = self.plan(item_hint)
            kinds = _SCALARS.get(item_hint, ())

            def decode_tuple(value: Any) -> tuple:
                if type(value) not in (list, tuple):
                    raise TypeError(f"expected a list, got {type(value).__name__}")
                if item is not None:
                    return tuple(map(item, value))
                for index, entry in enumerate(value):
                    if type(entry) not in kinds:
                        raise TypeError(f"item {index}: expected {kinds[0].__name__}, got {type(entry).__name__}")
                return tuple(value)

            return decode_tuple
        if dataclasses.is_dataclass(hint):
            return self._dataclass(hint)
        if isinstance(hint, type) and issubclass(hint, Enum):
            return {member.value: member for member in hint}.__getitem__  # much faster than hint(value)
        if hint is date:
            return parse_date
        if hint in _SCALARS:
            return None  # stored as is
        raise TypeError(f"no JSON form for {hint!r}")

    def _dataclass(self, cls: type) -> Callable[[Any], Any]:
        hints = typing.get_type_hints(cls)
        stored = _stored_names(cls)
        tag_key, tag_value = self._tags.get(cls, (None, None))
        reshape = self._custom[cls][1] if cls in self._custom else None
        scalars, converters = [], []  # (name, accepted types) and (name, decoder, null allowed)
        for name in stored:
            hint = hints[name]
            nullable = typing.get_origin(hint) in (typing.Union, types.UnionType)
            if nullable:
                (hint,) = set(typing.get_args(hint)) - {type(None)}
            convert = self.plan(hint)
            if convert is None:
                # A missing key reads as a bare object(), left for the constructor to judge.
                scalars.append((name, _SCALARS[hint] + (object,) + ((type(None),) if nullable else ())))
            else:
                converters.append((name, convert, nullable))

        def decode(data: Any) -> Any:  # converts ``data`` in place
            if reshape is not None:
                data = reshape(data)
            if type(data) is not dict:
                raise _Invalid(f"expected an object, got {type(data).__name__}")
            if tag_key and (tag := data.pop(tag_key, None)) != tag_value:
                raise _Invalid(f"unsupported {tag_key} {tag!r}")
            name = None
            try:
                for name, kinds in scalars:
                    if type(data.get(name, _MISSING)) not in kinds:
                        raise TypeError(f"expected {kinds[0].__name__}, got {type(data[name]).__name__}")
                for name, convert, nullable in converters:
                    value = data.get(name)
                    if value is not None or (not nullable and name in data):
                        data[name] = convert(value)
                name = None
                return cls(**data)
            except (KeyError, TypeError, ValueError) as exc:  # KeyError: no enum member has the value
                if unknown := sorted(data.keys() - stored):  # the constructor rejected it
                    raise _Invalid("unknown keys", unknown) from None
                invalid = exc if isinstance(exc, _Invalid) else _Invalid(str(exc))
                invalid.path += [name] if name else []
                raise invalid from None

        return decode


_MISSING = object()
# The JSON types each scalar field type accepts.
_SCALARS = {str: (str,), int: (int,), float: (float, int), bool: (bool,)}

CODEC = Codec()
"""The codec for dataclasses stored in their plain field form. ``CODEC.dumps``
is also the canonical text of any plain JSON value."""
