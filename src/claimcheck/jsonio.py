"""Canonical JSON for dataclasses, and the JSON-lines files built from it.

Canonical text has sorted keys and no spaces, so its bytes depend only on
the value. A dataclass is stored as an object of the fields its constructor
takes: a field declared with ``init=False`` lives in memory only. Str and
int enums are stored by value, dates as ISO strings and tuples as lists.
Each dataclass gets a writer and a reader, generated once from its type hints.
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


def replace_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its pieces as they come, to ``path`` via a temp file of its own
    beside it: a failed write, or a failing source of pieces, leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.part")
    try:
        with tmp.open("w", encoding="utf-8") as out:  # as ``Path.write_text`` opens it
            for piece in (text,) if isinstance(text, str) else text:
                out.write(piece)
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


def _stored_fields(cls: type) -> list[tuple[str, Any, bool]]:
    """Each field the constructor takes: name, type hint (X for ``X | None``) and whether it may be null."""
    hints, stored = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        if f.init:
            hint, args = hints[f.name], typing.get_args(hints[f.name])
            nullable = typing.get_origin(hint) in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args
            stored.append((f.name, next(a for a in args if a is not type(None)) if nullable else hint, nullable))
    return stored


def _tuple_item(hint: Any) -> Any:
    """X for ``tuple[X, ...]`` or ``tuple[X, X, X]``; None for any other hint."""
    items = {a for a in typing.get_args(hint) if a is not Ellipsis}
    return items.pop() if typing.get_origin(hint) is tuple and len(items) == 1 else None


class _Invalid(ValueError):
    """Bad input, with the bad field's path (innermost first) and any unknown keys."""

    def __init__(self, problem: str, unknown: list[str] | None = None):
        super().__init__(problem)
        self.unknown, self.path = unknown, []


def _rejected(exc: Exception, data: dict, stored: frozenset, name: str | None) -> _Invalid:
    """A reader's error for ``exc``, raised at field ``name`` of ``data`` (None: by the constructor)."""
    if unknown := sorted(data.keys() - stored):  # the constructor rejected it
        return _Invalid("unknown keys", unknown)
    invalid = exc if isinstance(exc, _Invalid) else _Invalid(str(exc))
    invalid.path += [name] if name else []
    return invalid


def _describe(exc: Exception, label: str) -> str:
    path = ".".join(reversed(getattr(exc, "path", [])))
    if getattr(exc, "unknown", None) is None:
        return f"bad {label}{f' field {path!r}' if path else ''}: {exc}"
    return f"unknown keys in {label} field {path!r}: {exc.unknown}" if path else f"unknown {label} keys: {exc.unknown}"


def _compiled(name: str, lines: list[str], namespace: dict) -> Callable:
    exec("\n".join(lines), namespace)  # code built from field names and type hints only
    return namespace[name]


def _bind(namespace: dict, value: Any) -> str:
    """A name under which generated code in ``namespace`` sees ``value``."""
    namespace[name := f"_{len(namespace)}"] = value
    return name


def _literal(text: str) -> str:
    """``text`` as the literal part of a triple-quoted f-string."""
    return text.replace("\\", "\\\\").replace("'", "\\'").replace("{", "{{").replace("}", "}}")


# The text the C encoder gives a value of exactly each of these types.
_LEAF_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,  # finite values only: the C encoder writes NaN and ±Infinity
    bool: ("false", "true").__getitem__,
    date: '"{}"'.format,  # a date's str() is its ISO form
}


class Codec:
    """Dataclasses to canonical JSON and back, through a writer and a reader
    generated once per class from its type hints.

    ``tags`` maps a class to a ``(key, value)`` item stored with each
    instance, such as a format version, that reading requires. ``inline``
    maps a class to ``(field, omitted)``: its stored object holds that
    field's stored fields in place of the field, except those named in
    ``omitted``, which are not stored and read back as the values given
    there. ``reshape`` maps a class to a function that turns an older
    stored form into today's before it is read; it may read parts with
    ``reader(cls)``, whose errors keep the field path.
    """

    def __init__(self, tags: Mapping[type, tuple] | None = None, inline: Mapping[type, tuple] | None = None,
                 reshape: Mapping[type, Callable[[Any], Any]] | None = None):
        self._tags, self._inline, self._reshape = dict(tags or {}), dict(inline or {}), dict(reshape or {})
        # Generated once per class; the caches die with the codec.
        self.writer: Callable[[type], Callable[[Any], str]] = functools.cache(self._writer_for)
        self.reader: Callable[[type], Callable[[Any], Any]] = functools.cache(self._reader_for)
        # The leaf for plain JSON values, and for any value a field's type hint does not describe.
        self._encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=self._default).encode

    def dumps(self, obj: Any) -> str:
        """The canonical text of ``obj``: a dataclass through its writer, any other value through the C encoder."""
        return self.writer(type(obj))(obj)

    def decode(self, cls: type, data: Any, label: str, error: type[Exception] = ValueError) -> Any:
        """A ``cls`` from its stored form; bad input raises ``error`` naming ``label`` and the field."""
        try:
            return self.reader(cls)(copy.deepcopy(data))
        except (TypeError, ValueError) as exc:
            raise error(_describe(exc, label)) from None

    def write_lines(self, objs: Iterable[Any], path: str | Path) -> None:
        dumps = self.dumps
        replace_text(path, (dumps(obj) + "\n" for obj in objs))

    def read_lines(self, cls: type, path: str | Path, label: str, error: type[Exception] = ValueError) -> list:
        """Read each non-blank line of ``path`` as it comes; a bad line raises ``error``."""
        read, objs = self.reader(cls), []
        try:
            with open(path, encoding="utf-8") as lines:  # not str.splitlines(): JSON strings may hold U+2028
                for line_no, line in enumerate(lines, 1):
                    if not line.isspace():  # what str.strip() removes, without copying the line
                        try:
                            objs.append(read(json.loads(line)))
                        except json.JSONDecodeError as exc:
                            raise error(f"{label} line {line_no}: invalid JSON ({exc.msg})") from None
                        except (TypeError, ValueError) as exc:
                            raise error(f"{label} line {line_no}: {_describe(exc, label)}") from None
        except UnicodeDecodeError as exc:  # raised while reading, so no line number
            raise error(f"cannot read {label} file {path}: {exc}") from None
        return objs

    def _default(self, obj: Any) -> Any:
        if isinstance(obj, date):
            return obj.isoformat()
        if dataclasses.is_dataclass(type(obj)):  # in a value no type hint describes
            return json.loads(self.dumps(obj))
        raise TypeError(f"no JSON form for {type(obj).__name__}")

    def _text(self, hint: Any, name: str, namespace: dict) -> str:
        """Code for the canonical text of the local ``name``, whose field is declared ``hint``. A
        value not of the exact type the hint names goes to the C encoder, as every value once did."""
        leaf = _tuple_item(hint) if typing.get_origin(hint) is tuple else hint
        if dataclasses.is_dataclass(leaf):
            text = self.writer(leaf)
        elif isinstance(leaf, type) and issubclass(leaf, Enum):  # a str or int member is written as its value
            text = _LEAF_TEXT[str] if issubclass(leaf, str) else _LEAF_TEXT[int] if issubclass(leaf, int) else None
        else:
            text = _LEAF_TEXT.get(leaf)
        if text is None:
            return f"_dumps({name})"
        encode = _bind(namespace, text)
        if leaf is hint:  # x - x is NaN for NaN and ±inf
            finite = f" and {name} - {name} == 0.0" if leaf is float else ""
            return f"{encode}({name}) if type({name}) is {_bind(namespace, leaf)}{finite} else _dumps({name})"
        guard = f"type({name}) is tuple and set(map(type, {name})) <= {_bind(namespace, {leaf})}"
        if leaf is float:  # a finite float's text holds no "n", while "nan" and "inf" do
            guard += f" and 'n' not in ({name}_ := ','.join(map({encode}, {name})))"
            return f"'[' + {name}_ + ']' if {guard} else _dumps({name})"
        return f"'[' + ','.join(map({encode}, {name})) + ']' if {guard} else _dumps({name})"

    def _writer_for(self, cls: type) -> Callable[[Any], str]:
        if not dataclasses.is_dataclass(cls):
            return self._encode
        namespace, lines, members = {"_dumps": self._encode}, [f"def write_{cls.__name__}(obj):"], {}
        flat, omitted = self._inline.get(cls, (None, {}))
        for name, hint, nullable in _stored_fields(cls):
            stored = [(f"obj.{name}", name, hint, nullable)]
            if name == flat:
                lines.append(f"    inner = obj.{name}")
                stored = [(f"inner.{n}", n, h, null) for n, h, null in _stored_fields(hint) if n not in omitted]
            for attribute, key, hint, nullable in stored:
                local = f"v{len(members)}"
                lines.append(f"    {local} = {attribute}")
                code = self._text(hint, local, namespace)
                members[key] = "{(" + (f"'null' if {local} is None else {code}" if nullable else code) + ")}"
        if cls in self._tags:
            key, value = self._tags[cls]
            members[key] = _literal(self._encode(value))
        text = ",".join(_literal(_LEAF_TEXT[str](key) + ":") + members[key] for key in sorted(members))
        lines.append(f"    return f'''{{{{{text}}}}}'''")  # the keys in sorted order, as the C encoder writes them
        return _compiled(f"write_{cls.__name__}", lines, namespace)

    def _converter(self, hint: Any) -> Callable[[Any], Any] | None:
        """What turns a stored value declared ``hint``, other than a tuple, into its value; None: stored as is."""
        if dataclasses.is_dataclass(hint):
            return self.reader(hint)
        if isinstance(hint, type) and issubclass(hint, Enum):
            return {member.value: member for member in hint}.__getitem__  # much faster than hint(value)
        if hint is date:
            return parse_date
        if hint in _SCALARS:
            return None
        raise TypeError(f"no JSON form for {hint!r}")

    def _reader_for(self, cls: type) -> Callable[[Any], Any]:
        """Checks and converts the stored object in place, then calls the constructor. A missing
        key is left for the constructor to judge; an error names the field it was found in."""
        fields = _stored_fields(cls)
        namespace = {"_cls": cls, "_Invalid": _Invalid, "_rejected": _rejected, "_MISSING": _MISSING, "_LISTS": (list, tuple)}
        namespace["_stored"] = frozenset(name for name, _, _ in fields)
        lines = [f"def read_{cls.__name__}(data):"]
        if cls in self._reshape:
            lines.append(f"    data = {_bind(namespace, self._reshape[cls])}(data)")
        lines += ["    if type(data) is not dict:", "        raise _Invalid(f'expected an object, got {type(data).__name__}')"]
        if cls in self._inline:
            flat, omitted = self._inline[cls]
            lines += ["    own = {}"] + [f"    if {n!r} in data:\n        own[{n!r}] = data.pop({n!r})" for n, _, _ in fields if n != flat]
            lines.append(f"    data.update({_bind(namespace, dict(omitted))})\n    own[{flat!r}], data = data, own")
        if cls in self._tags:
            key, value = self._tags[cls]
            lines.append(f"    if (tag := data.pop({key!r}, None)) != {_bind(namespace, value)}:")
            lines.append(f"        raise _Invalid({f'unsupported {key} '!r} + repr(tag))")
        lines += ["    name = None", "    try:"]
        for name, hint, nullable in fields:  # the scalars first, then the fields to convert
            if hint in _SCALARS:
                kinds = _SCALARS[hint] + (object,) + ((type(None),) if nullable else ())  # object: the key is missing
                lines.append(f"        if type(data.get({name!r}, _MISSING)) not in {_bind(namespace, kinds)}:")
                lines.append(f"            name = {name!r}")
                lines.append(f"            raise TypeError({f'expected {kinds[0].__name__}, got '!r} + type(data[name]).__name__)")
        for name, hint, nullable in fields:
            if hint not in _SCALARS:
                lines.append(f"        name = {name!r}")
                lines.append(f"        if (value := data.get(name)) is not None{'' if nullable else ' or name in data'}:")
                lines += [f"            {line}" for line in self._conversion(hint, namespace)]
        lines += [
            "        name = None",
            "        if data.keys() == _stored:  # the usual case; names in the code match parameters fastest",
            f"            return _cls({', '.join(f'{n}=data[{n!r}]' for n, _, _ in fields)})",
            "        return _cls(**data)",
            "    except (KeyError, TypeError, ValueError) as exc:  # KeyError: no enum member has the value",
            "        raise _rejected(exc, data, _stored, name) from None",
        ]
        return _compiled(f"read_{cls.__name__}", lines, namespace)

    def _conversion(self, hint: Any, namespace: dict) -> list[str]:
        """Code that sets ``data[name]`` to the value stored as ``value`` for a field declared ``hint``."""
        if typing.get_origin(hint) is not tuple:
            return [f"data[name] = {_bind(namespace, self._converter(hint))}(value)"]
        lines = ["if type(value) not in _LISTS:", "    raise TypeError('expected a list, got ' + type(value).__name__)"]
        if (convert := self._converter(item := _tuple_item(hint))) is not None:
            return lines + [f"data[name] = tuple(map({_bind(namespace, convert)}, value))"]
        kinds = _bind(namespace, frozenset(_SCALARS[item]))
        return lines + [
            f"if not set(map(type, value)) <= {kinds}:  # then the loop runs, to name the bad item",
            f"    raise next(TypeError(f'item {{i}}: expected {_SCALARS[item][0].__name__}, got {{type(e).__name__}}')"
            f" for i, e in enumerate(value) if type(e) not in {kinds})",
            "data[name] = tuple(value)",
        ]


_MISSING = object()
# The JSON types each scalar field type accepts.
_SCALARS = {str: (str,), int: (int,), float: (float, int), bool: (bool,)}

CODEC = Codec()
"""The codec for dataclasses stored in their plain field form. ``CODEC.dumps``
is also the canonical text of any plain JSON value."""
