"""Input files: the YAML parser and the typed field reader that scenario, suite and config files share."""

from __future__ import annotations

import sys
from typing import Any, Callable, NamedTuple

MAX_YAML_DEPTH = 64  # the bundled files nest 3 deep


def load_yaml(text: str):
    """One YAML document, built by PyYAML's safe constructor.

    Scenario, suite and config files all parse here. The parser is libyaml's
    (``yaml.CSafeLoader``) when PyYAML was built with it, else PyYAML's own.
    ``yaml`` is imported on first use, so a run that reads no YAML never loads it.

    Raises:
        ValueError: the text is not YAML (the ``yaml.YAMLError`` is chained,
            its message made one line), nests deeper than MAX_YAML_DEPTH, or
            holds an int past Python's digit limit.
    """
    import yaml

    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        _check_depth(yaml.parse(text, Loader=loader))
        return yaml.load(text, Loader=loader)
    except yaml.MarkedYAMLError as exc:  # its str names "<unicode string>" and spans up to four lines
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ValueError(f"{exc.problem}{where}" + (f" ({exc.context})" if exc.context else "")) from exc
    except yaml.YAMLError as exc:  # a ReaderError: a character YAML does not allow
        raise ValueError(f"{str(exc).splitlines()[0]} at offset {exc.position}") from exc


def _check_depth(events) -> None:
    """Raise ValueError when the events nest more than MAX_YAML_DEPTH collections.

    An alias counts as the collections of the node it names, as the built value
    holds that node. The composer recurses once per level, in C under libyaml,
    so it would overflow the stack; the parser yields its events from a loop.
    """
    import yaml

    too_deep = f"the document nests deeper than {MAX_YAML_DEPTH} collections"
    heights: dict[str | None, int] = {}  # anchor -> collection levels of the node it names
    open_ = [[None, 0]]  # the document, then per open collection: its anchor, the most levels below it so far
    for event in events:
        if isinstance(event, yaml.CollectionStartEvent):
            if len(open_) > MAX_YAML_DEPTH:  # stop here: libyaml scans a deep flow collection in quadratic time
                raise ValueError(too_deep)
            open_.append([event.anchor, 0])
        elif isinstance(event, yaml.CollectionEndEvent):
            anchor, below = open_.pop()
            if below >= MAX_YAML_DEPTH:  # deeper through the aliases below it
                raise ValueError(too_deep)
            heights[anchor] = below + 1
            open_[-1][1] = max(open_[-1][1], below + 1)
        elif isinstance(event, yaml.AliasEvent):  # 0 for a scalar, or for a collection the alias is inside of
            open_[-1][1] = max(open_[-1][1], heights.get(event.anchor, 0))


def brief_repr(value) -> str:
    """``repr(value)`` for an error message, cut short: three items per collection, two collections
    deep and 30 characters per scalar, so about 700 characters at most, whatever the value. A
    mapping lists its keys sorted, as ``reprlib`` does.

    A YAML alias loads as one node that every use shares, but a repr spells out each use: a file
    of a few hundred bytes can have a repr of gigabytes. ``reprlib`` is imported on this error path.
    """
    import reprlib

    short = reprlib.Repr()
    short.maxlevel = 2
    for name in ("maxtuple", "maxlist", "maxarray", "maxdict", "maxset", "maxfrozenset", "maxdeque"):
        setattr(short, name, 3)
    short.maxstring = short.maxlong = short.maxother = 30
    return short.repr(value)


class FieldKind(NamedTuple):
    """A YAML field's kind: its name in errors, the test of a parsed value, and what the value becomes."""

    what: str
    accepts: Callable[[Any], bool]
    build: Callable[[Any], Any] = lambda v: v
    listed: bool = False  # a list is named in errors by its bare path, as the fields of its items are


STRING = FieldKind("a string", lambda v: isinstance(v, str))
PATH = STRING._replace(what="a path string")
INTEGER = FieldKind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
# an int past the float range would overflow float()
NUMBER = FieldKind("a number", lambda v: isinstance(v, float) or INTEGER.accepts(v) and abs(v) <= sys.float_info.max, float)
MAPPING = FieldKind("a mapping", lambda v: isinstance(v, dict))
MAPPINGS = FieldKind("a list of mappings", lambda v: isinstance(v, list) and all(map(MAPPING.accepts, v)), listed=True)
STRINGS = FieldKind("a list of strings", lambda v: isinstance(v, list) and all(map(STRING.accepts, v)), listed=True)
_REQUIRED = object()


def read_field(doc, key: str, kind: FieldKind, error: type[Exception], where: str = "", default=_REQUIRED):
    """The value of ``doc[key]``, checked and built as ``kind``; ``default`` when absent or null.

    Without a ``default`` the key is required. ``where`` is the path of ``doc`` in its file,
    so that an error names the field as ``dynamic_obstacles[2].cell`` and shows its value.

    Raises:
        error: ``doc`` is not a mapping, or the field is missing or not of ``kind``.
    """
    if not isinstance(doc, dict):
        raise error(f"the document must be a mapping, got {brief_repr(doc)}")
    name = f"{where}.{key}" if where else key if kind.listed else repr(key)  # 'map_file', dynamic_obstacles, scenarios[0].file
    value = doc.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in doc:
        raise error(f"missing required field {name}")
    if not kind.accepts(value):
        raise error(f"{name} must be {kind.what}, got {brief_repr(value)}")
    return kind.build(value)
