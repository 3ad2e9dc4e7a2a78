"""JSON decoding for the read paths: :func:`loads`, an exact twin of ``json.loads``.

Spool lines and request bodies are parsed by ``orjson``, which is about
three times faster than the stdlib on a spool line, and handed to stdlib
``json`` wherever orjson's answer could differ from ``json.loads``:

* orjson raises: ``NaN``, ``Infinity`` (both written by ``json.dumps``),
  numbers that overflow a double, lone surrogates, and every invalid
  document, whose error message is then the stdlib's;
* the result holds a float of magnitude at least 2**63: orjson silently
  turns integer literals outside [-2**63, 2**64) into floats;
* the result nests deeper than :data:`MAX_DEPTH` containers;
* the text holds more than 4096 ``[`` and ``{``: orjson has no depth
  limit and overflows the C stack (a segfault) near 130,000 levels, so
  it only sees texts that cannot nest that deep.

Nesting deeper than :data:`MAX_DEPTH` raises a ``json.JSONDecodeError``
at the first bracket past the limit, unless ``json.loads`` reports an
error before reaching it.  This replaces the ``RecursionError`` that
``json.loads`` raises at a stack-dependent depth near 1000, and is the
only way :func:`loads` differs from ``json.loads``.

Encoding stays on stdlib ``json``: orjson's bytes differ (``1e-05`` vs
``0.00001``, raw UTF-8 vs ``\\u00e9``), and spool lines and served
responses are pinned byte for byte.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Optional, cast

import orjson

#: deepest container nesting accepted; ``[]`` is depth 1
MAX_DEPTH = 512

#: most ``[`` and ``{`` a text may hold to be parsed by orjson.  orjson
#: recurses with no depth limit, some 64 bytes of C stack a level, and
#: segfaults near 130,000 levels on an 8 MiB stack; a text with this many
#: openers nests at most this deep, in about 256 KiB.
_ORJSON_OPENERS = 4096

#: smallest float magnitude orjson may have made from an integer literal
_WIDE = float(2**63)

#: a container whose first item has one of these types is tried as all
#: numbers; a record, its ``meta`` and a request hold a string first
_NUMBERS = (int, float, bool)

#: a bracket, or a JSON string (an unterminated one runs to the end of
#: the text), for finding the depth of raw text
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]', re.DOTALL)


def loads(text: str) -> Any:
    """``json.loads(text)`` (values, types, errors), with a depth limit."""
    if _openers(text, _ORJSON_OPENERS) <= _ORJSON_OPENERS:
        try:
            value = orjson.loads(text)
        except orjson.JSONDecodeError:
            return _stdlib_loads(text)
        if _narrow(value, MAX_DEPTH):
            return value
    return _stdlib_loads(text)


def _narrow(value: Any, room: int) -> bool:
    """True when ``value`` nests at most ``room`` deep and no float reaches 2**63."""
    if type(value) is dict:
        items = value.values()
    elif type(value) is list:
        items = value
    else:
        return type(value) is not float or -_WIDE < value < _WIDE
    if room == 0:
        return False
    if type(next(iter(items), None)) in _NUMBERS:
        try:  # all numbers: one pass in C; hypot is at least the largest
            return math.hypot(*items) < _WIDE / 2  # magnitude, less an ulp
        except TypeError:  # a number first, then something else
            pass
    for item in items:
        kind = type(item)
        if kind is float:
            if not -_WIDE < item < _WIDE:
                return False
        elif (kind is dict or kind is list) and not _narrow(item, room - 1):
            return False
    return True


def _stdlib_loads(text: str) -> Any:
    """``json.loads``, with the depth error of :func:`loads`."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        deep = _too_deep_at(text)
        if deep is None or exc.pos <= deep:  # the error comes first
            raise
    except RecursionError:
        deep = _too_deep_at(text)
        if deep is None:
            raise
    else:
        if _openers(text, MAX_DEPTH) <= MAX_DEPTH or _shallow(value, MAX_DEPTH):
            return value
        deep = cast(int, _too_deep_at(text))  # the value's brackets are in the text
    raise json.JSONDecodeError(f"Nesting deeper than {MAX_DEPTH} levels", text, deep)


def _shallow(value: Any, room: int) -> bool:
    """True when ``value`` nests at most ``room`` containers deep."""
    if type(value) is dict:
        items = value.values()
    elif type(value) is list:
        items = value
    else:
        return True
    if room == 0:
        return False
    for item in items:
        if not _shallow(item, room - 1):
            return False
    return True


def _openers(text: str, limit: int) -> int:
    """How many ``[`` and ``{`` ``text`` holds; counting stops past ``limit``.

    ``str.find`` runs at memory speed, ``str.count`` about 40x slower.
    """
    count = 0
    for char in "[{":
        at = text.find(char)
        while at >= 0:
            count += 1
            if count > limit:
                return count
            at = text.find(char, at + 1)
    return count


def _too_deep_at(text: str) -> Optional[int]:
    """Index of the first bracket that opens level ``MAX_DEPTH + 1``, if any."""
    if _openers(text, MAX_DEPTH) <= MAX_DEPTH:
        return None
    depth = 0
    for token in _TOKEN.finditer(text):
        char = text[token.start()]
        if char in "[{":
            depth += 1
            if depth > MAX_DEPTH:
                return token.start()
        elif char in "]}":
            depth -= 1
    return None
