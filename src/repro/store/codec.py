"""Bit-exact JSON encoding of run values for the result store.

A store hit must be indistinguishable from re-running the simulation:
the decoded value has to compare equal to the live one, field for
field, float for float.  JSON gives that for free — ``json.dumps``
emits the shortest round-tripping ``repr`` of every float and
``json.loads`` parses it back to the identical double — so the codec's
job is only to preserve *types* that plain JSON would flatten:

* :class:`~repro.network.simulation.RunSummary` and
  :class:`~repro.network.simulation.StatsSummary` (the values almost
  every experiment grid produces) get explicit tags;
* tuples are tagged so they do not come back as lists;
* mappings are stored as ordered pair lists under a tag, which both
  keeps insertion order and frees plain JSON objects to be tag-only —
  user dict keys can never collide with codec tags.

Values outside this vocabulary raise :class:`CodecError`; the memo
layer then treats the producing spec as uncacheable rather than
journal a lossy approximation.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping

from repro.errors import ReproError
from repro.network.simulation import RunSummary, StatsSummary

#: codec vocabulary version (journal entries record it via the store
#: schema; see :data:`repro.store.hashing.STORE_SCHEMA_VERSION`)
TAG_RUN_SUMMARY = "$run_summary"
TAG_STATS = "$stats"
TAG_DICT = "$dict"
TAG_TUPLE = "$tuple"


class CodecError(ReproError):
    """A value cannot be stored bit-exactly."""


def encode_value(value: Any) -> Any:
    """Encode ``value`` into the JSON-able store representation."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, StatsSummary):
        return {
            TAG_STATS: [value.count, value.mean, value.min, value.max]
        }
    if isinstance(value, RunSummary):
        fields = {
            field.name: encode_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {TAG_RUN_SUMMARY: fields}
    if isinstance(value, Mapping):
        pairs = []
        for key, item in value.items():
            if not isinstance(key, (str, int, float, bool)) and (
                key is not None
            ):
                raise CodecError(
                    f"mapping key {key!r} is not a JSON primitive"
                )
            pairs.append([key, encode_value(item)])
        return {TAG_DICT: pairs}
    if isinstance(value, tuple):
        return {TAG_TUPLE: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    raise CodecError(
        f"cannot store value of type {type(value).__module__}."
        f"{type(value).__qualname__}"
    )


def decode_value(obj: Any) -> Any:
    """Invert :func:`encode_value`."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [decode_value(item) for item in obj]
    if isinstance(obj, dict):
        if len(obj) == 1:
            (tag, payload), = obj.items()
            if tag == TAG_STATS:
                count, mean, low, high = payload
                return StatsSummary(
                    count=count, mean=mean, min=low, max=high
                )
            if tag == TAG_RUN_SUMMARY:
                fields: Dict[str, Any] = {
                    name: decode_value(item)
                    for name, item in payload.items()
                }
                return RunSummary(**fields)
            if tag == TAG_DICT:
                return {key: decode_value(item) for key, item in payload}
            if tag == TAG_TUPLE:
                return tuple(decode_value(item) for item in payload)
        raise CodecError(f"unrecognised store encoding {obj!r}")
    raise CodecError(f"unrecognised store encoding {obj!r}")
