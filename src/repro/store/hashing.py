"""Canonical, deterministic content hashing of :class:`RunSpec`\\ s.

The result store keys every cached run by a hash of *what would be
computed*: the worker function's qualified name, the spec's
``result_version`` salt, the store schema version, and a canonical form
of the keyword arguments.  Two specs with the same hash are guaranteed
to describe the same simulation, no matter which experiment declared
them, in which process, or in what kwargs insertion order — which is
exactly what makes cross-experiment dedup and warm campaign resume
safe.

Canonicalisation rules (:func:`canonicalize`):

* primitives (``None``/``bool``/``int``/``float``/``str``) pass through;
* enums become ``{"$enum": "module:Qualname", "name": ...}``;
* dataclass instances (e.g. :class:`~repro.network.config
  .SimulationConfig`) become their class reference plus a by-name field
  mapping, so adding a config field with a new default changes the hash
  — invalidation errs on the side of recomputing;
* mappings become key-sorted pair lists (dict order is erased);
* sets are sorted; lists and tuples stay ordered but keep their type;
* classes and module-level functions become ``"module:qualname"``
  references;
* anything else — lambdas, local functions, open files, live objects —
  raises :class:`SpecHashError`, and the memo layer treats the spec as
  *uncacheable* (always executed, never journaled).

The fingerprint is the canonical structure dumped by the store's one
canonical JSON encoder (:data:`repro.store.journal.canonical_json`,
which also writes journal lines); the key is its SHA-256.  Nothing
here depends on ``PYTHONHASHSEED``, process identity, or wall time —
``tests/store/test_hashing.py`` enforces dict-order invariance,
cross-process stability, and sensitivity to every field, and
``tests/store/test_canonical_encoder.py`` holds the shared encoder to
the ``json.dumps`` text keys were hashed from before it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Mapping

from repro.errors import ReproError
from repro.experiments.parallel import RunSpec
from repro.store.journal import canonical_json

#: bump when the journal record layout or hash derivation changes; the
#: version participates in every key, so old stores simply stop hitting
STORE_SCHEMA_VERSION = 1


class SpecHashError(ReproError):
    """A spec's kwargs contain a value with no canonical form."""


def _qualref(obj: Any) -> str:
    """``module:qualname`` reference for a class or function."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname:
        raise SpecHashError(
            f"object {obj!r} has no stable module:qualname reference"
        )
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise SpecHashError(
            f"{module}:{qualname} is not a module-level callable; its "
            "identity is not stable across processes"
        )
    return f"{module}:{qualname}"


def canonicalize(value: Any) -> Any:
    """A JSON-able canonical form of ``value`` (see module docs)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"$enum": _qualref(type(value)), "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: canonicalize(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"$dc": _qualref(type(value)), "fields": fields}
    if isinstance(value, Mapping):
        pairs = [
            [canonicalize(key), canonicalize(item)]
            for key, item in value.items()
        ]
        pairs.sort(key=lambda pair: canonical_json(pair[0]))
        return {"$map": pairs}
    if isinstance(value, tuple):
        return {"$tuple": [canonicalize(item) for item in value]}
    if isinstance(value, list):
        return {"$list": [canonicalize(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        items = sorted(
            (canonicalize(item) for item in value), key=canonical_json
        )
        return {"$set": items}
    if isinstance(value, type):
        return {"$type": _qualref(value)}
    if callable(value):
        return {"$fn": _qualref(value)}
    raise SpecHashError(
        f"cannot canonicalize {type(value).__module__}."
        f"{type(value).__qualname__} value {value!r}"
    )


def spec_fingerprint(spec: RunSpec) -> str:
    """The canonical JSON text a spec's key is hashed from.

    Deliberately excludes ``spec.key`` (the grid coordinate): two grid
    points that describe the same simulation must share a fingerprint
    for duplicate-spec coalescing and cross-experiment dedup to work.
    """
    return canonical_json(
        {
            "store_schema": STORE_SCHEMA_VERSION,
            "fn": _qualref(spec.fn),
            "result_version": spec.result_version,
            "kwargs": canonicalize(dict(spec.kwargs)),
        }
    )


def spec_key(spec: RunSpec) -> str:
    """The spec's content address: SHA-256 of its fingerprint."""
    return hashlib.sha256(
        spec_fingerprint(spec).encode("utf-8")
    ).hexdigest()


def fn_reference(spec: RunSpec) -> str:
    """``module:qualname`` of the spec's worker (journal provenance)."""
    return _qualref(spec.fn)
