"""The store's one canonical JSON encoder writes what ``json.dumps`` wrote.

Spec keys and journal lines are both ``journal.canonical_json``, one
module-level encoder, where they were two ``json.dumps(sort_keys=True,
separators=(",", ":"))`` calls, each building an encoder of its own.  A
key or a line that came out different would make every store written
before the change miss.  The oracle below derives keys with
``json.dumps`` throughout, mapping-pair sort included.  Hypothesis draws
kwargs and values where sort order and escaping could part: str keys
that sort differently raw and JSON-quoted, non-ASCII, ``\\`` and ``"``,
``bool`` against ``int``, ``IntEnum``, ``OrderedDict``,
``MappingProxyType``, ``frozenset``, tuple against list, and dataclass
configs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Mapping

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.experiments.parallel import RunSpec
from repro.network.simulation import RunSummary, StatsSummary
from repro.store.backend import StoreEntry
from repro.store.codec import encode_value
from repro.store.hashing import (
    STORE_SCHEMA_VERSION,
    _qualref,
    canonicalize,
    spec_fingerprint,
    spec_key,
)
from repro.store.journal import canonical_json, record_line


# ----------------------------------------------------------------------
# the oracle: keys derived with json.dumps throughout
# ----------------------------------------------------------------------
def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def oracle_canonicalize(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"$enum": _qualref(type(value)), "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: oracle_canonicalize(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"$dc": _qualref(type(value)), "fields": fields}
    if isinstance(value, Mapping):
        pairs = [
            [oracle_canonicalize(key), oracle_canonicalize(item)]
            for key, item in value.items()
        ]
        pairs.sort(key=lambda pair: _dumps(pair[0]))
        return {"$map": pairs}
    if isinstance(value, tuple):
        return {"$tuple": [oracle_canonicalize(item) for item in value]}
    if isinstance(value, list):
        return {"$list": [oracle_canonicalize(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        items = sorted(
            (oracle_canonicalize(item) for item in value), key=_dumps
        )
        return {"$set": items}
    if isinstance(value, type):
        return {"$type": _qualref(value)}
    if callable(value):
        return {"$fn": _qualref(value)}
    raise ReproError(f"cannot canonicalize {value!r}")


def oracle_spec_key(spec: RunSpec) -> str:
    fingerprint = _dumps(
        {
            "store_schema": STORE_SCHEMA_VERSION,
            "fn": _qualref(spec.fn),
            "result_version": spec.result_version,
            "kwargs": oracle_canonicalize(dict(spec.kwargs)),
        }
    )
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


def outcome(fn, value):
    """``fn(value)``, or the fact that it raised a ReproError."""
    try:
        return "ok", fn(value)
    except ReproError:
        return "raised", None


# ----------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------
def worker(**kwargs):
    """Module-level worker: hashable by reference."""
    return kwargs


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(enum.Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclasses.dataclass(frozen=True)
class Config:
    hosts: Any = 16
    load: Any = 0.5
    label: Any = "cfg"


#: keys whose raw order differs from their JSON-quoted order, plus
#: escapes and non-ASCII
TRICKY_KEYS = [
    "ab", "ab ", "ab!", 'a"b', "a\\b", "a\tb", "é", "线路", "\x7f"
]

keys = st.one_of(st.sampled_from(TRICKY_KEYS), st.text(max_size=6))

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(TRICKY_KEYS),
)

hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(TRICKY_KEYS),
    st.sampled_from(list(Level)),
)

mapping_keys = st.one_of(keys, st.booleans(), st.integers(-3, 3), st.none())


def kwarg_values(leaf):
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(mapping_keys, inner, max_size=3),
            st.dictionaries(keys, inner, max_size=3).map(OrderedDict),
            st.dictionaries(keys, inner, max_size=3).map(MappingProxyType),
            st.frozensets(hashable_scalars, max_size=3),
            st.builds(Config, hosts=inner, load=inner, label=inner),
        ),
        max_leaves=12,
    )


spec_leaves = st.one_of(
    scalars,
    st.sampled_from(list(Level)),
    st.sampled_from(list(Mode)),
    st.sampled_from([Config, worker, len]),
)

summaries = st.builds(
    RunSummary,
    num_hosts=st.integers(1, 256),
    cycles=st.integers(0, 10**6),
    completed=st.booleans(),
    operations=st.integers(0, 100),
    op_last_latency=st.builds(
        StatsSummary, st.integers(0, 9), st.floats(allow_nan=False)
    ),
    op_average_latency=st.builds(StatsSummary),
    class_latency=st.dictionaries(
        keys, st.builds(StatsSummary, st.integers(0, 9)), max_size=2
    ),
    class_deliveries=st.dictionaries(keys, st.integers(0, 99), max_size=2),
    class_payload_flits=st.dictionaries(keys, st.integers(0, 99), max_size=2),
    extras=st.dictionaries(keys, scalars, max_size=2),
)

codec_values = st.recursive(
    st.one_of(scalars, st.sampled_from(list(Level)), summaries,
              st.builds(StatsSummary, st.integers(0, 9))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(mapping_keys, inner, max_size=3),
        st.dictionaries(keys, inner, max_size=3).map(OrderedDict),
        st.dictionaries(keys, inner, max_size=3).map(MappingProxyType),
        st.frozensets(hashable_scalars, max_size=2),
    ),
    max_leaves=10,
)


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
class TestHashing:
    @given(st.dictionaries(keys, kwarg_values(spec_leaves), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_spec_key_equals_the_oracle(self, kwargs):
        spec = RunSpec(key=("k",), fn=worker, kwargs=kwargs)
        assert spec_key(spec) == oracle_spec_key(spec)

    @given(kwarg_values(spec_leaves))
    @settings(max_examples=150, deadline=None)
    def test_canonical_text_equals_the_oracle(self, value):
        shared = outcome(canonicalize, value)
        dumped = outcome(oracle_canonicalize, value)
        assert shared[0] == dumped[0]
        if shared[0] == "ok":
            assert canonical_json(shared[1]) == _dumps(dumped[1])

    def test_quoted_order_is_the_sort_order(self):
        spec = RunSpec(
            key=("k",), fn=worker, kwargs={"ab": 1, "ab ": 2, "ab!": 3}
        )
        assert spec_key(spec) == oracle_spec_key(spec)
        pairs = canonicalize({"ab": 1, "ab ": 2, "ab!": 3})["$map"]
        assert [key for key, _ in pairs] == ["ab ", "ab!", "ab"]
        assert spec_fingerprint(spec).count('"ab') == 3

    def test_bool_int_and_int_enum_keep_their_canonical_text(self):
        value = [True, 1, Level.LOW, {True: "t"}, {1: "i"}]
        assert canonical_json(canonicalize(value)) == _dumps(
            oracle_canonicalize(value)
        )
        assert canonical_json(canonicalize({True: 1})) != canonical_json(
            canonicalize({1: 1})
        )


class TestJournalLines:
    @given(codec_values)
    @settings(max_examples=200, deadline=None)
    def test_an_entry_line_equals_the_json_dumps_line(self, value):
        try:
            encoded = encode_value(value)
        except ReproError:
            return
        record = StoreEntry(
            key="k", fn="tests.store:worker", result_version=1,
            value=encoded, wall_seconds=0.5, created_at="t", git_sha="g",
        ).to_record()
        assert record_line(record) == _dumps(record) + "\n"
