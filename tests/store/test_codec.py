"""Bit-exact roundtrip guarantees of the store's value codec."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.simulation import RunSummary, StatsSummary
from repro.store.codec import (
    CodecError,
    decode_value,
    encode_value,
)


def _summary(**overrides) -> RunSummary:
    defaults = dict(
        num_hosts=16,
        cycles=1_200,
        completed=True,
        operations=7,
        op_last_latency=StatsSummary(7, 41.5, 12.0, 99.0),
        op_average_latency=StatsSummary(7, 38.25, 11.0, 90.0),
        class_latency={"unicast": StatsSummary(40, 17.75, 4.0, 60.0)},
        class_deliveries={"unicast": 40},
        class_payload_flits={"unicast": 640},
        extras={"occupancy": (0.25, 0.5)},
    )
    defaults.update(overrides)
    return RunSummary(**defaults)


def roundtrip(value):
    """Encode, push through real JSON text, decode."""
    return decode_value(json.loads(json.dumps(encode_value(value))))


class TestRoundtrip:
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**52), max_value=2**52),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
            ),
            lambda leaf: st.one_of(
                st.lists(leaf, max_size=4),
                st.tuples(leaf, leaf),
                st.dictionaries(st.text(max_size=8), leaf, max_size=4),
            ),
            max_leaves=25,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_json_values_roundtrip_bit_exactly(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_tuples_stay_tuples(self):
        assert roundtrip((1, (2, 3), [4])) == (1, (2, 3), [4])

    def test_dict_insertion_order_is_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(roundtrip(value)) == ["z", "a", "m"]

    def test_tag_like_user_keys_do_not_collide(self):
        value = {"$tuple": [1, 2], "$stats": "text"}
        assert roundtrip(value) == value

    def test_stats_summary_roundtrips(self):
        stats = StatsSummary(11, 3.3333333333333335, 0.1, 9.9)
        assert roundtrip(stats) == stats

    def test_run_summary_roundtrips(self):
        summary = _summary()
        assert roundtrip(summary) == summary
        assert roundtrip(summary).extras["occupancy"] == (0.25, 0.5)

    def test_shortest_repr_floats_survive_json(self):
        values = [0.1, 1e-17, 2.220446049250313e-16, 1 / 3]
        assert roundtrip(values) == values


class TestRejections:
    def test_live_object_value_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_non_primitive_mapping_key_raises(self):
        with pytest.raises(CodecError):
            encode_value({(1, 2): "tuple-keyed"})

    def test_unknown_tag_raises_on_decode(self):
        with pytest.raises(CodecError):
            decode_value({"$mystery": []})

    def test_untagged_multikey_dict_raises_on_decode(self):
        with pytest.raises(CodecError):
            decode_value({"a": 1, "b": 2})
