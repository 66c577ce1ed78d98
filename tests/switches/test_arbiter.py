"""Round-robin arbitration fairness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.switches.arbiter import RoundRobinArbiter


class TestGrant:
    def test_no_requesters_no_grant(self):
        assert RoundRobinArbiter(4).grant([]) is None

    def test_single_requester_wins(self):
        assert RoundRobinArbiter(4).grant([2]) == 2

    def test_pointer_rotates_past_winner(self):
        arb = RoundRobinArbiter(4)
        grants = [arb.grant([0, 1, 2, 3]) for _ in range(8)]
        assert grants == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_persistent_requester_cannot_starve_another(self):
        arb = RoundRobinArbiter(2)
        grants = [arb.grant([0, 1]) for _ in range(10)]
        assert grants.count(0) == grants.count(1) == 5

    def test_wraps_around(self):
        arb = RoundRobinArbiter(4)
        arb.grant([3])
        assert arb.grant([0, 3]) == 0

    @given(
        st.lists(
            st.sets(st.integers(0, 7)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_long_run_fairness(self, request_pattern):
        """Whoever requests every cycle is granted at least its fair share."""
        arb = RoundRobinArbiter(8)
        always = set(range(8))
        wins = {i: 0 for i in range(8)}
        cycles = 0
        for partial in request_pattern:
            winner = arb.grant(always | partial)
            wins[winner] += 1
            cycles += 1
        assert max(wins.values()) - min(wins.values()) <= 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)


class TestGrantUpTo:
    def test_respects_limit(self):
        arb = RoundRobinArbiter(8)
        granted = arb.grant_up_to([0, 1, 2, 3], limit=2)
        assert len(granted) == 2

    def test_grants_all_when_limit_allows(self):
        arb = RoundRobinArbiter(8)
        assert sorted(arb.grant_up_to([1, 5, 6], limit=8)) == [1, 5, 6]

    def test_distinct_winners(self):
        arb = RoundRobinArbiter(4)
        granted = arb.grant_up_to([0, 1, 2, 3], limit=4)
        assert len(set(granted)) == 4

    def test_rotation_spreads_over_cycles(self):
        arb = RoundRobinArbiter(4)
        first = arb.grant_up_to([0, 1, 2, 3], limit=2)
        second = arb.grant_up_to([0, 1, 2, 3], limit=2)
        assert sorted(first + second) == [0, 1, 2, 3]

    def test_zero_limit(self):
        assert RoundRobinArbiter(4).grant_up_to([0, 1], 0) == []
        with pytest.raises(ValueError):
            RoundRobinArbiter(4).grant_up_to([0], -1)


class TestGrantBatch:
    """The packed fast path must be indistinguishable from grant_up_to."""

    @given(
        rounds=st.lists(
            st.tuples(
                st.sets(st.integers(0, 7)),  # requesters (made ascending)
                st.integers(0, 9),  # limit
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_identical_to_grant_up_to_across_rounds(self, rounds):
        # same winners, same order, and — via the shared pointer — the
        # same behaviour on every later round.  grant_batch's contract
        # requires distinct ascending requesters, which is how both
        # switch phases build their candidate lists.
        reference = RoundRobinArbiter(8)
        batch = RoundRobinArbiter(8)
        for requesters, limit in rounds:
            ascending = sorted(requesters)
            assert (
                reference.grant_up_to(ascending, limit)
                == batch.grant_batch(ascending, limit)
            )

    def test_empty_and_zero_limit(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant_batch([], 3) == []
        assert arb.grant_batch([1, 2], 0) == []
        with pytest.raises(ValueError):
            arb.grant_batch([0], -1)

    def test_empty_round_leaves_pointer_unchanged(self):
        reference = RoundRobinArbiter(4)
        batch = RoundRobinArbiter(4)
        for arb in (reference, batch):
            arb.grant([1])  # advance both pointers identically
        batch.grant_batch([], 2)
        batch.grant_batch([0, 3], 0)
        # a no-winner round must not move the pointer: the next real
        # round still agrees with the reference
        assert (
            reference.grant_up_to([0, 1, 3], 2)
            == batch.grant_batch([0, 1, 3], 2)
        )

