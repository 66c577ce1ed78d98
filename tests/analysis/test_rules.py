"""Per-rule fixture cases: positive, negative, and scoping behaviour."""

from __future__ import annotations

from tests.analysis.conftest import codes


class TestREP001Randomness:
    def test_module_level_random_call_flagged(self, lint):
        result = lint(
            "repro/traffic/bad.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert "REP001" in codes(result)

    def test_global_api_import_flagged(self, lint):
        result = lint(
            "repro/traffic/bad.py",
            "from random import randint\n",
        )
        assert codes(result) == ["REP001"]

    def test_numpy_random_flagged(self, lint):
        result = lint(
            "repro/core/bad.py",
            """
            import numpy as np

            def noise():
                return np.random.rand()
            """,
        )
        assert "REP001" in codes(result)

    def test_unseeded_random_flagged_seeded_allowed(self, lint):
        result = lint(
            "repro/topology/bad.py",
            """
            from random import Random

            unseeded = Random()
            seeded = Random(42)
            """,
        )
        assert codes(result) == ["REP001"]
        assert "unseeded" in result.new[0].message

    def test_rng_home_is_exempt(self, lint):
        result = lint(
            "repro/sim/rng.py",
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
        )
        assert codes(result) == []

    def test_named_stream_draws_not_flagged(self, lint):
        result = lint(
            "repro/traffic/good.py",
            """
            def gap(streams):
                return streams.stream("traffic").expovariate(0.5)
            """,
        )
        assert codes(result) == []


class TestREP002WallClock:
    def test_time_time_in_kernel_package_flagged(self, lint):
        result = lint(
            "repro/switches/bad.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert codes(result) == ["REP002"]

    def test_from_import_alias_flagged(self, lint):
        result = lint(
            "repro/sim/bad.py",
            """
            from time import perf_counter as pc

            def stamp():
                return pc()
            """,
        )
        assert codes(result) == ["REP002"]

    def test_datetime_now_flagged(self, lint):
        result = lint(
            "repro/network/bad.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert codes(result) == ["REP002"]

    def test_obs_and_parallel_are_allowed(self, lint):
        source = """
            import time

            def stamp():
                return time.perf_counter()
            """
        assert codes(lint("repro/obs/ok.py", source)) == []
        assert codes(lint("repro/experiments/parallel.py", source)) == []

    def test_pure_gmtime_with_argument_allowed(self, lint):
        result = lint(
            "repro/host/ok.py",
            """
            import time

            EPOCH = time.gmtime(0)
            """,
        )
        assert codes(result) == []

    def test_zero_arg_gmtime_flagged(self, lint):
        result = lint(
            "repro/host/bad.py",
            """
            import time

            def stamp():
                return time.gmtime()
            """,
        )
        assert codes(result) == ["REP002"]


class TestREP003UnorderedIteration:
    def test_for_over_set_literal_flagged(self, lint):
        result = lint(
            "repro/sim/bad.py",
            """
            def drain():
                for port in {3, 1, 2}:
                    yield port
            """,
        )
        assert codes(result) == ["REP003"]

    def test_for_over_keys_flagged(self, lint):
        result = lint(
            "repro/switches/bad.py",
            """
            def arbitrate(requests):
                for port in requests.keys():
                    return port
            """,
        )
        assert codes(result) == ["REP003"]

    def test_list_of_set_flagged(self, lint):
        result = lint(
            "repro/routing/bad.py",
            """
            def order(hosts):
                return list(set(hosts))
            """,
        )
        assert codes(result) == ["REP003"]

    def test_next_iter_and_pop_on_set_local_flagged(self, lint):
        result = lint(
            "repro/host/bad.py",
            """
            def pick(xs):
                pending = set(xs)
                first = next(iter(pending))
                second = pending.pop()
                return first, second
            """,
        )
        assert codes(result) == ["REP003", "REP003"]

    def test_sorted_wrapping_is_fine(self, lint):
        result = lint(
            "repro/sim/good.py",
            """
            def drain(ports):
                pending = set(ports)
                for port in sorted(pending):
                    yield port
            """,
        )
        assert codes(result) == []

    def test_order_insensitive_folds_are_fine(self, lint):
        result = lint(
            "repro/flits/good.py",
            """
            def summarise(xs):
                pending = set(xs)
                return min(pending), len(pending), 3 in pending
            """,
        )
        assert codes(result) == []

    def test_rule_is_scoped_to_kernel_packages(self, lint):
        result = lint(
            "repro/experiments/ok.py",
            """
            def order(hosts):
                return list(set(hosts))
            """,
        )
        assert codes(result) == []


class TestREP004PoolPicklability:
    def test_lambda_fn_flagged(self, lint):
        result = lint(
            "repro/experiments/bad.py",
            """
            from repro.experiments.parallel import RunSpec

            def plan():
                return [RunSpec(key=("a",), fn=lambda: 1)]
            """,
        )
        assert codes(result) == ["REP004"]

    def test_locally_defined_function_flagged(self, lint):
        result = lint(
            "repro/experiments/bad.py",
            """
            from repro.experiments.parallel import RunSpec

            def plan():
                def worker():
                    return 1

                return [RunSpec(key=("a",), fn=worker)]
            """,
        )
        assert codes(result) == ["REP004"]

    def test_module_level_worker_is_fine(self, lint):
        result = lint(
            "repro/experiments/good.py",
            """
            from repro.experiments.parallel import RunSpec

            def worker():
                return 1

            def plan():
                return [RunSpec(key=("a",), fn=worker)]
            """,
        )
        assert codes(result) == []

    def test_pool_map_lambda_flagged(self, lint):
        result = lint(
            "repro/experiments/bad.py",
            """
            def run(pool, xs):
                return pool.imap_unordered(lambda x: x + 1, xs)
            """,
        )
        assert codes(result) == ["REP004"]

    def test_partial_wrapping_lambda_flagged(self, lint):
        result = lint(
            "repro/experiments/bad.py",
            """
            from functools import partial
            from repro.experiments.parallel import RunSpec

            def plan():
                return RunSpec(key=("a",), fn=partial(lambda x: x, 1))
            """,
        )
        assert codes(result) == ["REP004"]

    def test_lambda_in_kwargs_literal_flagged(self, lint):
        result = lint(
            "repro/experiments/bad.py",
            """
            from repro.experiments.parallel import RunSpec

            def worker(cb):
                return cb()

            def plan():
                return RunSpec(
                    key=("a",), fn=worker, kwargs=dict(cb=lambda: 1)
                )
            """,
        )
        assert codes(result) == ["REP004"]


class TestSuppressions:
    def test_matching_code_suppresses(self, lint):
        result = lint(
            "repro/switches/waived.py",
            """
            import time

            def stamp():
                return time.time()  # reprolint: ignore[REP002] test rig only
            """,
        )
        assert codes(result) == []
        assert [f.code for f in result.suppressed] == ["REP002"]

    def test_wrong_code_does_not_suppress(self, lint):
        result = lint(
            "repro/switches/waived.py",
            """
            import time

            def stamp():
                return time.time()  # reprolint: ignore[REP001] wrong code
            """,
        )
        assert codes(result) == ["REP002"]

    def test_multi_code_suppression(self, lint):
        result = lint(
            "repro/sim/waived.py",
            """
            import time

            def stamp(s):
                return time.time(), list(set(s))  # reprolint: ignore[REP002,REP003] rig
            """,
        )
        assert codes(result) == []
        assert sorted(f.code for f in result.suppressed) == [
            "REP002",
            "REP003",
        ]
