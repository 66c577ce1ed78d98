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


class TestREP013StoreJournalOnly:
    def test_direct_open_in_store_module_flagged(self, lint):
        result = lint(
            "repro/store/bad.py",
            """
            def slurp(path):
                with open(path, encoding="utf-8") as handle:
                    return handle.read()
            """,
        )
        assert codes(result) == ["REP013"]
        assert "open()" in result.new[0].message

    def test_aliased_os_open_resolved_and_flagged(self, lint):
        result = lint(
            "repro/store/bad.py",
            """
            import os as system

            def claim(path):
                return system.open(path, 0)
            """,
        )
        assert codes(result) == ["REP013"]

    def test_path_write_text_flagged(self, lint):
        result = lint(
            "repro/store/bad.py",
            """
            def stamp(path):
                path.write_text("{}", encoding="utf-8")
            """,
        )
        assert codes(result) == ["REP013"]
        assert "write_text" in result.new[0].message

    def test_unlink_and_rename_flagged(self, lint):
        result = lint(
            "repro/store/bad.py",
            """
            def rotate(old, new):
                new.unlink()
                old.rename(new)
            """,
        )
        assert codes(result) == ["REP013", "REP013"]

    def test_journal_home_is_exempt(self, lint):
        result = lint(
            "repro/store/journal.py",
            """
            import os

            def claim(path):
                return os.open(path, os.O_CREAT | os.O_EXCL)

            def persist(path, text):
                path.write_text(text, encoding="utf-8")
            """,
        )
        assert codes(result) == []

    def test_non_store_modules_unaffected(self, lint):
        result = lint(
            "repro/obs/ok.py",
            """
            def archive(path, text):
                path.write_text(text, encoding="utf-8")
                with open(path, encoding="utf-8") as handle:
                    return handle.read()
            """,
        )
        assert codes(result) == []

    def test_non_file_calls_in_store_not_flagged(self, lint):
        result = lint(
            "repro/store/ok.py",
            """
            def tidy(record):
                return {k: v for k, v in sorted(record.items())}
            """,
        )
        assert codes(result) == []


class TestREP014FarmTransportOnly:
    def test_direct_popen_in_farm_module_flagged(self, lint):
        result = lint(
            "repro/farm/bad.py",
            """
            import subprocess

            def launch(cmd):
                return subprocess.Popen(cmd, stdin=subprocess.PIPE)
            """,
        )
        assert codes(result) == ["REP014"]
        assert "subprocess.Popen()" in result.new[0].message

    def test_aliased_subprocess_run_resolved_and_flagged(self, lint):
        result = lint(
            "repro/farm/bad.py",
            """
            import subprocess as sp

            def shell(cmd):
                return sp.run(cmd, capture_output=True)
            """,
        )
        assert codes(result) == ["REP014"]

    def test_multiprocessing_pool_flagged(self, lint):
        result = lint(
            "repro/farm/bad.py",
            """
            import multiprocessing

            def fleet(n):
                return multiprocessing.Pool(processes=n)
            """,
        )
        assert codes(result) == ["REP014"]

    def test_direct_open_and_select_flagged(self, lint):
        result = lint(
            "repro/farm/bad.py",
            """
            import select

            def wait(path, streams):
                with open(path, "rb") as handle:
                    handle.read()
                return select.select(streams, [], [])
            """,
        )
        assert codes(result) == ["REP014", "REP014"]

    def test_path_write_text_flagged(self, lint):
        result = lint(
            "repro/farm/bad.py",
            """
            def stamp(path):
                path.write_text("{}", encoding="utf-8")
            """,
        )
        assert codes(result) == ["REP014"]
        assert "write_text" in result.new[0].message

    def test_transport_home_is_exempt(self, lint):
        result = lint(
            "repro/farm/transport.py",
            """
            import select
            import subprocess

            def spawn(cmd):
                return subprocess.Popen(cmd, bufsize=0)

            def wait(streams):
                return select.select(streams, [], [])
            """,
        )
        assert codes(result) == []

    def test_non_farm_modules_unaffected(self, lint):
        result = lint(
            "repro/obs/ok.py",
            """
            import subprocess

            def sha():
                return subprocess.run(["git", "rev-parse", "HEAD"])
            """,
        )
        assert codes(result) == []

    def test_frame_and_scheduler_logic_not_flagged(self, lint):
        result = lint(
            "repro/farm/ok.py",
            """
            import json

            def encode(frame):
                return (json.dumps(frame, sort_keys=True) + "\\n").encode()

            def deal(specs, shards):
                dealt = [[] for _ in range(shards)]
                for index, spec in enumerate(specs):
                    dealt[index % shards].append(spec)
                return dealt
            """,
        )
        assert codes(result) == []
