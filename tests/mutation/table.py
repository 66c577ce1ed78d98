"""The kill matrix's table: named defects the repository's guards must catch.

A row is one realistic defect, written as an exact edit: ``anchor``
occurs exactly once in ``file`` and ``replacement`` takes its place.
``breaks`` names the guarantee the defect violates.  The runner
(``tests/mutation/run.py``) applies each row to a copy of the tree,
runs tier-1 on it and records which test kills it in
``tests/mutation/kill_matrix.json``; ``test_table.py`` keeps the rows
anchored in the current tree.  See docs/testing.md, "Kill matrix".
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Row(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    breaks: str


#: the guarantees most rows break
DETERMINISM = (
    "DESIGN.md §7 Determinism: identical seeds give identical event "
    "streams and statistics"
)
PICKLES = (
    "RunSpec docstring: fn must be a module-level function (so it "
    "pickles by reference)"
)

ROWS: Tuple[Row, ...] = (
    # -- defects earlier changes ran by hand (CHANGES.md) ---------------
    Row(
        "rng-stream-salted-with-global-draw",
        "src/repro/sim/rng.py",
        "            rng = random.Random(self._derive(name))\n",
        "            rng = random.Random(self._derive(name) + random.getrandbits(1))\n",
        "DESIGN.md §7 determinism: identical seeds give identical event "
        "streams (CHANGES.md PR 30, M1)",
    ),
    Row(
        "sampler-values-read-the-wall-clock",
        "src/repro/obs/sampler.py",
        "        values = self.registry.sample_gauges(self.gauge_names)\n",
        "        import time\n\n"
        "        values = self.registry.sample_gauges(self.gauge_names)\n"
        "        values = {name: time.perf_counter() for name in values}\n",
        "sampled gauges are a function of the simulated run "
        "(CHANGES.md PR 30, M2)",
    ),
    Row(
        "flit-in-event-undercounts-its-span",
        "src/repro/switches/base.py",
        "port=port, flit=flit_repr(worm, start), count=count,\n",
        "port=port, flit=flit_repr(worm, start), count=max(1, count - 1),\n",
        "production telemetry equals the per-flit reference "
        "(CHANGES.md PR 31, M-A)",
    ),
    Row(
        "reference-flit-in-stamped-late",
        "src/repro/reference.py",
        '                now, self.name, "flit_in", port=port, flit=repr(flit)\n',
        '                now + 1, self.name, "flit_in", port=port, flit=repr(flit)\n',
        "the reference emits each flit_in at its landing cycle "
        "(CHANGES.md PR 31, M-R)",
    ),
    Row(
        "cb-fifo-occupancy-one-short-on-bypass",
        "src/repro/switches/central_buffer.py",
        "                occupancy += max(0, link._last_send_cycle - now)\n",
        "                occupancy += max(0, link._last_send_cycle - now - 1)\n",
        "DESIGN.md §7: a member not yet landed is still on the wire for "
        "occupancy (CHANGES.md PR 31, MT3)",
    ),
    Row(
        "bypass-keeps-route-pending-bit",
        "src/repro/switches/central_buffer.py",
        "            ingress.state = _IngressState.STREAM_BYPASS\n"
        "            self._route_pending &= ~(1 << port)\n",
        "            ingress.state = _IngressState.STREAM_BYPASS\n",
        "activity masks mirror switch state (CHANGES.md PR 31, MM)",
    ),
    Row(
        "committed-run-looks-one-flit-too-far",
        "src/repro/switches/base.py",
        "            and head[0] - now <= on_hand\n",
        "            and head[0] - now <= on_hand + 1\n",
        "DESIGN.md §7: no flit is consumed before the cycle it lands "
        "(CHANGES.md PR 31, first survivor)",
    ),
    # -- determinism (DESIGN.md §7) and picklability (RunSpec) ----------
    Row(
        "hotspot-draws-from-global-random",
        "src/repro/traffic/hotspot.py",
        "        hot = (\n            rng.random() < self.hotspot_fraction\n",
        "        import random\n\n"
        "        hot = (\n            random.random() < self.hotspot_fraction\n",
        DETERMINISM,
    ),
    Row(
        "multicast-destinations-from-global-random",
        "src/repro/traffic/multicast.py",
        "    return DestinationSet.from_ids(universe, rng.sample(others, degree))\n",
        "    import random\n\n"
        "    return DestinationSet.from_ids(universe, random.sample(others, degree))\n",
        DETERMINISM,
    ),
    Row(
        "run-until-gives-up-on-a-wall-clock-budget",
        "src/repro/sim/kernel.py",
        "        stalled = 0\n"
        "        while not predicate():\n"
        "            if executed >= max_cycles:\n",
        "        stalled = 0\n"
        "        import time\n\n"
        "        deadline = time.monotonic() + 30.0\n"
        "        while not predicate():\n"
        "            if executed >= max_cycles or time.monotonic() > deadline:\n",
        DETERMINISM,
    ),
    Row(
        "workload-seeded-from-the-clock",
        "src/repro/traffic/multicast.py",
        '        rng = network.sim.rng.stream("workload.multiple_multicast")\n',
        "        import random\n        import time\n\n"
        "        rng = random.Random(time.time_ns())\n",
        DETERMINISM,
    ),
    Row(
        "kernel-ticks-due-components-in-set-order",
        "src/repro/sim/kernel.py",
        "                else:\n"
        "                    due.sort()\n"
        "                    last = -1\n"
        "                    for index in due:\n"
        "                        if index == last:\n"
        "                            continue  # at most one tick per "
        "component per cycle\n"
        "                        last = index\n"
        "                        components[index].tick(now)\n",
        "                else:\n"
        "                    for component in {components[index] for index in due}:\n"
        "                        component.tick(now)\n",
        DETERMINISM,
    ),
    Row(
        "software-multicast-tree-in-set-order",
        "src/repro/host/software_multicast.py",
        "    _fold([source] + sorted(destinations), children)\n",
        "    _fold([source] + list(set(destinations)), children)\n",
        DETERMINISM,
    ),
    Row(
        "summary-spec-built-from-a-lambda",
        "src/repro/experiments/common.py",
        "        fn=simulate_summary,\n",
        "        fn=lambda **kwargs: simulate_summary(**kwargs),\n",
        PICKLES,
    ),
    Row(
        "calibration-spec-built-from-a-closure",
        "src/repro/experiments/parameters.py",
        "    specs = [\n"
        "        RunSpec(\n"
        '            key=("calibration",),\n'
        "            fn=_run_calibration,\n",
        "    def calibrate(**kwargs):\n"
        "        return _run_calibration(**kwargs)\n\n"
        "    specs = [\n"
        "        RunSpec(\n"
        '            key=("calibration",),\n'
        "            fn=calibrate,\n",
        PICKLES,
    ),
    Row(
        "up-port-choice-from-global-random",
        "src/repro/routing/base.py",
        "            return candidates[stream.randrange(len(candidates))]\n",
        "            import random\n\n"
        "            return candidates[random.randrange(len(candidates))]\n",
        DETERMINISM,
    ),
    Row(
        "reliable-loss-drawn-from-the-clock",
        "src/repro/collectives/reliable.py",
        "            if self._rng.random() < self.drop_probability:\n",
        "            import time\n\n"
        "            if time.perf_counter_ns() % 1000 < (\n"
        "                1000 * self.drop_probability\n"
        "            ):\n",
        DETERMINISM,
    ),
    Row(
        "arbiter-grants-in-set-order",
        "src/repro/switches/arbiter.py",
        "        for offset in range(self.num_requesters):\n"
        "            index = (self._next + offset) % self.num_requesters\n"
        "            if index in candidates:\n"
        "                self._next = (index + 1) % self.num_requesters\n"
        "                return index\n",
        "        for index in candidates:\n"
        "            self._next = (index + 1) % self.num_requesters\n"
        "            return index\n",
        DETERMINISM,
    ),
    Row(
        "demo-spec-built-from-a-lambda",
        "src/repro/__main__.py",
        "                fn=_run_demo_case,\n",
        "                fn=lambda **kwargs: _run_demo_case(**kwargs),\n",
        PICKLES,
    ),
    # -- store and farm crash safety --------------------------------------
    Row(
        "store-appends-to-the-first-segment",
        "src/repro/store/backend.py",
        "        writer.write(stamped.to_record())\n",
        "        first = journal.list_segments(self.directory)[0]\n"
        '        with open(first, "a", encoding="utf-8") as handle:\n'
        "            handle.write(journal.record_line(stamped.to_record()))\n",
        "store/journal.py docstring: a writer session appends only to the "
        "segment it claimed, so no torn tail is ever appended to",
    ),
    Row(
        "gc-removes-segments-before-rewriting",
        "src/repro/store/backend.py",
        "        self.close()\n"
        "        segment = journal.claim_segment(self.directory)\n",
        "        self.close()\n"
        "        for path in old_segments:\n"
        "            path.unlink()\n"
        "        old_segments = []\n"
        "        report.segments_removed = len(journal.list_segments(self.directory))\n"
        "        segment = journal.claim_segment(self.directory)\n",
        "store/journal.py docstring: gc rewrites before it removes, so a "
        "crash mid-gc loses nothing",
    ),
    Row(
        "fleet-worker-spawned-with-buffered-pipes",
        "src/repro/farm/backends.py",
        "            self._procs[index] = transport.spawn_worker(\n"
        "                self.label(index), extra_env=self._extra_env\n"
        "            )\n",
        "            import os\n"
        "            import subprocess\n\n"
        "            self._procs[index] = subprocess.Popen(\n"
        "                transport.worker_command(self.label(index)),\n"
        "                stdin=subprocess.PIPE,\n"
        "                stdout=subprocess.PIPE,\n"
        "                env=dict(os.environ, **(self._extra_env or {})),\n"
        "            )\n",
        "farm/transport.py docstring: fleet pipes are unbuffered, so "
        "select is truthful",
    ),
    Row(
        "local-backend-builds-its-own-pool",
        "src/repro/farm/backends.py",
        "        self._pool = transport.create_pool(workers)\n",
        "        import multiprocessing\n\n"
        "        self._pool = multiprocessing.Pool(workers)\n",
        "farm/transport.py docstring: a wait on a pool whose worker died "
        "raises WorkerLost instead of blocking forever",
    ),
)
