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
    # -- defects the lint rules were written against ---------------------
    Row(
        "hotspot-draws-from-global-random",
        "src/repro/traffic/hotspot.py",
        "        hot = (\n            rng.random() < self.hotspot_fraction\n",
        "        import random\n\n"
        "        hot = (\n            random.random() < self.hotspot_fraction\n",
        "REP001 docstring: every random draw is derived from the config seed",
    ),
    Row(
        "multicast-destinations-from-global-random",
        "src/repro/traffic/multicast.py",
        "    return DestinationSet.from_ids(universe, rng.sample(others, degree))\n",
        "    import random\n\n"
        "    return DestinationSet.from_ids(universe, random.sample(others, degree))\n",
        "REP001 docstring: every random draw is derived from the config seed",
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
        "REP002 docstring: simulation results are a pure function of "
        "config and seed, never of host timing",
    ),
    Row(
        "workload-seeded-from-the-clock",
        "src/repro/traffic/multicast.py",
        '        rng = network.sim.rng.stream("workload.multiple_multicast")\n',
        "        import random\n        import time\n\n"
        "        rng = random.Random(time.time_ns())\n",
        "REP002 docstring: no wall-clock read leaks host timing into results",
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
        "REP003 docstring: kernel paths never iterate in hash order",
    ),
    Row(
        "software-multicast-tree-in-set-order",
        "src/repro/host/software_multicast.py",
        "    _fold([source] + sorted(destinations), children)\n",
        "    _fold([source] + list(set(destinations)), children)\n",
        "REP003 docstring: replication order never follows hash order",
    ),
    Row(
        "summary-spec-built-from-a-lambda",
        "src/repro/experiments/common.py",
        "        fn=simulate_summary,\n",
        "        fn=lambda **kwargs: simulate_summary(**kwargs),\n",
        "REP004 docstring: everything submitted to the worker pool pickles",
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
        "REP004 docstring: everything submitted to the worker pool pickles",
    ),
    Row(
        "store-appends-to-the-first-segment",
        "src/repro/store/backend.py",
        "        writer.write(stamped.to_record())\n",
        "        first = journal.list_segments(self.directory)[0]\n"
        '        with open(first, "a", encoding="utf-8") as handle:\n'
        "            handle.write(journal.record_line(stamped.to_record()))\n",
        "REP013 docstring: a writer appends only to the segment it "
        "claimed, so no torn tail is ever appended to",
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
        "REP013 docstring: gc rewrites before it removes, so a crash "
        "mid-gc loses nothing",
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
        "REP014 docstring: fleet pipes are unbuffered, so select is truthful",
    ),
    Row(
        "local-backend-builds-its-own-pool",
        "src/repro/farm/backends.py",
        "        self._pool = transport.create_pool(workers)\n",
        "        import multiprocessing\n\n"
        "        self._pool = multiprocessing.Pool(workers)\n",
        "REP014 docstring: a SIGKILLed pool worker fails the campaign "
        "instead of hanging it",
    ),
)
