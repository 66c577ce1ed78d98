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
    # -- the dated release of a tail carried by a run (docs/performance.md,
    # "The span contract on links") ---------------------------------------
    Row(
        "tail-release-settled-at-its-own-cycle",
        "src/repro/switches/base.py",
        "            dated.releases and dated.releases[0][0] < now\n"
        "            or dated.tails and dated.tails[0][0] < now\n"
        "            or dated.takes and dated.takes[0][0] < now\n"
        "        ):\n"
        "            dated.settle(now, self.pool, self._tail_left)\n",
        "            dated.releases and dated.releases[0][0] <= now\n"
        "            or dated.tails and dated.tails[0][0] <= now\n"
        "            or dated.takes and dated.takes[0][0] <= now\n"
        "        ):\n"
        "            dated.settle(now + 1, self.pool, self._tail_left)\n",
        "a tail's departure frees its output and pops its FIFO for the "
        "decisions of the next cycle, not its own (SwitchBase.tick, "
        "DatedEffects.settle)",
    ),
    Row(
        "tail-release-wakes-nobody",
        "src/repro/switches/base.py",
        "                if best is None or date + 1 < best:\n"
        "                    best = date + 1\n",
        "                pass\n",
        "a branch queued for the output a dated release frees, or a worm "
        "behind the one it pops, acts the cycle after (SwitchBase."
        "_blocked_wake)",
    ),
    Row(
        "last-chunk-freed-at-the-commit-cycle",
        "src/repro/switches/chunks.py",
        "        if date > now:\n"
        "            self.pool.dated.add(date, RELEASE, self.charge, 1)\n",
        "        if date > now and read < self.total_flits:\n"
        "            self.pool.dated.add(date, RELEASE, self.charge, 1)\n",
        "DESIGN.md §7: a chunk is freed when the last branch has read it, "
        "the last chunk at its tail's cycle (StoredPacket.crossed)",
    ),
    # -- the drain: a receiver that takes each flit of a worm as it lands
    # dates the credit returns of its later flits (the Link docstring) --
    Row(
        "drain-lag-without-credit-latency",
        "src/repro/switches/link.py",
        "            if window >= lag + self.credit_latency:\n",
        "            if window >= lag:\n",
        "a span toward a drain is uncapped only once the window covers the "
        "lag of its own members' returns, credit latency included "
        "(Link.sendable_span)",
    ),
    Row(
        "drain-declared-by-a-unicast-writer",
        "src/repro/switches/central_buffer.py",
        "                    and (stored.reserve_all or stored.cover())\n",
        "                    and (stored.reserve_all or stored.cover() or True)\n",
        "only a writer no chunk take can stop is a drain: a unicast writer "
        "its input's quota does not cover can be refused a chunk "
        "(CentralBufferSwitch._write_central_buffer)",
    ),
    Row(
        "prepaid-slots-returned-again-by-the-writer",
        "src/repro/switches/central_buffer.py",
        "                    if link is not None and owed > 0:\n"
        "                        link.return_credit_ramp(now, min(run, owed))\n",
        "                    if link is not None:\n"
        "                        link.return_credit_ramp(now, run)\n",
        "credit conservation: a FIFO slot whose return the in-link dated is "
        "not returned by the writer as well (_Ingress.prepaid)",
    ),
    Row(
        "drain-kept-past-its-tail",
        "src/repro/switches/link.py",
        "        if start + count == worm.size_flits:\n"
        "            self._drain = None\n",
        "        if start + count > worm.size_flits:\n"
        "            self._drain = None\n",
        "the tail's send ends the drain: the next worm on the link gets "
        "the finite window, and no link holds a worm past its run "
        "(Link._prepay)",
    ),
    # -- the dated take: a covered unicast's write run opens its chunks
    # on the pool's timeline (the chunks.py docstring, "The timeline") --
    Row(
        "dated-take-after-a-release-of-its-date",
        "src/repro/switches/base.py",
        "            _give_back(releases, date, pool)  # a take leads its date\n",
        "            _give_back(releases, date + 1, pool)\n",
        "a switch writes before it reads within a cycle: a chunk take dated "
        "d is applied before a release dated d (DatedEffects.settle)",
    ),
    Row(
        "covered-run-through-a-held-take-date",
        "src/repro/switches/chunks.py",
        "            if now + ahead in held:\n"
        "                return ahead\n",
        "            pass\n",
        "one dated take per cycle per pool: two inputs' takes of one cycle "
        "are ordered by the write arbiter, not by the queue "
        "(StoredPacket.write_space)",
    ),
    Row(
        "dated-take-queues-the-packet",
        "src/repro/switches/chunks.py",
        "            self.pool.dated.add(date, TAKE, self.charge, 1)\n",
        "            self.pool.dated.add(date, TAKE, self.charge, self)\n",
        "a dated take holds the packet's charge, which points at nothing: "
        "the packet, which points at the pool, would be a reference cycle "
        "while the take waits (StoredPacket.write_run)",
    ),
    # -- a unicast hop: the head's wake is dated at its routing cycle and
    # a one-host header decodes by mask ---------------------------------
    Row(
        "head-wake-one-cycle-late",
        "src/repro/switches/link.py",
        "                routed = landing + header - 1 + comp._route_lead\n",
        "                routed = landing + header + comp._route_lead\n",
        "a head record that lands in a clear input wakes its switch on the "
        "cycle it can be routed, not after (Link._head_wake)",
    ),
    Row(
        "unicast-decode-ignores-descending",
        "src/repro/routing/table.py",
        "            elif not worm.descending and self.up_ports:\n",
        "            elif self.up_ports:\n",
        "a descending worm never turns up again: the mask decode of a "
        "one-host header raises for a host outside the subtree, as the "
        "general decode does (SwitchRoutingTable._decode)",
    ),
    # -- an arrival wakes its switch only when the switch can act on it -
    Row(
        "body-wake-skipped-past-run-end",
        "src/repro/switches/link.py",
        "                    arrival = self._head_wake(comp, worm, count, arrival)\n"
        "            elif worm is self._held and arrival <= self._held_through:\n",
        "                    arrival = self._head_wake(comp, worm, count, arrival)\n"
        "            elif worm is self._held and arrival <= self._held_through + 1:\n",
        "a body record of a held worm wakes its switch unless it lands "
        "inside the mover's committed run, by its last cycle (Link.hold)",
    ),
    Row(
        "head-behind-wakes-at-the-release-cycle",
        "src/repro/switches/base.py",
        "        return landing if leaves < landing else leaves + 1\n",
        "        return landing if leaves < landing else leaves\n",
        "a head landing behind a worm dated to leave is the input's front "
        "from the tick that settles the release, the cycle after it "
        "(SwitchBase._clear_by)",
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
        "        else:\n"
        "            due.sort()\n"
        "            last = -1\n"
        "            for index in due:\n"
        "                if index == last:\n"
        "                    continue  # at most one tick per component per cycle\n"
        "                last = index\n"
        "                components[index].tick(now)\n",
        "        else:\n"
        "            for component in {components[index] for index in due}:\n"
        "                component.tick(now)\n",
        DETERMINISM,
    ),
    Row(
        "dense-kernel-ticks-only-due-components",
        "src/repro/sim/kernel.py",
        "        if self.dense:\n"
        "            for component in components:\n"
        "                component.tick(now)\n",
        "        if self.dense:\n"
        "            for index in sorted(set(due)):\n"
        "                components[index].tick(now)\n",
        "docs/performance.md, \"The wake contract\": the dense reference "
        "kernel ticks every component every cycle, woken or not",
    ),
    Row(
        "stall-trips-one-cycle-late",
        "src/repro/sim/kernel.py",
        "            trip = stall_limit - stalled\n",
        "            trip = stall_limit - stalled + 1\n",
        "docs/performance.md, \"Fast-forward and stall parity\": a "
        "fast-forward trips the stall detector at the dense kernel's cycle",
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
        "bimodal-coin-drawn-from-the-clock",
        "src/repro/traffic/bimodal.py",
        "        if rng.random() < self.multicast_fraction:\n",
        "        import time\n\n"
        "        if time.perf_counter_ns() % 1000 < (\n"
        "            1000 * self.multicast_fraction\n"
        "        ):\n",
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
        "        writer.write(line)\n"
        "        self._index[entry.key] = line\n",
        "        first = journal.list_segments(self.directory)[0]\n"
        '        with open(first, "a", encoding="utf-8") as handle:\n'
        "            handle.write(line)\n"
        "        self._index[entry.key] = line\n",
        "store/journal.py docstring: a writer session appends only to the "
        "segment it claimed, so no torn tail is ever appended to",
    ),
    Row(
        "store-indexes-before-it-writes",
        "src/repro/store/backend.py",
        "        writer.write(line)\n"
        "        self._index[entry.key] = line\n",
        "        self._index[entry.key] = line\n"
        "        writer.write(line)\n",
        "JournalStore.put docstring: the index takes a line only once its "
        "write has returned, so a failed append (a full disk) fails closed",
    ),
    Row(
        "journal-keeps-a-partly-written-line",
        "src/repro/store/journal.py",
        "            self._file.truncate(self._end)\n",
        "            pass\n",
        "store/journal.py docstring: a write that fails part-way is cut "
        "back off the file, so a failed line never reaches the journal",
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
