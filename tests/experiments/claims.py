"""The paper's claims, one per experiment, checked on the golden rows.

The paper's evaluation is a set of qualitative claims: who wins, and how
the gaps trend with degree, length, load and size.  :data:`CLAIMS` maps
each experiment id to a function over that experiment's rows (a list of
row dicts) that asserts the claim's *shape*, not absolute numbers — the
substrate is a simulator with reconstructed parameters, not the authors'
testbed.  ``test_golden.py`` runs every claim on the quick-scale rows it
has just computed, before it compares them with the snapshot and before
``--regenerate-golden`` writes them, so the rows EXPERIMENTS.md quotes
are the rows the claims check, and no snapshot can be written that
breaks one.

A claim takes its points from the rows (the top load is the highest load
there) and reads them only through :func:`one`, :func:`points` and
:func:`series`, which raise :class:`LookupError` on a missing or an
ambiguous point: a claim cannot pass on rows that are not there.
"""

from __future__ import annotations

from typing import Callable, Dict, List

Rows = List[Dict[str, object]]


def one(rows: Rows, **where: object) -> Dict[str, object]:
    """The one row whose columns equal every ``where`` value."""
    found = [
        row for row in rows
        if all(column in row and row[column] == value
               for column, value in where.items())
    ]
    if len(found) != 1:
        raise LookupError(
            f"{len(found)} rows match {where}; a claim reads exactly one"
        )
    return found[0]


def points(rows: Rows, column: str) -> list:
    """The sorted distinct values of ``column``; raises when no row has
    one."""
    found = sorted({row[column] for row in rows if column in row})
    if not found:
        raise LookupError(f"no row has a {column!r} column")
    return found


def series(rows: Rows, x: str, y: str, **where: object) -> list:
    """``y`` at every point of ``x`` in the rows, ascending: one row
    matching ``where`` per point, so series over one grid line up."""
    return [one(rows, **where, **{x: at})[y] for at in points(rows, x)]


def a1(rows: Rows) -> None:
    """Ref [33]: a full-bandwidth buffer (flit-wide RAMs, register
    pipelines) does as well as a chunk-wide crossbar; throttling it well
    below one flit per port degrades multicast latency."""
    latency = series(rows, "bandwidth", "latency")
    # starving the buffer (1 flit/cycle for the whole switch) clearly hurts
    assert latency[0] > 1.5 * latency[-1]
    # full bandwidth is no worse than half: the extra ports stop mattering
    assert latency[-1] <= latency[-2] * 1.10
    # monotone non-increasing as bandwidth grows (small noise allowed)
    assert all(b <= a * 1.10 for a, b in zip(latency, latency[1:]))


def a2(rows: Rows) -> None:
    """Turnaround and branch-on-up LCA routing (paper §3) agree at zero
    load: last arrival is set by the deepest branch, routed alike."""
    turnaround = series(rows, "degree", "latency", mode="turnaround")
    branchy = series(rows, "degree", "latency", mode="branch_on_up")
    for degree, t, b in zip(points(rows, "degree"), turnaround, branchy):
        assert t > 0 and b > 0
        assert abs(t - b) <= 0.10 * t, f"d={degree}: modes diverged ({t} vs {b})"


def a3(rows: Rows) -> None:
    """Paper §3's encoding trade-off: bit-string headers grow with N but
    cover any set in one phase; multiport headers stay tiny but split a
    random set into several serialized product-set phases."""
    sizes = points(rows, "num_hosts")
    for n in sizes:
        row = one(rows, num_hosts=n)
        if n >= 64:
            assert row["header_multiport"] < row["header_bitstring"], (
                f"N={n}: multiport header should be smaller"
            )
        assert row["latency_bitstring"] <= row["latency_multiport"], (
            f"N={n}: single-phase bit-string should not lose"
        )
    big = one(rows, num_hosts=sizes[-1])
    assert big["header_bitstring"] >= 4 * big["header_multiport"]


def a4(rows: Rows) -> None:
    """Paper §3 rejects synchronous replication: under contention the
    asynchronous discipline wins, by more as concurrency grows."""
    concurrency = points(rows, "m")
    asynchronous = series(rows, "m", "latency", replication="asynchronous")
    synchronous = series(rows, "m", "latency", replication="synchronous")
    for m, a, s in zip(concurrency, asynchronous, synchronous):
        assert a <= s * 1.03, f"m={m}: async ({a}) should not lose to sync ({s})"
    assert synchronous[-1] > 1.08 * asynchronous[-1], (
        f"lock-step coupling should cost >8% at m={concurrency[-1]}: "
        f"{synchronous[-1]} vs {asynchronous[-1]}"
    )


def a5(rows: Rows) -> None:
    """Refs [36, 37]: dynamic sharing beats static partitioning, so an
    input-buffer switch given the central buffer's storage still loses,
    by about as much as the minimal one (head-of-line blocking).  Holds
    at the top load only: at light load the three are close."""
    top = points(rows, "load")[-1]
    cb = one(rows, load=top, variant="cb-2048-shared")["latency"]
    ib_min = one(rows, load=top, variant="ib-minimal")["latency"]
    ib_big = one(rows, load=top, variant="ib-2048-split")["latency"]
    assert abs(ib_big - ib_min) < 0.15 * ib_min, (
        f"static storage should not matter: {ib_min} vs {ib_big}"
    )
    assert cb < 0.85 * ib_big, f"CB ({cb}) must beat equal-storage IB ({ib_big})"


def e1(rows: Rows) -> None:
    """CB-HW is lowest throughout; IB-HW degrades faster with
    concurrency; SW is several times slower at every point."""
    cb = series(rows, "m", "latency", scheme="cb-hw")
    ib = series(rows, "m", "latency", scheme="ib-hw")
    sw = series(rows, "m", "latency", scheme="sw")
    for m, c, i, s in zip(points(rows, "m"), cb, ib, sw):
        assert s > 1.5 * c, f"m={m}: SW ({s}) should dominate CB ({c})"
        # small tolerance for arbitration noise at low concurrency
        assert c <= i * 1.10, f"m={m}: CB ({c}) should not lose to IB ({i})"
    # contention grows latency with concurrency, and the IB handicap
    # is visible at the highest
    assert cb[-1] > cb[0]
    assert ib[-1] >= cb[-1]


def e2(rows: Rows) -> None:
    """Hardware multicast is nearly flat in the degree; software grows
    with ceil(log2(d+1)) phases, a multi-x gap at broadcast degree."""
    cb = series(rows, "degree", "latency", scheme="cb-hw")
    sw = series(rows, "degree", "latency", scheme="sw")
    assert max(cb) <= 1.5 * min(cb), f"CB-HW should be flat, got {cb}"
    assert sw == sorted(sw), f"SW should grow with degree, got {sw}"
    assert sw[-1] > 3 * sw[0]
    assert sw[-1] > 3 * cb[-1], (
        f"SW at d={points(rows, 'degree')[-1]} ({sw[-1]}) should be "
        f"several times CB ({cb[-1]})"
    )


def e3(rows: Rows) -> None:
    """Both schemes grow linearly with payload, but every binomial phase
    re-serializes the message, so the absolute gap widens with length."""
    cb = series(rows, "length", "latency", scheme="cb-hw")
    sw = series(rows, "length", "latency", scheme="sw")
    assert cb == sorted(cb)
    assert sw == sorted(sw)
    assert all(s > c for c, s in zip(cb, sw))
    gaps = [s - c for c, s in zip(cb, sw)]
    assert gaps[-1] > 2 * gaps[0], f"gap should widen with length: {gaps}"


def e4(rows: Rows) -> None:
    """The abstract's "affects background unicast traffic less
    adversely": at matched load software multicast has much worse
    operation latency and, at the top load, hurts background unicast
    more (its extra unicasts and start-ups congest the network)."""
    loads = points(rows, "load")
    hw_op = series(rows, "load", "op_latency", scheme="cb-hw")
    sw_op = series(rows, "load", "op_latency", scheme="sw")
    for load, h, s in zip(loads, hw_op, sw_op):
        assert s > 1.5 * h, f"load={load}: SW ops ({s}) should dominate HW ({h})"
    hw_uni = one(rows, load=loads[-1], scheme="cb-hw")["unicast_latency"]
    sw_uni = one(rows, load=loads[-1], scheme="sw")["unicast_latency"]
    assert sw_uni > hw_uni, (
        f"background unicast at load {loads[-1]} should be worse under SW "
        f"({sw_uni}) than HW ({hw_uni})"
    )


def e5(rows: Rows) -> None:
    """Hardware broadcast grows only with tree depth; software pays
    log2(N) serialized phases, so the gap widens with system size."""
    broadcast = dict(workload="broadcast")
    cb = series(rows, "num_hosts", "latency", scheme="cb-hw", **broadcast)
    sw = series(rows, "num_hosts", "latency", scheme="sw", **broadcast)
    for n, c, s in zip(points(rows, "num_hosts"), cb, sw):
        assert s > 2.5 * c, f"N={n}: SW ({s}) vs CB ({c})"
    assert cb == sorted(cb)
    assert sw == sorted(sw)
    assert sw[-1] - sw[0] > 2 * (cb[-1] - cb[0])
    # smallest to largest costs hardware under 2.5x: tree depth plus the
    # O(N) bit-string header
    assert cb[-1] < 2.5 * cb[0]


def e6(rows: Rows) -> None:
    """Refs [36, 37]: both organisations match at low load; head-of-line
    blocking makes the input-buffer switch blow up earlier."""
    cb = series(rows, "load", "latency", scheme="cb-hw")
    ib = series(rows, "load", "latency", scheme="ib-hw")
    assert cb == sorted(cb)
    assert ib == sorted(ib)
    assert abs(cb[0] - ib[0]) < 0.15 * cb[0]
    assert ib[-1] > 1.25 * cb[-1], (
        f"IB ({ib[-1]}) should clearly trail CB ({cb[-1]}) at high load"
    )


def e7(rows: Rows) -> None:
    """The simulator lands exactly on the closed-form zero-load latency,
    and the table covers the methodology."""
    simulated = one(rows, parameter="zero_load_simulated")["value"]
    model = one(rows, parameter="zero_load_model")["value"]
    assert simulated == model, (
        f"zero-load simulator ({simulated}) must match the analytic model "
        f"({model})"
    )
    for expected in (
        "hosts (N)",
        "central buffer [flits]",
        "per-input quota [chunks]",
        "software send overhead [cycles]",
    ):
        one(rows, parameter=expected)


def x1(rows: Rows) -> None:
    """Ref [34]: releasing a barrier with one multidestination worm
    beats a software broadcast release in latency and release skew at
    every system size, and the latency gap does not close."""
    sizes = points(rows, "num_hosts")
    hw = [one(rows, num_hosts=n, release="hardware_multicast") for n in sizes]
    sw = [one(rows, num_hosts=n, release="software_broadcast") for n in sizes]
    for n, h, s in zip(sizes, hw, sw):
        assert h["latency"] < s["latency"], f"N={n}"
        assert h["skew"] < s["skew"], f"N={n}"
    hw_latency = [row["latency"] for row in hw]
    sw_latency = [row["latency"] for row in sw]
    assert hw_latency == sorted(hw_latency)
    assert sw_latency == sorted(sw_latency)
    assert sw_latency[-1] - hw_latency[-1] >= sw_latency[0] - hw_latency[0]


def x2(rows: Rows) -> None:
    """Tree saturation around a hot destination punishes statically
    partitioned input buffers far more than the shared central buffer;
    without a hot spot the two are close."""
    cb = series(rows, "fraction", "latency", scheme="cb-hw")
    ib = series(rows, "fraction", "latency", scheme="ib-hw")
    assert cb[-1] > cb[0]
    assert ib[-1] > ib[0]
    assert ib[-1] > 1.4 * cb[-1], (
        f"hot-spot should hurt IB ({ib[-1]}) much more than CB ({cb[-1]})"
    )
    assert ib[0] < 1.25 * cb[0]


def x3(rows: Rows) -> None:
    """The buffer-sharing argument's premise: buffers do real work at
    every level, most at the leaves (which carry both directions of
    every worm), and hardware multicast's extra occupancy — worms
    always transit the central buffer — stays modest."""
    assert points(rows, "level") == [0, 1, 2]
    hw = series(rows, "level", "occupancy", scheme="cb-hw")
    sw = series(rows, "level", "occupancy", scheme="sw")
    assert hw[0] > hw[-1]
    assert sw[0] > sw[-1]
    # far below capacity (256 chunks): sharing headroom
    assert all(value < 64 for value in hw)
    assert all(h < 3 * max(s, 0.5) for h, s in zip(hw, sw))


def x4(rows: Rows) -> None:
    """The schemes apply to every category of switch-based system
    (BMIN, UMIN, irregular NOW): flat HW latency, growing SW latency and
    a clear gap on each family."""
    for topology in points(rows, "topology"):
        hw = series(rows, "degree", "latency", topology=topology, scheme="cb-hw")
        sw = series(rows, "degree", "latency", topology=topology, scheme="sw")
        assert max(hw) <= 1.3 * min(hw), f"{topology}: HW not flat: {hw}"
        assert sw[-1] > sw[0], f"{topology}: SW should grow: {sw}"
        for h, s in zip(hw, sw):
            assert s > 2 * h, f"{topology}: SW ({s}) vs HW ({h})"


#: experiment id -> its claim over that experiment's rows
CLAIMS: Dict[str, Callable[[Rows], None]] = {
    claim.__name__: claim
    for claim in (
        a1, a2, a3, a4, a5,
        e1, e2, e3, e4, e5, e6, e7,
        x1, x2, x3, x4,
    )
}
