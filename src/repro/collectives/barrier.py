"""Tree collectives: barrier, all-reduce, gather and all-gather.

All four are one protocol over one binomial tree rooted at the lowest
participant (the software multicast's fold, :class:`BinomialTree`):

* **fold** — each participant waits for its own contribution and for
  one message from every child, folds those values together and sends
  the result to its parent in one CONTROL unicast.  A child's message
  stands for its whole subtree, so the root holds the total after
  ceil(log2(P)) serialized hops;
* **release** — the root tells everyone to proceed.  The release is
  where hardware multicast shines: one multidestination worm replaces a
  second log-depth software broadcast, cutting latency roughly in half
  and removing the intermediate hosts' forwarding overheads from the
  critical path (the direction of the authors' follow-up work,
  ref [34]).

The collectives differ only in what is folded and how long the legs are:

==========  =================  ========================  ==================
collective  fold               flits per up-leg          release
==========  =================  ========================  ==================
barrier     nothing            1                         1 flit
all-reduce  ``combine``        ``payload_flits``         ``payload_flits``
gather      ``+`` over blocks  ``blocks * block_flits``  none (ends at root)
all-gather  ``+`` over blocks  ``blocks * block_flits``  ``P * block_flits``
==========  =================  ========================  ==================

The folded value rides in the up-leg message's tag.  Latency is
measured from the first contribution to the last release (the
collective analogue of the paper's last-arrival metric), skew as the
spread of the release cycles.
"""

from __future__ import annotations

import enum
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.schemes import MulticastScheme
from repro.errors import ConfigurationError, ProtocolError
from repro.flits.destset import DestinationSet
from repro.flits.packet import Message, TrafficClass
from repro.host.node import HostNode
from repro.host.software_multicast import binomial_schedule


class ReleaseScheme(enum.Enum):
    """How the barrier release travels back to the participants."""

    #: one multidestination worm from the root
    HARDWARE_MULTICAST = "hardware_multicast"
    #: binomial software broadcast (unicast forwards)
    SOFTWARE_BROADCAST = "software_broadcast"

    @property
    def scheme(self) -> MulticastScheme:
        """The multicast scheme that carries this release."""
        if self is ReleaseScheme.HARDWARE_MULTICAST:
            return MulticastScheme.HARDWARE
        return MulticastScheme.SOFTWARE


class BinomialTree:
    """The binomial fold over a participant set, rooted at ``root``."""

    def __init__(self, root: int, participants: Sequence[int]) -> None:
        if len(participants) < 2:
            raise ConfigurationError("a collective needs at least 2 participants")
        if len(set(participants)) != len(participants):
            raise ConfigurationError("duplicate collective participants")
        if root not in participants:
            raise ConfigurationError("the collective's root must participate")
        self.root = root
        self.participants = sorted(participants)
        self.children: Dict[int, List[int]] = binomial_schedule(
            root, [h for h in self.participants if h != root]
        )
        self.parent: Dict[int, Optional[int]] = {root: None}
        for host, kids in self.children.items():
            for kid in kids:
                self.parent[kid] = host

    def subtree(self, host: int) -> List[int]:
        """Hosts in ``host``'s subtree (inclusive)."""
        out = [host]
        for kid in self.children.get(host, []):
            out.extend(self.subtree(kid))
        return out


class TreeCollective(BinomialTree):
    """One tree collective instance: its tree, fold and release."""

    def __init__(
        self,
        op_id: int,
        participants: Sequence[int],
        fold: Callable[[Any, Any], Any],
        leg_flits: Callable[[Any], int],
        release: Optional[MulticastScheme],
        release_flits: int,
        unit: Any = None,
    ) -> None:
        super().__init__(min(participants, default=None), participants)
        self.op_id = op_id
        self.fold = fold
        #: flits of the up-leg that carries a folded value
        self.leg_flits = leg_flits
        #: scheme of the root's release; None ends the operation at the root
        self.release = release
        self.release_flits = release_flits
        #: the value a contribution made without one stands for
        self.unit = unit
        self.contribute_cycles: Dict[int, int] = {}
        #: each host's running fold (own value and its children's subtrees)
        self.held: Dict[int, Any] = {}
        self.pending: Dict[int, int] = {
            host: len(self.children.get(host, [])) for host in self.participants
        }
        self.gathered_cycle: Optional[int] = None
        self.release_cycles: Dict[int, int] = {}
        self.completed_cycle: Optional[int] = None

    @property
    def result(self) -> Any:
        """The root's fold over every contribution, once gathered."""
        if self.gathered_cycle is None:
            return None
        return self.held[self.root]

    @property
    def complete(self) -> bool:
        """True when the operation (including any release) finished."""
        return self.completed_cycle is not None

    @property
    def last_latency(self) -> Optional[int]:
        """First contribution to completion (the collective's full span)."""
        if self.completed_cycle is None:
            return None
        return self.completed_cycle - min(self.contribute_cycles.values())

    @property
    def skew(self) -> Optional[int]:
        """Release spread: how unsimultaneously participants resume."""
        if self.completed_cycle is None or not self.release_cycles:
            return None
        return max(self.release_cycles.values()) - min(
            self.release_cycles.values()
        )


class TreeCollectiveEngine:
    """Drives tree collectives over a built network's host nodes."""

    UP = "tree_up"
    RELEASE = "tree_release"

    def __init__(self, nodes: Sequence[HostNode]) -> None:
        self.nodes = list(nodes)
        self._operations: Dict[int, TreeCollective] = {}
        for node in self.nodes:
            node.add_delivery_listener(self._on_delivery)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def barrier(
        self,
        participants: Sequence[int],
        release: ReleaseScheme = ReleaseScheme.HARDWARE_MULTICAST,
    ) -> TreeCollective:
        """Register a barrier (no messages yet)."""
        return self._create(
            participants, lambda a, b: None, lambda _: 1, release.scheme, 1
        )

    def allreduce(
        self,
        participants: Sequence[int],
        combine: Callable[[Any, Any], Any] = operator.add,
        payload_flits: int = 4,
        release: Optional[MulticastScheme] = MulticastScheme.HARDWARE,
    ) -> TreeCollective:
        """Register an all-reduce of ``payload_flits``-long vectors."""
        return self._create(
            participants, combine, lambda _: payload_flits, release,
            payload_flits,
        )

    def gather(
        self,
        participants: Sequence[int],
        block_flits: int = 8,
        release: Optional[MulticastScheme] = None,
    ) -> TreeCollective:
        """Register a gather of one block per participant; a ``release``
        scheme broadcasts the concatenation (all-gather)."""
        return self._create(
            participants, operator.add, lambda blocks: blocks * block_flits,
            release, len(participants) * block_flits, unit=1,
        )

    def contribute(
        self, operation: TreeCollective, host: int, value: Any = None
    ) -> None:
        """Participant ``host`` contributes now: enters the barrier,
        offers its value to reduce, or makes its block available."""
        if host not in operation.parent:
            raise ProtocolError(
                f"host {host} is not a participant of collective "
                f"{operation.op_id}"
            )
        if host in operation.contribute_cycles:
            raise ProtocolError(
                f"host {host} contributed twice to collective "
                f"{operation.op_id}"
            )
        operation.contribute_cycles[host] = self.nodes[host].sim.now
        self._fold(operation, host, operation.unit if value is None else value)

    # ------------------------------------------------------------------
    # protocol machinery
    # ------------------------------------------------------------------
    def _create(self, participants: Sequence[int], *args: Any,
                **kwargs: Any) -> TreeCollective:
        operation = TreeCollective(
            len(self._operations), participants, *args, **kwargs
        )
        self._operations[operation.op_id] = operation
        return operation

    def _fold(self, operation: TreeCollective, host: int, value: Any) -> None:
        """Fold one value (own contribution or a child's subtree) into the
        host's running value, and send it up once nothing is missing."""
        held = operation.held
        held[host] = operation.fold(held[host], value) if host in held else value
        if host not in operation.contribute_cycles or operation.pending[host]:
            return
        parent = operation.parent[host]
        node = self.nodes[host]
        if parent is None:
            self._release(operation, node)
            return
        node.post_message(
            destinations=DestinationSet.single(node.universe, parent),
            payload_flits=operation.leg_flits(held[host]),
            traffic_class=TrafficClass.CONTROL,
            tag=(self.UP, operation.op_id, held[host]),
        )

    def _release(self, operation: TreeCollective, root_node: HostNode) -> None:
        now = root_node.sim.now
        operation.gathered_cycle = now
        if operation.release is None:
            operation.completed_cycle = now
            return
        operation.release_cycles[operation.root] = now
        root_node.post_multicast(
            DestinationSet.from_ids(
                root_node.universe, operation.participants[1:]
            ),
            payload_flits=operation.release_flits,
            scheme=operation.release,
            tag=(self.RELEASE, operation.op_id, None),
        )

    def _on_delivery(self, node: HostNode, message: Message, now: int) -> None:
        tag = message.tag
        if not isinstance(tag, tuple) or len(tag) != 3:
            return
        kind, op_id, value = tag
        operation = self._operations.get(op_id)
        if operation is None:
            return
        host = node.host_id
        if kind == self.UP:
            operation.pending[host] -= 1
            self._fold(operation, host, value)
        elif kind == self.RELEASE:
            if host in operation.release_cycles:
                raise ProtocolError(
                    f"host {host} released twice in collective "
                    f"{operation.op_id}"
                )
            operation.release_cycles[host] = now
            if len(operation.release_cycles) == len(operation.participants):
                operation.completed_cycle = max(operation.release_cycles.values())
