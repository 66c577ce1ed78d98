"""Simulation configuration: every knob of the reproduced system.

Defaults model the paper's baseline: a 64-host bidirectional MIN of
8-port switches (arity 4), SP-Switch-like central buffers (4 KB in
16-byte chunks, with 2-byte flits: 2048 flits in 8-flit chunks),
bit-string header encoding, turnaround LCA routing, and software
start-up overheads of a few tens of cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.schemes import SwitchArchitecture
from repro.errors import ConfigurationError
from repro.flits.destset import DestinationSet
from repro.flits.encoding import (
    BitStringEncoding,
    HeaderEncoding,
    MultiportEncoding,
)
from repro.host.node import HostParams
from repro.routing.base import MulticastRoutingMode, UpPortPolicy
from repro.switches.base import ReplicationMode, SwitchSettings


class TopologyKind(enum.Enum):
    """Which network family to build."""

    BMIN = "bmin"
    UMIN = "umin"
    IRREGULAR = "irregular"


class EncodingKind(enum.Enum):
    """Which multidestination header encoding hosts use."""

    BITSTRING = "bitstring"
    MULTIPORT = "multiport"


@dataclass
class SimulationConfig:
    """Complete description of one simulated system."""

    # system shape
    num_hosts: int = 64
    arity: int = 4
    topology: TopologyKind = TopologyKind.BMIN
    switch_architecture: SwitchArchitecture = SwitchArchitecture.CENTRAL_BUFFER
    encoding: EncodingKind = EncodingKind.BITSTRING
    multicast_mode: MulticastRoutingMode = MulticastRoutingMode.TURNAROUND
    #: branch forwarding discipline; SYNCHRONOUS is the rejected
    #: alternative of paper §3 and is modelled on the IB switch only
    replication: ReplicationMode = ReplicationMode.ASYNCHRONOUS
    #: RANDOM models the multipath balancing of SP-style route tables and
    #: avoids the synchronized tie-breaking that ADAPTIVE suffers when
    #: many worms decide in the same cycle; DETERMINISTIC pins each flow
    #: to one path (useful for analytic cross-checks)
    up_port_policy: UpPortPolicy = UpPortPolicy.RANDOM

    # link layer
    link_latency: int = 1
    flit_payload_bits: int = 16

    # central-buffer switch
    input_fifo_depth: int = 8
    central_buffer_flits: int = 2048
    chunk_flits: int = 8
    cb_write_bandwidth: int = 8
    cb_read_bandwidth: int = 8

    # input-buffer switch (None: sized automatically to the max packet)
    input_buffer_flits: Optional[int] = None

    # switch pipeline
    routing_delay: int = 2

    # host adapter
    #: NI receive-FIFO depth; must cover the credit round trip of the
    #: ejection link (2*link_latency) to sustain full-rate reception
    ni_rx_depth: int = 4

    # host software model
    sw_send_overhead: int = 40
    sw_recv_overhead: int = 40
    max_packet_payload_flits: int = 128

    # irregular-topology shape (used when topology is IRREGULAR)
    irregular_switches: int = 8
    irregular_extra_links: int = 2
    topology_seed: int = 7

    # determinism and checking
    seed: int = 1
    self_check: bool = False
    #: run on the dense (tick-everything) kernel instead of the
    #: active-set kernel.  Results are bit-identical either way — this
    #: knob exists for differential testing and benchmarking, so it is
    #: deliberately excluded from :func:`describe` fingerprints
    dense_kernel: bool = False
    #: ``False`` builds the per-flit ``Flit``-object reference switches
    #: and NIs (:mod:`repro.reference`) instead of the production ones.
    #: Results are bit-identical either way — the reference exists for
    #: differential testing (``tests/sim/test_packed_differential.py``),
    #: so this too is excluded from :func:`describe` fingerprints
    packed: bool = True

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    def build_encoding(self) -> HeaderEncoding:
        """The header encoding object for this system size."""
        if self.encoding is EncodingKind.BITSTRING:
            return BitStringEncoding(
                num_hosts=self.num_hosts,
                flit_payload_bits=self.flit_payload_bits,
            )
        levels = self._bmin_levels()
        return MultiportEncoding(
            arity=self.arity,
            levels=levels,
            flit_payload_bits=self.flit_payload_bits,
        )

    def max_header_flits(self) -> int:
        """Worst-case header size (a broadcast worm's header)."""
        encoding = self.build_encoding()
        return encoding.header_flits(DestinationSet.full(self.num_hosts))

    def max_packet_flits(self) -> int:
        """Largest worm the system can carry (header + payload)."""
        return self.max_header_flits() + self.max_packet_payload_flits

    def effective_input_buffer_flits(self) -> int:
        """IB-switch buffer: explicit, or max packet plus pipeline slack."""
        if self.input_buffer_flits is not None:
            return self.input_buffer_flits
        return self.max_packet_flits() + 2 * self.link_latency

    def effective_input_fifo_depth(self) -> int:
        """CB-switch input FIFO, grown to hold a whole routing header.

        The switch decodes a worm only once its header has fully arrived
        in the input FIFO, so the FIFO must be at least one header deep —
        on large systems the bit-string header (N bits) exceeds small
        synchronisation FIFOs, and real hardware would size its header
        capture registers accordingly.
        """
        return max(self.input_fifo_depth, self.max_header_flits() + 2)

    def switch_settings(self) -> SwitchSettings:
        """Per-switch microarchitecture settings derived from this config."""
        return SwitchSettings(
            input_fifo_depth=self.effective_input_fifo_depth(),
            central_buffer_flits=self.central_buffer_flits,
            chunk_flits=self.chunk_flits,
            cb_write_bandwidth=self.cb_write_bandwidth,
            cb_read_bandwidth=self.cb_read_bandwidth,
            input_buffer_flits=self.effective_input_buffer_flits(),
            max_packet_flits=self.max_packet_flits(),
            routing_delay=self.routing_delay,
            multicast_mode=self.multicast_mode,
            replication=self.replication,
            up_port_policy=self.up_port_policy,
            self_check=self.self_check,
        )

    def host_params(self) -> HostParams:
        """Host software-model parameters derived from this config."""
        return HostParams(
            sw_send_overhead=self.sw_send_overhead,
            sw_recv_overhead=self.sw_recv_overhead,
            max_packet_payload_flits=self.max_packet_payload_flits,
        )

    def _bmin_levels(self) -> int:
        levels = 1
        size = self.arity
        while size < self.num_hosts:
            size *= self.arity
            levels += 1
        if size != self.num_hosts:
            raise ConfigurationError(
                f"num_hosts={self.num_hosts} is not a power of "
                f"arity={self.arity}"
            )
        return levels

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        if self.num_hosts < 2:
            raise ConfigurationError("need at least two hosts")
        if self.arity < 2:
            raise ConfigurationError("arity must be at least 2")
        if self.link_latency < 1:
            raise ConfigurationError("link_latency must be >= 1")
        if self.flit_payload_bits < 1:
            raise ConfigurationError("flit_payload_bits must be >= 1")
        if self.ni_rx_depth < 1:
            raise ConfigurationError("ni_rx_depth must be >= 1")
        self.switch_settings().validate()
        self.host_params().validate()
        if self.topology in (TopologyKind.BMIN, TopologyKind.UMIN):
            self._bmin_levels()
        elif self.num_hosts % self.irregular_switches:
            raise ConfigurationError(
                "num_hosts must divide evenly across irregular_switches"
            )
        if self.replication is ReplicationMode.SYNCHRONOUS and (
            self.switch_architecture is not SwitchArchitecture.INPUT_BUFFER
        ):
            raise ConfigurationError(
                "synchronous replication is modelled on the input-buffer "
                "switch; the central buffer's write-once/read-per-branch "
                "design is inherently asynchronous"
            )
        if self.topology is not TopologyKind.BMIN and (
            self.encoding is EncodingKind.MULTIPORT
        ):
            raise ConfigurationError(
                "multiport encoding is defined for MIN digit structure; "
                "use bitstring on irregular networks"
            )
        max_chunks = -(-self.max_packet_flits() // self.chunk_flits)
        ports_per_switch = 2 * self.arity
        if (
            max_chunks * ports_per_switch
            > self.central_buffer_flits // self.chunk_flits
        ):
            raise ConfigurationError(
                "central buffer cannot guarantee one maximum packet per "
                "input port; the multidestination deadlock-freedom rule "
                "would be violated (shrink max_packet_payload_flits or "
                "grow the buffer)"
            )
        if self.effective_input_buffer_flits() < self.max_packet_flits():
            raise ConfigurationError(
                "input buffer smaller than the largest packet violates the "
                "deadlock-freedom rule for asynchronous replication"
            )

    def derived(self, **changes) -> "SimulationConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)


def describe(config: SimulationConfig) -> str:
    """A one-line reproducibility fingerprint of a configuration.

    Includes every behaviour-affecting field, so two runs printing the
    same description (and the same package version) are replays of each
    other.
    """
    return (
        f"repro(N={config.num_hosts}, arity={config.arity}, "
        f"topo={config.topology.value}, "
        f"arch={config.switch_architecture.value}, "
        f"enc={config.encoding.value}, mode={config.multicast_mode.value}, "
        f"repl={config.replication.value}, up={config.up_port_policy.value}, "
        f"link={config.link_latency}, cb={config.central_buffer_flits}/"
        f"{config.chunk_flits}, bw={config.cb_write_bandwidth}/"
        f"{config.cb_read_bandwidth}, fifo={config.effective_input_fifo_depth()}, "
        f"ib={config.effective_input_buffer_flits()}, "
        f"rd={config.routing_delay}, pkt={config.max_packet_payload_flits}, "
        f"sw={config.sw_send_overhead}/{config.sw_recv_overhead}, "
        f"seed={config.seed})"
    )
