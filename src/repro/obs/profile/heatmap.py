"""ASCII link-utilisation heatmaps per switch output port.

Utilisation comes from each link's always-on sent-flit count
(:meth:`~repro.switches.link.Link.flits_sent_by`, the reader the
``link.utilisation`` gauge sums too) divided by the simulated cycle
count, so the heatmap is free — no instrumentation beyond what the data
plane already maintains.  Hot
ports show as dense glyphs; a saturated hotspot destination stands out
as a column of ``@`` against a field of dots.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.network.builder import Network
from repro.switches.link import Link

#: glyph ramp from idle to saturated (indexing by utilisation decile)
SHADES = " .:-=+*#%@"


def _shade(utilisation: float) -> str:
    index = int(min(max(utilisation, 0.0), 1.0) * (len(SHADES) - 1))
    return SHADES[index]


def link_heatmap(network: Network, cycles: int) -> Dict[str, Any]:
    """Per-port utilisation for every switch (plus host injection links).

    Returns a JSON-ready dict: one entry per switch with a row of
    ``{"port", "link", "flits", "util"}`` cells, and one aggregate row
    for the host NIs' injection links.
    """
    span = max(cycles, 1)

    def cell(link: Link, **where: int) -> Dict[str, Any]:
        flits = link.flits_sent_by(cycles - 1)
        return {
            **where, "link": link.name, "flits": flits,
            "util": round(flits / span, 4),
        }

    switches = [
        {
            "name": switch.name,
            "ports": [
                cell(link, port=port)
                for port, link in enumerate(switch.out_links)
                if link is not None
            ],
        }
        for switch in network.switches
    ]
    hosts = [
        cell(interface.out_link, host=interface.host_id)
        for interface in network.interfaces
        if interface.out_link is not None
    ]
    return {"cycles": cycles, "switches": switches, "hosts": hosts}


def render_heatmap(heatmap: Dict[str, Any], width: int = 72) -> str:
    """Render :func:`link_heatmap` output as aligned ASCII rows.

    One row per switch, one glyph per output port; a final ``hosts``
    row shows NI injection links bucketed in topology order.  The
    legend maps glyphs back to utilisation deciles.
    """
    lines: List[str] = []
    switches = heatmap.get("switches", [])
    name_width = max(
        [len(s["name"]) for s in switches] + [len("hosts")], default=5
    )
    lines.append(
        f"link utilisation over {heatmap.get('cycles', 0)} cycles "
        f"(glyphs: '{SHADES}' = 0%..100%)"
    )
    for entry in switches:
        row = "".join(_shade(port["util"]) for port in entry["ports"])
        busiest = max(
            entry["ports"], key=lambda p: p["util"], default=None
        )
        note = ""
        if busiest is not None and busiest["util"] > 0:
            note = (
                f"  peak p{busiest['port']}"
                f" {busiest['util'] * 100:5.1f}%"
            )
        lines.append(f"{entry['name']:>{name_width}} |{row}|{note}")
    hosts = heatmap.get("hosts", [])
    if hosts:
        glyphs = "".join(_shade(host["util"]) for host in hosts)
        for offset in range(0, len(glyphs), width):
            label = "hosts" if offset == 0 else ""
            lines.append(
                f"{label:>{name_width}} |{glyphs[offset:offset + width]}|"
            )
    return "\n".join(lines)
