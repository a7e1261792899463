"""Declarative topology ontology: sites, nodes, links.

The schema follows the autonomous-network ontology style — typed tables of
data centers, routers, and transport links with capacities and latencies —
flattened into three frozen dataclasses:

* :class:`SiteSpec` — a named site (data center) with an optional region.
* :class:`NodeSpec` — a host or switch, optionally placed at a site; the
  ``tier`` doubles as the switch's ECMP salt (ToR=1, agg=2, core=3).
* :class:`LinkSpec` — an undirected link with rate/delay and an optional
  region tag (e.g. ``wan`` for inter-DC backbones).

A :class:`TopologySpec` is frozen and picklable, so it content-hashes into
the experiment-cache key exactly like :class:`repro.net.topology.ClosSpec`
does. Loaders accept YAML, JSON, CSV directories (azure-style headers), or
plain dicts; serialization is normalized so dict → YAML → spec → YAML is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LinkSpec",
    "NodeSpec",
    "SiteSpec",
    "TopologySpec",
    "TopologySpecError",
    "load_topology_spec",
    "parse_delay_ns",
    "parse_rate_bps",
]


class TopologySpecError(ValueError):
    """A topology spec failed validation or parsing."""


# ------------------------------------------------------------- unit parsing

_QUANTITY_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*$")

_RATE_UNITS = {
    "": 1,
    "bps": 1,
    "k": 10**3,
    "kbps": 10**3,
    "m": 10**6,
    "mbps": 10**6,
    "g": 10**9,
    "gbps": 10**9,
    "t": 10**12,
    "tbps": 10**12,
}

_DELAY_UNITS = {
    "": 1,
    "ns": 1,
    "us": 10**3,
    "ms": 10**6,
    "s": 10**9,
}


def _parse_quantity(value, units: Mapping[str, int], what: str) -> int:
    if isinstance(value, bool):
        raise TopologySpecError(f"{what}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return int(value)
    if isinstance(value, str):
        m = _QUANTITY_RE.match(value)
        if m:
            unit = m.group(2).lower()
            if unit in units:
                return int(float(m.group(1)) * units[unit])
        raise TopologySpecError(
            f"{what}: cannot parse {value!r} "
            f"(units: {', '.join(u for u in sorted(units) if u)})")
    raise TopologySpecError(f"{what}: expected a number or string, got {value!r}")


def parse_rate_bps(value, what: str = "rate") -> int:
    """``40_000_000_000``, ``"40G"``, ``"40Gbps"``, ``"250Mbps"`` -> bps."""
    return _parse_quantity(value, _RATE_UNITS, what)


def parse_delay_ns(value, what: str = "delay") -> int:
    """``4000``, ``"4us"``, ``"1ms"``, ``"500ns"`` -> ns."""
    return _parse_quantity(value, _DELAY_UNITS, what)


# ---------------------------------------------------------------- ontology


@dataclass(frozen=True)
class SiteSpec:
    """A named site (data center), optionally grouped into a region."""

    name: str
    region: str = ""


@dataclass(frozen=True)
class NodeSpec:
    """A host or switch. ``tier`` is the switch's ECMP salt (hosts: 0)."""

    name: str
    kind: str = "switch"  # "host" | "switch"
    site: str = ""
    tier: int = 0
    buffer_bytes: int = 4_500_000
    buffer_alpha: float = 0.25


@dataclass(frozen=True)
class LinkSpec:
    """An undirected link ``a <-> b`` with per-direction rate and delay."""

    a: str
    b: str
    rate_bps: int
    delay_ns: int
    region: str = ""

    @property
    def label(self) -> str:
        return f"{self.a}<->{self.b}"


@dataclass(frozen=True)
class TopologySpec:
    """A complete declarative fabric. Frozen, picklable, cache-hashable."""

    name: str = "fabric"
    sites: Tuple[SiteSpec, ...] = ()
    nodes: Tuple[NodeSpec, ...] = ()
    links: Tuple[LinkSpec, ...] = ()

    # ----------------------------------------------------------- queries

    def hosts(self) -> Tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.kind == "host")

    def switches(self) -> Tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.kind == "switch")

    def site_of(self, node_name: str) -> str:
        for n in self.nodes:
            if n.name == node_name:
                return n.site
        raise KeyError(f"no node named {node_name!r}")

    def region_of_site(self, site_name: str) -> str:
        for s in self.sites:
            if s.name == site_name:
                return s.region
        return ""

    def region_of(self, node_name: str) -> str:
        return self.region_of_site(self.site_of(node_name))

    def inter_region_links(self) -> Tuple[LinkSpec, ...]:
        """Links whose endpoints sit in different (non-empty) regions."""
        out = []
        for link in self.links:
            ra, rb = self.region_of(link.a), self.region_of(link.b)
            if ra != rb or (link.region and ra == rb == ""):
                out.append(link)
        return tuple(out)

    def access_rate_bps(self) -> int:
        """Reference rate for scheme parameters: the fastest host access link.

        Credit-based schemes pace against the host NIC rate; for uniform
        fabrics this equals every access link's rate.
        """
        host_names = {n.name for n in self.nodes if n.kind == "host"}
        rates = [l.rate_bps for l in self.links
                 if l.a in host_names or l.b in host_names]
        if not rates:
            rates = [l.rate_bps for l in self.links]
        if not rates:
            raise TopologySpecError("topology has no links to derive a rate from")
        return max(rates)

    # -------------------------------------------------------- validation

    def validate(self) -> "TopologySpec":
        """Check referential integrity and that every host hangs off exactly
        one switch; return self so calls chain."""
        if not self.nodes:
            raise TopologySpecError("topology has no nodes")
        site_names = set()
        for site in self.sites:
            if not site.name:
                raise TopologySpecError("site with empty name")
            if site.name in site_names:
                raise TopologySpecError(f"duplicate site {site.name!r}")
            site_names.add(site.name)
        node_names = set()
        for node in self.nodes:
            if not node.name:
                raise TopologySpecError("node with empty name")
            if node.name in node_names:
                raise TopologySpecError(f"duplicate node {node.name!r}")
            node_names.add(node.name)
            if node.kind not in ("host", "switch"):
                raise TopologySpecError(
                    f"node {node.name!r}: kind must be 'host' or 'switch', "
                    f"got {node.kind!r}")
            if node.site and node.site not in site_names:
                raise TopologySpecError(
                    f"node {node.name!r}: unknown site {node.site!r}")
            if node.kind == "switch" and node.buffer_bytes <= 0:
                raise TopologySpecError(
                    f"node {node.name!r}: buffer_bytes must be positive, "
                    f"got {node.buffer_bytes}")
        host_links = {n.name: 0 for n in self.nodes if n.kind == "host"}
        if not host_links:
            raise TopologySpecError("topology has no hosts")
        if not self.links:
            raise TopologySpecError("topology has no links")
        seen_edges = set()
        for link in self.links:
            for end in (link.a, link.b):
                if end not in node_names:
                    raise TopologySpecError(
                        f"link {link.label}: unknown endpoint {end!r}")
            if link.a == link.b:
                raise TopologySpecError(
                    f"link {link.label} joins a node to itself")
            edge = (min(link.a, link.b), max(link.a, link.b))
            if edge in seen_edges:
                raise TopologySpecError(f"duplicate link {link.label}")
            seen_edges.add(edge)
            if link.rate_bps <= 0:
                raise TopologySpecError(
                    f"link {link.label}: rate must be positive, got {link.rate_bps}")
            if link.delay_ns <= 0:
                raise TopologySpecError(
                    f"link {link.label}: delay must be positive, got {link.delay_ns}")
            if link.a in host_links and link.b in host_links:
                raise TopologySpecError(
                    f"link {link.label} joins two hosts (a host attaches "
                    f"to a switch)")
            for end in (link.a, link.b):
                if end in host_links:
                    host_links[end] += 1
        for host, n_links in host_links.items():
            if n_links != 1:
                raise TopologySpecError(
                    f"host {host!r} has {n_links} links (a host attaches to "
                    f"the fabric by exactly one)")
        return self

    # ----------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Normalized plain-dict form (rates in bps, delays in ns).

        Field order and default-omission are fixed, so two equal specs
        serialize to identical dicts and ``to_yaml`` round-trips
        byte-identically.
        """
        d: dict = {"name": self.name}
        if self.sites:
            d["sites"] = [_site_dict(s) for s in self.sites]
        d["nodes"] = [_node_dict(n) for n in self.nodes]
        d["links"] = [_link_dict(l) for l in self.links]
        return d

    def to_yaml(self) -> str:
        yaml = _yaml()
        return yaml.safe_dump(self.to_dict(), sort_keys=False,
                              default_flow_style=False)

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        if not isinstance(data, Mapping):
            raise TopologySpecError(
                f"topology document must be a mapping, got {type(data).__name__}")
        _check_keys(data, {"name", "sites", "nodes", "links"}, "topology")
        sites = tuple(_site_from(e, i) for i, e in
                      enumerate(_seq(data.get("sites", ()), "sites")))
        nodes = tuple(_node_from(e, i) for i, e in
                      enumerate(_seq(data.get("nodes", ()), "nodes")))
        links = tuple(_link_from(e, i) for i, e in
                      enumerate(_seq(data.get("links", ()), "links")))
        spec = cls(name=str(data.get("name", "fabric")),
                   sites=sites, nodes=nodes, links=links)
        return spec.validate()

    @classmethod
    def from_yaml(cls, text: str) -> "TopologySpec":
        yaml = _yaml()
        return cls.from_dict(yaml.safe_load(text))

    @classmethod
    def from_csv_dir(cls, path) -> "TopologySpec":
        """Load azure-ontology-style CSV tables from a directory.

        Recognized files (first match wins): ``sites.csv`` /
        ``datacenters.csv``, ``nodes.csv`` / ``routers.csv``, ``links.csv``.
        Headers accept both our names and the azure ontology's
        (``DataCenterId``, ``RouterId``, ``SourceRouterId``,
        ``TargetRouterId``, ``CapacityGbps``, ``LatencyMs`` ...).
        """
        root = Path(path)
        sites_rows = _read_csv(root, ("sites.csv", "datacenters.csv"))
        node_rows = _read_csv(root, ("nodes.csv", "routers.csv"))
        link_rows = _read_csv(root, ("links.csv",))
        if node_rows is None:
            raise TopologySpecError(
                f"{root}: missing nodes.csv (or routers.csv)")
        if link_rows is None:
            raise TopologySpecError(f"{root}: missing links.csv")
        data = {
            "name": root.name,
            "sites": [_alias_row(r, _SITE_ALIASES) for r in (sites_rows or [])],
            "nodes": [_alias_row(r, _NODE_ALIASES) for r in node_rows],
            "links": [_alias_row(r, _LINK_ALIASES) for r in link_rows],
        }
        if not data["sites"]:
            del data["sites"]
        return cls.from_dict(data)


# ------------------------------------------------------------ dict helpers


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - present in dev/CI images
        raise TopologySpecError(
            "PyYAML is required for YAML topology specs "
            "(use from_dict/from_csv_dir, or install pyyaml)") from exc
    return yaml


def _check_keys(entry: Mapping, allowed: set, what: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise TopologySpecError(
            f"{what}: unknown field(s) {', '.join(sorted(map(repr, unknown)))}")


def _seq(value, what: str) -> Sequence:
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise TopologySpecError(f"{what} must be a list")
    return value


def _entry(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise TopologySpecError(f"{what} must be a mapping, got {value!r}")
    return value


def _site_from(e, i: int) -> SiteSpec:
    e = _entry(e, f"sites[{i}]")
    _check_keys(e, {"name", "region"}, f"sites[{i}]")
    if "name" not in e:
        raise TopologySpecError(f"sites[{i}]: missing 'name'")
    return SiteSpec(name=str(e["name"]), region=str(e.get("region", "")))


def _node_from(e, i: int) -> NodeSpec:
    e = _entry(e, f"nodes[{i}]")
    _check_keys(e, {"name", "kind", "site", "tier",
                    "buffer_bytes", "buffer_alpha"}, f"nodes[{i}]")
    if "name" not in e:
        raise TopologySpecError(f"nodes[{i}]: missing 'name'")
    return NodeSpec(
        name=str(e["name"]),
        kind=str(e.get("kind", "switch")),
        site=str(e.get("site", "")),
        tier=int(e.get("tier", 0)),
        buffer_bytes=int(e.get("buffer_bytes", 4_500_000)),
        buffer_alpha=float(e.get("buffer_alpha", 0.25)),
    )


def _link_from(e, i: int) -> LinkSpec:
    e = _entry(e, f"links[{i}]")
    _check_keys(e, {"a", "b", "rate", "rate_bps", "delay", "delay_ns",
                    "region"}, f"links[{i}]")
    for k in ("a", "b"):
        if k not in e:
            raise TopologySpecError(f"links[{i}]: missing {k!r}")
    what = f"links[{i}] {e['a']}<->{e['b']}"
    if "rate" in e and "rate_bps" in e:
        raise TopologySpecError(f"{what}: give 'rate' or 'rate_bps', not both")
    if "delay" in e and "delay_ns" in e:
        raise TopologySpecError(f"{what}: give 'delay' or 'delay_ns', not both")
    rate = e.get("rate_bps", e.get("rate"))
    delay = e.get("delay_ns", e.get("delay"))
    if rate is None:
        raise TopologySpecError(f"{what}: missing 'rate'")
    if delay is None:
        raise TopologySpecError(f"{what}: missing 'delay'")
    return LinkSpec(
        a=str(e["a"]),
        b=str(e["b"]),
        rate_bps=parse_rate_bps(rate, f"{what} rate"),
        delay_ns=parse_delay_ns(delay, f"{what} delay"),
        region=str(e.get("region", "")),
    )


def _site_dict(s: SiteSpec) -> dict:
    d: dict = {"name": s.name}
    if s.region:
        d["region"] = s.region
    return d


def _node_dict(n: NodeSpec) -> dict:
    d: dict = {"name": n.name, "kind": n.kind}
    if n.site:
        d["site"] = n.site
    if n.tier:
        d["tier"] = n.tier
    if n.kind == "switch":
        if n.buffer_bytes != 4_500_000:
            d["buffer_bytes"] = n.buffer_bytes
        if n.buffer_alpha != 0.25:
            d["buffer_alpha"] = n.buffer_alpha
    return d


def _link_dict(l: LinkSpec) -> dict:
    d: dict = {"a": l.a, "b": l.b, "rate_bps": l.rate_bps,
               "delay_ns": l.delay_ns}
    if l.region:
        d["region"] = l.region
    return d


# ------------------------------------------------------------- CSV loading

_SITE_ALIASES = {
    "name": "name", "region": "region",
    "datacenterid": "name", "datacenter": "name",
}
_NODE_ALIASES = {
    "name": "name", "kind": "kind", "site": "site", "tier": "tier",
    "buffer_bytes": "buffer_bytes", "buffer_alpha": "buffer_alpha",
    "routerid": "name", "router": "name",
    "datacenterid": "site", "datacenter": "site",
}
_LINK_ALIASES = {
    "a": "a", "b": "b", "rate": "rate", "rate_bps": "rate_bps",
    "delay": "delay", "delay_ns": "delay_ns", "region": "region",
    "sourcerouterid": "a", "source": "a",
    "targetrouterid": "b", "target": "b",
    "capacitygbps": "__capacity_gbps", "latencyms": "__latency_ms",
    "linkid": None,
}


def _read_csv(root: Path, names: Iterable[str]) -> Optional[List[dict]]:
    for name in names:
        p = root / name
        if p.is_file():
            with p.open(newline="") as fh:
                return [dict(row) for row in csv.DictReader(fh)]
    return None


def _alias_row(row: Mapping[str, str], aliases: Mapping[str, Optional[str]]) -> dict:
    out: dict = {}
    for raw_key, value in row.items():
        if raw_key is None or value is None or value == "":
            continue
        key = aliases.get(raw_key.strip().lower())
        if key is None:
            if raw_key.strip().lower() in aliases:
                continue  # explicitly ignored column (e.g. LinkId)
            raise TopologySpecError(f"unknown CSV column {raw_key!r}")
        out[key] = value.strip()
    # Azure units: capacities in Gbps, latencies in ms.
    if "__capacity_gbps" in out:
        out["rate"] = f"{out.pop('__capacity_gbps')}Gbps"
    if "__latency_ms" in out:
        out["delay"] = f"{out.pop('__latency_ms')}ms"
    return out


# ------------------------------------------------------------- file loader


def load_topology_spec(path) -> TopologySpec:
    """Load and validate a spec from YAML/JSON file or CSV directory."""
    p = Path(path)
    if p.is_dir():
        return TopologySpec.from_csv_dir(p)
    if not p.is_file():
        raise TopologySpecError(f"no such topology spec: {p}")
    text = p.read_text()
    if p.suffix.lower() == ".json":
        return TopologySpec.from_dict(json.loads(text))
    return TopologySpec.from_yaml(text)
