"""Topologies as data: ontology, emitters, the one builder, faults."""

import dataclasses
import hashlib
import pickle

import pytest

from repro.experiments.config import ExperimentConfig, SchemeName
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    build_topology,
    make_scheme_setup,
    regional_fabric_config,
)
from repro.faults.spec import FaultPlan, LinkFailureSpec, SiteFailureSpec
from repro.net import (
    ClosSpec,
    DumbbellSpec,
    Host,
    StarSpec,
    build_clos,
    build_dumbbell,
    build_star,
)
from repro.net.fabric import (
    FabricHandle,
    LinkSpec,
    NodeSpec,
    SiteSpec,
    TopologySpec,
    TopologySpecError,
    build_from_spec,
    clos_to_topology_spec,
    load_topology_spec,
    parse_delay_ns,
    parse_rate_bps,
)
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MILLIS

from tests.util import cell


def small_spec_dict(**overrides):
    """A tiny valid 2-site fabric as a plain dict."""
    d = {
        "name": "mini",
        "sites": [
            {"name": "DC-A", "region": "east"},
            {"name": "DC-B", "region": "west"},
        ],
        "nodes": [
            {"name": "SW-A", "kind": "switch", "site": "DC-A", "tier": 1},
            {"name": "SW-B", "kind": "switch", "site": "DC-B", "tier": 1},
            {"name": "hA0", "kind": "host", "site": "DC-A"},
            {"name": "hA1", "kind": "host", "site": "DC-A"},
            {"name": "hB0", "kind": "host", "site": "DC-B"},
            {"name": "hB1", "kind": "host", "site": "DC-B"},
        ],
        "links": [
            {"a": "SW-A", "b": "SW-B", "rate": "40G", "delay": "500us",
             "region": "wan"},
            {"a": "hA0", "b": "SW-A", "rate": "10G", "delay": "6us"},
            {"a": "hA1", "b": "SW-A", "rate": "10G", "delay": "6us"},
            {"a": "hB0", "b": "SW-B", "rate": "10G", "delay": "6us"},
            {"a": "hB1", "b": "SW-B", "rate": "10G", "delay": "6us"},
        ],
    }
    d.update(overrides)
    return d


def queue_factory():
    return make_scheme_setup(
        ExperimentConfig(scheme=SchemeName.FLEXPASS)).queue_factory


class TestUnitParsing:
    def test_rates(self):
        assert parse_rate_bps(1000) == 1000
        assert parse_rate_bps("40G") == 40_000_000_000
        assert parse_rate_bps("40Gbps") == 40_000_000_000
        assert parse_rate_bps("250Mbps") == 250_000_000
        assert parse_rate_bps("2.5g") == 2_500_000_000

    def test_delays(self):
        assert parse_delay_ns(4000) == 4000
        assert parse_delay_ns("4us") == 4000
        assert parse_delay_ns("1ms") == 1_000_000
        assert parse_delay_ns("500ns") == 500

    def test_garbage_rejected(self):
        with pytest.raises(TopologySpecError):
            parse_rate_bps("fast")
        with pytest.raises(TopologySpecError):
            parse_delay_ns("40G")  # G is not a delay unit
        with pytest.raises(TopologySpecError):
            parse_rate_bps(None)


class TestRoundTrip:
    def test_dict_yaml_spec_yaml_byte_identical(self):
        spec = TopologySpec.from_dict(small_spec_dict())
        yaml1 = spec.to_yaml()
        spec2 = TopologySpec.from_yaml(yaml1)
        assert spec2 == spec
        assert spec2.to_yaml() == yaml1

    def test_units_normalized(self):
        spec = TopologySpec.from_dict(small_spec_dict())
        wan = spec.links[0]
        assert wan.rate_bps == 40_000_000_000
        assert wan.delay_ns == 500_000

    def test_picklable_and_frozen(self):
        spec = TopologySpec.from_dict(small_spec_dict())
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "other"

    def test_cache_keying(self):
        from repro.experiments.cache import config_key

        spec = TopologySpec.from_dict(small_spec_dict())
        base = ExperimentConfig()
        a = config_key(base.with_(topology_spec=spec))
        b = config_key(base.with_(topology_spec=spec))
        assert a == b
        bigger = dataclasses.replace(spec, name="renamed")
        assert config_key(base.with_(topology_spec=bigger)) != a
        assert config_key(base) != a

    def test_load_from_yaml_file(self, tmp_path):
        spec = TopologySpec.from_dict(small_spec_dict())
        p = tmp_path / "mini.yaml"
        p.write_text(spec.to_yaml())
        assert load_topology_spec(p) == spec

    def test_load_from_json_file(self, tmp_path):
        import json

        spec = TopologySpec.from_dict(small_spec_dict())
        p = tmp_path / "mini.json"
        p.write_text(json.dumps(spec.to_dict()))
        assert load_topology_spec(p) == spec

    def test_load_from_csv_dir_azure_headers(self, tmp_path):
        (tmp_path / "datacenters.csv").write_text(
            "DataCenterId,Region\nDC-A,east\nDC-B,west\n")
        (tmp_path / "routers.csv").write_text(
            "RouterId,DataCenterId,Tier,Kind\n"
            "SW-A,DC-A,1,switch\nSW-B,DC-B,1,switch\n"
            "hA0,DC-A,0,host\nhB0,DC-B,0,host\n")
        (tmp_path / "links.csv").write_text(
            "LinkId,SourceRouterId,TargetRouterId,CapacityGbps,LatencyMs\n"
            "L1,SW-A,SW-B,40,0.5\nL2,hA0,SW-A,10,0.006\nL3,hB0,SW-B,10,0.006\n")
        spec = load_topology_spec(tmp_path)
        assert {n.name for n in spec.nodes} == {"SW-A", "SW-B", "hA0", "hB0"}
        assert spec.links[0].rate_bps == 40_000_000_000
        assert spec.links[0].delay_ns == 500_000
        assert spec.region_of("SW-A") == "east"
        assert len(spec.hosts()) == 2


class TestValidation:
    def test_valid_passes(self):
        TopologySpec.from_dict(small_spec_dict()).validate()

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["links"].append(
            {"a": "hA0", "b": "ghost", "rate": "1G", "delay": "1us"}),
         "unknown endpoint 'ghost'"),
        (lambda d: d["links"].append(dict(d["links"][1])),
         "duplicate link"),
        (lambda d: d["links"].append(
            {"a": "SW-A", "b": "hA0", "rate": "1G", "delay": "1us"}),
         "duplicate link"),  # reversed direction of an existing edge
        (lambda d: d["nodes"].append({"name": "hA0", "kind": "host"}),
         "duplicate node 'hA0'"),
        (lambda d: d["sites"].append({"name": "DC-A"}),
         "duplicate site 'DC-A'"),
        (lambda d: d["links"].__setitem__(
            0, {"a": "SW-A", "b": "SW-B", "rate": 0, "delay": "1us"}),
         "rate must be positive"),
        (lambda d: d["links"].__setitem__(
            0, {"a": "SW-A", "b": "SW-B", "rate": "1G", "delay": -5}),
         "delay must be positive"),
        (lambda d: d["links"].__setitem__(
            0, {"a": "SW-A", "b": "SW-A", "rate": "1G", "delay": "1us"}),
         "joins a node to itself"),
        (lambda d: d["nodes"].append({"name": "x", "kind": "router"}),
         "kind must be 'host' or 'switch'"),
        (lambda d: d["nodes"].append({"name": "x", "site": "DC-Z"}),
         "unknown site 'DC-Z'"),
        (lambda d: d["nodes"].append({"name": "x", "color": "red"}),
         "unknown field"),
        (lambda d: d.__setitem__("nodes", []), "no nodes"),
        (lambda d: d["nodes"].append({"name": "h2", "kind": "host"}),
         "host 'h2' has 0 links"),
        (lambda d: d["links"].append(
            {"a": "hA0", "b": "SW-B", "rate": "10G", "delay": "6us"}),
         "host 'hA0' has 2 links"),
        (lambda d: d["links"].__setitem__(
            1, {"a": "hA0", "b": "hA1", "rate": "10G", "delay": "6us"}),
         "joins two hosts"),
    ])
    def test_error_matrix(self, mutate, message):
        d = small_spec_dict()
        mutate(d)
        with pytest.raises(TopologySpecError, match=message):
            TopologySpec.from_dict(d)

    def test_hostless_fabric_rejected(self):
        d = small_spec_dict()
        d["nodes"], d["links"] = d["nodes"][:2], d["links"][:1]
        with pytest.raises(TopologySpecError, match="no hosts"):
            TopologySpec.from_dict(d)

    def test_missing_rate_and_both_rates(self):
        d = small_spec_dict()
        d["links"][0] = {"a": "SW-A", "b": "SW-B", "delay": "1us"}
        with pytest.raises(TopologySpecError, match="missing 'rate'"):
            TopologySpec.from_dict(d)
        d["links"][0] = {"a": "SW-A", "b": "SW-B", "rate": "1G",
                         "rate_bps": 5, "delay": "1us"}
        with pytest.raises(TopologySpecError, match="not both"):
            TopologySpec.from_dict(d)


def wiring_digest(topo) -> str:
    """sha256 over everything a build decides: in node-id order the id,
    name, kind, ``ecmp_salt`` and buffer, then per neighbour in adjacency
    order the port's name, rate, link delay and peer id."""
    h = hashlib.sha256()
    for node_id in sorted(topo.nodes):
        node = topo.nodes[node_id]
        if isinstance(node, Host):
            row = [node.id, node.name, "host"]
        else:
            row = [node.id, node.name, "switch", node.ecmp_salt,
                   node.buffer.capacity, node.buffer.alpha]
        for peer_id in topo._adjacency[node_id]:
            port = node.ports[peer_id]
            row += [port.name, port.rate_bps, port.link.delay_ns, peer_id]
        h.update(repr(row).encode())
    return h.hexdigest()


class TestShapeBuilders:
    """The paper's three shapes, emitted as specs and built by the one
    builder."""

    #: recorded at 7b056d7, the last commit with hand-written ``_build_*``
    #: wiring: node ids, port names, ECMP salts and adjacency order are what
    #: every golden audit digest and ECMP hash hangs off, so they do not move
    @pytest.mark.parametrize("build,shape,digest", [
        (build_dumbbell, DumbbellSpec(n_pairs=1),
         "033087fc51b23e2407192a9991022c2d686cc29104bee5bb6176898dbbd4cbec"),
        (build_dumbbell, DumbbellSpec(n_pairs=2),
         "b1487e2c5f8ffcf03c92a29335f336a231357ac8e14cf11dcc40d0a8596c767f"),
        (build_dumbbell, DumbbellSpec(n_pairs=1, bottleneck_bps=1 * GBPS),
         "09ae49b095353a7fe5994146ef0aaa08c861637984af64d897f32164385f9383"),
        (build_dumbbell, DumbbellSpec(n_pairs=2, bottleneck_bps=1 * GBPS),
         "029d953033a44f06c4f31822d744d6c86d6ea786f12215b43a5378be9c2ba238"),
        (build_star, StarSpec(n_hosts=3),
         "aa6e3927e3daaa799c2305dd0bab74605951a68317a3f721c6bd7b72260eb8ad"),
        (build_star, StarSpec(n_hosts=9),
         "914eb7d9d7e2e6c939b553b2d3337bbbbd7ee09380aa6de990e15d5626fd5090"),
        (build_clos, ClosSpec(),
         "81f325e8eccc278ddeeb331ab4afe827eda5cad5ab77ca23457e9d4b05ead7d3"),
        (build_clos, ClosSpec.paper_scale(),
         "80b11e5bb9d0e2ed3e29b2120842d5bf9393f74364c1718c206d01e660d60223"),
    ], ids=["dumbbell-1", "dumbbell-2", "dumbbell-1-bottleneck",
            "dumbbell-2-bottleneck", "star-3", "star-9", "clos-default",
            "clos-paper"])
    def test_wiring_digest(self, build, shape, digest):
        built = build(Simulator(), queue_factory(), shape)
        assert wiring_digest(built.topo) == digest

    def test_default_spec(self):
        d = build_dumbbell(Simulator(), queue_factory())
        assert len(d.senders) == len(d.receivers) == DumbbellSpec().n_pairs
        assert len(build_star(Simulator(), queue_factory()).hosts) == \
            StarSpec().n_hosts
        assert len(build_clos(Simulator(), queue_factory()).hosts) == \
            ClosSpec().n_hosts

    def test_views_are_filled_by_name(self):
        d = build_dumbbell(Simulator(), queue_factory(),
                           DumbbellSpec(n_pairs=2))
        assert [h.name for h in d.senders] == ["s0", "s1"]
        assert [h.name for h in d.receivers] == ["r0", "r1"]
        assert (d.left.name, d.right.name) == ("swL", "swR")
        assert d.bottleneck.name == "swL->swR"
        star = build_star(Simulator(), queue_factory(), StarSpec(n_hosts=3))
        assert [h.name for h in star.hosts] == ["h0", "h1", "h2"]
        assert star.downlink(star.hosts[2]).name == "sw->h2"

    def test_clos_rack_and_uplink_order(self):
        clos = build_clos(Simulator(), queue_factory(), ClosSpec())
        assert isinstance(clos, FabricHandle)
        assert [[h.name for h in rack] for rack in clos.racks()] == [
            [f"h{p}.{t}.{h}" for h in range(4)]
            for p in range(2) for t in range(2)]
        assert [clos.rack_of(rack[0]) for rack in clos.racks()] == [0, 1, 2, 3]
        assert [p.name for p in clos.tor_uplinks()] == [
            f"tor{p}.{t}->agg{p}.{a}"
            for p in range(2) for t in range(2) for a in range(2)]

    @pytest.mark.parametrize("build,shape,message", [
        (build_clos, ClosSpec(n_pods=0), "ClosSpec.n_pods must be positive"),
        (build_clos, ClosSpec(hosts_per_tor=0),
         "ClosSpec.hosts_per_tor must be positive"),
        (build_clos, ClosSpec(cores_per_group=-1),
         "ClosSpec.cores_per_group must be positive"),
        (build_star, StarSpec(n_hosts=0), "StarSpec.n_hosts must be positive"),
        (build_dumbbell, DumbbellSpec(n_pairs=0),
         "DumbbellSpec.n_pairs must be positive"),
        (build_clos, ClosSpec(link_delay_ns=0), "delay must be positive"),
        (build_star, StarSpec(rate_bps=0), "rate must be positive"),
        (build_dumbbell, DumbbellSpec(bottleneck_bps=-1),
         "rate must be positive"),
    ])
    def test_degenerate_shapes_rejected(self, build, shape, message):
        with pytest.raises(TopologySpecError, match=message):
            build(Simulator(), queue_factory(), shape)


class TestTopologyNames:
    def test_node_by_name_and_duplicate_rejection(self):
        sim = Simulator()
        handle = build_from_spec(
            sim, queue_factory(), TopologySpec.from_dict(small_spec_dict()))
        assert handle.node("SW-A").name == "SW-A"
        with pytest.raises(KeyError, match="no node named"):
            handle.node("nope")
        from repro.net.topology import Topology

        topo = Topology(sim, queue_factory())
        topo.add_host("dup")
        with pytest.raises(ValueError, match="duplicate node name 'dup'"):
            topo.add_host("dup")


class TestBuildFromSpec:
    def test_lookups_groups_and_salts(self):
        spec = TopologySpec.from_dict(small_spec_dict())
        handle = build_from_spec(Simulator(), queue_factory(), spec)
        assert isinstance(handle, FabricHandle)
        assert len(handle.hosts) == 4
        assert [len(r) for r in handle.racks()] == [2, 2]
        assert handle.rack_of(handle.node("hB0")) == 1
        assert handle.node("SW-A").ecmp_salt == 1
        assert handle.site_of("hA0") == "DC-A"
        assert handle.region_of("hB1") == "west"
        assert [l.label for l in handle.inter_region_links()] == \
            ["SW-A<->SW-B"]
        by_region = handle.hosts_by_region()
        assert sorted(by_region) == ["east", "west"]
        assert [h.name for h in by_region["east"]] == ["hA0", "hA1"]
        groups = handle.topo.node_groups
        assert set(groups["site:DC-A"]) == {"SW-A", "hA0", "hA1"}
        assert set(groups["region:west"]) == {"SW-B", "hB0", "hB1"}
        assert handle.access_rate_bps == 10_000_000_000


class TestFaultsByOntologyName:
    def make_cfg(self, faults=None, **overrides):
        spec = TopologySpec.from_dict(small_spec_dict())
        return regional_fabric_config(
            spec, load=0.4, sim_time_ns=2 * MILLIS, seed=5,
            size_scale=32.0, locality_intra=0.5, faults=faults, **overrides)

    def test_named_backbone_link_kill_and_reconverge(self):
        plan = FaultPlan(failures=(LinkFailureSpec(
            a="SW-A", b="SW-B", down_ns=MILLIS // 2, up_ns=MILLIS),))
        res = cell(self.make_cfg(faults=plan))
        fc = res.fault_counters
        assert fc.link_failures == 1
        assert fc.link_restores == 1
        assert fc.reroutes == 2

    def test_site_failure_spec_expands_incident_links(self):
        spec = TopologySpec.from_dict(small_spec_dict())
        handle = build_from_spec(Simulator(), queue_factory(), spec)
        events = SiteFailureSpec("DC-A", down_ns=10, up_ns=20).events(
            handle.topo)
        downs = {(e.a, e.b) for e in events if type(e).__name__ ==
                 "LinkDownEvent"}
        # every link incident to a DC-A node: the WAN link + both host links
        assert downs == {("SW-A", "SW-B"), ("SW-A", "hA0"), ("SW-A", "hA1")}
        ups = [e for e in events if type(e).__name__ == "LinkUpEvent"]
        assert len(ups) == len(downs)

    def test_site_failure_runs_end_to_end(self):
        plan = FaultPlan(site_failures=(SiteFailureSpec(
            "DC-B", down_ns=MILLIS // 2, up_ns=MILLIS),))
        res = cell(self.make_cfg(faults=plan))
        assert res.fault_counters.link_failures == 3
        assert res.fault_counters.link_restores == 3

    def test_unknown_target_fails_at_setup(self):
        plan = FaultPlan(site_failures=(SiteFailureSpec(
            "DC-MARS", down_ns=10),))
        with pytest.raises(ValueError, match="neither a node nor"):
            run_experiment(self.make_cfg(faults=plan))


class TestRegionalScenario:
    def test_locality_matrix_biases_traffic(self):
        from repro.experiments.runner import flow_specs
        from repro.sim.rng import RngRegistry

        spec = TopologySpec.from_dict(small_spec_dict())
        intra_counts = {}
        for frac in (0.1, 0.9):
            cfg = regional_fabric_config(spec, load=0.5,
                                         sim_time_ns=5 * MILLIS, seed=2,
                                         size_scale=32.0,
                                         locality_intra=frac)
            handle = build_topology(
                Simulator(), make_scheme_setup(cfg).queue_factory, cfg)
            specs = [spec for spec, _children in
                     flow_specs(cfg, handle, RngRegistry(cfg.seed))]
            region = {h.name: spec.region_of(h.name) for h in handle.hosts}
            intra = sum(1 for s in specs
                        if region[s.src.name] == region[s.dst.name])
            intra_counts[frac] = intra / len(specs)
        assert intra_counts[0.9] > 0.75 > 0.25 > intra_counts[0.1]

    def test_build_topology_without_spec_emits_the_clos(self):
        cfg = ExperimentConfig()
        handle = build_topology(
            Simulator(), make_scheme_setup(cfg).queue_factory, cfg)
        assert isinstance(handle, FabricHandle)
        assert handle.spec == clos_to_topology_spec(cfg.clos)

    def test_example_yaml_validates_and_runs(self):
        import pathlib

        path = (pathlib.Path(__file__).resolve().parents[1] / "examples" /
                "regional_fabric.yaml")
        spec = load_topology_spec(path)
        assert len(spec.inter_region_links()) == 2
        cfg = regional_fabric_config(spec, load=0.3, sim_time_ns=MILLIS,
                                     size_scale=32.0, seed=9)
        res = cell(cfg)
        assert res.completed > 0
        assert not res.aborted


class TestNetApiSurface:
    def test_fabric_names_via_repro_net(self):
        import repro.net as net

        assert net.TopologySpec is TopologySpec
        assert net.build_from_spec is build_from_spec
        assert "fabric" in dir(net)
        assert net.routing.edge_key(2, 1) == (1, 2)

    def test_all_names_resolve(self):
        import repro.net as net

        for name in net.__all__:
            assert getattr(net, name) is not None
