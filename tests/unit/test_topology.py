"""Unit tests for the repro.topology package (graphs, specs, routing)."""

import math

import pytest

from repro.sim.traceindex import numpy_available
from repro.topology import (
    Router,
    Topology,
    bfs_routes,
    build_topology,
    clustered,
    cluster_groups,
    complete,
    delay_envelope,
    describe_topologies,
    grid,
    make_topology,
    parse_topology_spec,
    random_gnp,
    ring,
    star,
    topology_names,
)
from repro.topology.spec import TopologySpecError


class TestTopologyBasics:
    def test_rejects_self_loops_and_bad_nodes(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 0)])
        with pytest.raises(ValueError):
            Topology(3, [(0, 5)])
        with pytest.raises(ValueError):
            Topology(0, [])

    def test_links_are_undirected_and_canonical(self):
        topology = Topology(4, [(2, 1), (1, 2), (0, 3)])
        assert topology.links() == [(0, 3), (1, 2)]
        assert topology.has_link(1, 2) and topology.has_link(2, 1)
        assert not topology.has_link(0, 1)
        assert topology.neighbors(1) == (2,)

    def test_overrides_validate_against_existing_links(self):
        with pytest.raises(ValueError):
            Topology(3, [(0, 1)], extra_delay={(1, 2): 0.001})
        with pytest.raises(ValueError):
            Topology(3, [(0, 1)], drop_probability={(0, 1): 1.5})
        # NaN slips past both range comparisons; reject it (and an infinite
        # delay) instead of letting the link read as plain.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Topology(3, [(0, 1), (1, 2)], extra_delay={(0, 1): bad})
        with pytest.raises(ValueError):
            Topology(3, [(0, 1)], drop_probability={(0, 1): math.nan})
        topology = Topology(3, [(0, 1)], extra_delay={(1, 0): 0.002},
                            drop_probability={(0, 1): 0.25})
        # Overrides are symmetric regardless of key orientation.
        assert topology.extra_delay(0, 1) == topology.extra_delay(1, 0) == 0.002
        assert topology.drop_probability(1, 0) == 0.25
        assert topology.has_lossy_links

    def test_has_link_outside_the_node_range_is_false(self):
        topology = Topology(3, [(0, 1)])
        assert not topology.has_link(0, 3)
        assert not topology.has_link(-1, 0)
        assert not topology.has_link(1, 1)

    def test_accepts_an_edge_array(self):
        if not numpy_available():
            pytest.skip("numpy not installed")
        import numpy as np

        edges = np.array([[2, 1], [1, 2], [0, 3]])
        assert Topology(4, edges) == Topology(4, [(0, 3), (1, 2)])

    def test_repr_is_content_addressed(self):
        line = Topology(4, [(0, 1), (1, 2), (2, 3)], name="line")
        other = Topology(4, [(0, 2), (2, 1), (1, 3)], name="line")
        assert line != other
        assert repr(line) != repr(other)
        shuffled = Topology(4, [(3, 2), (1, 0), (2, 1), (0, 1)], name="line")
        assert shuffled == line and repr(shuffled) == repr(line)
        delayed = Topology(4, line.links(), name="line",
                           extra_delay={(0, 1): 0.001})
        assert repr(delayed) != repr(line)

    def test_components_and_connectivity(self):
        topology = Topology(5, [(0, 1), (1, 2), (3, 4)])
        assert topology.components() == [[0, 1, 2], [3, 4]]
        assert not topology.is_connected()
        assert ring(5).is_connected()

    def test_components_respect_a_link_filter(self):
        topology = complete(4)
        # Filter out every link crossing {0,1} | {2,3}: partition detection.
        cut = lambda u, v: (u < 2) == (v < 2)  # noqa: E731
        assert topology.components(link_up=cut) == [[0, 1], [2, 3]]

    def test_diameter(self):
        assert complete(6).diameter() == 1
        assert ring(6).diameter() == 3
        assert ring(7).diameter() == 3
        assert star(8).diameter() == 2


class TestGenerators:
    def test_complete_shape(self):
        topology = complete(5)
        assert topology.is_complete
        assert topology.link_count == 10
        assert all(topology.degree(p) == 4 for p in range(5))

    def test_ring_shape(self):
        topology = ring(7)
        assert topology.link_count == 7
        assert all(topology.degree(p) == 2 for p in range(7))
        with pytest.raises(ValueError):
            ring(2)

    def test_star_shape(self):
        topology = star(6, hub=2)
        assert topology.degree(2) == 5
        assert all(topology.degree(p) == 1 for p in range(6) if p != 2)

    def test_grid_shape(self):
        topology = grid(6, cols=3)
        # 2x3 grid: 3 vertical + 4 horizontal links... row-major 0..5.
        assert topology.has_link(0, 1) and topology.has_link(0, 3)
        assert not topology.has_link(2, 3)  # row wrap must not link
        assert topology.is_connected()
        assert grid(7).is_connected()  # ragged last row still connected

    def test_random_gnp_is_seed_deterministic(self):
        a = random_gnp(12, p=0.3, seed=42)
        b = random_gnp(12, p=0.3, seed=42)
        c = random_gnp(12, p=0.3, seed=43)
        assert a.links() == b.links()
        assert a == b
        # Different seeds draw different graphs (overwhelmingly likely for
        # n=12; fixed seeds make this deterministic).
        assert a.links() != c.links()

    def test_random_gnp_connectivity_stitching(self):
        # p=0 yields no edges; the connector must still produce one component.
        topology = random_gnp(6, p=0.0, seed=0)
        assert topology.is_connected()
        unstitched = random_gnp(6, p=0.0, seed=0, connect=False)
        assert not unstitched.is_connected()

    def test_clustered_shape_and_groups(self):
        topology = clustered(7, clusters=2, bridges=2)
        groups = cluster_groups(7, 2)
        assert groups == [[0, 1, 2, 3], [4, 5, 6]]
        # Intra-cluster complete:
        assert topology.has_link(0, 3) and topology.has_link(4, 6)
        # Exactly the two bridge links cross the boundary:
        crossing = [(u, v) for u, v in topology.links()
                    if (u in groups[0]) != (v in groups[0])]
        assert crossing == [(0, 4), (1, 5)]

    def test_make_topology_dispatch(self):
        assert make_topology("ring", 5).name == "ring"
        with pytest.raises(KeyError):
            make_topology("moebius", 5)
        assert set(topology_names()) == {"complete", "ring", "star", "grid",
                                         "random_gnp", "clustered",
                                         "hierarchy"}


class TestSpecs:
    def test_parse_plain_and_with_options(self):
        assert parse_topology_spec("ring") == ("ring", {})
        kind, options = parse_topology_spec("random_gnp:p=0.4,connect=false")
        assert kind == "random_gnp"
        assert options == {"p": 0.4, "connect": False}
        kind, options = parse_topology_spec("clustered: clusters=3, bridges=2 ")
        assert options == {"clusters": 3, "bridges": 2}

    def test_parse_rejects_garbage(self):
        # TopologySpecError (a ValueError) is what the CLI turns into exit 2.
        with pytest.raises(TopologySpecError):
            parse_topology_spec("")
        with pytest.raises(TopologySpecError):
            parse_topology_spec("moebius")
        with pytest.raises(TopologySpecError):
            parse_topology_spec("ring:oops")

    def test_build_topology_passthrough(self):
        assert build_topology(None, n=5) is None
        existing = ring(5)
        assert build_topology(existing, n=5) is existing
        built = build_topology("grid:cols=2", n=6, seed=1)
        assert built.name == "grid"

    def test_describe_topologies_covers_all(self):
        names = [name for name, _ in describe_topologies()]
        assert names == sorted(topology_names())


class TestRouting:
    def test_bfs_routes_are_shortest_and_deterministic(self):
        topology = ring(6)
        routes = bfs_routes(topology, 0)
        assert routes[0] == (0,)
        assert routes[1] == (0, 1)
        assert routes[2] == (0, 1, 2)
        # The antipodal node: ties broken toward the ascending neighbor.
        assert routes[3] == (0, 1, 2, 3)

    def test_router_respects_partition_epochs(self):
        from repro.faults import partition_and_heal
        schedule = partition_and_heal([[0, 1, 2], [3, 4, 5]], 10.0, 20.0)
        router = Router(complete(6), schedule)
        assert router.route(0, 4, 5.0) == (0, 4)
        assert router.route(0, 4, 15.0) is None       # split
        assert router.route(0, 1, 15.0) == (0, 1)     # same side unaffected
        assert router.route(0, 4, 25.0) == (0, 4)     # healed

    def test_router_honors_faults_added_after_construction(self):
        from repro.faults import LinkCrash
        from repro.topology import LinkSchedule
        schedule = LinkSchedule()
        router = Router(ring(4), schedule)
        assert router.route(0, 1, 6.0) == (0, 1)  # cache warm, all links up
        schedule.add(LinkCrash([(0, 1)], at=5.0))
        # The revision bump invalidates the cached table: traffic re-routes
        # the long way around instead of being dropped on the dead link.
        assert router.route(0, 1, 6.0) == (0, 3, 2, 1)
        assert router.route(0, 1, 4.0) == (0, 1)  # before the crash

    def test_delay_envelope_scales_with_diameter(self):
        delta, epsilon = 0.01, 0.002
        assert delay_envelope(complete(7), delta, epsilon) == \
            pytest.approx((delta - epsilon, delta + epsilon))
        lo, hi = delay_envelope(ring(7), delta, epsilon)
        assert lo == pytest.approx(delta - epsilon)
        assert hi == pytest.approx(3 * (delta + epsilon))  # diameter 3

    def test_delay_envelope_includes_extra_link_delay(self):
        topology = Topology(3, [(0, 1), (1, 2)], extra_delay={(1, 2): 0.005})
        lo, hi = delay_envelope(topology, 0.01, 0.002)
        assert lo == pytest.approx(0.008)             # the plain 0-1 hop
        assert hi == pytest.approx(2 * 0.012 + 0.005)  # 0->1->2 worst case
