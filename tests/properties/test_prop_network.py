"""Differential property test for the memoized routes in
:class:`repro.grid.network.Network`.

Random small topologies go through random sequences of topology
changes.  After every step the cached ``transfer_time`` of every site
pair must equal an oracle recomputed from ``nx.shortest_path`` on the
current graph -- the same float, or a ``NetworkError`` with the same
message -- so no mutator can leave a stale route behind.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.grid.network import USER_SITE, Link, Network, NetworkError

SITES = [USER_SITE, 0, 1, 2, 3, 4]
SIZE = 7_340_032

sites = st.sampled_from(SITES)
links = st.builds(
    Link,
    bandwidth_mbps=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
    latency_s=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
)
operations = st.one_of(
    st.tuples(st.just("connect"), sites, sites, links),
    st.tuples(st.just("disconnect"), sites, sites),
    st.tuples(st.just("degrade"), sites, sites, st.floats(0.01, 1.0)),
    st.tuples(st.just("sever"), sites, sites),
    st.tuples(st.just("restore"), sites, sites, links),
    st.tuples(st.just("remove_site"), sites),
)


def oracle_transfer_time(net: Network, size: int, src: int, dst: int) -> float:
    """The uncached computation: route the pair from scratch."""
    if src == dst:
        return 0.0
    graph = net.graph
    if src not in graph or dst not in graph:
        raise NetworkError(f"unknown site in route {src} -> {dst}")
    try:
        route = nx.shortest_path(
            graph, src, dst, weight=lambda u, v, d: d["link"].latency_s
        )
    except nx.NetworkXNoPath:
        raise NetworkError(f"no route {src} -> {dst}") from None
    hops = [graph.edges[u, v]["link"] for u, v in zip(route, route[1:])]
    total_latency = sum(l.latency_s for l in hops)
    bottleneck = min(l.bandwidth_mbps for l in hops)
    return total_latency + size / (bottleneck * 1e6)


def apply(net: Network, op: tuple) -> None:
    """Run one topology change; inputs the network rejects (self links,
    absent links, the user site) must leave the topology unchanged."""
    name, *args = op
    try:
        if name == "degrade":
            net.degrade(args[0], args[1], factor=args[2])
        else:
            getattr(net, name)(*args)
    except (ValueError, NetworkError):
        pass


def outcome(fn, *args):
    try:
        return fn(*args)
    except NetworkError as exc:
        return ("NetworkError", str(exc))


def assert_matches_oracle(net: Network) -> None:
    for src in SITES:
        for dst in SITES:
            assert outcome(net.transfer_time, SIZE, src, dst) == outcome(
                oracle_transfer_time, net, SIZE, src, dst
            )


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(st.tuples(sites, sites, links), max_size=10),
    steps=st.lists(operations, min_size=1, max_size=25),
)
def test_cached_transfer_time_matches_fresh_route(initial, steps):
    net = Network()
    for a, b, link in initial:
        if a != b:
            net.connect(a, b, link)
    assert_matches_oracle(net)
    for op in steps:
        apply(net, op)
        assert_matches_oracle(net)

