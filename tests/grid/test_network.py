"""Unit tests for the grid network model."""

import pytest

from repro.grid.network import Link, Network, NetworkError, USER_SITE


class TestLink:
    def test_transfer_time_formula(self):
        link = Link(bandwidth_mbps=100.0, latency_s=0.01)
        # 10 MB at 100 MB/s = 0.1 s, plus latency.
        assert link.transfer_time(10_000_000) == pytest.approx(0.11)

    def test_zero_bytes_costs_latency_only(self):
        assert Link(100.0, 0.02).transfer_time(0) == pytest.approx(0.02)

    @pytest.mark.parametrize("kwargs", [dict(bandwidth_mbps=0), dict(latency_s=-1)])
    def test_validation(self, kwargs):
        params = dict(bandwidth_mbps=100.0, latency_s=0.0)
        params.update(kwargs)
        with pytest.raises(ValueError):
            Link(**params)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Link(100.0, 0.0).transfer_time(-1)


class TestTopology:
    def test_fully_connected_has_all_routes(self):
        net = Network.fully_connected([0, 1, 2])
        for a in (0, 1, 2, USER_SITE):
            for b in (0, 1, 2, USER_SITE):
                assert net.has_route(a, b)

    def test_self_link_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.connect(1, 1, Link(100.0, 0.0))

    def test_user_uplink_can_differ(self):
        net = Network.fully_connected(
            [0, 1], bandwidth_mbps=100.0, latency_s=0.001,
            user_bandwidth_mbps=10.0, user_latency_s=0.05,
        )
        size = 10_000_000
        assert net.transfer_time(size, USER_SITE, 0) > net.transfer_time(size, 0, 1)

    def test_remove_site(self):
        net = Network.fully_connected([0, 1])
        net.remove_site(1)
        assert not net.has_route(0, 1)
        assert 1 not in net

    def test_user_site_cannot_be_removed(self):
        with pytest.raises(ValueError):
            Network().remove_site(USER_SITE)

    def test_disconnect(self):
        net = Network()
        net.connect(0, 1, Link(100.0, 0.0))
        net.disconnect(0, 1)
        assert not net.has_route(0, 1)
        with pytest.raises(NetworkError):
            net.disconnect(0, 1)


class TestTransferTimes:
    def test_same_site_is_free(self):
        net = Network.fully_connected([0, 1])
        assert net.transfer_time(10**9, 0, 0) == 0.0

    def test_multi_hop_sums_latency_uses_bottleneck(self):
        net = Network()
        net.connect(0, 1, Link(bandwidth_mbps=100.0, latency_s=0.01))
        net.connect(1, 2, Link(bandwidth_mbps=10.0, latency_s=0.02))
        t = net.transfer_time(10_000_000, 0, 2)
        # latencies 0.01 + 0.02, bottleneck 10 MB/s -> 1 s serialization.
        assert t == pytest.approx(1.03)

    def test_no_route_raises(self):
        net = Network()
        net.connect(0, 1, Link(100.0, 0.0))
        net.connect(2, 3, Link(100.0, 0.0))
        with pytest.raises(NetworkError, match="no route"):
            net.transfer_time(100, 0, 3)

    def test_unknown_site_raises(self):
        net = Network()
        with pytest.raises(NetworkError, match="unknown"):
            net.path(0, 42)

    def test_min_latency_path_chosen(self):
        net = Network()
        net.connect(0, 1, Link(1000.0, 0.5))  # fast but high latency
        net.connect(0, 2, Link(1000.0, 0.01))
        net.connect(2, 1, Link(1000.0, 0.01))
        assert net.path(0, 1) == [0, 2, 1]


class TestRouteCache:
    """Routes are memoized; every topology change must show in the next
    transfer time."""

    SIZE = 10_000_000

    def chain(self):
        """0 - 1 - 2, with a slower direct 0 - 2 detour."""
        net = Network()
        net.connect(0, 1, Link(100.0, 0.01))
        net.connect(1, 2, Link(100.0, 0.01))
        net.connect(0, 2, Link(50.0, 0.05))
        return net

    def test_degrade_changes_next_transfer(self):
        net = self.chain()
        before = net.transfer_time(self.SIZE, 0, 2)
        net.degrade(0, 1, factor=0.1)
        assert net.transfer_time(self.SIZE, 0, 2) > before

    def test_sever_changes_next_transfer(self):
        net = self.chain()
        assert net.transfer_time(self.SIZE, 0, 2) == pytest.approx(0.12)
        net.sever(1, 2)
        assert net.transfer_time(self.SIZE, 0, 2) == pytest.approx(0.25)

    def test_restore_changes_next_transfer(self):
        net = self.chain()
        healthy = net.degrade(0, 1, factor=0.1)
        degraded = net.transfer_time(self.SIZE, 0, 2)
        net.restore(0, 1, healthy)
        assert net.transfer_time(self.SIZE, 0, 2) < degraded

    def test_disconnect_changes_next_transfer(self):
        net = self.chain()
        net.transfer_time(self.SIZE, 0, 2)
        net.disconnect(0, 1)
        assert net.transfer_time(self.SIZE, 0, 2) == pytest.approx(0.25)

    def test_remove_site_changes_next_transfer(self):
        net = self.chain()
        net.transfer_time(self.SIZE, 0, 2)
        net.remove_site(1)
        assert net.transfer_time(self.SIZE, 0, 2) == pytest.approx(0.25)

    def test_cached_unreachable_pair_raises_every_time(self):
        net = Network()
        net.connect(0, 1, Link(100.0, 0.0))
        net.connect(2, 3, Link(100.0, 0.0))
        for _ in range(3):
            with pytest.raises(NetworkError, match="no route"):
                net.transfer_time(100, 0, 3)

    def test_reconnect_makes_unreachable_pair_routable(self):
        net = Network()
        net.connect(0, 1, Link(100.0, 0.0))
        net.connect(2, 3, Link(100.0, 0.0))
        with pytest.raises(NetworkError, match="no route"):
            net.transfer_time(100, 0, 3)
        net.connect(1, 2, Link(10.0, 0.5))
        assert net.transfer_time(10_000_000, 0, 3) == pytest.approx(1.5)

    def test_same_site_stays_free(self):
        net = self.chain()
        net.transfer_time(self.SIZE, 0, 2)
        assert net.transfer_time(10**9, 2, 2) == 0.0
        assert Network().transfer_time(10**9, 42, 42) == 0.0
