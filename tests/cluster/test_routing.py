"""Routing policies: determinism, balance, load feedback, registry."""

import pytest

from repro.cep.events import Event
from repro.cep.windows import Window
from repro.cluster.routing import (
    ConsistentHashRouter,
    HashKeyRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    available_routers,
    create_router,
)


def make_window(window_id, events=None):
    return Window(window_id=window_id, events=events or [])


class TestRoundRobin:
    def test_cycles_over_shards_by_window_id(self):
        router = RoundRobinRouter().bind(3)
        shards = [router.route(make_window(i), "q") for i in range(9)]
        assert shards == [0, 1, 2, 0, 1, 2, 0, 1, 2]


class TestHashKey:
    def test_deterministic_and_in_range(self):
        router = HashKeyRouter().bind(5)
        first = [router.route(make_window(i), "q") for i in range(50)]
        second = [router.route(make_window(i), "q") for i in range(50)]
        assert first == second
        assert all(0 <= s < 5 for s in first)
        assert len(set(first)) > 1  # not everything on one shard

    def test_attribute_key_sticks_entities_to_shards(self):
        router = HashKeyRouter(attribute="symbol").bind(4)
        def window_for(symbol, window_id):
            opener = Event("T", seq=window_id, timestamp=0.0, attrs={"symbol": symbol})
            return make_window(window_id, [opener])
        a = {router.route(window_for("ACME", i), "q") for i in range(10)}
        b = {router.route(window_for("BETA", i + 10), "q") for i in range(10)}
        assert len(a) == 1 and len(b) == 1  # all windows of a key co-located

    def test_key_function(self):
        router = HashKeyRouter(key=lambda w: w.window_id // 10).bind(3)
        shards = {router.route(make_window(i), "q") for i in range(10)}
        assert len(shards) == 1  # same key -> same shard

    def test_key_and_attribute_conflict(self):
        with pytest.raises(ValueError):
            HashKeyRouter(key=lambda w: 0, attribute="x")


class TestLeastLoaded:
    def test_prefers_idle_shard(self):
        router = LeastLoadedRouter().bind(3)
        assert router.route(make_window(0), "q") == 0
        router.on_dispatch(0, 100)
        assert router.route(make_window(1), "q") == 1
        router.on_dispatch(1, 100)
        assert router.route(make_window(2), "q") == 2
        router.on_dispatch(2, 5)
        # shard 2 has by far the least outstanding work
        assert router.route(make_window(3), "q") == 2

    def test_completion_feedback_frees_load(self):
        router = LeastLoadedRouter().bind(2)
        router.on_dispatch(0, 50)
        router.on_dispatch(1, 10)
        assert router.route(make_window(0), "q") == 1
        router.on_complete(0, 50)
        assert router.route(make_window(1), "q") == 0
        assert router.metrics()["loads"] == [0, 10]


class TestConsistentHash:
    """Membership changes must move only the rebalanced key ranges."""

    KEYS = 2000

    def placements(self, router):
        return {
            i: router.route(make_window(i), "q") for i in range(self.KEYS)
        }

    def test_deterministic_and_reasonably_balanced(self):
        router = ConsistentHashRouter().bind(4)
        first = self.placements(router)
        second = self.placements(router)
        assert first == second
        per_shard = [list(first.values()).count(s) for s in range(4)]
        assert all(count > 0 for count in per_shard)
        # vnode smoothing: no shard owns more than half the ring
        assert max(per_shard) < self.KEYS / 2

    def test_join_moves_at_most_k_over_n(self):
        """Adding one shard to N=4 must move ≤ K/N keys -- the whole
        point of consistent hashing vs mod-N (which moves ~K·(1-1/N))."""
        router = ConsistentHashRouter().bind(4)
        before = self.placements(router)
        new_shard = router.add_shard()
        after = self.placements(router)
        moved = [i for i in before if before[i] != after[i]]
        assert 0 < len(moved) <= self.KEYS / 4
        # every moved key landed on the new shard, nothing reshuffled
        # between the surviving shards
        assert all(after[i] == new_shard for i in moved)

    def test_leave_moves_at_most_k_over_n(self):
        router = ConsistentHashRouter().bind(5)
        before = self.placements(router)
        retired = router.remove_shard()
        after = self.placements(router)
        moved = [i for i in before if before[i] != after[i]]
        assert 0 < len(moved) <= self.KEYS / 5
        # only keys of the retired shard moved; everyone else stayed put
        assert all(before[i] == retired for i in moved)

    def test_join_then_leave_restores_the_mapping(self):
        router = ConsistentHashRouter().bind(4)
        before = self.placements(router)
        router.add_shard()
        router.remove_shard()
        assert self.placements(router) == before

    def test_remove_last_shard_rejected(self):
        router = ConsistentHashRouter().bind(1)
        with pytest.raises(ValueError, match="last shard"):
            router.remove_shard()

    def test_attribute_key_sticks_entities_to_shards(self):
        router = ConsistentHashRouter(attribute="symbol").bind(4)

        def window_for(symbol, window_id):
            opener = Event(
                "T", seq=window_id, timestamp=0.0, attrs={"symbol": symbol}
            )
            return make_window(window_id, [opener])

        a = {router.route(window_for("ACME", i), "q") for i in range(10)}
        b = {router.route(window_for("BETA", i + 10), "q") for i in range(10)}
        assert len(a) == 1 and len(b) == 1

    def test_metrics_expose_ring_shape(self):
        router = ConsistentHashRouter().bind(3)
        router.route(make_window(0), "q")
        metrics = router.metrics()
        assert metrics["policy"] == "consistent-hash"
        assert metrics["routed"] == 1
        assert metrics["ring_size"] == 3 * metrics["vnodes"]


class TestRegistry:
    def test_names(self):
        assert available_routers() == [
            "consistent-hash",
            "hash",
            "least-loaded",
            "round-robin",
        ]

    def test_create_by_name_binds(self):
        router = create_router("round-robin", 4)
        assert isinstance(router, RoundRobinRouter)
        assert router.shards == 4

    def test_default_is_round_robin(self):
        assert isinstance(create_router(None, 2), RoundRobinRouter)

    def test_instance_passthrough(self):
        instance = LeastLoadedRouter()
        assert create_router(instance, 3) is instance
        assert instance.shards == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown router"):
            create_router("nope", 2)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            create_router(42, 2)

    def test_bad_shards(self):
        with pytest.raises(ValueError):
            Router().bind(0)

    def test_metrics_count_routed(self):
        router = create_router("round-robin", 2)
        for i in range(5):
            router.route(make_window(i), "q")
        assert router.metrics() == {"policy": "round-robin", "routed": 5}
