"""ShardedStateMap: tenant namespacing, quotas, shard sizing."""

import pytest

from repro.state import QUOTA_DROP_CAUSE, ShardedStateMap


class TestNamespacing:
    def test_tenants_never_alias(self):
        m = ShardedStateMap(num_shards=4, capacity=64)
        m.update("flow", "a-state", tenant_id=1)
        m.update("flow", "b-state", tenant_id=2)
        assert m.lookup("flow", tenant_id=1) == "a-state"
        assert m.lookup("flow", tenant_id=2) == "b-state"
        assert m.delete("flow", tenant_id=1)
        assert m.lookup("flow", tenant_id=1) is None
        assert m.lookup("flow", tenant_id=2) == "b-state"

    def test_stored_keys_carry_tenant(self):
        m = ShardedStateMap(num_shards=2, capacity=8)
        m.update("k", 1, tenant_id=7)
        assert list(m.items()) == [((7, "k"), 1)]

    def test_shard_of_deterministic(self):
        a = ShardedStateMap(num_shards=8, capacity=64, seed=3)
        b = ShardedStateMap(num_shards=8, capacity=64, seed=3)
        for i in range(50):
            assert a.shard_of(0, f"k{i}") == b.shard_of(0, f"k{i}")

    def test_keys_spread_across_shards(self):
        m = ShardedStateMap(num_shards=8, capacity=1024)
        for i in range(400):
            m.update(f"k{i}", i)
        entries = m.stats_snapshot()["shard_entries"]
        assert sum(entries) == 400
        assert all(count > 0 for count in entries)


class TestQuota:
    def test_quota_refuses_new_entries_only(self):
        m = ShardedStateMap(num_shards=2, capacity=64, tenant_quota=2)
        assert m.update("a", 1, tenant_id=0)
        assert m.update("b", 2, tenant_id=0)
        assert not m.update("c", 3, tenant_id=0)  # new entry: refused
        assert m.update("a", 10, tenant_id=0)     # overwrite: allowed
        assert m.lookup("a") == 10
        assert m.lookup("c") is None
        assert m.quota_drops == {0: 1}

    def test_increment_counts_under_quota(self):
        m = ShardedStateMap(num_shards=2, capacity=64, tenant_quota=1)
        assert m.increment("a") and m.increment("a")
        assert m.lookup("a") == 2
        assert not m.increment("b")  # new entry past the quota: refused
        assert m.lookup("b") is None
        assert m.quota_drops == {0: 1}

    def test_noisy_tenant_degrades_only_itself(self):
        m = ShardedStateMap(num_shards=2, capacity=64, tenant_quota=1)
        m.update("x", 1, tenant_id=0)
        for i in range(5):
            m.update(f"noise{i}", i, tenant_id=1)
        assert m.update("y", 2, tenant_id=2)
        assert m.quota_drops == {1: 4}
        assert m.tenant_entries(1) == 1

    def test_delete_returns_headroom(self):
        m = ShardedStateMap(num_shards=2, capacity=64, tenant_quota=1)
        m.update("a", 1, tenant_id=0)
        assert not m.update("b", 2, tenant_id=0)
        assert m.delete("a", tenant_id=0)
        assert m.update("b", 2, tenant_id=0)
        assert m.tenant_entries(0) == 1

    def test_drop_cause_in_snapshot(self):
        m = ShardedStateMap(num_shards=2, capacity=64, tenant_quota=1)
        m.update("a", 1, tenant_id=3)
        m.update("b", 2, tenant_id=3)
        snap = m.stats_snapshot()
        assert snap["drop_cause"] == QUOTA_DROP_CAUSE
        assert snap["quota_drops"] == {3: 1}
        assert snap["tenant_entries"] == {3: 1}


class TestSizing:
    def test_grow_events_counted(self):
        # Deliberately undersized: shards must double to hold the load.
        m = ShardedStateMap(num_shards=2, capacity=2)
        for i in range(200):
            m.update(f"k{i}", i)
        assert len(m) == 200
        assert m.grow_events > 0
        assert m.stats_snapshot()["grow_events"] == m.grow_events

    def test_well_sized_map_never_grows(self):
        m = ShardedStateMap(num_shards=4, capacity=4096)
        for i in range(100):
            m.update(f"k{i}", i)
        assert m.grow_events == 0

    def test_clear_resets_everything(self):
        m = ShardedStateMap(num_shards=2, capacity=64, tenant_quota=1)
        m.update("a", 1)
        m.update("b", 2)
        m.clear()
        assert len(m) == 0
        assert m.tenant_entries(0) == 0
        assert m.quota_drops == {}

    @pytest.mark.parametrize("capacity", [2, 4096])
    def test_reset_replays_like_a_fresh_map(self, capacity):
        # Undersized shards grow and displace entries; reset must still
        # reproduce a new map's behaviour exactly (geometry, grow count).
        def fill(m):
            resident = [m.update(f"k{i}", i, tenant_id=i % 3) for i in range(300)]
            return resident, m.stats_snapshot(), list(m.items())

        m = ShardedStateMap(num_shards=2, capacity=capacity, tenant_quota=90)
        first = fill(m)
        m.reset()
        assert len(m) == 0 and m.grow_events == 0 and m.quota_drops == {}
        assert fill(m) == first
        assert first == fill(ShardedStateMap(num_shards=2, capacity=capacity,
                                             tenant_quota=90))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ShardedStateMap(num_shards=0)
        with pytest.raises(ValueError):
            ShardedStateMap(num_shards=4, capacity=2)
        with pytest.raises(ValueError):
            ShardedStateMap(tenant_quota=0)
