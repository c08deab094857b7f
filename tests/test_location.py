"""The zone-scoped position registry."""

from adhocloc.location import PositionRegistry


class TestPositionRegistry:
    def test_record_and_lookup(self):
        reg = PositionRegistry(3)
        reg.record(1, 7, 10.0, 20.0, 0.5)
        entry = reg.lookup(1, 7)
        assert (entry.node, entry.x, entry.y, entry.zone) == (7, 10.0, 20.0, 1)
        assert entry.reported_at == 0.5
        assert reg.lookup(0, 7) is None

    def test_a_node_lives_in_at_most_one_zone(self):
        reg = PositionRegistry(2)
        reg.record(0, 4, 1.0, 1.0, 0.0)
        reg.record(1, 4, 2.0, 2.0, 1.0)
        assert reg.zone_holding(4) == 1
        assert reg.lookup(0, 4) is None
        assert reg.lookup(1, 4).x == 2.0
        assert reg.size(0) == 0 and reg.size(1) == 1

    def test_rerecording_in_place_updates_the_entry(self):
        reg = PositionRegistry(2)
        reg.record(0, 4, 1.0, 1.0, 0.0)
        reg.record(0, 4, 5.0, 6.0, 2.0)
        entry = reg.lookup(0, 4)
        assert (entry.x, entry.y, entry.reported_at) == (5.0, 6.0, 2.0)
        assert reg.size(0) == 1

    def test_drop_removes_only_the_named_zone(self):
        reg = PositionRegistry(2)
        reg.record(0, 4, 1.0, 1.0, 0.0)
        reg.drop(1, 4)                      # wrong zone: no effect
        assert reg.zone_holding(4) == 0
        reg.drop(0, 4)
        assert reg.zone_holding(4) is None
        assert reg.lookup(0, 4) is None

    def test_dropping_an_absent_node_is_harmless(self):
        reg = PositionRegistry(1)
        reg.drop(0, 99)
        assert reg.size(0) == 0
