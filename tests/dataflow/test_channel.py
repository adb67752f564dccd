"""Channel semantics: capacity, policy, typing and counters."""

import pytest

from repro.dataflow import Channel, ChannelFullError, ChannelPolicy


class TestFifo:
    def test_put_get_preserves_order(self):
        channel = Channel("c")
        for item in (1, 2, 3):
            channel.put(item)
        assert [channel.get() for _ in range(3)] == [1, 2, 3]
        assert channel.empty

    def test_drain_returns_everything_in_order(self):
        channel = Channel("c")
        for item in "abc":
            channel.put(item)
        assert channel.drain() == ["a", "b", "c"]
        assert channel.drain() == []

    def test_get_on_empty_raises(self):
        with pytest.raises(IndexError):
            Channel("c").get()

    def test_counters(self):
        channel = Channel("c", capacity=4)
        channel.put(1)
        channel.put(2)
        channel.get()
        stats = channel.stats
        assert (stats.puts, stats.gets, stats.occupancy) == (2, 1, 1)
        assert stats.high_water == 2
        assert stats.utilisation == pytest.approx(0.5)


class TestCapacityAndPolicy:
    def test_block_policy_refuses_when_full(self):
        channel = Channel("c", capacity=1, policy=ChannelPolicy.BLOCK)
        assert channel.offer("first")
        assert not channel.offer("second")  # refused, not buffered
        assert channel.stats.refusals == 1
        assert channel.drain() == ["first"]

    def test_block_policy_put_raises_when_full(self):
        channel = Channel("c", capacity=1)
        channel.put("first")
        with pytest.raises(ChannelFullError):
            channel.put("second")

    def test_drop_policy_sheds_and_counts(self):
        channel = Channel("c", capacity=2, policy=ChannelPolicy.DROP)
        refused = channel.extend_offer([1, 2, 3, 4])
        assert refused == []  # DROP always consumes
        stats = channel.stats
        # each offered item is counted exactly once: buffered or shed
        assert (stats.puts, stats.drops, stats.refusals) == (2, 2, 0)
        assert channel.drain() == [1, 2]  # oldest survive

    def test_zero_capacity_block_refuses_everything(self):
        channel = Channel("c", capacity=0)
        assert not channel.offer(1)
        assert channel.extend_offer([1, 2, 3]) == [1, 2, 3]
        # extend_offer stops at the first refusal, so each call counts one
        assert channel.stats.refusals == 2
        assert channel.empty

    def test_zero_capacity_drop_sheds_everything(self):
        channel = Channel("c", capacity=0, policy=ChannelPolicy.DROP)
        assert channel.extend_offer([1, 2, 3]) == []
        assert channel.stats.drops == 3
        assert channel.empty

    def test_unbounded_channel_never_refuses(self):
        channel = Channel("c", capacity=None)
        assert channel.extend_offer(range(1000)) == []
        assert channel.occupancy == 1000
        assert channel.stats.utilisation == 0.0

    def test_extend_offer_stops_at_first_refusal(self):
        # FIFO order must never be violated: once one item is refused,
        # everything after it must be refused too.
        channel = Channel("c", capacity=2)
        refused = channel.extend_offer([1, 2, 3, 4])
        assert refused == [3, 4]
        assert channel.drain() == [1, 2]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Channel("c", capacity=-1)

    def test_policy_must_be_enum(self):
        with pytest.raises(TypeError):
            Channel("c", policy="drop")


class TestTyping:
    def test_dtype_enforced_on_entry(self):
        channel = Channel("c", dtype=int)
        channel.put(1)
        with pytest.raises(TypeError, match="carries int"):
            channel.put("nope")

    def test_object_dtype_disables_checking(self):
        channel = Channel("c")
        channel.put(object())
        channel.put("anything")


class TestClear:
    def test_clear_discards_without_counting_gets(self):
        channel = Channel("c")
        channel.extend_offer([1, 2, 3])
        assert channel.clear() == 3
        assert channel.empty
        assert channel.stats.gets == 0

    def test_buffered_items_stay_in_order_until_cleared(self):
        channel = Channel("c", capacity=4)
        channel.extend_offer(["a", "b", "c"])
        assert channel.get() == "a"
        channel.put("d")
        assert channel.clear() == 3  # "b", "c", "d" were still buffered
        channel.put("e")  # a cleared channel keeps working
        assert channel.drain() == ["e"]
        stats = channel.stats
        assert (stats.puts, stats.gets, stats.high_water) == (5, 2, 3)
