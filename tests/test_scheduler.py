import itertools
import random

import pytest

from repro.core.plan import infer_rule_dependencies
from repro.core.rules import layer, polygons
from repro.core.scheduler import (
    SHARD_OVERSUBSCRIPTION,
    greedy_balanced_shards,
    round_robin_interleave,
    shard_count,
)


class TestRuleDependencies:
    def test_shape_rule_gates_layer_rules(self):
        deck = [
            layer(1).polygons().is_rectilinear().named("SHAPE1"),
            layer(1).width().greater_than(5).named("W1"),
            layer(2).width().greater_than(5).named("W2"),
        ]
        deps = infer_rule_dependencies(deck)
        assert deps == {"SHAPE1": (), "W1": ("SHAPE1",), "W2": ()}

    def test_global_shape_rule_gates_everything(self):
        deck = [
            polygons().is_rectilinear().named("SHAPE"),
            layer(1).width().greater_than(5).named("W1"),
        ]
        assert infer_rule_dependencies(deck)["W1"] == ("SHAPE",)


class TestShards:
    def test_lpt_balance(self):
        shards = greedy_balanced_shards([10, 9, 8, 1, 1, 1], 2)
        totals = sorted(sum((10, 9, 8, 1, 1, 1)[i] for i in s) for s in shards)
        # LPT places each row into the lightest shard: 13/17, never 27/3.
        assert totals == [13, 17]

    def test_deterministic_and_sorted_members(self):
        weights = [3, 7, 2, 7, 5, 1, 4]
        first = greedy_balanced_shards(weights, 3)
        assert first == greedy_balanced_shards(weights, 3)
        for shard in first:
            assert shard == sorted(shard)

    def test_every_weighted_item_assigned_once(self):
        weights = [4, 0, 2, 9, 0, 1]
        shards = greedy_balanced_shards(weights, 2)
        members = sorted(i for shard in shards for i in shard)
        assert members == [0, 2, 3, 5]  # zero-weight rows dropped

    def test_all_zero_weights_yield_no_shards(self):
        assert greedy_balanced_shards([0, 0, 0], 4) == []

    def test_bad_shard_request(self):
        with pytest.raises(ValueError):
            greedy_balanced_shards([1, 2], 0)

    def test_empty_weights_yield_no_shards(self):
        assert greedy_balanced_shards([], 4) == []

    def test_single_weighted_item_single_shard(self):
        # One weighted row must never fan out into empty sibling shards.
        assert greedy_balanced_shards([7], 4) == [[0]]
        assert greedy_balanced_shards([0, 7, 0], 4) == [[1]]

    def test_single_shard_takes_every_item(self):
        assert greedy_balanced_shards([3, 1, 2], 1) == [[0, 1, 2]]

    def test_shard_count_oversubscribes(self):
        assert shard_count(100, 4) == 4 * SHARD_OVERSUBSCRIPTION
        assert shard_count(3, 4) == 3  # never more shards than rows
        assert shard_count(0, 4) == 1

    def test_shard_count_rejects_no_jobs(self):
        with pytest.raises(ValueError):
            shard_count(10, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_lpt_within_four_thirds_of_optimal(self, seed):
        rng = random.Random(seed)
        weights = [rng.randint(0, 20) for _ in range(rng.randint(2, 8))]
        num_shards = rng.randint(2, 3)
        shards = greedy_balanced_shards(weights, num_shards)
        weighted = sorted(i for i, w in enumerate(weights) if w > 0)
        assert sorted(i for shard in shards for i in shard) == weighted
        loads = [sum(weights[i] for i in shard) for shard in shards]
        assert loads == sorted(loads, reverse=True)  # heaviest shard first
        optimal = min(
            max(
                sum(w for w, s in zip(weights, assignment) if s == shard)
                for shard in range(num_shards)
            )
            for assignment in itertools.product(range(num_shards), repeat=len(weights))
        )
        assert 3 * max(loads, default=0) <= 4 * optimal


class TestRoundRobinInterleave:
    def test_takes_one_item_from_each_in_turn(self):
        merged = round_robin_interleave([["a1", "a2", "a3"], ["b1", "b2"]])
        assert merged == ["a1", "b1", "a2", "b2", "a3"]

    def test_empty_sequences_are_skipped(self):
        assert round_robin_interleave([[], [1, 2], []]) == [1, 2]
        assert round_robin_interleave([]) == []
        assert round_robin_interleave([[], []]) == []

    def test_accepts_any_iterable_sequence(self):
        assert round_robin_interleave([(1, 2), range(10, 12)]) == [1, 10, 2, 11]

    @pytest.mark.parametrize("seed", range(4))
    def test_keeps_each_sequence_in_order(self, seed):
        rng = random.Random(seed)
        sequences = [
            [(owner, k) for k in range(rng.randint(0, 6))]
            for owner in range(rng.randint(1, 5))
        ]
        merged = round_robin_interleave(sequences)
        assert sorted(merged) == sorted(item for seq in sequences for item in seq)
        for owner, seq in enumerate(sequences):
            assert [item for item in merged if item[0] == owner] == seq
        # No requester gets a second item in a round before every requester
        # still holding items has had one.
        rounds = [k for _, k in merged]
        assert rounds == sorted(rounds)
