import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplify.reachability import build_reachability, exact_reach
from amplify.skewlattice import PrincipalHereditary, principal_contains

from conftest import (
    PAST_POWER_CAP,
    all_graphs,
    chained_cycle_union,
    cycle_union,
    make_graph,
    random_graph,
    reach_sets_by_length,
)


def walk_exists(g, v, w, k):
    """Literal enumeration of vertex sequences along edges (tiny cases only)."""
    n = g.vertex_count
    for seq in itertools.product(range(n), repeat=k + 1):
        if seq[0] != v or seq[-1] != w:
            continue
        if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
            return True
    return False


class TestBuild:
    def test_path_graph_powers(self, g3):
        t = build_reachability(g3)
        assert (t.preperiod, t.period) == (3, 1)
        assert t.walks == (((1, 2, 4, 0), 3, 1), ((2, 4, 0), 2, 1), ((4, 0), 1, 1))
        assert t.walks[0][0][2] == 4  # only a->c at length 2

    def test_loop_least_repeat(self, g4):
        t = build_reachability(g4)
        assert (t.preperiod, t.period) == (0, 1)

    def test_no_edges(self, g1):
        t = build_reachability(g1)
        assert (t.preperiod, t.period) == (1, 1)

    def test_identity_first(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 6))
            t = build_reachability(g)
            for v, (frontiers, p, q) in enumerate(t.walks):
                assert frontiers[0] == 1 << v
                assert len(frontiers) == p + q
            assert t.preperiod == max(p for _, p, _ in t.walks)
            assert t.period == math.lcm(*(q for _, _, q in t.walks))

    def test_two_cycle_period(self):
        g = make_graph([2, 1])  # x0 <-> x1
        t = build_reachability(g)
        assert (t.preperiod, t.period) == (0, 2)


def first_repeat(seq):
    """(i, j - i) for the first j whose item equals an earlier item i."""
    index = {}
    for j, item in enumerate(seq):
        if item in index:
            return index[item], j - index[item]
        index[item] = j
    raise AssertionError("no repeat within the sequence")


class TestWalksAgainstPowers:
    """The per-vertex walks against the boolean powers, computed directly."""

    @staticmethod
    def graphs():
        for n in range(1, 4):
            yield from all_graphs(n)
        rng = random.Random(53)
        for _ in range(300):
            yield random_graph(rng, rng.randint(4, 7), density=rng.uniform(0.1, 0.6))

    def test_matches_first_repeat_of_powers(self):
        # on 7 vertices a preperiod is at most 37 and a period at most 12
        horizon = 50
        for g in self.graphs():
            t = build_reachability(g)
            masks = reach_sets_by_length(g, horizon)
            assert (t.preperiod, t.period) == first_repeat(tuple(m) for m in masks)
            for v, (frontiers, p, q) in enumerate(t.walks):
                assert (p, q) == first_repeat(m[v] for m in masks)
                assert frontiers == tuple(m[v] for m in masks[: p + q])


class TestPastPowerCap:
    """Graphs whose boolean period, 4620, exceeds POWER_CAP while no
    vertex's own walk takes more than 11 steps to repeat."""

    def test_cycle_union(self):
        t = build_reachability(cycle_union(PAST_POWER_CAP))
        assert (t.preperiod, t.period) == (0, 4620)
        assert max(len(frontiers) for frontiers, _, _ in t.walks) == 11

    def test_chained_cycle_union(self):
        t = build_reachability(chained_cycle_union(PAST_POWER_CAP))
        assert (t.preperiod, t.period) == (77, 4620)

    def test_principal_contains_at_the_period(self):
        g = cycle_union(PAST_POWER_CAP)
        outer = PrincipalHereditary(g, 0, 0)
        assert principal_contains(PrincipalHereditary(g, 0, 4620), outer)
        assert not principal_contains(PrincipalHereditary(g, 0, 4619), outer)

    def test_hub_walk_still_capped(self):
        # a hub with an edge into each cycle: its own walk has period 4620
        firsts = itertools.accumulate(PAST_POWER_CAP[:-1], initial=0)
        hub = sum(2 << f for f in firsts)
        g = make_graph([hub] + [row << 1 for row in cycle_union(PAST_POWER_CAP).rows])
        with pytest.raises(RuntimeError, match="no repeat among the first 4096 walk frontiers"):
            build_reachability(g)


class TestExactReach:
    def test_unique_length_two_path(self, g3):
        t = build_reachability(g3)
        assert exact_reach(t, 0, 2, 2)
        assert not exact_reach(t, 0, 2, 1)

    def test_length_zero_is_equality(self):
        rng = random.Random(43)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 5))
            t = build_reachability(g)
            for v in range(g.vertex_count):
                for w in range(g.vertex_count):
                    assert exact_reach(t, v, w, 0) == (v == w)

    def test_negative_length(self, g2):
        t = build_reachability(g2)
        assert not exact_reach(t, 0, 1, -1)

    def test_matches_direct_powers_past_preperiod(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6), density=0.35)
            t = build_reachability(g)
            masks = reach_sets_by_length(g, t.preperiod + 3 * t.period)
            for k in range(t.preperiod, t.preperiod + 3 * t.period + 1):
                for v in range(g.vertex_count):
                    for w in range(g.vertex_count):
                        assert exact_reach(t, v, w, k) == bool(
                            (masks[k][v] >> w) & 1
                        )

    def test_matches_walk_enumeration_tiny(self):
        for n in range(1, 3):
            for g in all_graphs(n):
                t = build_reachability(g)
                for k in range(0, 6):
                    for v in range(n):
                        for w in range(n):
                            assert exact_reach(t, v, w, k) == walk_exists(g, v, w, k)

    @given(st.integers(0, 2**25 - 1), st.integers(1, 5), st.integers(0, 13))
    @settings(max_examples=300, deadline=None)
    def test_matches_forward_recursion(self, packed, n, k):
        mask = (1 << n) - 1
        g = make_graph([(packed >> (n * i)) & mask for i in range(n)])
        t = build_reachability(g)
        masks = reach_sets_by_length(g, k)
        for v in range(n):
            for w in range(n):
                assert exact_reach(t, v, w, k) == bool((masks[k][v] >> w) & 1)


def test_acyclic_period_one():
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(1, 6)
        rows = []
        for v in range(n):
            row = 0
            for w in range(v + 1, n):
                if rng.random() < 0.5:
                    row |= 1 << w
            rows.append(row)
        g = make_graph(rows)
        t = build_reachability(g)
        assert t.period == 1
        for k in range(n, n + 3):
            for v in range(n):
                for w in range(n):
                    assert not exact_reach(t, v, w, k)
