import random

import pytest

from amplify.graphs import bits, parse_graph
from amplify.reachability import build_reachability
from amplify.skewlattice import (
    FiniteHereditarySet,
    PrincipalHereditary,
    enumerate_hereditary,
    principal_contains,
    principal_set_members,
    skew_window,
    translate,
    unique_predecessor_elements,
)

from conftest import (
    PAST_POWER_CAP,
    all_graphs,
    cycle_union,
    is_witness,
    make_graph,
    random_graph,
    recover_from_lattice,
)


class TestSkewWindow:
    def test_single_edge_band(self, g2):
        w = skew_window(g2, 0, 1)
        assert w.graph.names == ("a@0", "b@0", "a@1", "b@1")
        assert list(w.graph.edges()) == [(0, 3)]

    def test_loop_unrolls_acyclically(self, g4):
        w = skew_window(g4, 0, 2)
        assert w.graph.names == ("a@0", "a@1", "a@2")
        assert list(w.graph.edges()) == [(0, 1), (1, 2)]
        # acyclic: some strict topological order exists by construction
        assert all(v < u for v, u in w.graph.edges())

    def test_trivial_band(self, g1):
        w = skew_window(g1, 0, 0)
        assert w.graph.vertex_count == 1 and w.graph.edge_count() == 0

    def test_negative_levels_in_names(self, g2):
        w = skew_window(g2, -1, 0)
        assert w.graph.names[0] == "a@-1"

    def test_empty_window_rejected(self, g1):
        with pytest.raises(ValueError):
            skew_window(g1, 2, 1)

    def test_vertex_count(self, g3):
        w = skew_window(g3, -2, 1)
        assert w.graph.vertex_count == 3 * 4


class TestTranslate:
    def test_shift(self, g2):
        h = PrincipalHereditary(g2, 0, 0)
        assert translate(h, 1).level == 1

    def test_inverse(self, g2):
        h = PrincipalHereditary(g2, 0, 5)
        assert translate(h, -5).level == 0

    def test_composition(self, g2):
        h = PrincipalHereditary(g2, 1, 0)
        assert translate(translate(h, 2), 3) == translate(h, 5)


class TestPrincipalContains:
    def test_edge_gives_containment(self, g2):
        t = build_reachability(g2)
        inner = PrincipalHereditary(g2, 1, 1)  # H(b, 1)
        outer = PrincipalHereditary(g2, 0, 0)  # H(a, 0)
        assert principal_contains(t, inner, outer)

    def test_reflexive(self, g3):
        t = build_reachability(g3)
        for v in range(3):
            h = PrincipalHereditary(g3, v, 0)
            assert principal_contains(t, h, h)

    def test_no_reverse_containment(self, g2):
        t = build_reachability(g2)
        inner = PrincipalHereditary(g2, 0, 1)  # H(a, 1)
        outer = PrincipalHereditary(g2, 1, 0)  # H(b, 0)
        assert not principal_contains(t, inner, outer)

    def test_mismatched_graphs_rejected(self, g2, g3):
        t = build_reachability(g2)
        with pytest.raises(ValueError):
            principal_contains(
                t, PrincipalHereditary(g2, 0, 0), PrincipalHereditary(g3, 0, 0)
            )

    def test_agrees_with_window_membership(self):
        # symbolic containment == bitset inclusion of the explicit member sets
        # whenever the window is deep enough to hold both sets
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(1, 5)
            # acyclic base so every member set is finite and fits a deep band
            rows = []
            for v in range(n):
                row = 0
                for w in range(v + 1, n):
                    if rng.random() < 0.5:
                        row |= 1 << w
                rows.append(row)
            g = make_graph(rows)
            t = build_reachability(g)
            window = skew_window(g, 0, n + 2)
            tokens = [
                PrincipalHereditary(g, v, lvl)
                for v in range(n)
                for lvl in range(0, 3)
            ]
            for inner in tokens:
                for outer in tokens:
                    explicit = principal_set_members(window, inner).issubset(
                        principal_set_members(window, outer)
                    )
                    assert principal_contains(t, inner, outer) == explicit

    def test_equivariance(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(1, 5)
            g = random_graph(rng, n)
            t = build_reachability(g)
            h1 = PrincipalHereditary(g, rng.randrange(n), rng.randint(-2, 2))
            h2 = PrincipalHereditary(g, rng.randrange(n), rng.randint(-2, 2))
            base = principal_contains(t, h1, h2)
            for k in range(-3, 4):
                assert (
                    principal_contains(t, translate(h1, k), translate(h2, k)) == base
                )

    def test_antisymmetry(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(1, 5)
            g = random_graph(rng, n)
            t = build_reachability(g)
            for v in range(n):
                for w in range(n):
                    for dv in range(-2, 3):
                        h1 = PrincipalHereditary(g, v, dv)
                        h2 = PrincipalHereditary(g, w, 0)
                        if principal_contains(t, h1, h2) and principal_contains(
                            t, h2, h1
                        ):
                            assert h1 == h2


class TestHereditaryEnumeration:
    def test_single_edge(self, g2):
        assert [s.members for s in enumerate_hereditary(g2)] == [0, 2, 3]

    def test_single_vertex(self, g1):
        assert [s.members for s in enumerate_hereditary(g1)] == [0, 1]

    def test_path(self, g3):
        assert [s.members for s in enumerate_hereditary(g3)] == [0, 4, 6, 7]

    def test_includes_empty_and_full(self):
        rng = random.Random(79)
        for _ in range(30):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            members = [s.members for s in enumerate_hereditary(g)]
            assert members[0] == 0 and members[-1] == (1 << n) - 1

    def test_every_set_hereditary(self):
        rng = random.Random(83)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 6))
            for s in enumerate_hereditary(g):
                for v in bits(s.members):
                    assert g.rows[v] & ~s.members == 0

    def test_scale_cap(self):
        g = make_graph([0] * 21)
        with pytest.raises(ValueError):
            enumerate_hereditary(g)


class TestUniquePredecessor:
    def test_single_edge(self, g2):
        assert [s.members for s in unique_predecessor_elements(enumerate_hereditary(g2))] == [2, 3]

    def test_single_vertex(self, g1):
        assert [s.members for s in unique_predecessor_elements(enumerate_hereditary(g1))] == [1]

    def test_path_chain(self, g3):
        up = unique_predecessor_elements(enumerate_hereditary(g3))
        assert [s.members for s in up] == [4, 6, 7]

    def test_acyclic_gives_principal_sets(self):
        # in any acyclic base, the unique-predecessor elements are exactly the
        # forward closures of single vertices
        rng = random.Random(89)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = []
            for v in range(n):
                row = 0
                for w in range(v + 1, n):
                    if rng.random() < 0.5:
                        row |= 1 << w
                rows.append(row)
            g = make_graph(rows)
            principal = set()
            for v in range(n):
                closure = 1 << v
                frontier = closure
                while frontier:
                    nxt = 0
                    for u in bits(frontier):
                        nxt |= g.rows[u]
                    frontier = nxt & ~closure
                    closure |= nxt
                principal.add(closure)
            up = {s.members for s in unique_predecessor_elements(enumerate_hereditary(g))}
            assert up == principal


class TestPrincipalSetMembers:
    def test_single_edge(self, g2):
        w = skew_window(g2, 0, 1)
        s = principal_set_members(w, PrincipalHereditary(g2, 0, 0))
        assert s.vertices() == (0, 3)  # a@0 and b@1

    def test_loop_unrolls(self, g4):
        w = skew_window(g4, 0, 2)
        s = principal_set_members(w, PrincipalHereditary(g4, 0, 0))
        assert s.vertices() == (0, 1, 2)

    def test_isolated_vertex(self, g1):
        w = skew_window(g1, 0, 3)
        s = principal_set_members(w, PrincipalHereditary(g1, 0, 0))
        assert s.vertices() == (0,)

    def test_window_past_power_cap(self):
        # the band alone decides membership, whatever the base graph's period
        g = cycle_union(PAST_POWER_CAP)
        w = skew_window(g, 0, 2)
        s = principal_set_members(w, PrincipalHereditary(g, 0, 0))
        assert s.vertices() == (0, 31, 62)  # x0@0, x1@1, x2@2

    def test_level_must_lie_in_window(self, g2):
        w = skew_window(g2, 0, 1)
        with pytest.raises(ValueError):
            principal_set_members(w, PrincipalHereditary(g2, 0, -1))

    def test_vertex_must_lie_in_base(self, g2):
        # vertex 2 of a 2-vertex base would otherwise index a@1
        w = skew_window(g2, 0, 1)
        with pytest.raises(ValueError):
            principal_set_members(w, PrincipalHereditary(g2, 2, 0))

    def test_members_hereditary_in_window(self):
        rng = random.Random(97)
        for _ in range(30):
            n = rng.randint(1, 4)
            g = random_graph(rng, n)
            w = skew_window(g, 0, 4)
            s = principal_set_members(w, PrincipalHereditary(g, rng.randrange(n), rng.randint(0, 2)))
            for v in bits(s.members):
                assert w.graph.rows[v] & ~s.members == 0


class TestLatticeReconstruction:
    """E read back from the lattice of the band [0, 1] and translation alone."""

    def _check(self, g):
        n = g.vertex_count
        window = skew_window(g, 0, 1)
        lattice = enumerate_hereditary(window.graph)
        by_members = {x.members: x for x in lattice}
        level0 = (1 << n) - 1

        def tau(x):
            return by_members[(x.members & level0) << n]

        generators, rows = recover_from_lattice(lattice, tau)
        # H(v, 0) is the generator that holds (v, 0)
        phi = [
            next(
                i
                for i, x in enumerate(generators)
                if (x.members >> window.vertex_index(v, 0)) & 1
            )
            for v in range(n)
        ]
        assert sorted(phi) == list(range(len(generators)))
        assert is_witness(g, make_graph(rows), phi)

    def test_exhaustive_small(self):
        for n in range(1, 4):
            for g in all_graphs(n):
                self._check(g)

    def test_random_four_vertices(self):
        rng = random.Random(101)
        for _ in range(200):
            self._check(random_graph(rng, 4))
