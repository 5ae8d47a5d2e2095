import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplify.graphs import (
    AmplifiedGraph,
    ParseError,
    amplified_transitive_closure,
    apply_permutation,
    bits,
    parse_graph,
    t_move,
    t_move_fixpoint,
    to_text,
    weakly_connected_components,
)

from conftest import all_graphs, make_graph, random_graph


class TestParse:
    def test_two_vertices_one_edge(self):
        g = parse_graph("vertex a\nvertex b\nedge a b\n")
        assert g.names == ("a", "b")
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert not g.has_edge(0, 0) and not g.has_edge(1, 1)

    def test_self_loop(self):
        g = parse_graph("vertex a\nedge a a\n")
        assert g.vertex_count == 1 and g.has_edge(0, 0)

    def test_undeclared_vertex_has_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("vertex a\nedge a b\n")
        assert exc.value.line == 2
        assert "b" in str(exc.value)

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("vertex a\nvertex a\n")
        assert exc.value.line == 2

    def test_duplicate_edges_idempotent(self):
        g = parse_graph("vertex a\nvertex b\nedge a b\nedge a b\n")
        assert g.edge_count() == 1

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\nvertex a\n  \n# more\nvertex b\nedge a b\n")
        assert g.vertex_count == 2

    def test_bad_directive(self):
        with pytest.raises(ParseError):
            parse_graph("node a\n")

    def test_bad_name(self):
        with pytest.raises(ParseError):
            parse_graph("vertex a-b\n")

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 6))
            assert parse_graph(to_text(g)) == g


def _bfs_components(g):
    n = g.vertex_count
    und = [0] * n
    for v, w in g.edges():
        und[v] |= 1 << w
        und[w] |= 1 << v
    comp = [-1] * n
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        queue = deque([start])
        comp[start] = count
        while queue:
            v = queue.popleft()
            for w in bits(und[v]):
                if comp[w] < 0:
                    comp[w] = count
                    queue.append(w)
        count += 1
    return tuple(comp), count


class TestComponents:
    def test_singleton(self, g1):
        assert weakly_connected_components(g1).component_count == 1

    def test_edge_plus_isolated(self, g5):
        part = weakly_connected_components(g5)
        assert part.component_count == 2
        assert part.component_of == (0, 0, 1)

    def test_path_connected(self, g3):
        assert weakly_connected_components(g3).component_count == 1

    def test_against_bfs(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 7), density=0.25)
            part = weakly_connected_components(g)
            comp, count = _bfs_components(g)
            assert part.component_count == count
            assert part.component_of == comp


class TestTMove:
    def test_path_to_triangle(self, g3, triangle):
        assert t_move(g3, 0, 1, 2).rows == triangle.rows

    def test_idempotent_on_triangle(self, triangle):
        assert t_move(triangle, 0, 1, 2).rows == triangle.rows

    def test_precondition(self, g2):
        with pytest.raises(ValueError, match="b -> b"):
            t_move(g2, 0, 1, 1)


class TestClosure:
    def test_path(self, g3, triangle):
        assert amplified_transitive_closure(g3).rows == triangle.rows

    def test_loop_fixed(self, g4):
        assert amplified_transitive_closure(g4).rows == g4.rows

    def test_single_edge_fixed(self, g2):
        assert amplified_transitive_closure(g2).rows == g2.rows

    @given(st.integers(0, 2**36 - 1), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, packed, n):
        mask = (1 << n) - 1
        g = make_graph([(packed >> (n * i)) & mask for i in range(n)])
        once = amplified_transitive_closure(g)
        assert amplified_transitive_closure(once).rows == once.rows

    def test_matches_path_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 6), density=0.3)
            t = amplified_transitive_closure(g)
            n = g.vertex_count
            for v in range(n):
                # reach in >= 1 steps by BFS from out-neighbours
                seen = g.rows[v]
                frontier = seen
                while frontier:
                    nxt = 0
                    for u in bits(frontier):
                        nxt |= g.rows[u]
                    frontier = nxt & ~seen
                    seen |= nxt
                assert t.rows[v] == seen


class TestTMoveFixpoint:
    def test_equals_closure_small(self):
        for n in range(1, 4):
            for g in all_graphs(n):
                assert t_move_fixpoint(g).rows == amplified_transitive_closure(g).rows

    def test_equals_closure_random_to_8(self):
        rng = random.Random(5)
        for _ in range(150):
            g = random_graph(rng, rng.randint(4, 8), density=0.3)
            assert t_move_fixpoint(g).rows == amplified_transitive_closure(g).rows


class TestHelpers:
    def test_apply_permutation_relabels(self, g2):
        g = apply_permutation(g2, (1, 0))
        assert g.names == ("b", "a")
        assert g.has_edge(1, 0) and not g.has_edge(0, 1)
