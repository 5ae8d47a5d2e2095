import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplify import kernels
from amplify.graphs import apply_permutation, parse_graph
from amplify.isomorph import canonical_form, canonical_permutation, digraph_isomorphism

from conftest import (
    all_graphs,
    brute_force_isomorphism,
    cycle_union,
    is_witness,
    make_graph,
    random_graph,
    reference_canonical_perm,
    relabeled_image,
)

SYMMETRIC_FAMILIES = ("edgeless", "complete", "closure", "cycles", "copies")


def symmetric_graph(family, n, rng):
    """A randomly relabeled member of a symmetric family on n >= 1 vertices.

    ``closure`` is every edge including loops: the amplified transitive
    closure of any strongly connected graph.  ``copies`` is disjoint copies
    of one random graph whose size divides n.
    """
    full = (1 << n) - 1
    if family == "edgeless":
        g = make_graph([0] * n)
    elif family == "complete":
        g = make_graph([full & ~(1 << v) for v in range(n)])
    elif family == "closure":
        g = make_graph([full] * n)
    elif family == "cycles":
        lengths = []
        while sum(lengths) < n:
            lengths.append(rng.randint(1, n - sum(lengths)))
        g = cycle_union(lengths)
    else:
        size = rng.choice([c for c in range(1, n + 1) if n % c == 0])
        one = random_graph(rng, size).rows
        g = make_graph([row << start for start in range(0, n, size) for row in one])
    phi = list(range(n))
    rng.shuffle(phi)
    return relabeled_image(g, phi, prefix="x")


class TestIsomorphism:
    def test_relabeled_edge(self, g2):
        h = parse_graph("vertex x\nvertex y\nedge x y\n")
        assert digraph_isomorphism(g2, h) == (0, 1)

    def test_edge_count_mismatch(self, g3, triangle):
        assert digraph_isomorphism(g3, triangle) is None

    def test_component_order_swapped(self, g5):
        h = parse_graph("vertex c\nvertex a\nvertex b\nedge a b\n")
        phi = digraph_isomorphism(g5, h)
        assert phi is not None and is_witness(g5, h, phi)
        assert brute_force_isomorphism(g5, h) is not None

    def test_size_mismatch(self, g1, g2):
        assert digraph_isomorphism(g1, g2) is None

    def test_empty(self):
        assert digraph_isomorphism(make_graph([]), make_graph([])) == ()

    def test_matches_brute_force_exhaustive_small(self):
        graphs2 = list(all_graphs(2))
        for g, h in itertools.product(graphs2, graphs2):
            assert digraph_isomorphism(g, h) == brute_force_isomorphism(g, h)

    def test_matches_brute_force_random(self):
        rng = random.Random(13)
        for _ in range(400):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                h = apply_permutation(g, perm, [f"y{i}" for i in range(n)])
            else:
                h = random_graph(rng, n, prefix="y")
            assert digraph_isomorphism(g, h) == brute_force_isomorphism(g, h)


class TestCanonicalForm:
    def test_relabeling_invariant(self, g2):
        h = parse_graph("vertex x\nvertex y\nedge x y\n")
        assert canonical_form(g2) == canonical_form(h)

    def test_distinguishes_non_isomorphic(self, g3, triangle):
        assert canonical_form(g3) != canonical_form(triangle)

    def test_single_vertex(self, g1):
        assert canonical_form(g1) == "vertex v0\n"

    def test_reparses_to_isomorphic(self):
        rng = random.Random(17)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 7))
            again = parse_graph(canonical_form(g))
            assert canonical_form(again) == canonical_form(g)

    def test_invariant_under_all_permutations(self):
        rng = random.Random(19)
        cases = [random_graph(rng, n) for n in range(1, 7) for _ in range(6)]
        for g in cases:
            cf = canonical_form(g)
            for perm in itertools.permutations(range(g.vertex_count)):
                assert canonical_form(apply_permutation(g, perm)) == cf

    def test_separates_iso_classes_exhaustively(self):
        # on 3 vertices: equal canonical forms iff brute-force isomorphic
        graphs = list(all_graphs(3))
        forms = [canonical_form(g) for g in graphs]
        rng = random.Random(23)
        for _ in range(2000):
            i, j = rng.randrange(len(graphs)), rng.randrange(len(graphs))
            same = forms[i] == forms[j]
            assert same == (brute_force_isomorphism(graphs[i], graphs[j]) is not None)


class TestCanonicalKernel:
    def test_canonical_perm_minimizes(self):
        # kernel result must attain the minimum corner-order key over all perms
        def corner_key(g, p):
            key = []
            for k in range(len(p)):
                seg = [1 if g.has_edge(p[k], p[i]) else 0 for i in range(k + 1)]
                seg += [1 if g.has_edge(p[i], p[k]) else 0 for i in range(k)]
                key.extend(seg)
            return tuple(key)

        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            g = random_graph(rng, n)
            perm = kernels.canonical_perm(n, g.rows)
            best = min(
                corner_key(g, p) for p in itertools.permutations(range(n))
            )
            assert corner_key(g, perm) == best


class TestCanonicalPruning:
    """The automorphism-pruned kernel returns the unpruned kernel's labeling."""

    def test_matches_reference_exhaustive_small(self):
        for n in range(4):
            for g in all_graphs(n):
                assert kernels.canonical_perm(n, g.rows) == reference_canonical_perm(
                    n, g.rows
                )

    def test_matches_reference_on_symmetric_families(self):
        rng = random.Random(37)
        for family in SYMMETRIC_FAMILIES:
            for n in range(1, 8):
                for _ in range(6):
                    g = symmetric_graph(family, n, rng)
                    assert kernels.canonical_perm(
                        n, g.rows
                    ) == reference_canonical_perm(n, g.rows), (family, g.rows)

    def test_matches_reference_on_cycle_unions(self):
        # automorphism groups far from the full symmetric group: pruning by
        # automorphisms that move the prefix changes the labeling here
        def partitions(total, smallest=2):
            if total == 0:
                yield ()
            for first in range(smallest, total + 1):
                for rest in partitions(total - first, first):
                    yield (first,) + rest

        rng = random.Random(41)
        for n in range(2, 11):
            for lengths in partitions(n):
                for _ in range(3):
                    phi = list(range(n))
                    rng.shuffle(phi)
                    g = relabeled_image(cycle_union(lengths), phi)
                    assert kernels.canonical_perm(
                        n, g.rows
                    ) == reference_canonical_perm(n, g.rows), (lengths, phi)

    @given(
        st.sampled_from(SYMMETRIC_FAMILIES),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_canonical_form_relabeling_invariant_on_symmetric_families(
        self, family, n, seed
    ):
        rng = random.Random(seed)
        g = symmetric_graph(family, n, rng)
        phi = list(range(n))
        rng.shuffle(phi)
        assert canonical_form(relabeled_image(g, phi)) == canonical_form(g)

    @pytest.mark.parametrize("loops", [False, True])
    def test_edgeless_and_complete_ten_vertices(self, loops):
        # factorial without pruning: all 10! leaves tie
        full = (1 << 10) - 1
        loop = [(1 << v) if loops else 0 for v in range(10)]
        identity = tuple(range(10))
        assert kernels.canonical_perm(10, loop) == identity
        complete = [full & ~(1 << v) | loop[v] for v in range(10)]
        assert kernels.canonical_perm(10, complete) == identity


def test_canonical_permutation_consistent(g3):
    perm = canonical_permutation(g3)
    assert sorted(perm) == [0, 1, 2]
